import ast
import inspect
from dataclasses import fields
from functools import cached_property
from pathlib import Path

import numpy as np

import pinchslp
import pinchslp.bench
import pinchslp.cli
import pinchslp.config
import pinchslp.oracles

# The names `from pinchslp import *` exports: the literal __all__ must equal
# this set.
EXPORTED = {
    "AOTrace", "ChannelSnapshot", "InfeasibleProblemError", "MovableRegion",
    "PGDConfig", "PlacementReport", "QPInstance", "QPSolution", "SPEED_OF_LIGHT",
    "SmoothingParams", "SubproblemTerms", "SymbolVector", "SystemGeometry", "Vec3",
    "WaveformParams", "ao", "ao_solve", "build_ci_qp",
    "build_subproblem_terms", "channel", "ci_margin", "conventional_array_snapshot",
    "db_to_linear", "dbm_to_watts", "effective_channels", "fixed_uniform_placement",
    "geometry", "initial_regions", "make_geometry",
    "optimize_all_positions", "pgd_solve", "placement",
    "placement_objective_exact", "precoder", "psk_constellation",
    "psk_symbols", "random_placement", "received_lambda", "recover_beam_matrix",
    "solve_min_power", "subproblem_gradient", "subproblem_objective", "validate_placement",
    "watts_to_dbm",
}

# Deleted helpers, and scalar references that live only in pinchslp.oracles.
REMOVED = {
    "armijo_step", "project", "pa_position", "user_pa_distance",
    "g_terms", "phi_branches", "smooth_term", "freespace_channel", "waveguide_phase_vector",
    "user_distance", "updated_region", "sinr", "transmit_power",
}


def test_all_is_the_exported_set():
    assert len(pinchslp.__all__) == len(set(pinchslp.__all__))
    assert set(pinchslp.__all__) == EXPORTED
    assert "annotations" not in pinchslp.__all__
    assert "distances" not in pinchslp.__all__


def test_star_import_binds_every_name():
    namespace = {}
    exec("from pinchslp import *", namespace)
    assert EXPORTED <= set(namespace)


def test_removed_names_are_gone_from_the_library():
    modules = [pinchslp.ao, pinchslp.channel, pinchslp.geometry, pinchslp.placement,
               pinchslp.precoder]
    for name in REMOVED:
        assert not hasattr(pinchslp, name), name
        assert not any(hasattr(m, name) for m in modules), name
    assert not hasattr(pinchslp.geometry.Vec3, "as_array")
    assert not hasattr(pinchslp.AOTrace, "iterations")
    # PGD steps are observed by wrapping module attributes, not through a callback
    assert "callback" not in inspect.signature(pinchslp.pgd_solve).parameters
    # unread state and second copies of the CSV columns
    assert not hasattr(pinchslp.oracles, "OracleReport")
    assert not any(hasattr(pinchslp.bench, name) for name in ("CSV_HEADER", "_fmt"))


def test_users_and_pairs_come_first():
    # one axis order: user and pair axes first, stacked rows last; the only
    # cached subproblem data is dy2, not a second copy of amp and phase_off
    cached = {name for name, v in vars(pinchslp.SubproblemTerms).items()
              if isinstance(v, cached_property)}
    assert cached == {"dy2"}
    d = pinchslp.geometry.distances(np.zeros(3), np.zeros(3), np.zeros((2, 4)), 0.0, 1.0)
    assert d.shape == (3, 2, 4)


def test_qp_and_symbols_hold_only_their_data():
    assert [f.name for f in fields(pinchslp.QPInstance)] == ["A", "b"]
    assert [f.name for f in fields(pinchslp.SymbolVector)] == ["s"]


# What oracles.py may take from the library: data types, plus the vectorized
# subproblem objective that the grid search evaluates. Never the kernels the
# oracles check (distances, effective_channels, _pair_parts, _all_branches).
ORACLE_IMPORTS = {
    "WaveformParams", "MovableRegion", "Vec3", "SubproblemTerms", "subproblem_objective",
    "QPInstance", "QPSolution",
}
SRC = Path(pinchslp.__file__).parent


def _library_imports(path):
    """(module, name) for every import of a pinchslp module in a source file;
    name is None for a plain `import pinchslp.x`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module == "pinchslp" or module.startswith("pinchslp."):
                found += [(module.rpartition(".")[2] if node.level == 0 else module, a.name)
                          for a in node.names]
        elif isinstance(node, ast.Import):
            found += [(a.name.rpartition(".")[2], None) for a in node.names
                      if a.name == "pinchslp" or a.name.startswith("pinchslp.")]
    return found


def test_library_never_imports_the_oracles():
    for path in SRC.glob("*.py"):
        if path.name == "oracles.py":
            continue
        for module, name in _library_imports(path):
            assert module != "oracles" and name != "oracles", f"{path.name} imports the oracles"


def test_oracles_import_only_allowed_names():
    imports = _library_imports(SRC / "oracles.py")
    assert imports  # the scan sees the relative imports
    for module, name in imports:
        assert name in ORACLE_IMPORTS, f"oracles.py imports {name!r} from {module!r}"


def test_no_module_imports_a_private_name_of_another():
    for path in SRC.glob("*.py"):
        for module, name in _library_imports(path):
            assert not (name or "").startswith("_"), f"{path.name} imports {name!r} from {module!r}"


# What config.py may take from the library: the carrier-derived constants an
# ExperimentConfig reports, and the dB conversions its checks apply. It sits
# below every module that reads a config.
CONFIG_IMPORTS = {"WaveformParams", "db_to_linear", "dbm_to_watts"}

# The config decision, what may be set and what a valid value is: defined in
# config.py alone.
CONFIG_NAMES = {
    "ConfigError", "Row", "FIELDS", "check_fields", "_COUNT", "_KINDS", "_MAX", "_as_tuple",
    "SmoothingParams", "PGDConfig", "SCHEMES", "ExperimentConfig",
    "config_from_dict", "load_config",
}


def _top_level_names(path):
    """Names a source file binds at module level by def, class or assignment."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_config_imports_only_allowed_names():
    imports = _library_imports(SRC / "config.py")
    assert imports
    for module, name in imports:
        assert name in CONFIG_IMPORTS, f"config.py imports {name!r} from {module!r}"


def test_config_decision_lives_in_config_alone():
    for path in SRC.glob("*.py"):
        defined = _top_level_names(path) & CONFIG_NAMES
        assert defined == (CONFIG_NAMES if path.name == "config.py" else set()), path.name
        if path.name != "config.py":
            assert ("config", "check_fields") not in _library_imports(path), path.name


def test_config_objects_keep_their_import_paths():
    config = pinchslp.config
    classes = (config.SmoothingParams, config.PGDConfig, config.ExperimentConfig)
    for obj in (config.ConfigError, config.Row, config.check_fields, *classes):
        assert obj.__module__ == "pinchslp.config", obj
    assert set(config.FIELDS) == {cls.__name__ for cls in classes}
    # the paths tests/test_acceptance.py, tests/test_ao.py and perfbench import
    assert pinchslp.placement.PGDConfig is config.PGDConfig
    assert pinchslp.placement.SmoothingParams is config.SmoothingParams
    assert pinchslp.bench.ExperimentConfig is config.ExperimentConfig
    assert pinchslp.cli.load_config is config.load_config
