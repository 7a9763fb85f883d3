import ctypes
import hashlib
import json
import math
import sys
from dataclasses import fields
from numbers import Real
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pinchslp.bench import (
    ExperimentRecord,
    emit_csv,
    generate_scenario,
    run_convergence,
    run_power_vs_numpas,
    run_power_vs_sinr,
)
from pinchslp.ao import ao_solve, fixed_uniform_placement
from pinchslp.channel import effective_channels
from pinchslp.cli import main as cli_main
from pinchslp.config import (
    FIELDS,
    SCHEMES,
    AOConfig,
    ConfigError,
    ExperimentConfig,
    PGDConfig,
    SmoothingParams,
    config_from_dict,
    load_config,
)
from pinchslp import placement
from pinchslp.placement import optimize_all_positions
from pinchslp.precoder import (InfeasibleProblemError, build_ci_qp, db_to_linear,
                               recover_beam_matrix, solve_min_power)

FAST = dict(
    num_waveguides=2,
    num_users=2,
    num_pas=2,
    trials=2,
    gamma_db=(14.0,),
    schemes=("fixed", "random"),
)


class TestConfig:
    def test_defaults_match_simulation_setup(self):
        cfg = ExperimentConfig()
        assert cfg.carrier_freq_hz == 2.8e10
        assert cfg.noise_dbm == -80.0
        assert cfg.num_waveguides == 4 and cfg.num_users == 4
        assert cfg.psk_order == 4
        assert cfg.noise_w == pytest.approx(1e-11, rel=1e-12)
        assert cfg.theta_th == pytest.approx(math.pi / 4)
        assert cfg.spacing == pytest.approx(cfg.params.wavelength / 2)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"carier_freq_hz": 1e9})

    def test_unknown_subconfig_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown pgd keys"):
            config_from_dict({"pgd": {"maxiters": 3}})

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError, match="unknown scheme"):
            config_from_dict({"schemes": ["proposed", "zf"]})

    def test_subconfig_parsed(self):
        cfg = config_from_dict({"pgd": {"restarts": 3}, "gamma_db": [10, 12]})
        assert cfg.pgd == PGDConfig(restarts=3)
        assert cfg.gamma_sweep() == (10, 12)

    def test_load_config_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"trials": 3, "master_seed": 9}))
        cfg = load_config(str(path))
        assert cfg.trials == 3 and cfg.master_seed == 9

    def test_load_config_rejects_non_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(str(path))


# JSON integers are unbounded; 10**400 does not fit in a float. Python's json
# reads and writes Infinity and NaN, so the non-finite floats are weighted up.
JSON_NUMBERS = (st.integers() | st.integers(-(10**400), 10**400) | st.floats()
                | st.sampled_from([math.inf, -math.inf, math.nan]))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | JSON_NUMBERS | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)
SUBCONFIG_TYPES = {"smoothing": SmoothingParams, "pgd": PGDConfig, "ao": AOConfig}


def _value_for(key):
    """Any JSON value; a sub-config key also gets objects over its own keys."""
    cls = SUBCONFIG_TYPES.get(key)
    if cls is None:
        return JSON_VALUES
    return st.dictionaries(st.sampled_from(sorted(cls.__dataclass_fields__)), JSON_VALUES) | JSON_VALUES


# Objects with one or two keys are drawn as often as larger ones: with more
# keys, an early check almost always rejects the object before later ones run.
_KEYS = st.sampled_from(sorted(ExperimentConfig.__dataclass_fields__))
CONFIG_OBJECTS = (st.lists(_KEYS, unique=True, max_size=2) | st.lists(_KEYS, unique=True)).flatmap(
    lambda keys: st.fixed_dictionaries({k: _value_for(k) for k in keys}))
# A single sub-config with one or two scalar fields passes the other checks
# often enough to reach the value checks on every field, booleans and
# strings included.
SUBCONFIG_OBJECTS = st.sampled_from(sorted(SUBCONFIG_TYPES)).flatmap(
    lambda key: st.dictionaries(st.sampled_from(sorted(SUBCONFIG_TYPES[key].__dataclass_fields__)),
                                JSON_NUMBERS | st.booleans() | st.text(max_size=8),
                                max_size=2).map(lambda sub: {key: sub}))


class TestConfigFuzz:
    @settings(max_examples=400, deadline=None)
    @given(CONFIG_OBJECTS | SUBCONFIG_OBJECTS)
    def test_any_object_builds_or_raises_config_error(self, data):
        try:
            cfg = config_from_dict(json.loads(json.dumps(data)))
        except ConfigError:
            return
        assert isinstance(cfg, ExperimentConfig)
        p = cfg.params
        reals = [p.wavelength, p.eta, p.beta0, p.beta1]
        for sub in (cfg.smoothing, cfg.pgd, cfg.ao):  # the fields with a float default
            reals += [getattr(sub, f.name) for f in fields(sub) if type(f.default) is float]
        assert all(isinstance(v, Real) and not isinstance(v, bool) for v in reals)
        assert all(abs(v) <= sys.float_info.max for v in reals)
        ints = list(cfg.num_pas_sweep())
        for sub in (cfg, cfg.pgd, cfg.ao):  # the other fields with an int default
            ints += [getattr(sub, f.name) for f in fields(sub)
                     if type(f.default) is int and f.name != "num_pas"]
        assert all(isinstance(v, int) and not isinstance(v, bool) for v in ints)
        linear = [cfg.noise_w] + [db_to_linear(g) for g in cfg.gamma_sweep()]
        assert all(0 < v <= sys.float_info.max for v in linear)

    def test_every_settable_value_has_one_table_row(self):
        for cls in (ExperimentConfig, *SUBCONFIG_TYPES.values()):
            names = [f.name for f in fields(cls) if f.name not in SUBCONFIG_TYPES]
            assert list(FIELDS[cls.__name__]) == names
        assert sum(map(len, FIELDS.values())) == 19


class TestGenerateScenario:
    def test_deterministic(self):
        cfg = ExperimentConfig(**FAST)
        g1, s1 = generate_scenario(cfg, 3)
        g2, s2 = generate_scenario(cfg, 3)
        assert g1.users == g2.users
        assert np.array_equal(s1.s, s2.s)

    def test_trials_differ(self):
        cfg = ExperimentConfig(**FAST)
        g1, _ = generate_scenario(cfg, 0)
        g2, _ = generate_scenario(cfg, 1)
        assert g1.users != g2.users

    def test_users_inside_square_at_ground(self):
        cfg = ExperimentConfig(**FAST)
        for trial in range(10):
            geom, _ = generate_scenario(cfg, trial)
            for u in geom.users:
                assert 0 <= u.x <= 20 and 0 <= u.y <= 20 and u.z == 0

    def test_symbols_unit_modulus(self):
        cfg = ExperimentConfig(**FAST)
        _, s = generate_scenario(cfg, 5)
        assert np.allclose(np.abs(s.s), 1.0, atol=1e-15)

    def test_scenario_independent_of_sweep_value(self):
        cfg = ExperimentConfig(**FAST)
        g1, s1 = generate_scenario(cfg, 2, num_pas=1)
        g2, s2 = generate_scenario(cfg, 2, num_pas=4)
        assert g1.users == g2.users
        assert np.array_equal(s1.s, s2.s)
        assert g2.num_pas_per_waveguide == 4


class TestRunners:
    def test_record_count_single_point(self):
        cfg = ExperimentConfig(**{**FAST, "schemes": ("fixed",), "trials": 1})
        records = run_power_vs_sinr(cfg)
        assert len(records) == 1
        r = records[0]
        assert r.scheme == "fixed" and r.experiment == "power-vs-sinr"
        assert r.converged and r.power_w > 0
        assert r.power_dbm == pytest.approx(10 * math.log10(r.power_w * 1e3), rel=1e-12)

    def test_record_count_sweeps(self):
        cfg = ExperimentConfig(**{**FAST, "gamma_db": (10.0, 14.0), "trials": 3})
        records = run_power_vs_sinr(cfg)
        assert len(records) == 2 * 2 * 3  # gammas x schemes x trials

    def test_numpas_sweep_counts_and_labels(self):
        cfg = ExperimentConfig(
            **{**FAST, "num_pas": (1, 3), "gamma_db": 14.0, "trials": 2}
        )
        records = run_power_vs_numpas(cfg)
        assert len(records) == 2 * 2 * 2
        assert sorted({r.num_pas for r in records}) == [1, 3]

    def test_power_non_decreasing_in_gamma(self):
        cfg = ExperimentConfig(**{**FAST, "gamma_db": (10.0, 16.0), "trials": 3})
        records = run_power_vs_sinr(cfg)
        by = {}
        for r in records:
            by[(r.scheme, r.trial, r.gamma_db)] = r.power_w
        for scheme in cfg.schemes:
            for trial in range(cfg.trials):
                assert by[(scheme, trial, 10.0)] <= by[(scheme, trial, 16.0)] * (1 + 1e-9)

    def test_convergence_traces(self):
        cfg = ExperimentConfig(
            **{**FAST, "schemes": ("proposed",), "trials": 1, "gamma_db": 14.0}
        )
        records = run_convergence(cfg)
        assert all(r.experiment == "convergence" for r in records)
        iters = [r.ao_iters for r in records]
        assert iters == list(range(len(iters)))
        powers = [r.power_w for r in records]
        assert all(a >= b - 1e-18 for a, b in zip(powers, powers[1:]))
        if records[0].converged:
            assert abs(powers[-1] - powers[-2]) / powers[-2] <= cfg.ao.rel_tol

    @pytest.mark.parametrize("experiment", ["power-vs-sinr", "convergence"])
    def test_infeasible_point_recorded(self, monkeypatch, experiment):
        from pinchslp import bench

        def infeasible(*args, **kwargs):
            raise InfeasibleProblemError("no feasible precoder", np.ones(1))

        monkeypatch.setattr(bench, "ao_solve", infeasible)
        monkeypatch.setattr(bench, "solve_min_power", infeasible)
        cfg = ExperimentConfig(**{**FAST, "schemes": SCHEMES, "num_pas": (1, 2)})
        records = bench.EXPERIMENTS[experiment](cfg)
        # convergence writes one row per (trial, L) and scheme "proposed" only
        expected = {"power-vs-sinr": 2 * 4, "convergence": 2 * 2}[experiment]
        assert len(records) == expected
        for r in records:
            assert math.isnan(r.power_w) and math.isnan(r.power_dbm)
            assert r.ao_iters == 0 and not r.converged

    def test_bit_identical_reruns(self):
        cfg = ExperimentConfig(**FAST)
        r1 = run_power_vs_sinr(cfg)
        r2 = run_power_vs_sinr(cfg)
        assert r1 == r2


def _direct_fixed_power(cfg, trial, gamma_db, L):
    """The fixed scheme's power on one point, solved on its own."""
    geom, symbols = generate_scenario(cfg, trial, num_pas=L)
    snap = effective_channels(geom, fixed_uniform_placement(geom), cfg.params)
    gamma = np.full(cfg.num_users, db_to_linear(gamma_db))
    return solve_min_power(build_ci_qp(snap, symbols, gamma, cfg.noise_w, cfg.theta_th)).power


class TestFixedReadsAoRoundZero:
    """Where the proposed scheme runs, the fixed scheme's record is the AO's
    round 0, the same solve of the same QP: it must equal a direct solve bit
    for bit."""

    @pytest.mark.parametrize("schemes", [("proposed", "fixed"), ("fixed", "proposed"),
                                         ("fixed",)])
    def test_fixed_equals_direct_solve(self, schemes):
        cfg = ExperimentConfig(**{**FAST, "gamma_db": (10.0, 14.0), "schemes": schemes})
        fixed = [r for r in run_power_vs_sinr(cfg) if r.scheme == "fixed"]
        assert len(fixed) == 2 * 2
        for r in fixed:
            assert r.converged and r.ao_iters == 0
            assert r.power_w.hex() == _direct_fixed_power(cfg, r.trial, r.gamma_db,
                                                          r.num_pas).hex()

    def test_failed_ao_leaves_fixed_its_own_solve(self, monkeypatch):
        from pinchslp import bench

        def infeasible(*args, **kwargs):
            raise InfeasibleProblemError("no feasible precoder", np.ones(1))

        monkeypatch.setattr(bench, "ao_solve", infeasible)
        cfg = ExperimentConfig(**{**FAST, "schemes": ("proposed", "fixed")})
        records = {r.scheme: r for r in run_power_vs_numpas(cfg) if r.trial == 0}
        assert math.isnan(records["proposed"].power_w)
        assert records["fixed"].converged
        assert records["fixed"].power_w.hex() == _direct_fixed_power(cfg, 0, 14.0, 2).hex()


class TestEmitCsv:
    HEADER = "experiment,trial,seed,scheme,gamma_db,num_pas,power_w,power_dbm,ao_iters,converged"

    def test_header_only_when_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], str(path))
        assert path.read_text() == self.HEADER + "\n"

    def test_roundtrip_and_order(self, tmp_path):
        cfg = ExperimentConfig(**{**FAST, "trials": 2})
        records = run_power_vs_sinr(cfg)
        path = tmp_path / "out.csv"
        emit_csv(records, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == self.HEADER
        assert len(lines) == len(records) + 1
        # trial-major, scheme-minor within a sweep point
        cols = [ln.split(",") for ln in lines[1:]]
        keys = [(int(c[1]), c[3]) for c in cols]
        assert keys == sorted(keys)
        # parse back and compare to 9 significant digits
        for c, r in zip(cols, records):
            assert float(c[6]) == pytest.approx(r.power_w, rel=1e-8)
            assert float(c[7]) == pytest.approx(r.power_dbm, rel=1e-8)
            assert c[9] in ("true", "false")

    def test_dbm_column_identity(self, tmp_path):
        cfg = ExperimentConfig(**{**FAST, "trials": 1})
        records = run_power_vs_sinr(cfg)
        path = tmp_path / "out.csv"
        emit_csv(records, str(path))
        line = path.read_text().strip().split("\n")[1].split(",")
        assert float(line[7]) == pytest.approx(
            10 * math.log10(float(line[6]) * 1e3), rel=1e-7
        )

    def test_cells_follow_declared_types(self, tmp_path):
        # an int in a float field still gets 9 significant digits
        record = ExperimentRecord("power-vs-sinr", 0, 7, "fixed", 1234567891, 3, 2, 0.5, 4, True)
        path = tmp_path / "out.csv"
        emit_csv([record], str(path))
        assert path.read_text() == (self.HEADER + "\n"
                                    "power-vs-sinr,0,7,fixed,1.23456789e+09,3,2,0.5,4,true\n")

    def test_write_failure_has_path_context(self, tmp_path):
        with pytest.raises(OSError, match="no/such/dir"):
            emit_csv([], str(tmp_path / "no/such/dir/out.csv"))


class TestCli:
    def write_cfg(self, tmp_path, **overrides):
        path = tmp_path / "cfg.json"
        data = {
            "num_waveguides": 2,
            "num_users": 2,
            "num_pas": 2,
            "trials": 2,
            "gamma_db": [14.0],
            "schemes": ["fixed"],
        }
        data.update(overrides)
        path.write_text(json.dumps(data))
        return str(path)

    def test_run_writes_csv(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "results.csv"
        code = cli_main(
            ["run", "--config", cfg, "--experiment", "power-vs-sinr", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert len(out.read_text().strip().split("\n")) == 3  # header + 2 trials

    def test_flag_overrides(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "r.csv"
        code = cli_main(
            ["run", "--config", cfg, "--experiment", "power-vs-sinr",
             "--trials", "1", "--seed", "99", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[1].split(",")[2] == "99"

    def test_identical_seeds_identical_files(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert cli_main(
                ["run", "--config", cfg, "--experiment", "power-vs-sinr",
                 "--seed", "5", "--out", str(out)]
            ) == 0
        assert out1.read_text() == out2.read_text()

    def test_int_gamma_db_writes_the_float_csv(self, tmp_path):
        # configs/example.json gives gamma_db as ints
        texts = []
        for gamma in (10, 10.0):
            out = tmp_path / f"{gamma!r}.csv"
            assert cli_main(["run", "--config", self.write_cfg(tmp_path, gamma_db=[gamma]),
                             "--experiment", "power-vs-sinr", "--out", str(out)]) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        assert {line.split(",")[4] for line in texts[0].splitlines()[1:]} == {"10"}

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"bogus_key": 1}))
        code = cli_main(
            ["run", "--config", str(path), "--experiment", "power-vs-sinr"]
        )
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err

    # A row whose message the per-field checker reworded keeps its first id,
    # which quotes the old message, so its test keeps its name. So does a row
    # whose key left the config for a placement constant: its input is
    # unchanged, and it now expects the unknown-key message.
    @pytest.mark.parametrize("overrides, message", [
        ({"num_users": 0}, "num_users must be positive"),
        pytest.param({"num_pas": 0}, "num_pas must be positive, got 0",
                     id="overrides1-num_pas must be one or more positive integers"),
        pytest.param({"pgd": {"max_iters": 1.5}}, "unknown pgd keys: ['max_iters']",
                     id="overrides2-pgd: max_iters, max_backtracks and restarts must be "
                        "integers"),
        ({"trials": 1.5}, "trials must be an integer"),
        pytest.param({"noise_dbm": "x"}, "noise_dbm must be a number, got 'x'",
                     id="overrides4-noise_dbm must be a finite number"),
        ({"psk_order": 1}, "psk_order must be at least 2"),
        pytest.param({"gamma_db": []}, "gamma_db must not be empty",
                     id="overrides6-gamma_db must be one or more finite numbers"),
        ({"num_waveguides": 0}, "num_waveguides must be positive"),
        pytest.param({"pgd": {"restarts": -1}}, "pgd: restarts must be non-negative, got -1",
                     id="overrides8-restarts >= 0"),
        ({"smoothing": {"adaptive": "no"}}, "unknown smoothing keys: ['adaptive']"),
        pytest.param({"ao": {"max_iters": 2.5}}, "ao: max_iters must be an integer, got 2.5",
                     id="overrides10-ao: max_iters must be a non-negative integer"),
        ({"schemes": []}, "schemes must name at least one scheme"),
        ({"num_pas": 5000}, "waveguide_length_m cannot fit 5000 antennas"),
        ({"master_seed": -3}, "master_seed must be non-negative"),
        ({"psk_order": 2}, "BPSK"),
        ({"carrier_freq_hz": 10**400}, "carrier_freq_hz must be a finite number"),
        pytest.param({"num_pas": 10**400}, "num_pas must be less than 2147483648, got 1000",
                     id="overrides16-waveguide_length_m cannot fit"),
        ({"carrier_freq_hz": 5e-324, "min_spacing_m": 0.01}, "carrier_freq_hz 5e-324"),
        ({"carrier_freq_hz": 5e-324}, "carrier_freq_hz 5e-324"),
        ({"carrier_freq_hz": 1e300, "refractive_index": 1e300}, "carrier_freq_hz 1e+300"),
        pytest.param({"smoothing": {"kappa": math.inf}}, "smoothing: kappa must be a finite number",
                     id="overrides20-smoothing: kappa and floor must be finite"),
        ({"smoothing": {"eps": math.inf}}, "unknown smoothing keys: ['eps']"),
        pytest.param({"pgd": {"init_step": math.inf}}, "unknown pgd keys: ['init_step']",
                     id="overrides22-pgd: step_tol, init_step and armijo_c1 must be finite"),
        pytest.param({"pgd": {"step_tol": math.inf}}, "unknown pgd keys: ['step_tol']",
                     id="overrides23-pgd: step_tol, init_step and armijo_c1 must be finite"),
        pytest.param({"pgd": {"armijo_c1": math.inf}}, "unknown pgd keys: ['armijo_c1']",
                     id="overrides24-pgd: step_tol, init_step and armijo_c1 must be finite"),
        pytest.param({"pgd": {"shrink": math.inf}}, "unknown pgd keys: ['shrink']",
                     id="overrides25-pgd: shrink factor must be < 1"),
        pytest.param({"pgd": {"init_step": math.nan}}, "unknown pgd keys: ['init_step']",
                     id="overrides26-pgd: all PGD settings must be positive"),
        pytest.param({"ao": {"rel_tol": math.inf}}, "ao: rel_tol must be a finite number",
                     id="overrides27-ao: rel_tol must be positive and finite"),
        ({"ao": {"guard_enabled": False}}, "unknown ao keys: ['guard_enabled']"),
        ({"smoothing": {"kappa": True}}, "smoothing: kappa must be a number, got True"),
        pytest.param({"pgd": {"step_tol": True}}, "unknown pgd keys: ['step_tol']",
                     id="overrides30-pgd: step_tol must be a number, got True"),
        ({"ao": {"rel_tol": True}}, "ao: rel_tol must be a number, got True"),
        pytest.param({"pgd": {"init_step": "0.1"}}, "unknown pgd keys: ['init_step']",
                     id="overrides32-pgd: init_step must be a number, got '0.1'"),
        ({"noise_dbm": 4000}, "noise_dbm must have a positive finite linear value, got 4000"),
        ({"noise_dbm": -4000}, "noise_dbm must have a positive finite linear value, got -4000"),
        ({"gamma_db": [14, 4000]}, "gamma_db must have a positive finite linear value, got 4000"),
        ({"gamma_db": [-4000]}, "gamma_db must have a positive finite linear value, got -4000"),
        ({"schemes": "fixed"}, "schemes must be a list of names, got 'fixed'"),
        ({"schemes": ["fixed", "fixed"]}, "schemes must name at least one scheme, each once"),
        pytest.param({"pgd": {"shrink": 1}}, "unknown pgd keys: ['shrink']",
                     id="overrides39-pgd: shrink must be less than 1, got 1"),
        ({"psk_order": True}, "psk_order must be an integer, got True"),
        ({"min_spacing_m": -0.5}, "min_spacing_m must be non-negative, got -0.5"),
        ({"num_pas": [2, "3"]}, "num_pas must be an integer, got '3'"),
        ({"num_users": 10**30}, "num_users must be less than 2147483648, got 1000"),
        ({"num_users": 2**31}, "num_users must be less than 2147483648, got 2147483648"),
        ({"psk_order": 10**30}, "psk_order must be less than 2147483648, got 1000"),
        ({"num_waveguides": 10**30}, "num_waveguides must be less than 2147483648, got 1000"),
        ({"num_pas": [3, 2**31]}, "num_pas must be less than 2147483648, got 2147483648"),
        ({"height_m": 1e200}, "region_side_m, waveguide_length_m and height_m must keep the "
                              "squared user-to-antenna distance finite, got 20.0, 20.0, 1e+200"),
        ({"region_side_m": 1e200}, "squared user-to-antenna distance finite, got 1e+200, 20.0"),
        ({"waveguide_length_m": 1e300}, "squared user-to-antenna distance finite, got 20.0, 1e+300"),
        pytest.param({"pgd": {"max_backtracks": 2**40}}, "unknown pgd keys: ['max_backtracks']",
                     id="overrides51-pgd: max_backtracks must be less than 4096, got "
                        "1099511627776"),
        pytest.param({"pgd": {"max_backtracks": 2**31 - 1}},
                     "unknown pgd keys: ['max_backtracks']",
                     id="overrides52-pgd: max_backtracks must be less than 4096, got 2147483647"),
        ({"pgd": {"restarts": 2**40}}, "pgd: restarts must be less than 1024, got 1099511627776"),
        ({"trials": 1, "gamma_db": [10], "num_pas": 1, "carrier_freq_hz": 1e-290,
          "schemes": ["conventional", "fixed"]}, "carrier_freq_hz 1e-290 gives a channel scale"),
        ({"num_pas": 1, "carrier_freq_hz": 1.9e-147, "schemes": ["conventional"]},
         "the conventional array at carrier_freq_hz 1.9e-147 spans"),
        ({"smoothing": {"floor": 1e-15}}, "unknown smoothing keys: ['floor']"),
    ])
    def test_malformed_config_exits_2(self, tmp_path, capsys, overrides, message):
        cfg = self.write_cfg(tmp_path, **overrides)
        # rejected while the config is read, before a run allocates anything
        with open(cfg) as fh, pytest.raises(ConfigError) as exc:
            config_from_dict(json.load(fh))
        assert message in str(exc.value)
        code = cli_main(["run", "--config", cfg, "--experiment", "power-vs-sinr",
                         "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--trials", "0"], "trials must be positive"),
        (["--seed", "-1"], "master_seed must be non-negative"),
    ])
    def test_malformed_flag_exits_2(self, tmp_path, capsys, flags, message):
        # the flags reach the config through dataclasses.replace
        cfg = self.write_cfg(tmp_path)
        code = cli_main(["run", "--config", cfg, "--experiment", "power-vs-sinr",
                         "--out", str(tmp_path / "r.csv"), *flags])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_every_trial_infeasible_exits_1(self, tmp_path, capsys, monkeypatch):
        from pinchslp import bench

        def infeasible(*args, **kwargs):
            raise InfeasibleProblemError("no feasible precoder", np.ones(1))

        monkeypatch.setattr(bench, "ao_solve", infeasible)
        monkeypatch.setattr(bench, "solve_min_power", infeasible)
        cfg = self.write_cfg(tmp_path, schemes=list(SCHEMES))
        code = cli_main(["run", "--config", cfg, "--experiment", "power-vs-sinr",
                         "--out", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: every trial was infeasible" in err and "Traceback" not in err

    def test_finite_powers_without_ao_convergence_exit_0(self, tmp_path, capsys):
        # with no AO round after round 0 no record is converged, but every
        # power is finite, so the run succeeded
        cfg = self.write_cfg(tmp_path, num_waveguides=4, schemes=["proposed"], gamma_db=[10],
                             ao={"max_iters": 0})
        out = tmp_path / "r.csv"
        code = cli_main(["run", "--config", cfg, "--experiment", "power-vs-sinr",
                         "--out", str(out)])
        assert code == 0 and "error" not in capsys.readouterr().err
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert len(rows) == 2
        assert all(math.isfinite(float(r[6])) and r[9] == "false" for r in rows)

    def test_overlong_integer_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        # past the 4,300-digit limit of int() parsing where Python has one;
        # beyond the float range either way
        path.write_text('{"carrier_freq_hz": 1' + "0" * 5000 + "}")
        code = cli_main(["run", "--config", str(path), "--experiment", "power-vs-sinr"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "missing" / "r.csv"
        code = cli_main(["run", "--config", cfg, "--experiment", "power-vs-sinr",
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot write results" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli_main(
            ["run", "--config", str(tmp_path / "nope.json"),
             "--experiment", "power-vs-sinr"]
        )
        assert code == 2


def _csv_sha256(records, tmp_path):
    path = tmp_path / "golden.csv"
    emit_csv(records, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _numpy_targets():
    """The running numpy version and the SIMD targets its dispatcher uses:
    the loops these pick decide the last bits of the bit-level goldens."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    on = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return f"numpy {np.__version__} with {' '.join(on) or 'baseline loops only'}"


def _openblas_core():
    """The core of numpy's bundled OpenBLAS (e.g. SkylakeX or Haswell), which
    it picks by CPU when it loads unless OPENBLAS_CORETYPE names one: its
    kernels decide the last bits of the CI-QP's small products and solves."""
    try:
        lib = next((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
        corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
    except (StopIteration, OSError, AttributeError):  # no bundled scipy-openblas
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


# Printed with a failing golden, so a mismatch of numpy, of its SIMD loops or
# of the OpenBLAS core shows as the cause next to the diff.
GOLDEN_NOTE = (f"\nrunning:  {_numpy_targets()}; OpenBLAS core {_openblas_core()}"
               "\nrecorded: numpy 2.4.6 with X86_V3 X86_V4 AVX512_ICL AVX512_SPR;"
               " OpenBLAS core SkylakeX or Haswell")


# One position sweep per case: (L, smoothing, pgd) -> its row-major N x L
# placement as float.hex.
GOLDEN_PLACEMENTS = {
    (3, SmoothingParams(), PGDConfig()): (
        "0x1.aa39a6f35669ep+1 0x1.4a49f106afab3p+3 0x1.09e71f5a88076p+4 "
        "0x1.de1915175ff1ap+1 0x1.50057ae78b481p+3 0x1.0aab85df9cbb9p+4 "
        "0x1.08fd6c7f03b3dp-2 0x1.3fe97e15f86c7p+3 0x1.0a4c5a9a2f532p+4 "
        "0x1.b81a188ac50dfp+1 0x1.407fa2058df15p+3 0x1.eca7e32c6dcc7p+3"
    ),
    (5, SmoothingParams(), PGDConfig(restarts=2)): (
        "0x1.feea26bf01dcap+1 0x1.e8d11d839bb58p+2 0x1.11ffbd1cf8904p+3 "
        "0x1.8620c1a780d55p+3 0x1.201763b73fd2dp+4 0x1.fc791d811bf93p+0 "
        "0x1.ed2429c7a67a9p+2 0x1.2495b6752fa7fp+3 0x1.d3b71c05bcaecp+3 "
        "0x1.1e47ec78c41dbp+4 0x1.007a05642c1bep+1 0x1.4e70c5449ec2cp+2 "
        "0x1.7f5116a8b8053p+3 0x1.ffe583e8c4c6ap+3 0x1.3fbaf4722a1d1p+4 "
        "0x1.288bb16596831p+1 0x1.013e5a6a07a29p+2 0x1.430fd66fc1301p+3 "
        "0x1.ad8b300f2d310p+3 0x1.200481fcf1cbcp+4"
    ),
    (7, SmoothingParams(), PGDConfig()): (
        "0x1.b6fbc0e7dcdc8p+0 0x1.1bca8d33005bap+2 0x1.c913982bb723dp+2 "
        "0x1.3d80959f996dap+3 0x1.9be9e59379c04p+3 0x1.0b571fdfe31bdp+4 "
        "0x1.29302bf5a7bbep+4 0x1.9d13b4df84eebp+0 0x1.cde0ca1c3b5afp+1 "
        "0x1.c8bea4f3b08aep+2 0x1.3f60b92822a9cp+3 0x1.9b65e8c9e5a28p+3 "
        "0x1.f6e6b0c1f4354p+3 0x1.2aa4ba106c4b3p+4 0x1.50d7c1a7d8df9p+0 "
        "0x1.11e46e5d17dddp+2 0x1.ca8ef44acaa25p+2 0x1.69839c6b1ccedp+3 "
        "0x1.a31938eaa7151p+3 0x1.f9a97fa4cf3b8p+3 0x1.368d3f70cef97p+4 "
        "0x1.0d20799bd1c36p-5 0x1.126beb2f028fep+2 0x1.cab9ea5c87e9fp+2 "
        "0x1.4016ee3b68aeap+3 0x1.8f91bc4f188e4p+3 0x1.ea27cef41a09ep+3 "
        "0x1.2bb093100c32ap+4"
    ),
}


# Placement constants that shape cases set: a schedule from 1e6 misses the
# first half of the Armijo schedule at every step; three iterations stop the
# solve at its iteration limit.
SHAPE_CONSTANTS = {"armijo-second-half": {"_STEPS": 1e6 * 0.5 ** np.arange(41)},
                   "max-iters": {"_MAX_ITERS": 3}}

# Sweeps of shapes the cases above miss (K = 1 is a 1 x 1 pair axis): (N, K,
# L, smoothing, pgd, SHAPE_CONSTANTS key or None) -> row-major N x L entries.
GOLDEN_SHAPES = {
    (4, 1, 3, SmoothingParams(), PGDConfig(), None): (
        "0x1.a9ef660d28a5dp+1 0x1.4024af484c18ap+3 0x1.1a099f2dddab3p+4 "
        "0x1.ab7451a78bfbbp+1 0x1.3ddc2cdba2e65p+3 0x1.0aa5a3f34161ep+4 "
        "0x1.aabfc68fcb3bep+1 0x1.37b541e4cc37ap+3 0x1.fe8dbfb4af083p+3 "
        "0x1.a3cd7978b70f0p+1 0x1.40058e4ddaebcp+3 0x1.0aabb539de63ap+4"
    ),
    (4, 6, 3, SmoothingParams(), PGDConfig(), None): (
        "0x1.a57460d5e384dp+1 0x1.4e3080a2883f0p+3 0x1.0c469b550907fp+4 "
        "0x1.3b204e2316198p+0 0x1.359ea6efdc48cp+3 0x1.0a7de4c0f3300p+4 "
        "0x1.2ebf44e2af9e2p+0 0x1.6bdb88d7da12cp+3 0x1.152838ad8a88bp+4 "
        "0x1.aa138ef1dfba1p+1 0x1.4f4b8fcf93b68p+3 0x1.0aa2a913f1d8dp+4"
    ),
    (1, 4, 5, SmoothingParams(), PGDConfig(), None): (
        "0x1.010c8779ea292p+1 0x1.002bdaf878660p+2 0x1.0b553ec78288fp+3 "
        "0x1.bfcd629cb8d45p+3 0x1.000cd8a0da2ddp+4"
    ),
    (3, 2, 4, SmoothingParams(), PGDConfig(restarts=1), None): (
        "0x1.2eff56d128150p+1 0x1.fb76705326fa7p+2 0x1.8ff2808eb13e3p+3 "
        "0x1.189cbe6b26573p+4 0x1.3f0c8aa4ea13fp+1 0x1.edf1760520162p+2 "
        "0x1.900d287574d6fp+3 0x1.e01ecb4df9823p+3 0x1.20917a442a921p+1 "
        "0x1.dfff3dc60e23bp+2 0x1.8e77f267c68d2p+3 0x1.e01cfdda5e369p+3"
    ),
    (4, 4, 3, SmoothingParams(), PGDConfig(), "armijo-second-half"): (
        "0x1.aa39a88a25317p+1 0x1.981640178894fp+3 0x1.09e71e6eadcf9p+4 "
        "0x1.27a13dd788acap-11 0x1.5005761631bb2p+3 0x1.18be2d4365b56p+4 "
        "0x1.d34b878dda82dp+1 0x1.78796068fff8ep+3 0x1.0a733db6a2fd3p+4 "
        "0x1.77c68dfa7326ep+1 0x1.aa94bd2e6e77bp+3 0x1.e47ced86dee74p+3"
    ),
    (4, 4, 3, SmoothingParams(), PGDConfig(), "max-iters"): (
        "0x1.aa33cd987b202p+1 0x1.4a49f46b3c439p+3 0x1.09e74a4b70184p+4 "
        "0x1.de194c86cb028p+1 0x1.50058abaf045dp+3 0x1.0aab8644ab017p+4 "
        "0x1.08fed727c3dd4p-2 0x1.3fe94d81f0b89p+3 0x1.0a4c5873cd901p+4 "
        "0x1.b8155f1339fcdp+1 0x1.407ee7b4521e1p+3 0x1.eca7f396e2a6cp+3"
    ),
}


def _pgd_stacks(count=200, seed=2800):
    """Seeded random pgd_solve inputs, (terms, region, eps, cfg, x_init): 1-8
    stacked rows over 1-4 users, rank-one (m = 1, mult K) or K x K pair axes,
    zero-amplitude rows, point regions, every third case with 2 restarts and
    every seventh a single unstacked row."""
    rng = np.random.default_rng(seed)
    params = ExperimentConfig().params
    for i in range(count):
        K, n = int(rng.integers(1, 5)), 1 if i % 7 == 0 else int(rng.integers(2, 9))
        m = 1 if i % 2 else K
        amp = rng.uniform(0, 0.1, (m, n))
        amp[:, rng.random(n) < 0.15] = 0.0
        lower = rng.uniform(0, 16, n)
        upper = np.where(rng.random(n) < 0.1, lower, lower + rng.uniform(0, 4, n))
        x0 = rng.uniform(lower, upper)
        terms = placement.SubproblemTerms(
            amp=amp, phase_off=rng.uniform(-np.pi, np.pi, (m, K, n)),
            user_x=rng.uniform(0, 20, K), user_y=rng.uniform(0, 20, K),
            waveguide_y=rng.uniform(0, 20, n), height=5.0, beta0=params.beta0,
            beta1=params.beta1, tan_th=1.0, mult=float(K) if m == 1 else 1.0)
        eps = placement.pick_eps(terms, x0, SmoothingParams(kappa=[0.01, 0.1, 1.0][i % 3]))
        if n == 1:
            terms = terms.rows(0)
            lower, upper, eps, x0 = float(lower[0]), float(upper[0]), float(eps[0]), float(x0[0])
        yield (terms, placement.MovableRegion(lower, upper), eps,
               PGDConfig(restarts=2 if i % 3 == 0 else 0), x0)


# pgd_solve's ends on _pgd_stacks(): sha256 over the float.hex of every
# case's ends, case after case.
GOLDEN_PGD_STACKS = "aeaed972bb73e836c905fb66e1a9d786a90cc2e543a3ce05e05ba81902d1b5bb"


def _golden_sweep(N, K, L, smoothing, pgd):
    """One position sweep of seeded scenario L with N waveguides and K users,
    from the uniform grid, under rank-one beams drawn from (77, L)."""
    cfg = ExperimentConfig(master_seed=77, num_waveguides=N, num_users=K)
    geom, symbols = generate_scenario(cfg, L, num_pas=L)
    rng = np.random.default_rng([77, L])
    W = recover_beam_matrix(0.2 * (rng.normal(size=N) + 1j * rng.normal(size=N)), symbols)
    return optimize_all_positions(geom, fixed_uniform_placement(geom), W, symbols.s, cfg.params,
                                  cfg.theta_th, smoothing, pgd)


# Whole AO runs per OpenBLAS core, whose kernels move the CI-QP's last bits
# (see _openblas_core): core -> (L, trial, gamma_db, ao) -> sha256 over the
# float.hex of every round's power, the accepted flags, the converged flag,
# and the bytes of the final W and placement.
# Besides the defaults' convergence, one case per exit of the AO loop:
# - max_iters=0: round 0 only, unconverged, no sweep;
# - max_iters=2 on L3-t0-10dB: converged on rejected round 2, also its
#   round limit, where the default stops too (same digest as L3-t0-10dB);
# - rel_tol=1e-2: converged on accepted round 2, where the default stops
#   at rejected round 4;
# - max_iters=2 on L5-t1-10dB: the round limit, unconverged on accepted
#   round 2, where the default goes on to converge at accepted round 6.
# Of the defaults, L3-t1-10dB, L3-t1-20dB, L5-t1-10dB, L7-t1-10dB and
# L7-t1-20dB converge on an accepted round, the others on a rejected one.
GOLDEN_AO = {
    "SkylakeX": {
        (3, 0, 10.0, AOConfig()):
            "20cd7590f8627abb3e099fe5a66833a823a255362e2c27978b719ecf5caf1b5a",
        (3, 0, 20.0, AOConfig()):
            "826a7d3dd4cc96a76e8e516e110790c3c89dcd9d809b8e3aca130f322daabc70",
        (3, 1, 10.0, AOConfig()):
            "a5d3b94e7e8ea3c501c249813ca04e519160f45ea5297bd71a2de49050102cdc",
        (3, 1, 20.0, AOConfig()):
            "e4379317561c2bacb2e6c9228641f015410079e1bc9a89b30d8f82677b1e4fb4",
        (5, 0, 10.0, AOConfig()):
            "1bed5e1f6ea7cd927563331d7da0213f41d1fc0ef4b9b4ba5f908bfe3aa50744",
        (5, 0, 20.0, AOConfig()):
            "302fbf02af9cbb4751af7c327d912eb728c1fcfcb78e95e63233ddeb620673f7",
        (5, 1, 10.0, AOConfig()):
            "e11c6afcc1140ba8931cdf79330c309b2794b5aa1518b367e2545cf581d12648",
        (5, 1, 20.0, AOConfig()):
            "d1e76c63b2dc6777ab30994232da64aeddd5db82b3e149529f3d3bd69030857b",
        (7, 0, 10.0, AOConfig()):
            "8f5257d31278a8b613a0047a4f47855de3b97fa63a0402fe97bdc8916fa6e81c",
        (7, 0, 20.0, AOConfig()):
            "e0e8829ae40a02a7d596ab5c376fa860e406184c6059f4b4d694604e7e4680de",
        (7, 1, 10.0, AOConfig()):
            "88ea77a1f01637f5d70906f3ea3edc18e1e6d93adce5f2b623fae8d24470d0c9",
        (7, 1, 20.0, AOConfig()):
            "e6bd537a2beba9664a4ebd5ce0f4f73e44db9f04e15f2b19436f2fbe3711476d",
        (3, 0, 10.0, AOConfig(max_iters=0)):
            "50606c00565376b98e3b93cace371cc4f85385b0523bea63c4ba6652b6e1cfd2",
        (3, 0, 10.0, AOConfig(max_iters=2)):
            "20cd7590f8627abb3e099fe5a66833a823a255362e2c27978b719ecf5caf1b5a",
        (5, 0, 10.0, AOConfig(rel_tol=1e-2)):
            "6d6fc7c3832aacfb7af8dd76322be3b9c3d12d27ce575cb2114a90d41ba9cef9",
        (5, 1, 10.0, AOConfig(max_iters=2)):
            "b1939eac0d957e48f5939f7bf9fc5ae905099a7cc8616e00897ebc1eaf90a186",
    },
    "Haswell": {
        (3, 0, 10.0, AOConfig()):
            "a1ad37be7c498bd893c4878122329d413cfd929808b2170ee86179a17efaacd8",
        (3, 0, 20.0, AOConfig()):
            "4f590a250dd3119423ea7ddba24f7784516ed596810960205f76cd9817f90998",
        (3, 1, 10.0, AOConfig()):
            "7c4d9246458420c6d466f826f9777d60fe4d9d56367cb74a3563717195310c5e",
        (3, 1, 20.0, AOConfig()):
            "d5c9d2af69e28ca80303136a92b54c0cbfae1a72eaca81d7a31b74931e0210bc",
        (5, 0, 10.0, AOConfig()):
            "99a2d956b9335519a517d7afa4ac66a4f34d494937f0cb98c2d2cfa8381f312a",
        (5, 0, 20.0, AOConfig()):
            "02556e06043263edc5c74ce48e11f739d2fc17c37457a4897df9d85cb5458e4c",
        (5, 1, 10.0, AOConfig()):
            "9cce77c8b95ad3a006dc633d7cb95b4cfea49b0ef9a06ca1d8501459c08db003",
        (5, 1, 20.0, AOConfig()):
            "3858e83269aebd3be29d649292711a9249741e83dae6e7becc0e53fd48fedb58",
        (7, 0, 10.0, AOConfig()):
            "9bd666ff2eb611e0db6d034ff2ef2305176c9c44bba837f6cfb8d453835cf695",
        (7, 0, 20.0, AOConfig()):
            "d69ce86564583a05b1845888d9ab7c68b671cc2ea285ff557282454133d4a435",
        (7, 1, 10.0, AOConfig()):
            "007940c763027a087168a9d69d03264d731a5945415f36be2d7f62899d022f1e",
        (7, 1, 20.0, AOConfig()):
            "b43af8b3a83ba91773b6eb7d66eb764079df8b317513903abf468c42925cba05",
        (3, 0, 10.0, AOConfig(max_iters=0)):
            "17ba31e9ed9514a6ce2547d6cc49ed947535bf80ca8d1f4507e429b69c282a11",
        (3, 0, 10.0, AOConfig(max_iters=2)):
            "a1ad37be7c498bd893c4878122329d413cfd929808b2170ee86179a17efaacd8",
        (5, 0, 10.0, AOConfig(rel_tol=1e-2)):
            "5d70eed1c007e64e68f58bf8a625ac75fa3ad1d072c2d89705f6b9355a39e7d8",
        (5, 1, 10.0, AOConfig(max_iters=2)):
            "05f8ff7220033bed4f3bbcef199af507c61b3692fcb4290d9c05f053a9c282d5",
    },
}


# The round count and final power of every GOLDEN_AO case, the power to the
# relative 1e-9 that TestProposedMetamorphic asserts, so they hold where the
# digests do not: under either core and with numpy's baseline loops.
PORTABLE_AO = {
    (3, 0, 10.0, AOConfig()): (3, 0.00043625397349558677),
    (3, 0, 20.0, AOConfig()): (3, 0.004362628604369995),
    (3, 1, 10.0, AOConfig()): (3, 0.0005405104578324816),
    (3, 1, 20.0, AOConfig()): (3, 0.0054050985728838945),
    (5, 0, 10.0, AOConfig()): (5, 0.000222111999104189),
    (5, 0, 20.0, AOConfig()): (4, 0.0022222081464258105),
    (5, 1, 10.0, AOConfig()): (7, 0.00025122357844958827),
    (5, 1, 20.0, AOConfig()): (4, 0.00259307106453319),
    (7, 0, 10.0, AOConfig()): (4, 0.00017599917282855865),
    (7, 0, 20.0, AOConfig()): (4, 0.0018240560095908313),
    (7, 1, 10.0, AOConfig()): (5, 0.0002427434372988674),
    (7, 1, 20.0, AOConfig()): (6, 0.0022601720543424025),
    (3, 0, 10.0, AOConfig(max_iters=0)): (1, 0.0076650330644216684),
    (3, 0, 10.0, AOConfig(max_iters=2)): (3, 0.00043625397349558677),
    (5, 0, 10.0, AOConfig(rel_tol=1e-2)): (3, 0.00022250904707863452),
    (5, 1, 10.0, AOConfig(max_iters=2)): (3, 0.0002593008786508568),
}


def _ao_case_id(case):
    L, trial, gamma_db, ao = case
    return f"L{L}-t{trial}-{gamma_db:g}dB" + (
        "" if ao == AOConfig() else f"-iters{ao.max_iters}-tol{ao.rel_tol:g}")


def _golden_ao(L, trial, gamma_db, ao):
    """ao_solve on seeded scenario (77, trial) with L antennas per waveguide,
    from the uniform grid at SINR target gamma_db; returns the result and
    its digest as recorded in GOLDEN_AO."""
    cfg = ExperimentConfig(master_seed=77, ao=ao)
    geom, symbols = generate_scenario(cfg, trial, num_pas=L)
    gamma = np.full(cfg.num_users, db_to_linear(gamma_db))
    W, x, trace = ao_solve(geom, cfg.params, symbols, gamma, cfg.noise_w, cfg.theta_th,
                           fixed_uniform_placement(geom), cfg.ao, cfg.pgd, cfg.smoothing)
    text = " ".join(v.hex() for v in trace.powers)
    text += f" {trace.accepted} {trace.converged}"
    digest = hashlib.sha256(text.encode() + W.tobytes() + x.tobytes()).hexdigest()
    return (W, x, trace), digest


class TestGoldenOutputs:
    """Bit-identity against recorded outputs: a pure speed-up must not move a
    single bit. The AO's first sweep starts from a guide-wavelength grid (a
    lone sweep, as in the placement goldens, does not). They pin the
    cell-based sweep, in which
    every antenna moves within its cell of the current placement and all
    N x L of them are one stacked solve. The placements pass a beam matrix W; the
    CSVs run the AO, whose sweep takes the collapsed rank-one terms. The AO
    runs (GOLDEN_AO) also pin what the CSVs do not print: every round's
    power, W and the placement."""

    # the sha256 of each CSV, which holds under either OpenBLAS core, with and
    # without numpy's baseline loops
    def test_convergence_csv(self, tmp_path):
        cfg = ExperimentConfig(trials=2, num_pas=(3, 5), gamma_db=16.0, schemes=("proposed",))
        assert _csv_sha256(run_convergence(cfg), tmp_path) == (
            "ddf794c0c733b75571d11e5f0931221f5b3d257505ff0839e1df1bd819732c23"
        ), GOLDEN_NOTE

    def test_power_vs_sinr_csv_with_restarts(self, tmp_path):
        cfg = ExperimentConfig(trials=1, gamma_db=(10.0, 20.0), pgd=PGDConfig(restarts=2))
        assert _csv_sha256(run_power_vs_sinr(cfg), tmp_path) == (
            "239c35a34f300bce812e9e6ebb36d1fcb4ee5d4df3a7b85de16a06591f36b3e8"
        ), GOLDEN_NOTE

    def test_power_vs_numpas_csv(self, tmp_path):
        cfg = ExperimentConfig(trials=2, num_pas=(1, 3, 5), gamma_db=(14.0, 20.0))
        assert _csv_sha256(run_power_vs_numpas(cfg), tmp_path) == (
            "52599597da06af3ae12adfd2ead7bf7977a26c3cca63e475ff44e581650b3b8f"
        ), GOLDEN_NOTE

    @pytest.mark.parametrize("case", list(PORTABLE_AO), ids=_ao_case_id)
    def test_ao_solve(self, case):
        # the digest set of the running OpenBLAS core; an unrecorded core fails
        digests = GOLDEN_AO.get(_openblas_core(), {})
        assert _golden_ao(*case)[1] == digests.get(case), GOLDEN_NOTE

    @pytest.mark.parametrize("case", list(PORTABLE_AO), ids=_ao_case_id)
    def test_ao_solve_portable(self, case):
        trace = _golden_ao(*case)[0][2]
        rounds, power = PORTABLE_AO[case]
        assert len(trace.powers) == rounds
        assert trace.powers[-1] == pytest.approx(power, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("case", list(GOLDEN_PLACEMENTS), ids=lambda c: f"L{c[0]}")
    def test_optimize_all_positions(self, case):
        x = _golden_sweep(4, 4, *case)
        assert [v.hex() for v in x.ravel().tolist()] == GOLDEN_PLACEMENTS[case].split(), (
            GOLDEN_NOTE)

    @pytest.mark.parametrize("case", list(GOLDEN_SHAPES), ids=[
        "K1", "K6", "N1", "N3-restarts", "armijo-second-half", "max-iters"])
    def test_optimize_all_positions_shapes(self, case, monkeypatch):
        for name, value in SHAPE_CONSTANTS.get(case[-1], {}).items():
            monkeypatch.setattr(placement, name, value)
        x = _golden_sweep(*case[:-1])
        assert [v.hex() for v in x.ravel().tolist()] == GOLDEN_SHAPES[case].split(), (
            GOLDEN_NOTE)

    def test_pgd_solve_stacks(self, monkeypatch):
        # the spies see the paths the stacks take: second-half Armijo batches
        # (20 candidates) and rows retiring while others step on
        second_half, sizes = [], []

        def objective(terms, x, *args):
            second_half.append(np.ndim(x) == 2 and np.shape(x)[0] == 20)
            return inner_objective(terms, x, *args)

        def gradient(terms, x, *args):
            sizes[-1].append(np.size(x))
            return inner_gradient(terms, x, *args)

        inner_objective = placement.subproblem_objective
        inner_gradient = placement.subproblem_gradient
        monkeypatch.setattr(placement, "subproblem_objective", objective)
        monkeypatch.setattr(placement, "subproblem_gradient", gradient)
        text = []
        for terms, region, eps, cfg, x0 in _pgd_stacks():
            sizes.append([])
            text += [float(v).hex() for v in np.ravel(placement.pgd_solve(terms, region, eps, cfg,
                                                                          x0))]
        assert sum(second_half) > 0
        assert sum(any(0 < b < a for a, b in zip(s, s[1:])) for s in sizes) > 20
        digest = hashlib.sha256(" ".join(text).encode()).hexdigest()
        assert digest == GOLDEN_PGD_STACKS, GOLDEN_NOTE


class TestTraceHooks:
    """The per-layer counters of the benchmark tracer wrap module-level names
    of pinchslp.placement, pinchslp.ao and pinchslp.bench and count their
    calls. A kernel that stopped calling them through the module would read 0
    in every traced run."""

    def test_placement_call_counts(self, monkeypatch):
        from pinchslp import placement

        counts = dict.fromkeys(("pgd_solve", "subproblem_gradient", "subproblem_objective",
                                "pick_eps"), 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in counts:
            monkeypatch.setattr(placement, name, counting(name, getattr(placement, name)))
        _golden_sweep(4, 4, 5, SmoothingParams(), PGDConfig(restarts=2))
        # the cells make all 4 x 5 antennas, times 3 starts, the rows of one
        # pgd_solve with one pick_eps: 12 lockstep steps, each with one
        # gradient and one or two objective batches, plus the first objective
        assert counts == {"pgd_solve": 1, "subproblem_gradient": 12,
                          "subproblem_objective": 20, "pick_eps": 1}

    def test_ao_call_counts(self, monkeypatch):
        """The tracer wraps these names of pinchslp.ao. Every round,
        round 0 included, builds one channel, one CI-QP and one solve; every
        round after round 0 makes one sweep."""
        from pinchslp import ao

        counts = dict.fromkeys(("effective_channels", "build_ci_qp", "solve_min_power",
                                "optimize_all_positions"), 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in counts:
            monkeypatch.setattr(ao, name, counting(name, getattr(ao, name)))
        (_, _, trace), _ = _golden_ao(3, 0, 20.0, AOConfig())
        assert trace.accepted == [True] * 2 + [False]
        assert counts == {"effective_channels": 3, "build_ci_qp": 3, "solve_min_power": 3,
                          "optimize_all_positions": 2}

    # Counts recorded with the three hand-written experiment loops, and the
    # baseline counts again when the fixed scheme took the AO's round 0: only
    # random and conventional solve here; a small config with two trials,
    # targets (10, 14) dB and L in (2, 3).
    BENCH_COUNTS = {
        "power-vs-sinr": {"generate_scenario": 2, "ao_solve": 4, "effective_channels": 4,
                          "build_ci_qp": 8, "solve_min_power": 8},
        "power-vs-numpas": {"generate_scenario": 4, "ao_solve": 4, "effective_channels": 4,
                            "build_ci_qp": 8, "solve_min_power": 8},
        "convergence": {"generate_scenario": 4, "ao_solve": 4, "effective_channels": 0,
                        "build_ci_qp": 0, "solve_min_power": 0},
    }

    @pytest.mark.parametrize("experiment", list(BENCH_COUNTS))
    def test_bench_call_counts(self, monkeypatch, experiment):
        """The tracer also wraps these five names of pinchslp.bench. Only the
        first SINR target runs power-vs-numpas and convergence, only the first
        L runs power-vs-sinr, and convergence runs the proposed scheme alone,
        whatever the config's schemes say."""
        from pinchslp import bench

        counts = dict.fromkeys(self.BENCH_COUNTS[experiment], 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in counts:
            monkeypatch.setattr(bench, name, counting(name, getattr(bench, name)))
        cfg = ExperimentConfig(num_waveguides=2, num_users=2, num_pas=(2, 3), trials=2,
                               gamma_db=(10.0, 14.0),
                               schemes=("fixed",) if experiment == "convergence" else SCHEMES)
        bench.EXPERIMENTS[experiment](cfg)
        assert counts == self.BENCH_COUNTS[experiment]
