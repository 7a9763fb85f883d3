import ctypes
import functools
import hashlib
import json
import math
import pickle
import sys
from dataclasses import FrozenInstanceError, fields, replace
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
    ConfigError,
    ExperimentConfig,
    PGDConfig,
    SmoothingParams,
    config_from_dict,
    load_config,
)
from pinchslp import ao, placement
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
        with pytest.raises(ConfigError, match=r"unknown config keys: \['pgd'\]"):
            config_from_dict({"pgd": {"maxiters": 3}})

    # the value checks the pgd and smoothing sections of a JSON config got,
    # which library callers still get when they build these arguments
    @pytest.mark.parametrize("cls, kwargs, message", [
        (SmoothingParams, {"kappa": math.inf}, "kappa must be a finite number"),
        (SmoothingParams, {"kappa": True}, "kappa must be a number, got True"),
        (PGDConfig, {"restarts": -1}, "restarts must be non-negative, got -1"),
        (PGDConfig, {"restarts": 2**40}, "restarts must be less than 1024, got 1099511627776"),
    ])
    def test_solver_arguments_check_their_fields(self, cls, kwargs, message):
        with pytest.raises(ConfigError) as exc:
            cls(**kwargs)
        assert str(exc.value) == message

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError, match="unknown scheme"):
            config_from_dict({"schemes": ["proposed", "zf"]})

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


# Objects with one or two keys are drawn as often as larger ones: with more
# keys, an early check almost always rejects the object before later ones run.
_KEYS = st.sampled_from(sorted(ExperimentConfig.__dataclass_fields__))
CONFIG_OBJECTS = (st.lists(_KEYS, unique=True, max_size=2) | st.lists(_KEYS, unique=True)).flatmap(
    lambda keys: st.fixed_dictionaries({k: JSON_VALUES for k in keys}))


class TestConfigFuzz:
    @settings(max_examples=400, deadline=None)
    @given(CONFIG_OBJECTS)
    def test_any_object_builds_or_raises_config_error(self, data):
        try:
            cfg = config_from_dict(json.loads(json.dumps(data)))
        except ConfigError:
            return
        assert isinstance(cfg, ExperimentConfig)
        p = cfg.params
        reals = [p.wavelength, p.eta, p.beta0, p.beta1]
        reals += [getattr(cfg, f.name) for f in fields(cfg) if type(f.default) is float]
        assert all(isinstance(v, Real) and not isinstance(v, bool) for v in reals)
        assert all(abs(v) <= sys.float_info.max for v in reals)
        ints = list(cfg.num_pas_sweep())  # and the other fields with an int default
        ints += [getattr(cfg, f.name) for f in fields(cfg)
                 if type(f.default) is int and f.name != "num_pas"]
        assert all(isinstance(v, int) and not isinstance(v, bool) for v in ints)
        linear = [cfg.noise_w] + [db_to_linear(g) for g in cfg.gamma_sweep()]
        assert all(0 < v <= sys.float_info.max for v in linear)

    def test_every_settable_value_has_one_table_row(self):
        for cls in (ExperimentConfig, SmoothingParams, PGDConfig):
            assert list(FIELDS[cls.__name__]) == [f.name for f in fields(cls)]
        assert sum(map(len, FIELDS.values())) == 17


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
            assert abs(powers[-1] - powers[-2]) / powers[-2] <= ao._REL_TOL

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


class TestExperimentRecord:
    """Records are slotted: a long run keeps every record, and a slotted
    instance holds no per-instance dict."""

    def test_slotted_and_round_trips(self):
        record = ExperimentRecord("convergence", 3, 7, "proposed", 10.0, 5, 2e-4, -6.9, 4, True)
        assert not hasattr(record, "__dict__")
        assert [f.name for f in fields(ExperimentRecord)] == TestEmitCsv.HEADER.split(",")
        assert replace(record, ao_iters=5) == ExperimentRecord(
            "convergence", 3, 7, "proposed", 10.0, 5, 2e-4, -6.9, 5, True)
        assert pickle.loads(pickle.dumps(record)) == record
        with pytest.raises(FrozenInstanceError):
            record.power_w = 0.0


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

    @pytest.mark.parametrize("section", [
        {"smoothing": {"kappa": 1e-2}}, {"pgd": {"restarts": 2}},
        {"ao": {"max_iters": 5, "rel_tol": 1e-4}},
    ], ids=["smoothing", "pgd", "ao"])
    def test_solver_section_is_an_unknown_key(self, tmp_path, capsys, section):
        # the solver settings are library arguments and ao constants, so a
        # well-formed section is rejected by name like any other unknown key
        (key,) = section
        message = f"unknown config keys: ['{key}']"
        with pytest.raises(ConfigError) as exc:
            config_from_dict(section)
        assert str(exc.value) == message
        code = cli_main(["run", "--config", self.write_cfg(tmp_path, **section),
                         "--experiment", "power-vs-sinr", "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r.csv").exists()

    # A row whose message the per-field checker reworded keeps its first id,
    # which quotes the old message, so its test keeps its name. So does a row
    # whose key left the config, for a solver constant or with the smoothing,
    # pgd and ao sections: its input is unchanged, and it now expects the
    # unknown-key message.
    @pytest.mark.parametrize("overrides, message", [
        ({"num_users": 0}, "num_users must be positive"),
        pytest.param({"num_pas": 0}, "num_pas must be positive, got 0",
                     id="overrides1-num_pas must be one or more positive integers"),
        pytest.param({"pgd": {"max_iters": 1.5}}, "unknown config keys: ['pgd']",
                     id="overrides2-pgd: max_iters, max_backtracks and restarts must be "
                        "integers"),
        ({"trials": 1.5}, "trials must be an integer"),
        pytest.param({"noise_dbm": "x"}, "noise_dbm must be a number, got 'x'",
                     id="overrides4-noise_dbm must be a finite number"),
        ({"psk_order": 1}, "psk_order must be at least 2"),
        pytest.param({"gamma_db": []}, "gamma_db must not be empty",
                     id="overrides6-gamma_db must be one or more finite numbers"),
        ({"num_waveguides": 0}, "num_waveguides must be positive"),
        pytest.param({"pgd": {"restarts": -1}}, "unknown config keys: ['pgd']",
                     id="overrides8-restarts >= 0"),
        pytest.param({"smoothing": {"adaptive": "no"}}, "unknown config keys: ['smoothing']",
                     id="overrides9-unknown smoothing keys: ['adaptive']"),
        pytest.param({"ao": {"max_iters": 2.5}}, "unknown config keys: ['ao']",
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
        pytest.param({"smoothing": {"kappa": math.inf}}, "unknown config keys: ['smoothing']",
                     id="overrides20-smoothing: kappa and floor must be finite"),
        pytest.param({"smoothing": {"eps": math.inf}}, "unknown config keys: ['smoothing']",
                     id="overrides21-unknown smoothing keys: ['eps']"),
        pytest.param({"pgd": {"init_step": math.inf}}, "unknown config keys: ['pgd']",
                     id="overrides22-pgd: step_tol, init_step and armijo_c1 must be finite"),
        pytest.param({"pgd": {"step_tol": math.inf}}, "unknown config keys: ['pgd']",
                     id="overrides23-pgd: step_tol, init_step and armijo_c1 must be finite"),
        pytest.param({"pgd": {"armijo_c1": math.inf}}, "unknown config keys: ['pgd']",
                     id="overrides24-pgd: step_tol, init_step and armijo_c1 must be finite"),
        pytest.param({"pgd": {"shrink": math.inf}}, "unknown config keys: ['pgd']",
                     id="overrides25-pgd: shrink factor must be < 1"),
        pytest.param({"pgd": {"init_step": math.nan}}, "unknown config keys: ['pgd']",
                     id="overrides26-pgd: all PGD settings must be positive"),
        pytest.param({"ao": {"rel_tol": math.inf}}, "unknown config keys: ['ao']",
                     id="overrides27-ao: rel_tol must be positive and finite"),
        pytest.param({"ao": {"guard_enabled": False}}, "unknown config keys: ['ao']",
                     id="overrides28-unknown ao keys: ['guard_enabled']"),
        pytest.param({"smoothing": {"kappa": True}}, "unknown config keys: ['smoothing']",
                     id="overrides29-smoothing: kappa must be a number, got True"),
        pytest.param({"pgd": {"step_tol": True}}, "unknown config keys: ['pgd']",
                     id="overrides30-pgd: step_tol must be a number, got True"),
        pytest.param({"ao": {"rel_tol": True}}, "unknown config keys: ['ao']",
                     id="overrides31-ao: rel_tol must be a number, got True"),
        pytest.param({"pgd": {"init_step": "0.1"}}, "unknown config keys: ['pgd']",
                     id="overrides32-pgd: init_step must be a number, got '0.1'"),
        ({"noise_dbm": 4000}, "noise_dbm must have a positive finite linear value, got 4000"),
        ({"noise_dbm": -4000}, "noise_dbm must have a positive finite linear value, got -4000"),
        ({"gamma_db": [14, 4000]}, "gamma_db must have a positive finite linear value, got 4000"),
        ({"gamma_db": [-4000]}, "gamma_db must have a positive finite linear value, got -4000"),
        ({"schemes": "fixed"}, "schemes must be a list of names, got 'fixed'"),
        ({"schemes": ["fixed", "fixed"]}, "schemes must name at least one scheme, each once"),
        pytest.param({"pgd": {"shrink": 1}}, "unknown config keys: ['pgd']",
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
        pytest.param({"pgd": {"max_backtracks": 2**40}}, "unknown config keys: ['pgd']",
                     id="overrides51-pgd: max_backtracks must be less than 4096, got "
                        "1099511627776"),
        pytest.param({"pgd": {"max_backtracks": 2**31 - 1}}, "unknown config keys: ['pgd']",
                     id="overrides52-pgd: max_backtracks must be less than 4096, got 2147483647"),
        pytest.param({"pgd": {"restarts": 2**40}}, "unknown config keys: ['pgd']",
                     id="overrides53-pgd: restarts must be less than 1024, got 1099511627776"),
        ({"trials": 1, "gamma_db": [10], "num_pas": 1, "carrier_freq_hz": 1e-290,
          "schemes": ["conventional", "fixed"]}, "carrier_freq_hz 1e-290 gives a channel scale"),
        ({"num_pas": 1, "carrier_freq_hz": 1.9e-147, "schemes": ["conventional"]},
         "the conventional array at carrier_freq_hz 1.9e-147 spans"),
        pytest.param({"smoothing": {"floor": 1e-15}}, "unknown config keys: ['smoothing']",
                     id="overrides56-unknown smoothing keys: ['floor']"),
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

    def test_finite_powers_without_ao_convergence_exit_0(self, tmp_path, capsys, monkeypatch):
        # with no AO round after round 0 no record is converged, but every
        # power is finite, so the run succeeded
        monkeypatch.setattr(ao, "_MAX_ROUNDS", 0)
        cfg = self.write_cfg(tmp_path, num_waveguides=4, schemes=["proposed"], gamma_db=[10])
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
        "0x1.aa3840ed30aabp+1 0x1.40544376e6d80p+3 0x1.0af30dda3422bp+4 "
        "0x1.aadaea85c12abp+1 0x1.41544bccc0400p+3 0x1.0aab8d819212bp+4 "
        "0x1.aa3c065932aabp+1 0x1.3fe94f6c11400p+3 0x1.0a732e05e7dabp+4 "
        "0x1.a8cbe7ef96eabp+1 0x1.407f80a647800p+3 0x1.0a83ae8717cabp+4"
    ),
    (5, SmoothingParams(), PGDConfig(restarts=2)): (
        "0x1.feeadd53b433fp+1 0x1.ffa71a9a2f1a0p+2 0x1.3f7d2503e3900p+3 "
        "0x1.bf41e4c166d00p+3 0x1.20968da5f9000p+4 0x1.008c825e17800p+1 "
        "0x1.002bdaf878660p+2 0x1.002764b358e30p+3 0x1.c01be3a171c00p+3 "
        "0x1.1fac011616400p+4 0x1.007a330ef1c00p+1 0x1.ff8879b80b3a0p+2 "
        "0x1.7f510feb81850p+3 0x1.ffe5a13edbed0p+3 0x1.202bdc8a22000p+4 "
        "0x1.ffa84a0f0f33fp+1 0x1.0091d76065860p+2 0x1.40141618a2200p+3 "
        "0x1.c09dece6d2c00p+3 0x1.3ff26adf2367cp+4"
    ),
    (7, SmoothingParams(), PGDConfig()): (
        "0x1.714acbb63e5b7p+0 0x1.1274d29b88849p+2 0x1.c9139e5d93d25p+2 "
        "0x1.408fbdd2b5200p+3 0x1.9bb5fd023a66ep+3 0x1.f81840357e6dbp+3 "
        "0x1.296c3d0c19425p+4 0x1.6d7f98dbdbdb7p+0 0x1.12d5497bd9e49p+2 "
        "0x1.c8beb428b9b25p+2 0x1.3f10820d35e00p+3 0x1.99b303d21d16ep+3 "
        "0x1.f6e6bf140ccdbp+3 0x1.291b79e8a4b25p+4 0x1.6cf3db662cdb7p+0 "
        "0x1.11e49ebc1ba49p+2 0x1.c7f168f149d25p+2 0x1.4003e5f1a2500p+3 "
        "0x1.9bc69b518216ep+3 0x1.f6ddcc98f58dbp+3 0x1.2919fb85d6ea5p+4 "
        "0x1.6d915df3b5db7p+0 0x1.126bdf294e649p+2 0x1.c9017481eb925p+2 "
        "0x1.4016dd0cbb800p+3 0x1.9b7720fbdb6eep+3 0x1.f5d42a3d399dbp+3 "
        "0x1.2928c815e0a25p+4"
    ),
}


# Placement constants that shape cases set: three iterations stop the solve
# at its iteration limit.
SHAPE_CONSTANTS = {"max-iters": {"_MAX_ITERS": 3}}

# Sweeps of shapes the cases above miss (K = 1 is a 1 x 1 pair axis): (N, K,
# L, smoothing, pgd, SHAPE_CONSTANTS key or None) -> row-major N x L entries.
GOLDEN_SHAPES = {
    (4, 1, 3, SmoothingParams(), PGDConfig(), None): (
        "0x1.a9efa649d5aabp+1 0x1.4024b272f9f80p+3 0x1.0ab0510afb34bp+4 "
        "0x1.ab74c164852abp+1 0x1.3ffc85bf62480p+3 0x1.0aa599747c7abp+4 "
        "0x1.aabfc40fddcabp+1 0x1.400ffb7676760p+3 0x1.0aa003e5fbf2bp+4 "
        "0x1.aa657c1d01aabp+1 0x1.4005a8e22e000p+3 0x1.0aabb1d0a9aabp+4"
    ),
    (4, 6, 3, SmoothingParams(), PGDConfig(), None): (
        "0x1.a7c5ea0f89aabp+1 0x1.4097223f70f00p+3 0x1.0aa8d6ba890abp+4 "
        "0x1.aaa4690cb4eabp+1 0x1.40220ce58c500p+3 0x1.0a25b0a8a54abp+4 "
        "0x1.aba0ba0a3c8abp+1 0x1.3f8e4cf472a00p+3 0x1.0a985aa9a7f2bp+4 "
        "0x1.ab8a0909788abp+1 0x1.40e90df718800p+3 0x1.0aa2af64fde6bp+4"
    ),
    (1, 4, 5, SmoothingParams(), PGDConfig(), None): (
        "0x1.010c918631400p+1 0x1.80c0a6de23000p+2 0x1.3f8176b9e2440p+3 "
        "0x1.bf79bf6c00600p+3 0x1.20122097acc00p+4"
    ),
    (3, 2, 4, SmoothingParams(), PGDConfig(restarts=1), None): (
        "0x0.0p+0 0x1.407d798d06760p+2 0x1.8ff29fd38a600p+3 "
        "0x1.1801d2afcb740p+4 0x1.65bf88ad58000p-8 0x1.df9f2a8077260p+2 "
        "0x1.900d2adbe0e80p+3 0x1.e01ec0e87b330p+3 0x1.3f4aa3c8d1000p+1 "
        "0x1.dfff285991c00p+2 0x1.9000567ec1000p+3 0x1.e01ce6aa2e130p+3"
    ),
    (4, 4, 3, SmoothingParams(), PGDConfig(), "max-iters"): (
        "0x1.aa3840ed30aabp+1 0x1.40542da42dc00p+3 0x1.0af14fdacfaabp+4 "
        "0x1.aadaea85c12abp+1 0x1.415517ac8d800p+3 0x1.0aab8d819212bp+4 "
        "0x1.aa3aaddfa6aabp+1 0x1.3fe94f6c11400p+3 0x1.0a732e05e7dabp+4 "
        "0x1.a8cbe7ef96eabp+1 0x1.407d4ef37c000p+3 0x1.0a83ae8717cabp+4"
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
            terms = placement._unpack(terms, placement._pack(terms).take(0, -1))
            lower, upper, eps, x0 = float(lower[0]), float(upper[0]), float(eps[0]), float(x0[0])
        yield (terms, placement.MovableRegion(lower, upper), eps,
               PGDConfig(restarts=2 if i % 3 == 0 else 0), x0)


# pgd_solve's ends on _pgd_stacks(): sha256 over the float.hex of every
# case's ends, case after case.
GOLDEN_PGD_STACKS = "158ce996ce25d314127c73862ca10f75ee1152f9d22715d7a7dab948aaa6dd5b"


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
# (see _openblas_core): core -> (L, trial, gamma_db, ao._MAX_ROUNDS,
# ao._REL_TOL) -> sha256 over the float.hex of every round's power, the
# accepted flags, the converged flag, and the bytes of the final W and
# placement.
# Besides the defaults' convergence, one case per exit of the AO loop:
# - _MAX_ROUNDS = 0: round 0 only, unconverged, no sweep;
# - _MAX_ROUNDS = 2 on L3-t0-10dB: converged on rejected round 2, also its
#   round limit, where the default stops too (same digest as L3-t0-10dB);
# - _REL_TOL = 1e-2: converged on accepted round 2, where the default stops
#   at rejected round 3;
# - _MAX_ROUNDS = 2 on L5-t1-10dB: the round limit, unconverged on accepted
#   round 2, where the default goes on to converge at accepted round 5.
# Of the defaults, the trial-1 cases (L3, L5 and L7, at 10 and 20 dB)
# converge on an accepted round, the trial-0 cases on a rejected one.
GOLDEN_AO = {
    "SkylakeX": {
        (3, 0, 10.0, 30, 1e-3):
            "b81270845ff98a5f20e0b9f3af9cedf9ad17b0afc14e4288850aaff569cbbebf",
        (3, 0, 20.0, 30, 1e-3):
            "a439882b065df1fbba8d1585dfbb8e6c8fc426c15c5f31fc70070321d6d88ad6",
        (3, 1, 10.0, 30, 1e-3):
            "4e91e0a37273221d7f51f733d4ec8129fd0a53e29e072dd1f1f70521f46cc848",
        (3, 1, 20.0, 30, 1e-3):
            "e5979e77c0a3a748b16919c2f4fc73176edb0efa3919fa20d59d615bf7ddd97f",
        (5, 0, 10.0, 30, 1e-3):
            "73b6ed5f9df2a21cd8b3078db9d943f0fc437f4ca7002a5e26ec2a656cfb8331",
        (5, 0, 20.0, 30, 1e-3):
            "03997d2131292b5258e0b1707935127545d80c6c2445fb06460d5aac4e3dc9ab",
        (5, 1, 10.0, 30, 1e-3):
            "2a705a02b05a45b7bf86d1e5988fb8c85c86b99ee4afa287e41ff7bac9f838fc",
        (5, 1, 20.0, 30, 1e-3):
            "cb7840c40ccac405997b2f9aa20f7bfcd48c08c6add1e79a9089830dc5922234",
        (7, 0, 10.0, 30, 1e-3):
            "3c0e6271655a5f907992ad7824072bdc7e67b4533882fcfc11de4069dce035b3",
        (7, 0, 20.0, 30, 1e-3):
            "e878b66140758b12161fe471316aad6a3435dc1989c816d4fb15975d44d79278",
        (7, 1, 10.0, 30, 1e-3):
            "b3f88465fe58bc051f3eecb24d4c3f19eef2e06fcdda1f0493bbbd10281bf422",
        (7, 1, 20.0, 30, 1e-3):
            "2dd6b8be8d389f58a0a3ba86fc43312b6568b8ba6578b5afd084cde3c2c6e9e5",
        (3, 0, 10.0, 0, 1e-3):
            "50606c00565376b98e3b93cace371cc4f85385b0523bea63c4ba6652b6e1cfd2",
        (3, 0, 10.0, 2, 1e-3):
            "b81270845ff98a5f20e0b9f3af9cedf9ad17b0afc14e4288850aaff569cbbebf",
        (5, 0, 10.0, 30, 1e-2):
            "9f79580688e565ade73c2012b07fbb871e2d5db8a637448e1ce9ebd689dde420",
        (5, 1, 10.0, 2, 1e-3):
            "a2abbb90d398f9a41236655e45401df19b1da9569c0fb79e92ccc5f5b0cf79f1",
    },
    "Haswell": {
        (3, 0, 10.0, 30, 1e-3):
            "2f9eee0ad59f9df2065acd68d8214ccb873212e57123415d01e1d156126111f2",
        (3, 0, 20.0, 30, 1e-3):
            "8aa03c05480a69ef1eeaec3ba384f5dea88007633687a09ce6500f7c88d764a0",
        (3, 1, 10.0, 30, 1e-3):
            "a3d9fd4bbdde3a61de02079521f172d7326ffa6422d47f5123863233a4a7947e",
        (3, 1, 20.0, 30, 1e-3):
            "7508215060ec3561c7c02b1b30d81d113a051aa104aa7e2a5bc44528eb5fd0e5",
        (5, 0, 10.0, 30, 1e-3):
            "00fdb49f21d3c343b57c2d49ecce50567afe91761ef87cb037a3b85fbb74d365",
        (5, 0, 20.0, 30, 1e-3):
            "972a9f78a3e70d770658111779e1389ecb9031c1f1bb204da2ea05f4861c8aad",
        (5, 1, 10.0, 30, 1e-3):
            "34c8b3df5ba22969b0400346615fc5caf58fc2897bea773fcc32e64a9982661b",
        (5, 1, 20.0, 30, 1e-3):
            "9ca0bdce1e77893fc2f2d27702b48adfb0d1dc77f4cb0f0b53c561a41e4df594",
        (7, 0, 10.0, 30, 1e-3):
            "0371c900009d2eb2937ccbcdfecf2febf9e1910960c83e3c4e64936f48a8922b",
        (7, 0, 20.0, 30, 1e-3):
            "b30cefdecd0678c5a81beaf0beb5e1cebaa2ba8cb452f0b33d9106627eefc245",
        (7, 1, 10.0, 30, 1e-3):
            "09eecb85df53ddad3e6b1c55e67dddb928e47d9b3fc6b60796f44369ff6d9b92",
        (7, 1, 20.0, 30, 1e-3):
            "19f8a3352d5738dac02558127ed592c5148fcca84d44b24195c023b6f0c0b36e",
        (3, 0, 10.0, 0, 1e-3):
            "17ba31e9ed9514a6ce2547d6cc49ed947535bf80ca8d1f4507e429b69c282a11",
        (3, 0, 10.0, 2, 1e-3):
            "2f9eee0ad59f9df2065acd68d8214ccb873212e57123415d01e1d156126111f2",
        (5, 0, 10.0, 30, 1e-2):
            "53f6d945eebefe6ba67d207068d31f16059e212fc9dc93661449a5c18d99f74c",
        (5, 1, 10.0, 2, 1e-3):
            "5a2516902facfbecdf64fb73b46a6ac667791238999e9de590d3d5407b132e30",
    },
}


# The round count and final power of every GOLDEN_AO case, the power to the
# relative 1e-9 that TestProposedMetamorphic asserts, so they hold where the
# digests do not: under either core and with numpy's baseline loops.
PORTABLE_AO = {
    (3, 0, 10.0, 30, 1e-3): (3, 0.0004348458263839139),
    (3, 0, 20.0, 30, 1e-3): (3, 0.0043484582638391375),
    (3, 1, 10.0, 30, 1e-3): (3, 0.0005403128112163282),
    (3, 1, 20.0, 30, 1e-3): (3, 0.005403128112163281),
    (5, 0, 10.0, 30, 1e-3): (4, 0.00022253426102316368),
    (5, 0, 20.0, 30, 1e-3): (4, 0.002225342610231637),
    (5, 1, 10.0, 30, 1e-3): (6, 0.0002513662558556866),
    (5, 1, 20.0, 30, 1e-3): (6, 0.0025136625585568647),
    (7, 0, 10.0, 30, 1e-3): (7, 0.00017412694808765272),
    (7, 0, 20.0, 30, 1e-3): (7, 0.0017412694808765271),
    (7, 1, 10.0, 30, 1e-3): (6, 0.00026481875678195047),
    (7, 1, 20.0, 30, 1e-3): (6, 0.002648187567819505),
    (3, 0, 10.0, 0, 1e-3): (1, 0.0076650330644216684),
    (3, 0, 10.0, 2, 1e-3): (3, 0.0004348458263839139),
    (5, 0, 10.0, 30, 1e-2): (3, 0.00022253426102316368),
    (5, 1, 10.0, 2, 1e-3): (3, 0.0002605707063111546),
}


def _ao_case_id(case):
    L, trial, gamma_db, max_rounds, rel_tol = case
    return f"L{L}-t{trial}-{gamma_db:g}dB" + (
        "" if (max_rounds, rel_tol) == (ao._MAX_ROUNDS, ao._REL_TOL)
        else f"-iters{max_rounds}-tol{rel_tol:g}")


def _golden_ao(L, trial, gamma_db, max_rounds, rel_tol):
    """ao_solve on seeded scenario (77, trial) with L antennas per waveguide,
    from the uniform grid at SINR target gamma_db, under the stopping
    constants max_rounds and rel_tol; returns the result and its digest as
    recorded in GOLDEN_AO."""
    cfg = ExperimentConfig(master_seed=77)
    geom, symbols = generate_scenario(cfg, trial, num_pas=L)
    gamma = np.full(cfg.num_users, db_to_linear(gamma_db))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ao, "_MAX_ROUNDS", max_rounds)
        m.setattr(ao, "_REL_TOL", rel_tol)
        W, x, trace = ao_solve(geom, cfg.params, symbols, gamma, cfg.noise_w, cfg.theta_th,
                               fixed_uniform_placement(geom))
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
            "05de83810954018bea1f342b589b55dd9d113062955ce6b28c653712500da32b"
        ), GOLDEN_NOTE

    def test_power_vs_sinr_csv_with_restarts(self, tmp_path, monkeypatch):
        from pinchslp import bench

        monkeypatch.setattr(bench, "ao_solve", functools.partial(
            ao_solve, pgd_cfg=PGDConfig(restarts=2)))
        cfg = ExperimentConfig(trials=1, gamma_db=(10.0, 20.0))
        assert _csv_sha256(run_power_vs_sinr(cfg), tmp_path) == (
            "30a85ad1db5eb8df39ce74472ad136abdb296d52391b8c163886af75d2a9ecb6"
        ), GOLDEN_NOTE

    def test_power_vs_numpas_csv(self, tmp_path):
        cfg = ExperimentConfig(trials=2, num_pas=(1, 3, 5), gamma_db=(14.0, 20.0))
        assert _csv_sha256(run_power_vs_numpas(cfg), tmp_path) == (
            "204863750443976723cfe9c17559c4dce804ea9d902511eec3d534fb1821f6ac"
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
        "K1", "K6", "N1", "N3-restarts", "max-iters"])
    def test_optimize_all_positions_shapes(self, case, monkeypatch):
        for name, value in SHAPE_CONSTANTS.get(case[-1], {}).items():
            monkeypatch.setattr(placement, name, value)
        x = _golden_sweep(*case[:-1])
        assert [v.hex() for v in x.ravel().tolist()] == GOLDEN_SHAPES[case].split(), (
            GOLDEN_NOTE)

    def test_pgd_solve_stacks(self, monkeypatch):
        # the spies see the paths the stacks take: one Armijo batch of every
        # step in _STEPS per gradient, and rows retiring while others step on
        batches, sizes = [], []

        def objective(terms, x, *args):
            batches[-1] += np.ndim(x) == 2 and len(x) == placement._STEPS.size
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
            batches.append(0)
            text += [float(v).hex() for v in np.ravel(placement.pgd_solve(terms, region, eps, cfg,
                                                                          x0))]
        assert batches == [len(s) for s in sizes]
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
        # pgd_solve with one pick_eps: 7 lockstep steps, each with one
        # gradient and one objective batch, plus the first objective
        assert counts == {"pgd_solve": 1, "subproblem_gradient": 7,
                          "subproblem_objective": 8, "pick_eps": 1}

    def test_ao_call_counts(self, monkeypatch):
        """The tracer wraps these names of pinchslp.ao. Every round,
        round 0 included, builds one channel, one CI-QP and one solve; every
        round after round 0 makes one sweep."""
        counts = dict.fromkeys(("effective_channels", "build_ci_qp", "solve_min_power",
                                "optimize_all_positions"), 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in counts:
            monkeypatch.setattr(ao, name, counting(name, getattr(ao, name)))
        (_, _, trace), _ = _golden_ao(3, 0, 20.0, 30, 1e-3)
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
