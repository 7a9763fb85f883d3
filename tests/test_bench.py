import hashlib
import json
import math

import numpy as np
import pytest

from pinchslp.bench import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    emit_csv,
    generate_scenario,
    load_config,
    run_convergence,
    run_power_vs_numpas,
    run_power_vs_sinr,
)
from pinchslp.ao import fixed_uniform_placement
from pinchslp.cli import main as cli_main
from pinchslp.placement import PGDConfig, SmoothingParams, optimize_all_positions
from pinchslp.precoder import recover_beam_matrix

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
        cfg = config_from_dict({"pgd": {"max_iters": 17}, "gamma_db": [10, 12]})
        assert cfg.pgd == PGDConfig(max_iters=17)
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

    def test_bit_identical_reruns(self):
        cfg = ExperimentConfig(**FAST)
        r1 = run_power_vs_sinr(cfg)
        r2 = run_power_vs_sinr(cfg)
        assert r1 == r2


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

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"bogus_key": 1}))
        code = cli_main(
            ["run", "--config", str(path), "--experiment", "power-vs-sinr"]
        )
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        ({"num_users": 0}, "num_users must be positive"),
        ({"num_pas": 0}, "num_pas must be one or more positive integers"),
        ({"pgd": {"max_iters": 1.5}}, "pgd: max_iters, max_backtracks and restarts must be integers"),
        ({"trials": 1.5}, "trials must be an integer"),
        ({"noise_dbm": "x"}, "noise_dbm must be a finite number"),
        ({"psk_order": 1}, "psk_order must be at least 2"),
        ({"gamma_db": []}, "gamma_db must be one or more finite numbers"),
        ({"num_waveguides": 0}, "num_waveguides must be positive"),
        ({"pgd": {"restarts": -1}}, "restarts >= 0"),
        ({"smoothing": {"adaptive": "no"}}, "smoothing: adaptive must be true or false"),
        ({"ao": {"max_iters": 2.5}}, "ao: max_iters must be a non-negative integer"),
        ({"schemes": []}, "schemes must name at least one scheme"),
        ({"num_pas": 5000}, "waveguide_length_m cannot fit 5000 antennas"),
        ({"master_seed": -3}, "master_seed must be non-negative"),
    ])
    def test_malformed_config_exits_2(self, tmp_path, capsys, overrides, message):
        cfg = self.write_cfg(tmp_path, **overrides)
        code = cli_main(["run", "--config", cfg, "--experiment", "power-vs-sinr",
                         "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

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


# Placements of the position sweep, recorded as float.hex before the sweep
# was batched over waveguides; (L, smoothing, pgd) -> row-major N x L entries.
GOLDEN_PLACEMENTS = {
    (3, SmoothingParams(), PGDConfig()): (
        "0x1.a4c2f5bc8cf21p+1 0x1.4ef182499bb5cp+3 0x1.127dcf2ed1d1bp+4 "
        "0x1.de19161cc786dp+1 0x1.50057aef79a29p+3 0x1.072028f4184acp+4 "
        "0x1.08fd58108306ap-2 0x1.f8cc8b95c9ddep-1 0x1.e5e631cc2a2d8p+3 "
        "0x1.3faf338e06edep+1 0x1.aa97ee9f3139dp+3 0x1.c9ffc701fe98cp+3"
    ),
    (5, SmoothingParams(), PGDConfig(restarts=2)): (
        "0x1.0cb9cc3365fc6p+1 0x1.3be708e6da6dcp+2 0x1.48124c4905921p+2 "
        "0x1.7ce19b5f84347p+3 0x1.206c48afdd8c9p+4 0x1.2c94cb3a30c7fp+0 "
        "0x1.4b87ee23e464ap+0 0x1.6eb2b3d86174bp+3 0x1.a46e4cc94695ap+3 "
        "0x1.3fec14ed5cf8bp+4 0x1.f4e4dad83f89dp+1 0x1.f0bb076d58f8fp+2 "
        "0x1.7f5116f9f9d7ap+3 0x1.db89dc68d00a5p+3 0x1.3fbaf3f2918d3p+4 "
        "0x1.288bb000dddf3p+1 0x1.681e0faf827bap+2 0x1.538fd6b8bdb88p+3 "
        "0x1.f474d4e179342p+3 0x1.f7a2346263723p+3"
    ),
    (7, SmoothingParams(eps=1e-6, adaptive=False), PGDConfig()): (
        "0x1.b6fbbdc28f870p+0 0x1.1bca7690077d0p+2 0x1.03b5a7fb07e59p+3 "
        "0x1.4216836711944p+3 0x1.831c3dd9e0d8cp+3 0x1.124602a51bf8bp+4 "
        "0x1.29302c40070ffp+4 0x1.924eefe81b213p+0 0x1.6d7834e62f6e4p+2 "
        "0x1.12301528dfc5bp+3 0x1.1526780f1e1c9p+3 0x1.a535534a1d815p+3 "
        "0x1.a5642800e57f5p+3 0x1.4000000000000p+4 0x1.7d74a7a9b7fc1p+0 "
        "0x1.5e7ccbe6c53e9p+2 0x1.b2a133fde5780p+2 0x1.3fb75691b63c1p+3 "
        "0x1.c9180a946fe2ep+3 0x1.f9a982270092bp+3 0x1.f9d55d1f78f8bp+3 "
        "0x1.0d21c9fa6f966p-5 0x1.04b3052fa85a0p+2 0x1.0ebd9098f1579p+3 "
        "0x1.4cb2b18fd14a1p+3 0x1.9d467e2e61185p+3 0x1.ea27cfc93a60ap+3 "
        "0x1.2c9618a3792b7p+4"
    ),
}


class TestGoldenOutputs:
    """Bit-identity against outputs recorded before the placement sweep was
    batched: a pure speed-up must not move a single bit."""

    def test_convergence_csv(self, tmp_path):
        cfg = ExperimentConfig(trials=2, num_pas=(3, 5), gamma_db=16.0, schemes=("proposed",))
        assert _csv_sha256(run_convergence(cfg), tmp_path) == (
            "eb917acdd2cb825f9d593cae16e0af8b34b2bbd037ba77b68c23e300df9e8b1f"
        )

    def test_power_vs_sinr_csv_with_restarts(self, tmp_path):
        cfg = ExperimentConfig(trials=1, gamma_db=(10.0, 20.0), pgd=PGDConfig(restarts=2))
        assert _csv_sha256(run_power_vs_sinr(cfg), tmp_path) == (
            "06ab6aff45cab4946af030af5dbb95e8020a08624b6c9d8ffef1ee9e9e0b4e4f"
        )

    @pytest.mark.parametrize("case", list(GOLDEN_PLACEMENTS), ids=lambda c: f"L{c[0]}")
    def test_optimize_all_positions(self, case):
        L, smoothing, pgd = case
        cfg = ExperimentConfig(master_seed=77)
        geom, symbols = generate_scenario(cfg, L, num_pas=L)
        rng = np.random.default_rng([77, L])
        W = recover_beam_matrix(0.2 * (rng.normal(size=4) + 1j * rng.normal(size=4)), symbols)
        x = optimize_all_positions(
            geom, fixed_uniform_placement(geom), W, symbols.s, cfg.params,
            cfg.theta_th, smoothing, pgd,
        )
        assert [v.hex() for v in x.ravel().tolist()] == GOLDEN_PLACEMENTS[case].split()
