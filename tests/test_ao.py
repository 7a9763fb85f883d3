import math
from dataclasses import replace

import numpy as np
import pytest

from pinchslp import ao
from pinchslp.ao import (
    ao_solve,
    fixed_uniform_placement,
    random_placement,
)
from pinchslp.bench import ExperimentConfig, generate_scenario
from pinchslp.channel import (
    WaveformParams,
    ci_margin,
    conventional_array_snapshot,
    effective_channels,
    received_lambda,
)
from pinchslp.geometry import Vec3, make_geometry, validate_placement
from pinchslp.precoder import (
    SymbolVector,
    build_ci_qp,
    db_to_linear,
    psk_symbols,
    solve_min_power,
)

PARAMS = WaveformParams.from_carrier(2.8e10)
NOISE_W = 1e-11
THETA = math.pi / 4

# frozen: half carrier wavelength with the pinned speed of light
HALF_WAVELENGTH = 5.35343675e-3


def scenario(seed, num_users=4, num_waveguides=4, num_pas=5):
    rng = np.random.default_rng(seed)
    users = [Vec3(float(x), float(y), 0.0) for x, y in rng.uniform(0, 20, (num_users, 2))]
    geom = make_geometry(
        20, 5, num_waveguides, 20, PARAMS.wavelength / 2, num_pas, users
    )
    symbols = psk_symbols(rng.integers(0, 4, num_users), 4)
    return geom, symbols


class TestFixedUniformPlacement:
    def test_single_pa_midpoint(self):
        geom, _ = scenario(0, num_pas=1)
        assert np.allclose(fixed_uniform_placement(geom), 10.0)

    def test_five_pa_grid(self):
        geom, _ = scenario(0)
        assert np.allclose(fixed_uniform_placement(geom)[0], [2, 6, 10, 14, 18])

    def test_valid_whenever_slot_fits(self):
        for L in (1, 2, 3, 5, 7):
            geom, _ = scenario(1, num_pas=L)
            assert validate_placement(geom, fixed_uniform_placement(geom)).ok


class TestRandomPlacement:
    def test_always_valid(self):
        geom, _ = scenario(2)
        for seed in range(20):
            assert validate_placement(geom, random_placement(geom, seed)).ok

    def test_deterministic_per_seed(self):
        geom, _ = scenario(3)
        assert np.array_equal(random_placement(geom, 7), random_placement(geom, 7))
        assert not np.array_equal(random_placement(geom, 7), random_placement(geom, 8))

    def test_waveguides_draw_independently(self):
        geom, _ = scenario(4)
        x = random_placement(geom, 5)
        assert not np.allclose(x[0], x[1])


class TestConventionalArray:
    def test_first_antenna_above_bs_anchor(self):
        geom, _ = scenario(5)
        snap = conventional_array_snapshot(geom, PARAMS)
        # antenna 0 at (0, region_side/2, height): distance to a user below it
        # equals the height
        user = geom.users[0]
        d0 = math.sqrt(user.x**2 + (user.y - 10.0) ** 2 + 25.0)
        assert snap.distances[0, 0, 0] == pytest.approx(d0, rel=1e-12)

    def test_half_wavelength_spacing(self):
        assert PARAMS.wavelength / 2 == pytest.approx(HALF_WAVELENGTH, rel=1e-9)
        geom, _ = scenario(6)
        snap = conventional_array_snapshot(geom, PARAMS)
        user = geom.users[1]
        spacing = PARAMS.wavelength / 2
        for i in range(geom.num_waveguides):
            d = math.sqrt(
                (user.x - i * spacing) ** 2 + (user.y - 10.0) ** 2 + 25.0
            )
            assert snap.distances[1, i, 0] == pytest.approx(d, rel=1e-12)

    def test_modulus_matches_pathloss(self):
        geom, _ = scenario(7)
        snap = conventional_array_snapshot(geom, PARAMS)
        assert np.allclose(np.abs(snap.effective), PARAMS.eta / snap.distances[:, :, 0],
                           rtol=1e-12)

    def test_no_waveguide_phase(self):
        geom, _ = scenario(8)
        snap = conventional_array_snapshot(geom, PARAMS)
        expected = PARAMS.eta * np.exp(-1j * PARAMS.beta0 * snap.distances[:, :, 0])
        expected /= snap.distances[:, :, 0]
        assert np.allclose(snap.effective, expected, atol=1e-18)


def baseline_power(scheme, geom, symbols, gamma, noise, seed):
    """Minimum CI power of a baseline scheme: one precoder solve on the
    channel of its fixed placement (random: drawn from seed) or array."""
    if scheme == "conventional":
        snap = conventional_array_snapshot(geom, PARAMS)
    else:
        x = fixed_uniform_placement(geom) if scheme == "fixed" else random_placement(geom, seed)
        snap = effective_channels(geom, x, PARAMS)
    return solve_min_power(build_ci_qp(snap, symbols, gamma, noise, THETA)).power


class TestBaselineMetamorphic:
    """A baseline's channel depends on neither the targets nor the noise, and
    every CI-QP row has b = tan(theta) * sqrt(gamma * sigma^2): scaling gamma
    or sigma^2 by 4 doubles b exactly, and with it every step of the exact
    solver, so the power scales by exactly 4. Relabelling the users together
    with their symbols only reorders the rows."""

    @pytest.mark.parametrize("scheme", ["fixed", "random", "conventional"])
    def test_scaling_and_relabelling(self, scheme):
        cfg = ExperimentConfig(master_seed=2026, num_pas=5)
        gamma = np.full(cfg.num_users, db_to_linear(16.0))
        perm = np.array([2, 0, 3, 1])
        for trial in range(12):
            geom, symbols = generate_scenario(cfg, trial)
            seed = [cfg.master_seed, trial]
            p = baseline_power(scheme, geom, symbols, gamma, NOISE_W, seed)
            assert baseline_power(scheme, geom, symbols, 4 * gamma, NOISE_W, seed) == 4 * p
            assert baseline_power(scheme, geom, symbols, gamma, 4 * NOISE_W, seed) == 4 * p
            relabelled = (replace(geom, users=tuple(geom.users[i] for i in perm)),
                          SymbolVector(symbols.s[perm]))
            assert baseline_power(scheme, *relabelled, gamma, NOISE_W, seed) == pytest.approx(
                p, rel=1e-13, abs=0.0)


class TestProposedMetamorphic:
    """The proposed scheme under perturbations that move nothing but rounding:
    relabelling the users together with their symbols, and scaling every
    target by (1 + 2**-50) or, with the power, by 10. The first sweep of each
    AO starts every antenna at its best point on a guide-wavelength grid, so
    rounding cannot pick another basin and the final power moves by at most a
    relative 1e-9. Without that start, some of these trials moved by over 1 %.
    At 16 dB and L = 7, later sweeps amplified rounding from round to round
    (by a relative 5.2e-9 on trial 2) until each Armijo batch took its lowest
    passing step (9.8e-13); since PGD steps in units of the branch scale and
    the guide wavelength the worst case over these cases is 1.6e-15. Trial 39
    at L = 7 is the relabelling case that once moved by 2.2e-6."""

    @pytest.mark.parametrize("gamma_db", [10.0, 16.0, 20.0])
    @pytest.mark.parametrize("num_pas", [1, 3, 7])
    def test_relabelling_and_target_rounding(self, num_pas, gamma_db):
        cfg = ExperimentConfig(master_seed=2026, num_pas=num_pas)
        gamma = np.full(cfg.num_users, db_to_linear(gamma_db))
        perm = np.array([2, 0, 3, 1])

        def final_power(geom, symbols, gamma):
            return ao_solve(geom, cfg.params, symbols, gamma, cfg.noise_w, cfg.theta_th,
                            fixed_uniform_placement(geom))[2].powers[-1]

        for trial in [0, 1, 2, 3] + [39] * (num_pas == 7):
            geom, symbols = generate_scenario(cfg, trial)
            p = final_power(geom, symbols, gamma)
            relabelled = (replace(geom, users=tuple(geom.users[i] for i in perm)),
                          SymbolVector(symbols.s[perm]))
            assert final_power(*relabelled, gamma) == pytest.approx(p, rel=1e-9, abs=0.0)
            assert final_power(geom, symbols, gamma * (1 + 2**-50)) == pytest.approx(
                p, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("num_pas", [3, 7])
    def test_target_times_ten_scales_the_power(self, num_pas):
        # every CI-QP row scales with sqrt(gamma), and PGD steps along the
        # gradient over its temperature, which the beams' scale leaves alone:
        # so the AO's path is the same and its power scales with the target,
        # to rounding (4.4e-16 here). Steps in metres moved these by up to 15 %.
        cfg = ExperimentConfig(master_seed=2026, num_pas=num_pas)
        gamma = np.full(cfg.num_users, db_to_linear(10.0))
        for trial in range(8):
            geom, symbols = generate_scenario(cfg, trial)
            p, p10 = (ao_solve(geom, cfg.params, symbols, g, cfg.noise_w, cfg.theta_th,
                               fixed_uniform_placement(geom))[2].powers[-1]
                         for g in (gamma, 10 * gamma))
            assert p10 == pytest.approx(10 * p, rel=1e-12, abs=0.0)


class TestAoSolve:
    def test_initial_power_is_pure_precoder(self, monkeypatch):
        monkeypatch.setattr(ao, "_MAX_ROUNDS", 1)
        geom, symbols = scenario(9)
        gamma = np.full(4, 100.0)
        x0 = fixed_uniform_placement(geom)
        qp = build_ci_qp(effective_channels(geom, x0, PARAMS), symbols, gamma,
                         NOISE_W, THETA)
        direct = solve_min_power(qp).power
        _, _, trace = ao_solve(geom, PARAMS, symbols, gamma, NOISE_W, THETA, x0)
        assert trace.powers[0] == pytest.approx(direct, rel=1e-12)
        assert trace.powers[-1] <= direct * (1 + 1e-12)

    def test_guarded_powers_non_increasing(self):
        for seed in range(5):
            geom, symbols = scenario(20 + seed)
            gamma = np.full(4, 100.0)
            _, _, trace = ao_solve(
                geom, PARAMS, symbols, gamma, NOISE_W, THETA,
                fixed_uniform_placement(geom),
            )
            powers = np.array(trace.powers)
            assert np.all(np.diff(powers) <= 1e-18)

    def test_output_feasible(self):
        geom, symbols = scenario(30)
        gamma = np.full(4, 100.0)
        W, X, trace = ao_solve(
            geom, PARAMS, symbols, gamma, NOISE_W, THETA,
            fixed_uniform_placement(geom),
        )
        assert validate_placement(geom, X).ok
        snap = effective_channels(geom, X, PARAMS)
        for k in range(4):
            lam = received_lambda(snap, W, symbols.s, k)
            assert ci_margin(lam, gamma[k], NOISE_W, THETA) >= -1e-8

    def test_deterministic(self):
        geom, symbols = scenario(31)
        gamma = np.full(4, 100.0)
        args = (geom, PARAMS, symbols, gamma, NOISE_W, THETA,
                fixed_uniform_placement(geom))
        W1, X1, t1 = ao_solve(*args)
        W2, X2, t2 = ao_solve(*args)
        assert np.array_equal(X1, X2)
        assert np.array_equal(W1, W2)
        assert t1.powers == t2.powers

    def test_converged_flag_matches_tolerance(self, monkeypatch):
        monkeypatch.setattr(ao, "_MAX_ROUNDS", 40)
        geom, symbols = scenario(32)
        gamma = np.full(4, 100.0)
        _, _, trace = ao_solve(
            geom, PARAMS, symbols, gamma, NOISE_W, THETA,
            fixed_uniform_placement(geom),
        )
        if trace.converged:
            p = trace.powers
            assert abs(p[-1] - p[-2]) / p[-2] <= 1e-3

    def test_rejected_round_stops_loop(self, monkeypatch):
        # a rejected candidate leaves power unchanged, so the loop must stop
        monkeypatch.setattr(ao, "_MAX_ROUNDS", 50)
        geom, symbols = scenario(33)
        gamma = np.full(4, 100.0)
        _, _, trace = ao_solve(
            geom, PARAMS, symbols, gamma, NOISE_W, THETA,
            fixed_uniform_placement(geom),
        )
        for i, acc in enumerate(trace.accepted):
            if not acc:
                assert i == len(trace.accepted) - 1
                assert trace.converged

    def test_trace_flags_every_round(self):
        geom, symbols = scenario(34)
        gamma = np.full(4, 100.0)
        _, _, trace = ao_solve(
            geom, PARAMS, symbols, gamma, NOISE_W, THETA,
            fixed_uniform_placement(geom),
        )
        assert len(trace.accepted) == len(trace.powers)

    @pytest.mark.parametrize("max_rounds", [0, 1])
    def test_infeasible_x_init_raises(self, max_rounds, monkeypatch):
        # checked before round 0, so a run without a sweep rejects it too
        monkeypatch.setattr(ao, "_MAX_ROUNDS", max_rounds)
        geom, symbols = scenario(35)
        x0 = fixed_uniform_placement(geom)
        x0[0, 1] = x0[0, 0]
        with pytest.raises(ValueError, match="violates the placement constraints"):
            ao_solve(geom, PARAMS, symbols, np.full(4, 100.0), NOISE_W, THETA, x0)

    def test_infeasible_x_init_is_named(self):
        # the message names ao_solve's own argument
        geom, symbols = scenario(35)
        x0 = fixed_uniform_placement(geom)
        x0[1, 2] = 25.0
        with pytest.raises(ValueError, match="^x_init violates the placement constraints"):
            ao_solve(geom, PARAMS, symbols, np.full(4, 100.0), NOISE_W, THETA, x0)

    def test_placement_kernels_sum_one_m_row(self, monkeypatch):
        # beams are rank one, W = x s^H / K, so the sweep receives x and every
        # pair stack of its PGD kernels has an m axis of length 1; a fall-back
        # to the K x K pair sum fails here, not only in the benchmark
        from pinchslp import placement

        m_axes, mults = [], set()

        def spy(terms, x, **kw):
            g, q = pair_parts(terms, x, **kw)
            m_axes.append(g.shape[1])  # g is (2, m, k, *x.shape)
            mults.add(terms.mult)
            return g, q

        pair_parts = placement._pair_parts
        monkeypatch.setattr(placement, "_pair_parts", spy)
        monkeypatch.setattr(ao, "_MAX_ROUNDS", 2)
        geom, symbols = scenario(35, num_users=3)
        _, _, trace = ao_solve(geom, PARAMS, symbols, np.full(3, 100.0), NOISE_W, THETA,
                               fixed_uniform_placement(geom))
        assert len(trace.powers) >= 2
        assert m_axes and set(m_axes) == {1}
        assert mults == {3.0}

    def test_later_rounds_pass_the_kept_active_set(self, monkeypatch):
        # round 0 solves cold; every later round hands the kept solution's
        # active set to the precoder as its warm start
        calls = []

        def spy(qp, active=None):
            sol = solve_min_power(qp, active=active)
            calls.append((active, sol))
            return sol

        monkeypatch.setattr(ao, "solve_min_power", spy)
        monkeypatch.setattr(ao, "_MAX_ROUNDS", 4)
        geom, symbols = scenario(36)
        _, _, trace = ao_solve(geom, PARAMS, symbols, np.full(4, 100.0), NOISE_W, THETA,
                               fixed_uniform_placement(geom))
        assert len(calls) == len(trace.powers) >= 3
        assert calls[0][0] is None
        kept = calls[0][1]
        for (hint, sol), accepted in zip(calls[1:], trace.accepted[1:]):
            assert hint == kept.active and len(hint) > 0
            kept = sol if accepted else kept
