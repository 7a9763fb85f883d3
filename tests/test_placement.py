import math
from dataclasses import replace

import numpy as np
import pytest

from pinchslp.channel import WaveformParams, ci_margin, effective_channels, received_lambda
from pinchslp.geometry import (
    MovableRegion,
    Vec3,
    initial_regions,
    make_geometry,
    updated_region,
    validate_placement,
)
from pinchslp.oracles import fd_gradient
from pinchslp.placement import (
    PGDConfig,
    SmoothingParams,
    SubproblemTerms,
    armijo_step,
    build_subproblem_terms,
    g_terms,
    optimize_all_positions,
    pgd_solve,
    phi_branches,
    pick_eps,
    placement_objective_exact,
    project,
    smooth_term,
    subproblem_gradient,
    subproblem_objective,
)
from pinchslp.precoder import psk_symbols, recover_beam_matrix

PARAMS = WaveformParams.from_carrier(2.8e10)
NOISE_W = 1e-11
THETA = math.pi / 4


def random_terms(rng, num_users=4, amp_scale=0.1):
    """Realistic subproblem data: 28 GHz wavenumbers, users in the square."""
    K = num_users
    return SubproblemTerms(
        amp=rng.uniform(0, amp_scale, K),
        phase_off=rng.uniform(-np.pi, np.pi, (K, K)),
        user_x=rng.uniform(0, 20, K),
        user_y=rng.uniform(0, 20, K),
        waveguide_y=float(rng.uniform(0, 20)),
        height=5.0,
        beta0=PARAMS.beta0,
        beta1=PARAMS.beta1,
        tan_th=1.0,
    )


def random_terms_generic(rng, num_users=4):
    """Gradient-check instances with order-1 wavenumbers and amplitudes."""
    K = num_users
    beta0 = float(rng.uniform(0.3, 3.0))
    return SubproblemTerms(
        amp=rng.uniform(0, 1.0, K),
        phase_off=rng.uniform(-np.pi, np.pi, (K, K)),
        user_x=rng.uniform(0, 20, K),
        user_y=rng.uniform(0, 20, K),
        waveguide_y=float(rng.uniform(0, 20)),
        height=5.0,
        beta0=beta0,
        beta1=1.4 * beta0,
        tan_th=float(rng.uniform(0.3, 1.5)),
    )


def zero_terms(num_users=3):
    return SubproblemTerms(
        amp=np.zeros(num_users),
        phase_off=np.zeros((num_users, num_users)),
        user_x=np.linspace(2, 18, num_users),
        user_y=np.linspace(3, 17, num_users),
        waveguide_y=10.0,
        height=5.0,
        beta0=PARAMS.beta0,
        beta1=PARAMS.beta1,
        tan_th=1.0,
    )


def demo_setup(rng, num_users=4, num_waveguides=4, num_pas=5):
    users = [Vec3(float(x), float(y), 0.0) for x, y in rng.uniform(0, 20, (num_users, 2))]
    geom = make_geometry(20, 5, num_waveguides, 20, PARAMS.wavelength / 2, num_pas, users)
    symbols = psk_symbols(rng.integers(0, 4, num_users), 4)
    x_opt = rng.normal(size=num_waveguides) + 1j * rng.normal(size=num_waveguides)
    W = recover_beam_matrix(0.2 * x_opt, symbols)
    return geom, symbols, W


class TestGTerms:
    def test_zero_amplitude(self):
        terms = zero_terms()
        assert g_terms(terms, 4.2, 1, 2) == (0.0, 0.0)

    def test_pythagorean_identity(self):
        rng = np.random.default_rng(0)
        terms = random_terms(rng)
        for _ in range(50):
            x = float(rng.uniform(0, 20))
            m, k = rng.integers(0, 4, 2)
            g_im, g_re = g_terms(terms, x, m, k)
            q = math.sqrt(
                (terms.user_x[k] - x) ** 2
                + (terms.user_y[k] - terms.waveguide_y) ** 2
                + terms.height**2
            )
            assert g_im**2 + g_re**2 == pytest.approx((terms.amp[m] / q) ** 2, rel=1e-12)

    def test_aligned_phase_gives_pure_real(self):
        rng = np.random.default_rng(1)
        base = random_terms(rng)
        x = 7.0
        q = math.sqrt(
            (base.user_x[0] - x) ** 2
            + (base.user_y[0] - base.waveguide_y) ** 2
            + base.height**2
        )
        # choose the phase offset so f + offset = 0 at this x
        off = base.phase_off.copy()
        off[0, 0] = base.beta0 * q + base.beta1 * x
        terms = SubproblemTerms(
            amp=base.amp, phase_off=off, user_x=base.user_x, user_y=base.user_y,
            waveguide_y=base.waveguide_y, height=base.height,
            beta0=base.beta0, beta1=base.beta1, tan_th=base.tan_th,
        )
        g_im, g_re = g_terms(terms, x, 0, 0)
        assert g_im == pytest.approx(0.0, abs=1e-12)
        assert g_re == pytest.approx(terms.amp[0] / q, rel=1e-9)


class TestPhiBranches:
    def test_zero_im_branches_coincide(self):
        terms = zero_terms()
        bar, hat = phi_branches(terms, 3.0, 0, 1)
        assert bar == hat == 0.0

    def test_max_is_abs_formula(self):
        rng = np.random.default_rng(2)
        terms = random_terms(rng)
        for _ in range(100):
            x = float(rng.uniform(0, 20))
            m, k = rng.integers(0, 4, 2)
            bar, hat = phi_branches(terms, x, m, k)
            g_im, g_re = g_terms(terms, x, m, k)
            assert max(bar, hat) == pytest.approx(abs(g_im) - g_re * terms.tan_th, rel=1e-12)

    def test_im_sign_swap_exchanges_branches(self):
        rng = np.random.default_rng(3)
        terms = random_terms(rng)
        x = 5.5
        bar, hat = phi_branches(terms, x, 2, 1)
        g_im, g_re = g_terms(terms, x, 2, 1)
        assert bar == pytest.approx(g_im - g_re * terms.tan_th, rel=1e-12)
        assert hat == pytest.approx(-g_im - g_re * terms.tan_th, rel=1e-12)


class TestSmoothTerm:
    def test_equal_branches(self):
        terms = zero_terms()
        eps = 1e-3
        # both branches are 0, so the smoothed value is eps*log(2)
        assert smooth_term(terms, 3.0, 0, 1, eps) == pytest.approx(eps * math.log(2), rel=1e-12)

    def test_sandwich_bound(self):
        rng = np.random.default_rng(4)
        terms = random_terms(rng)
        for _ in range(200):
            x = float(rng.uniform(0, 20))
            m, k = rng.integers(0, 4, 2)
            eps = float(10 ** rng.uniform(-9, -2))
            bar, hat = phi_branches(terms, x, m, k)
            val = smooth_term(terms, x, m, k, eps)
            assert val >= max(bar, hat) - 1e-18
            assert val <= max(bar, hat) + eps * math.log(2) + 1e-18

    def test_small_eps_limit(self):
        rng = np.random.default_rng(5)
        terms = random_terms(rng)
        for _ in range(50):
            x = float(rng.uniform(0, 20))
            m, k = rng.integers(0, 4, 2)
            bar, hat = phi_branches(terms, x, m, k)
            scale = max(abs(bar), abs(hat), 1e-30)
            eps = 1e-10 * scale
            assert abs(smooth_term(terms, x, m, k, eps) - max(bar, hat)) <= 1e-9

    def test_extreme_ratio_no_overflow(self):
        rng = np.random.default_rng(6)
        terms = random_terms(rng, amp_scale=10.0)
        val = smooth_term(terms, 10.0, 0, 0, 1e-300)
        assert math.isfinite(val)


class TestSubproblemObjective:
    def test_all_zero_amplitudes(self):
        terms = zero_terms(num_users=3)
        eps = 1e-4
        assert subproblem_objective(terms, 5.0, eps) == pytest.approx(
            9 * eps * math.log(2), rel=1e-12
        )

    def test_equals_sum_of_terms(self):
        rng = np.random.default_rng(7)
        terms = random_terms(rng)
        eps = 1e-6
        for x in rng.uniform(0, 20, 10):
            total = sum(
                smooth_term(terms, float(x), m, k, eps)
                for m in range(4)
                for k in range(4)
            )
            assert subproblem_objective(terms, float(x), eps) == pytest.approx(
                total, rel=1e-12
            )

    def test_dominates_max_branch_sum(self):
        rng = np.random.default_rng(8)
        terms = random_terms(rng)
        eps = 1e-5
        for x in rng.uniform(0, 20, 20):
            lower = sum(
                max(phi_branches(terms, float(x), m, k))
                for m in range(4)
                for k in range(4)
            )
            assert subproblem_objective(terms, float(x), eps) >= lower - 1e-15

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(9)
        terms = random_terms(rng)
        eps = 1e-6
        xs = rng.uniform(0, 20, 16)
        batch = subproblem_objective(terms, xs, eps)
        singles = np.array([subproblem_objective(terms, float(x), eps) for x in xs])
        assert np.allclose(batch, singles, rtol=1e-14)


class TestSubproblemGradient:
    def test_zero_amplitudes_zero_gradient(self):
        terms = zero_terms()
        assert subproblem_gradient(terms, 4.0, 1e-6) == 0.0

    def test_matches_finite_differences(self):
        # generic random wavenumbers: the formula is algebraic in beta0/beta1,
        # and at h = 1e-6 the stencil then resolves the smoothed kinks
        rng = np.random.default_rng(10)
        checked = 0
        for _ in range(200):
            terms = random_terms_generic(rng)
            x = float(rng.uniform(0.5, 19.5))
            eps = pick_eps(terms, x, SmoothingParams())
            bar, hat = _branches(terms, x)
            if np.min(np.abs(bar - hat)) < 1e-8:  # skip near branch ties
                continue
            grad = subproblem_gradient(terms, x, eps)
            fd = fd_gradient(lambda t: subproblem_objective(terms, t, eps), x, 1e-6)
            assert abs(grad - fd) <= 1e-5 * max(abs(fd), 1e-12)
            checked += 1
        assert checked > 150

    def test_carrier_scale_wavenumbers_match_fd(self):
        # at 28 GHz wavenumbers the FD stencil needs a coarser temperature
        rng = np.random.default_rng(24)
        for _ in range(100):
            terms = random_terms(rng)
            x = float(rng.uniform(0.5, 19.5))
            eps = 3.0 * pick_eps(terms, x, SmoothingParams(kappa=1.0))
            grad = subproblem_gradient(terms, x, eps)
            fd = fd_gradient(lambda t: subproblem_objective(terms, t, eps), x, 1e-6)
            assert abs(grad - fd) <= 1e-3 * max(abs(fd), 1e-10)

    def test_additive_over_pairs(self):
        # gradient of the double sum equals the sum of single-pair gradients
        rng = np.random.default_rng(11)
        full = random_terms(rng, num_users=3)
        eps = 1e-7
        x = 6.0
        total = 0.0
        for m in range(3):
            for k in range(3):
                pair = SubproblemTerms(
                    amp=full.amp[[m]],
                    phase_off=full.phase_off[[m]][:, [k]],
                    user_x=full.user_x[[k]],
                    user_y=full.user_y[[k]],
                    waveguide_y=full.waveguide_y,
                    height=full.height,
                    beta0=full.beta0,
                    beta1=full.beta1,
                    tan_th=full.tan_th,
                )
                total += subproblem_gradient(pair, x, eps)
        assert total == pytest.approx(subproblem_gradient(full, x, eps), rel=1e-9)


def _branches(terms, x):
    bar = np.empty((terms.num_users, terms.num_users))
    hat = np.empty_like(bar)
    for m in range(terms.num_users):
        for k in range(terms.num_users):
            bar[m, k], hat[m, k] = phi_branches(terms, x, m, k)
    return bar, hat


class TestArmijoStep:
    def test_zero_gradient_accepts_first(self):
        cfg = PGDConfig()
        mu = armijo_step(lambda x: x * x, 0.0, 1.0, cfg)
        assert mu == cfg.init_step

    def test_quadratic_hand_case(self):
        # f(x)=x^2 at x=1 with g=2: mu=1 fails (f(-1)=1 > 1-4e-4),
        # mu=0.5 lands on f(0)=0 and is accepted
        cfg = PGDConfig(init_step=1.0, armijo_c1=1e-4, shrink=0.5, max_backtracks=40)
        mu = armijo_step(lambda x: x * x, 2.0, 1.0, cfg)
        assert mu == 0.5

    def test_accepted_step_never_increases(self):
        rng = np.random.default_rng(12)
        cfg = PGDConfig()
        for _ in range(50):
            terms = random_terms(rng)
            eps = 1e-7
            x = float(rng.uniform(0, 20))
            f = lambda t: subproblem_objective(terms, t, eps)
            g = subproblem_gradient(terms, x, eps)
            mu = armijo_step(f, g, x, cfg)
            assert f(x - mu * g) <= f(x) + 1e-18

    def test_returns_zero_when_exhausted(self):
        # gradient pointing the wrong way: no backtracked step can descend
        cfg = PGDConfig(init_step=1.0, max_backtracks=5)
        mu = armijo_step(lambda x: x * x, -2.0, 1.0, cfg)
        assert mu == 0.0


class TestProject:
    def test_lower_clamp(self):
        assert project(-1.0, MovableRegion(0.0, 5.0)) == 0.0

    def test_interior_identity(self):
        assert project(2.5, MovableRegion(0.0, 5.0)) == 2.5

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            lo = float(rng.uniform(-5, 5))
            hi = lo + float(rng.uniform(0, 10))
            x = float(rng.uniform(-20, 20))
            r = MovableRegion(lo, hi)
            assert project(project(x, r), r) == project(x, r)


class TestPgdSolve:
    def test_stationary_start_returns_init(self):
        terms = zero_terms()
        region = MovableRegion(0.0, 20.0)
        calls = []
        x = pgd_solve(terms, region, 1e-9, PGDConfig(), 4.2,
                      callback=lambda t, f: calls.append(t))
        assert x == 4.2
        assert len(calls) == 2  # initial point + one stationary iteration

    def test_objective_sequence_non_increasing(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            terms = random_terms(rng)
            region = MovableRegion(0.0, 20.0)
            x0 = float(rng.uniform(0, 20))
            eps = pick_eps(terms, x0, SmoothingParams())
            seq = []
            pgd_solve(terms, region, eps, PGDConfig(), x0,
                      callback=lambda t, f: seq.append(f))
            assert all(a >= b - 1e-18 for a, b in zip(seq, seq[1:]))

    def test_result_feasible_and_no_worse(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            terms = random_terms(rng)
            region = MovableRegion(2.0, 6.0)
            x0 = float(rng.uniform(2, 6))
            eps = pick_eps(terms, x0, SmoothingParams())
            x = pgd_solve(terms, region, eps, PGDConfig(), x0)
            assert region.lower <= x <= region.upper
            assert subproblem_objective(terms, x, eps) <= subproblem_objective(terms, x0, eps) + 1e-18

    def test_binding_projection_at_upper(self):
        # beta0 = beta1 = 0 with aligned phases makes the objective a smooth
        # envelope -amp*t/q(x), strictly decreasing toward the user at x=30
        K = 2
        terms = SubproblemTerms(
            amp=np.full(K, 2000.0),
            phase_off=np.zeros((K, K)),
            user_x=np.full(K, 30.0),
            user_y=np.full(K, 10.0),
            waveguide_y=10.0,
            height=5.0,
            beta0=0.0,
            beta1=0.0,
            tan_th=1.0,
        )
        region = MovableRegion(0.0, 5.0)
        x = pgd_solve(terms, region, 1e-9, PGDConfig(), 1.0)
        assert x == region.upper


class TestOptimizeAllPositions:
    def test_zero_beams_leave_positions(self):
        rng = np.random.default_rng(16)
        geom, symbols, _ = demo_setup(rng)
        W = np.zeros((4, 4), dtype=complex)
        x0 = np.tile((np.arange(5) + 0.5) * 4.0, (4, 1))
        x = optimize_all_positions(
            geom, x0, W, symbols.s, PARAMS, THETA, SmoothingParams(), PGDConfig()
        )
        assert np.array_equal(x, x0)

    def test_output_always_valid(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            geom, symbols, W = demo_setup(rng)
            x0 = np.tile((np.arange(5) + 0.5) * 4.0, (4, 1))
            x = optimize_all_positions(
                geom, x0, W, symbols.s, PARAMS, THETA, SmoothingParams(), PGDConfig()
            )
            report = validate_placement(geom, x)
            assert report.ok
            assert np.all(np.diff(x, axis=1) >= geom.min_spacing - 1e-12)

    def test_single_pa_independent_regions(self):
        rng = np.random.default_rng(18)
        geom, symbols, W = demo_setup(rng, num_pas=1)
        x0 = np.full((4, 1), 10.0)
        x = optimize_all_positions(
            geom, x0, W, symbols.s, PARAMS, THETA, SmoothingParams(), PGDConfig()
        )
        assert x.shape == (4, 1)
        assert np.all((x >= 0) & (x <= 20))


def stack_rows(rows):
    """Stack one-row terms that share their users into one SubproblemTerms."""
    return replace(
        rows[0],
        amp=np.stack([t.amp for t in rows]),
        phase_off=np.stack([t.phase_off for t in rows]),
        waveguide_y=np.array([t.waveguide_y for t in rows]),
    )


def sequential_sweep(geom, x_current, W, s, smoothing, cfg, iterations=None):
    """The per-antenna sweep built from one-row calls: each waveguide on its
    own, each start its own pgd_solve, the first best start kept."""
    regions = initial_regions(geom)
    x = np.array(x_current, dtype=float, copy=True)
    for n in range(geom.num_waveguides):
        terms = build_subproblem_terms(geom, n, W, s, PARAMS, THETA)
        prev = None
        for l in range(geom.num_pas_per_waveguide):
            region = updated_region(l, prev, regions[l], geom.min_spacing)
            x_warm = project(x[n, l], region)
            eps = pick_eps(terms, x_warm, smoothing)
            starts = [x_warm, *np.linspace(region.lower, region.upper, cfg.restarts)]
            seen = []
            ends = [pgd_solve(terms, region, eps, cfg, x0, callback=lambda t, f: seen.append(t))
                    for x0 in starts]
            if iterations is not None:
                iterations[n, l] = len(seen) - len(starts)
            vals = [subproblem_objective(terms, e, eps) for e in ends]
            x[n, l] = prev = ends[int(np.argmin(vals))]
    return x


class TestLockstepRows:
    """Stacked rows must reproduce the one-row path of every row exactly."""

    CASES = [
        (SmoothingParams(), PGDConfig()),
        (SmoothingParams(), PGDConfig(restarts=2)),
        (SmoothingParams(), PGDConfig(max_iters=3, max_backtracks=6)),
        (SmoothingParams(eps=1e-6, adaptive=False), PGDConfig(restarts=1)),
    ]

    @pytest.mark.parametrize("smoothing, cfg", CASES)
    def test_sweep_matches_independent_rows(self, smoothing, cfg):
        rng = np.random.default_rng(30)
        for num_users, num_pas in ((4, 5), (3, 1), (5, 3)):
            geom, symbols, W = demo_setup(rng, num_users=num_users, num_pas=num_pas)
            x0 = np.tile((np.arange(num_pas) + 0.5) * 20.0 / num_pas, (4, 1))
            expected = sequential_sweep(geom, x0, W, symbols.s, smoothing, cfg)
            got = optimize_all_positions(geom, x0, W, symbols.s, PARAMS, THETA, smoothing, cfg)
            assert np.array_equal(got, expected)

    def test_rows_retiring_at_different_iterations(self):
        # waveguide 0 has zero beams and stops after one step; waveguide 1
        # starts from its own converged sweep and stops within a few; the
        # others descend for many steps while those rows sit retired
        rng = np.random.default_rng(31)
        geom, symbols, W = demo_setup(rng)
        W[0] = 0.0
        smoothing, cfg = SmoothingParams(), PGDConfig()
        x0 = np.tile((np.arange(5) + 0.5) * 4.0, (4, 1))
        x0[1] = optimize_all_positions(geom, x0, W, symbols.s, PARAMS, THETA, smoothing, cfg)[1]
        iterations = np.zeros((4, 5), dtype=int)
        expected = sequential_sweep(geom, x0, W, symbols.s, smoothing, cfg, iterations)
        got = optimize_all_positions(geom, x0, W, symbols.s, PARAMS, THETA, smoothing, cfg)
        assert np.array_equal(got, expected)
        assert np.array_equal(got[0], x0[0])
        assert np.all(iterations[0] == 1)
        assert np.all(iterations[1] <= 3)
        assert iterations[2:].max() >= 5

    def test_stacked_pgd_solve_matches_single_rows(self):
        rng = np.random.default_rng(32)
        base = random_terms(rng)
        rows = [replace(base, amp=rng.uniform(0, 0.1, 4), phase_off=rng.uniform(-np.pi, np.pi, (4, 4)),
                        waveguide_y=float(rng.uniform(0, 20))) for _ in range(5)]
        rows[2] = replace(rows[2], amp=np.zeros(4))
        lower = rng.uniform(0, 10, 5)
        upper = lower + rng.uniform(0, 6, 5)
        upper[3] = lower[3]  # a point region: the row cannot move at all
        x0 = rng.uniform(lower, upper)
        eps = np.array([pick_eps(t, x, SmoothingParams()) for t, x in zip(rows, x0)])
        seen = []
        got = pgd_solve(stack_rows(rows), MovableRegion(lower, upper), eps, PGDConfig(), x0,
                        callback=lambda t, f: seen.append(f))
        for i, t in enumerate(rows):
            single = pgd_solve(t, MovableRegion(lower[i], upper[i]), eps[i], PGDConfig(), x0[i])
            assert got[i] == single
        assert np.all(np.diff(np.array(seen), axis=0) <= 0.0)
        assert np.array_equal(pick_eps(stack_rows(rows), x0, SmoothingParams()), eps)


class TestPlacementObjectiveExact:
    def test_matches_negated_margin_sum(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            geom, symbols, W = demo_setup(rng)
            x = np.tile((np.arange(5) + 0.5) * 4.0, (4, 1))
            gamma = np.full(4, 100.0)
            obj = placement_objective_exact(
                geom, x, PARAMS, W, symbols.s, gamma, NOISE_W, THETA
            )
            snap = effective_channels(geom, x, PARAMS)
            margins = sum(
                ci_margin(received_lambda(snap, W, symbols.s, k), gamma[k], NOISE_W, THETA)
                for k in range(4)
            )
            assert obj == pytest.approx(-margins, abs=1e-10)

    def test_zero_beams_constant(self):
        rng = np.random.default_rng(20)
        geom, symbols, _ = demo_setup(rng)
        gamma = np.full(4, 100.0)
        x = np.tile((np.arange(5) + 0.5) * 4.0, (4, 1))
        obj = placement_objective_exact(
            geom, x, PARAMS, np.zeros((4, 4), dtype=complex), symbols.s, gamma,
            NOISE_W, THETA,
        )
        assert obj == pytest.approx(4 * math.sqrt(100 * NOISE_W) * math.tan(THETA), rel=1e-12)

    def test_threshold_shift_is_placement_independent(self):
        rng = np.random.default_rng(21)
        geom, symbols, W = demo_setup(rng)
        gamma1 = np.full(4, 50.0)
        gamma2 = np.full(4, 120.0)
        shift = 4 * (math.sqrt(120 * NOISE_W) - math.sqrt(50 * NOISE_W)) * math.tan(THETA)
        for _ in range(5):
            x = np.array(
                [[rng.uniform(r.lower, r.upper) for r in initial_regions(geom)]
                 for _ in range(4)]
            )
            d1 = placement_objective_exact(geom, x, PARAMS, W, symbols.s, gamma1, NOISE_W, THETA)
            d2 = placement_objective_exact(geom, x, PARAMS, W, symbols.s, gamma2, NOISE_W, THETA)
            assert d2 - d1 == pytest.approx(shift, rel=1e-9)

    def test_decomposed_surrogate_upper_bounds_exact(self):
        # restore the eta/sqrt(L) scale and per-user thresholds, then the
        # summed smoothed subproblems dominate the exact objective
        rng = np.random.default_rng(22)
        for _ in range(10):
            geom, symbols, W = demo_setup(rng)
            gamma = np.full(4, 100.0)
            x = np.array(
                [[rng.uniform(r.lower, r.upper) for r in initial_regions(geom)]
                 for _ in range(4)]
            )
            eps = 1e-9
            surrogate = 0.0
            for n in range(4):
                terms = build_subproblem_terms(geom, n, W, symbols.s, PARAMS, THETA)
                for l in range(5):
                    surrogate += subproblem_objective(terms, float(x[n, l]), eps)
            lead = PARAMS.eta / math.sqrt(5)
            constants = 4 * math.sqrt(100 * NOISE_W) * math.tan(THETA)
            exact = placement_objective_exact(
                geom, x, PARAMS, W, symbols.s, gamma, NOISE_W, THETA
            )
            assert lead * surrogate + constants >= exact - 1e-15
