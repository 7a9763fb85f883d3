import hashlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pinchslp import ao, placement
from pinchslp.bench import ExperimentConfig, generate_scenario
from pinchslp.channel import WaveformParams, ci_margin, effective_channels
from pinchslp.geometry import (
    MovableRegion,
    Vec3,
    initial_regions,
    make_geometry,
    placement_cells,
    validate_placement,
)
from pinchslp.oracles import (
    fd_gradient,
    freespace_channel,
    g_terms,
    phi_branches,
    smooth_term,
    waveguide_phase_vector,
)
from pinchslp.placement import (
    PGDConfig,
    SmoothingParams,
    SubproblemTerms,
    _all_branches,
    _armijo_rows,
    _pair_parts,
    build_subproblem_terms,
    optimize_all_positions,
    pgd_solve,
    pick_eps,
    placement_objective_exact,
    subproblem_gradient,
    subproblem_objective,
)
from pinchslp.precoder import db_to_linear, psk_symbols, recover_beam_matrix

PARAMS = WaveformParams.from_carrier(2.8e10)
NOISE_W = 1e-11
THETA = math.pi / 4


def take_rows(terms, idx):
    """The stacked subproblems of terms that the row indices idx select (or
    unstacked terms as one row for idx = np.newaxis): one take of their packed
    constants, with their dy2."""
    consts = placement._pack(terms)
    return placement._unpack(terms, consts[..., None] if idx is None else consts.take(idx, -1))


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

    @pytest.mark.parametrize("K", [1, 4, 6])
    def test_within_mult_pairs_eps_log2_of_max_branch_sum(self, K):
        # the upper half of the sandwich, on stacked general terms and on their
        # collapsed rank-one form: f <= mult * (sum of max(bar, hat) + pairs *
        # eps * log 2), up to the rounding of the summed pair magnitudes
        for seed in range(3):
            for terms in rank_one_terms(seed, K, np.arange(4))[:2]:
                rng = np.random.default_rng([41, K, seed])
                xs = rng.uniform(0, 20, (8, 4))
                for eps in (np.full(4, 1e-9), pick_eps(terms, xs[0], SmoothingParams()), 1e-3):
                    bar, hat, *_ = _all_branches(terms, xs)
                    e = np.asarray(eps)
                    pairs = bar.shape[0] * bar.shape[1]
                    upper = np.maximum(bar, hat).sum(axis=(0, 1)) + pairs * eps * math.log(2)
                    size = (np.abs(bar) + np.abs(hat) + e).sum(axis=(0, 1))
                    f = subproblem_objective(terms, xs, eps)
                    assert np.all(f <= terms.mult * (upper + (pairs + 8) * U * size))
                    assert np.all(f >= terms.mult * (upper - pairs * eps * math.log(2)
                                                      - (pairs + 8) * U * size))

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(9)
        terms = random_terms(rng)
        eps = 1e-6
        xs = rng.uniform(0, 20, 16)
        batch = subproblem_objective(terms, xs, eps)
        singles = np.array([subproblem_objective(terms, float(x), eps) for x in xs])
        assert np.allclose(batch, singles, rtol=1e-14)


def zero_collapsed_rows(rows=3, num_users=4):
    """Stacked collapsed terms (one m row, mult = K) whose beams are all zero."""
    base = zero_terms(num_users)
    return replace(base, amp=np.zeros((1, rows)), phase_off=np.zeros((1, num_users, rows)),
                   waveguide_y=np.linspace(4.0, 16.0, rows), mult=float(num_users))


class TestTemperatureFloor:
    """Zero beams: pick_eps returns its floor, and at the smallest positive
    temperature, the subnormal 5e-324, every pair term is eps*log(2), which
    rounds to eps itself, and the slope is 0."""

    def test_zero_rows_at_the_subnormal_floor(self):
        terms, x, eps = zero_collapsed_rows(), np.array([2.0, 9.5, 17.0]), np.full(3, 5e-324)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            floor = pick_eps(terms, x, SmoothingParams())
            f = subproblem_objective(terms, x, eps)
            g = subproblem_gradient(terms, x, eps)
            end = pgd_solve(terms, MovableRegion(np.zeros(3), np.full(3, 20.0)), eps, PGDConfig(),
                            x)
        assert np.array_equal(floor, np.full(3, placement._EPS_FLOOR))
        assert np.array_equal(f, np.full(3, 8e-323))  # 4 pairs of 5e-324, times mult 4
        assert np.array_equal(g, np.zeros(3))
        assert np.array_equal(end, x)


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


def envelope_row(x_user=0.0):
    """One stacked row whose objective is the smooth envelope -1/q(x) + eps*log(2):
    a single user at height 1 below the waveguide, zero wavenumbers."""
    return SubproblemTerms(
        amp=np.ones((1, 1)), phase_off=np.zeros((1, 1, 1)),
        user_x=np.array([x_user]), user_y=np.array([3.0]), waveguide_y=np.array([3.0]),
        height=1.0, beta0=0.0, beta1=0.0, tan_th=1.0,
    )


def chosen(terms, column):
    """The point, objective and _pair_parts (g, q) of the packed candidate
    columns that _armijo_rows returns."""
    return column[-2], column[-1], placement._split(column, terms.num_users)


def start_scale(terms, x):
    """pgd_solve's branch scale of rows starting at x, floored."""
    return np.maximum(placement._branch_scale(terms, _pair_parts(terms, x)), placement._EPS_FLOOR)


def direction(terms, g, scale):
    """pgd_solve's step direction (g / scale) * lambda_g**2 in float32, bit for bit."""
    return (g / scale * (2 * math.pi / terms.beta1) ** 2).astype(np.float32).astype(float)


def armijo(terms, x, g, eps, steps, lower=-20.0, upper=20.0, d=None):
    """_armijo_rows from rows at x with gradients g along directions d (g by
    default), bounds shared by all rows: the chosen points, objectives and
    parts, and the objectives at x."""
    x, g = np.atleast_1d(np.asarray(x, dtype=float)), np.atleast_1d(np.asarray(g, dtype=float))
    d = g if d is None else d
    eps = np.full(x.size, eps)
    f0 = subproblem_objective(terms, x, eps)
    bounds = np.full(x.size, lower), np.full(x.size, upper)
    return (*chosen(terms, _armijo_rows(terms, *bounds, eps, f0, g, d, x, steps, 1e-4)), f0)


def spy_steps(monkeypatch):
    """Record every PGD step through placement._armijo_rows, wrapping what the
    attribute holds now: per step copies of the active rows' (x, f, x_next,
    f_next, lower, upper), since pgd_solve writes its row state in place."""
    steps, inner = [], placement._armijo_rows

    def armijo_rows(terms, lower, upper, eps, f0, g, d, x, *rest):
        column = inner(terms, lower, upper, eps, f0, g, d, x, *rest)
        steps.append(tuple(np.copy(a) for a in (x, f0, column[-2], column[-1], lower, upper)))
        return column

    monkeypatch.setattr(placement, "_armijo_rows", armijo_rows)
    return steps


def non_increasing(steps, tol=0.0):
    """Whether no recorded step raised any row's objective by more than tol."""
    return all(np.all(f_next <= f + tol) for _, f, _, f_next, _, _ in steps)


def random_rows(rng, n):
    """n stacked random_terms rows that share their users, and a point in
    [0, 20] per row: (terms, x)."""
    base = random_terms(rng)
    terms = stack_rows([replace(base, amp=rng.uniform(0, 0.1, 4),
                                phase_off=rng.uniform(-np.pi, np.pi, (4, 4)),
                                waveguide_y=float(rng.uniform(0, 20))) for _ in range(n)])
    return terms, rng.uniform(0, 20, n)


class TestArmijoStep:
    """The batched Armijo search on the projected candidate, as pgd_solve runs
    it per row."""

    STEPS = 0.1 * 0.5 ** np.arange(41)

    def test_zero_gradient_accepts_first(self):
        rng = np.random.default_rng(12)
        terms = take_rows(random_terms(rng), np.newaxis)
        x_new, f_new, branches, f0 = armijo(terms, 7.0, 0.0, 1e-7, self.STEPS)
        assert x_new[0] == 7.0 and f_new[0] == f0[0]
        for got, want in zip(branches, _pair_parts(terms, np.array([7.0]))):
            assert np.array_equal(got, want)

    def test_envelope_hand_case(self):
        # f(x) = -1/sqrt(x^2 + 1) from x = 1 with steps 2/g, 1/g, ...: the first
        # lands on x = -1 where f is unchanged and fails the decrease test, the
        # second lands on the minimum x = 0 and is accepted
        terms, eps = envelope_row(), 1e-9
        g = subproblem_gradient(terms, np.array([1.0]), eps)
        x_new, f_new, _, _ = armijo(terms, 1.0, g, eps, (2.0 / g[0]) * 0.5 ** np.arange(41))
        assert x_new[0] == pytest.approx(0.0, abs=1e-12)
        assert f_new[0] == pytest.approx(-1.0 + eps * math.log(2), rel=1e-12)

    def test_accepted_step_never_increases(self):
        terms, x = random_rows(np.random.default_rng(12), 50)
        eps = 1e-7
        g = subproblem_gradient(terms, x, np.full(50, eps))
        x_new, f_new, _, f0 = armijo(terms, x, g, eps, self.STEPS, 0.0, 20.0)
        assert np.all(f_new <= f0 + 1e-18)
        assert np.array_equal(f_new, subproblem_objective(terms, x_new, np.full(50, eps)))

    def test_returns_zero_when_exhausted(self):
        # row 0 gets the ascent direction, so no backtracked step can descend
        # and it keeps its point; row 1 descends on its own
        terms, eps = take_rows(envelope_row(), [0, 0]), 1e-9
        g = subproblem_gradient(terms, np.array([1.0, 1.0]), np.full(2, eps)) * [-1.0, 1.0]
        x_new, f_new, _, f0 = armijo(terms, [1.0, 1.0], g, eps, self.STEPS[:6])
        assert x_new[0] == 1.0 and f_new[0] == f0[0]
        assert x_new[1] < 1.0 and f_new[1] < f0[1]

    # The rule reads g only through the candidates x - step * g and the
    # decrease test, so the hand cases below pass g = 1 to land on exact points.

    def test_lowest_of_several_passing_steps(self):
        # f(x) = -1/sqrt(x^2 + 1) from x = 1: the first three steps land on
        # -0.5, 0.25 and 0.625, all pass, and the row moves to the lowest, 0.25
        terms, eps = envelope_row(), 1e-9
        steps = 1.5 * 0.5 ** np.arange(6)
        x_new, f_new, branches, f0 = armijo(terms, 1.0, 1.0, eps, steps)
        f = subproblem_objective(terms, np.array([[-0.5], [0.25], [0.625]]), eps)[:, 0]
        assert np.all(f <= f0[0] - 1e-4 * steps[:3]) and f[1] < f[0]
        assert x_new[0] == 0.25 and f_new[0] == f[1]
        for got, want in zip(branches, _pair_parts(terms, np.array([0.25]))):
            assert np.array_equal(got, want)

    def test_exact_tie_goes_to_the_larger_step(self):
        # -0.25 and 0.25 have the same objective to the bit
        terms, eps = envelope_row(), 1e-9
        x_new, f_new, _, _ = armijo(terms, 1.0, 1.0, eps, np.array([1.25, 0.75, 0.5, 0.25]))
        f = subproblem_objective(terms, np.array([[-0.25], [0.25]]), eps)[:, 0]
        assert f[0] == f[1] and x_new[0] == -0.25 and f_new[0] == f[0]

    def test_random_rows_match_a_brute_force_pass(self):
        # each row on its own, along pgd_solve's direction over the one block
        # of _STEPS: the passing step of least objective (the first of equal
        # ones), else no move; every tenth row gets the ascent direction
        rng = np.random.default_rng(34)
        terms, x = random_rows(rng, 80)
        eps, steps = 1e-7, placement._STEPS
        g = subproblem_gradient(terms, x, eps) * np.where(np.arange(80) % 10, 1.0, -1.0)
        d = direction(terms, g, start_scale(terms, x))
        x_new, f_new, branches, f0 = armijo(terms, x, g, eps, steps, 0.0, 20.0, d)
        cands = np.minimum(np.maximum(x - steps[:, None] * d, 0.0), 20.0)
        vals = subproblem_objective(terms, cands, eps)
        ok = vals <= f0 - (1e-4 * steps)[:, None] * (g * d)
        outcome = {"first passing": 0, "first of several": 0, "none": 0}
        for r in range(80):
            passing = [j for j in range(steps.size) if ok[j, r]]
            if not passing:
                outcome["none"] += 1
                assert x_new[r] == x[r] and f_new[r] == f0[r]
                continue
            j = min(passing, key=lambda j: vals[j, r])
            outcome["first passing"] += j == passing[0]
            outcome["first of several"] += j != passing[0]
            assert x_new[r] == cands[j, r] and f_new[r] == vals[j, r]
        assert min(outcome.values()) > 0, outcome
        hit = f_new < f0
        for got, want in zip(branches, _pair_parts(take_rows(terms, np.flatnonzero(hit)), x_new[hit])):
            assert np.array_equal(got[..., hit], want)

    def test_no_worse_than_the_first_passing_step(self):
        rng = np.random.default_rng(35)
        terms, x = random_rows(rng, 200)
        eps, steps = 1e-7, placement._STEPS
        g = subproblem_gradient(terms, x, eps)
        d = direction(terms, g, start_scale(terms, x))
        _, f_new, _, f0 = armijo(terms, x, g, eps, steps, 0.0, 20.0, d)
        cands = np.minimum(np.maximum(x - steps[:, None] * d, 0.0), 20.0)
        vals = subproblem_objective(terms, cands, eps)
        ok = vals <= f0 - (1e-4 * steps)[:, None] * (g * d)
        at_first = np.where(ok.any(0), vals[ok.argmax(0), np.arange(200)], f0)
        assert np.all(f_new <= at_first)
        assert np.count_nonzero(f_new < at_first) > 50


class TestProject:
    """pgd_solve projects its start onto the region; zero beams never move it."""

    def test_lower_clamp(self):
        assert pgd_solve(zero_terms(), MovableRegion(0.0, 5.0), 1e-9, PGDConfig(), -1.0) == 0.0

    def test_interior_identity(self):
        assert pgd_solve(zero_terms(), MovableRegion(0.0, 5.0), 1e-9, PGDConfig(), 2.5) == 2.5

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            lo = float(rng.uniform(-5, 5))
            hi = lo + float(rng.uniform(0, 10))
            x = float(rng.uniform(-20, 20))
            r = MovableRegion(lo, hi)
            p = pgd_solve(zero_terms(), r, 1e-9, PGDConfig(), x)
            assert p == min(max(x, lo), hi)
            assert pgd_solve(zero_terms(), r, 1e-9, PGDConfig(), p) == p


def random_sweep(rng):
    """One stacked sweep of a seeded 4 x 5 demo scenario from a jittered grid,
    on the cells of that placement: (terms, region, eps, x0) for pgd_solve."""
    geom, symbols, W = demo_setup(rng)
    x0 = np.tile((np.arange(5) + 0.5) * 4.0, (4, 1)) + rng.uniform(-1.5, 1.5, (4, 5))
    terms = build_subproblem_terms(geom, np.repeat(np.arange(4), 5), W, symbols.s, PARAMS, THETA)
    cells = placement_cells(geom, x0)
    return (terms, MovableRegion(cells.lower.ravel(), cells.upper.ravel()),
            pick_eps(terms, x0.ravel(), SmoothingParams()), x0.ravel())


class TestPgdSolve:
    def test_stationary_start_returns_init(self, monkeypatch):
        terms = zero_terms()
        region = MovableRegion(0.0, 20.0)
        steps = spy_steps(monkeypatch)
        x = pgd_solve(terms, region, 1e-9, PGDConfig(), 4.2)
        assert x == 4.2
        assert len(steps) == 1  # one stationary iteration

    def test_objective_sequence_non_increasing(self, monkeypatch):
        rng = np.random.default_rng(14)
        steps = spy_steps(monkeypatch)
        for _ in range(20):
            terms = random_terms(rng)
            region = MovableRegion(0.0, 20.0)
            x0 = float(rng.uniform(0, 20))
            eps = pick_eps(terms, x0, SmoothingParams())
            pgd_solve(terms, region, eps, PGDConfig(), x0)
        assert steps and non_increasing(steps, 1e-18)

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
        # beta0 = 0, aligned phases and a guide wavelength of 1000 m, far
        # longer than the 5 m cell, make the objective about the smooth
        # envelope -amp*t/q(x), strictly decreasing toward the user at x=30;
        # the steps do not depend on eps: a tiny one reaches the edge too
        K = 2
        terms = SubproblemTerms(
            amp=np.full(K, 2000.0),
            phase_off=np.zeros((K, K)),
            user_x=np.full(K, 30.0),
            user_y=np.full(K, 10.0),
            waveguide_y=10.0,
            height=5.0,
            beta0=0.0,
            beta1=2 * math.pi / 1000.0,
            tan_th=1.0,
        )
        region = MovableRegion(0.0, 5.0)
        for eps in (1e-9, pick_eps(terms, 1.0, SmoothingParams())):
            assert pgd_solve(terms, region, eps, PGDConfig(), 1.0) == region.upper

    @pytest.mark.parametrize("restarts", [0, 2])
    def test_random_sweeps_descend_inside_their_cells(self, restarts, monkeypatch):
        steps = spy_steps(monkeypatch)
        rng = np.random.default_rng(34)
        for _ in range(4):
            terms, region, eps, x0 = random_sweep(rng)
            pgd_solve(terms, region, eps, PGDConfig(restarts=restarts), x0)
        assert steps and non_increasing(steps)
        for x, _, x_next, _, lower, upper in steps:
            assert np.all((lower <= x) & (x <= upper) & (lower <= x_next) & (x_next <= upper))

    def test_every_move_is_a_projected_armijo_step(self, monkeypatch):
        # each row stays at x or moves to min(max(x - s*d, lower), upper) for
        # a step s of _STEPS, bit for bit, along d = (g / b) * lambda_g**2 with
        # b the (floored) branch scale of some row's start: no candidate off
        # the schedule
        terms, region, eps, x0 = random_sweep(np.random.default_rng(36))
        moves, scales, inner, branch_scale = [], [], placement._armijo_rows, placement._branch_scale

        def recording_scale(terms, branches):
            scales.append(branch_scale(terms, branches))
            return scales[-1]

        def armijo_rows(terms, lower, upper, eps, f0, g, d, x, *rest):
            b = np.maximum(np.concatenate(scales), placement._EPS_FLOOR)
            assert np.all((direction(terms, g[:, None], b) == d[:, None]).any(axis=1))
            column = inner(terms, lower, upper, eps, f0, g, d, x, *rest)
            cands = np.minimum(np.maximum(x - placement._STEPS[:, None] * d, lower), upper)
            moved = column[-2] != x
            assert np.all((cands == column[-2]).any(axis=0) | ~moved)
            moves.append(np.count_nonzero(moved))
            return column

        monkeypatch.setattr(placement, "_armijo_rows", armijo_rows)
        monkeypatch.setattr(placement, "_branch_scale", recording_scale)
        for restarts in (0, 2):
            pgd_solve(terms, region, eps, PGDConfig(restarts=restarts), x0)
        assert sum(moves) > 0


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

    def test_rejects_infeasible_input(self):
        rng = np.random.default_rng(20)
        geom, symbols, W = demo_setup(rng)
        grid = np.tile((np.arange(5) + 0.5) * 4.0, (4, 1))
        for n, l, v, kind in ((1, 2, grid[1, 1] + geom.min_spacing / 2, "spacing"),
                              (3, 4, 20.5, "range"), (0, 0, -1e-6, "range"),
                              (2, 3, math.nan, "range")):
            x0 = grid.copy()
            x0[n, l] = v
            with pytest.raises(ValueError, match=f"kind='{kind}', waveguide={n}"):
                optimize_all_positions(geom, x0, W, symbols.s, PARAMS, THETA,
                                       SmoothingParams(), PGDConfig())

    def test_touching_input_stays_valid(self):
        # every gap exactly min_spacing: the inner cells hold only their point
        # (to rounding), the end antennas can move outwards
        rng = np.random.default_rng(21)
        geom, symbols, W = demo_setup(rng)
        x0 = np.tile(8.0 + np.arange(5) * geom.min_spacing, (4, 1))
        assert validate_placement(geom, x0).ok
        x = optimize_all_positions(geom, x0, W, symbols.s, PARAMS, THETA, SmoothingParams(),
                                   PGDConfig())
        assert validate_placement(geom, x).ok
        assert np.all(np.abs(x[:, 1:-1] - x0[:, 1:-1]) <= 1e-12)
        assert np.all(x[:, 0] <= x0[:, 0]) and np.all(x[:, -1] >= x0[:, -1])
        # gaps and ends 0.9 nm past the constraints, inside their 1 nm
        # tolerance: each cell is widened to hold its input entry, so the
        # output is no worse than the input and needs no check of its own
        run = np.arange(5) * (geom.min_spacing - 0.9e-9)
        for start in 8.0 + run, run - 0.9e-9, geom.waveguide_length + 0.9e-9 - run[::-1]:
            x0 = np.tile(start, (4, 1))
            assert validate_placement(geom, x0).ok
            for cfg in PGDConfig(), PGDConfig(restarts=2):
                x = optimize_all_positions(geom, x0, W, symbols.s, PARAMS, THETA,
                                           SmoothingParams(), cfg)
                assert validate_placement(geom, x).ok

    def test_single_pa_independent_regions(self):
        rng = np.random.default_rng(18)
        geom, symbols, W = demo_setup(rng, num_pas=1)
        x0 = np.full((4, 1), 10.0)
        x = optimize_all_positions(
            geom, x0, W, symbols.s, PARAMS, THETA, SmoothingParams(), PGDConfig()
        )
        assert x.shape == (4, 1)
        assert np.all((x >= 0) & (x <= 20))


def first_sweep_case(seed, params=PARAMS):
    """A seeded scenario at the uniform grid with rank-one beams, and the
    stacked terms, cell bounds and temperature of its sweep."""
    rng = np.random.default_rng(seed)
    geom, symbols, _ = demo_setup(rng)
    x_opt = 0.2 * (rng.normal(size=4) + 1j * rng.normal(size=4))
    x0 = np.tile((np.arange(5) + 0.5) * 4.0, (4, 1))
    terms = build_subproblem_terms(geom, np.repeat(np.arange(4), 5), x_opt, symbols.s, params,
                                   THETA)
    cells = placement_cells(geom, x0)
    eps = pick_eps(terms, x0.ravel(), SmoothingParams())
    return geom, symbols, x_opt, x0, terms, cells.lower.ravel(), cells.upper.ravel(), eps


def start_candidates(lower, upper, x_warm, spacing=PARAMS.guide_wavelength):
    """The warm start followed by every grid point lower + j*spacing clamped
    to upper, (points, rows)."""
    points = math.ceil(np.max(upper - lower) / spacing) + 1
    return np.vstack([x_warm, np.minimum(lower + np.arange(points)[:, None] * spacing, upper)])


def brute_force_start(objective, terms, lower, upper, x_warm, spacing=PARAMS.guide_wavelength):
    """The rule in one call of objective(terms, x): per row, the first minimum
    over start_candidates."""
    cands = start_candidates(lower, upper, x_warm, spacing)
    return cands[objective(terms, cands).argmin(axis=0), np.arange(x_warm.size)]


def smoothed(eps):
    """The smoothed objective at temperature eps, as brute_force_start calls it."""
    return lambda terms, x: subproblem_objective(terms, x, eps)


def unsmoothed(terms, x):
    """The unsmoothed pair sum of max(phi-bar, phi-hat) = |g_im| - t*g_re in
    float64, without mult, as _rank_values lays it out."""
    bar, hat, *_ = _all_branches(terms, x)
    return placement._pair_sum(np.maximum(bar, hat))


class TestGridStart:
    """optimize_all_positions(..., grid_start=True), which ao_solve asks for
    in its first sweep only: each row starts at the first best of its warm
    start and the guide-wavelength grid over its cell, ranked by the
    unsmoothed objective in float32 and found chunk by chunk."""

    @pytest.mark.parametrize("chunk", [2048, 20 * 7, 1])
    def test_chunked_pick_is_one_call_argmin(self, monkeypatch, chunk):
        sizes = []
        rank_values = placement._rank_values

        def rank(terms, x):
            sizes.append(np.size(x))
            return rank_values(terms, x)

        monkeypatch.setattr(placement, "_GRID_CHUNK", chunk)
        monkeypatch.setattr(placement, "_rank_values", rank)
        for seed in (40, 41, 42):
            *_, x0, terms, lower, upper, _ = first_sweep_case(seed)
            x = placement._grid_start(terms, lower, upper, PARAMS.guide_wavelength, x0.ravel())
            expected = brute_force_start(rank_values, terms, lower, upper, x0.ravel())
            assert np.array_equal(x, expected)
            assert np.any(x != x0.ravel())
        # one grid point per call at least, whatever the chunk size
        assert max(sizes) <= max(chunk, 20) and len(sizes) > 3

    def test_float32_ranking_keeps_the_float64_picks(self):
        # the grid ranks the unsmoothed objective in float32, from the float64
        # phase reduced to [-pi, pi]; unreduced, the float32 phase of thousands
        # of radians errs by about 1e-3 of a row's largest value. Its picks are
        # those of the smoothed float64 objective on these seeds.
        for seed in range(40, 48):
            *_, x0, terms, lower, upper, eps = first_sweep_case(seed)
            cands = start_candidates(lower, upper, x0.ravel())
            exact, ranked = unsmoothed(terms, cands), placement._rank_values(terms, cands)
            assert ranked.dtype == np.float32 and exact.dtype == np.float64
            assert np.all(np.abs(ranked - exact) <= 1e-6 * np.abs(exact).max(axis=0))
            x = placement._grid_start(terms, lower, upper, PARAMS.guide_wavelength, x0.ravel())
            assert np.array_equal(x, brute_force_start(smoothed(eps), terms, lower, upper,
                                                       x0.ravel()))

    def test_picks_match_a_scalar_unsmoothed_brute_force(self):
        # float64, term by term from the oracle's two branches, one unstacked
        # row at a time
        for seed in (44, 45):
            *_, x0, terms, lower, upper, _ = first_sweep_case(seed)
            cands = start_candidates(lower, upper, x0.ravel())
            pairs = [(m, k) for m in range(terms.amp.shape[0]) for k in range(terms.num_users)]
            expected = []
            for r in range(x0.size):
                row = take_rows(terms, r)
                vals = [sum(max(phi_branches(row, x, m, k)) for m, k in pairs)
                        for x in cands[:, r]]
                expected.append(cands[int(np.argmin(vals)), r])
            x = placement._grid_start(terms, lower, upper, PARAMS.guide_wavelength, x0.ravel())
            assert x.tolist() == expected

    def test_zero_amplitude_row_keeps_its_warm_start(self):
        # x_0 = 0 zeroes the amplitude of waveguide 0's five rows, so their
        # values are 0 at every point and the tie goes to the warm start; a
        # ranking without the amplitude amp/q would move them
        geom, symbols, x_opt, x0, _, lower, upper, _ = first_sweep_case(40)
        x_opt[0] = 0.0
        terms = build_subproblem_terms(geom, np.repeat(np.arange(4), 5), x_opt, symbols.s,
                                       PARAMS, THETA)
        vals = placement._rank_values(terms, start_candidates(lower, upper, x0.ravel()))
        assert not np.any(vals[:, :5]) and np.all(np.any(vals[:, 5:], axis=0))
        x = placement._grid_start(terms, lower, upper, PARAMS.guide_wavelength, x0.ravel())
        assert np.array_equal(x[:5], x0[0])
        assert np.any(x[5:] != x0.ravel()[5:])

    def test_picks_at_280_ghz_match_the_float64_smoothed_picks(self):
        params = WaveformParams.from_carrier(2.8e11)
        for seed in (40, 41):
            *_, x0, terms, lower, upper, eps = first_sweep_case(seed, params)
            spacing = params.guide_wavelength
            x = placement._grid_start(terms, lower, upper, spacing, x0.ravel())
            assert np.array_equal(x, brute_force_start(smoothed(eps), terms, lower, upper,
                                                       x0.ravel(), spacing))
            assert np.any(x != x0.ravel())

    def test_ties_go_to_the_warm_start_then_the_earliest_point(self, monkeypatch):
        # grid 0, 1, ..., 10 m on three rows, three points (nine entries) per
        # chunk: chunks {0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10}. Each row has
        # two equal minima, in neighbouring chunks; row 1 starts on one of them.
        first, second = np.array([2.0, 5.0, 8.0]), np.array([3.0, 6.0, 9.0])

        def objective(terms, x):
            x = np.asarray(x)
            return np.where((x == first) | (x == second), 0.0, 1.0)

        calls = []
        monkeypatch.setattr(placement, "_GRID_CHUNK", 9)
        monkeypatch.setattr(placement, "_rank_values",
                            lambda *a: calls.append(np.size(a[1])) or objective(*a))
        x_warm, lower, upper = np.array([5.5, 6.0, 0.5]), np.zeros(3), np.full(3, 10.0)
        x = placement._grid_start(None, lower, upper, 1.0, x_warm)
        assert x.tolist() == [2.0, 6.0, 8.0]
        assert calls == [3, 9, 9, 9, 6]
        assert np.array_equal(x, brute_force_start(objective, None, lower, upper, x_warm,
                                                   spacing=1.0))

    def test_start_and_end_no_worse_than_the_warm_start(self, monkeypatch):
        # the grid start ranks by _rank_values, so only that order holds at the
        # start, exactly (its values do not depend on the chunks); PGD from
        # there descends the smoothed objective
        seen = []

        def solve(terms, region, eps, cfg, x_init, **kwargs):
            x = pgd_solve(terms, region, eps, cfg, x_init, **kwargs)
            seen.append((terms, eps, np.array(x_init), x))
            return x

        monkeypatch.setattr(placement, "pgd_solve", solve)
        moved = 0
        for seed in (40, 41, 42, 43):
            geom, symbols, x_opt, x0, *_ = first_sweep_case(seed)
            x = optimize_all_positions(geom, x0, x_opt, symbols.s, PARAMS, THETA,
                                       SmoothingParams(), PGDConfig(), grid_start=True)
            terms, eps, start, end = seen[-1]
            assert np.array_equal(end, x.ravel())
            rank_warm, rank_start = (placement._rank_values(terms, v) for v in (x0.ravel(), start))
            f_start, f_end = (subproblem_objective(terms, v, eps) for v in (start, end))
            assert np.all(rank_start <= rank_warm) and np.all(f_end <= f_start)
            moved += np.count_nonzero(start != x0.ravel())
        assert moved > 0

    def test_grid_calls_in_round_one_only(self, monkeypatch):
        """The first sweep of an AO ranks once at the warm starts and once per
        grid chunk; later sweeps never. No sweep calls the smoothed objective
        outside pgd_solve."""
        calls, stray, in_pgd = [], [], [False]
        rank_values = placement._rank_values

        def rank(*args):
            calls[-1] += 1
            return rank_values(*args)

        def objective(*args, **kwargs):
            stray[-1] += not in_pgd[0]
            return subproblem_objective(*args, **kwargs)

        def solve(*args, **kwargs):
            in_pgd[0] = True
            try:
                return pgd_solve(*args, **kwargs)
            finally:
                in_pgd[0] = False

        def sweep(*args, **kwargs):
            calls.append(0)
            stray.append(0)
            return optimize_all_positions(*args, **kwargs)

        monkeypatch.setattr(placement, "_rank_values", rank)
        monkeypatch.setattr(placement, "subproblem_objective", objective)
        monkeypatch.setattr(placement, "pgd_solve", solve)
        monkeypatch.setattr(ao, "optimize_all_positions", sweep)
        cfg = ExperimentConfig(master_seed=77)
        geom, symbols = generate_scenario(cfg, 0, num_pas=5)
        gamma = np.full(cfg.num_users, db_to_linear(10.0))
        ao.ao_solve(geom, cfg.params, symbols, gamma, cfg.noise_w, cfg.theta_th,
                    ao.fixed_uniform_placement(geom))
        # 20 rows, so 102 grid points per chunk; 4 m cells hold 524 points
        assert calls == [7, 0, 0]
        assert stray == [0, 0, 0]


def stack_rows(rows):
    """Stack one-row terms that share their users into one SubproblemTerms."""
    return replace(
        rows[0],
        amp=np.stack([t.amp for t in rows], axis=-1),
        phase_off=np.stack([t.phase_off for t in rows], axis=-1),
        waveguide_y=np.array([t.waveguide_y for t in rows]),
    )


def one_row_sweep(geom, x_current, W, s, smoothing, cfg, iterations=None):
    """The sweep built from one-row calls: each antenna alone on its own cell
    of x_current, each start its own pgd_solve without restarts, the first
    best start kept."""
    x = np.asarray(x_current, dtype=float)
    N, L = x.shape
    d, out = geom.min_spacing, np.empty_like(x)
    for n in range(N):
        terms = build_subproblem_terms(geom, n, W, s, PARAMS, THETA)
        for l in range(L):
            lo = 0.0 if l == 0 else (x[n, l - 1] + x[n, l]) / 2 + d / 2
            hi = geom.waveguide_length if l == L - 1 else (x[n, l] + x[n, l + 1]) / 2 - d / 2
            region = MovableRegion(min(lo, x[n, l]), max(hi, x[n, l]))
            eps = pick_eps(terms, x[n, l], smoothing)
            starts = [x[n, l], *np.linspace(region.lower, region.upper, cfg.restarts)]
            one = replace(cfg, restarts=0)
            with pytest.MonkeyPatch.context() as mp:
                steps = spy_steps(mp)
                ends = [pgd_solve(terms, region, eps, one, x0) for x0 in starts]
            if iterations is not None:
                iterations[n, l] = len(steps)
            vals = [subproblem_objective(terms, e, eps) for e in ends]
            out[n, l] = ends[int(np.argmin(vals))]
    return out


class TestLockstepRows:
    """Stacked rows must reproduce the one-row path of every row exactly."""

    CASES = [  # (smoothing, cfg, the placement constants to set)
        (SmoothingParams(), PGDConfig(), {}),
        (SmoothingParams(), PGDConfig(restarts=2), {}),
        (SmoothingParams(), PGDConfig(), {"_MAX_ITERS": 3, "_STEPS": placement._STEPS[:7]}),
        (SmoothingParams(), PGDConfig(restarts=1), {}),
    ]

    @pytest.mark.parametrize("smoothing, cfg, constants", CASES,
                             ids=[f"smoothing{i}-cfg{i}" for i in range(len(CASES))])
    def test_sweep_matches_independent_rows(self, smoothing, cfg, constants, monkeypatch):
        for name, value in constants.items():
            monkeypatch.setattr(placement, name, value)
        rng = np.random.default_rng(30)
        for num_users, num_pas in ((4, 5), (3, 1), (5, 3)):
            geom, symbols, W = demo_setup(rng, num_users=num_users, num_pas=num_pas)
            grid = np.tile((np.arange(num_pas) + 0.5) * 20.0 / num_pas, (4, 1))
            touching = grid.copy()  # antenna 0 against antenna 1 (at 0 when L = 1)
            touching[:, 0] = 0.0 if num_pas == 1 else grid[:, 1] - geom.min_spacing
            for x0 in (grid, touching):
                expected = one_row_sweep(geom, x0, W, symbols.s, smoothing, cfg)
                got = optimize_all_positions(geom, x0, W, symbols.s, PARAMS, THETA, smoothing,
                                             cfg)
                assert np.array_equal(got, expected)

    def test_rows_retiring_at_different_iterations(self):
        # waveguide 0 has zero beams and stops after one step; waveguide 1
        # starts from two sweeps of its own and stops within a few (one sweep
        # is not enough: the cells move with the placement, so an antenna
        # that ended on its cell edge can go on); the others descend for many
        # steps while those rows sit retired
        rng = np.random.default_rng(31)
        geom, symbols, W = demo_setup(rng)
        W[0] = 0.0
        smoothing, cfg = SmoothingParams(), PGDConfig()
        x0 = np.tile((np.arange(5) + 0.5) * 4.0, (4, 1))
        for _ in range(2):
            x0[1] = optimize_all_positions(geom, x0, W, symbols.s, PARAMS, THETA, smoothing,
                                           cfg)[1]
        iterations = np.zeros((4, 5), dtype=int)
        expected = one_row_sweep(geom, x0, W, symbols.s, smoothing, cfg, iterations)
        got = optimize_all_positions(geom, x0, W, symbols.s, PARAMS, THETA, smoothing, cfg)
        assert np.array_equal(got, expected)
        assert np.array_equal(got[0], x0[0])
        assert np.all(iterations[0] == 1)
        assert np.all(iterations[1] <= 3)
        assert iterations[2:].max() >= 5

    def test_stacked_pgd_solve_matches_single_rows(self, monkeypatch):
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
        steps = spy_steps(monkeypatch)
        got = pgd_solve(stack_rows(rows), MovableRegion(lower, upper), eps, PGDConfig(), x0)
        assert steps and non_increasing(steps)
        for i, t in enumerate(rows):
            single = pgd_solve(t, MovableRegion(lower[i], upper[i]), eps[i], PGDConfig(), x0[i])
            assert got[i] == single
        assert np.array_equal(pick_eps(stack_rows(rows), x0, SmoothingParams()), eps)


def restart_cases(seed=50):
    """One unstacked row on a fixed region, and one sweep's stacked collapsed
    terms on the cells of a uniform grid, each with its adaptive eps and warm
    start: (terms, region, eps, x_warm) pairs."""
    rng = np.random.default_rng(seed)
    geom, symbols, _ = demo_setup(rng)
    x_opt = 0.2 * (rng.normal(size=4) + 1j * rng.normal(size=4))
    x0 = np.tile((np.arange(5) + 0.5) * 4.0, (4, 1))
    one = build_subproblem_terms(geom, 1, x_opt, symbols.s, PARAMS, THETA)
    stacked = build_subproblem_terms(geom, np.repeat(np.arange(4), 5), x_opt, symbols.s, PARAMS,
                                     THETA)
    cells = placement_cells(geom, x0)
    return [(one, MovableRegion(2.0, 9.0), pick_eps(one, 5.0, SmoothingParams()), 5.0),
            (stacked, MovableRegion(cells.lower.ravel(), cells.upper.ravel()),
             pick_eps(stacked, x0.ravel(), SmoothingParams()), x0.ravel())]


# _solve_region's ends for restart_cases(): restarts -> sha256 over the
# float.hex of the unstacked row's end followed by the 20 stacked rows' ends.
GOLDEN_SOLVE_REGION = {
    0: "60f1800c5e1b8c8a67ce80747eca8516a8ba413f7160b7bea2cfef999d792a44",
    1: "8484febb741960b57f8eddd2b65b71b785ee61fd1a76a824b693e44a8b499413",
    3: "0d5a809dbcdc6b28429708831ea9e0b0fd8a66f293de6a6db23f62650eedb604",
}


class TestRestarts:
    """The warm start plus cfg.restarts evenly spaced starts per row, each
    row keeping its first best end."""

    @pytest.mark.parametrize("restarts", list(GOLDEN_SOLVE_REGION))
    def test_solve_region_golden(self, restarts):
        ends = [placement._solve_region(*case[:3], PGDConfig(restarts=restarts), case[3])
                for case in restart_cases()]
        assert isinstance(ends[0], float)
        text = " ".join(float(v).hex() for v in [ends[0], *ends[1]])
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SOLVE_REGION[restarts]

    @pytest.mark.parametrize("restarts", [1, 3])
    def test_each_row_keeps_its_first_best_end(self, restarts):
        # reference: every start a plain row, the ends' objectives evaluated
        # afresh; at seeds 5 and 20 a best end is on a start still stepping
        # when the solve ends
        starts = 1 + restarts
        for seed in (5, 20, 50):
            terms, region, eps, x_warm = restart_cases(seed)[1]
            n = x_warm.size
            spread = [np.linspace(a, b, restarts) for a, b in zip(region.lower, region.upper)]
            rows = take_rows(terms, np.tile(np.arange(n), starts))
            lower, upper, tiled_eps = (np.tile(v, starts) for v in (*region, eps))
            ends = pgd_solve(rows, MovableRegion(lower, upper), tiled_eps, PGDConfig(),
                             np.concatenate([x_warm, np.ravel(spread, order="F")]))
            f = subproblem_objective(rows, ends, tiled_eps).reshape(starts, n)
            want = ends.reshape(starts, n)[np.argmin(f, axis=0), np.arange(n)]
            got = pgd_solve(terms, region, eps, PGDConfig(restarts=restarts), x_warm)
            assert np.array_equal(got, want)

    def test_pgd_solve_runs_restarts(self):
        for restarts in GOLDEN_SOLVE_REGION:
            cfg = PGDConfig(restarts=restarts)
            for terms, region, eps, x_warm in restart_cases():
                got = pgd_solve(terms, region, eps, cfg, x_warm)
                want = placement._solve_region(terms, region, eps, cfg, x_warm)
                assert np.array_equal(got, want) and type(got) is type(want)


def zigzag_row():
    """One unstacked row, from demo_setup as restart_cases builds it: antenna
    1 of waveguide 2 on its cell of a uniform grid. When each Armijo search
    took its first passing step, that step landed just under 2/curvature near
    the upper cell edge, so the row zigzagged inside one basin:
    (terms, region, eps, x_warm)."""
    rng = np.random.default_rng(61)
    geom, symbols, _ = demo_setup(rng)
    x_opt = 0.2 * (rng.normal(size=4) + 1j * rng.normal(size=4))
    x0 = np.tile((np.arange(5) + 0.5) * 4.0, (4, 1))
    terms = build_subproblem_terms(geom, 2, x_opt, symbols.s, PARAMS, THETA)
    cells = placement_cells(geom, x0)
    return (terms, MovableRegion(cells.lower[2, 1], cells.upper[2, 1]),
            pick_eps(terms, x0[2, 1], SmoothingParams()), x0[2, 1])


# zigzag_row's end (float.hex), 6.0012 m in 4 steps under steps in units of
# the branch scale and the guide wavelength and the 1e-2 lambda_g retire
# tolerance, and the 109 steps it took when each Armijo search took its first
# passing step.
ZIGZAG_END, ZIGZAG_STEPS = "0x1.8013da438c600p+2", 109


class TestZigzagTail:
    def test_zigzag_row_stops_early_in_its_basin(self, monkeypatch):
        terms, region, eps, x_warm = zigzag_row()
        steps = spy_steps(monkeypatch)
        end = pgd_solve(terms, region, eps, PGDConfig(), x_warm)
        assert len(steps) <= 20 < ZIGZAG_STEPS
        assert abs(end - float.fromhex(ZIGZAG_END)) <= 1e-5


def steps_per_sweep(monkeypatch, carrier, kappa, trials=3):
    """Gradient calls per pgd_solve, and each AO's gain in dB (round 0's power
    over the last round's), over trials AOs (seed 7777, L = 5, 10 dB) at the
    carrier and smoothing kappa."""
    counts, gains, gradient, solve = [], [], placement.subproblem_gradient, placement.pgd_solve

    def counting_gradient(*args, **kwargs):
        counts[-1] += 1
        return gradient(*args, **kwargs)

    def counting_solve(*args, **kwargs):
        counts.append(0)
        return solve(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(placement, "subproblem_gradient", counting_gradient)
        m.setattr(placement, "pgd_solve", counting_solve)
        cfg = ExperimentConfig(master_seed=7777, carrier_freq_hz=carrier)
        for trial in range(trials):
            geom, symbols = generate_scenario(cfg, trial, num_pas=5)
            gamma = np.full(cfg.num_users, db_to_linear(10.0))
            powers = ao.ao_solve(geom, cfg.params, symbols, gamma, cfg.noise_w, cfg.theta_th,
                                 ao.fixed_uniform_placement(geom),
                                 smoothing=SmoothingParams(kappa=kappa))[2].powers
            gains.append(10 * math.log10(powers[0] / powers[-1]))
    return counts, gains


class TestCarrierCost:
    @pytest.mark.parametrize("kappa", [1e-5, 1e-3, 1e-1])
    def test_steps_per_sweep_do_not_depend_on_the_carrier(self, monkeypatch, kappa):
        # steps in units of the branch scale and the guide wavelength cost
        # about the same at every carrier and smoothing kappa: each mean within
        # 1.5 times that at 28 GHz and the default kappa, and no sweep capped.
        # Steps in metres took 8.1 times as many here at 2.8 GHz as at 28 GHz
        # and capped one sweep; steps in units of eps took 3.9 times as many
        # at kappa = 0.1 as at 1e-3.
        ref = np.mean(steps_per_sweep(monkeypatch, 2.8e10, 1e-3)[0])
        for carrier in (2.8e9, 2.8e10, 2.8e11):
            counts = steps_per_sweep(monkeypatch, carrier, kappa)[0]
            assert max(counts) < placement._MAX_ITERS
            assert 1 / 1.5 <= np.mean(counts) / ref <= 1.5, (carrier, np.mean(counts), ref)


class TestRetireTolerance:
    def test_coarse_retire_halves_the_steps_and_keeps_the_gain(self, monkeypatch):
        # a row retires once a step moves it by at most 1e-2 lambda_g, where
        # it retired at 1.3e-4 lambda_g before: over 30 AOs per carrier the
        # steps per sweep fell 6.14/5.92/5.46 -> 2.93/2.78/2.35 (2.8, 28 and
        # 280 GHz) and the mean AO gain moved +0.035/-0.019/-0.004 dB. The
        # gain needs the 30: single AOs end up to 0.4 dB apart either way, so
        # the means of 3 AOs differ by 0.11 dB at 28 GHz.
        for carrier in (2.8e9, 2.8e10, 2.8e11):
            with monkeypatch.context() as m:
                m.setattr(placement, "_STEP_TOL", 1.3e-4)
                old_counts, old_gains = steps_per_sweep(m, carrier, 1e-3, trials=30)
            counts, gains = steps_per_sweep(monkeypatch, carrier, 1e-3, trials=30)
            assert np.mean(counts) <= 0.6 * np.mean(old_counts), carrier
            assert abs(np.mean(gains) - np.mean(old_gains)) <= 0.05, carrier


U = 2.0 ** -53  # unit roundoff of float64


def rank_one_terms(seed, K, n):
    """General terms of W = x s^H / K and the collapsed terms of x itself,
    for waveguide index (or indices) n of a seeded K-user demo scenario."""
    rng = np.random.default_rng([40, K, seed])
    geom, symbols, _ = demo_setup(rng, num_users=K)
    x_opt = 0.2 * (rng.normal(size=4) + 1j * rng.normal(size=4))
    W = recover_beam_matrix(x_opt, symbols)
    return (build_subproblem_terms(geom, n, W, symbols.s, PARAMS, THETA),
            build_subproblem_terms(geom, n, x_opt, symbols.s, PARAMS, THETA), rng)


def phase_tol(terms, q, x):
    """Bound on the difference between two roundings of the pair phase
    ang = -beta0*q - beta1*x + phase_off, where |ang| <= A. Each side rounds
    ang itself (two additions, <= 2uA) and q (a few ulp, which moves beta0*q
    by <= 4uA), so the two sides differ by <= 12uA. phase_off (three angles
    and two additions of size <= 3*pi), amp, sin and cos differ by O(50u),
    which is < 4uA since A > beta0 * height > 1e3 here. Total: 16uA."""
    A = terms.beta0 * np.max(q) + terms.beta1 * np.max(np.abs(x)) + 3 * np.pi
    return 16 * U * A


class TestRankOneCollapse:
    """The precoded vector x collapses the K equal m rows of W = x s^H / K into
    one row with mult = K. The two forms differ only by rounding, bounded
    through phase_tol: with r = |g| = amp/q per pair and t = tan(th),
    - each branch g_im -/+ t*g_re moves by <= (1 + t)*r*delta;
    - the adaptive eps, kappa * max|branch|, by kappa*(1 + t)*max(r)*delta
      plus its own rounding;
    - the objective, a sum of log-sum-exp terms, each 1-Lipschitz in the
      branches, by (1 + t)*delta*sum(r), plus (K^2 + 8)u of the summed
      |pair terms| <= (1 + t)*r + eps*log(2) for the summation;
    - the gradient, sum of -t*g_re' + w*g_im' with w = tanh(g_im/eps): the
      slopes g_re', g_im' are each at most (beta0 + beta1 + 1/q)*r and move
      by at most that times delta, so the pair term moves by <= C*r*delta
      with C = (1 + t)(beta0 + beta1 + 1/q); w, whose slope is <= 1/eps,
      moves by <= r*delta/eps, times |g_im'| <= C*r; plus (K^2 + 8)u of
      C*sum(r) for rounding.
    The bounds are worst-case: no tie or cancellation in the net sums is
    assumed, so f and g are compared against sums of pair magnitudes."""

    @pytest.mark.parametrize("fixed_eps", [None, 1e-6], ids=["adaptive", "fixed"])
    @pytest.mark.parametrize("K", [1, 2, 4, 6])
    def test_matches_general_terms(self, K, fixed_eps):
        # the adaptive eps of pick_eps, or a fixed temperature given straight
        # to the kernels
        for seed in range(4):
            gen, col, rng = rank_one_terms(seed, K, np.arange(4))
            assert (col.amp.shape, col.phase_off.shape, col.mult) == ((1, 4), (1, K, 4), K)
            assert gen.mult == 1.0
            xs = rng.uniform(0, 20, (8, 4))  # 8 candidates for each of the 4 rows
            bar, hat, g_im, g_re, q = _all_branches(gen, xs)
            cbar, chat, *_ = _all_branches(col, xs)
            t, delta, r = gen.tan_th, phase_tol(gen, q, xs), np.hypot(g_im, g_re)
            assert np.all(np.abs(cbar - bar) <= (1 + t) * delta * r)
            assert np.all(np.abs(chat - hat) <= (1 + t) * delta * r)

            if fixed_eps is None:
                smoothing = SmoothingParams()
                eps = pick_eps(gen, xs[0], smoothing)
                tol = smoothing.kappa * (1 + t) * delta * r[:, :, 0].max(axis=(0, 1)) + 2 * U * eps
                assert np.all(np.abs(pick_eps(col, xs[0], smoothing) - eps) <= tol)
            else:
                eps = fixed_eps
            e = np.asarray(eps)

            size = (1 + t) * r + e * math.log(2)
            tol = ((1 + t) * delta * r + (K * K + 8) * U * size).sum(axis=(0, 1))
            parts = _pair_parts(gen, xs)
            f = subproblem_objective(gen, xs, eps, parts)
            assert np.all(np.abs(subproblem_objective(col, xs, eps) - f) <= tol)

            C = (1 + t) * (gen.beta0 + gen.beta1 + 1 / q.min())
            tol = (C * r * (delta * (1 + (1 + t) * r / e) + (K * K + 8) * U)).sum(axis=(0, 1))
            g = subproblem_gradient(gen, xs, eps, parts)
            assert np.all(np.abs(subproblem_gradient(col, xs, eps) - g) <= tol)

    @pytest.mark.parametrize("K", [2, 4, 6])
    def test_objective_matches_pair_oracle(self, K):
        # the scalar oracle sums every one of the K x K pairs of the general
        # terms; the collapsed objective sums K pairs and multiplies by K
        gen, col, rng = rank_one_terms(7, K, 1)
        for x in rng.uniform(0, 20, 6):
            for eps in (1e-6, pick_eps(gen, float(x), SmoothingParams())):
                ref = sum(smooth_term(gen, float(x), m, k, eps)
                          for m in range(K) for k in range(K))
                _, _, g_im, g_re, q = _all_branches(gen, float(x))
                r, t = np.hypot(g_im, g_re), gen.tan_th
                size = (1 + t) * r + eps * math.log(2)
                tol = ((1 + t) * phase_tol(gen, q, x) * r + (K * K + 8) * U * size).sum()
                assert abs(subproblem_objective(col, float(x), eps) - ref) <= tol

    def test_rows_carry_mult_and_cached_constants(self, monkeypatch):
        _, col, _ = rank_one_terms(0, 4, np.arange(4))
        consts = col.amp, col.phase_off, col.dy2
        sub = take_rows(col, np.array([2, 0, 2]))
        assert sub.mult == 4.0
        for got, want in zip((sub.amp, sub.phase_off, sub.__dict__["dy2"]), consts):
            assert np.array_equal(got, want[..., [2, 0, 2]])
        # pgd_solve stacks its restart starts as extra rows, with the cached
        # constants of their rows
        seen = []

        def spy(terms, *args, **kwargs):
            seen.append(terms)
            return subproblem_gradient(terms, *args, **kwargs)

        monkeypatch.setattr(placement, "subproblem_gradient", spy)
        eps = pick_eps(col, np.full(4, 3.0), SmoothingParams())
        pgd_solve(col, MovableRegion(np.zeros(4), np.full(4, 8.0)), eps, PGDConfig(restarts=2),
                  np.full(4, 3.0))
        rows = seen[0]
        assert rows.amp.shape == (1, 12) and rows.mult == 4.0
        for got, want in zip((rows.amp, rows.phase_off, rows.__dict__["dy2"]), consts):
            assert np.array_equal(got, np.concatenate([want] * 3, axis=-1))


class TestSoftAbsForm:
    """The kernels evaluate each pair's eps * logaddexp(bar/eps, hat/eps) as
    -t*g_re + |g_im| + eps*log1p(exp(-2|g_im|/eps)), and its slope as
    -t*g_re' + tanh(g_im/eps)*g_im'. Both agree with the log-sum-exp form
    and its softmax-weighted branch derivatives, written out here from
    _all_branches, to 1e-12 of the summed pair magnitudes."""

    @pytest.mark.parametrize("K", [1, 4, 6])
    def test_matches_log_sum_exp_form(self, K):
        for seed in range(3):
            for terms in rank_one_terms(seed, K, np.arange(4))[:2]:
                rng = np.random.default_rng([42, K, seed])
                xs = rng.uniform(0, 20, (8, 4))  # 8 candidates for each of the 4 rows
                t, b0, b1 = terms.tan_th, terms.beta0, terms.beta1
                for kappa in (1e-3, 0.1, 1.0):
                    eps = pick_eps(terms, xs[0], SmoothingParams(kappa=kappa))
                    e = eps
                    bar, hat, *_ = _all_branches(terms, xs)
                    ref = (e * np.logaddexp(bar / e, hat / e)).sum(axis=(0, 1))
                    size = (np.abs(bar) + np.abs(hat) + e).sum(axis=(0, 1))
                    f = subproblem_objective(terms, xs, eps)
                    assert np.all(np.abs(f - terms.mult * ref) <= 1e-12 * terms.mult * size)

                    bar, hat, g_im, g_re, q = _all_branches(terms, xs[0])
                    dq, qk = (xs[0] - terms.user_x[:, None]) / q, q
                    dbar = (g_re * (dq * (-b0 + t / qk) - b1)
                            - g_im * (dq * (b0 * t + 1 / qk) + b1 * t))
                    dhat = (g_re * (dq * (b0 + t / qk) + b1)
                            - g_im * (dq * (b0 * t - 1 / qk) + b1 * t))
                    with np.errstate(over="ignore"):
                        w = 1.0 / (1.0 + np.exp((hat - bar) / e))  # softmax weight of bar
                    ref = (w * dbar + (1.0 - w) * dhat).sum(axis=(0, 1))
                    size = (np.abs(dbar) + np.abs(dhat)).sum(axis=(0, 1))
                    g = subproblem_gradient(terms, xs[0], eps)
                    assert np.all(np.abs(g - terms.mult * ref) <= 1e-12 * terms.mult * size)


class TestPlacementObjectiveExact:
    def test_reads_the_snapshot(self):
        # the AO passes the channel it built for the CI-QP; the placement
        # module builds no channel of its own
        assert not hasattr(placement, "effective_channels")

    def test_matches_negated_margin_sum(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            geom, symbols, W = demo_setup(rng)
            x = np.tile((np.arange(5) + 0.5) * 4.0, (4, 1))
            gamma = np.full(4, 100.0)
            obj = placement_objective_exact(
                effective_channels(geom, x, PARAMS), W, symbols.s, gamma, NOISE_W, THETA
            )
            # lam_k from the scalar oracles: free-space row times in-guide response
            margins = 0.0
            for k, user in enumerate(geom.users):
                h = np.array([
                    freespace_channel(
                        user, [Vec3(v, geom.waveguide_y[n], geom.height) for v in x[n]], PARAMS
                    ) @ waveguide_phase_vector(x[n], PARAMS)
                    for n in range(4)
                ])
                lam = complex(h @ (W @ symbols.s) / symbols.s[k])
                margins += ci_margin(lam, gamma[k], NOISE_W, THETA)
            assert obj == pytest.approx(-margins, abs=1e-10)

    def test_zero_beams_constant(self):
        rng = np.random.default_rng(20)
        geom, symbols, _ = demo_setup(rng)
        gamma = np.full(4, 100.0)
        x = np.tile((np.arange(5) + 0.5) * 4.0, (4, 1))
        obj = placement_objective_exact(
            effective_channels(geom, x, PARAMS), np.zeros((4, 4), dtype=complex), symbols.s,
            gamma, NOISE_W, THETA,
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
            snapshot = effective_channels(geom, x, PARAMS)
            d1 = placement_objective_exact(snapshot, W, symbols.s, gamma1, NOISE_W, THETA)
            d2 = placement_objective_exact(snapshot, W, symbols.s, gamma2, NOISE_W, THETA)
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
                effective_channels(geom, x, PARAMS), W, symbols.s, gamma, NOISE_W, THETA
            )
            assert lead * surrogate + constants >= exact - 1e-15
