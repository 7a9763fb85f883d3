"""Per-antenna position optimization by smoothed margin descent.

For fixed beams the placement objective separates into one single-variable
subproblem per antenna: a double sum over user pairs of |g_im| - g_re*tan(th),
where g_im/g_re are the imaginary/real parts of that antenna's contribution to
the received point. The |.| kink is smoothed by log-sum-exp of its two branches
and each subproblem is solved by projected gradient descent with Armijo
backtracking over the antenna's movable cell; a row that stepped over a
stationary point also tries the projected Barzilai-Borwein (secant) point and
takes it when it is lower, which ends the zigzag of a step just under twice
the inverse curvature. The cells come from the current
placement and keep neighbours apart, so all N x L subproblems are independent
and one sweep is a single stack of rows stepping together.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real
from typing import Callable

import numpy as np

from .channel import ChannelSnapshot, WaveformParams
from .geometry import (MovableRegion, SystemGeometry, offset_distances, placement_cells,
                       validate_placement)


@dataclass(frozen=True)
class SubproblemTerms:
    """Constant data of one antenna's position subproblem, or of a stack of them.

    amp[..., m] is the beam amplitude |w_{m,n}| on the waveguide; phase_off[..., m, k]
    the phase offset angle(w_{m,n}) + angle(s_m) - angle(s_k); user_x/user_y
    the user plane coordinates. Together with the waveguide y, height, and the
    two wavenumbers these determine every g-term as a function of the antenna
    coordinate x. An optional leading row axis on amp, phase_off and
    waveguide_y stacks independent subproblems that share the users; a
    position array then carries the row axis last, after any candidate axes.
    mult counts how many identical copies each m row stands for: the objective
    and gradient multiply their pair sum by it, outside the log-sum-exp, so a
    given eps keeps its meaning (see build_subproblem_terms).
    """

    amp: np.ndarray
    phase_off: np.ndarray
    user_x: np.ndarray
    user_y: np.ndarray
    waveguide_y: float | np.ndarray
    height: float
    beta0: float
    beta1: float
    tan_th: float
    mult: float = 1.0

    @property
    def num_users(self) -> int:
        return self.user_x.size

    @cached_property
    def dy2(self) -> np.ndarray:
        """(user_y - waveguide_y)**2 per row and user: the distance term x does not move."""
        return (self.user_y - np.asarray(self.waveguide_y)[..., None]) ** 2

    @cached_property
    def slope_coefs(self) -> np.ndarray:
        """(num, off, add) per branch-derivative factor, so that the factor is
        dq * (off + num / q) + add; columns (bar, g_re), (hat, g_re), (bar, g_im),
        (hat, g_im). See subproblem_gradient."""
        t, b0, b1 = self.tan_th, self.beta0, self.beta1
        return np.array([[t, t, 1.0, -1.0], [-b0, b0, b0 * t, b0 * t], [-b1, b1, b1 * t, b1 * t]])

    def rows(self, idx) -> SubproblemTerms:
        """The stacked subproblems that idx selects on the row axis, with the
        constants already cached carried along."""
        out = SubproblemTerms(self.amp[idx], self.phase_off[idx], self.user_x, self.user_y,
                              np.asarray(self.waveguide_y)[idx], self.height, self.beta0,
                              self.beta1, self.tan_th, self.mult)
        cached = self.__dict__
        if "dy2" in cached:
            out.__dict__["dy2"] = cached["dy2"][idx]
        if "slope_coefs" in cached:
            out.__dict__["slope_coefs"] = cached["slope_coefs"]
        return out


def build_subproblem_terms(geom: SystemGeometry, n, W: np.ndarray, s: np.ndarray,
                           params: WaveformParams, theta_th: float) -> SubproblemTerms:
    """Terms of the subproblems on waveguide n for beams W and symbols s; an
    array of waveguide indices n gives one stacked row per entry.

    W is the N x K beam matrix, with one m row per user. Passing the precoded
    vector x (length N) instead selects the rank-one beams W = x s^H / K. For
    unit-modulus (PSK) symbols their K rows m are equal, amp |x_n|/K and phase
    angle(x_n) - angle(s_k), so one row is kept with mult = K.
    """
    if np.ndim(W) == 1:
        x_n, mult = W[n, None], float(s.size)
        amp, phase_off = np.abs(x_n) / mult, np.angle(x_n)[..., None] - np.angle(s)
    else:
        w_row, mult = W[n, :], 1.0  # w_{m,n} over users m
        amp = np.abs(w_row)
        phase_off = np.angle(w_row)[..., :, None] + np.angle(s)[:, None] - np.angle(s)[None, :]
    return SubproblemTerms(
        amp=amp, phase_off=phase_off,
        user_x=geom.user_xy[:, 0], user_y=geom.user_xy[:, 1],
        waveguide_y=np.asarray(geom.waveguide_y)[n], height=geom.height,
        beta0=params.beta0, beta1=params.beta1, tan_th=math.tan(theta_th), mult=mult,
    )


def _check_numbers(cfg, *names):
    """ValueError naming the first of the fields that is a bool or no real number."""
    for name in names:
        v = getattr(cfg, name)
        if isinstance(v, bool) or not isinstance(v, Real):
            raise ValueError(f"{name} must be a number, got {v!r}")


@dataclass(frozen=True)
class SmoothingParams:
    """Log-sum-exp temperature policy: per subproblem, kappa times the largest
    branch magnitude at the warm start, floored."""

    kappa: float = 1e-3
    floor: float = 1e-15

    def __post_init__(self):
        _check_numbers(self, "kappa", "floor")
        if not (self.floor > 0 and self.kappa > 0):
            raise ValueError("need floor > 0 and kappa > 0")
        if not all(abs(v) <= sys.float_info.max for v in (self.kappa, self.floor)):
            raise ValueError("kappa and floor must be finite")


@dataclass(frozen=True)
class PGDConfig:
    """Projected-gradient settings: iteration/step limits and the
    Armijo-Goldstein backtracking schedule."""

    max_iters: int = 200
    step_tol: float = 1e-6
    init_step: float = 0.1
    armijo_c1: float = 1e-4
    shrink: float = 0.5
    max_backtracks: int = 40
    restarts: int = 0  # extra evenly spaced starts per region (0 = warm start only)

    def __post_init__(self):
        if not all(isinstance(v, Integral) and not isinstance(v, bool)
                   for v in (self.max_iters, self.max_backtracks, self.restarts)):
            raise ValueError("max_iters, max_backtracks and restarts must be integers")
        _check_numbers(self, "step_tol", "init_step", "armijo_c1", "shrink")
        if not all(v > 0 for v in (self.max_iters, self.step_tol, self.init_step,
                                   self.armijo_c1, self.shrink, self.max_backtracks)):
            raise ValueError("all PGD settings must be positive (restarts may be 0)")
        if not (self.shrink < 1 and self.restarts >= 0):
            raise ValueError("shrink factor must be < 1 and restarts >= 0")
        if not all(abs(v) <= sys.float_info.max
                   for v in (self.step_tol, self.init_step, self.armijo_c1)):
            raise ValueError("step_tol, init_step and armijo_c1 must be finite")


def _branch_stack(terms: SubproblemTerms, x):
    """bar, hat, g_im and g_re of every (m, k) pair, stacked on a new leading
    axis of length 4, and the same four as views followed by the distance q
    to each user (the _all_branches tuple)."""
    x = np.asarray(x, dtype=float)
    q = offset_distances(terms.user_x, x, terms.dy2, terms.height**2)
    f = -terms.beta0 * q - terms.beta1 * x[..., None]  # position-dependent phase per user
    ang = f[..., None, :] + terms.phase_off  # (..., m, k)
    scale = terms.amp[..., :, None] / q[..., None, :]
    stack = np.empty((4,) + ang.shape)
    bar, hat, g_im, g_re = stack[0], stack[1], stack[2], stack[3]
    np.multiply(scale, np.sin(ang, out=g_im), out=g_im)
    np.multiply(scale, np.cos(ang, out=g_re), out=g_re)
    np.multiply(g_re, -terms.tan_th, out=bar)  # base = g_re * -tan_th
    np.subtract(bar, g_im, out=hat)  # base - g_im
    np.add(g_im, bar, out=bar)  # g_im + base
    return stack, (bar, hat, g_im, g_re, q)


def _all_branches(terms: SubproblemTerms, x):
    """phi-bar and phi-hat for every (m, k) pair, with the g-components and
    distances they came from; x may carry candidate axes before the rows."""
    return _branch_stack(terms, x)[1]


def subproblem_objective(terms: SubproblemTerms, x, eps, branches=None):
    """Smoothed subproblem objective, summed over all (m, k) pairs, times
    mult. Vectorized over x: a scalar input yields a float, an array input an
    array of the same shape. branches, when given, are _all_branches(terms, x).
    """
    bar, hat, *_ = _all_branches(terms, x) if branches is None else branches
    e = np.asarray(eps, dtype=float)[..., None, None]  # one per row, over (m, k)
    out = np.add.reduce(e * np.logaddexp(bar / e, hat / e), axis=(-2, -1)) * terms.mult
    return float(out) if out.ndim == 0 else out


def subproblem_gradient(terms: SubproblemTerms, x, eps, branches=None):
    """Analytic derivative of the smoothed objective at x (one per row).

    Each pair contributes the softmax-weighted combination of the two branch
    derivatives; the branch derivatives follow from differentiating the
    g-components through q(x) and the phase -beta0*q - beta1*x.
    """
    bar, hat, g_im, g_re, q = _all_branches(terms, x) if branches is None else branches
    x = np.asarray(x, dtype=float)
    qk = q[..., None, :]  # broadcast the per-user pieces over the m axis
    dq = ((x[..., None] - terms.user_x) / q)[..., None, :]  # dq/dx per user
    # the four factors of
    #   dbar = g_re * (dq * (-b0 + t/q) - b1) - g_im * (dq * (b0*t + 1/q) + b1*t)
    #   dhat = g_re * (dq * (b0 + t/q) + b1) - g_im * (dq * (b0*t - 1/q) + b1*t)
    # on one leading axis; a - b is computed as a + (-b) and a + b as a - (-b),
    # which IEEE arithmetic rounds identically
    num, off, add = terms.slope_coefs.reshape((3, 4) + (1,) * qk.ndim)
    c = dq * (off + num / qk) + add
    d = g_re * c[:2] - g_im * c[2:]
    # stable softmax weight of the bar branch: sigma((bar - hat)/eps)
    wbar = _sigmoid((bar - hat) / np.asarray(eps, dtype=float)[..., None, None])
    out = np.add.reduce(wbar * d[0] + (1.0 - wbar) * d[1], axis=(-2, -1)) * terms.mult
    return float(out) if out.ndim == 0 else out


def _sigmoid(u: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(u))
    return np.where(u >= 0, 1.0, e) / (1.0 + e)


def pick_eps(terms: SubproblemTerms, x0, smoothing: SmoothingParams):
    """Subproblem temperature per row: kappa * max|branch| at x0, floored."""
    bar, hat, *_ = _all_branches(terms, x0)
    scale = np.maximum(np.abs(bar).max(axis=(-2, -1), initial=0.0),
                       np.abs(hat).max(axis=(-2, -1), initial=0.0))
    eps = np.maximum(smoothing.kappa * scale, smoothing.floor)
    return float(eps) if eps.ndim == 0 else eps


def _armijo_rows(terms, lower, upper, eps, f0, g, x, steps, c1, extra=None):
    """Backtracking on the projected candidate, per row: the first step of the
    schedule whose clamped point passes the Armijo test. Steps [0, h) are tried
    for every row, [h, end) only for rows without a hit there, h = ceil(len/2).
    Returns per row the point, its objective and its branches; a row without a
    hit keeps (x, f0) and the branches of a rejected candidate. extra, when
    given, is one more point per row, evaluated in the first batch: a row takes
    it, with its objective and branches, when its objective is strictly below
    the backtracking outcome."""
    g2 = np.float_power(g, 2)  # libm pow, the bits of Python's float ** 2
    c1_steps = (c1 * steps)[:, None]
    half = -(-steps.size // 2)
    cands = np.minimum(np.maximum(x - steps[:half, None] * g, lower), upper)
    if extra is not None:
        cands = np.concatenate([cands, extra[None]])
    all_stack, br = _branch_stack(terms, cands)
    all_vals = subproblem_objective(terms, cands, eps, br)
    all_q, vals = br[4], all_vals[:half]
    ok = vals <= f0 - c1_steps[:half] * g2
    first = ok.argmax(axis=0), np.arange(x.size)
    hit = ok[first]
    x_new, f_new = cands[first], vals[first]
    stack, q = all_stack[(slice(None), *first)], all_q[first]
    if np.count_nonzero(hit) < x.size:
        miss = np.flatnonzero(~hit)
        x_new[miss], f_new[miss] = x[miss], f0[miss]
        terms, g, g2 = terms.rows(miss), g[miss], g2[miss]
        cands = np.minimum(np.maximum(x[miss] - steps[half:, None] * g, lower[miss]),
                           upper[miss])
        miss_stack, br = _branch_stack(terms, cands)
        vals = subproblem_objective(terms, cands, eps[miss], br)
        ok = vals <= f0[miss] - c1_steps[half:] * g2
        first = ok.argmax(axis=0), np.arange(miss.size)
        hit = ok[first]
        x_new[miss[hit]] = cands[first][hit]
        f_new[miss[hit]] = vals[first][hit]
        stack[:, miss], q[miss] = miss_stack[(slice(None), *first)], br[4][first]
    if extra is not None:
        take = np.flatnonzero(all_vals[half] < f_new)
        x_new[take], f_new[take] = extra[take], all_vals[half, take]
        stack[:, take], q[take] = all_stack[:, half, take], all_q[half, take]
    return x_new, f_new, (stack[0], stack[1], stack[2], stack[3], q)


def pgd_solve(terms: SubproblemTerms, region: MovableRegion, eps, cfg: PGDConfig, x_init,
              callback: Callable | None = None):
    """Projected gradient descent over one movable region per row.

    Iterates x <- Proj(x - mu * grad), with mu backtracked on the projected
    candidate per the Armijo-Goldstein decrease test, until the position
    change drops below step_tol or max_iters is hit. From the second step
    on, a row whose gradient changed sign since its previous point also
    evaluates, in the first backtracking batch, the projected Barzilai-Borwein
    point x - g * (x - x_prev) / (g - g_prev), and moves there instead when
    its objective is strictly lower. The objective sequence is
    non-increasing and the returned point is feasible. Stacked rows step
    together (region bounds, eps and x_init broadcast over them), and a row
    stops once its own change drops below step_tol, so it follows the path it
    would follow alone. Besides the warm start x_init, each row gets
    cfg.restarts evenly spaced starts as further rows with its bounds and eps,
    and returns its first best end. The callback gets (x, f) at the start and
    after every step: floats for unstacked terms without restarts, arrays
    over every row and start otherwise.
    """
    single = np.ndim(terms.waveguide_y) == 0
    if single:  # one row
        terms = terms.rows(np.newaxis)
    n, starts = terms.amp.shape[0], 1 + cfg.restarts
    lower, upper, eps = (np.tile(np.broadcast_to(np.asarray(v, dtype=float), n), starts)
                         for v in (*region, eps))
    x = np.broadcast_to(np.asarray(x_init, dtype=float), n)
    if cfg.restarts:
        spread = [np.linspace(a, b, cfg.restarts) for a, b in zip(lower[:n], upper[:n])]
        x = np.concatenate([x, np.ravel(spread, order="F")])
        terms = terms.rows(np.tile(np.arange(n), starts))
    all_terms, all_eps = terms, eps
    x = np.minimum(np.maximum(x, lower), upper)
    branches = _all_branches(terms, x)
    f = subproblem_objective(terms, x, eps, branches)

    def report():
        if callback is not None:
            callback(*((float(x[0]), float(f[0])) if single and starts == 1
                       else (x.copy(), f.copy())))

    report()
    steps = cfg.init_step * cfg.shrink ** np.arange(cfg.max_backtracks + 1)
    # the rows still stepping, with their point, objective, bounds and eps;
    # x and f are written back when rows retire and at the end
    active, x_act, f_act = np.arange(x.size), x.copy(), f.copy()
    x_prev = g_prev = None  # each active row's previous point and gradient
    for _ in range(cfg.max_iters):
        g = subproblem_gradient(terms, x_act, eps, branches)
        extra = None
        if g_prev is not None:
            flip = g * g_prev < 0  # the row stepped over a stationary point
            if flip.any():  # the projected Barzilai-Borwein (secant) point
                xs = x_act - g * (x_act - x_prev) / np.where(flip, g - g_prev, 1.0)
                extra = np.where(flip, np.minimum(np.maximum(xs, lower), upper), x_act)
        x_next, f_act, branches = _armijo_rows(
            terms, lower, upper, eps, f_act, g, x_act, steps, cfg.armijo_c1, extra)
        stay = np.abs(x_next - x_act) <= cfg.step_tol
        x_prev, g_prev, x_act = x_act, g, x_next
        if callback is not None:
            x[active], f[active] = x_act, f_act
            report()
        stopped = np.count_nonzero(stay)
        if stopped == stay.size:
            break
        if stopped:
            x[active], f[active] = x_act, f_act
            go = np.flatnonzero(~stay)
            active, lower, upper, eps = active[go], lower[go], upper[go], eps[go]
            x_act, f_act, x_prev, g_prev = x_act[go], f_act[go], x_prev[go], g_prev[go]
            terms, branches = terms.rows(go), tuple(b[go] for b in branches)
    x[active] = x_act
    if cfg.restarts:  # the first best end of each row's starts
        f = subproblem_objective(all_terms, x, all_eps).reshape(starts, n)
        x = x.reshape(starts, n)[np.argmin(f, axis=0), np.arange(n)]
    return float(x[0]) if single else x


_solve_region = pgd_solve  # the name tests/test_acceptance.py imports


def optimize_all_positions(geom: SystemGeometry, x_current: np.ndarray, W: np.ndarray,
                           s: np.ndarray, params: WaveformParams, theta_th: float,
                           smoothing: SmoothingParams, cfg: PGDConfig) -> np.ndarray:
    """Sweep every antenna once, each within its cell of x_current (see
    geometry.placement_cells), warm-started at its current position. W is the
    beam matrix or, for rank-one beams, the precoded vector x (see
    build_subproblem_terms).

    The cells keep neighbours min_spacing apart, so the N x L subproblems are
    independent: one stacked solve with a row per antenna, row-major in
    (waveguide, antenna). x_current must satisfy the range and spacing
    constraints, else ValueError names the violations; the output always
    satisfies them.
    """
    report = validate_placement(geom, x_current)
    if not report.ok:
        raise ValueError(f"x_current violates the placement constraints: {report.violations}")
    N, L = geom.num_waveguides, geom.num_pas_per_waveguide
    terms = build_subproblem_terms(geom, np.repeat(np.arange(N), L), W, s, params, theta_th)
    cells = placement_cells(geom, x_current)
    x_warm = np.asarray(x_current, dtype=float).ravel()
    eps = pick_eps(terms, x_warm, smoothing)
    x_new = pgd_solve(terms, MovableRegion(cells.lower.ravel(), cells.upper.ravel()), eps, cfg,
                      x_warm).reshape(N, L)
    report = validate_placement(geom, x_new)
    if not report.ok:  # cells enforce this by construction
        raise AssertionError(f"position sweep produced violations: {report.violations}")
    return x_new


def placement_objective_exact(snapshot: ChannelSnapshot, W: np.ndarray, s: np.ndarray,
                              gamma: np.ndarray, noise_power: float, theta_th: float) -> float:
    """Exact (unsmoothed, un-decomposed) placement objective: the negated sum
    of the CI margins of the received points lam = h_eff @ (W s) / s, with
    h_eff the effective rows of the snapshot taken at the placement."""
    lam = snapshot.effective @ (W @ s) / s
    t = math.tan(theta_th)
    thresh = np.sqrt(np.asarray(gamma, dtype=float) * noise_power)
    return float(np.sum(np.abs(lam.imag) - (lam.real - thresh) * t))
