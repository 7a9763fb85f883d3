"""Per-antenna position optimization by smoothed margin descent.

For fixed beams the placement objective separates into one single-variable
subproblem per antenna: a double sum over user pairs of |g_im| - g_re*tan(th),
where g_im/g_re are the imaginary/real parts of that antenna's contribution to
the received point. The |.| kink is smoothed by log-sum-exp of its two branches
and each subproblem is solved by projected gradient descent with Armijo
backtracking over the antenna's movable region. Waveguides are independent, so
antenna l of every waveguide is solved as one stack of rows stepping together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral
from typing import Callable

import numpy as np

from .channel import WaveformParams
from .geometry import (MovableRegion, SystemGeometry, initial_regions, updated_region,
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

    @property
    def num_users(self) -> int:
        return self.user_x.size

    def rows(self, idx) -> SubproblemTerms:
        """The stacked subproblems that idx selects on the row axis."""
        return replace(self, amp=self.amp[idx], phase_off=self.phase_off[idx],
                       waveguide_y=np.asarray(self.waveguide_y)[idx])


def build_subproblem_terms(geom: SystemGeometry, n, W: np.ndarray, s: np.ndarray,
                           params: WaveformParams, theta_th: float) -> SubproblemTerms:
    """Terms of the subproblems on waveguide n for beams W and symbols s; an
    array of waveguide indices n gives one stacked row per entry."""
    w_row = W[n, :]  # w_{m,n} over users m
    amp = np.abs(w_row)
    phase_off = np.angle(w_row)[..., :, None] + np.angle(s)[:, None] - np.angle(s)[None, :]
    return SubproblemTerms(
        amp=amp, phase_off=phase_off,
        user_x=np.array([u.x for u in geom.users]), user_y=np.array([u.y for u in geom.users]),
        waveguide_y=np.asarray(geom.waveguide_y)[n], height=geom.height,
        beta0=params.beta0, beta1=params.beta1, tan_th=math.tan(theta_th),
    )


@dataclass(frozen=True)
class SmoothingParams:
    """Log-sum-exp temperature policy.

    When adaptive, the temperature per subproblem is kappa times the largest
    branch magnitude at the warm start, floored; otherwise eps is used as-is.
    """

    eps: float = 1e-9
    kappa: float = 1e-3
    floor: float = 1e-15
    adaptive: bool = True

    def __post_init__(self):
        if not (self.eps > 0 and self.floor > 0 and self.eps >= self.floor and self.kappa > 0):
            raise ValueError("need eps >= floor > 0 and kappa > 0")
        if not isinstance(self.adaptive, bool):
            raise ValueError("adaptive must be true or false")


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
        if not all(v > 0 for v in (self.max_iters, self.step_tol, self.init_step,
                                   self.armijo_c1, self.shrink, self.max_backtracks)):
            raise ValueError("all PGD settings must be positive (restarts may be 0)")
        if not (self.shrink < 1 and self.restarts >= 0):
            raise ValueError("shrink factor must be < 1 and restarts >= 0")


def _q_f(terms: SubproblemTerms, x):
    """Distance to each user and the position-dependent phase, per user."""
    x = np.asarray(x, dtype=float)
    dx = terms.user_x - x[..., None]
    dy = terms.user_y - np.asarray(terms.waveguide_y)[..., None]
    q = np.sqrt(dx**2 + dy**2 + terms.height**2)
    f = -terms.beta0 * q - terms.beta1 * x[..., None]
    return q, f


def g_terms(terms: SubproblemTerms, x: float, m: int, k: int) -> tuple[float, float]:
    """Imaginary and real g-components of the (m, k) term at position x."""
    q, f = _q_f(terms, float(x))
    ang = f[k] + terms.phase_off[m, k]
    scale = terms.amp[m] / q[k]
    return float(scale * np.sin(ang)), float(scale * np.cos(ang))


def phi_branches(terms: SubproblemTerms, x: float, m: int, k: int) -> tuple[float, float]:
    """The two branches of |g_im| - g_re*tan(th): (g_im - g_re*t, -g_im - g_re*t)."""
    g_im, g_re = g_terms(terms, x, m, k)
    base = -g_re * terms.tan_th
    return g_im + base, -g_im + base


def smooth_term(terms: SubproblemTerms, x: float, m: int, k: int, eps: float) -> float:
    """Log-sum-exp smoothing of the two branches at temperature eps."""
    bar, hat = phi_branches(terms, x, m, k)
    return float(eps * np.logaddexp(bar / eps, hat / eps))


def _all_branches(terms: SubproblemTerms, x):
    """phi-bar and phi-hat for every (m, k) pair, with the g-components and
    distances they came from; x may carry candidate axes before the rows."""
    q, f = _q_f(terms, x)
    ang = f[..., None, :] + terms.phase_off  # (..., m, k)
    scale = terms.amp[..., :, None] / q[..., None, :]
    g_im = scale * np.sin(ang)
    g_re = scale * np.cos(ang)
    base = g_re * -terms.tan_th  # same bits as -g_re * tan_th
    return g_im + base, base - g_im, g_im, g_re, q


def subproblem_objective(terms: SubproblemTerms, x, eps, branches=None):
    """Smoothed subproblem objective, summed over all (m, k) pairs. Vectorized
    over x: a scalar input yields a float, an array input an array of the same
    shape. branches, when given, are _all_branches(terms, x).
    """
    bar, hat, *_ = _all_branches(terms, x) if branches is None else branches
    e = np.asarray(eps, dtype=float)[..., None, None]  # one per row, over (m, k)
    out = (e * np.logaddexp(bar / e, hat / e)).sum(axis=(-2, -1))
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
    t, b0, b1 = terms.tan_th, terms.beta0, terms.beta1
    dbar = g_re * (dq * (-b0 + t / qk) - b1) - g_im * (dq * (b0 * t + 1.0 / qk) + b1 * t)
    dhat = g_re * (dq * (b0 + t / qk) + b1) - g_im * (dq * (b0 * t - 1.0 / qk) + b1 * t)
    # stable softmax weight of the bar branch: sigma((bar - hat)/eps)
    wbar = _sigmoid((bar - hat) / np.asarray(eps, dtype=float)[..., None, None])
    out = np.sum(wbar * dbar + (1.0 - wbar) * dhat, axis=(-2, -1))
    return float(out) if out.ndim == 0 else out


def _sigmoid(u: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(u))
    d = 1.0 + e
    return np.where(u >= 0, 1.0 / d, e / d)


def pick_eps(terms: SubproblemTerms, x0, smoothing: SmoothingParams, branches=None):
    """Subproblem temperature (one per row) under the adaptive policy."""
    if not smoothing.adaptive:
        return smoothing.eps
    bar, hat, *_ = _all_branches(terms, x0) if branches is None else branches
    scale = np.maximum(np.abs(bar).max(axis=(-2, -1), initial=0.0),
                       np.abs(hat).max(axis=(-2, -1), initial=0.0))
    eps = np.maximum(smoothing.kappa * scale, smoothing.floor)
    return float(eps) if eps.ndim == 0 else eps


def armijo_step(objective: Callable[[float], float], gradient_value: float, x: float,
                cfg: PGDConfig) -> float:
    """Largest backtracked step satisfying the Armijo-Goldstein decrease test.

    Tries init_step * shrink^i and returns the first step with
    f(x - mu*g) <= f(x) - c1*mu*g^2, or 0 if none succeeds.
    """
    f0 = objective(x)
    g2 = gradient_value * gradient_value
    mu = cfg.init_step
    for _ in range(cfg.max_backtracks + 1):
        if objective(x - mu * gradient_value) <= f0 - cfg.armijo_c1 * mu * g2:
            return mu
        mu *= cfg.shrink
    return 0.0


def _armijo_rows(terms, lower, upper, eps, f0, g, x, steps, c1):
    """Backtracking on the projected candidate, per row: the first step of the
    schedule whose clamped point passes the Armijo test. Steps [0, h) are tried
    for every row, [h, end) only for rows without a hit there, h = ceil(len/2).
    Returns per row the point, its objective and its branches; a row without a
    hit keeps (x, f0) and the branches of a rejected candidate."""
    g2 = np.float_power(g, 2)  # libm pow, the bits of Python's float ** 2
    x_new, f_new, branches = x.copy(), f0.copy(), None
    pending = np.arange(x.size)  # rows without a hit so far
    half = -(-steps.size // 2)
    for part in (steps[:half, None], steps[half:, None]):
        cands = np.clip(x[pending] - part * g[pending], lower[pending], upper[pending])
        br = _all_branches(terms, cands)
        vals = subproblem_objective(terms, cands, eps[pending], br)
        ok = vals <= f0[pending] - c1 * part * g2[pending]
        first = np.argmax(ok, axis=0), np.arange(pending.size)
        hit = ok[first]
        x_new[pending[hit]] = cands[first][hit]
        f_new[pending[hit]] = vals[first][hit]
        if branches is None:
            branches = tuple(b[first] for b in br)
        else:
            for out, b in zip(branches, br):
                out[pending] = b[first]
        if hit.all():
            break
        pending, terms = pending[~hit], terms.rows(~hit)
    return x_new, f_new, branches


def project(x: float, region: MovableRegion) -> float:
    """Euclidean projection onto the movable interval (clamp)."""
    return min(max(x, region.lower), region.upper)


def pgd_solve(terms: SubproblemTerms, region: MovableRegion, eps, cfg: PGDConfig, x_init,
              callback: Callable | None = None, branches=None):
    """Projected gradient descent over one movable region per row.

    Iterates x <- Proj(x - mu * grad), with mu backtracked on the projected
    candidate per the Armijo-Goldstein decrease test, until the position
    change drops below step_tol or max_iters is hit. The objective sequence
    is non-increasing and the returned point is feasible. Stacked rows step
    together (region bounds, eps and x_init broadcast over them), and a row
    stops once its own change drops below step_tol, so it follows the path it
    would follow alone. branches, when given, are _all_branches(terms, x_init)
    for x_init inside the region. The callback gets (x, f) at the start and
    after every step: floats for unstacked terms, row arrays otherwise.
    """
    single = np.ndim(terms.waveguide_y) == 0
    if single:  # one row
        terms = terms.rows(np.newaxis)
        branches = branches and tuple(b[np.newaxis] for b in branches)
    rows = terms.amp.shape[0]
    lower, upper = (np.broadcast_to(np.asarray(b, dtype=float), rows) for b in region)
    eps = np.broadcast_to(np.asarray(eps, dtype=float), rows)
    x = np.clip(np.broadcast_to(np.asarray(x_init, dtype=float), rows), lower, upper)
    if branches is None:
        branches = _all_branches(terms, x)
    f = subproblem_objective(terms, x, eps, branches)

    def report():
        if callback is not None:
            callback(*((float(x[0]), float(f[0])) if single else (x.copy(), f.copy())))

    report()
    steps = cfg.init_step * cfg.shrink ** np.arange(cfg.max_backtracks + 1)
    active = np.arange(rows)
    for _ in range(cfg.max_iters):
        x_act = x[active]
        g = subproblem_gradient(terms, x_act, eps, branches)
        x_next, f[active], branches = _armijo_rows(
            terms, lower, upper, eps, f[active], g, x_act, steps, cfg.armijo_c1)
        x[active] = x_next
        report()
        go = ~(np.abs(x_next - x_act) <= cfg.step_tol)
        if not go.any():
            break
        if not go.all():
            active, lower, upper, eps = active[go], lower[go], upper[go], eps[go]
            terms, branches = terms.rows(go), tuple(b[go] for b in branches)
    return float(x[0]) if single else x


def _solve_region(terms: SubproblemTerms, region: MovableRegion, eps, cfg: PGDConfig, x_warm,
                  branches=None):
    """One subproblem solve per row: the warm start plus cfg.restarts evenly
    spaced starts, stacked as extra rows of one pgd_solve; each row keeps its
    first best start. branches are passed on when there are no restarts."""
    if not cfg.restarts:
        return pgd_solve(terms, region, eps, cfg, x_warm, branches=branches)
    single = np.ndim(terms.waveguide_y) == 0
    terms = terms.rows(np.newaxis) if single else terms
    n, starts = terms.amp.shape[0], 1 + cfg.restarts
    lower, upper = (np.broadcast_to(np.asarray(b, dtype=float), n) for b in region)
    spread = np.array([np.linspace(a, b, cfg.restarts) for a, b in zip(lower, upper)])
    x0 = np.concatenate([np.broadcast_to(np.asarray(x_warm, dtype=float), n), spread.T.ravel()])
    rows = terms.rows(np.tile(np.arange(n), starts))
    eps = np.resize(eps, starts * n)  # every start keeps its row's temperature
    x = pgd_solve(rows, MovableRegion(np.tile(lower, starts), np.tile(upper, starts)), eps, cfg, x0)
    f = subproblem_objective(rows, x, eps).reshape(starts, n)
    best = x.reshape(starts, n)[np.argmin(f, axis=0), np.arange(n)]
    return float(best[0]) if single else best


def optimize_all_positions(geom: SystemGeometry, x_current: np.ndarray, W: np.ndarray,
                           s: np.ndarray, params: WaveformParams, theta_th: float,
                           smoothing: SmoothingParams, cfg: PGDConfig) -> np.ndarray:
    """Sweep every antenna once: left to right on each waveguide, each over
    its movable region updated from the previous antenna's new position.

    The waveguides are independent, so antenna l of all of them is one
    stacked solve. Warm starts from the current placement projected into each
    region; the output always satisfies the range and spacing constraints.
    """
    terms = build_subproblem_terms(geom, np.arange(geom.num_waveguides), W, s, params, theta_th)
    x_new = np.array(x_current, dtype=float, copy=True)
    prev = [None] * geom.num_waveguides
    for l, init in enumerate(initial_regions(geom)):
        lower = np.array([updated_region(l, p, init, geom.min_spacing).lower for p in prev])
        x_warm = np.clip(x_new[:, l], lower, init.upper)
        branches = _all_branches(terms, x_warm)
        eps = pick_eps(terms, x_warm, smoothing, branches)
        x_new[:, l] = prev = _solve_region(terms, MovableRegion(lower, init.upper), eps, cfg,
                                           x_warm, branches)
    report = validate_placement(geom, x_new)
    if not report.ok:  # regions enforce this by construction
        raise AssertionError(f"position sweep produced violations: {report.violations}")
    return x_new


def placement_objective_exact(geom: SystemGeometry, x_coords: np.ndarray,
                              params: WaveformParams, W: np.ndarray, s: np.ndarray,
                              gamma: np.ndarray, noise_power: float, theta_th: float) -> float:
    """Exact (unsmoothed, un-decomposed) placement objective.

    Per user: (eta/sqrt(L)) * (|G_im| - G_re*tan(th)) + sqrt(gamma*s2)*tan(th),
    with G_im/G_re the triple sums of the per-antenna g-components. Equals the
    negated sum of CI margins.
    """
    x = np.asarray(x_coords, dtype=float)
    L = geom.num_pas_per_waveguide
    ux = np.array([u.x for u in geom.users])
    uy = np.array([u.y for u in geom.users])
    wy = np.asarray(geom.waveguide_y)
    t = math.tan(theta_th)

    # q[k, n, l], f[k, n, l]
    q = np.sqrt((ux[:, None, None] - x[None, :, :]) ** 2
                + (uy[:, None, None] - wy[None, :, None]) ** 2 + geom.height**2)
    f = -params.beta0 * q - params.beta1 * x[None, :, :]
    amp = np.abs(W.T)  # (m, n)
    ang_off = np.angle(W.T)[:, :, None] + np.angle(s)[:, None, None]  # (m, n, 1)
    # angle[m, n, l, k] = f[k, n, l] + ang_off[m, n] - angle(s_k)
    ang = (f.transpose(1, 2, 0)[None, :, :, :] + ang_off[:, :, :, None]
           - np.angle(s)[None, None, None, :])
    scale = amp[:, :, None, None] / q.transpose(1, 2, 0)[None, :, :, :]
    g_im = (scale * np.sin(ang)).sum(axis=(0, 1, 2))  # per user k
    g_re = (scale * np.cos(ang)).sum(axis=(0, 1, 2))
    lead = params.eta / math.sqrt(L)
    thresh = np.sqrt(np.asarray(gamma, dtype=float) * noise_power)
    return float(np.sum(lead * (np.abs(g_im) - g_re * t) + thresh * t))
