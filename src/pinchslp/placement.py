"""Per-antenna position optimization by smoothed margin descent.

For fixed beams the placement objective separates into one single-variable
subproblem per antenna: a double sum over user pairs of |g_im| - g_re*tan(th),
where g_im/g_re are the imaginary/real parts of that antenna's contribution to
the received point. The |.| kink is smoothed by log-sum-exp of its two
branches, computed as the soft-abs |g_im| + eps*log1p(exp(-2|g_im|/eps)) with
eps = kappa * max(|g_im| + t*|g_re|) at the warm start. Each subproblem is
solved by projected gradient descent over the antenna's movable cell; a step
evaluates a batch of Armijo step sizes and takes the lowest passing step of the
first half, else of the second. The cells come from the current placement and
keep neighbours apart, so one sweep is a single stack of independent rows
stepping together, held with the (m, k) pair axes first and the candidate and
row axes last; the stepping rows are the columns of packed arrays (state,
constants, candidate batch), so a row retires by a take of each, and the warm
start's pair parts serve both eps and the first step. The subproblem is
quasi-periodic in the guide wavelength, so the first AO sweep starts each row at
the best of its warm start and a guide-wavelength grid over its cell. The grid
only ranks starts: it ranks by the unsmoothed objective, summed in float32 from
the float64 phase reduced to [-pi, pi]; PGD and every reported value stay
float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import ChannelSnapshot, WaveformParams, ci_margin
from .config import PGDConfig, SmoothingParams
from .geometry import (MovableRegion, SystemGeometry, offset_distances, placement_cells,
                       validate_placement)

_MAX_ITERS = 200  # PGD steps per row, at most
_STEP_TOL = 1e-6  # a PGD row retires once a step moves it by at most this
_STEPS = 0.1 * 0.5 ** np.arange(41)  # each Armijo search tries the first half, then the rest
_ARMIJO_C1 = 1e-4  # the Armijo decrease constant
_EPS_FLOOR = 1e-15  # the least temperature pick_eps returns


@dataclass(frozen=True)
class SubproblemTerms:
    """Constant data of one antenna's position subproblem, or of a stack of them.

    amp[m] is the beam amplitude |w_{m,n}| on the waveguide; phase_off[m, k]
    the phase offset angle(w_{m,n}) + angle(s_m) - angle(s_k); user_x/user_y
    the user plane coordinates. Together with the waveguide y, height, and the
    two wavenumbers these determine every g-term as a function of the antenna
    coordinate x. An optional last row axis on amp, phase_off and waveguide_y
    stacks independent subproblems that share the users; a position array
    carries it last too, after any candidate axes. mult counts how many
    identical copies each m row stands for: the objective and gradient
    multiply their pair sum by it, outside the log-sum-exp, so a given eps
    keeps its meaning (see build_subproblem_terms).
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
        """(user_y - waveguide_y)**2, (k) or (k, rows)."""
        return np.subtract.outer(self.user_y, self.waveguide_y) ** 2

    def rows(self, idx) -> SubproblemTerms:
        """The stacked subproblems that the row indices idx select (or unstacked
        terms as one row for idx = np.newaxis), with their dy2: one take of _pack."""
        consts = _pack(self)
        return _unpack(self, np.expand_dims(consts, -1) if idx is None else consts.take(idx, -1))


def _pack(terms: SubproblemTerms) -> np.ndarray:
    """The per-row constants as one array, (m + m*k + k + 1, *rows): amp,
    phase_off, dy2 and waveguide_y."""
    return np.concatenate((terms.amp, terms.phase_off.reshape((-1,) + terms.amp.shape[1:]),
                           terms.dy2, np.asarray(terms.waveguide_y, dtype=float)[None]))


def _unpack(terms: SubproblemTerms, consts) -> SubproblemTerms:
    """terms whose per-row constants are views of consts (see _pack)."""
    m, K = terms.amp.shape[0], terms.num_users
    out = SubproblemTerms(consts[:m], consts[m:m + m * K].reshape((m, K) + consts.shape[1:]),
                          terms.user_x, terms.user_y, consts[-1], terms.height, terms.beta0,
                          terms.beta1, terms.tan_th, terms.mult)
    out.__dict__["dy2"] = consts[m + m * K:-1]
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
    m = np.arange(s.size).reshape((-1,) + (1,) * np.ndim(n))  # users m first, rows n last
    ang_s = np.angle(s)[m]
    if np.ndim(W) == 1:
        w, mult = W[None, n], float(s.size)
        amp, phase_off = np.abs(w) / mult, np.angle(w)[:, None] - ang_s
    else:
        w, mult = W[n, m], 1.0  # w_{m,n} over users m
        amp, phase_off = np.abs(w), np.angle(w)[:, None] + ang_s[:, None] - ang_s
    return SubproblemTerms(
        amp=amp, phase_off=phase_off,
        user_x=geom.user_xy[:, 0], user_y=geom.user_xy[:, 1],
        waveguide_y=np.asarray(geom.waveguide_y)[n], height=geom.height,
        beta0=params.beta0, beta1=params.beta1, tan_th=math.tan(theta_th), mult=mult,
    )


def _phase(terms: SubproblemTerms, x):
    """The user distances q, (k, *x.shape), and the phase and amplitude amp/q of
    every (m, k) pair, (m, k, *x.shape): pair axes first, so ufuncs run over x's axes."""
    x = np.asarray(x, dtype=float)
    amp, off, dy2 = terms.amp, terms.phase_off, terms.dy2
    pad = (1,) * (x.ndim - (amp.ndim - 1))  # the candidate axes of x
    K = terms.num_users
    q = offset_distances(terms.user_x.reshape((K,) + (1,) * x.ndim), x,
                         dy2.reshape((K,) + pad + dy2.shape[1:]), terms.height**2)
    ang = (-terms.beta0 * q - terms.beta1 * x) + off.reshape(off.shape[:2] + pad + off.shape[2:])
    return q, ang, amp.reshape(amp.shape[:1] + (1,) + pad + amp.shape[1:]) / q


def _pair_parts(terms: SubproblemTerms, x, out=None):
    """g = (g_im, g_re) of every (m, k) pair, (2, m, k, *x.shape), and q, from _phase;
    out, a (2mk + k, *x.shape) array, receives both, and they come back as its views."""
    q, ang, scale = _phase(terms, x)
    g = np.empty((2,) + ang.shape) if out is None else out[:-len(q)].reshape((2,) + ang.shape)
    if out is not None:
        out[-len(q):], q = q, out[-len(q):]
    np.multiply(scale, np.sin(ang, out=g[0]), out=g[0])
    np.multiply(scale, np.cos(ang, out=g[1]), out=g[1])
    return g, q


def _rank_values(terms: SubproblemTerms, x):
    """The unsmoothed pair sum of |g_im| - t*g_re, without mult, in float32 of the
    phase from _phase reduced to [-pi, pi] in float64: the start grid's ranking."""
    _, ang, scale = _phase(terms, x)
    ang = (ang - np.rint(ang * (0.5 / math.pi)) * (2 * math.pi)).astype(np.float32)
    v = np.abs(np.sin(ang))
    v -= np.cos(ang, out=ang) * np.float32(terms.tan_th)
    return _pair_sum(v * scale.astype(np.float32))


def _pair_sum(v):
    """Sum over the two leading pair axes, pair after pair: numpy's reduction
    adds pairwise when the other axes hold one element, so a row alone would
    round otherwise than in a stack."""
    return sum(v.reshape((-1,) + v.shape[2:]))


def _all_branches(terms: SubproblemTerms, x):
    """phi-bar = g_im - t*g_re and phi-hat = -g_im - t*g_re for every (m, k)
    pair, with the g-components and distances they came from, as _pair_parts
    lays them out: (m, k, *x.shape) and q (k, *x.shape)."""
    (g_im, g_re), q = _pair_parts(terms, x)
    base = g_re * -terms.tan_th
    return g_im + base, base - g_im, g_im, g_re, q


def subproblem_objective(terms: SubproblemTerms, x, eps, branches=None):
    """Smoothed subproblem objective, summed over all (m, k) pairs, times
    mult. Vectorized over x: a scalar input yields a float, an array input an
    array of the same shape. branches, when given, are _pair_parts(terms, x).

    Each pair's eps * logaddexp(bar/eps, hat/eps) is evaluated in its
    soft-abs form -t*g_re + |g_im| + eps*log1p(exp(-2|g_im|/eps)).
    """
    (g_im, g_re), _ = _pair_parts(terms, x) if branches is None else branches
    e = np.asarray(eps, dtype=float)
    a = np.abs(g_im)
    # divide first (-2 / eps overflows at a subnormal eps); past 20 the log1p term is
    # under half an ulp of |g_im|: the clamp keeps every bit, and exp off its slow underflow
    soft = np.log1p(np.exp(np.minimum(a / e, 20.0) * -2.0))
    soft = soft * e + a - terms.tan_th * g_re
    out = _pair_sum(soft) * terms.mult
    return float(out) if out.ndim == 0 else out


def subproblem_gradient(terms: SubproblemTerms, x, eps, branches=None):
    """Analytic derivative of the smoothed objective at x (one per row).

    Each pair contributes -t*g_re' + tanh(g_im/eps)*g_im'. Through the amplitude
    1/q and the phase -beta0*q - beta1*x, g_im' = r*g_im + p*g_re and
    g_re' = r*g_re - p*g_im, with r = -q'/q and p = -beta0*q' - beta1 per user.
    """
    (g_im, g_re), q = _pair_parts(terms, x) if branches is None else branches
    x = np.asarray(x, dtype=float)
    t = terms.tan_th
    dq = (x - terms.user_x.reshape((-1,) + (1,) * x.ndim)) / q  # q' per user
    r, p = dq / -q, -terms.beta0 * dq - terms.beta1
    w = np.tanh(g_im / np.asarray(eps, dtype=float))
    slope = g_re * (w * p - t * r) + g_im * (w * r + t * p)
    out = _pair_sum(slope) * terms.mult
    return float(out) if out.ndim == 0 else out


def pick_eps(terms: SubproblemTerms, x0, smoothing: SmoothingParams, branches=None):
    """Subproblem temperature per row: kappa times the largest branch magnitude
    max(|bar|, |hat|) = |g_im| + t*|g_re| over the pairs at x0, or _EPS_FLOOR.
    branches, when given, are _pair_parts(terms, x0)."""
    (g_im, g_re), _ = _pair_parts(terms, x0) if branches is None else branches
    scale = (np.abs(g_im) + terms.tan_th * np.abs(g_re)).max(axis=(0, 1), initial=0.0)
    eps = np.maximum(smoothing.kappa * scale, _EPS_FLOOR)
    return float(eps) if eps.ndim == 0 else eps


def _split(batch, K):
    """The _pair_parts (g, q) of a packed batch over K users, as views. A batch,
    (2mk + k + 2, ..., rows), holds the g and q, point and objective of each
    candidate, so choosing one per row, or dropping rows, is one take."""
    return batch[:-K - 2].reshape((2, -1, K) + batch.shape[1:]), batch[-K - 2:-2]


def _batch(terms, lower, upper, eps, x, g, steps):
    """The packed batch of the projected candidates min(max(x - step*g, lower),
    upper), one per step: (2mk + k + 2, steps, rows)."""
    K = terms.num_users
    batch = np.empty((2 * terms.amp.shape[0] * K + K + 2, steps.size, x.size))
    cands = np.minimum(np.maximum(x - steps[:, None] * g, lower), upper, out=batch[-2])
    batch[-1] = subproblem_objective(terms, cands, eps, _pair_parts(terms, cands, out=batch[:-2]))
    return batch


def _best_pass(ok, batch):
    """Per row (last axis of ok): whether a candidate passed, and the batch's column
    at the passing candidate of lowest objective (the first of equal ones), else
    at the first; a take on the merged axes costs far less than two index arrays."""
    best = np.where(ok, batch[-1], np.inf).argmin(axis=0)
    flat = best * ok.shape[1] + np.arange(ok.shape[1])
    return ok.reshape(-1).take(flat), batch.reshape(batch.shape[0], -1).take(flat, axis=1)


def _armijo_rows(terms, lower, upper, eps, f0, g, x, steps, c1):
    """Batched Armijo search on the projected candidate, per row: the lowest
    passing step of the first half, else of the second, i.e. of the steps whose
    clamped point passes the Armijo test the one of least objective (the larger
    of equal ones). The first half, steps [0, h) with h = ceil(len/2), is tried
    for every row, the second only for rows without a hit there.
    Returns per row the packed column of the chosen candidate (2mk + k + 2, rows:
    its _pair_parts, see _split, then its point and objective); a row without
    a hit keeps (x, f0) with the parts of a rejected candidate."""
    g2 = np.float_power(g, 2)  # libm pow, the bits of Python's float ** 2
    c1_steps = (c1 * steps)[:, None]
    half = -(-steps.size // 2)
    batch = _batch(terms, lower, upper, eps, x, g, steps[:half])
    hit, out = _best_pass(batch[-1] <= f0 - c1_steps[:half] * g2, batch)
    if np.count_nonzero(hit) < x.size:
        miss = np.flatnonzero(~hit)
        more = _batch(terms.rows(miss), lower[miss], upper[miss], eps[miss], x[miss], g[miss],
                      steps[half:])
        hit, found = _best_pass(more[-1] <= f0[miss] - c1_steps[half:] * g2[miss], more)
        found[-2:] = np.where(hit, found[-2:], (x[miss], f0[miss]))
        out[:, miss] = found
    return out


def pgd_solve(terms: SubproblemTerms, region: MovableRegion, eps, cfg: PGDConfig, x_init, *,
              branches=None):
    """Projected gradient descent over one movable region per row.

    Iterates x <- Proj(x - mu * grad), with mu the lowest passing step of the
    first half of _STEPS, else of the second (the passing step of least
    objective under the Armijo-Goldstein decrease test, see _armijo_rows),
    until the position change drops below _STEP_TOL or _MAX_ITERS steps are
    taken. The objective sequence is non-increasing and the returned point is
    feasible. Stacked rows step together (region bounds, eps and x_init
    broadcast over them), and a row stops once its own change drops below
    _STEP_TOL, so it follows the path it would follow alone. Besides the warm
    start x_init, each row gets cfg.restarts evenly spaced starts as further
    rows with its bounds and eps, and returns its first best end. branches,
    when given, are the stacked _pair_parts(terms, x_init) of an x_init inside
    the region, without restarts. The stepping rows are the columns of three
    arrays, so a row retires by a take of each: their state (lower, upper, eps,
    x, f), constants (_pack) and batch column at x, whose parts the next
    gradient reads.
    """
    single = np.ndim(terms.waveguide_y) == 0
    if single:  # one row
        terms = terms.rows(np.newaxis)
    n, starts = terms.amp.shape[-1], 1 + cfg.restarts
    state = np.empty((5, starts, n))
    for row, v in zip(state, (*region, eps, x_init)):
        row[:] = np.asarray(v, dtype=float)
    consts = _pack(terms)
    if cfg.restarts:
        spread = [np.linspace(a, b, cfg.restarts) for a, b in zip(state[0, 0], state[1, 0])]
        state[3, 1:] = np.transpose(spread)
        consts = consts.take(np.tile(np.arange(n), starts), -1)
        terms = _unpack(terms, consts)
    state = state.reshape(5, -1)
    lower, upper, eps, x, f = state
    np.minimum(np.maximum(x, lower), upper, out=x)
    parts = _pair_parts(terms, x) if branches is None else branches
    f[:] = subproblem_objective(terms, x, eps, parts)
    out, active = np.empty((2, x.size)), np.arange(x.size)  # x and f as rows retire
    for _ in range(_MAX_ITERS):
        lower, upper, eps, x, f = state
        g = subproblem_gradient(terms, x, eps, parts)
        batch = _armijo_rows(terms, lower, upper, eps, f, g, x, _STEPS, _ARMIJO_C1)
        stay = np.abs(batch[-2] - x) <= _STEP_TOL
        state[3:] = batch[-2:]
        stopped = np.count_nonzero(stay)
        if stopped == stay.size:
            break
        if stopped:
            out[:, active] = state[3:]
            go = np.flatnonzero(~stay)
            active, state, batch, consts = (a.take(go, -1) for a in (active, state, batch, consts))
            terms = _unpack(terms, consts)
        parts = _split(batch, terms.num_users)
    out[:, active] = state[3:]
    x, f = out
    if cfg.restarts:  # the first best end of each row's starts
        x = x.reshape(starts, n)[np.argmin(f.reshape(starts, n), axis=0), np.arange(n)]
    return float(x[0]) if single else x


_solve_region = pgd_solve  # the name tests/test_acceptance.py imports


_GRID_CHUNK = 2048  # (point, row) entries per _rank_values call of the start grid


def _grid_start(terms, lower, upper, spacing, x_warm):
    """Per row, the first minimum of the unsmoothed objective (_rank_values, in
    float32) in the sequence x_warm, lower, lower + spacing, ... (clamped to
    upper, up to upper itself), evaluated in chunks of about _GRID_CHUNK
    (point, row) entries with a running best per row."""
    x, best, cols = x_warm.copy(), _rank_values(terms, x_warm), np.arange(x_warm.size)
    points, per = math.ceil(np.max(upper - lower) / spacing) + 1, max(1, _GRID_CHUNK // cols.size)
    for j in range(0, points, per):
        grid = np.minimum(lower + np.arange(j, min(j + per, points))[:, None] * spacing, upper)
        vals = _rank_values(terms, grid)
        i = vals.argmin(axis=0)
        win = vals[i, cols] < best
        x[win], best[win] = grid[i, cols][win], vals[i, cols][win]
    return x


def optimize_all_positions(geom: SystemGeometry, x_current: np.ndarray, W: np.ndarray,
                           s: np.ndarray, params: WaveformParams, theta_th: float,
                           smoothing: SmoothingParams, cfg: PGDConfig, *,
                           grid_start: bool = False) -> np.ndarray:
    """Sweep every antenna once, each within its cell of x_current (see
    geometry.placement_cells), warm-started at its current position or, with
    grid_start, at the better of that and its best point on a guide-wavelength
    grid over the cell, both by the unsmoothed objective (the first AO sweep,
    see _grid_start). W is the beam matrix or, for rank-one beams, the
    precoded vector x (see build_subproblem_terms).

    The cells keep neighbours min_spacing apart, so the N x L subproblems are
    independent: one stacked solve with a row per antenna, row-major in
    (waveguide, antenna). x_current must satisfy the range and spacing
    constraints, else ValueError names the violations; the output then does
    too, since each cell holds its input entry and PGD keeps to the cells.
    """
    report = validate_placement(geom, x_current)
    if not report.ok:
        raise ValueError(f"x_current violates the placement constraints: {report.violations}")
    N, L = geom.num_waveguides, geom.num_pas_per_waveguide
    terms = build_subproblem_terms(geom, np.repeat(np.arange(N), L), W, s, params, theta_th)
    cells = placement_cells(geom, x_current)
    x_warm = np.asarray(x_current, dtype=float).ravel()
    parts = _pair_parts(terms, x_warm)  # the cells hold x_warm, so PGD starts there
    eps = pick_eps(terms, x_warm, smoothing, parts)
    region = MovableRegion(cells.lower.ravel(), cells.upper.ravel())
    if grid_start:
        x_warm, parts = _grid_start(terms, *region, params.guide_wavelength, x_warm), None
    x_new = pgd_solve(terms, region, eps, cfg, x_warm, branches=None if cfg.restarts else parts)
    return x_new.reshape(N, L)


def placement_objective_exact(snapshot: ChannelSnapshot, W: np.ndarray, s: np.ndarray,
                              gamma: np.ndarray, noise_power: float, theta_th: float) -> float:
    """Exact (unsmoothed, un-decomposed) placement objective: the negated sum
    of the CI margins of the received points lam = h_eff @ (W s) / s, with
    h_eff the effective rows of the snapshot taken at the placement."""
    lam = snapshot.effective @ (W @ s) / s
    return float(-np.sum(ci_margin(lam, gamma, noise_power, theta_th)))
