"""Independent brute-force checks: scalar channel and subproblem terms,
finite differences, grid search, and exhaustive active-set enumeration for the
CI quadratic program.

These deliberately share no solver code with the main paths they validate,
and the library never calls them: they are references for the tests. The
scalar helpers recompute every distance and phase term by term with `math`;
only the data types and, for the grid search, subproblem_objective come from
the library.
"""

from __future__ import annotations

import cmath
import math
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .channel import WaveformParams
from .geometry import MovableRegion, Vec3
from .placement import SubproblemTerms, subproblem_objective
from .precoder import QPInstance, QPSolution


def user_distance(user: Vec3, point: Vec3) -> float:
    """Euclidean distance between two points."""
    dx, dy, dz = user.x - point.x, user.y - point.y, user.z - point.z
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def freespace_channel(user: Vec3, pa_positions: Sequence[Vec3],
                      params: WaveformParams) -> np.ndarray:
    """LoS channel row from antenna points to one user: entry l has modulus
    eta/q_l and phase -beta0*q_l."""
    qs = [user_distance(user, p) for p in pa_positions]
    return np.array([cmath.rect(params.eta / q, -params.beta0 * q) for q in qs])


def waveguide_phase_vector(x_n: Sequence[float], params: WaveformParams) -> np.ndarray:
    """In-guide response of the antennas on one waveguide: entry l is
    e^{-j*beta1*x_l}/sqrt(L), a unit-norm vector."""
    scale = 1.0 / math.sqrt(len(x_n))
    return np.array([cmath.rect(scale, -params.beta1 * float(x)) for x in x_n])


def g_terms(terms: SubproblemTerms, x: float, m: int, k: int) -> tuple[float, float]:
    """Imaginary and real g-components of the (m, k) pair of an unstacked
    subproblem at antenna position x."""
    pa = Vec3(float(x), float(terms.waveguide_y), float(terms.height))
    q = user_distance(Vec3(float(terms.user_x[k]), float(terms.user_y[k]), 0.0), pa)
    ang = -terms.beta0 * q - terms.beta1 * float(x) + float(terms.phase_off[m, k])
    scale = float(terms.amp[m]) / q
    return scale * math.sin(ang), scale * math.cos(ang)


def phi_branches(terms: SubproblemTerms, x: float, m: int, k: int) -> tuple[float, float]:
    """The two branches of |g_im| - g_re*tan(th): (g_im - g_re*t, -g_im - g_re*t)."""
    g_im, g_re = g_terms(terms, x, m, k)
    base = -g_re * terms.tan_th
    return g_im + base, -g_im + base


def smooth_term(terms: SubproblemTerms, x: float, m: int, k: int, eps: float) -> float:
    """Log-sum-exp of the two branches at temperature eps, in the overflow-free
    form max + eps*log(1 + e^{-|bar - hat|/eps})."""
    bar, hat = phi_branches(terms, x, m, k)
    hi, lo = max(bar, hat), min(bar, hat)
    return hi + eps * math.log1p(math.exp((lo - hi) / eps))


def fd_gradient(objective: Callable[[float], float], x: float, h: float = 1e-6) -> float:
    """Central finite difference (f(x+h) - f(x-h)) / (2h)."""
    if h <= 0:
        raise ValueError("step must be positive")
    return (objective(x + h) - objective(x - h)) / (2.0 * h)


def grid_search_position(
    terms: SubproblemTerms,
    region: MovableRegion,
    eps: float,
    step: float = 1e-4,
) -> tuple[float, float]:
    """Exhaustive evaluation of the subproblem objective on a uniform grid
    over the region; returns (minimizer, minimum)."""
    if step <= 0:
        raise ValueError("step must be positive")
    n = max(int(np.floor((region.upper - region.lower) / step)), 0)
    grid = region.lower + step * np.arange(n + 1)
    if grid[-1] < region.upper:
        grid = np.append(grid, region.upper)
    vals = subproblem_objective(terms, grid, eps)
    vals = np.atleast_1d(vals)
    i = int(np.argmin(vals))
    return float(grid[i]), float(vals[i])


def active_set_qp_oracle(qp: QPInstance) -> QPSolution:
    """Exhaustive minimum-norm solve of min ||z||^2 s.t. A z >= b.

    Enumerates every subset of the constraint rows as a candidate active set,
    solves the equality-constrained minimum-norm system, and keeps the best
    candidate that is primal feasible with nonnegative multipliers. Exact up
    to linear-algebra rounding; requires at most 12 rows.
    """
    A, b = qp.A, qp.b
    m, n2 = A.shape
    if m > 12:
        raise ValueError(f"{m} constraints exceed the enumeration bound of 12")
    feas_tol = 1e-10 * max(1.0, float(np.abs(b).max(initial=0.0)))
    best_z = None
    best_sq = np.inf
    best_mu = np.zeros(m)

    # the empty set's candidate z = 0 is feasible only when b <= 0
    if np.all(b <= feas_tol):
        best_z, best_sq = np.zeros(n2), 0.0

    for size in range(1, min(m, n2) + 1):
        for subset in combinations(range(m), size):
            idx = list(subset)
            As = A[idx]
            Gs = As @ As.T
            try:
                mu_s = np.linalg.solve(Gs, b[idx])
            except np.linalg.LinAlgError:
                continue
            if not np.all(np.isfinite(mu_s)) or np.any(mu_s < -feas_tol):
                continue
            z = As.T @ mu_s
            # reject inconsistent (singular-but-solved) systems
            if not np.allclose(As @ z, b[idx], rtol=1e-8, atol=feas_tol):
                continue
            if np.all(A @ z >= b - feas_tol):
                sq = float(z @ z)
                if sq < best_sq:
                    best_z, best_sq = z, sq
                    best_mu = np.zeros(m)
                    best_mu[idx] = np.maximum(mu_s, 0.0)

    if best_z is None:
        return QPSolution(
            x_opt=np.zeros(n2 // 2, dtype=complex),
            power=np.inf,
            duals=np.zeros(m),
            kkt_residual=np.inf,
            feasible=False,
        )
    n = qp.num_streams
    x_opt = best_z[:n] + 1j * best_z[n:]
    margins = A @ best_z - b
    scale = np.linalg.norm(A, axis=1)
    scale = np.where(scale > 0, scale, 1.0)
    resid = max(
        float(np.max(np.maximum(-margins / scale, 0.0), initial=0.0)),
        float(np.max(np.abs(best_mu * margins), initial=0.0)),
    )
    return QPSolution(
        x_opt=x_opt,
        power=best_sq / qp.num_users,
        duals=best_mu,
        kkt_residual=resid,
        feasible=True,
    )
