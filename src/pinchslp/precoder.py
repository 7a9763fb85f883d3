"""Minimum-power symbol-level precoder under constructive-interference constraints.

For a fixed placement the problem is a strictly convex QP: minimize the norm of
the precoded vector x = W s subject to, per user, the two linear inequalities
that keep the received point inside its PSK decision sector. The solver is
the Goldfarb-Idnani dual active-set method, which ends in a finite number of
least-squares steps with either a KKT point or a Farkas certificate of
infeasibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np

from .channel import ChannelSnapshot


class InfeasibleProblemError(RuntimeError):
    """Raised when no precoded vector can satisfy the CI constraints; farkas
    holds mu >= 0 with A^T mu = 0 and b^T mu > 0 in the original row scaling."""

    def __init__(self, message: str, farkas: np.ndarray):
        super().__init__(message)
        self.farkas = farkas


def psk_constellation(order: int) -> np.ndarray:
    """Unit-modulus M-PSK points e^{j(2m+1)pi/M}; QPSK is (+-1 +-j)/sqrt(2)."""
    m = np.arange(order)
    return np.exp(1j * (2 * m + 1) * np.pi / order)


def psk_symbols(indices: np.ndarray, order: int) -> "SymbolVector":
    """The psk_constellation(order) points at the given indices, evaluated
    for those indices only: memory does not grow with the order."""
    m = np.asarray(indices) % order
    return SymbolVector(s=np.exp(1j * (2 * m + 1) * np.pi / order))


@dataclass(frozen=True)
class SymbolVector:
    """Per-user transmit symbols drawn from a normalized M-PSK constellation."""

    s: np.ndarray

    def __post_init__(self):
        if not np.allclose(np.abs(self.s), 1.0, atol=1e-12):
            raise ValueError("symbols must have unit modulus")

    @property
    def num_users(self) -> int:
        return self.s.size


@dataclass
class QPInstance:
    """Real-valued minimum-norm problem: min ||z||^2 s.t. A z >= b.

    z stacks Re/Im of the precoded vector (length 2N); A has two rows per user
    (the +Im and -Im halves of the |Im| split).
    """

    A: np.ndarray
    b: np.ndarray

    @property
    def num_users(self) -> int:
        return self.A.shape[0] // 2

    @property
    def num_streams(self) -> int:
        return self.A.shape[1] // 2


@dataclass
class QPSolution:
    """Solver output with a KKT certificate.

    power is the recovered beamforming power ||x_opt||^2 / K; duals are the
    nonnegative multipliers of the 2K inequality rows in the original row
    scaling; kkt_residual is the max of primal violation and complementary
    slackness on the row-normalized system (stationarity holds by
    construction). active lists the rows of the final equality system in
    increasing order, the order the certificate factors them in, so the bits
    depend only on that set; solve_min_power takes it back to seed its loop.
    """

    x_opt: np.ndarray
    power: float
    duals: np.ndarray
    kkt_residual: float
    feasible: bool
    active: tuple[int, ...] = ()


def build_ci_qp(
    snapshot: ChannelSnapshot,
    symbols: SymbolVector,
    gamma: np.ndarray,
    noise_power: float,
    theta_th: float,
) -> QPInstance:
    """Encode the per-user CI sector constraints as 2K linear rows in the
    2N real unknowns.

    With a_k = h_k_eff / s_k and z = [Re x; Im x], the received point is
    lam_k = (re_k . z) + j (im_k . z) and each user contributes
    tan(theta_th) * re_k . z +/- im_k . z >= tan(theta_th) * sqrt(gamma_k s2).
    """
    gamma = np.asarray(gamma, dtype=float)
    K, N = snapshot.effective.shape
    if gamma.shape != (K,):
        raise ValueError(f"gamma must have one entry per user, got {gamma.shape}")
    if np.any(gamma <= 0):
        raise ValueError("SINR targets must be positive")
    t = math.tan(theta_th)
    a = snapshot.effective / symbols.s[:, None]
    re_rows = np.concatenate([a.real, -a.imag], axis=1)
    im_rows = np.concatenate([a.imag, a.real], axis=1)
    A = np.empty((2 * K, 2 * N))
    A[0::2], A[1::2] = t * re_rows + im_rows, t * re_rows - im_rows
    b = np.repeat(t * np.sqrt(gamma * noise_power), 2)
    return QPInstance(A=A, b=b)


_VIOLATION = 1e-14  # violated below -_VIOLATION * max(|bn|, sum(mu)), the rounding scale of z
_DEPENDENT = 1e-24  # ||d||^2 below this: the entering normal lies in the active span
_UPPER = {}  # k -> the upper-triangle mask of a k x k matrix, made on first use


def solve_min_power(qp: QPInstance, active: Sequence[int] | None = None) -> QPSolution:
    """Minimum-norm feasible point of the CI polyhedron by the Goldfarb-Idnani
    dual active-set method (Math. Prog. 27, 1983), certified by the KKT
    residual.

    Works on the row-normalized system with Hessian I, so z = A_n^T mu at
    every step. From its start it adds the most violated row p: d is the part
    of a_p orthogonal to the active normals and r their least-squares
    coefficients, so a step t moves z by t d and the active multipliers by
    -t r. A full step makes row p tight and activates it; a partial step
    stops where an active multiplier reaches zero and drops that row. When
    d = 0 and no active multiplier can decrease, mu = e_p - r is a Farkas
    vector and InfeasibleProblemError carries it. A final point that
    violates a row by more than the loop's exit threshold raises a plain
    RuntimeError rather than being returned uncertified.

    The start is active (an earlier QPSolution.active of a QP with as many
    rows; an entry that is not an integer in [0, m) raises ValueError), or
    every row when None: rows with a negative or NaN equality
    multiplier are dropped until all are >= 0, a valid dual start returned
    without a step when no row is violated; dependent rows, more rows than
    unknowns or none left start from z = 0. The certificate solves the final
    rows in increasing order, so every start that ends on them gives the same bits.
    """
    A = np.ascontiguousarray(qp.A)  # row-major, so the result does not depend on layout
    m = A.shape[0]
    norms = np.linalg.norm(A, axis=1)
    norms = np.where(norms < 1e-300, 1.0, norms)  # zero rows stay zero
    An = A / norms[:, None]
    bn = qp.b / norms
    scale = float(np.abs(bn).max(initial=0.0))

    for i in () if active is None else active:
        if not (isinstance(i, Integral) and 0 <= i < m):
            raise ValueError(f"active entry {i!r} is not a row of the {m}-row QP")
    active, mu = sorted(set(range(m) if active is None else map(int, active))), np.zeros(m)
    while active:  # prune to a valid dual start: independent rows, every multiplier >= 0
        seed = _equality_multipliers(An, bn, active)  # None: dependent rows, start at z = 0
        keep = [] if seed is None else [i for i, u in zip(active, seed) if u >= 0.0]  # not NaN
        if len(keep) == len(active):
            mu[active] = seed
            break
        active = keep
    p = None  # the row being added, between a partial step and its full step
    max_steps = 100 * (m + 1)
    for step in range(max_steps):
        z = An.T @ mu
        if p is None:
            margins = An @ z - bn
            loose = margins.copy()
            loose[active] = math.inf  # tight by construction, up to rounding
            p = int(np.argmin(loose))
            if loose[p] >= -_VIOLATION * max(scale, float(np.abs(mu).sum())):
                break
        if active:
            Q, R = np.linalg.qr(An[active].T)
            c = Q.T @ An[p]
            d = An[p] - Q @ c
            r = np.linalg.solve(R, c)
        else:  # the first step: nothing to project out
            d, r = An[p], np.empty(0)
        dd = float(d @ d)
        full = (bn[p] - An[p] @ z) / dd if dd > _DEPENDENT else math.inf
        ratios = np.full(len(active) + 1, math.inf)  # last entry: no blocking row
        np.divide(mu[active], r, out=ratios[:-1], where=r > 0)
        j = int(np.argmin(ratios))
        partial = ratios[j]
        if math.isinf(full) and math.isinf(partial):
            farkas = np.zeros(m)
            farkas[p], farkas[active] = 1.0, -r
            raise InfeasibleProblemError("CI constraints admit no solution", farkas / norms)
        t = min(full, partial)
        mu[active] = np.maximum(mu[active] - t * r, 0.0)
        mu[p] += t
        if full <= partial:
            active.append(p)
            p = None
        else:
            mu[active[j]] = 0.0
            del active[j]
    else:
        raise RuntimeError(f"active-set loop exceeded {max_steps} steps")
    return _certify(qp, An, bn, norms, scale, sorted(active), None if step else (mu, z, margins))


def _equality_multipliers(An, bn, active):
    """Multipliers of the equality system on the active rows, in their order
    (R^T R mu = bn from an R-only QR: mode "r" is np.triu of the raw reflectors,
    which the cached mask does faster), or None for dependent rows."""
    k = len(active)
    if k > An.shape[1]:  # more rows than unknowns
        return None
    if k not in _UPPER:
        _UPPER[k] = np.triu(np.ones((k, k), dtype=bool))
    R = np.where(_UPPER[k], np.linalg.qr(An[active].T, mode="raw")[0].T[:k], 0.0)
    if not (R.diagonal() ** 2).min(initial=math.inf) > _DEPENDENT:
        return None
    return np.linalg.solve(R, np.linalg.solve(R.T, bn[active]))


def _certify(qp, An, bn, norms, scale, active, loop):
    """The point of the equality system on the sorted active rows and its KKT
    certificate, from loop's (mu, z, margins) if the loop took no step (steps
    accumulate rounding in mu). Dependent rows or a violated row raise RuntimeError."""
    if loop is None:
        mu_active = _equality_multipliers(An, bn, active)
        if mu_active is None:
            raise RuntimeError("active-set rows are dependent")
        mu = np.zeros(An.shape[0])
        mu[active] = np.maximum(mu_active, 0.0)
        z = An.T @ mu
        loop = mu, z, An @ z - bn
    mu, z, margins = loop
    primal = max(0.0, float(-margins.min(initial=0.0)))
    if primal > _VIOLATION * max(scale, float(mu.sum())):
        raise RuntimeError(f"active-set solution violates a row by {primal:.3g}")
    comp = float(np.max(np.abs(mu * margins), initial=0.0))
    n = qp.num_streams
    return QPSolution(
        x_opt=z[:n] + 1j * z[n:],
        power=float(z @ z) / qp.num_users,
        duals=mu / norms,
        kkt_residual=max(primal, comp),
        feasible=True,
        active=tuple(active),
    )


def recover_beam_matrix(x_opt: np.ndarray, symbols: SymbolVector) -> np.ndarray:
    """Minimum-Frobenius-norm beam matrix with W s = x_opt: the rank-one
    outer product x_opt s^H / K."""
    K = symbols.num_users
    return np.outer(x_opt, symbols.s.conj()) / K


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** (p_dbm / 10.0) * 1e-3


def watts_to_dbm(p_w: float) -> float:
    return 10.0 * math.log10(p_w * 1e3)


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)
