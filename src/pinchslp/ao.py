"""Alternating optimization of beams and antenna positions, plus baseline schemes.

Each round solves the minimum-power precoder at the current placement, sweeps
the antenna positions against the resulting beams, re-solves the precoder at
the candidate placement, and (with the guard on) keeps the candidate only if
it does not increase power. The guarded power sequence is non-increasing, so
the relative-change stopping rule always terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .channel import ChannelSnapshot, WaveformParams, effective_channels
from .geometry import SystemGeometry, initial_regions
from .placement import (
    PGDConfig,
    SmoothingParams,
    optimize_all_positions,
    placement_objective_exact,
)
from .precoder import (
    QPSolution,
    SymbolVector,
    build_ci_qp,
    recover_beam_matrix,
    solve_min_power,
)


@dataclass(frozen=True)
class AOConfig:
    max_iters: int = 30
    rel_tol: float = 1e-3
    guard_enabled: bool = True

    def __post_init__(self):
        if not (isinstance(self.max_iters, Integral) and not isinstance(self.max_iters, bool)
                and self.max_iters >= 0):
            raise ValueError("max_iters must be a non-negative integer")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if not isinstance(self.guard_enabled, bool):
            raise ValueError("guard_enabled must be true or false")


@dataclass
class AOTrace:
    """Per-round history: power after the round, exact placement objective,
    and whether that round's placement candidate was kept."""

    powers: list[float] = field(default_factory=list)
    placement_objectives: list[float] = field(default_factory=list)
    accepted: list[bool] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.powers) - 1


def ao_solve(
    geom: SystemGeometry,
    params: WaveformParams,
    symbols: SymbolVector,
    gamma: np.ndarray,
    noise_power: float,
    theta_th: float,
    x_init: np.ndarray,
    ao_cfg: AOConfig = AOConfig(),
    pgd_cfg: PGDConfig = PGDConfig(),
    smoothing: SmoothingParams = SmoothingParams(),
) -> tuple[np.ndarray, np.ndarray, AOTrace]:
    """Alternate precoder solves and placement sweeps from x_init.

    Returns the final beam matrix, placement, and trace. Precoder
    infeasibility at x_init propagates to the caller.
    """
    gamma = np.asarray(gamma, dtype=float)
    x = np.array(x_init, dtype=float, copy=True)
    sol = _solve_at(geom, x, params, symbols, gamma, noise_power, theta_th)
    power = sol.power
    W = recover_beam_matrix(sol.x_opt, symbols)

    trace = AOTrace()
    trace.powers.append(power)
    trace.placement_objectives.append(
        placement_objective_exact(geom, x, params, W, symbols.s, gamma, noise_power, theta_th)
    )
    trace.accepted.append(True)

    for _ in range(ao_cfg.max_iters):
        x_cand = optimize_all_positions(
            geom, x, W, symbols.s, params, theta_th, smoothing, pgd_cfg
        )
        sol_cand = _solve_at(geom, x_cand, params, symbols, gamma, noise_power, theta_th)
        if ao_cfg.guard_enabled and sol_cand.power > power:
            accepted = False
            new_power = power
        else:
            accepted = True
            x, sol = x_cand, sol_cand
            W = recover_beam_matrix(sol.x_opt, symbols)
            new_power = sol.power
        trace.powers.append(new_power)
        trace.placement_objectives.append(
            placement_objective_exact(
                geom, x, params, W, symbols.s, gamma, noise_power, theta_th
            )
        )
        trace.accepted.append(accepted)
        rel_change = abs(new_power - power) / max(power, 1e-300)
        power = new_power
        if rel_change <= ao_cfg.rel_tol:
            trace.converged = True
            break
    return W, x, trace


def _solve_at(geom, x, params, symbols, gamma, noise_power, theta_th) -> QPSolution:
    snapshot = effective_channels(geom, x, params)
    qp = build_ci_qp(snapshot, symbols, gamma, noise_power, theta_th)
    return solve_min_power(qp)


def fixed_uniform_placement(geom: SystemGeometry) -> np.ndarray:
    """Centered uniform grid on every waveguide: x_l = (l + 1/2) * span / L."""
    L = geom.num_pas_per_waveguide
    xs = (np.arange(L) + 0.5) * geom.waveguide_length / L
    return np.tile(xs, (geom.num_waveguides, 1))


def random_placement(geom: SystemGeometry, seed) -> np.ndarray:
    """One uniform draw per initial movable region on each waveguide, so the
    spacing constraint holds by construction; deterministic per seed."""
    rng = np.random.default_rng(seed)
    regions = initial_regions(geom)
    N, L = geom.num_waveguides, geom.num_pas_per_waveguide
    x = np.empty((N, L))
    for n in range(N):
        for l, r in enumerate(regions):
            x[n, l] = rng.uniform(r.lower, r.upper)
    return x


def conventional_array_snapshot(
    geom: SystemGeometry, params: WaveformParams
) -> ChannelSnapshot:
    """Channels of a conventional half-wavelength array baseline.

    N fixed radiators at (i*lambda/2, region_side/2, height), one per RF
    chain, with no in-guide phase response: each effective entry is the raw
    free-space channel eta * e^{-j*beta0*q} / q.
    """
    spacing = params.wavelength / 2.0
    ax = np.arange(geom.num_waveguides) * spacing
    ay = geom.region_side / 2.0
    ux = np.array([u.x for u in geom.users])
    uy = np.array([u.y for u in geom.users])
    dist = np.sqrt(
        (ux[:, None] - ax[None, :]) ** 2 + (uy[:, None] - ay) ** 2 + geom.height**2
    )
    raw = params.eta * np.exp(-1j * params.beta0 * dist) / dist
    return ChannelSnapshot(
        effective=raw, raw=raw[:, :, None], distances=dist[:, :, None]
    )
