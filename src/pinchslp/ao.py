"""Alternating optimization of beams and antenna positions, plus baseline schemes.

Each round takes a candidate placement (round 0: the initial one; later: a
sweep of the antenna positions against the kept beams), builds its channel
once, solves the precoder on it, and keeps the candidate only if its power
does not rise; round 0 is always kept. This guard makes the power sequence
non-increasing, so the relative-change stopping rule always terminates. The
beam matrix is recovered once, from the last kept solution. Round 1's sweep
starts each antenna at its best point on a guide-wavelength grid over its cell
where that beats its warm start (see placement.optimize_all_positions); later
sweeps start from the warm start. Round 0's precoder solve starts from every
row and later ones from the kept solution's active set, pruned (see
precoder.solve_min_power).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import WaveformParams, effective_channels
from .config import AOConfig, PGDConfig, SmoothingParams
from .geometry import SystemGeometry, initial_regions, validate_placement
from .placement import optimize_all_positions
from .precoder import SymbolVector, build_ci_qp, recover_beam_matrix, solve_min_power


@dataclass
class AOTrace:
    """Per-round history: power after the round and whether that round's
    placement candidate was kept."""

    powers: list[float] = field(default_factory=list)
    accepted: list[bool] = field(default_factory=list)
    converged: bool = False


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
    infeasibility at x_init or at a candidate propagates to the caller. An
    x_init that breaks the placement constraints raises ValueError before
    round 0.
    """
    report = validate_placement(geom, x_init)
    if not report.ok:  # the sweeps check it too, but max_iters = 0 runs none
        raise ValueError(f"x_init violates the placement constraints: {report.violations}")
    x_cand = np.array(x_init, dtype=float, copy=True)
    trace = AOTrace()
    for it in range(ao_cfg.max_iters + 1):
        if it:
            x_cand = optimize_all_positions(geom, x, sol.x_opt, symbols.s, params, theta_th,
                                            smoothing, pgd_cfg, grid_start=it == 1)
        snap_cand = effective_channels(geom, x_cand, params)
        qp = build_ci_qp(snap_cand, symbols, gamma, noise_power, theta_th)
        sol_cand = solve_min_power(qp, active=sol.active if it else None)
        accepted = not it or sol_cand.power <= sol.power
        if accepted:
            x, sol = x_cand, sol_cand
        trace.powers.append(sol.power)
        trace.accepted.append(accepted)
        if it:
            old = trace.powers[-2]
            if abs(sol.power - old) / max(old, 1e-300) <= ao_cfg.rel_tol:
                trace.converged = True
                break
    return recover_beam_matrix(sol.x_opt, symbols), x, trace


def fixed_uniform_placement(geom: SystemGeometry) -> np.ndarray:
    """Centered uniform grid on every waveguide: x_l = (l + 1/2) * span / L."""
    L = geom.num_pas_per_waveguide
    xs = (np.arange(L) + 0.5) * geom.waveguide_length / L
    return np.tile(xs, (geom.num_waveguides, 1))


def random_placement(geom: SystemGeometry, seed) -> np.ndarray:
    """One uniform draw per initial movable region on each waveguide, so the
    spacing constraint holds by construction; deterministic per seed."""
    lower, upper = np.array(initial_regions(geom)).T
    return np.random.default_rng(seed).uniform(
        lower, upper, (geom.num_waveguides, geom.num_pas_per_waveguide))
