"""Seeded Monte Carlo benchmark: scenario generation, scheme pipelines, and
CSV emission for the three experiment families (power vs. SINR target, power
vs. antennas per waveguide, AO convergence traces).

The three families are one sweep driver, `_sweep`, over different axes: the
SINR targets at the first antenna count, or the antenna counts at the first
target; convergence keeps every AO round of the proposed scheme. It is the
only loop over trials and the only place records are built.

Every trial derives its RNG from (master_seed, trial), so results are
bit-identical across runs and independent of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .ao import ao_solve, fixed_uniform_placement, random_placement
from .channel import conventional_array_snapshot, effective_channels
from .config import ExperimentConfig
from .geometry import SystemGeometry, Vec3, make_geometry
from .precoder import (InfeasibleProblemError, SymbolVector, build_ci_qp, db_to_linear,
                       psk_symbols, solve_min_power, watts_to_dbm)

_RANDOM_PLACEMENT_TAG = 101  # rng stream tag for the random-position scheme


@dataclass(frozen=True)
class ExperimentRecord:
    experiment: str
    trial: int
    seed: int
    scheme: str
    gamma_db: float
    num_pas: int
    power_w: float
    power_dbm: float
    ao_iters: int
    converged: bool


def generate_scenario(
    cfg: ExperimentConfig, trial: int, num_pas: int | None = None
) -> tuple[SystemGeometry, SymbolVector]:
    """Users uniform over the square region and symbols uniform over the PSK
    constellation, both drawn from the (master_seed, trial) stream; the same
    trial yields the same scenario for every sweep value."""
    rng = np.random.default_rng([cfg.master_seed, trial])
    xy = rng.uniform(0.0, cfg.region_side_m, size=(cfg.num_users, 2))
    users = [Vec3(float(x), float(y), 0.0) for x, y in xy]
    symbols = psk_symbols(rng.integers(0, cfg.psk_order, size=cfg.num_users), cfg.psk_order)
    L = num_pas if num_pas is not None else cfg.num_pas_sweep()[0]
    geom = make_geometry(
        region_side=cfg.region_side_m,
        height=cfg.height_m,
        num_waveguides=cfg.num_waveguides,
        waveguide_length=cfg.waveguide_length_m,
        min_spacing=cfg.spacing,
        num_pas_per_waveguide=L,
        users=users,
    )
    return geom, symbols


def _run_scheme(
    cfg: ExperimentConfig,
    scheme: str,
    geom: SystemGeometry,
    symbols: SymbolVector,
    gamma_lin: np.ndarray,
    trial: int,
    ao_round0: float | None = None,
) -> tuple[list[float], bool]:
    """Power after every AO round (one entry for a baseline) and the
    convergence flag of one scheme; a returned baseline solve is certified
    feasible (True), an infeasible point is ([nan], False). ao_round0, the
    proposed scheme's round-0 power on the same point, is the fixed scheme's
    power: the same solve of the same QP."""
    if scheme == "fixed" and ao_round0 is not None:
        return [ao_round0], True
    params = cfg.params
    try:
        if scheme == "proposed":
            _, _, trace = ao_solve(
                geom, params, symbols, gamma_lin, cfg.noise_w, cfg.theta_th,
                fixed_uniform_placement(geom),
                ao_cfg=cfg.ao, pgd_cfg=cfg.pgd, smoothing=cfg.smoothing,
            )
            return trace.powers, trace.converged
        if scheme == "fixed":
            snapshot = effective_channels(geom, fixed_uniform_placement(geom), params)
        elif scheme == "random":
            x = random_placement(geom, [cfg.master_seed, trial, _RANDOM_PLACEMENT_TAG])
            snapshot = effective_channels(geom, x, params)
        else:  # "conventional"; ExperimentConfig admits no other scheme
            snapshot = conventional_array_snapshot(geom, params)
        qp = build_ci_qp(snapshot, symbols, gamma_lin, cfg.noise_w, cfg.theta_th)
        return [solve_min_power(qp).power], True
    except InfeasibleProblemError:
        return [math.nan], False


def _sweep(cfg: ExperimentConfig, experiment: str, gammas: Sequence[float],
           pas: Sequence[int], schemes: Sequence[str],
           every_round: bool = False) -> list[ExperimentRecord]:
    """The scenario loop of every experiment: each trial's scenario at each
    antenna count L, solved by each scheme at each SINR target. A record
    carries the power of the last AO round, with ao_iters its index, or with
    every_round one record per round; infeasible points are recorded, not
    fatal. The proposed scheme runs first, so the fixed scheme reads its
    round 0 instead of solving the same QP again."""
    records = []
    for trial in range(cfg.trials):
        for L in pas:
            geom, symbols = generate_scenario(cfg, trial, num_pas=L)
            for gamma_db in gammas:
                gamma_lin = np.full(cfg.num_users, db_to_linear(gamma_db))
                ao_round0 = None
                for scheme in sorted(schemes, key="proposed".__ne__):  # proposed first
                    powers, converged = _run_scheme(cfg, scheme, geom, symbols, gamma_lin,
                                                    trial, ao_round0)
                    if scheme == "proposed" and not math.isnan(powers[0]):
                        ao_round0 = powers[0]
                    first = 0 if every_round else len(powers) - 1
                    for it, p in enumerate(powers[first:], first):
                        dbm = watts_to_dbm(p) if p > 0 and math.isfinite(p) else math.nan
                        records.append(ExperimentRecord(experiment, trial, cfg.master_seed,
                                                        scheme, gamma_db, L, p, dbm, it,
                                                        converged))
    return sort_records(records)


def run_power_vs_sinr(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """Sweep the SINR target at the first antenna count."""
    return _sweep(cfg, "power-vs-sinr", cfg.gamma_sweep(), cfg.num_pas_sweep()[:1], cfg.schemes)


def run_power_vs_numpas(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """Sweep antennas per waveguide at the first SINR target."""
    return _sweep(cfg, "power-vs-numpas", cfg.gamma_sweep()[:1], cfg.num_pas_sweep(),
                  cfg.schemes)


def run_convergence(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """Per-round AO power trace of the proposed scheme over antennas per
    waveguide at the first SINR target, ao_iters holding the round index."""
    return _sweep(cfg, "convergence", cfg.gamma_sweep()[:1], cfg.num_pas_sweep(),
                  ("proposed",), every_round=True)


EXPERIMENTS = {
    "power-vs-sinr": run_power_vs_sinr,
    "power-vs-numpas": run_power_vs_numpas,
    "convergence": run_convergence,
}


def sort_records(records: Iterable[ExperimentRecord]) -> list[ExperimentRecord]:
    """Normalize to the emission order: sweep point, then trial, then scheme."""
    return sorted(
        records,
        key=lambda r: (r.experiment, r.gamma_db, r.num_pas, r.trial, r.scheme, r.ao_iters),
    )


# Cell format by a field's declared type (a string: annotations are postponed),
# not by its value's: a config may give gamma_db as an int.
_CELL = {"float": "{:.9g}".format, "bool": lambda v: "true" if v else "false"}


def emit_csv(records: Sequence[ExperimentRecord], path: str) -> None:
    """Write one column per ExperimentRecord field, floats with 9 significant
    digits, in normalized order."""
    cols = [(f.name, _CELL.get(f.type, str)) for f in fields(ExperimentRecord)]
    try:
        with open(path, "w") as fh:
            fh.write(",".join(name for name, _ in cols) + "\n")
            for r in sort_records(records):
                fh.write(",".join(cell(getattr(r, name)) for name, cell in cols) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
