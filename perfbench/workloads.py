"""Workload table and point generation.

A point is one call of a public experiment function on a one-trial,
one-sweep-value ExperimentConfig. Its master_seed is derived from the
workload seed and the point index, so the program sees only generated configs
and the same (seed, index) always yields the same scenario.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from pinchslp import bench
from pinchslp.bench import ExperimentConfig


@dataclass(frozen=True)
class Workload:
    name: str
    function: str  # public experiment function in pinchslp.bench
    base: ExperimentConfig
    sweep_field: str  # config field swept across consecutive points
    check_points: int  # points of CHECK_SEED run for the output check
    trace_rate: float  # traced points per second of --seconds
    why: str

    @property
    def sweep(self) -> tuple:
        return tuple(getattr(self.base, self.sweep_field))

    @property
    def run(self):
        """The experiment function, looked up at call time."""
        return getattr(bench, self.function)


# Fixed seed of the output check; its summaries are stored in reference.json.
CHECK_SEED = 20260

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="sinr-sweep",
            function="run_power_vs_sinr",
            base=ExperimentConfig(num_users=4, num_pas=5,
                                  gamma_db=(10.0, 14.0, 18.0, 20.0), trials=1),
            sweep_field="gamma_db",
            check_points=8,
            trace_rate=1.4,
            why="acceptance criterion 5: time splits about evenly between "
                "baseline QPs and placement PGD",
        ),
        Workload(
            name="ao-convergence",
            function="run_convergence",
            base=ExperimentConfig(num_users=4, num_pas=(3, 5, 7), gamma_db=16.0,
                                  trials=1, schemes=("proposed",)),
            sweep_field="num_pas",
            check_points=6,
            trace_rate=3.8,
            why="acceptance criterion 7: placement PGD dominates and no "
                "baseline QP runs, so a precoder-only change shows little",
        ),
        Workload(
            name="overloaded",
            function="run_power_vs_sinr",
            base=ExperimentConfig(num_users=6, num_pas=5, gamma_db=(10.0, 20.0),
                                  trials=1),
            sweep_field="gamma_db",
            check_points=4,
            trace_rate=0.35,
            why="K=6 users on N=4 waveguides: most time goes to QPs Hildreth "
                "cannot certify, and some points end infeasible",
        ),
    )
}


def point_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def point_config(wl: Workload, seed: int, index: int) -> ExperimentConfig:
    """One-trial config of point `index`; sweep values cycle with the index."""
    value = wl.sweep[index % len(wl.sweep)]
    return dataclasses.replace(
        wl.base, trials=1, master_seed=point_seed(seed, index),
        **{wl.sweep_field: (value,)},
    )


def point_configs(wl: Workload, seed: int, count: int) -> list[ExperimentConfig]:
    return [point_config(wl, seed, i) for i in range(count)]


def sweep_value(wl: Workload, cfg: ExperimentConfig):
    return getattr(cfg, wl.sweep_field)[0]
