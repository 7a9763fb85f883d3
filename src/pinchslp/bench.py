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

import json
import math
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .ao import (
    AOConfig,
    ao_solve,
    conventional_array_snapshot,
    fixed_uniform_placement,
    random_placement,
)
from .channel import WaveformParams, effective_channels
from .geometry import SystemGeometry, Vec3, make_geometry
from .placement import _MAX, ConfigError, PGDConfig, SmoothingParams, _as_tuple, check_fields
from .precoder import (
    InfeasibleProblemError,
    SymbolVector,
    build_ci_qp,
    db_to_linear,
    dbm_to_watts,
    psk_symbols,
    solve_min_power,
    watts_to_dbm,
)

SCHEMES = ("proposed", "fixed", "random", "conventional")

_RANDOM_PLACEMENT_TAG = 101  # rng stream tag for the random-position scheme
_SUBCONFIG_TYPES = {"smoothing": SmoothingParams, "pgd": PGDConfig, "ao": AOConfig}


@dataclass(frozen=True)
class ExperimentConfig:
    carrier_freq_hz: float = 2.8e10
    refractive_index: float = 1.4
    noise_dbm: float = -80.0
    region_side_m: float = 20.0
    height_m: float = 5.0
    num_waveguides: int = 4
    num_users: int = 4
    psk_order: int = 4
    num_pas: int | tuple[int, ...] = 5
    gamma_db: float | tuple[float, ...] = (10.0, 12.0, 14.0, 16.0, 18.0, 20.0)
    waveguide_length_m: float = 20.0
    min_spacing_m: float | None = None  # None -> half carrier wavelength
    trials: int = 50
    master_seed: int = 1234
    schemes: tuple[str, ...] = SCHEMES
    smoothing: SmoothingParams = SmoothingParams()
    pgd: PGDConfig = PGDConfig()
    ao: AOConfig = AOConfig()

    def __post_init__(self):
        check_fields(self, skip=("min_spacing_m",) if self.min_spacing_m is None else ())
        for s in self.schemes:
            if s not in SCHEMES:
                raise ConfigError(f"unknown scheme {s!r}; pick from {SCHEMES}")
        if not self.schemes or len(set(self.schemes)) < len(self.schemes):
            raise ConfigError(f"schemes must name at least one scheme, each once: {self.schemes}")
        if self.psk_order == 2:
            raise ConfigError("psk_order 2 (BPSK) is not supported: its decision region is the "
                              "half-plane sector theta = pi/2, where tan(theta) is unbounded")
        try:
            self.params
        except ValueError as exc:
            raise ConfigError(f"carrier_freq_hz {self.carrier_freq_hz} with refractive_index "
                              f"{self.refractive_index} gives a wavelength or wavenumber "
                              "outside the float range") from exc
        for name, to_linear, values in (("noise_dbm", dbm_to_watts, (self.noise_dbm,)),
                                        ("gamma_db", db_to_linear, self.gamma_sweep())):
            for v in values:
                try:
                    ok = 0 < to_linear(v) <= _MAX
                except OverflowError:
                    ok = False
                if not ok:
                    raise ConfigError(f"{name} must have a positive finite linear value, got {v}")
        L = max(self.num_pas_sweep())
        if (L - 1) * self.spacing > self.waveguide_length_m:
            raise ConfigError(f"waveguide_length_m cannot fit {L} antennas {self.spacing} m apart")
        for key, cls in _SUBCONFIG_TYPES.items():
            if not isinstance(getattr(self, key), cls):
                raise ConfigError(f"{key} must be a {cls.__name__}")

    @property
    def params(self) -> WaveformParams:
        return WaveformParams.from_carrier(self.carrier_freq_hz, self.refractive_index)

    @property
    def spacing(self) -> float:
        if self.min_spacing_m is not None:
            return self.min_spacing_m
        return self.params.wavelength / 2.0

    @property
    def noise_w(self) -> float:
        return dbm_to_watts(self.noise_dbm)

    @property
    def theta_th(self) -> float:
        return math.pi / self.psk_order

    def gamma_sweep(self) -> tuple[float, ...]:
        return _as_tuple(self.gamma_db)

    def num_pas_sweep(self) -> tuple[int, ...]:
        return _as_tuple(self.num_pas)


def _check_keys(data: dict, cls, what: str) -> None:
    unknown = set(data) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from parsed JSON, rejecting unknown keys fail-fast."""
    _check_keys(data, ExperimentConfig, "config")
    kwargs = dict(data)
    for key, cls in _SUBCONFIG_TYPES.items():
        if key in kwargs:
            sub = kwargs[key]
            if not isinstance(sub, dict):
                raise ConfigError(f"{key} must be an object")
            _check_keys(sub, cls, key)
            try:
                kwargs[key] = cls(**sub)
            except ConfigError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
    for key in ("schemes", "gamma_db", "num_pas"):
        if key in kwargs and isinstance(kwargs[key], list):
            kwargs[key] = tuple(kwargs[key])
    return ExperimentConfig(**kwargs)


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # malformed JSON, or an integer too long to parse
            raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top-level JSON must be an object")
    return config_from_dict(data)


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
) -> tuple[list[float], bool]:
    """Power after every AO round (one entry for a baseline) and the
    convergence flag of one scheme; an infeasible point is ([nan], False)."""
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
        sol = solve_min_power(build_ci_qp(snapshot, symbols, gamma_lin, cfg.noise_w,
                                          cfg.theta_th))
        return [sol.power], sol.feasible
    except InfeasibleProblemError:
        return [math.nan], False


def _sweep(cfg: ExperimentConfig, experiment: str, gammas: Sequence[float],
           pas: Sequence[int], schemes: Sequence[str],
           every_round: bool = False) -> list[ExperimentRecord]:
    """The scenario loop of every experiment: each trial's scenario at each
    antenna count L, solved by each scheme at each SINR target. A record
    carries the power of the last AO round, with ao_iters its index, or with
    every_round one record per round; infeasible points are recorded, not
    fatal."""
    records = []
    for trial in range(cfg.trials):
        for L in pas:
            geom, symbols = generate_scenario(cfg, trial, num_pas=L)
            for gamma_db in gammas:
                gamma_lin = np.full(cfg.num_users, db_to_linear(gamma_db))
                for scheme in schemes:
                    powers, converged = _run_scheme(cfg, scheme, geom, symbols, gamma_lin,
                                                    trial)
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
