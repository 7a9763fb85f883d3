"""Seeded Monte Carlo benchmark: scenario generation, scheme pipelines, and
CSV emission for the three experiment families (power vs. SINR target, power
vs. antennas per waveguide, AO convergence traces).

Every trial derives its RNG from (master_seed, trial), so results are
bit-identical across runs and independent of execution order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Integral, Real
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
from .placement import PGDConfig, SmoothingParams
from .precoder import (
    InfeasibleProblemError,
    SymbolVector,
    build_ci_qp,
    db_to_linear,
    dbm_to_watts,
    psk_constellation,
    solve_min_power,
    watts_to_dbm,
)

SCHEMES = ("proposed", "fixed", "random", "conventional")

_RANDOM_PLACEMENT_TAG = 101  # rng stream tag for the random-position scheme


class ConfigError(ValueError):
    """Raised for malformed or unknown configuration content."""


_SUBCONFIG_TYPES = {"smoothing": SmoothingParams, "pgd": PGDConfig, "ao": AOConfig}


# Exact type tests first: the ABC checks cost about a microsecond each, and
# every dataclasses.replace of a config re-runs the validation.
def _is_int(v) -> bool:
    return type(v) is int or (isinstance(v, Integral) and not isinstance(v, bool))


def _is_real(v) -> bool:
    return (type(v) is float or _is_int(v) or (isinstance(v, Real) and not isinstance(v, bool))
            ) and math.isfinite(v)


def _as_tuple(v) -> tuple:
    return tuple(v) if isinstance(v, (tuple, list)) else (v,)


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
        if not self.schemes:
            raise ConfigError("schemes must name at least one scheme")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ConfigError(f"unknown scheme {s!r}; pick from {SCHEMES}")
        for name in ("num_waveguides", "num_users", "psk_order", "trials", "master_seed"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer")
        for name in ("carrier_freq_hz", "refractive_index", "noise_dbm", "region_side_m",
                     "height_m", "waveguide_length_m"):
            if not _is_real(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number")
        for name in ("num_waveguides", "num_users", "trials", "carrier_freq_hz",
                     "refractive_index", "region_side_m", "height_m", "waveguide_length_m"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.psk_order < 2:
            raise ConfigError("psk_order must be at least 2")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be non-negative")
        if self.min_spacing_m is not None and not (
                _is_real(self.min_spacing_m) and self.min_spacing_m >= 0):
            raise ConfigError("min_spacing_m must be null or a non-negative number")
        gammas, pas = self.gamma_sweep(), self.num_pas_sweep()
        if not gammas or not all(_is_real(g) for g in gammas):
            raise ConfigError("gamma_db must be one or more finite numbers")
        if not pas or not all(_is_int(l) and l > 0 for l in pas):
            raise ConfigError("num_pas must be one or more positive integers")
        if (max(pas) - 1) * self.spacing > self.waveguide_length_m:
            raise ConfigError(f"waveguide_length_m cannot fit {max(pas)} antennas "
                              f"at spacing {self.spacing}")
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


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from parsed JSON, rejecting unknown keys fail-fast."""
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(data)
    for key, cls in _SUBCONFIG_TYPES.items():
        if key in kwargs:
            sub = kwargs[key]
            if not isinstance(sub, dict):
                raise ConfigError(f"{key} must be an object")
            sub_unknown = set(sub) - set(cls.__dataclass_fields__)
            if sub_unknown:
                raise ConfigError(f"unknown {key} keys: {sorted(sub_unknown)}")
            try:
                kwargs[key] = cls(**sub)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{key}: {exc}") from exc
    for key in ("schemes", "gamma_db", "num_pas"):
        if key in kwargs and isinstance(kwargs[key], list):
            kwargs[key] = tuple(kwargs[key])
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
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


def _record(experiment, trial, seed, scheme, gamma_db, num_pas, power_w,
            ao_iters, converged) -> ExperimentRecord:
    dbm = watts_to_dbm(power_w) if power_w > 0 and math.isfinite(power_w) else math.nan
    return ExperimentRecord(
        experiment=experiment,
        trial=trial,
        seed=seed,
        scheme=scheme,
        gamma_db=gamma_db,
        num_pas=num_pas,
        power_w=power_w,
        power_dbm=dbm,
        ao_iters=ao_iters,
        converged=converged,
    )


def generate_scenario(
    cfg: ExperimentConfig, trial: int, num_pas: int | None = None
) -> tuple[SystemGeometry, SymbolVector]:
    """Users uniform over the square region and symbols uniform over the PSK
    constellation, both drawn from the (master_seed, trial) stream; the same
    trial yields the same scenario for every sweep value."""
    rng = np.random.default_rng([cfg.master_seed, trial])
    xy = rng.uniform(0.0, cfg.region_side_m, size=(cfg.num_users, 2))
    users = [Vec3(float(x), float(y), 0.0) for x, y in xy]
    idx = rng.integers(0, cfg.psk_order, size=cfg.num_users)
    symbols = SymbolVector(s=psk_constellation(cfg.psk_order)[idx], order=cfg.psk_order)
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
) -> tuple[float, int, bool]:
    """Power, AO iteration count, and convergence flag for one scheme."""
    params = cfg.params
    if scheme == "proposed":
        x0 = fixed_uniform_placement(geom)
        _, _, trace = ao_solve(
            geom, params, symbols, gamma_lin, cfg.noise_w, cfg.theta_th, x0,
            ao_cfg=cfg.ao, pgd_cfg=cfg.pgd, smoothing=cfg.smoothing,
        )
        return trace.powers[-1], trace.iterations, trace.converged
    if scheme == "fixed":
        snapshot = effective_channels(geom, fixed_uniform_placement(geom), params)
    elif scheme == "random":
        x = random_placement(geom, [cfg.master_seed, trial, _RANDOM_PLACEMENT_TAG])
        snapshot = effective_channels(geom, x, params)
    elif scheme == "conventional":
        snapshot = conventional_array_snapshot(geom, params)
    else:
        raise ConfigError(f"unknown scheme {scheme!r}")
    qp = build_ci_qp(snapshot, symbols, gamma_lin, cfg.noise_w, cfg.theta_th)
    sol = solve_min_power(qp)
    return sol.power, 0, sol.feasible


def run_power_vs_sinr(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """Sweep the SINR target at fixed antenna count (one record per trial,
    scheme, and target); infeasible trials are recorded, not fatal."""
    gammas = cfg.gamma_sweep()
    L = cfg.num_pas_sweep()[0]
    records = []
    for trial in range(cfg.trials):
        geom, symbols = generate_scenario(cfg, trial, num_pas=L)
        for gamma_db in gammas:
            gamma_lin = np.full(cfg.num_users, db_to_linear(gamma_db))
            for scheme in cfg.schemes:
                records.append(
                    _one_record(cfg, "power-vs-sinr", scheme, geom, symbols,
                                gamma_lin, trial, gamma_db, L)
                )
    return sort_records(records)


def run_power_vs_numpas(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """Sweep antennas per waveguide at a fixed SINR target."""
    gamma_db = cfg.gamma_sweep()[0]
    gamma_lin = np.full(cfg.num_users, db_to_linear(gamma_db))
    records = []
    for trial in range(cfg.trials):
        for L in cfg.num_pas_sweep():
            geom, symbols = generate_scenario(cfg, trial, num_pas=L)
            for scheme in cfg.schemes:
                records.append(
                    _one_record(cfg, "power-vs-numpas", scheme, geom, symbols,
                                gamma_lin, trial, gamma_db, L)
                )
    return sort_records(records)


def _one_record(cfg, experiment, scheme, geom, symbols, gamma_lin, trial,
                gamma_db, L) -> ExperimentRecord:
    try:
        power, iters, converged = _run_scheme(cfg, scheme, geom, symbols, gamma_lin, trial)
    except InfeasibleProblemError:
        power, iters, converged = math.nan, 0, False
    return _record(experiment, trial, cfg.master_seed, scheme, gamma_db, L,
                   power, iters, converged)


def run_convergence(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """Emit the per-iteration AO power trace of the proposed scheme, one row
    per iteration with ao_iters carrying the iteration index."""
    gamma_db = cfg.gamma_sweep()[0]
    gamma_lin = np.full(cfg.num_users, db_to_linear(gamma_db))
    params = cfg.params
    records = []
    for trial in range(cfg.trials):
        for L in cfg.num_pas_sweep():
            geom, symbols = generate_scenario(cfg, trial, num_pas=L)
            try:
                _, _, trace = ao_solve(
                    geom, params, symbols, gamma_lin, cfg.noise_w, cfg.theta_th,
                    fixed_uniform_placement(geom),
                    ao_cfg=cfg.ao, pgd_cfg=cfg.pgd, smoothing=cfg.smoothing,
                )
                for it, p in enumerate(trace.powers):
                    records.append(
                        _record("convergence", trial, cfg.master_seed, "proposed",
                                gamma_db, L, p, it, trace.converged)
                    )
            except InfeasibleProblemError:
                records.append(
                    _record("convergence", trial, cfg.master_seed, "proposed",
                            gamma_db, L, math.nan, 0, False)
                )
    return sort_records(records)


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


CSV_HEADER = "experiment,trial,seed,scheme,gamma_db,num_pas,power_w,power_dbm,ao_iters,converged"


def _fmt(v: float) -> str:
    return f"{v:.9g}"


def emit_csv(records: Sequence[ExperimentRecord], path: str) -> None:
    """Write records with 9-significant-digit floats in normalized order."""
    try:
        with open(path, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for r in sort_records(records):
                fh.write(
                    f"{r.experiment},{r.trial},{r.seed},{r.scheme},"
                    f"{_fmt(r.gamma_db)},{r.num_pas},{_fmt(r.power_w)},"
                    f"{_fmt(r.power_dbm)},{r.ao_iters},"
                    f"{'true' if r.converged else 'false'}\n"
                )
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
