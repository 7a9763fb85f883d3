"""Configuration: what may be set, what a valid value is, and the JSON loaders.

The experiment config describes the scenario: carrier, geometry, users,
targets, trials, seed and schemes. SmoothingParams and PGDConfig are solver
arguments that library callers pass to placement and ao; no config file sets
them. Every settable value has one row in the field table FIELDS, and
check_fields applies the rows whenever a config is built; only the rules that
link fields are written out in ExperimentConfig. A malformed config raises
ConfigError, a ValueError.
"""

from __future__ import annotations

import json
import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from numbers import Integral, Real

from .channel import WaveformParams
from .precoder import db_to_linear, dbm_to_watts


class ConfigError(ValueError):
    """Raised for malformed or unknown configuration content."""


# How check_fields tests one value: its kind (int; float, any finite real;
# tuple, a list), a lower bound that only a closed bound admits, an excluded
# upper bound, and whether a non-empty list of such values may stand for it.
Row = namedtuple("Row", "kind low closed high many", defaults=(None, False, None, False))

# One row for each settable value of the three config classes, by class. The
# rules that link fields stay in the classes. Counts stay below _COUNT, so an
# absurd one fails here, not in numpy or in an endless loop. Each PGD row runs
# 1 + restarts starts, so restarts stays far below it.
_COUNT = 2**31
FIELDS = {
    "ExperimentConfig": {
        "carrier_freq_hz": Row(float, 0), "refractive_index": Row(float, 0),
        "noise_dbm": Row(float), "region_side_m": Row(float, 0),
        "height_m": Row(float, 0), "num_waveguides": Row(int, 0, high=_COUNT),
        "num_users": Row(int, 0, high=_COUNT),
        "psk_order": Row(int, 2, closed=True, high=_COUNT),
        "num_pas": Row(int, 0, high=_COUNT, many=True), "gamma_db": Row(float, many=True),
        "waveguide_length_m": Row(float, 0), "min_spacing_m": Row(float, 0, closed=True),
        "trials": Row(int, 0), "master_seed": Row(int, 0, closed=True),
        "schemes": Row(tuple),
    },
    "SmoothingParams": {"kappa": Row(float, 0)},
    "PGDConfig": {"restarts": Row(int, 0, closed=True, high=2**10)},
}
_KINDS = {int: (Integral, "an integer"), float: (Real, "a number"),
          tuple: ((tuple, list), "a list of names")}
_MAX = sys.float_info.max


def _as_tuple(v) -> tuple:
    return tuple(v) if isinstance(v, (tuple, list)) else (v,)


def check_fields(cfg, skip=()) -> None:
    """Raise ConfigError naming the first field of cfg, outside skip, that
    breaks its FIELDS row."""
    for name, (kind, low, closed, high, many) in FIELDS[type(cfg).__name__].items():
        if name in skip:
            continue
        values = _as_tuple(getattr(cfg, name)) if many else (getattr(cfg, name),)
        if not values:
            raise ConfigError(f"{name} must not be empty")
        for v in values:
            # Exact type tests first: the ABC checks cost about a microsecond
            # each, and every dataclasses.replace of a config runs this.
            t = type(v)
            if not (t is kind or t is int and kind is float
                    or t is not bool and isinstance(v, _KINDS[kind][0])):
                raise ConfigError(f"{name} must be {_KINDS[kind][1]}, got {v!r}")
            # exact comparisons, so an int beyond the float range is not finite
            if kind is float and not -_MAX <= v <= _MAX:
                raise ConfigError(f"{name} must be a finite number")
            if low is not None and not (v >= low if closed else v > low):
                bound = (("non-negative" if closed else "positive") if low == 0
                         else f"{'at least' if closed else 'greater than'} {low}")
                raise ConfigError(f"{name} must be {bound}, got {v!r}")
            if high is not None and not v < high:
                raise ConfigError(f"{name} must be less than {high}, got {v!r}")


class _Checked:
    """A solver-argument class: its FIELDS rows are all its rules."""

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class SmoothingParams(_Checked):
    """Log-sum-exp temperature policy: per subproblem, kappa times the largest
    branch magnitude at the warm start, floored (see placement.pick_eps)."""

    kappa: float = 1e-3


@dataclass(frozen=True)
class PGDConfig(_Checked):
    """Projected-gradient settings: the extra starts per row. The step schedule
    and the iteration limits are constants of placement.pgd_solve."""

    restarts: int = 0  # extra evenly spaced starts per region (0 = warm start only)


SCHEMES = ("proposed", "fixed", "random", "conventional")


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
        eta = self.params.eta  # the channel amplitude scale; powers divide by its square
        if not 0 < eta * eta <= _MAX:
            raise ConfigError(f"carrier_freq_hz {self.carrier_freq_hz} gives a channel scale "
                              f"eta = {eta} whose square is outside the float range")
        # the longest user-to-antenna distance, squared as the channel squares it; the
        # conventional array's farthest radiator sits (N - 1) half wavelengths out
        span = (self.num_waveguides - 1) * (self.params.wavelength / 2.0)
        far = (max(self.region_side_m, self.waveguide_length_m, span), self.region_side_m,
               self.height_m)
        if not sum(float(v) * float(v) for v in far) <= _MAX:
            raise ConfigError("region_side_m, waveguide_length_m and height_m must keep the "
                              "squared user-to-antenna distance finite, got "
                              f"{self.region_side_m}, {self.waveguide_length_m}, {self.height_m}"
                              f"; the conventional array at carrier_freq_hz "
                              f"{self.carrier_freq_hz} spans {span} m")
        L = max(self.num_pas_sweep())
        if (L - 1) * self.spacing > self.waveguide_length_m:
            raise ConfigError(f"waveguide_length_m cannot fit {L} antennas {self.spacing} m apart")

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
    unknown = set(data) - set(ExperimentConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(data)
    for key, row in FIELDS["ExperimentConfig"].items():  # the list-valued fields
        if (row.many or row.kind is tuple) and isinstance(kwargs.get(key), list):
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
