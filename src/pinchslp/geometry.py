"""Scenario layout: waveguides, pinching-antenna placements, users, movable regions.

All lengths are in meters. Waveguides run parallel to the x-axis at height
``height`` above the user plane (z = 0); antenna l on waveguide n sits at
``(x[n, l], waveguide_y[n], height)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np


@dataclass(frozen=True)
class Vec3:
    """Cartesian point (meters)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError(f"non-finite coordinates: {(self.x, self.y, self.z)}")


class MovableRegion(NamedTuple):
    """Closed interval on a waveguide within which one antenna may sit."""

    lower: float
    upper: float


def uniform_waveguide_y(num_waveguides: int, region_side: float) -> tuple[float, ...]:
    """y-coordinates of waveguides spread uniformly across the square region.

    A single waveguide is centered; otherwise y_n = (n-1) * region_side / (N-1).
    """
    if num_waveguides == 1:
        return (region_side / 2.0,)
    step = region_side / (num_waveguides - 1)
    return tuple(n * step for n in range(num_waveguides))


@dataclass(frozen=True)
class SystemGeometry:
    """Immutable 3-D layout of the square service region, waveguides, and users.

    Attributes:
        region_side: side length of the square user region.
        height: waveguide height above the user plane (> 0).
        num_waveguides: N, one RF chain per waveguide.
        waveguide_y: y-coordinate of each waveguide, inside [0, region_side].
        waveguide_length: usable antenna span along x on each waveguide.
        min_spacing: minimum gap between adjacent antennas on a waveguide.
        num_pas_per_waveguide: L antennas per waveguide.
        users: K user positions at z = 0 inside the region.
    """

    region_side: float
    height: float
    num_waveguides: int
    waveguide_y: tuple[float, ...]
    waveguide_length: float
    min_spacing: float
    num_pas_per_waveguide: int
    users: tuple[Vec3, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.height <= 0:
            raise ValueError("waveguide height must be positive")
        if len(self.waveguide_y) != self.num_waveguides:
            raise ValueError("waveguide_y length must equal num_waveguides")
        for y in self.waveguide_y:
            if not 0 <= y <= self.region_side:
                raise ValueError(f"waveguide y={y} outside [0, {self.region_side}]")
        span_needed = (self.num_pas_per_waveguide - 1) * self.min_spacing
        if self.waveguide_length < span_needed:
            raise ValueError(
                f"waveguide_length {self.waveguide_length} cannot fit "
                f"{self.num_pas_per_waveguide} antennas at spacing {self.min_spacing}"
            )
        for u in self.users:
            if u.z != 0:
                raise ValueError("users must lie in the z = 0 plane")
            if not (0 <= u.x <= self.region_side and 0 <= u.y <= self.region_side):
                raise ValueError(f"user {u} outside the service region")

    @cached_property
    def user_xy(self) -> np.ndarray:
        """Read-only K x 2 array of the user plane coordinates (x, y)."""
        xy = np.array([(u.x, u.y) for u in self.users], dtype=float).reshape(-1, 2)
        xy.flags.writeable = False
        return xy


def distances(ux: np.ndarray, uy: np.ndarray, x, y, height: float) -> np.ndarray:
    """Distances from ground users at (ux, uy, 0) to antennas at (x, y, height).

    x and y broadcast against each other; the users go on a new first axis
    (a view: in memory they stay last, which fixes the summation order).
    """
    dy2 = (uy - np.asarray(y)[..., None]) ** 2
    return np.moveaxis(offset_distances(ux, np.asarray(x)[..., None], dy2, height**2), -1, 0)


def offset_distances(ux: np.ndarray, x, dy2, h2: float) -> np.ndarray:
    """distances() from the terms x does not move, dy2 = (uy - y)**2 and
    h2 = height**2, summed in the same order; ux, x and dy2 broadcast as given."""
    return np.sqrt((ux - x) ** 2 + dy2 + h2)


def make_geometry(
    region_side: float,
    height: float,
    num_waveguides: int,
    waveguide_length: float,
    min_spacing: float,
    num_pas_per_waveguide: int,
    users: Sequence[Vec3],
) -> SystemGeometry:
    """Build a SystemGeometry with uniformly spread waveguides."""
    return SystemGeometry(
        region_side=region_side,
        height=height,
        num_waveguides=num_waveguides,
        waveguide_y=uniform_waveguide_y(num_waveguides, region_side),
        waveguide_length=waveguide_length,
        min_spacing=min_spacing,
        num_pas_per_waveguide=num_pas_per_waveguide,
        users=tuple(users),
    )


def initial_regions(geom: SystemGeometry) -> list[MovableRegion]:
    """Disjoint per-antenna movable regions covering one waveguide.

    Each of the L antennas gets a slot of width
    (waveguide_length - (L-1)*min_spacing) / L, with gaps of exactly
    min_spacing between consecutive slots; the union plus gaps tiles
    [0, waveguide_length]. The same slots apply to every waveguide.
    """
    L = geom.num_pas_per_waveguide
    dx = geom.min_spacing
    width = (geom.waveguide_length - (L - 1) * dx) / L
    return [
        MovableRegion(l * (width + dx), (l + 1) * width + l * dx)
        for l in range(L)
    ]


def placement_cells(geom: SystemGeometry, x_coords: np.ndarray) -> MovableRegion:
    """Movable cell of every antenna around a placement, as N x L bound arrays.

    Antenna l's cell runs from min_spacing/2 past its midpoint with antenna
    l-1 (from 0 for the first) to min_spacing/2 short of its midpoint with
    antenna l+1 (to waveguide_length for the last), widened to hold x[n, l]
    against rounding. The cells of a feasible placement lie in
    [0, waveguide_length] and min_spacing apart, so any one point per cell is
    feasible; a pair exactly min_spacing apart leaves each no room towards
    the other.
    """
    x = np.asarray(x_coords, dtype=float)
    mid, half = (x[:, :-1] + x[:, 1:]) / 2, geom.min_spacing / 2
    lower = np.concatenate((np.zeros_like(x[:, :1]), mid + half), axis=1)
    upper = np.concatenate((mid - half, np.full_like(x[:, :1], geom.waveguide_length)), axis=1)
    return MovableRegion(np.minimum(lower, x), np.maximum(upper, x))


class PlacementViolation(NamedTuple):
    kind: str  # "range" or "spacing"
    waveguide: int
    pa: int
    amount: float


@dataclass
class PlacementReport:
    """Outcome of checking a placement against range and spacing constraints."""

    violations: list[PlacementViolation]

    @property
    def ok(self) -> bool:
        return not self.violations


_PLACEMENT_TOL = 1e-9  # 1 nm, far under any spacing of interest


def validate_placement(geom: SystemGeometry, x_coords: np.ndarray) -> PlacementReport:
    """Check an N x L placement matrix against the waveguide constraints.

    Reports every violated bound (entry outside [0, waveguide_length]) and
    every adjacent pair closer than min_spacing, with the violation magnitude.
    Violations below _PLACEMENT_TOL (1 nm) are treated as floating-point
    noise. The list is sorted by waveguide, then range before spacing, then
    antenna.
    """
    x, tol = np.asarray(x_coords, dtype=float), _PLACEMENT_TOL
    N, L = geom.num_waveguides, geom.num_pas_per_waveguide
    if x.shape != (N, L):
        raise ValueError(f"placement shape {x.shape} != ({N}, {L})")
    gap = x[:, 1:] - x[:, :-1]
    violations = [
        PlacementViolation(kind, n, l, amount[n, l])
        for kind, mask, amount in (
            ("range", ~(x >= -tol), -x),  # NaN counts as below
            ("range", x > geom.waveguide_length + tol, x - geom.waveguide_length),
            ("spacing", gap < geom.min_spacing - tol, geom.min_spacing - gap),
        )
        if mask.any()
        for n, l in np.argwhere(mask).tolist()
    ]
    violations.sort(key=lambda v: (v.waveguide, v.kind, v.pa))
    return PlacementReport(violations)
