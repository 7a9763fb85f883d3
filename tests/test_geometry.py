import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pinchslp.channel import WaveformParams, effective_channels
from pinchslp.geometry import (
    MovableRegion,
    PlacementViolation,
    Vec3,
    distances,
    initial_regions,
    make_geometry,
    placement_cells,
    validate_placement,
)

HALF_WAVELENGTH_28GHZ = 0.0053571  # explicit spacing input used by the region examples
PARAMS = WaveformParams.from_carrier(2.8e10)


def demo_geometry(num_pas=5, spacing=HALF_WAVELENGTH_28GHZ, num_waveguides=4,
                  users=(), length=20.0):
    return make_geometry(
        region_side=20.0,
        height=5.0,
        num_waveguides=num_waveguides,
        waveguide_length=length,
        min_spacing=spacing,
        num_pas_per_waveguide=num_pas,
        users=users,
    )


def one(v):
    return np.array([float(v)])


class TestPaPosition:
    """Antenna l on waveguide n sits at (x[n, l], y_n, height) in the channel."""

    PLACEMENT = np.tile(np.arange(5) * 4.0, (4, 1))

    def test_waveguide_start(self):
        geom = demo_geometry(users=(Vec3(0.0, 0.0, 0.0),))
        dist = effective_channels(geom, self.PLACEMENT, PARAMS).distances
        assert dist[0, 0, 0] == 5.0  # antenna 0 of waveguide 0 is at (0, y_0 = 0, 5)

    def test_coordinate_assembly(self):
        x = self.PLACEMENT.copy()
        x[1, 2] = 7.5
        geom = demo_geometry(users=(Vec3(7.5, 20.0 / 3.0, 0.0), Vec3(3.0, 1.0, 0.0)))
        dist = effective_channels(geom, x, PARAMS).distances
        assert dist[0, 1, 2] == 5.0
        expected = math.sqrt(4.5**2 + (20.0 / 3.0 - 1.0) ** 2 + 25.0)
        assert dist[1, 1, 2] == pytest.approx(expected, rel=1e-12)

    def test_height_always_fixed(self):
        for x in np.linspace(0, 20, 7):
            geom = demo_geometry(users=(Vec3(float(x), 40.0 / 3.0, 0.0),))
            placement = self.PLACEMENT.copy()
            placement[2, 1] = x
            dist = effective_channels(geom, placement, PARAMS).distances
            assert dist[0, 2, 1] == 5.0


class TestUserPaDistance:
    def test_directly_below(self):
        assert distances(one(3), one(4), 3.0, 4.0, 5.0)[0] == 5.0

    def test_pythagoras(self):
        d = distances(one(3), one(0), 0.0, 4.0, 5.0)[0]
        assert d == pytest.approx(math.sqrt(50), rel=1e-12)

    def test_height_is_minimum(self):
        rng = np.random.default_rng(3)
        ux, uy, px, py = rng.uniform(-30, 30, (4, 200))
        assert np.all(distances(ux, uy, px, py, 5.0) >= 5.0)  # every antenna-user pair

    def test_symmetric_in_offsets(self):
        # swapping the roles of the x and y offsets leaves the distance unchanged
        d1 = distances(one(1), one(2), 4.0, 9.0, 5.0)[0]
        d2 = distances(one(2), one(1), 9.0, 4.0, 5.0)[0]
        assert d1 == pytest.approx(d2, rel=1e-15)

    def test_minimized_at_user_coordinates(self):
        best = distances(one(7), one(3), 7.0, 3.0, 5.0)[0]
        rng = np.random.default_rng(4)
        px, py = rng.uniform(0, 20, (2, 100))
        assert np.all(distances(one(7), one(3), px, py, 5.0) >= best)

    def test_users_on_first_axis(self):
        rng = np.random.default_rng(5)
        ux, uy = rng.uniform(0, 20, (2, 3))
        x, y = rng.uniform(0, 20, (2, 4)), rng.uniform(0, 20, (2, 1))
        d = distances(ux, uy, x, y, 5.0)
        assert d.shape == (3, 2, 4)
        for k, n, l in np.ndindex(d.shape):
            expected = math.hypot(ux[k] - x[n, l], uy[k] - y[n, 0], 5.0)
            assert d[k, n, l] == pytest.approx(expected, rel=1e-14)


class TestUserXy:
    def test_matches_users_and_is_cached(self):
        users = (Vec3(1.0, 2.0, 0.0), Vec3(3.5, 4.5, 0.0))
        geom = demo_geometry(users=users)
        assert np.array_equal(geom.user_xy, [[1.0, 2.0], [3.5, 4.5]])
        assert geom.user_xy is geom.user_xy
        with pytest.raises(ValueError):
            geom.user_xy[0, 0] = 9.0

    def test_no_users(self):
        assert demo_geometry().user_xy.shape == (0, 2)

    def test_equality_hash_and_repr_ignore_the_cache(self):
        users = (Vec3(1.0, 2.0, 0.0),)
        a, b = demo_geometry(users=users), demo_geometry(users=users)
        before = repr(a)
        a.user_xy  # noqa: B018 - fills the cache on a only
        assert a == b and hash(a) == hash(b) and repr(a) == before


class TestInitialRegions:
    def test_frozen_example(self):
        # oracle: width = (20 - 4*0.0053571)/5, first slot = [0, width]
        geom = demo_geometry()
        regions = initial_regions(geom)
        assert regions[0].lower == 0.0
        assert regions[0].upper == pytest.approx(3.99571432, abs=1e-8)

    def test_single_pa_gets_whole_waveguide(self):
        geom = demo_geometry(num_pas=1)
        regions = initial_regions(geom)
        assert regions == [MovableRegion(0.0, 20.0)]

    def test_union_plus_gaps_tile_waveguide(self):
        geom = demo_geometry()
        regions = initial_regions(geom)
        assert regions[0].lower == 0.0
        assert regions[-1].upper == pytest.approx(20.0, rel=1e-12)
        for a, b in zip(regions, regions[1:]):
            assert b.lower - a.upper == pytest.approx(geom.min_spacing, rel=1e-9)

    def test_any_point_per_region_is_valid(self):
        geom = demo_geometry()
        rng = np.random.default_rng(5)
        regions = initial_regions(geom)
        for _ in range(50):
            x = np.array(
                [[rng.uniform(r.lower, r.upper) for r in regions]
                 for _ in range(geom.num_waveguides)]
            )
            assert validate_placement(geom, x).ok


@st.composite
def feasible_placements(draw):
    """A geometry and a feasible placement on it. Each waveguide spreads its
    slack length - (L-1)*min_spacing over the L + 1 gaps by random shares;
    zero shares are drawn often, so touching pairs and antennas at 0 and at
    waveguide_length are common."""
    L, N = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    d = draw(st.sampled_from([HALF_WAVELENGTH_28GHZ, 0.5, 2.0]))
    length = (L - 1) * d + draw(st.floats(0.0, 20.0))
    share = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    w = np.array(draw(st.lists(share, min_size=N * (L + 1), max_size=N * (L + 1))))
    w = w.reshape(N, L + 1)
    total = w.sum(axis=1, keepdims=True)
    free = np.cumsum(w, axis=1)[:, :L] / np.where(total > 0, total, 1.0)
    x = np.minimum(free * (length - (L - 1) * d) + np.arange(L) * d, length)
    return demo_geometry(num_pas=L, spacing=d, num_waveguides=N, length=length), x


class TestPlacementCells:
    @given(feasible_placements())
    def test_cells_hold_their_point_and_stay_apart(self, case):
        geom, x = case
        assert validate_placement(geom, x).ok
        lower, upper = placement_cells(geom, x)
        assert lower.shape == upper.shape == x.shape
        assert np.all((lower <= x) & (x <= upper))
        assert np.all((lower >= 0.0) & (upper <= geom.waveguide_length))
        assert np.all(lower[:, 1:] - upper[:, :-1] >= geom.min_spacing - 1e-9)

    def test_midpoint_example(self):
        # the first cell starts at 0 and the last ends at the waveguide end;
        # the touching pair (4, 4.5) leaves each no room towards the other
        geom = demo_geometry(num_pas=4, spacing=0.5, num_waveguides=1)
        lower, upper = placement_cells(geom, np.array([[0.0, 4.0, 4.5, 20.0]]))
        assert lower.tolist() == [[0.0, 2.25, 4.5, 12.5]]
        assert upper.tolist() == [[1.75, 4.0, 12.0, 20.0]]


class TestUpdatedRegion:
    """The region an antenna may move in during one placement sweep: its
    cell from placement_cells, given where its neighbours are now."""

    def test_first_pa_keeps_zero_lower(self):
        geom = demo_geometry(num_pas=3, spacing=0.1, num_waveguides=1, length=3.0)
        lower, _ = placement_cells(geom, np.array([[1.0, 2.0, 2.5]]))
        assert lower[0, 0] == 0.0

    def test_lower_advances_past_previous(self):
        geom = demo_geometry(num_pas=3, spacing=0.1, num_waveguides=1, length=4.0)
        lower, upper = placement_cells(geom, np.array([[2.0, 2.2, 4.0]]))
        assert lower[0, 1] == pytest.approx(2.15)  # midpoint 2.1 + min_spacing/2
        assert upper[0, 1] == pytest.approx(3.05)  # midpoint 3.1 - min_spacing/2
        assert lower[0, 1] - upper[0, 0] == pytest.approx(geom.min_spacing)

    def test_nonempty_when_prev_at_slot_edge(self):
        # antennas 2j and 2j+1 sit on the facing edges of their initial slots,
        # exactly min_spacing apart; the cells still hold them
        geom = demo_geometry()
        regions = initial_regions(geom)
        row = [r.upper if l % 2 == 0 else r.lower for l, r in enumerate(regions)]
        x = np.tile(row, (geom.num_waveguides, 1))
        assert validate_placement(geom, x).ok
        lower, upper = placement_cells(geom, x)
        assert np.all((lower <= x) & (x <= upper))
        for l in range(1, len(regions), 2):
            assert lower[0, l] == pytest.approx(regions[l].lower, rel=1e-9)

    def test_collapsed_region_degenerates_to_upper(self):
        # antenna 1 touches both neighbours, so its cell is the single point x
        geom = demo_geometry(num_pas=3, spacing=0.5, num_waveguides=1, length=6.0)
        lower, upper = placement_cells(geom, np.array([[2.5, 3.0, 3.5]]))
        assert lower[0, 1] == upper[0, 1] == 3.0

    def test_sequential_draws_stay_valid(self):
        # each round moves every antenna to a random point of its cell
        geom = demo_geometry()
        regions = initial_regions(geom)
        rng = np.random.default_rng(6)
        x = np.array(
            [[rng.uniform(r.lower, r.upper) for r in regions]
             for _ in range(geom.num_waveguides)]
        )
        for _ in range(50):
            lower, upper = placement_cells(geom, x)
            x = rng.uniform(lower, upper)
            assert validate_placement(geom, x).ok


class TestValidatePlacement:
    def test_uniform_grid_ok(self):
        geom = demo_geometry()
        x = np.tile((np.arange(5) + 0.5) * 4.0, (4, 1))
        assert validate_placement(geom, x).ok

    def test_zero_gap_reported(self):
        geom = demo_geometry()
        x = np.tile((np.arange(5) + 0.5) * 4.0, (4, 1))
        x[1, 1] = x[1, 0]
        report = validate_placement(geom, x)
        assert not report.ok
        v = report.violations[0]
        assert v.kind == "spacing" and (v.waveguide, v.pa) == (1, 0)
        assert v.amount == pytest.approx(geom.min_spacing)

    def test_out_of_range_reported(self):
        geom = demo_geometry()
        x = np.tile((np.arange(5) + 0.5) * 4.0, (4, 1))
        x[0, 4] = 20.01
        report = validate_placement(geom, x)
        assert not report.ok
        v = report.violations[0]
        assert v.kind == "range" and (v.waveguide, v.pa) == (0, 4)
        assert v.amount == pytest.approx(0.01)


def _validate_placement_loop(geom, x, tol=1e-9):
    """The element-by-element check validate_placement replaced, kept as a
    term-by-term reference for its violation list."""
    violations = []
    for n in range(geom.num_waveguides):
        for l in range(geom.num_pas_per_waveguide):
            v = x[n, l]
            if not v >= -tol:  # NaN fails here too
                violations.append(PlacementViolation("range", n, l, -v))
            elif v > geom.waveguide_length + tol:
                violations.append(PlacementViolation("range", n, l, v - geom.waveguide_length))
        for l in range(geom.num_pas_per_waveguide - 1):
            gap = x[n, l + 1] - x[n, l]
            if gap < geom.min_spacing - tol:
                violations.append(PlacementViolation("spacing", n, l, geom.min_spacing - gap))
    return violations


class TestValidatePlacementReference:
    """validate_placement against the loop on placements that break every
    constraint at once: out of range, unsorted, too close, NaN and infinite
    entries, and values at the tolerance edges."""

    @staticmethod
    def assert_same(got, want):
        assert [(v.kind, v.waveguide, v.pa) for v in got] == [
            (v.kind, v.waveguide, v.pa) for v in want]
        assert all(type(v.waveguide) is int and type(v.pa) is int for v in got)
        for g, w in zip(got, want):
            assert type(g.amount) is type(w.amount)
            assert g.amount == w.amount or (math.isnan(g.amount) and math.isnan(w.amount))

    @pytest.mark.parametrize("N, L", [(1, 1), (1, 4), (3, 2), (4, 5), (4, 7)])
    def test_matches_loop(self, N, L):
        geom = demo_geometry(num_pas=L, num_waveguides=N, spacing=0.5)
        rng = np.random.default_rng([N, L])
        edges = np.array([-1e-9, -2e-9, 20.0 + 1e-9, 20.0 + 2e-9, np.nan, np.inf, -np.inf])
        for trial in range(60):
            x = rng.uniform(-2.0, 22.0, (N, L))
            if trial % 3 == 0:  # sorted, with some gaps near min_spacing
                x = np.cumsum(rng.uniform(0.45, 0.55, (N, L)), axis=1) + rng.uniform(-1, 1)
            picks = rng.random((N, L)) < 0.2
            x[picks] = rng.choice(edges, picks.sum())
            with np.errstate(invalid="ignore"):  # inf - inf in a gap
                want = _validate_placement_loop(geom, x)
                got = validate_placement(geom, x).violations
            self.assert_same(got, want)


class TestGeometryInvariants:
    def test_rejects_infeasible_span(self):
        with pytest.raises(ValueError):
            demo_geometry(num_pas=5, spacing=6.0)

    def test_rejects_users_off_plane(self):
        with pytest.raises(ValueError):
            demo_geometry(users=(Vec3(1, 1, 1),))

    def test_single_waveguide_centered(self):
        geom = demo_geometry(num_waveguides=1)
        assert geom.waveguide_y == (10.0,)

    @given(st.floats(min_value=-50, max_value=50))
    def test_vec3_finite_guard(self, v):
        assert Vec3(v, 0, 0).x == v

    def test_vec3_rejects_nan(self):
        with pytest.raises(ValueError):
            Vec3(float("nan"), 0, 0)
