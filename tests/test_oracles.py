import math

import numpy as np
import pytest

from pinchslp.channel import ChannelSnapshot
from pinchslp.geometry import MovableRegion
from pinchslp.oracles import active_set_qp_oracle, fd_gradient, grid_search_position
from pinchslp.placement import SubproblemTerms, subproblem_objective
from pinchslp.precoder import build_ci_qp, psk_symbols

NOISE_W = 1e-11
THETA = math.pi / 4


class TestFdGradient:
    def test_quadratic(self):
        assert fd_gradient(lambda x: x * x, 3.0, 1e-6) == pytest.approx(6.0, abs=1e-8)

    def test_constant(self):
        assert fd_gradient(lambda x: 7.5, 1.0, 1e-6) == 0.0

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            fd_gradient(lambda x: x, 0.0, 0.0)


def envelope_terms(user_x=30.0):
    # beta = 0 keeps only the smooth 1/q envelope
    return SubproblemTerms(
        amp=np.array([1.0]),
        phase_off=np.zeros((1, 1)),
        user_x=np.array([user_x]),
        user_y=np.array([10.0]),
        waveguide_y=10.0,
        height=5.0,
        beta0=0.0,
        beta1=0.0,
        tan_th=1.0,
    )


class TestGridSearch:
    def test_monotone_decreasing_returns_upper(self):
        terms = envelope_terms()
        x_best, f_best = grid_search_position(terms, MovableRegion(0.0, 5.0), 1e-9, 1e-3)
        assert x_best == 5.0
        assert f_best == pytest.approx(subproblem_objective(terms, 5.0, 1e-9), rel=1e-12)

    def test_single_point_region(self):
        terms = envelope_terms()
        x_best, f_best = grid_search_position(terms, MovableRegion(2.0, 2.0), 1e-9, 1e-3)
        assert x_best == 2.0

    def test_grid_covers_both_endpoints(self):
        terms = envelope_terms(user_x=-10.0)  # now decreasing toward 0
        x_best, _ = grid_search_position(terms, MovableRegion(0.0, 5.0), 1e-9, 1e-3)
        assert x_best == 0.0


def snapshot_from_rows(rows):
    rows = np.atleast_2d(rows)
    return ChannelSnapshot(
        effective=rows, raw=rows[:, :, None], distances=np.ones(rows.shape + (1,))
    )


class TestActiveSetOracle:
    def test_single_user_closed_form(self):
        h = 1.7052e-4
        qp = build_ci_qp(
            snapshot_from_rows(np.array([[h + 0j]])),
            psk_symbols([0], 4),
            np.array([100.0]),
            NOISE_W,
            THETA,
        )
        sol = active_set_qp_oracle(qp)
        assert sol.feasible
        assert sol.power == pytest.approx(100.0 * NOISE_W / h**2, rel=1e-10)

    def test_active_set_nonempty_at_optimum(self):
        # the origin violates every CI row, so some constraint must bind
        rng = np.random.default_rng(0)
        rows = (rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))) * 1e-4
        qp = build_ci_qp(
            snapshot_from_rows(rows), psk_symbols([0, 1], 4), np.full(2, 50.0),
            NOISE_W, THETA,
        )
        sol = active_set_qp_oracle(qp)
        assert sol.feasible
        assert np.any(sol.duals > 0)
        assert sol.power > 0

    def test_infeasible_reported(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0]])
        b = np.array([1.0, 1.0])  # z0 >= 1 and z0 <= -1
        from pinchslp.precoder import QPInstance

        qp = QPInstance(A=A, b=b)
        sol = active_set_qp_oracle(qp)
        assert not sol.feasible

    def test_enumeration_bound_enforced(self):
        from pinchslp.precoder import QPInstance

        qp = QPInstance(A=np.ones((14, 4)), b=np.zeros(14))
        with pytest.raises(ValueError):
            active_set_qp_oracle(qp)

