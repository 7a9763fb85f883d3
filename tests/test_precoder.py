import json
import math
import re

import numpy as np
import pytest

from pinchslp import precoder
from pinchslp.ao import fixed_uniform_placement
from pinchslp.bench import ExperimentConfig, generate_scenario
from pinchslp.channel import ChannelSnapshot, WaveformParams, ci_margin, effective_channels, received_lambda
from pinchslp.geometry import Vec3, initial_regions, make_geometry
from pinchslp.oracles import active_set_qp_oracle
from pinchslp.precoder import (
    InfeasibleProblemError,
    QPInstance,
    SymbolVector,
    build_ci_qp,
    db_to_linear,
    dbm_to_watts,
    psk_constellation,
    psk_symbols,
    recover_beam_matrix,
    solve_min_power,
    watts_to_dbm,
)

PARAMS = WaveformParams.from_carrier(2.8e10)
NOISE_W = 1e-11  # -80 dBm
THETA = math.pi / 4


def snapshot_from_rows(rows: np.ndarray) -> ChannelSnapshot:
    """Wrap explicit effective rows for unit-level QP tests."""
    rows = np.atleast_2d(rows)
    return ChannelSnapshot(
        effective=rows,
        raw=rows[:, :, None],
        distances=np.ones(rows.shape + (1,)),
    )


def random_instance(rng, num_users, num_waveguides=4, num_pas=3):
    users = [Vec3(float(x), float(y), 0.0) for x, y in rng.uniform(0, 20, (num_users, 2))]
    geom = make_geometry(20, 5, num_waveguides, 20, PARAMS.wavelength / 2, num_pas, users)
    regions = initial_regions(geom)
    x = np.array(
        [[rng.uniform(r.lower, r.upper) for r in regions] for _ in range(num_waveguides)]
    )
    snap = effective_channels(geom, x, PARAMS)
    symbols = psk_symbols(rng.integers(0, 4, num_users), 4)
    gamma = np.full(num_users, db_to_linear(rng.uniform(10, 20)))
    return build_ci_qp(snap, symbols, gamma, NOISE_W, THETA), snap, symbols, gamma


def overloaded_instance():
    """Nine users on four waveguides, 18 CI rows in 8 unknowns: overloaded,
    yet feasible."""
    cfg = ExperimentConfig(num_users=9, master_seed=7)
    geom, symbols = generate_scenario(cfg, 20, num_pas=5)
    snap = effective_channels(geom, fixed_uniform_placement(geom), cfg.params)
    return build_ci_qp(snap, symbols, np.full(9, 10.0), cfg.noise_w, cfg.theta_th)


def assert_farkas(qp, mu):
    """mu >= 0, b^T mu > 0 and A^T mu = 0 relative to the row mass: no z
    satisfies A z >= b."""
    assert np.all(mu >= 0)
    assert qp.b @ mu > 0
    row_mass = np.sum(mu * np.linalg.norm(qp.A, axis=1))
    assert np.linalg.norm(qp.A.T @ mu) <= 1e-9 * row_mass


def power_or_none(qp):
    """Minimum power, or None after checking the Farkas vector of an
    infeasible instance."""
    try:
        return solve_min_power(qp).power
    except InfeasibleProblemError as exc:
        assert_farkas(qp, exc.farkas)
        return None


class TestUnits:
    def test_noise_floor(self):
        assert dbm_to_watts(-80.0) == pytest.approx(1e-11, rel=1e-12)

    def test_dbm_roundtrip(self):
        assert watts_to_dbm(dbm_to_watts(13.7)) == pytest.approx(13.7, rel=1e-12)

    def test_gamma_20db(self):
        assert db_to_linear(20.0) == pytest.approx(100.0, rel=1e-12)


class TestConstellation:
    def test_qpsk_points(self):
        pts = psk_constellation(4)
        expected = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / math.sqrt(2)
        assert np.allclose(pts, expected, atol=1e-15)

    def test_unit_modulus_any_order(self):
        for M in (2, 4, 8, 16):
            assert np.allclose(np.abs(psk_constellation(M)), 1.0, atol=1e-15)

    def test_symbols_equal_constellation_points(self):
        rng = np.random.default_rng(14)
        for M in (2, 4, 8, 16, 2**10):
            idx = rng.integers(0, 3 * M, 50)
            s = psk_symbols(idx, M).s
            assert s.tobytes() == psk_constellation(M)[idx % M].tobytes()

    def test_symbols_memory_independent_of_order(self):
        # only the drawn points are evaluated, not the whole constellation
        import tracemalloc

        tracemalloc.start()
        try:
            psk_symbols(np.array([0, 1, 2**19, 2**20 - 1]), 2**20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_symbol_vector_rejects_scaled(self):
        with pytest.raises(ValueError):
            SymbolVector(s=np.array([2.0 + 0j]))


class TestBuildCiQp:
    def test_two_rows_per_user(self):
        snap = snapshot_from_rows(np.array([[1e-4 + 0j]]))
        qp = build_ci_qp(snap, psk_symbols([0], 4), np.array([100.0]), NOISE_W, THETA)
        assert qp.A.shape == (2, 2) and (qp.num_users, qp.num_streams) == (1, 1)

    def test_origin_infeasible_margin(self):
        snap = snapshot_from_rows(np.array([[1e-4 + 0j]]))
        gamma = np.array([100.0])
        qp = build_ci_qp(snap, psk_symbols([0], 4), gamma, NOISE_W, THETA)
        margin_at_origin = -qp.b
        expected = -math.sqrt(100.0 * NOISE_W) * math.tan(THETA)
        assert np.allclose(margin_at_origin, expected, rtol=1e-12)
        assert np.all(margin_at_origin < 0)

    def test_common_rotation_leaves_rows_unchanged(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(2, 3)) * 1e-4 + 1j * rng.normal(size=(2, 3)) * 1e-4
        symbols = psk_symbols([0, 2], 4)
        gamma = np.array([50.0, 80.0])
        rot = np.exp(1j * 1.234)
        qp1 = build_ci_qp(snapshot_from_rows(rows), symbols, gamma, NOISE_W, THETA)
        qp2 = build_ci_qp(
            snapshot_from_rows(rows * rot),
            SymbolVector(s=symbols.s * rot),
            gamma,
            NOISE_W,
            THETA,
        )
        assert np.allclose(qp1.A, qp2.A, atol=1e-18)
        assert np.allclose(qp1.b, qp2.b, atol=1e-18)

    @staticmethod
    def per_user_rows(effective, s, gamma, noise_power, theta_th):
        """Reference: the two CI rows of each user written one user at a time."""
        K, N = effective.shape
        t = math.tan(theta_th)
        A, b = np.zeros((2 * K, 2 * N)), np.zeros(2 * K)
        for k in range(K):
            a = effective[k] / s[k]
            re_row = np.concatenate([a.real, -a.imag])
            im_row = np.concatenate([a.imag, a.real])
            A[2 * k], A[2 * k + 1] = t * re_row + im_row, t * re_row - im_row
            b[2 * k] = b[2 * k + 1] = t * math.sqrt(gamma[k] * noise_power)
        return A, b

    def test_matches_per_user_loop(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            K, N = int(rng.integers(1, 9)), int(rng.integers(1, 7))
            order = int(rng.choice([3, 4, 8, 16]))
            rows = rng.normal(size=(K, N)) + 1j * rng.normal(size=(K, N))
            rows *= 10.0 ** rng.uniform(-6, -2)
            symbols = psk_symbols(rng.integers(0, order, K), order)
            gamma = 10.0 ** rng.uniform(0, 3, K)  # 0 to 30 dB
            noise = 10.0 ** rng.uniform(-14, -9)
            qp = build_ci_qp(snapshot_from_rows(rows), symbols, gamma, noise, math.pi / order)
            A, b = self.per_user_rows(rows, symbols.s, gamma, noise, math.pi / order)
            assert qp.A.flags.c_contiguous and qp.A.shape == (2 * K, 2 * N)
            assert qp.A.tobytes() == A.tobytes() and qp.b.tobytes() == b.tobytes()


class TestSolveMinPower:
    def test_single_user_closed_form(self):
        # align with the channel conjugate and meet Re(lam) = sqrt(gamma*s2):
        # power = gamma*s2/|h|^2
        h = 1.7052e-4
        gamma = np.array([100.0])
        snap = snapshot_from_rows(np.array([[h + 0j]]))
        qp = build_ci_qp(snap, psk_symbols([0], 4), gamma, NOISE_W, THETA)
        sol = solve_min_power(qp)
        expected = 100.0 * NOISE_W / h**2  # = 3.4391360141976336e-2
        assert expected == pytest.approx(3.4391360141976336e-2, rel=1e-12)
        assert sol.power == pytest.approx(expected, rel=1e-8)

    def test_channel_scaling_law(self):
        # feasibility of the CI region depends on the scale of neither
        for users, row_scale, gamma_scale, power_scale, feasible in (
            (3, 3.7, 1.0, 3.7**-2, True),  # channel x c: power / c^2
            (7, 1.0, 3.7, 3.7, True),  # every gamma_k x c: power x c
            (8, 1.0, 3.7, None, False),  # infeasible at every gamma
        ):
            rng = np.random.default_rng(1)
            rows = (rng.normal(size=(users, 4)) + 1j * rng.normal(size=(users, 4))) * 1e-4
            symbols = psk_symbols(np.resize([0, 1, 3], users), 4)
            gamma = np.full(users, 100.0)
            p1 = power_or_none(
                build_ci_qp(snapshot_from_rows(rows), symbols, gamma, NOISE_W, THETA)
            )
            p2 = power_or_none(
                build_ci_qp(snapshot_from_rows(row_scale * rows), symbols,
                            gamma_scale * gamma, NOISE_W, THETA)
            )
            if feasible:
                assert p1 is not None and p2 is not None
                assert p2 == pytest.approx(p1 * power_scale, rel=1e-6)
            else:
                assert p1 is None and p2 is None

    def test_matches_enumeration_oracle(self):
        # K <= 4 is always feasible here; K in {5, 6} includes infeasible draws
        for low, high in ((2, 5), (5, 7)):
            rng = np.random.default_rng(2)
            for _ in range(20):
                K = int(rng.integers(low, high))
                qp, *_ = random_instance(rng, K)
                power = power_or_none(qp)
                oracle = active_set_qp_oracle(qp)
                assert oracle.feasible or K > 4
                if oracle.feasible:
                    assert power == pytest.approx(oracle.power, rel=1e-6)
                else:
                    assert power is None

    def test_kkt_certificate(self):
        for qp in (random_instance(np.random.default_rng(3), 4)[0], overloaded_instance()):
            sol = solve_min_power(qp)
            assert sol.kkt_residual <= 1e-9
            assert np.all(sol.duals >= 0)
            # stationarity: x is the cone combination of constraint normals
            z = np.concatenate([sol.x_opt.real, sol.x_opt.imag])
            assert np.allclose(qp.A.T @ sol.duals, z, atol=1e-12)
            margins = qp.A @ z - qp.b
            assert margins.min() >= -1e-12

    def test_solution_margins_feasible(self):
        rng = np.random.default_rng(4)
        qp, snap, symbols, gamma = random_instance(rng, 3)
        sol = solve_min_power(qp)
        W = recover_beam_matrix(sol.x_opt, symbols)
        for k in range(3):
            lam = received_lambda(snap, W, symbols.s, k)
            assert ci_margin(lam, gamma[k], NOISE_W, THETA) >= -1e-10

    def test_relaxing_target_never_costs_power(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            qp, snap, symbols, gamma = random_instance(rng, 3)
            base = solve_min_power(qp).power
            k = int(rng.integers(0, 3))
            relaxed = gamma.copy()
            relaxed[k] /= 4.0
            p2 = solve_min_power(
                build_ci_qp(snap, symbols, relaxed, NOISE_W, THETA)
            ).power
            assert p2 <= base * (1 + 1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        qp, *_ = random_instance(rng, 4)
        s1 = solve_min_power(qp)
        s2 = solve_min_power(qp)
        assert np.array_equal(s1.x_opt, s2.x_opt)
        assert s1.power == s2.power

    def test_independent_of_memory_layout(self):
        rng = np.random.default_rng(8)
        for num_users in (1, 2, 3, 4) * 3:
            qp, *_ = random_instance(rng, num_users)
            fortran = QPInstance(A=np.asfortranarray(qp.A), b=qp.b)
            s1, s2 = solve_min_power(qp), solve_min_power(fortran)
            assert s1.x_opt.tobytes() == s2.x_opt.tobytes()
            assert s1.duals.tobytes() == s2.duals.tobytes()
            assert (s1.power, s1.kkt_residual) == (s2.power, s2.kkt_residual)

    def test_no_factorization_of_an_empty_active_set(self, monkeypatch):
        # the first step adds a row to an empty active set, whose direction is
        # that row itself: no QR of a matrix without columns
        rng = np.random.default_rng(9)
        qps = [random_instance(rng, k)[0] for k in (1, 2, 3, 4)] + [overloaded_instance()]
        zero = build_ci_qp(snapshot_from_rows(np.zeros((1, 2), dtype=complex)),
                           psk_symbols([0], 4), np.array([100.0]), NOISE_W, THETA)
        shapes, qr = [], np.linalg.qr
        monkeypatch.setattr(precoder.np.linalg, "qr",
                            lambda a, *args, **kw: shapes.append(a.shape) or qr(a, *args, **kw))
        for qp in qps:
            assert solve_min_power(qp).feasible
        assert power_or_none(zero) is None
        assert shapes and all(cols > 0 for _, cols in shapes)

    def test_zero_channel_infeasible(self):
        snap = snapshot_from_rows(np.zeros((1, 2), dtype=complex))
        qp = build_ci_qp(snap, psk_symbols([0], 4), np.array([100.0]), NOISE_W, THETA)
        assert power_or_none(qp) is None

    def test_contradictory_pair_infeasible(self):
        qp = QPInstance(A=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                        b=np.array([1.0, 1.0]))  # z0 >= 1 and z0 <= -1
        assert power_or_none(qp) is None


def overloaded_k6_instance():
    """Six users on four waveguides: 12 CI rows in 8 unknowns."""
    cfg = ExperimentConfig(num_users=6, master_seed=11)
    geom, symbols = generate_scenario(cfg, 0, num_pas=5)
    snap = effective_channels(geom, fixed_uniform_placement(geom), cfg.params)
    return build_ci_qp(snap, symbols, np.full(6, 10.0), cfg.noise_w, cfg.theta_th)


def assert_same_solution(s1, s2):
    assert s1.x_opt.tobytes() == s2.x_opt.tobytes()
    assert s1.duals.tobytes() == s2.duals.tobytes()
    assert (s1.power, s1.kkt_residual, s1.active) == (s2.power, s2.kkt_residual, s2.active)


def equality_multipliers(qp, rows):
    """Multipliers of the row-normalized equality system on rows, and the
    worst row margin of its point, relative to the largest normalized b."""
    norms = np.linalg.norm(qp.A, axis=1)
    An, bn = qp.A / norms[:, None], qp.b / norms
    G = An[rows] @ An[rows].T
    mu = np.linalg.solve(G, bn[rows])
    margins = An @ (An[rows].T @ mu) - bn
    return mu, margins.min() / np.abs(bn).max()


def count_qrs(monkeypatch):
    """Record the mode and shape of every np.linalg.qr call the solver makes;
    mode "raw" (the reflectors, no Q) is recorded as the R-only "r"."""
    calls, qr = [], np.linalg.qr
    monkeypatch.setattr(precoder.np.linalg, "qr", lambda a, mode="reduced": (
        calls.append(("r" if mode == "raw" else mode, a.shape)) or qr(a, mode=mode)))
    return calls


class TestWarmStart:
    """solve_min_power(qp, active) starts its one Goldfarb-Idnani loop from
    the sorted hint, or from every row without one, pruned of the rows with a
    negative multiplier until the rest are a valid dual start (independent,
    every multiplier >= 0): with no row violated it returns their point
    without a step, otherwise the loop goes on from there. Dependent rows,
    more rows than unknowns or an empty set start from z = 0. The certificate
    solves the final rows in increasing order, so every start that ends on the
    same rows gives the same bits. That is every start where the final active
    set is unique; with a row repeated at another scale, starts that end on
    the other, equivalent set agree to rounding."""

    def qps(self):
        rng = np.random.default_rng(12)
        return [random_instance(rng, k)[0] for k in (1, 2, 3, 4, 4, 4)] + [
            overloaded_k6_instance()]

    def test_own_active_set_is_bit_identical(self):
        for qp in self.qps():
            cold = solve_min_power(qp)
            assert cold.active and len(set(cold.active)) == len(cold.active)
            assert_same_solution(solve_min_power(qp, active=cold.active), cold)

    def test_warm_path_skips_the_loop(self, monkeypatch):
        # the warm path factorizes only the given rows, once, and the
        # certificate reuses that factorization's point and margins
        qp = overloaded_k6_instance()
        cold = solve_min_power(qp)
        calls = count_qrs(monkeypatch)
        solve_min_power(qp, active=cold.active)
        assert calls == [("r", (8, len(cold.active)))]

    def test_negative_multiplier_rows_are_pruned(self):
        # the optimal rows plus one more, with a negative multiplier among
        # them: the start drops those rows, and the solve ends on the cold
        # solution bit for bit
        tried = 0
        for qp in self.qps():
            cold = solve_min_power(qp)
            for row in sorted(set(range(qp.A.shape[0])) - set(cold.active)):
                rows = list(cold.active) + [row]
                if len(rows) > qp.A.shape[1]:
                    continue
                mu, _ = equality_multipliers(qp, rows)
                if mu.min() < 0:
                    tried += 1
                    assert_same_solution(solve_min_power(qp, active=rows), cold)
        assert tried >= 3

    def test_violated_row_continues_the_loop(self, monkeypatch):
        # one row of a larger active set: its multiplier is b_i > 0, and a
        # lone tight row would be optimal, so another row is violated; the
        # loop goes on from that row to the cold solve's active set
        calls = count_qrs(monkeypatch)

        def solve(qp, hint=None):
            calls.clear()
            return solve_min_power(qp, active=hint), sum(mode == "reduced" for mode, _ in calls)

        tried = shorter = 0
        for qp in self.qps():
            cold, _ = solve(qp)
            _, zero_qrs = solve(qp, ())  # an empty start: the loop from z = 0
            if len(cold.active) < 2:
                continue
            for row in cold.active:
                mu, worst = equality_multipliers(qp, [row])
                assert mu[0] > 0 and worst < -1e-6
                tried += 1
                warm, _ = solve(qp, (row,))
                assert set(warm.active) == set(cold.active)
                assert warm.power == pytest.approx(cold.power, rel=1e-12, abs=0.0)
                assert warm.kkt_residual <= 1e-9
            # a one-row seed saves only the first step from z = 0, which
            # factorizes nothing; a seed of all but one optimal row saves
            # every factorization but the last step's
            for drop in range(len(cold.active)):
                rows = list(cold.active[:drop] + cold.active[drop + 1:])
                mu, worst = equality_multipliers(qp, rows)
                if len(rows) > 1 and mu.min() >= 0 and worst < -1e-6:
                    shorter += 1
                    warm, qrs = solve(qp, rows)
                    assert set(warm.active) == set(cold.active)
                    assert warm.kkt_residual <= 1e-9
                    assert qrs < zero_qrs
        assert tried >= 3 and shorter >= 3

    def test_any_hint_gives_the_cold_optimum(self):
        # random row subsets: valid dual starts (violating rows or not),
        # negative multipliers and dependent rows alike
        rng = np.random.default_rng(14)
        for qp in self.qps():
            m = qp.A.shape[0]
            cold = solve_min_power(qp)
            oracle = active_set_qp_oracle(qp) if m <= 12 else None
            assert oracle is None or cold.power == pytest.approx(oracle.power, rel=1e-6)
            for _ in range(40):
                hint = rng.choice(m, int(rng.integers(1, m + 1)), replace=False)
                warm = solve_min_power(qp, active=hint.tolist())
                assert warm.power == pytest.approx(cold.power, rel=1e-12, abs=0.0)
                assert warm.kkt_residual <= 1e-9 and np.all(warm.duals >= 0)
                z = np.concatenate([warm.x_opt.real, warm.x_opt.imag])
                assert np.allclose(qp.A.T @ warm.duals, z, atol=1e-12)
                if oracle is not None:
                    assert warm.power == pytest.approx(oracle.power, rel=1e-6)

    @pytest.mark.parametrize("entry", [-1, 8, 2.0])
    def test_hint_entries_outside_the_qp_raise(self, entry):
        # m = 8 rows: -1 would index the last row and 2.0 fail inside numpy
        qp = random_instance(np.random.default_rng(1), 4)[0]
        with pytest.raises(ValueError, match=re.escape(f"active entry {entry!r} is not a row "
                                                       "of the 8-row QP")):
            solve_min_power(qp, active=[0, entry])

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_numpy_integer_hints_come_back_as_int(self, dtype):
        # a hint read back from an array, e.g. a saved active set
        qp = random_instance(np.random.default_rng(1), 4)[0]
        cold = solve_min_power(qp)
        warm = solve_min_power(qp, active=np.array(cold.active, dtype=dtype))
        assert warm.active == cold.active
        assert all(type(i) is int for i in warm.active)
        assert json.loads(json.dumps(warm.active)) == list(cold.active)

    def test_every_start_gives_the_same_bits(self):
        # random row subsets of each QP and of a copy with a loose extra row,
        # the sum of two rows: valid dual starts with or without a violated
        # row, negative multipliers, dependent rows, repeated indices, more
        # rows than unknowns, the empty set and every row. A third copy
        # repeats an active row at twice its scale, so the optimum has two
        # equivalent active sets: there every start certifies and agrees with
        # the unhinted solve to a relative 1e-14, not bit for bit.
        rng = np.random.default_rng(15)
        kinds = dict.fromkeys(("negative", "dependent", "valid"), 0)
        tried = other_set = 0
        for base in self.qps():
            i, j = (list(solve_min_power(base).active) + [0, 1])[:2]
            loose = QPInstance(A=np.vstack([base.A, base.A[i] + base.A[j]]),
                               b=np.append(base.b, -base.b.max()))
            twice = QPInstance(A=np.vstack([base.A, 2.0 * base.A[i]]),
                               b=np.append(base.b, 2.0 * base.b[i]))
            for qp in (base, loose, twice):
                m, n = qp.A.shape
                An = qp.A / np.linalg.norm(qp.A, axis=1)[:, None]
                cold = solve_min_power(qp)
                hints = [(), list(range(m)), list(cold.active)[::-1]]
                for _ in range(126):
                    hint = rng.choice(m, int(rng.integers(1, m + 1)), replace=False).tolist()
                    hints.append(hint + hint[:1] if rng.random() < 0.2 else hint)
                for hint in hints:
                    rows = sorted(set(hint))
                    if rows and len(rows) <= n:
                        if np.linalg.matrix_rank(An[rows]) < len(rows):
                            kinds["dependent"] += 1
                        else:
                            mu, _ = equality_multipliers(qp, rows)
                            kinds["negative" if mu.min() < 0 else "valid"] += 1
                    tried += 1
                    warm = solve_min_power(qp, active=hint)
                    if qp is not twice:
                        assert_same_solution(warm, cold)
                        continue
                    other_set += warm.active != cold.active
                    assert warm.feasible and warm.kkt_residual <= 1e-9
                    assert warm.power == pytest.approx(cold.power, rel=1e-14, abs=0.0)
                    assert (np.abs(warm.x_opt - cold.x_opt).max()
                            <= 1e-14 * np.abs(cold.x_opt).max())
        assert tried >= 2700 and min(kinds.values()) >= 20 and other_set >= 20

    def test_unhinted_optimal_start_takes_no_step(self, monkeypatch):
        # K = N = 4: every row is the start, and where pruning it leaves the
        # optimal rows the solve returns their point without a loop step,
        # which would factorize the active rows in reduced mode
        rng = np.random.default_rng(16)
        calls = count_qrs(monkeypatch)
        optimal = 0
        for _ in range(20):
            qp = random_instance(rng, 4)[0]
            rows = list(range(8))
            while rows:  # the pruning, on the normal equations
                mu, worst = equality_multipliers(qp, rows)
                if mu.min() >= 0:
                    break
                rows = [i for i, u in zip(rows, mu) if u >= 0]
            if rows and worst > -1e-9:
                optimal += 1
                calls.clear()
                sol = solve_min_power(qp)
                assert sol.active == tuple(rows)
                assert calls and all(mode == "r" for mode, _ in calls)
        assert optimal >= 5

    def test_overloaded_unhinted_starts_from_zero(self, monkeypatch):
        # 12 rows in 8 unknowns: every row is no start, and the first step
        # from z = 0 adds one row, factorized only at the next step
        qp = overloaded_k6_instance()
        calls = count_qrs(monkeypatch)
        sol = solve_min_power(qp)
        assert calls[0] == ("reduced", (8, 1))
        assert all(cols <= 8 for _, (_, cols) in calls)
        assert_same_solution(sol, solve_min_power(qp, active=()))

    def test_dependent_rows_fall_back(self):
        qp = overloaded_k6_instance()
        cold = solve_min_power(qp)
        # a row repeated at twice its scale: the same constraint, and both
        # multipliers could share its weight
        row = cold.active[0]
        doubled = QPInstance(A=np.vstack([qp.A, 2 * qp.A[row]]),
                             b=np.append(qp.b, 2 * qp.b[row]))
        cold2 = solve_min_power(doubled)
        assert cold2.power == pytest.approx(cold.power, rel=1e-12)
        m = qp.A.shape[0]
        assert row in cold2.active and m not in cold2.active
        for rows in (list(cold2.active) + [m], [m] + list(cold2.active)):
            assert_same_solution(solve_min_power(doubled, active=rows), cold2)
        # more rows than unknowns, and a repeated index
        assert_same_solution(solve_min_power(qp, active=range(9)), cold)
        assert_same_solution(solve_min_power(qp, active=cold.active + cold.active[:1]), cold)

    def test_infeasible_with_hint_raises_farkas(self):
        qp = QPInstance(A=np.array([[1.0, 0.0], [-1.0, 0.0]]), b=np.array([1.0, 1.0]))
        for hint in ((0,), (1,), (0, 1)):
            with pytest.raises(InfeasibleProblemError) as exc:
                solve_min_power(qp, active=hint)
            assert_farkas(qp, exc.value.farkas)

    def test_empty_hint_is_cold(self):
        qp = random_instance(np.random.default_rng(13), 3)[0]
        assert_same_solution(solve_min_power(qp, active=()), solve_min_power(qp))


class TestBeamRecovery:
    def test_single_user_identity(self):
        x = np.array([1 + 2j, 3 - 1j])
        W = recover_beam_matrix(x, SymbolVector(s=np.array([1.0 + 0j])))
        assert np.allclose(W[:, 0], x)

    def test_reproduces_precoded_vector(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            K = int(rng.integers(1, 6))
            x = rng.normal(size=4) + 1j * rng.normal(size=4)
            symbols = psk_symbols(rng.integers(0, 8, K), 8)
            W = recover_beam_matrix(x, symbols)
            assert np.allclose(W @ symbols.s, x, atol=1e-12)

    def test_frobenius_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            K = int(rng.integers(1, 6))
            x = rng.normal(size=4) + 1j * rng.normal(size=4)
            symbols = psk_symbols(rng.integers(0, 4, K), 4)
            W = recover_beam_matrix(x, symbols)
            assert np.linalg.norm(W) ** 2 * K == pytest.approx(np.linalg.norm(x) ** 2, rel=1e-12)

    def test_rank_one_recovery_is_minimal(self):
        # among W with W s = x, the recovered one attains ||x||^2 / K
        rng = np.random.default_rng(9)
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        symbols = psk_symbols([0, 1, 2, 3], 4)
        W0 = recover_beam_matrix(x, symbols)
        for _ in range(50):
            D = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
            D -= np.outer(D @ symbols.s, symbols.s.conj()) / 4  # now D s = 0
            assert np.linalg.norm(W0 + D) ** 2 >= np.linalg.norm(W0) ** 2 - 1e-12

