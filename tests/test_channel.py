import math

import numpy as np
import pytest

from pinchslp.channel import (
    WaveformParams,
    ci_margin,
    effective_channels,
    received_lambda,
)
from pinchslp.geometry import Vec3, make_geometry
from pinchslp.oracles import freespace_channel, waveguide_phase_vector
from pinchslp.precoder import psk_constellation

PARAMS = WaveformParams.from_carrier(2.8e10, n_eff=1.4)

# frozen from c/(4*pi*f_c) with the pinned c = 2.99792458e8
ETA_28GHZ = 8.520259212923112e-4


def random_geometry(rng, num_users=3, num_waveguides=2, num_pas=3):
    users = [Vec3(float(x), float(y), 0.0) for x, y in rng.uniform(0, 20, (num_users, 2))]
    return make_geometry(
        region_side=20.0,
        height=5.0,
        num_waveguides=num_waveguides,
        waveguide_length=20.0,
        min_spacing=PARAMS.wavelength / 2,
        num_pas_per_waveguide=num_pas,
        users=users,
    )


def random_placement_matrix(rng, geom):
    from pinchslp.geometry import initial_regions

    regions = initial_regions(geom)
    return np.array(
        [[rng.uniform(r.lower, r.upper) for r in regions]
         for _ in range(geom.num_waveguides)]
    )


class TestWaveformParams:
    def test_eta_frozen_value(self):
        assert PARAMS.eta == pytest.approx(ETA_28GHZ, rel=1e-12)

    def test_guide_wavelength_shorter(self):
        assert PARAMS.guide_wavelength < PARAMS.wavelength

    def test_wavenumber_relations(self):
        assert PARAMS.beta1 == pytest.approx(PARAMS.n_eff * PARAMS.beta0, rel=1e-12)
        assert PARAMS.eta == pytest.approx(PARAMS.wavelength / (4 * math.pi), rel=1e-12)

    @pytest.mark.parametrize("carrier, n_eff", [(5e-324, 1.4), (1e300, 1e300)])
    def test_out_of_float_range_rejected(self, carrier, n_eff):
        # an infinite wavelength (zero wavenumbers), or a guide wavelength
        # that underflows to zero
        with pytest.raises(ValueError, match="outside the float range"):
            WaveformParams.from_carrier(carrier, n_eff)


class TestWaveguidePhaseVector:
    def test_zero_position_no_phase(self):
        v = waveguide_phase_vector(np.array([0.0]), PARAMS)
        assert v[0] == pytest.approx(1.0 + 0j, abs=1e-12)

    def test_half_guide_wavelength_flips_sign(self):
        v = waveguide_phase_vector(np.array([PARAMS.guide_wavelength / 2]), PARAMS)
        assert v[0] == pytest.approx(-1.0 + 0j, abs=1e-12)

    def test_full_guide_wavelength_wraps(self):
        v = waveguide_phase_vector(np.array([0.0, PARAMS.guide_wavelength]), PARAMS)
        assert np.allclose(v, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12)

    def test_unit_norm_and_equal_moduli(self):
        rng = np.random.default_rng(0)
        for L in (1, 2, 5, 8):
            v = waveguide_phase_vector(rng.uniform(0, 20, L), PARAMS)
            assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
            assert np.allclose(np.abs(v), 1 / math.sqrt(L), atol=1e-12)


class TestFreespaceChannel:
    def test_modulus_below_pa(self):
        h = freespace_channel(Vec3(3, 4, 0), [Vec3(3, 4, 5)], PARAMS)
        assert abs(h[0]) == pytest.approx(ETA_28GHZ / 5, rel=1e-12)

    def test_modulus_decreases_with_offset(self):
        user = Vec3(5, 5, 0)
        mods = [
            abs(freespace_channel(user, [Vec3(5 + off, 5, 5)], PARAMS)[0])
            for off in (0.0, 1.0, 3.0, 9.0)
        ]
        assert all(a > b for a, b in zip(mods, mods[1:]))

    def test_phase_convention(self):
        user, pa = Vec3(1, 2, 0), Vec3(4, 6, 5)
        q = math.sqrt(9 + 16 + 25)
        h = freespace_channel(user, [pa], PARAMS)
        expected = PARAMS.eta * np.exp(-1j * PARAMS.beta0 * q) / q
        assert h[0] == pytest.approx(expected, rel=1e-12)


class TestEffectiveChannels:
    def test_degenerate_single_element(self):
        geom = make_geometry(20, 5, 1, 20, 0.005, 1, [Vec3(4, 11, 0)])
        x = np.array([[7.0]])
        snap = effective_channels(geom, x, PARAMS)
        expected = snap.raw[0, 0, 0] * np.exp(-1j * PARAMS.beta1 * 7.0)
        assert snap.effective[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_matches_dense_blockdiag_oracle(self):
        # oracle: assemble H_k (1 x NL) and the block-diagonal guide response
        # (NL x N) explicitly and multiply
        rng = np.random.default_rng(1)
        geom = random_geometry(rng)
        x = random_placement_matrix(rng, geom)
        snap = effective_channels(geom, x, PARAMS)
        N, L = geom.num_waveguides, geom.num_pas_per_waveguide
        for k, user in enumerate(geom.users):
            H_k = np.zeros(N * L, dtype=complex)
            F = np.zeros((N * L, N), dtype=complex)
            for n in range(N):
                pas = [Vec3(x[n, l], geom.waveguide_y[n], geom.height) for l in range(L)]
                H_k[n * L : (n + 1) * L] = freespace_channel(user, pas, PARAMS)
                F[n * L : (n + 1) * L, n] = waveguide_phase_vector(x[n], PARAMS)
            assert np.allclose(snap.effective[k], H_k @ F, atol=1e-12)

    def test_raw_modulus_identity(self):
        rng = np.random.default_rng(2)
        geom = random_geometry(rng)
        x = random_placement_matrix(rng, geom)
        snap = effective_channels(geom, x, PARAMS)
        assert np.allclose(np.abs(snap.raw), PARAMS.eta / snap.distances, rtol=1e-12)

    def test_order_within_waveguide_irrelevant(self):
        rng = np.random.default_rng(3)
        geom = random_geometry(rng, num_waveguides=1)
        x = random_placement_matrix(rng, geom)
        snap = effective_channels(geom, x, PARAMS)
        # permuted positions violate the ordering constraint but the sum is
        # order-independent, so compare effective rows directly
        perm = np.array([[x[0, 2], x[0, 0], x[0, 1]]])
        snap_perm = effective_channels(geom, perm, PARAMS)
        assert np.allclose(snap.effective, snap_perm.effective, atol=1e-15)

    def test_triangle_inequality_bound(self):
        rng = np.random.default_rng(4)
        geom = random_geometry(rng)
        x = random_placement_matrix(rng, geom)
        snap = effective_channels(geom, x, PARAMS)
        L = geom.num_pas_per_waveguide
        bound = (PARAMS.eta / snap.distances).sum(axis=2) / math.sqrt(L)
        assert np.all(np.abs(snap.effective) <= bound + 1e-15)


def triple_sum_lambda(geom, x, params, W, s, k):
    """Independent per-element evaluation of the received point."""
    total = 0.0 + 0.0j
    L = geom.num_pas_per_waveguide
    for m in range(len(s)):
        for n in range(geom.num_waveguides):
            for l in range(L):
                q = math.sqrt(
                    (geom.users[k].x - x[n, l]) ** 2
                    + (geom.users[k].y - geom.waveguide_y[n]) ** 2
                    + geom.height**2
                )
                phase = -(params.beta0 * q + params.beta1 * x[n, l])
                total += (
                    np.exp(1j * phase) / q * W[n, m] * s[m]
                )
    return params.eta / math.sqrt(L) * total / s[k]


class TestReceivedLambda:
    def test_single_user_is_plain_product(self):
        rng = np.random.default_rng(5)
        geom = random_geometry(rng, num_users=1)
        x = random_placement_matrix(rng, geom)
        snap = effective_channels(geom, x, PARAMS)
        w = rng.normal(size=(2, 1)) + 1j * rng.normal(size=(2, 1))
        lam = received_lambda(snap, w, np.array([1.0 + 0j]), 0)
        assert lam == pytest.approx(complex(snap.effective[0] @ w[:, 0]), rel=1e-12)

    def test_matches_triple_sum_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            geom = random_geometry(rng)
            x = random_placement_matrix(rng, geom)
            snap = effective_channels(geom, x, PARAMS)
            K, N = 3, geom.num_waveguides
            s = psk_constellation(4)[rng.integers(0, 4, K)]
            W = rng.normal(size=(N, K)) + 1j * rng.normal(size=(N, K))
            for k in range(K):
                lam = received_lambda(snap, W, s, k)
                oracle = triple_sum_lambda(geom, x, PARAMS, W, s, k)
                assert abs(lam - oracle) / abs(oracle) < 1e-10

    def test_linear_in_beam_scale(self):
        rng = np.random.default_rng(7)
        geom = random_geometry(rng)
        x = random_placement_matrix(rng, geom)
        snap = effective_channels(geom, x, PARAMS)
        s = psk_constellation(4)[:3]
        W = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        lam = received_lambda(snap, W, s, 1)
        assert received_lambda(snap, 2.5 * W, s, 1) == pytest.approx(2.5 * lam, rel=1e-12)

    def test_invariant_under_common_rotation(self):
        # rotating the whole constellation by one unit factor, beams fixed
        rng = np.random.default_rng(8)
        geom = random_geometry(rng)
        x = random_placement_matrix(rng, geom)
        snap = effective_channels(geom, x, PARAMS)
        s = psk_constellation(4)[rng.integers(0, 4, 3)]
        W = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        rot = np.exp(1j * 0.83)
        for k in range(3):
            a = received_lambda(snap, W, s, k)
            b = received_lambda(snap, W, rot * s, k)
            assert a == pytest.approx(b, rel=1e-12)


class TestCiMargin:
    def test_boundary_point(self):
        thr = math.sqrt(100 * 1e-11)
        assert ci_margin(thr + 0j, 100, 1e-11, math.pi / 4) == pytest.approx(0.0, abs=1e-18)

    def test_unit_tan_plugin(self):
        thr = math.sqrt(100 * 1e-11)
        assert ci_margin(2 * thr + 0j, 100, 1e-11, math.pi / 4) == pytest.approx(thr, rel=1e-12)

    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            lam = complex(rng.normal(), rng.normal())
            a = ci_margin(lam, 10, 1e-11, math.pi / 8)
            b = ci_margin(lam.conjugate(), 10, 1e-11, math.pi / 8)
            assert a == pytest.approx(b, abs=1e-15)
