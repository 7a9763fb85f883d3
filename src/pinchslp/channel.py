"""In-waveguide phase response, pinching and conventional-array LoS channels, CI scalars.

Sign convention, fixed globally: a channel entry for an antenna at distance q
carries exp(-j*beta0*q) and the in-guide factor carries exp(-j*beta1*x), so the
total per-antenna phase is -(beta0*q + beta1*x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import SystemGeometry, distances

SPEED_OF_LIGHT = 2.99792458e8  # m/s, pinned for reproducible wavelengths


@dataclass(frozen=True)
class WaveformParams:
    """Carrier-derived constants: wavelengths, wavenumbers, reference path gain.

    eta is the free-space amplitude at 1 m reference distance, c/(4*pi*f_c);
    beta0 and beta1 are the free-space and in-guide wavenumbers (rad/m).
    """

    carrier_freq: float
    n_eff: float
    wavelength: float
    guide_wavelength: float
    eta: float
    beta0: float
    beta1: float

    @classmethod
    @lru_cache(maxsize=64, typed=True)  # each config build and scheme run asks again
    def from_carrier(cls, carrier_freq: float, n_eff: float = 1.4) -> "WaveformParams":
        if carrier_freq <= 0 or n_eff <= 0:
            raise ValueError("carrier frequency and refractive index must be positive")
        wavelength = SPEED_OF_LIGHT / carrier_freq
        guide_wavelength = wavelength / n_eff
        eta = wavelength / (4.0 * math.pi)
        beta0 = 2.0 * math.pi / wavelength if wavelength else math.inf
        beta1 = 2.0 * math.pi / guide_wavelength if guide_wavelength else math.inf
        if not all(0 < v < math.inf for v in (wavelength, eta, beta0, beta1)):
            raise ValueError(f"carrier frequency {carrier_freq} with refractive index {n_eff} "
                             "gives a wavelength or wavenumber outside the float range")
        return cls(
            carrier_freq=carrier_freq,
            n_eff=n_eff,
            wavelength=wavelength,
            guide_wavelength=guide_wavelength,
            eta=eta,
            beta0=beta0,
            beta1=beta1,
        )


@dataclass(frozen=True)
class ChannelSnapshot:
    """Per-user channels at one placement.

    effective: K x N complex rows mapping per-waveguide inputs to each user.
    raw: K x N x L complex free-space entries (modulus eta/distance).
    distances: K x N x L user-to-antenna distances.
    """

    effective: np.ndarray
    raw: np.ndarray
    distances: np.ndarray


def _free_space(geom: SystemGeometry, x, y, params: WaveformParams):
    """Free-space entries eta * e^{-j*beta0*q} / q from every user to antennas at
    plane coordinates (x, y) and the geometry's height: (raw, q), users first."""
    dist = distances(geom.user_xy[:, 0], geom.user_xy[:, 1], x, y, geom.height)
    return params.eta * np.exp(-1j * params.beta0 * dist) / dist, dist


def effective_channels(
    geom: SystemGeometry, x_coords: np.ndarray, params: WaveformParams
) -> ChannelSnapshot:
    """Effective per-user channel rows for a placement: free-space row times
    the block-diagonal in-guide response.

    effective[k, n] = (1/sqrt(L)) * sum_l raw[k, n, l] * exp(-j*beta1*x[n, l]).
    """
    x = np.asarray(x_coords, dtype=float)
    N, L = geom.num_waveguides, geom.num_pas_per_waveguide
    if x.shape != (N, L):
        raise ValueError(f"placement shape {x.shape} != ({N}, {L})")
    raw, dist = _free_space(geom, x, np.asarray(geom.waveguide_y)[:, None], params)  # [k, n, l]
    guide = np.exp(-1j * params.beta1 * x) / math.sqrt(L)
    effective = np.einsum("knl,nl->kn", raw, guide)
    return ChannelSnapshot(effective=effective, raw=raw, distances=dist)


def conventional_array_snapshot(
    geom: SystemGeometry, params: WaveformParams
) -> ChannelSnapshot:
    """Channels of a conventional half-wavelength array baseline.

    N fixed radiators at (i*lambda/2, region_side/2, height), one per RF
    chain, with no in-guide phase response: each effective entry is the raw
    free-space channel eta * e^{-j*beta0*q} / q.
    """
    ax = np.arange(geom.num_waveguides) * (params.wavelength / 2.0)
    raw, dist = _free_space(geom, ax, geom.region_side / 2.0, params)  # [k, i]
    return ChannelSnapshot(effective=raw, raw=raw[:, :, None], distances=dist[:, :, None])


def received_lambda(
    snapshot: ChannelSnapshot, W: np.ndarray, s: np.ndarray, k: int
) -> complex:
    """Noise-free received point of user k rotated into its own symbol frame:
    (h_k_eff @ W @ s) / s_k."""
    return complex(snapshot.effective[k] @ (W @ s) / s[k])


def ci_margin(lam, gamma, noise_power: float, theta_th: float):
    """Constructive-interference margin of a received point, or elementwise of
    arrays of points and targets.

    Nonnegative iff the point lies inside the angular decision sector at the
    required SINR level: (Re(lam) - sqrt(gamma*sigma^2))*tan(theta_th) - |Im(lam)|.
    """
    threshold = np.sqrt(gamma * noise_power)
    return (lam.real - threshold) * math.tan(theta_th) - abs(lam.imag)
