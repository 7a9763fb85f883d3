"""In-waveguide phase response, free-space LoS channels, and CI-related scalars.

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
    ux, uy, wy = geom.user_xy[:, 0], geom.user_xy[:, 1], np.asarray(geom.waveguide_y)[:, None]
    dist = distances(ux, uy, x, wy, geom.height)  # [k, n, l]
    raw = params.eta * np.exp(-1j * params.beta0 * dist) / dist
    guide = np.exp(-1j * params.beta1 * x) / math.sqrt(L)
    effective = np.einsum("knl,nl->kn", raw, guide)
    return ChannelSnapshot(effective=effective, raw=raw, distances=dist)


def received_lambda(
    snapshot: ChannelSnapshot, W: np.ndarray, s: np.ndarray, k: int
) -> complex:
    """Noise-free received point of user k rotated into its own symbol frame:
    (h_k_eff @ W @ s) / s_k."""
    return complex(snapshot.effective[k] @ (W @ s) / s[k])


def sinr(snapshot: ChannelSnapshot, W: np.ndarray, k: int, noise_power: float) -> float:
    """SINR for decoding user k's stream under beamforming matrix W."""
    if noise_power <= 0:
        raise ValueError("noise power must be positive")
    gains = np.abs(snapshot.effective[k] @ W) ** 2
    signal = gains[k]
    interference = gains.sum() - signal
    return float(signal / (interference + noise_power))


def ci_margin(lam, gamma, noise_power: float, theta_th: float):
    """Constructive-interference margin of a received point, or elementwise of
    arrays of points and targets.

    Nonnegative iff the point lies inside the angular decision sector at the
    required SINR level: (Re(lam) - sqrt(gamma*sigma^2))*tan(theta_th) - |Im(lam)|.
    """
    threshold = np.sqrt(gamma * noise_power)
    return (lam.real - threshold) * math.tan(theta_th) - abs(lam.imag)
