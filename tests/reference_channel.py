"""Test-only reference channel draw, one link at a time.

The per-link and per-ray loops the per-epoch ``coopsat.channel``
functions replaced: each link's path loss with its shadow-fading draw,
one ``laplace`` call per cluster center and per ray, the link's path
gains, one ``np.kron`` steering vector per path, and the diffuse rays
added to the direct path one after another.  The trigonometry,
logarithms and powers are ``math``'s and Python's (libm), one value at a
time.  The per-epoch code must consume each stream as these do and
reproduce the ray angles and ray gains bit for bit (``same_bits``).  It
takes numpy's ``log10`` and ``power``, so the path losses and direct-path
gains are compared to the tolerances ``TestReferenceChannel`` states, and
``coopsat.channel.small_scale`` adds the paths in another order, so the
channels are compared to 1e-12 of their norm
(``conftest.close_to_reference``).
"""

from __future__ import annotations

import math

import numpy as np

from coopsat.channel import (SPEED_OF_LIGHT_M_S, ArrayConfig, ChannelConfig,
                             LinkInvalidError, RfConfig)


def path_loss(elevation_deg: float, slant_range_km: float, rf: RfConfig,
              cfg: ChannelConfig, rng: np.random.Generator) -> float:
    """Large-scale path loss of one link in dB: free-space plus a
    shadow-fading draw, cosecant-scaled gaseous absorption, and
    scintillation; a link below the horizon draws nothing."""
    if elevation_deg <= 0.0:
        raise LinkInvalidError(
            f"satellite below horizon (elevation {elevation_deg:.2f} deg)")
    d_m = slant_range_km * 1e3
    fspl = 20.0 * math.log10(4.0 * math.pi * d_m * rf.carrier_frequency_hz
                             / SPEED_OF_LIGHT_M_S)
    gas = cfg.zenith_gas_db / math.sin(math.radians(elevation_deg))
    shadow = float(rng.normal(0.0, cfg.shadow_sigma_db))
    return fspl + shadow + gas + cfg.scintillation_db


def steering_vector(phi_deg: float, theta_deg: float, array: ArrayConfig) -> np.ndarray:
    phi = math.radians(phi_deg)
    theta = math.radians(theta_deg)
    kx = -2j * math.pi * array.element_spacing * math.cos(theta) * math.cos(phi)
    ky = -2j * math.pi * array.element_spacing * math.cos(theta) * math.sin(phi)
    ax = np.exp(kx * np.arange(array.n_x))
    ay = np.exp(ky * np.arange(array.n_y))
    return np.kron(ax, ay) / math.sqrt(array.n_elements)


def sample_ray_angles(phi0_deg: float, theta0_deg: float, cfg: ChannelConfig,
                      rng: np.random.Generator) -> np.ndarray:
    """(azimuth, elevation) of every diffuse ray of one link: cluster
    centers Laplacian around the direct path, rays Laplacian around their
    cluster's center."""
    out = np.empty((cfg.n_clusters * cfg.n_rays, 2))
    b = cfg.angle_spread_deg
    i = 0
    for _ in range(cfg.n_clusters):
        center = rng.laplace(loc=(phi0_deg, theta0_deg), scale=b, size=2)
        for _ in range(cfg.n_rays):
            out[i] = rng.laplace(loc=center, scale=b, size=2)
            i += 1
    return out


def path_coefficients(cfg: ChannelConfig, rng: np.random.Generator) -> np.ndarray:
    """Complex gains of one link's ``cfg.n_paths`` paths, direct path
    first: the direct amplitude and phase, then the ray amplitudes and
    phases, drawn only if the rays carry power."""
    amp0_db = rng.normal(cfg.direct_amp_mean_db, cfg.direct_amp_std_db)
    m0 = 10.0 ** (amp0_db / 20.0) * np.exp(2j * math.pi * rng.uniform())
    n_rays = cfg.n_paths - 1
    if not n_rays:
        return np.array([m0])
    per_ray_power = cfg.multipath_power / n_rays
    amps = rng.rayleigh(scale=math.sqrt(per_ray_power / 2.0), size=n_rays)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n_rays)
    return np.concatenate(([m0], amps * np.exp(1j * phases)))


def small_scale(phi0_deg: float, theta0_deg: float, ray_angles: np.ndarray,
                coefs: np.ndarray, cfg: ChannelConfig,
                array: ArrayConfig) -> np.ndarray:
    """Small-scale fading vector of one link whose direct path arrives
    from (``phi0_deg``, ``theta0_deg``) and whose rays from
    ``ray_angles``, with the ``path_coefficients`` ``coefs``."""
    h = coefs[0] * steering_vector(phi0_deg, theta0_deg, array)
    for (phi, theta), m in zip(ray_angles, coefs[1:]):
        h += m * steering_vector(phi, theta, array)
    return cfg.normalization * h
