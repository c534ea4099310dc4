"""Test-only reference channel draw.

The per-ray loops the batched ``coopsat.channel`` functions replaced:
one ``np.kron`` steering vector and one ``laplace`` call per ray, and
the diffuse rays added to the direct path one after another.  The
batched code must reproduce these arrays bit for bit, so the
differential tests compare them with ``np.array_equal``.
"""

from __future__ import annotations

import math

import numpy as np

from coopsat.channel import ArrayConfig, SmallScaleConfig


def steering_vector(phi_deg: float, theta_deg: float, array: ArrayConfig) -> np.ndarray:
    phi = math.radians(phi_deg)
    theta = math.radians(theta_deg)
    kx = -2j * math.pi * array.element_spacing * math.cos(theta) * math.cos(phi)
    ky = -2j * math.pi * array.element_spacing * math.cos(theta) * math.sin(phi)
    ax = np.exp(kx * np.arange(array.n_x))
    ay = np.exp(ky * np.arange(array.n_y))
    return np.kron(ax, ay) / math.sqrt(array.n_elements)


def sample_ray_angles(phi0_deg: float, theta0_deg: float, cfg: SmallScaleConfig,
                      rng: np.random.Generator) -> np.ndarray:
    out = np.empty((cfg.n_clusters * cfg.n_rays, 2))
    b = cfg.angle_spread_deg
    i = 0
    for _ in range(cfg.n_clusters):
        center = rng.laplace(loc=(phi0_deg, theta0_deg), scale=b, size=2)
        for _ in range(cfg.n_rays):
            out[i] = rng.laplace(loc=center, scale=b, size=2)
            i += 1
    return out


def small_scale(phi0_deg: float, theta0_deg: float, ray_angles: np.ndarray,
                cfg: SmallScaleConfig, array: ArrayConfig,
                rng: np.random.Generator) -> np.ndarray:
    amp0_db = rng.normal(cfg.direct_amp_mean_db, cfg.direct_amp_std_db)
    m0 = 10.0 ** (amp0_db / 20.0) * np.exp(2j * math.pi * rng.uniform())

    h = m0 * steering_vector(phi0_deg, theta0_deg, array)

    n_paths = cfg.n_clusters * cfg.n_rays
    per_ray_power = cfg.multipath_power / n_paths
    if per_ray_power > 0.0:
        amps = rng.rayleigh(scale=math.sqrt(per_ray_power / 2.0), size=n_paths)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=n_paths)
        for (phi, theta), m in zip(ray_angles, amps * np.exp(1j * phases)):
            h += m * steering_vector(phi, theta, array)
    return cfg.normalization * h
