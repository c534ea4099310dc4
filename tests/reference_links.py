"""Test-only reference geometry and analog stage, one item at a time.

The loops the stacked ``coopsat.geometry.propagate``,
``coopsat.geometry.ground_user_positions``,
``coopsat.geometry.link_geometry`` and ``coopsat.beamforming.
analog_beamform`` replaced: one satellite, one user, one link, one
channel per call, on 3-vectors and single matrices, with ``math``'s
(libm) trigonometry.  The analog stage here scores and combines with
the whole N x N codebook (``build_codebook``) where the stacked one
works one array axis at a time.  The differential tests compare the
stacked geometry with these to the tolerances that
``tests/test_geometry.py`` states, and the analog beams to the
tolerance that ``tests/test_beamforming.py`` states.
``slant_range_km`` gives a link's length in closed form from its
elevation.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from coopsat.channel import ArrayConfig
from coopsat.geometry import (EARTH_RADIUS_KM, EARTH_ROTATION_RAD_S, ConstellationConfig,
                              GroundUser)

_TWO_PI = 2.0 * math.pi


def _rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def propagate(config: ConstellationConfig, t: float) -> list[tuple]:
    """(satellite id, position, velocity, body axes) of every satellite,
    one satellite at a time."""
    a = config.radius_km
    n = config.mean_motion_rad_s
    inc = math.radians(config.inclination_deg)
    total = config.total_sats
    dt = t - config.epoch_s
    states = []
    for p in range(config.planes):
        frame = _rot_z(_TWO_PI * p / config.planes) @ _rot_x(inc)
        for k in range(config.sats_per_plane):
            u = _TWO_PI * (k / config.sats_per_plane
                           + config.phasing_factor * p / total) + n * dt
            cu, su = math.cos(u), math.sin(u)
            pos = frame @ np.array([a * cu, a * su, 0.0])
            vel = frame @ np.array([-a * n * su, a * n * cu, 0.0])
            z_b = -pos / a
            x_b = vel - np.dot(vel, z_b) * z_b
            x_b = x_b / np.linalg.norm(x_b)
            states.append((p * config.sats_per_plane + k, pos, vel,
                           np.array([x_b, np.cross(z_b, x_b), z_b])))
    return states


def ground_user_position(gu: GroundUser, t: float) -> np.ndarray:
    """Inertial position (km) of one ground user at time ``t``."""
    lat = math.radians(gu.latitude_deg)
    lon = math.radians(gu.longitude_deg) + EARTH_ROTATION_RAD_S * t
    r = EARTH_RADIUS_KM + gu.altitude_km
    return r * np.array([math.cos(lat) * math.cos(lon),
                         math.cos(lat) * math.sin(lon),
                         math.sin(lat)])


def link_geometry(sat_position_km: np.ndarray, body_axes: np.ndarray,
                  gu_position_km: np.ndarray) -> tuple[float, float, float, np.ndarray]:
    """(slant range, azimuth, elevation in the satellite body frame,
    direction from the user toward the satellite) of one link."""
    los = sat_position_km - gu_position_km
    slant = np.linalg.norm(los)
    direction = los / slant
    d_body = body_axes @ -direction
    theta = math.degrees(math.asin(float(np.clip(d_body[2], -1.0, 1.0))))
    phi = math.degrees(math.atan2(d_body[1], d_body[0]))
    return float(slant), phi, theta, direction


def _dft_unitary(n: int) -> np.ndarray:
    k = np.arange(n)
    return np.exp(-2j * math.pi * np.outer(k, k) / n) / math.sqrt(n)


@cache
def build_codebook(array: ArrayConfig) -> np.ndarray:
    """Unitary 2D DFT codebook (N x N), one codeword per column: the
    Kronecker product of the 1D DFT codebooks of the two array axes.
    Built once per array layout and shared, so it is read-only."""
    codebook = np.kron(_dft_unitary(array.n_x), _dft_unitary(array.n_y))
    codebook.flags.writeable = False
    return codebook


def codeword_ranking(h: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    """Codeword indices by decreasing score |D^T conj(h)|^2 for one
    channel; the lower index comes first among equal scores."""
    return np.argsort(-np.abs(codebook.T @ h.conj()) ** 2, kind="stable")


def combination(h: np.ndarray, codebook: np.ndarray, chosen) -> np.ndarray:
    """Least-squares combination of the codewords ``chosen`` fitting one
    channel, before the phase projection."""
    d_k = codebook[:, chosen]
    return d_k @ (d_k.conj().T @ h)


def phase_projection(combined: np.ndarray) -> np.ndarray:
    """Unit-modulus phases of ``combined`` (..., N) scaled to 1/sqrt(N);
    entries that are exactly zero get phase zero."""
    mod = np.abs(combined)
    phases = np.where(mod > 0.0, combined / np.where(mod > 0.0, mod, 1.0), 1.0)
    return phases / math.sqrt(combined.shape[-1])


def slant_range_km(config: ConstellationConfig, elevation_deg: float,
                   user_altitude_km: float = 0.0) -> float:
    """Distance from a user at ``user_altitude_km`` (sea level by default)
    to a satellite of ``config`` it sees at ``elevation_deg`` above its
    horizon."""
    el = math.radians(elevation_deg)
    r = EARTH_RADIUS_KM + user_altitude_km
    return math.sqrt(config.radius_km**2 - (r * math.cos(el))**2) - r * math.sin(el)
