"""Walker constellation propagation and satellite-ground link geometry.

Model: spherical Earth, circular two-body orbits in a non-rotating
Earth-centered frame.  Ground users sit on the rotating Earth (sidereal
rate), so the time-varying network topology emerges from the relative
motion without a full ephemeris stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_KM = 6371.0
EARTH_MU_KM3_S2 = 398600.4418
EARTH_ROTATION_RAD_S = 7.292115e-5  # sidereal rate

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ConstellationConfig:
    """Walker-delta constellation of circular orbits.

    ``phasing_factor`` sets the inter-plane phase offset in units of
    360 degrees / total satellite count.
    """

    planes: int = 6
    sats_per_plane: int = 8
    inclination_deg: float = 40.0
    altitude_km: float = 1200.0
    phasing_factor: int = 3  # keeps the bundled city set covered full-time
    epoch_s: float = 0.0

    def __post_init__(self) -> None:
        if self.planes < 1:
            raise ValueError("planes: must be >= 1")
        if self.sats_per_plane < 1:
            raise ValueError("sats_per_plane: must be >= 1")
        if not 0.0 <= self.inclination_deg <= 180.0:
            raise ValueError("inclination_deg: must be in [0, 180]")
        if self.altitude_km <= 0.0:
            raise ValueError("altitude_km: must be > 0")

    @property
    def total_sats(self) -> int:
        return self.planes * self.sats_per_plane

    @property
    def radius_km(self) -> float:
        return EARTH_RADIUS_KM + self.altitude_km

    @property
    def mean_motion_rad_s(self) -> float:
        return math.sqrt(EARTH_MU_KM3_S2 / self.radius_km**3)


@dataclass(frozen=True, eq=False)
class SatelliteState:
    """Satellite position/velocity plus its body frame.

    ``body_axes`` rows are the unit x/y/z axes in the inertial frame:
    x along the velocity (projected orthogonal to nadir), z nadir
    pointing, y completing the right-handed triad.
    """

    satellite_id: int
    position_km: np.ndarray
    velocity_km_s: np.ndarray
    body_axes: np.ndarray  # (3, 3), rows = x, y, z


@dataclass(frozen=True)
class GroundUser:
    user_id: int
    latitude_deg: float
    longitude_deg: float
    altitude_km: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValueError(f"latitude_deg out of range: {self.latitude_deg}")
        if not -180.0 <= self.longitude_deg < 180.0:
            raise ValueError(f"longitude_deg out of range: {self.longitude_deg}")


@dataclass(frozen=True, eq=False)
class LinkGeometry:
    """Geometry of one satellite-user link.

    ``azimuth_sat_deg`` / ``elevation_sat_deg`` locate the user as seen
    from the satellite body frame (elevation measured from the body x-y
    plane toward nadir, so a user straight below sits at 90 degrees).
    ``direction`` is the inertial unit vector from the user toward the
    satellite.
    """

    elevation_deg: float
    slant_range_km: float
    azimuth_sat_deg: float
    elevation_sat_deg: float
    direction: np.ndarray  # (3,)


@dataclass(frozen=True, eq=False)
class VisibilitySets:
    """Mutual visibility of the satellites ``sat_ids`` and users
    ``gu_ids``, in the order ``visibility`` was given them:
    ``visible[s, u]`` holds when satellite row s is at or above the
    elevation threshold at user row u, whose elevation above that user's
    horizon is ``elevation_deg[s, u]``.  ``per_gu`` gives the satellites
    each user sees, by id."""

    sat_ids: tuple[int, ...]
    gu_ids: tuple[int, ...]
    visible: np.ndarray        # (S, U) bool
    elevation_deg: np.ndarray  # (S, U) float

    @property
    def per_gu(self) -> dict[int, frozenset[int]]:
        return {g: frozenset(self.sat_ids[i] for i in np.flatnonzero(col))
                for g, col in zip(self.gu_ids, self.visible.T)}


def _rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _unit(vec: np.ndarray) -> np.ndarray:
    return vec / np.linalg.norm(vec)


def propagate(config: ConstellationConfig, t: float) -> list[SatelliteState]:
    """Propagate every satellite of the constellation to time ``t`` (s).

    Satellite ids run plane-major: id = plane * sats_per_plane + slot.
    """
    if t < 0.0:
        raise ValueError("t must be >= 0")
    a = config.radius_km
    n = config.mean_motion_rad_s
    inc = math.radians(config.inclination_deg)
    total = config.total_sats
    dt = t - config.epoch_s

    states = []
    for p in range(config.planes):
        raan = _TWO_PI * p / config.planes
        frame = _rot_z(raan) @ _rot_x(inc)
        for k in range(config.sats_per_plane):
            u0 = _TWO_PI * (k / config.sats_per_plane
                            + config.phasing_factor * p / total)
            u = u0 + n * dt
            cu, su = math.cos(u), math.sin(u)
            pos = frame @ np.array([a * cu, a * su, 0.0])
            vel = frame @ np.array([-a * n * su, a * n * cu, 0.0])
            z_b = -pos / a
            x_b = _unit(vel - np.dot(vel, z_b) * z_b)
            # z_b x x_b, component by component as np.cross rounds it
            (z0, z1, z2), (x0, x1, x2) = z_b.tolist(), x_b.tolist()
            y_b = (z1 * x2 - z2 * x1, z2 * x0 - z0 * x2, z0 * x1 - z1 * x0)
            states.append(SatelliteState(
                satellite_id=p * config.sats_per_plane + k,
                position_km=pos,
                velocity_km_s=vel,
                body_axes=np.array([(x0, x1, x2), y_b, (z0, z1, z2)]),
            ))
    return states


def ground_user_position(gu: GroundUser, t: float) -> np.ndarray:
    """Inertial position (km) of a ground user at time ``t``."""
    lat = math.radians(gu.latitude_deg)
    lon = math.radians(gu.longitude_deg) + EARTH_ROTATION_RAD_S * t
    r = EARTH_RADIUS_KM + gu.altitude_km
    return r * np.array([math.cos(lat) * math.cos(lon),
                         math.cos(lat) * math.sin(lon),
                         math.sin(lat)])


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the last axis of broadcastable (..., 3) arrays, rounded
    as ``np.dot`` of two vectors: the stacked 1x3 by 3x1 product calls
    the same BLAS ddot, where ``einsum`` or ``sum`` round differently."""
    a, b = np.broadcast_arrays(a, b)
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def elevation_deg(sat_position_km: np.ndarray,
                  gu_position_km: np.ndarray) -> np.ndarray:
    """Elevation of the satellite above the user's local horizon.

    Positions are (..., 3) arrays that broadcast against each other, so
    S x 1 x 3 satellites against U x 3 users give an S x U array.  The
    elevation of one link feeds its path loss, whose bits the result
    files pin, so every step rounds as the one-pair arithmetic: norms
    and dot products by BLAS ddot, and the arcsine by ``math.asin``
    (``np.arcsin`` may differ in the last bit).
    """
    gu = np.asarray(gu_position_km, dtype=float)
    los = np.asarray(sat_position_km, dtype=float) - gu
    los = los / np.sqrt(_dot(los, los))[..., None]
    zenith = gu / np.sqrt(_dot(gu, gu))[..., None]
    sin_el = np.clip(_dot(los, zenith), -1.0, 1.0)
    return np.degrees([math.asin(x) for x in sin_el.ravel().tolist()]).reshape(sin_el.shape)


def link_geometry(sat: SatelliteState, gu: GroundUser, t: float = 0.0, *,
                  elevation_deg: float) -> LinkGeometry:
    """Full geometry of the ``sat``-``gu`` link, whose elevation above
    the user's horizon (``visibility`` has it for every pair) is given."""
    los = sat.position_km - ground_user_position(gu, t)
    slant = np.linalg.norm(los)
    direction = los / slant

    # user direction expressed in the satellite body frame (negation is
    # exact, so these are the bits of the normalized user - satellite)
    d_body = sat.body_axes @ -direction
    theta = math.degrees(math.asin(float(np.clip(d_body[2], -1.0, 1.0))))
    phi = math.degrees(math.atan2(d_body[1], d_body[0]))
    return LinkGeometry(elevation_deg=elevation_deg, slant_range_km=float(slant),
                        azimuth_sat_deg=phi, elevation_sat_deg=theta,
                        direction=direction)


def visibility(states: list[SatelliteState], gus: list[GroundUser],
               min_elevation_deg: float = 10.0, t: float = 0.0) -> VisibilitySets:
    """Visibility sets at elevation threshold ``min_elevation_deg``, from
    the elevations of every (satellite, user) pair as one array."""
    if not 0.0 <= min_elevation_deg < 90.0:
        raise ValueError("min_elevation_deg must be in [0, 90)")
    sat_pos = np.array([s.position_km for s in states]).reshape(len(states), 1, 3)
    gu_pos = np.array([ground_user_position(gu, t) for gu in gus]).reshape(len(gus), 3)
    elevation = elevation_deg(sat_pos, gu_pos)
    return VisibilitySets(
        sat_ids=tuple(s.satellite_id for s in states),
        gu_ids=tuple(gu.user_id for gu in gus),
        visible=elevation >= min_elevation_deg,
        elevation_deg=elevation,
    )
