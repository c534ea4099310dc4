"""Walker constellation propagation and satellite-ground link geometry.

Model: spherical Earth, circular two-body orbits in a non-rotating
Earth-centered frame.  Ground users sit on the rotating Earth (sidereal
rate), so the time-varying network topology emerges from the relative
motion without a full ephemeris stack.

Satellites and links are computed as arrays, one row each, in plain
numpy: a link rounds the same alone as in any stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

EARTH_RADIUS_KM = 6371.0
EARTH_MU_KM3_S2 = 398600.4418
EARTH_ROTATION_RAD_S = 7.292115e-5  # sidereal rate

_TWO_PI = 2.0 * math.pi
_RADIANS_PER_DEGREE = math.pi / 180.0  # math.radians multiplies by it


def _is_real(value) -> bool:
    """True for a value a range check compares: any other is left to
    ``ScenarioConfig``'s type check, which reports it first."""
    return isinstance(value, Real)


def _check_ranges(config, ranges: dict[str, tuple[float, float]]) -> None:
    """Raise ``ValueError`` naming the first field of ``config`` outside
    its closed range ``ranges[field]``.  A value that is not a number or
    not finite is left to ``ScenarioConfig``'s type check, which reports
    it first (and accepts -inf for ``multipath_power_db``, the switch that
    turns the rays off)."""
    for name, (lo, hi) in ranges.items():
        value = getattr(config, name)
        if _is_real(value) and math.isfinite(value) and not lo <= value <= hi:
            raise ValueError(f"{name}: must be in [{lo:g}, {hi:g}]")


def _check_counts(config, names: tuple[str, ...]) -> None:
    """Raise ``ValueError`` naming the first of the count fields ``names``
    of ``config`` below 1; a value that is not a number is left to the
    type check."""
    for name in names:
        value = getattr(config, name)
        if _is_real(value) and value < 1:
            raise ValueError(f"{name}: must be >= 1")


@dataclass(frozen=True)
class ConstellationConfig:
    """Walker-delta constellation of circular orbits.

    ``phasing_factor`` sets the inter-plane phase offset in units of
    360 degrees / total satellite count.  ``altitude_km`` runs from the
    lowest circular orbit that lasts more than a few days (160 km) to
    just above the geostationary altitude (35,786 km).
    """

    planes: int = 6
    sats_per_plane: int = 8
    inclination_deg: float = 40.0
    altitude_km: float = 1200.0
    phasing_factor: int = 3  # keeps the bundled city set covered full-time
    epoch_s: float = 0.0

    def __post_init__(self) -> None:
        _check_counts(self, ("planes", "sats_per_plane"))
        _check_ranges(self, {"inclination_deg": (0.0, 180.0),
                             "altitude_km": (160.0, 40000.0)})

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
    """Positions, velocities and body frames of satellites, one row each.

    ``body_axes[i]`` rows are satellite i's unit x/y/z axes in the
    inertial frame: x along the velocity (projected orthogonal to
    nadir), z nadir pointing, y completing the right-handed triad.
    Indexing selects satellites as numpy indexes the first axis of every
    field, so ``states[i]`` is one satellite, with a (3,) position and
    (3, 3) axes.
    """

    satellite_id: np.ndarray   # (S,) int
    position_km: np.ndarray    # (S, 3)
    velocity_km_s: np.ndarray  # (S, 3)
    body_axes: np.ndarray      # (S, 3, 3), rows = x, y, z

    def __len__(self) -> int:
        return len(self.satellite_id)

    def __getitem__(self, index) -> SatelliteState:
        return SatelliteState(self.satellite_id[index], self.position_km[index],
                              self.velocity_km_s[index], self.body_axes[index])


@dataclass(frozen=True)
class GroundUser:
    """A user on the ground, ``altitude_km`` above sea level: from the
    Dead Sea shore (-0.43 km) to the summit of Everest (8.85 km)."""

    user_id: int
    latitude_deg: float
    longitude_deg: float
    altitude_km: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        _check_ranges(self, {"latitude_deg": (-90.0, 90.0), "altitude_km": (-0.5, 10.0)})
        if _is_real(self.longitude_deg) and not -180.0 <= self.longitude_deg < 180.0:
            raise ValueError("longitude_deg: must be in [-180, 180)")


@dataclass(frozen=True, eq=False)
class LinkGeometry:
    """Geometry of satellite-user links, one entry per link.

    ``azimuth_sat_deg`` / ``elevation_sat_deg`` locate the user as seen
    from the satellite body frame (elevation measured from the body x-y
    plane toward nadir, so a user straight below sits at 90 degrees).
    ``direction`` holds the inertial unit vectors from the users toward
    the satellites.
    """

    slant_range_km: np.ndarray     # (L,)
    azimuth_sat_deg: np.ndarray    # (L,)
    elevation_sat_deg: np.ndarray  # (L,)
    direction: np.ndarray          # (L, 3)


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


def propagate(config: ConstellationConfig, t: float) -> SatelliteState:
    """Propagate every satellite of the constellation to time ``t`` (s).

    Satellite ids run plane-major: id = plane * sats_per_plane + slot,
    and the rows of the result follow them.
    """
    if t < 0.0:
        raise ValueError("t must be >= 0")
    a = config.radius_km
    n = config.mean_motion_rad_s
    inc = math.radians(config.inclination_deg)
    total = config.total_sats
    dt = t - config.epoch_s

    plane, slot = np.divmod(np.arange(total), config.sats_per_plane)
    frames = np.array([_rot_z(_TWO_PI * p / config.planes) @ _rot_x(inc)
                       for p in range(config.planes)])[plane]
    u = _TWO_PI * (slot / config.sats_per_plane
                   + config.phasing_factor * plane / total) + n * dt
    cu, su = np.cos(u), np.sin(u)
    zero = np.zeros(total)
    pos = np.einsum("sij,sj->si", frames, np.stack([a * cu, a * su, zero], axis=1))
    vel = np.einsum("sij,sj->si", frames, np.stack([-a * n * su, a * n * cu, zero], axis=1))
    z_b = -pos / a
    x_b = vel - np.sum(vel * z_b, axis=1, keepdims=True) * z_b
    x_b /= np.linalg.norm(x_b, axis=1, keepdims=True)
    y_b = np.cross(z_b, x_b)
    return SatelliteState(satellite_id=np.arange(total), position_km=pos,
                          velocity_km_s=vel,
                          body_axes=np.stack([x_b, y_b, z_b], axis=1))


def ground_user_positions(gus: list[GroundUser], t: float) -> np.ndarray:
    """Inertial positions (U x 3, km) of ground users at time ``t``."""
    lat = np.array([gu.latitude_deg for gu in gus], dtype=float) * _RADIANS_PER_DEGREE
    lon = (np.array([gu.longitude_deg for gu in gus], dtype=float) * _RADIANS_PER_DEGREE
           + EARTH_ROTATION_RAD_S * t)
    r = EARTH_RADIUS_KM + np.array([gu.altitude_km for gu in gus], dtype=float)
    cos_lat = np.cos(lat)
    return r[:, None] * np.stack([cos_lat * np.cos(lon), cos_lat * np.sin(lon), np.sin(lat)],
                                 axis=1)


def elevation_deg(sat_position_km: np.ndarray,
                  gu_position_km: np.ndarray) -> np.ndarray:
    """Elevation of the satellite above the user's local horizon.

    Positions are (..., 3) arrays that broadcast against each other, so
    S x 1 x 3 satellites against U x 3 users give an S x U array.
    """
    gu = np.asarray(gu_position_km, dtype=float)
    los = np.asarray(sat_position_km, dtype=float) - gu
    los = los / np.linalg.norm(los, axis=-1, keepdims=True)
    zenith = gu / np.linalg.norm(gu, axis=-1, keepdims=True)
    return np.degrees(np.arcsin(np.clip(np.sum(los * zenith, axis=-1), -1.0, 1.0)))


def link_geometry(sats: SatelliteState, gu_position_km: np.ndarray) -> LinkGeometry:
    """Geometry of the links from the satellites ``sats`` to the users at
    ``gu_position_km`` (inertial, km), row for row: L satellites and an
    L x 3 array give L links; one satellite (``states[i]``) and one
    3-vector give one link, with fields that have no link axis."""
    los = sats.position_km - np.asarray(gu_position_km, dtype=float)
    slant = np.linalg.norm(los, axis=-1)
    direction = los / slant[..., None]

    # user direction expressed in the satellite body frame
    d_body = np.einsum("...ij,...j->...i", sats.body_axes, -direction)
    theta = np.degrees(np.arcsin(np.clip(d_body[..., 2], -1.0, 1.0)))
    phi = np.degrees(np.arctan2(d_body[..., 1], d_body[..., 0]))
    return LinkGeometry(slant_range_km=slant, azimuth_sat_deg=phi,
                        elevation_sat_deg=theta, direction=direction)


def visibility(states: SatelliteState, gus: list[GroundUser],
               min_elevation_deg: float = 10.0, t: float = 0.0) -> VisibilitySets:
    """Visibility sets at elevation threshold ``min_elevation_deg``, from
    the elevations of every (satellite, user) pair as one array."""
    if not 0.0 <= min_elevation_deg < 90.0:
        raise ValueError("min_elevation_deg must be in [0, 90)")
    elevation = elevation_deg(states.position_km[:, None, :],
                              ground_user_positions(gus, t))
    return VisibilitySets(
        sat_ids=tuple(states.satellite_id.tolist()),
        gu_ids=tuple(gu.user_id for gu in gus),
        visible=elevation >= min_elevation_deg,
        elevation_deg=elevation,
    )
