import math

import numpy as np
import pytest

import reference_links as ref_links
from conftest import close_to_reference
from coopsat.config import load_config
from coopsat.geometry import (EARTH_MU_KM3_S2, EARTH_RADIUS_KM, ConstellationConfig,
                              GroundUser, SatelliteState, elevation_deg,
                              ground_user_positions, link_geometry, propagate, visibility)


# How far the stacked geometry may stray from the one-item references:
# positions, velocities, body axes and directions by a relative 2e-15
# of their norms, slant ranges by a relative 2e-15, and angles by 1e-11
# degrees.
# With numpy 2.4.6 on x86-64 the largest deviations were 4.4e-16, 2.2e-16
# and 1.3e-12 degrees (an elevation near the zenith, where the arcsine
# magnifies the rounding of its argument).
VECTOR_RTOL = 2e-15
ANGLE_ATOL_DEG = 1e-11


def one_pair_elevation(sat_pos, gu_pos):
    """The one-pair elevation arithmetic: numpy norms and dot of
    3-vectors, ``math.asin``."""
    los = (sat_pos - gu_pos) / np.linalg.norm(sat_pos - gu_pos)
    zenith = gu_pos / np.linalg.norm(gu_pos)
    return math.degrees(math.asin(float(np.clip(np.dot(los, zenith), -1.0, 1.0))))


def test_single_sat_radius():
    cfg = ConstellationConfig(planes=1, sats_per_plane=1, altitude_km=1200.0)
    (state,) = propagate(cfg, 0.0)
    assert np.linalg.norm(state.position_km) == pytest.approx(6371.0 + 1200.0)


def test_walker_plane_count_and_raan_spacing():
    cfg = ConstellationConfig(planes=6, sats_per_plane=8, inclination_deg=40.0)
    states = propagate(cfg, 0.0)
    assert len(states) == 48
    raans = set()
    for st in states:
        h = np.cross(st.position_km, st.velocity_km_s)
        node = np.cross([0.0, 0.0, 1.0], h)
        raan = math.degrees(math.atan2(node[1], node[0])) % 360.0
        raans.add(round(raan, 3) % 360.0)
    assert len(raans) == 6
    spacing = np.diff(sorted(raans))
    assert np.allclose(spacing, 60.0, atol=1e-3)


def test_position_repeats_after_one_period():
    # closed-form circular period as the independent reference
    cfg = ConstellationConfig(planes=1, sats_per_plane=1, altitude_km=1200.0)
    a = EARTH_RADIUS_KM + 1200.0
    period = 2.0 * math.pi * math.sqrt(a**3 / EARTH_MU_KM3_S2)
    p0 = propagate(cfg, 0.0)[0].position_km
    p1 = propagate(cfg, period)[0].position_km
    assert np.linalg.norm(p1 - p0) <= 1e-6


@pytest.mark.parametrize("t", [0.0, 123.0, 4567.0, 20000.0])
def test_radius_and_speed_conservation(t):
    cfg = ConstellationConfig(planes=2, sats_per_plane=3, inclination_deg=40.0)
    a = cfg.radius_km
    v_circ = math.sqrt(EARTH_MU_KM3_S2 / a)
    for st in propagate(cfg, t):
        assert np.linalg.norm(st.position_km) == pytest.approx(a, rel=1e-6)
        assert np.linalg.norm(st.velocity_km_s) == pytest.approx(v_circ, rel=1e-9)


def test_body_axes_orthonormal_and_aligned():
    cfg = ConstellationConfig(planes=2, sats_per_plane=4, inclination_deg=55.0)
    for st in propagate(cfg, 777.0):
        axes = st.body_axes
        assert np.allclose(axes @ axes.T, np.eye(3), atol=1e-12)
        x, y, z = axes
        assert np.allclose(z, -st.position_km / np.linalg.norm(st.position_km))
        v_hat = st.velocity_km_s / np.linalg.norm(st.velocity_km_s)
        assert np.dot(x, v_hat) == pytest.approx(1.0)
        assert np.allclose(np.cross(x, y), z, atol=1e-12)


def test_zenith_link():
    cfg = ConstellationConfig(planes=1, sats_per_plane=1, inclination_deg=0.0,
                              altitude_km=1200.0)
    states = propagate(cfg, 0.0)
    gu = GroundUser(0, 0.0, 0.0)
    assert visibility(states, [gu]).elevation_deg[0, 0] == pytest.approx(90.0)
    geom = link_geometry(states[0], ref_links.ground_user_position(gu, 0.0))
    assert geom.slant_range_km == pytest.approx(1200.0)
    assert np.allclose(geom.direction, [1.0, 0.0, 0.0])
    # user straight below the satellite: body-frame elevation is 90 degrees
    assert geom.elevation_sat_deg == pytest.approx(90.0)


def test_slant_range_spherical_law_of_cosines():
    # satellite 7.5 degrees of central angle away from the user; the user
    # rotates with the Earth, so use the relative angular rate
    cfg = ConstellationConfig(planes=1, sats_per_plane=1, inclination_deg=0.0,
                              altitude_km=1200.0)
    relative_rate = cfg.mean_motion_rad_s - 7.292115e-5
    t = math.radians(7.5) / relative_rate
    (sat,) = propagate(cfg, t)
    gu = GroundUser(0, 0.0, 0.0)
    gu_pos = ref_links.ground_user_position(gu, t)
    psi = math.acos(np.dot(gu_pos, sat.position_km)
                    / (np.linalg.norm(gu_pos) * np.linalg.norm(sat.position_km)))
    r_gu, r_sat = np.linalg.norm(gu_pos), cfg.radius_km
    expected = math.sqrt(r_gu**2 + r_sat**2 - 2.0 * r_gu * r_sat * math.cos(psi))
    geom = link_geometry(sat, gu_pos)
    assert geom.slant_range_km == pytest.approx(expected, rel=1e-12)
    assert psi == pytest.approx(math.radians(7.5), abs=1e-9)
    elevation = visibility(propagate(cfg, t), [gu], 0.0, t).elevation_deg[0, 0]
    assert ref_links.slant_range_km(cfg, elevation) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("profile", ["desk", "full"])
def test_link_geometry_keeps_the_two_position_bits(profile):
    # one line of sight per link gives what separate satellite-to-user
    # and user-to-satellite vectors give, to VECTOR_RTOL and
    # ANGLE_ATOL_DEG; every visible link of the epoch in one call
    cfg = load_config(profile)
    t = cfg.epochs.times()[1]
    states, gus = propagate(cfg.constellation, t), list(cfg.gus)
    vis = visibility(states, gus, cfg.min_elevation_deg, t)
    rows, users = np.nonzero(vis.visible)
    geom = link_geometry(states[rows], ground_user_positions(gus, t)[users])
    for link, (s, u) in enumerate(zip(rows, users)):
        sat, gu = states[s], gus[u]
        los = sat.position_km - ref_links.ground_user_position(gu, t)
        to_user = ref_links.ground_user_position(gu, t) - sat.position_km
        d_body = sat.body_axes @ (to_user / np.linalg.norm(to_user))
        assert geom.slant_range_km[link] == pytest.approx(np.linalg.norm(los),
                                                          rel=VECTOR_RTOL, abs=0.0)
        assert close_to_reference(geom.direction[link], los / np.linalg.norm(los),
                                  VECTOR_RTOL)
        assert geom.elevation_sat_deg[link] == pytest.approx(
            math.degrees(math.asin(float(np.clip(d_body[2], -1.0, 1.0)))),
            rel=0.0, abs=ANGLE_ATOL_DEG)
        assert geom.azimuth_sat_deg[link] == pytest.approx(
            math.degrees(math.atan2(d_body[1], d_body[0])), rel=0.0, abs=ANGLE_ATOL_DEG)


@pytest.mark.parametrize("profile", ["desk", "full"])
def test_stacked_geometry_equals_the_per_item_reference(profile):
    # propagate, ground_user_positions and link_geometry over arrays
    # match the one-satellite, one-user and one-link loops they replaced
    # to VECTOR_RTOL and ANGLE_ATOL_DEG
    cfg = load_config(profile)
    gus = list(cfg.gus)
    for t in cfg.epochs.times()[::5] + [0.0, 86400.0]:
        states = propagate(cfg.constellation, t)
        reference = ref_links.propagate(cfg.constellation, t)
        assert states.satellite_id.tolist() == [r[0] for r in reference]
        for field, column in (("position_km", 1), ("velocity_km_s", 2), ("body_axes", 3)):
            assert close_to_reference(getattr(states, field),
                                      np.array([r[column] for r in reference]), VECTOR_RTOL)
        rows, users = np.nonzero(visibility(states, gus, cfg.min_elevation_deg, t).visible)
        gu_pos = ground_user_positions(gus, t)
        assert close_to_reference(
            gu_pos, np.array([ref_links.ground_user_position(g, t) for g in gus]), VECTOR_RTOL)
        geom = link_geometry(states[rows], gu_pos[users])
        expected = [ref_links.link_geometry(states.position_km[s], states.body_axes[s],
                                            gu_pos[u]) for s, u in zip(rows, users)]
        slant, phi, theta, direction = (np.array(column) for column in zip(*expected))
        np.testing.assert_allclose(geom.slant_range_km, slant, rtol=VECTOR_RTOL, atol=0.0)
        assert close_to_reference(geom.direction, direction, VECTOR_RTOL)
        for got, want in ((geom.azimuth_sat_deg, phi), (geom.elevation_sat_deg, theta)):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=ANGLE_ATOL_DEG)


def test_visibility_zenith_and_antipode():
    cfg = ConstellationConfig(planes=1, sats_per_plane=1, inclination_deg=0.0)
    states = propagate(cfg, 0.0)
    overhead = GroundUser(0, 0.0, 0.0)
    antipode = GroundUser(1, 0.0, -180.0)
    vis = visibility(states, [overhead, antipode], min_elevation_deg=10.0, t=0.0)
    assert vis.visible.tolist() == [[True, False]]
    assert vis.per_gu[0] == frozenset({0})
    assert vis.per_gu[1] == frozenset()


@pytest.mark.parametrize("profile", ["desk", "full"])
def test_visibility_matches_one_pair_elevation(profile):
    cfg = load_config(profile)
    gus = list(cfg.gus)
    for t in cfg.epochs.times()[::4]:
        states = propagate(cfg.constellation, t)
        sat_pos = np.array([s.position_km for s in states])
        gu_pos = np.array([ref_links.ground_user_position(g, t) for g in gus])
        scalar = np.array([[one_pair_elevation(sp, gp) for gp in gu_pos]
                           for sp in sat_pos])
        np.testing.assert_allclose(elevation_deg(sat_pos[:, None, :], gu_pos), scalar,
                                   rtol=0.0, atol=ANGLE_ATOL_DEG)
        vis = visibility(states, gus, cfg.min_elevation_deg, t)
        # the mask is the threshold test of the elevations it reports,
        # which are link_geometry's input
        assert np.array_equal(vis.visible, vis.elevation_deg >= cfg.min_elevation_deg)
        np.testing.assert_allclose(vis.elevation_deg, scalar, rtol=0.0, atol=ANGLE_ATOL_DEG)
        assert vis.sat_ids == tuple(s.satellite_id for s in states)
        assert vis.gu_ids == tuple(g.user_id for g in gus)


def _parked(position_km):
    return SatelliteState(np.array([0]), np.array([position_km], dtype=float),
                          np.zeros((1, 3)), np.eye(3)[None])


def test_visibility_threshold_is_inclusive():
    gu = GroundUser(0, 0.0, 0.0)  # at (R, 0, 0) at t = 0
    # on the local horizon: elevation exactly 0
    horizon = _parked([EARTH_RADIUS_KM, 3000.0, 0.0])
    assert elevation_deg(horizon.position_km[0], ref_links.ground_user_position(gu, 0.0)) == 0.0
    assert visibility(horizon, [gu], min_elevation_deg=0.0).per_gu[0] == {0}
    # a threshold equal to a link's elevation keeps the link, one ulp
    # above drops it
    sat = _parked([EARTH_RADIUS_KM + 900.0, 1500.0, 400.0])
    elev = one_pair_elevation(sat.position_km[0], ref_links.ground_user_position(gu, 0.0))
    assert 10.0 < elev < 90.0
    assert visibility(sat, [gu], min_elevation_deg=elev).visible.all()
    assert not visibility(sat, [gu], np.nextafter(elev, 90.0)).visible.any()


def test_walker_phasing_offset_equatorial():
    # 2 planes x 2 sats, f=1, inclination 0: absolute angles 0/180 and 90/270
    cfg = ConstellationConfig(planes=2, sats_per_plane=2, inclination_deg=0.0,
                              phasing_factor=1)
    states = propagate(cfg, 0.0)
    angles = sorted(round(math.degrees(math.atan2(s.position_km[1], s.position_km[0])) % 360.0, 6)
                    for s in states)
    assert angles == [0.0, 90.0, 180.0, 270.0]


def test_ground_user_rotates_with_earth():
    gu = GroundUser(0, 0.0, 0.0)
    p0 = ref_links.ground_user_position(gu, 0.0)
    sidereal_day = 2.0 * math.pi / 7.292115e-5
    p1 = ref_links.ground_user_position(gu, sidereal_day / 4.0)
    assert np.linalg.norm(p0) == pytest.approx(EARTH_RADIUS_KM)
    angle = math.degrees(math.acos(np.dot(p0, p1) / EARTH_RADIUS_KM**2))
    assert angle == pytest.approx(90.0, abs=1e-9)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        ConstellationConfig(planes=0)
    with pytest.raises(ValueError):
        ConstellationConfig(altitude_km=-5.0)
    with pytest.raises(ValueError):
        GroundUser(0, 95.0, 0.0)
    with pytest.raises(ValueError):
        GroundUser(0, 0.0, 180.0)
    cfg = ConstellationConfig(planes=1, sats_per_plane=1)
    with pytest.raises(ValueError):
        propagate(cfg, -1.0)
    with pytest.raises(ValueError):
        visibility(propagate(cfg, 0.0), [GroundUser(0, 0.0, 0.0)],
                   min_elevation_deg=90.0)
