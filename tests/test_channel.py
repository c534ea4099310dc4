import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_channel as ref
import reference_links as ref_links
from conftest import close_to_reference, draw_paths, same_bits
from coopsat import harness
from coopsat.channel import (ArrayConfig, ChannelConfig, LinkInvalidError,
                             RfConfig, clear_sky_loss_db, draw_links,
                             large_scale_amplitude, path_loss,
                             sample_ray_angles, small_scale, vsat_gain_dbi)
from coopsat.config import from_dict
from coopsat.geometry import ConstellationConfig


# one unit-gain path, whose normalization is exactly 1: its channel is
# the steering vector toward the path's direction
UNIT_PATH = ChannelConfig(direct_amp_mean_db=0.0, direct_amp_std_db=0.0,
                          multipath_power_db=-math.inf)


def steering(phi, theta, array):
    return small_scale(np.array([[[phi, theta]]]), np.ones((1, 1), dtype=complex),
                       UNIT_PATH, array)[0]


class TestSteeringVector:
    def test_theta_90_gives_uniform_vector(self, default_array):
        a = steering(37.0, 90.0, default_array)
        n = default_array.n_elements
        assert np.allclose(a, np.ones(n) / math.sqrt(n), atol=1e-12)

    @pytest.mark.parametrize("phi,theta", [(0.0, 0.0), (45.0, 30.0),
                                           (-120.0, 75.0), (179.0, -10.0)])
    def test_unit_norm(self, phi, theta, default_array):
        a = steering(phi, theta, default_array)
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)

    def test_2x2_hand_evaluated_phases(self):
        # phi=0, theta=0, half-wavelength spacing: phase -pi*p, element
        # order (p, q) = (0,0), (0,1), (1,0), (1,1)
        array = ArrayConfig(n_x=2, n_y=2, n_sub_x=1, n_sub_y=1)
        a = steering(0.0, 0.0, array)
        expected = 0.5 * np.exp(1j * np.array([0.0, 0.0, -math.pi, -math.pi]))
        assert np.allclose(a, expected, atol=1e-12)


class TestReferenceChannel:
    """The per-epoch draw against the one-link, one-ray-at-a-time loop it
    replaced: the draws must consume the stream in the same order, and
    every path's angles and the ray gains must be equal bit for bit.
    numpy's ``log10`` and ``power`` may round otherwise than the
    reference's ``math.log10`` and ``**``, so each path loss must match
    to a relative 1e-14 and each direct-path gain to 1e-15 of its
    modulus (with numpy 2.4.6 on x86-64, at most 3.1e-16 and 2.5e-16).  The channels add
    their paths in another order, so each link's channel must match the
    reference to max |difference| <= 1e-12 times the reference's norm
    (``close_to_reference``)."""

    @settings(max_examples=150, deadline=None)
    @given(n_x=st.integers(1, 9), n_y=st.integers(1, 9),
           spacing=st.sampled_from([0.5, 0.37, 1.0]),
           n_clusters=st.integers(1, 4), n_rays=st.integers(1, 12),
           multipath_db=st.sampled_from([-15.0, -3.0, -math.inf]),
           phi=st.floats(-180.0, 180.0), theta=st.floats(-90.0, 90.0),
           elevation=st.floats(1e-3, 90.0), slant=st.floats(300.0, 5000.0),
           n_links=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    # the benchmark's shapes, which the strategy does not reach: 16x16
    # elements with 4 x 25 rays (wide-array) and 8x8 with 2 x 10 rays
    # (the desk and full profiles); a single element with 4 x 3 rays;
    # and the direct path alone (rays without power), on every run
    @example(n_x=16, n_y=16, spacing=0.5, n_clusters=4, n_rays=25,
             multipath_db=-15.0, phi=-37.25, theta=71.5, elevation=23.5, slant=2400.0,
             n_links=3, seed=3)
    @example(n_x=8, n_y=8, spacing=0.5, n_clusters=2, n_rays=10,
             multipath_db=-15.0, phi=123.0, theta=48.75, elevation=61.0, slant=1350.0,
             n_links=1, seed=11)
    @example(n_x=1, n_y=1, spacing=0.5, n_clusters=4, n_rays=3,
             multipath_db=-15.0, phi=5.0, theta=80.0, elevation=10.0, slant=3500.0,
             n_links=2, seed=0)
    @example(n_x=3, n_y=2, spacing=0.5, n_clusters=2, n_rays=4,
             multipath_db=-math.inf, phi=-80.0, theta=35.0, elevation=40.0, slant=1800.0,
             n_links=3, seed=5)
    def test_draw_equals_reference(self, n_x, n_y, spacing, n_clusters, n_rays,
                                   multipath_db, phi, theta, elevation, slant, n_links,
                                   seed):
        array = ArrayConfig(n_x=n_x, n_y=n_y, element_spacing=spacing)
        cfg = ChannelConfig(n_clusters=n_clusters, n_rays=n_rays,
                            multipath_power_db=multipath_db)
        rf = RfConfig()
        links = range(n_links)
        direct = np.array([(phi - 7.0 * k, theta * (1.0 - 0.25 * k)) for k in links])
        elevations = np.array([elevation * (1.0 - 0.25 * k) for k in links])
        slants = np.array([slant + 150.0 * k for k in links])
        # every link drawn from one stream, so the order of the draws
        # across links shows too
        new_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = draw_links([new_rng] * n_links, cfg)
        loss = path_loss(clear_sky_loss_db(elevations, slants, rf, cfg),
                         draws.shadow_db, cfg)
        angles = sample_ray_angles(direct, draws.offsets_deg, cfg)
        h = small_scale(angles, draws.gains, cfg, array)
        for k, d in zip(links, direct.tolist()):
            ref_loss = ref.path_loss(elevations[k], slants[k], rf, cfg, ref_rng)
            ref_rays = ref.sample_ray_angles(*d, cfg, ref_rng)
            ref_coefs = ref.path_coefficients(cfg, ref_rng)
            assert loss[k] == pytest.approx(ref_loss, rel=1e-14, abs=0.0)
            assert same_bits(angles[k, 0], direct[k])
            assert same_bits(angles[k, 1:], ref_rays[:cfg.n_paths - 1])
            assert same_bits(draws.gains[k, 1:], ref_coefs[1:])
            assert abs(draws.gains[k, 0] - ref_coefs[0]) <= 1e-15 * abs(ref_coefs[0])
            assert close_to_reference(h[k], ref.small_scale(*d, ref_rays, ref_coefs, cfg,
                                                            array))
        # both consumed the stream alike
        assert new_rng.uniform() == ref_rng.uniform()
        assert close_to_reference(steering(phi, theta, array),
                                  ref.steering_vector(phi, theta, array))


class TestSmallScale:
    def test_deterministic_direct_path_only(self, default_array):
        cfg = ChannelConfig(direct_amp_mean_db=0.0, direct_amp_std_db=0.0,
                            multipath_power_db=-math.inf)
        assert cfg.normalization == pytest.approx(1.0)
        assert cfg.n_paths == 1
        angles, coefs = draw_paths([(10.0, 40.0)], cfg, np.random.default_rng(0))
        h = small_scale(angles, coefs, cfg, default_array)[0]
        assert np.linalg.norm(h) == pytest.approx(1.0, rel=1e-12)
        # collinear with the direct-path steering vector
        a = ref.steering_vector(10.0, 40.0, default_array)
        assert abs(np.vdot(a, h)) == pytest.approx(np.linalg.norm(h), rel=1e-12)

    def test_mean_energy_is_one(self, default_array):
        cfg = ChannelConfig()
        n_draws = 10_000
        angles, coefs = draw_paths([(0.0, 60.0)] * n_draws, cfg,
                                   np.random.default_rng(42))
        h = small_scale(angles, coefs, cfg, default_array)
        acc = 0.0
        for energy in np.sum(np.abs(h) ** 2, axis=1).tolist():  # in draw order
            acc += energy
        assert 0.95 <= acc / n_draws <= 1.05

    def test_same_seed_same_vector(self, default_array):
        cfg = ChannelConfig()
        draws = [small_scale(*draw_paths([(5.0, 45.0)], cfg, np.random.default_rng(123)),
                             cfg, default_array) for _ in range(2)]
        assert same_bits(draws[0], draws[1])

    @pytest.mark.parametrize("n_links", [0, 1, 8, 9, 17])
    def test_link_has_the_same_bits_alone_as_in_any_stack(self, n_links):
        # the wide-array shape, 16 x 16 elements and 101 paths; stacks
        # that fill, cross and end blocks of links, each also shifted by
        # 5 links, so that a link sits at another place in its block
        array = ArrayConfig(n_x=16, n_y=16)
        cfg = ChannelConfig(n_clusters=4, n_rays=25)
        assert cfg.n_paths == 101
        rng = np.random.default_rng(17)
        directions = [(rng.uniform(-180.0, 180.0), rng.uniform(5.0, 90.0)) for _ in range(22)]
        angles, coefs = draw_paths(directions, cfg, rng)
        alone = [small_scale(angles[k:k + 1], coefs[k:k + 1], cfg, array)[0]
                 for k in range(len(directions))]
        for first in (0, 5):
            links = range(first, first + n_links)
            h = small_scale(angles[links], coefs[links], cfg, array)
            assert h.shape == (n_links, array.n_elements)
            assert all(same_bits(row, alone[k]) for row, k in zip(h, links))

    def test_ray_angle_shape_checked(self, default_array):
        # angles must be links x paths x 2 for links x paths gains, with
        # at least one path
        for angles_shape, coefs_shape in [((1, 4, 2), (1, 7)), ((2, 7, 2), (1, 7)),
                                          ((1, 7), (1, 7)), ((7, 2), (7,)),
                                          ((1, 0, 2), (1, 0))]:
            with pytest.raises(ValueError):
                small_scale(np.zeros(angles_shape), np.ones(coefs_shape, dtype=complex),
                            ChannelConfig(), default_array)

    def test_empty_epoch(self, default_array):
        cfg = ChannelConfig()
        h = small_scale(np.zeros((0, cfg.n_paths, 2)),
                        np.zeros((0, cfg.n_paths), dtype=complex), cfg, default_array)
        assert h.shape == (0, default_array.n_elements)
        draws = draw_links([], cfg)
        angles = sample_ray_angles(np.zeros((0, 2)), draws.offsets_deg, cfg)
        assert angles.shape == (0, cfg.n_paths, 2)
        assert draws.gains.shape == (0, cfg.n_paths)


def no_shadow_loss(elevation_deg, slant_range_km, rf, cfg):
    return path_loss(clear_sky_loss_db(elevation_deg, slant_range_km, rf, cfg), 0.0, cfg)


class TestPathLoss:
    def test_fspl_closed_form(self, rf):
        # independent closed-form free-space loss
        cfg = ChannelConfig(zenith_gas_db=0.0, scintillation_db=0.0, shadow_sigma_db=0.0)
        pl = no_shadow_loss(90.0, 1200.0, rf, cfg)
        expected = 20.0 * math.log10(4.0 * math.pi * 1.2e6 * 20e9 / 299792458.0)
        assert pl == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(180.05, abs=0.01)
        assert pl == expected  # the zero shadow, gas and scintillation add nothing

    def test_doubling_range_adds_6db(self, rf):
        cfg = ChannelConfig(shadow_sigma_db=0.0)
        p1, p2 = no_shadow_loss(90.0, [800.0, 1600.0], rf, cfg)
        assert p2 - p1 == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)

    def test_cosecant_gas_scaling(self, rf):
        # same range, so only the gas term differs: csc 30 deg = 2 csc 90 deg
        cfg = ChannelConfig(shadow_sigma_db=0.0)
        g90, g30 = no_shadow_loss([90.0, 30.0], 1200.0, rf, cfg)
        assert g30 - g90 == pytest.approx(cfg.zenith_gas_db, rel=1e-12)

    def test_total_is_additive(self, rf):
        # the shadow fading is the first draw of the link's stream
        cfg = ChannelConfig()
        draws = draw_links([np.random.default_rng(3)], cfg)
        (pl,) = path_loss(clear_sky_loss_db([45.0], [1200.0], rf, cfg),
                          draws.shadow_db, cfg)
        fspl = 20.0 * math.log10(4.0 * math.pi * 1.2e6 * 20e9 / 299792458.0)
        shadow = np.random.default_rng(3).normal(0.0, cfg.shadow_sigma_db)
        gas = cfg.zenith_gas_db / math.sin(math.radians(45.0))
        assert pl == pytest.approx(fspl + shadow + gas + cfg.scintillation_db)

    def test_below_horizon_rejected(self, rf):
        with pytest.raises(LinkInvalidError):
            clear_sky_loss_db(-1.0, 1200.0, rf, ChannelConfig())
        # the first link at or below the horizon is named
        with pytest.raises(LinkInvalidError,
                           match=r"^satellite below horizon \(elevation 0\.00 deg\)$"):
            clear_sky_loss_db([30.0, 0.0, -1.0], [1200.0] * 3, rf, ChannelConfig())


class TestVsatGain:
    def test_boresight_is_max(self, rf):
        assert vsat_gain_dbi(0.0, rf) == pytest.approx(40.0)

    def test_3db_point(self, rf):
        assert vsat_gain_dbi(rf.vsat_theta_3db_deg, rf) == pytest.approx(37.0)

    def test_back_lobe_floor(self, rf):
        assert vsat_gain_dbi(180.0, rf) == pytest.approx(10.0)

    def test_monotone_non_increasing(self, rf):
        angles = np.linspace(0.0, 180.0, 721)
        gains = [vsat_gain_dbi(a, rf) for a in angles]
        assert all(g1 >= g2 for g1, g2 in zip(gains, gains[1:]))

    def test_negative_angle_rejected(self, rf):
        with pytest.raises(ValueError):
            vsat_gain_dbi(-0.1, rf)


class TestChannelVector:
    def test_extra_10db_loss_scales_amplitude(self, rf):
        a1 = large_scale_amplitude(180.0, rf)
        a2 = large_scale_amplitude(190.0, rf)
        assert a2 / a1 == pytest.approx(10.0 ** -0.5, rel=1e-12)

    @pytest.mark.parametrize("pl_db", [-4000.0, -3000.0])
    def test_overflowing_gain_is_value_error(self, rf, pl_db):
        # -4000 dB overflows the power ratio; -3000 dB overflows only
        # once divided by the noise power
        with pytest.raises(ValueError, match="overflows"):
            large_scale_amplitude(pl_db, rf)

    def test_link_budget_oracle(self, rf, default_array):
        # hand-computed link budget for a 1200 km zenith link
        fspl = 20.0 * math.log10(4.0 * math.pi * 1.2e6 * 20e9 / 299792458.0)
        pl = fspl + 0.5 + 0.3
        noise = 1.380649e-23 * 10.0 ** 2.4 * 400e6
        expected_xi2 = 10.0 ** ((21.5 + 40.0 - pl) / 10.0) / noise
        xi = large_scale_amplitude(pl, rf)
        # the 40 dBi terminal gain is applied at evaluation, not in xi
        assert xi**2 * 10**4 == pytest.approx(expected_xi2, rel=1e-12)
        assert expected_xi2 == pytest.approx(0.8369, rel=1e-3)  # pinned
        assert xi**2 > 0.0 and math.isfinite(xi)


def test_noise_power_value(rf):
    expected = 1.380649e-23 * 10.0 ** 2.4 * 400e6
    assert rf.noise_power_w == pytest.approx(expected, rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        RfConfig(tx_power_w=0.0)
    with pytest.raises(ValueError):
        ArrayConfig(n_x=0)
    with pytest.raises(ValueError):
        ChannelConfig(n_clusters=0)
    with pytest.raises(ValueError):
        ChannelConfig(zenith_gas_db=-1.0)


class TestRangeCorners:
    """The worst-case sum of the ``channel`` docstring: at the corners of
    the fields' ranges, a link's gain before its shadow draw stays far
    inside the float range."""

    # the ends of the float range in dB: the smallest normal and the largest float
    FLOAT_DB = (10.0 * math.log10(sys.float_info.min), 10.0 * math.log10(sys.float_info.max))
    LOSS_RF = {"carrier_frequency_hz": 1e12, "bandwidth_hz": 1e11,
               "noise_temperature_dbk": 50.0, "satellite_antenna_gain_dbi": 0.0}
    LOSS_CHANNEL = {"zenith_gas_db": 100.0, "scintillation_db": 20.0}
    GAIN_RF = {"carrier_frequency_hz": 1e8, "bandwidth_hz": 1e3,
               "noise_temperature_dbk": 0.0, "satellite_antenna_gain_dbi": 70.0}
    GAIN_CHANNEL = {"zenith_gas_db": 0.0, "scintillation_db": 0.0}

    @pytest.mark.parametrize("rf,channel,elevation,sat_km,user_km,slant_km,gain_db", [
        # the longest link: a satellite at 40,000 km seen at 5 degrees
        # from -0.5 km, at the largest loss
        (LOSS_RF, LOSS_CHANNEL, 5.0, 40000.0, -0.5, 45379.5, -1344.4),
        # the shortest: from 160 km straight down to 10 km, at the least loss
        (GAIN_RF, GAIN_CHANNEL, 90.0, 160.0, 10.0, 150.0, 152.6),
    ], ids=["loss", "gain"])
    def test_gain_before_the_shadow_draw(self, rf, channel, elevation, sat_km, user_km,
                                         slant_km, gain_db):
        rf, channel = RfConfig(**rf), ChannelConfig(**channel)
        slant = ref_links.slant_range_km(ConstellationConfig(altitude_km=sat_km), elevation,
                                         user_km)
        assert slant == pytest.approx(slant_km, abs=0.05)
        amplitude = large_scale_amplitude(
            path_loss(clear_sky_loss_db(elevation, slant, rf, channel), 0.0, channel), rf)
        assert math.isfinite(amplitude) and amplitude > 0.0
        g_db = 20.0 * math.log10(amplitude)
        assert g_db == pytest.approx(gain_db, abs=0.05)
        # over 1,700 dB from either end, past any shadow draw's ~275 dB
        low, high = self.FLOAT_DB
        assert g_db - low > 1700.0 and high - g_db > 1700.0

    def test_scenario_at_the_loss_corner_runs_to_finite_se(self):
        cfg = from_dict({
            "constellation": {"altitude_km": 40000.0}, "min_elevation_deg": 5.0,
            "gus": [{"lat": 30.0, "lon": 116.0, "alt_km": -0.5},
                    {"lat": 32.0, "lon": 118.0, "alt_km": -0.5},
                    {"lat": 35.0, "lon": 114.0, "alt_km": -0.5}],
            "epochs": {"count": 1}, "rf": self.LOSS_RF, "channel": self.LOSS_CHANNEL})
        report = harness.run(cfg)
        assert len(report.results) == 3
        for result in report.results:
            assert math.isfinite(result.total_se)
            assert all(u.serving_sat is not None and math.isfinite(u.se)
                       for u in result.users)
