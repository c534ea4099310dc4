import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import beam_matrix, instances, serving_vector, visible_sats
from coopsat import metrics, network
from coopsat.channel import RfConfig
from coopsat.geometry import GroundUser
from coopsat.network import EpochInstance, hybrid_beams
from reference_greedy import unit_power_beams


def scalar_sinr_oracle(instance, links, beams):
    """Independent SINR and interference evaluation: plain python loops
    over transmit columns, reading the channels H and directions D link
    by link, antenna gain recomputed from the pattern definition.  Takes
    a serving vector and its mixers; returns {user: (sinr, interference
    power)}."""
    rf = instance.rf
    theta3 = 0.5 * math.sqrt(30000.0 / 10.0 ** (rf.vsat_max_gain_dbi / 10.0))

    def gain_lin(angle_deg):
        rolloff = min(3.0 * (angle_deg / theta3) ** 2, rf.vsat_floor_suppression_db)
        return 10.0 ** ((rf.vsat_max_gain_dbi - rolloff) / 10.0)

    out = {}
    for u, g in enumerate(instance.gu_ids):
        a = int(links[u])
        if a < 0:
            out[g] = (0.0, 0.0)
            continue
        signal = 0.0
        interference = 0.0
        for s in np.flatnonzero(instance.visible_mask[u]):
            if s not in beams:
                continue
            w = beam_matrix(instance, links, s, beams[s])
            if s == a:
                angle = 0.0
            else:
                d1, d2 = instance.directions[u, a], instance.directions[u, s]
                angle = math.degrees(math.acos(max(-1.0, min(1.0, float(np.dot(d1, d2))))))
            gain = gain_lin(angle)
            h = instance.channels[s, u]
            for j, v in enumerate(np.flatnonzero(links == s)):
                p = gain * abs(np.vdot(h, w[:, j])) ** 2
                if s == a and v == u:
                    signal = p
                else:
                    interference += p
        out[g] = (signal / (interference + 1.0), interference)
    return out


@st.composite
def served_instances(draw):
    """A random instance with a random feasible serving map: each user
    unserved or served by a visible satellite with a spare beam."""
    return draw(_served_on(draw(instances())))


@st.composite
def _served_on(draw, inst):
    serving, load = {}, {}
    for g in inst.gu_ids:
        spare = [s for s in visible_sats(inst, g) if load.get(s, 0) < inst.n_beams]
        s = draw(st.sampled_from([None] + spare))
        if s is not None:
            serving[g] = s
            load[s] = load.get(s, 0) + 1
    return inst, serving


def assert_matches_oracle(inst, links, beams):
    expected = scalar_sinr_oracle(inst, links, beams)
    for u in metrics.user_metrics(inst, links, beams):
        sinr, interference = expected[u.gu_id]
        assert u.sinr == pytest.approx(sinr, rel=1e-10)
        assert u.se == pytest.approx(math.log2(1.0 + sinr), rel=1e-10)
        assert u.interference_power == pytest.approx(interference, rel=1e-6)


@pytest.mark.parametrize("beams_of", [unit_power_beams, hybrid_beams],
                         ids=["unit", "hybrid"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_stacked_total_se_equals_total_se(beams_of, data):
    # the exhaustive search ranks assignments by these sums: each user's
    # SE has the bits user_metrics gives it (tests/test_stacking.py), but
    # np.sum adds them in its own order, so they agree to rounding
    inst = data.draw(instances())
    cases = data.draw(st.lists(_served_on(inst), min_size=1, max_size=6))
    links = [serving_vector(inst, serving) for _, serving in cases]
    beams = [beams_of(inst, v) for v in links]
    powers = [network.beam_powers(inst, v, b) for v, b in zip(links, beams)]
    stacked = tuple(np.stack(p) for p in zip(*powers))
    np.testing.assert_allclose(
        metrics.stacked_total_se(inst, np.stack(links), stacked),
        [metrics.total_se(inst, v, b) for v, b in zip(links, beams)], rtol=1e-13, atol=0.0)


class TestSinrEvaluator:
    @pytest.mark.parametrize("beams_of", [unit_power_beams, hybrid_beams],
                             ids=["unit", "hybrid"])
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=served_instances())
    def test_matches_scalar_oracle(self, beams_of, case):
        # with hybrid beams this also pins a ZF-served user's intra-satellite
        # interference, ~1e-13 of the beam powers: it must be the sum of the
        # other beams, not a difference of nearly equal totals
        inst, serving = case
        links = serving_vector(inst, serving)
        assert_matches_oracle(inst, links, beams_of(inst, links))

    def test_hand_built_two_satellite_closed_form(self):
        # fully hand-built 2x2 instance with unit analog beams; expected
        # SINRs follow from the pattern definition and plain arithmetic
        array_n = 2
        rf = RfConfig()
        theta3 = 0.5 * math.sqrt(30000.0 / 1e4)  # 40 dBi terminal
        s = 1.0 / math.sqrt(array_n)
        # [satellite, user]: satellite 0 to user 100 and satellite 1 to
        # user 101 are strong, the cross links 10x weaker
        channels = np.array([[[1.0, 0.0], [0.0, 0.1]],
                             [[0.1, 0.0], [0.0, 1.0]]], dtype=complex)
        analog = np.array([[[s, s], [s, -s]],
                           [[s, s], [s, -s]]], dtype=complex)
        def unit(angle_deg):
            a = math.radians(angle_deg)
            return np.array([math.cos(a), math.sin(a), 0.0])
        # [user, satellite]
        dirs = np.array([[unit(0.0), unit(10.0)],
                         [unit(2.0), unit(0.0)]])
        inst = EpochInstance(sat_ids=(0, 1), gu_ids=(100, 101), rf=rf,
                             n_beams=4, visible_mask=np.ones((2, 2), dtype=bool),
                             channels=channels, analog=analog, directions=dirs)
        links = serving_vector(inst, {100: 0, 101: 1})
        users = metrics.user_metrics(inst, links,
                                     unit_power_beams(inst, links))

        g_max = 1e4
        # user 100: signal |[1,0].[s,s]|^2, interferer 10 deg off (floored
        # 30 dB down), channel amplitude 0.1
        sinr_100 = (g_max * s**2) / (10.0 * (0.1 * s) ** 2 + 1.0)
        # user 101: interferer 2 deg off: rolloff 3*(2/theta3)^2 = 16 dB
        gain_2deg = 10.0 ** ((40.0 - 3.0 * (2.0 / theta3) ** 2) / 10.0)
        sinr_101 = (g_max * s**2) / (gain_2deg * (0.1 * s) ** 2 + 1.0)
        expected = {100: sinr_100, 101: sinr_101}
        for u in users:
            assert u.sinr == pytest.approx(expected[u.gu_id], rel=1e-12)

    def test_zero_interference_is_snr(self, instance_factory):
        rng = np.random.default_rng(23)
        inst = instance_factory(rng, n_sats=1, n_gus=1, n_beams=2,
                                visible={100: (0,)})
        links = serving_vector(inst, {100: 0})
        beams = unit_power_beams(inst, links)
        (u,) = metrics.user_metrics(inst, links, beams)
        h = inst.channels[0, 0]
        w = inst.analog[0, 0]
        expected = inst.boresight_gain * abs(np.vdot(h, w)) ** 2
        assert u.interference_power == 0.0
        assert u.sinr == pytest.approx(expected, rel=1e-12)

    def test_zf_nulling_recovers_interference_free_sinr(self, instance_factory):
        # one satellite, two users, exact ZF: each user's SINR equals the
        # no-other-user value computed with the same beam
        rng = np.random.default_rng(24)
        inst = instance_factory(rng, n_sats=1, n_gus=2, n_beams=2,
                                visible={100: (0,), 101: (0,)})
        links = serving_vector(inst, {100: 0, 101: 0})
        beams = hybrid_beams(inst, links, beta=0.0)
        users = metrics.user_metrics(inst, links, beams)
        for u in users:
            assert u.interference_power <= 1e-6 * u.sinr
        # against oracle with interference dropped
        expected = scalar_sinr_oracle(inst, links, beams)
        for u in users:
            assert u.sinr == pytest.approx(expected[u.gu_id][0], rel=1e-6)

    def test_global_phase_invariance(self, instance_factory):
        rng = np.random.default_rng(25)
        inst = instance_factory(rng, n_sats=2, n_gus=3, n_beams=2)
        serving = {g: visible_sats(inst, g)[0] for g in inst.gu_ids}
        links = serving_vector(inst, serving)
        beams = unit_power_beams(inst, links)
        before = [u.sinr for u in metrics.user_metrics(inst, links, beams)]
        # rotate every channel of one user by a common unit phasor
        rotated = inst.channels.copy()
        rotated[:, 1] *= np.exp(1j * 0.9)
        inst2 = replace(inst, channels=rotated)
        after = [u.sinr for u in metrics.user_metrics(inst2, links, beams)]
        assert after == pytest.approx(before, rel=1e-12)

    def test_removing_interferer_never_hurts(self, instance_factory):
        rng = np.random.default_rng(26)
        inst = instance_factory(rng, n_sats=3, n_gus=4, n_beams=2)
        serving = {}
        load = {}
        for g in inst.gu_ids:
            s = visible_sats(inst, g)[0]
            if load.get(s, 0) < inst.n_beams:
                serving[g] = s
                load[s] = load.get(s, 0) + 1
        links = serving_vector(inst, serving)
        beams = unit_power_beams(inst, links)
        base = {u.gu_id: u.sinr for u in metrics.user_metrics(inst, links, beams)}
        # drop one served user's link, keep every other beam identical
        victim = next(iter(serving))
        reduced = {g: s for g, s in serving.items() if g != victim}
        links2 = serving_vector(inst, reduced)
        beams2 = unit_power_beams(inst, links2)
        for u in metrics.user_metrics(inst, links2, beams2):
            if u.gu_id != victim and u.serving_sat is not None:
                assert u.sinr >= base[u.gu_id] * (1.0 - 1e-12)

    def test_unserved_user_zero_rate(self, instance_factory):
        rng = np.random.default_rng(27)
        inst = instance_factory(rng, n_sats=2, n_gus=2, n_beams=1)
        links = np.full(len(inst.gu_ids), -1)
        users = metrics.user_metrics(inst, links, {})
        assert all(u.se == 0.0 and u.serving_sat is None for u in users)
        assert metrics.total_se(inst, links, {}) == 0.0

    def test_non_finite_sinr_names_user_and_satellite(self, instance_factory):
        inst = instance_factory(np.random.default_rng(29), n_sats=2, n_gus=2,
                                visible={100: (0,), 101: (1,)})
        links = serving_vector(inst, {100: 0, 101: 1})
        beams = {0: np.eye(1), 1: np.full((1, 1), np.nan)}
        with pytest.raises(metrics.NonFiniteSinrError,
                           match="user 101 served by satellite 1"):
            metrics.user_metrics(inst, links, beams)

    def test_beams_links_consistency_enforced(self, instance_factory):
        rng = np.random.default_rng(28)
        inst = instance_factory(rng, n_sats=2, n_gus=2, n_beams=2)
        links = np.full(len(inst.gu_ids), -1)
        g = inst.gu_ids[0]
        i = inst.sat_ids.index(visible_sats(inst, g)[0])
        beams = {i: np.eye(1)}
        # beams for a satellite that serves nobody
        with pytest.raises(ValueError):
            metrics.user_metrics(inst, links, beams)
        # a serving satellite without beams
        links = serving_vector(inst, {g: inst.sat_ids[i]})
        with pytest.raises(ValueError):
            metrics.total_se(inst, links, {})
        # serving vectors of the wrong length or type, or with a row
        # outside sat_ids
        for bad in (links[:1], links.astype(float), np.where(links >= 0, 2, -1),
                    np.where(links >= 0, -2, -1)):
            with pytest.raises(ValueError):
                metrics.user_metrics(inst, bad, beams)
        # a link to a satellite the user does not see
        inst = instance_factory(rng, n_sats=2, n_gus=2, n_beams=2,
                                visible={100: (0,), 101: (0, 1)})
        with pytest.raises(ValueError, match="does not see"):
            metrics.user_metrics(inst, np.array([1, -1]), {1: np.eye(1)})

    @pytest.mark.parametrize("shape", [(2, 2), (1, 2)], ids=["2x2", "1x2"])
    def test_mixer_shape_must_match_member_count(self, instance_factory, shape):
        # a one-user satellite takes a 1 x 1 mixer; a 1 x 2 one would
        # otherwise be evaluated as if it had a second beam
        inst = instance_factory(np.random.default_rng(30), n_sats=2, n_gus=2,
                                visible={100: (0,), 101: (1,)})
        links = serving_vector(inst, {100: 0, 101: 1})
        metrics.user_metrics(inst, links, {0: np.eye(1), 1: np.eye(1)})
        with pytest.raises(ValueError, match="mixer shapes"):
            metrics.user_metrics(inst, links, {0: np.eye(1), 1: np.ones(shape)})


class TestDensityClasses:
    def test_two_far_users_both_sparse(self):
        gus = [GroundUser(0, 0.0, 0.0), GroundUser(1, 0.0, 4.6)]  # ~512 km
        classes = metrics.density_classes(gus, threshold_km=400.0)
        assert all(not c.dense for c in classes)
        assert {c.label for c in classes} == {"sparse"}

    def test_two_near_users_both_dense(self):
        gus = [GroundUser(0, 0.0, 0.0), GroundUser(1, 0.0, 0.9)]  # ~100 km
        classes = metrics.density_classes(gus, threshold_km=400.0)
        assert all(c.dense for c in classes)

    def test_great_circle_quarter_meridian(self):
        a, b = GroundUser(0, 0.0, 0.0), GroundUser(1, 90.0, 0.0)
        quarter = math.pi / 2.0 * 6371.0
        distance = metrics._haversine_km(a.latitude_deg, a.longitude_deg,
                                         b.latitude_deg, b.longitude_deg)
        assert distance == pytest.approx(quarter, rel=1e-12)

    def test_equals_the_per_pair_loop_on_the_bundled_cities(self):
        # among the 80 cities the nearest pair distance to a threshold is
        # 0.21 km (400 km) and 0.15 km (150 and 1000 km), far above the
        # rounding of either form
        from coopsat.config import bundled_cities

        def haversine_km(a, b):
            lat1, lon1 = math.radians(a.latitude_deg), math.radians(a.longitude_deg)
            lat2, lon2 = math.radians(b.latitude_deg), math.radians(b.longitude_deg)
            s = (math.sin((lat2 - lat1) / 2.0) ** 2
                 + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2.0) ** 2)
            return 2.0 * 6371.0 * math.asin(min(1.0, math.sqrt(s)))

        gus = list(bundled_cities())
        for threshold in (400.0, 150.0, 1000.0):
            want = [metrics.DensityClass(a.user_id, any(haversine_km(a, b) <= threshold
                                                for b in gus if b.user_id != a.user_id))
                    for a in gus]
            assert metrics.density_classes(gus, threshold_km=threshold) == want

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            metrics.density_classes([GroundUser(0, 0.0, 0.0)], threshold_km=0.0)

    def test_bundled_city_list_classification(self):
        # soft cross-check on the bundled 80-city set: a small sparse
        # minority in remote areas, the big eastern cities dense
        from coopsat.config import bundled_cities
        gus = list(bundled_cities())
        classes = metrics.density_classes(gus, threshold_km=400.0)
        by_label = {g.label: c for g, c in zip(gus, classes)}
        n_sparse = sum(not c.dense for c in classes)
        n_dense = sum(c.dense for c in classes)
        print(f"bundled city classes: {n_dense} dense, {n_sparse} sparse")
        assert n_sparse + n_dense == 80
        assert 0 < n_sparse < n_dense
        assert not by_label["Kashi"].dense
        assert not by_label["Nansha"].dense
        assert by_label["Beijing"].dense
        assert by_label["Shanghai"].dense
        assert by_label["Wuhan"].dense


def _result(scheme, epoch, ses, epoch_s=0.0):
    users = tuple(metrics.UserMetrics(g, 2.0**se - 1.0, se, 0, 0.0)
                  for g, se in enumerate(ses))
    return metrics.ExperimentResult(epoch_index=epoch, epoch_s=epoch_s,
                                    scheme=scheme, users=users)


class TestAggregation:
    def test_single_epoch_mean(self):
        means = metrics.mean_total_se([_result("jhu", 0, [1.0, 2.0])])
        assert means == {"jhu": pytest.approx(3.0)}

    def test_constant_series_zero_variance(self):
        results = [_result("au", k, [1.5, 1.5]) for k in range(4)]
        classes = [metrics.DensityClass(0, True),
                   metrics.DensityClass(1, True)]
        stats = metrics.density_statistics(results, classes)
        assert stats["au"]["dense"]["var_se"] == pytest.approx(0.0)
        assert stats["au"]["dense"]["mean_se"] == pytest.approx(1.5)

    def test_population_variance_convention(self):
        # series {1, 2, 3}: mean 2, population variance 2/3
        results = [_result("au", k, [float(k + 1)]) for k in range(3)]
        classes = [metrics.DensityClass(0, False)]
        stats = metrics.density_statistics(results, classes)
        assert stats["au"]["sparse"]["mean_se"] == pytest.approx(2.0)
        assert stats["au"]["sparse"]["var_se"] == pytest.approx(2.0 / 3.0)

    def test_pairwise_gains(self):
        gains = metrics.pairwise_gains({"au": 10.0, "jhu": 15.0})
        assert gains["jhu_vs_au_pct"] == pytest.approx(50.0)
        assert gains["au_vs_jhu_pct"] == pytest.approx(-100.0 / 3.0)

    def test_total_and_unserved_derive_from_users(self):
        users = (metrics.UserMetrics(0, 1.0, 1.0, 7, 0.0),
                 metrics.UserMetrics(1, 0.0, 0.0, None, 0.0),
                 metrics.UserMetrics(2, 3.0, 2.0, 7, 0.5))
        result = metrics.ExperimentResult(0, 0.0, "au", users)
        assert result.total_se == 3.0
        assert result.unserved == (1,)

    def test_empty_aggregate_rejected(self):
        with pytest.raises(ValueError):
            metrics.mean_total_se([])
