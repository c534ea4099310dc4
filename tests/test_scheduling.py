import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import serving_sats, visible_sats
from coopsat import metrics
from coopsat.scheduling import (ExhaustiveSearchError, SchemeMode,
                                exhaustive_schedule, final_beams,
                                greedy_schedule, preassign_single_visibility)


def audit_constraints(instance, serving, maximal=True):
    """Independent constraint check on a serving vector: one entry per
    user, each a satellite row or -1, beam capacity, links only to
    visible satellites, and (for the greedy scheduler) maximality: every
    unserved user's visible satellites are full.  The exhaustive oracle
    may trade a user away for total SE, so it is audited without the
    maximality clause."""
    assert serving.shape == (len(instance.gu_ids),)
    assert ((serving >= -1) & (serving < len(instance.sat_ids))).all()
    load = {s: int(np.sum(serving == i)) for i, s in enumerate(instance.sat_ids)}
    assert all(n <= instance.n_beams for n in load.values())
    for g, i in zip(instance.gu_ids, serving):
        if i >= 0:
            assert instance.sat_ids[i] in visible_sats(instance, g)
        elif maximal:
            for s in visible_sats(instance, g):
                assert load[s] >= instance.n_beams


class TestTotalSe:
    def test_no_links_zero(self, instance_factory):
        inst = instance_factory(np.random.default_rng(0), n_sats=2, n_gus=3)
        links = np.full(len(inst.gu_ids), -1)
        assert metrics.total_se(inst, links, {}) == 0.0

    def test_single_link_snr_formula(self, instance_factory):
        inst = instance_factory(np.random.default_rng(1), n_sats=1, n_gus=1,
                                visible={100: (0,)})
        result = greedy_schedule(inst, SchemeMode.AU)
        h = inst.channels[0, 0]
        w = inst.analog[0, 0]
        p = inst.tx_power_w
        expected = math.log2(1.0 + inst.boresight_gain * p * abs(np.vdot(h, w)) ** 2)
        assert result.total_se == pytest.approx(expected, rel=1e-12)


class TestPreassignment:
    def test_single_visibility_linked(self, instance_factory):
        vis = {100: (1,), 101: (0, 1), 102: (2,)}
        inst = instance_factory(np.random.default_rng(2), n_sats=3, n_gus=3,
                                visible=vis)
        serving = np.full(len(inst.gu_ids), -1)
        dropped = preassign_single_visibility(inst, serving)
        assert dropped == []
        # users 100 and 102 on satellites 1 and 2; 101 (|V| = 2) untouched
        assert serving.tolist() == [1, -1, 2]

    def test_all_single_visibility_skips_greedy(self, instance_factory):
        vis = {100: (0,), 101: (1,), 102: (0,)}
        inst = instance_factory(np.random.default_rng(3), n_sats=2, n_gus=3,
                                n_beams=2, visible=vis)
        result = greedy_schedule(inst, SchemeMode.AU, trace=True)
        assert result.trace == []  # greedy loop never ran
        assert result.unserved == ()
        audit_constraints(inst, result.links)

    def test_capacity_guard_drops_overflow(self, instance_factory):
        # three single-visibility users on a one-beam satellite
        vis = {100: (0,), 101: (0,), 102: (0,)}
        inst = instance_factory(np.random.default_rng(4), n_sats=1, n_gus=3,
                                n_beams=1, visible=vis)
        result = greedy_schedule(inst, SchemeMode.AU)
        assert inst.served_map(result.links) == {0: (100,)}  # lowest id claims the beam
        assert result.unserved == (101, 102)
        audit_constraints(inst, result.links)


class TestGreedy:
    @pytest.mark.parametrize("mode", list(SchemeMode))
    def test_single_user_all_modes_agree(self, mode, instance_factory):
        inst = instance_factory(np.random.default_rng(5), n_sats=1, n_gus=1,
                                visible={100: (0,)})
        result = greedy_schedule(inst, mode)
        assert serving_sats(inst, result.links)[100] == 0
        assert result.unserved == ()

    @pytest.mark.parametrize("mode", list(SchemeMode))
    def test_constraints_hold(self, mode, instance_factory):
        # one shared satellite plus private ones
        vis = {100: (0, 1), 101: (0, 2), 102: (0,), 103: (0, 1)}
        inst = instance_factory(np.random.default_rng(6), n_sats=3, n_gus=4,
                                n_beams=2, visible=vis)
        result = greedy_schedule(inst, mode)
        audit_constraints(inst, result.links)
        assert result.unserved == ()

    def test_determinism(self, instance_factory):
        for mode in SchemeMode:
            runs = []
            for _ in range(2):
                inst = instance_factory(np.random.default_rng(7), n_sats=4,
                                        n_gus=6, n_beams=2)
                runs.append(greedy_schedule(inst, mode))
            assert np.array_equal(runs[0].links, runs[1].links)
            assert runs[0].total_se == runs[1].total_se
            assert runs[0].unserved == runs[1].unserved

    def test_capacity_exhausted_satellite_retired(self, instance_factory):
        # single satellite, one beam, two users: second argmax win must
        # retire the satellite instead of committing
        vis = {100: (0, 1), 101: (0, 1)}
        inst = instance_factory(np.random.default_rng(8), n_sats=2, n_gus=2,
                                n_beams=1, visible=vis)
        result = greedy_schedule(inst, SchemeMode.AU, trace=True)
        assert result.unserved == ()
        served = inst.served_map(result.links)
        assert {s: len(gus) for s, gus in served.items()} == {0: 1, 1: 1}
        audit_constraints(inst, result.links)

    def test_partial_assignment_reported(self, instance_factory):
        # both users only see the one-beam satellite
        vis = {100: (0,), 101: (0,)}
        inst = instance_factory(np.random.default_rng(9), n_sats=1, n_gus=2,
                                n_beams=1, visible=vis)
        result = greedy_schedule(inst, SchemeMode.JHU)
        assert len(result.unserved) == 1
        audit_constraints(inst, result.links)

    def test_user_with_no_satellite(self, instance_factory):
        vis = {100: (0,), 101: ()}
        inst = instance_factory(np.random.default_rng(10), n_sats=1, n_gus=2,
                                visible=vis)
        result = greedy_schedule(inst, SchemeMode.AU)
        assert result.unserved == (101,)

    @pytest.mark.parametrize("mode", list(SchemeMode))
    def test_no_active_satellite(self, mode, instance_factory):
        inst = instance_factory(np.random.default_rng(18), n_sats=0, n_gus=2,
                                visible={100: (), 101: ()})
        result = greedy_schedule(inst, mode)
        assert result.unserved == (100, 101)
        assert result.total_se == 0.0

    def test_trace_records(self, instance_factory):
        inst = instance_factory(np.random.default_rng(11), n_sats=3, n_gus=4,
                                n_beams=2)
        result = greedy_schedule(inst, SchemeMode.JHU, trace=True)
        committed = [r for r in result.trace if r.committed]
        # every committed trace entry matches a final link
        for rec in committed:
            assert serving_sats(inst, result.links)[rec.gu_id] == rec.sat_id
        assert all(r.n_candidates > 0 for r in result.trace)

    def test_beams_power_at_capacity(self, instance_factory):
        inst = instance_factory(np.random.default_rng(12), n_sats=3, n_gus=6,
                                n_beams=2)
        for mode in SchemeMode:
            result = greedy_schedule(inst, mode)
            for s, b in result.beams.items():
                w = inst.beam_matrix(b)
                assert float(np.sum(np.abs(w) ** 2)) == pytest.approx(
                    inst.tx_power_w, rel=1e-9)


    @pytest.mark.parametrize("mode", list(SchemeMode))
    def test_nan_score_raises_named_error(self, mode, instance_factory):
        # a NaN channel makes the scores of its links NaN, which np.argmax
        # would otherwise pick
        inst = instance_factory(np.random.default_rng(17), n_sats=2, n_gus=2,
                                visible={100: (0, 1), 101: (0, 1)})
        channels = inst.channels.copy()
        channels[1, 1] = np.nan
        inst = replace(inst, channels=channels)
        with pytest.raises(metrics.NonFiniteSinrError,
                           match=r"score of link \(\d, 101\) is nan"):
            greedy_schedule(inst, mode)


class TestExhaustive:
    def test_single_user_picks_best_satellite(self, instance_factory):
        inst = instance_factory(np.random.default_rng(13), n_sats=3, n_gus=1,
                                visible={100: (0, 1, 2)})
        result = exhaustive_schedule(inst, SchemeMode.AU)
        per_sat = {}
        for s in range(3):
            links = np.array([inst.sat_index[s]])
            per_sat[s] = metrics.total_se(inst, links,
                                          final_beams(inst, links, SchemeMode.AU))
        assert serving_sats(inst, result.links)[100] == max(per_sat, key=per_sat.get)

    def test_disjoint_visibility_matches_greedy(self, instance_factory):
        vis = {100: (0,), 101: (1,), 102: (2,)}
        inst = instance_factory(np.random.default_rng(14), n_sats=3, n_gus=3,
                                visible=vis)
        for mode in SchemeMode:
            g = greedy_schedule(inst, mode)
            e = exhaustive_schedule(inst, mode)
            assert np.array_equal(g.links, e.links)
            assert g.total_se == pytest.approx(e.total_se, rel=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_greedy_never_beats_oracle(self, seed, instance_factory):
        rng = np.random.default_rng(1000 + seed)
        inst = instance_factory(rng, n_sats=3, n_gus=4, n_beams=2)
        for mode in SchemeMode:
            g = greedy_schedule(inst, mode)
            e = exhaustive_schedule(inst, mode)
            assert g.total_se <= e.total_se * (1.0 + 1e-12)
            audit_constraints(inst, g.links)
            audit_constraints(inst, e.links, maximal=False)

    def test_space_guard(self, instance_factory):
        inst = instance_factory(np.random.default_rng(15), n_sats=4, n_gus=5)
        with pytest.raises(ExhaustiveSearchError):
            exhaustive_schedule(inst, SchemeMode.AU, max_space=2)


class TestSchemeMode:
    def test_parse(self):
        assert SchemeMode.parse("JHU") is SchemeMode.JHU
        assert SchemeMode.parse(" au ") is SchemeMode.AU
        assert SchemeMode.parse(SchemeMode.SHU) is SchemeMode.SHU
        with pytest.raises(ValueError):
            SchemeMode.parse("zf")

    def test_au_shu_same_links_different_beams(self, instance_factory):
        inst = instance_factory(np.random.default_rng(16), n_sats=3, n_gus=6,
                                n_beams=3)
        au = greedy_schedule(inst, SchemeMode.AU)
        shu = greedy_schedule(inst, SchemeMode.SHU)
        assert np.array_equal(au.links, shu.links)
        # SHU applies digital beamforming afterwards: beams differ whenever
        # some satellite serves more than one user
        multi = [s for s, gus in inst.served_map(au.links).items() if len(gus) > 1]
        if multi:
            s = multi[0]
            assert not np.allclose(inst.beam_matrix(au.beams[s]),
                                   inst.beam_matrix(shu.beams[s]))
