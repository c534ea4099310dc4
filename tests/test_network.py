import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import instances, make_instance, same_bits, serving_vector
from coopsat.channel import vsat_gain_linear
from coopsat.config import load_config
from coopsat.harness import build_epoch_instance
from coopsat.metrics import user_metrics
from coopsat.network import (beam_powers, design_powers, equal_power_mixer,
                             hybrid_from_beamspace)
from coopsat.scheduling import SchemeMode, final_beams
from reference_powers import reference_design_powers


@pytest.fixture
def inst():
    return make_instance(np.random.default_rng(40), n_sats=2, n_gus=3)


class TestEpochInstanceInputs:
    def test_visibility_must_be_bool(self, inst):
        with pytest.raises(ValueError, match="visible_mask"):
            replace(inst, visible_mask=inst.visible_mask.astype(int))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 3), (3,), (3, 2, 1)])
    def test_visibility_must_be_users_by_satellites(self, inst, shape):
        with pytest.raises(ValueError, match="visible_mask"):
            replace(inst, visible_mask=np.ones(shape, dtype=bool))

    @pytest.mark.parametrize("name", ["channels", "analog"])
    def test_links_must_match_the_visibility_shape(self, inst, name):
        links = getattr(inst, name)
        for bad in (links[:1], links[:, :2], links.transpose(1, 0, 2), links[0]):
            with pytest.raises(ValueError, match=name):
                replace(inst, **{name: bad})
        with pytest.raises(ValueError, match=name):
            replace(inst, **{name: links.real})

    def test_channels_and_beams_share_the_element_count(self, inst):
        with pytest.raises(ValueError, match="analog"):
            replace(inst, analog=inst.analog[:, :, :4])

    def test_directions_must_match_the_visibility_shape(self, inst):
        for bad in (inst.directions.transpose(1, 0, 2), inst.directions[:, :, :2],
                    inst.directions[:, :1]):
            with pytest.raises(ValueError, match="directions"):
                replace(inst, directions=bad)

    def test_ids_must_be_sorted_and_unique(self, inst):
        with pytest.raises(ValueError, match="gu_ids"):
            replace(inst, gu_ids=(102, 101, 100))
        with pytest.raises(ValueError, match="sat_ids"):
            replace(inst, sat_ids=(0, 0))


def loop_gain_table(inst):
    """The per-(u, a, b) loop ``EpochInstance.gain_table`` replaced: each
    ordered pair's angle evaluated on its own."""
    n_s = len(inst.sat_ids)
    out = np.zeros((len(inst.gu_ids), n_s, n_s))
    for u, row in enumerate(inst.visible_mask):
        sats = np.flatnonzero(row)
        for a in sats:
            out[u, a, a] = inst.boresight_gain
            for b in sats[sats != a]:
                cos = np.dot(inst.directions[u, a], inst.directions[u, b])
                angle = math.degrees(math.acos(float(np.clip(cos, -1.0, 1.0))))
                out[u, a, b] = vsat_gain_linear(angle, inst.rf)
    return out


class TestGainTable:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(inst=instances())
    def test_equals_the_loop(self, inst):
        # to a relative 1e-11: near boresight one ulp of the cosine moves
        # a gain by up to ~7e-13 (the largest deviation seen with numpy
        # 2.4.6 on x86-64, where the loop's np.dot and the table's sum
        # rounded a cosine differently); the zeros are exact
        table, loop = inst.gain_table, loop_gain_table(inst)
        assert np.array_equal(table == 0.0, loop == 0.0)
        np.testing.assert_allclose(table, loop, rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_equals_the_loop_on_desk(self, seed):
        cfg = replace(load_config("desk"), seed=seed)
        for epoch, t in enumerate(cfg.epochs.times()):
            inst = build_epoch_instance(cfg, epoch, t)
            assert np.array_equal(inst.gain_table, loop_gain_table(inst))


def dense_desk():
    """desk's users and epochs under a 20 x 20 Walker constellation at
    1,200 km: dense enough that users see two satellites less than the
    2.7 degrees apart at which the user antenna's roll-off reaches its
    floor, which the bundled profiles never do."""
    cfg = load_config("desk")
    return replace(cfg, constellation=replace(cfg.constellation, planes=20, sats_per_plane=20,
                                              altitude_km=1200.0))


class TestRollOff:
    def test_gain_table_off_the_floor_equals_the_arithmetic(self):
        # every entry above the 30 dB floor is the quadratic roll-off of
        # its angle, computed here one entry at a time with math, to the
        # relative 1e-11 of TestGainTable
        cfg = dense_desk()
        rf = cfg.rf
        floor = 10.0 ** ((rf.vsat_max_gain_dbi - rf.vsat_floor_suppression_db) / 10.0)
        above = 0
        for epoch, t in enumerate(cfg.epochs.times()):
            inst = build_epoch_instance(cfg, epoch, t)
            table = inst.gain_table
            off_diagonal = ~np.eye(len(inst.sat_ids), dtype=bool)
            for u, a, b in np.argwhere((table > floor) & off_diagonal):
                cos = sum(x * y for x, y in zip(inst.directions[u, a].tolist(),
                                                inst.directions[u, b].tolist()))
                angle = math.degrees(math.acos(cos))
                gain_db = rf.vsat_max_gain_dbi - 3.0 * (angle / rf.vsat_theta_3db_deg) ** 2
                assert table[u, a, b] == pytest.approx(10.0 ** (gain_db / 10.0), rel=1e-11)
                above += 1
        assert above == 120  # over the 10 epochs; the bundled profiles have none

    def test_sinr_of_users_on_the_roll_off(self):
        # at the first epoch users 2 and 4 track satellite 62 and hear
        # satellite 345 at 25.5 and 25.6 dBi, on the roll-off, and user 15
        # tracks 345 and hears 62 at 28.2 dBi; served so, each user's
        # interference includes the other satellite's beams through that
        # gain.  Pinned to a relative 1e-9, perfbench's tolerance
        cfg = dense_desk()
        inst = build_epoch_instance(cfg, 0, cfg.epochs.times()[0])
        rows = {s: inst.sat_ids.index(s) for s in (62, 345)}
        assert [round(10.0 * math.log10(inst.gain_table[u, rows[a], rows[b]]), 1)
                for u, a, b in [(2, 62, 345), (4, 62, 345), (15, 345, 62)]] == [25.5, 25.6, 28.2]
        serving = serving_vector(inst, {2: 62, 4: 62, 15: 345})
        beams = final_beams(inst, serving, SchemeMode.AU, cfg.beta)
        sinr = {m.gu_id: m.sinr for m in user_metrics(inst, serving, beams)
                if m.serving_sat is not None}
        assert sinr == pytest.approx({2: 0.8051843469380585, 4: 1.2445247413389766, 15: 5.436932502025224}, rel=1e-9)


def _design_cases(inst):
    """(sat, idx) of every member set of up to three users who see a
    satellite: per satellite, with the satellite given once and per row;
    and every satellite's sets of one size in one stack."""
    for m in range(1, 4):
        sats, sets = [], []
        for s, seen in enumerate(inst.visible_mask.T):
            idx = np.array(list(itertools.combinations(np.flatnonzero(seen), m)),
                           dtype=int).reshape(-1, m)
            if not len(idx):
                continue
            yield s, idx
            yield np.full(len(idx), s), idx
            sats.append(np.full(len(idx), s))
            sets.append(idx)
        if sets:
            yield np.concatenate(sats), np.concatenate(sets)


@pytest.mark.parametrize("beta", [None, 0.0])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(inst=instances(max_gus=6))
def test_design_powers_equal_per_beam_loop(beta, inst):
    for sat, idx in _design_cases(inst):
        hybrid = hybrid_from_beamspace(inst, sat, idx, beta)
        for mixer in (hybrid, equal_power_mixer(inst, idx.shape[1])):
            got = design_powers(inst, sat, idx, mixer)
            want = reference_design_powers(inst, sat, idx, mixer)
            assert all(same_bits(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("m", [9, 10])
def test_design_powers_equal_per_beam_loop_at_many_beams(m):
    # numpy sums eight or more beams with several accumulators, so the
    # two must sum each member's other beams over the same n entries
    inst = make_instance(np.random.default_rng(44), n_sats=2, n_gus=10, n_beams=10,
                         visible={g: (0, 1) for g in range(100, 110)})
    idx = np.array(list(itertools.combinations(range(10), m)))
    for sat in (1, np.arange(len(idx)) % 2):
        for mixer in (hybrid_from_beamspace(inst, sat, idx), equal_power_mixer(inst, m)):
            got = design_powers(inst, sat, idx, mixer)
            want = reference_design_powers(inst, sat, idx, mixer)
            assert all(same_bits(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("serving,beams", [
    ({100: 0, 101: 1}, {0: np.eye(1), 1: np.ones((1, 2))}),  # a 1 x 2 mixer for one user
    ({100: 0, 101: 1}, {0: np.eye(1)}),                     # a serving satellite without beams
    ({100: 0}, {0: np.eye(1), 1: np.eye(1)}),               # beams of a satellite serving nobody
], ids=["shape", "missing", "extra"])
def test_beam_powers_rejects_beams_that_do_not_match_the_serving_vector(serving, beams):
    inst = make_instance(np.random.default_rng(30), n_sats=2, n_gus=2,
                         visible={100: (0,), 101: (1,)})
    links = serving_vector(inst, serving)
    beam_powers(inst, links, {i: np.eye(1) for i in inst.served_map(links)})
    shapes = {i: np.shape(b) for i, b in beams.items()}
    with pytest.raises(ValueError, match="^" + re.escape(
            f"mixer shapes {shapes} do not match the user rows served by each "
            f"satellite row, {inst.served_map(links)}") + "$"):
        beam_powers(inst, links, beams)
