import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import instances, make_instance
from coopsat.channel import vsat_gain_linear
from coopsat.config import load_config
from coopsat.harness import build_epoch_instance


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
        assert np.array_equal(inst.gain_table, loop_gain_table(inst))

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_equals_the_loop_on_desk(self, seed):
        cfg = replace(load_config("desk"), seed=seed)
        for epoch, t in enumerate(cfg.epochs.times()):
            inst = build_epoch_instance(cfg, epoch, t)
            assert np.array_equal(inst.gain_table, loop_gain_table(inst))
