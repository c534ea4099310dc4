import numpy as np
import pytest
from hypothesis import strategies as st

from coopsat.beamforming import analog_beamform, build_codebook
from coopsat.channel import ArrayConfig, RfConfig
from coopsat.network import EpochInstance


@pytest.fixture
def small_array():
    return ArrayConfig(n_x=4, n_y=4, n_sub_x=2, n_sub_y=1)


@pytest.fixture
def default_array():
    return ArrayConfig()


@pytest.fixture
def rf():
    return RfConfig()


def make_instance(rng, n_sats=3, n_gus=5, n_beams=2, array=None, rf_cfg=None,
                  channel_scale=3.0, visible=None):
    """Random synthetic scheduling instance with consistent channels,
    analog beams and user-to-satellite directions."""
    array = array or ArrayConfig(n_x=4, n_y=4, n_sub_x=2, n_sub_y=1)
    rf_cfg = rf_cfg or RfConfig()
    codebook = build_codebook(array)
    n = array.n_elements

    sat_ids = tuple(range(n_sats))
    gu_ids = tuple(range(100, 100 + n_gus))
    if visible is None:
        visible = {}
        for g in gu_ids:
            k = int(rng.integers(1, n_sats + 1))
            visible[g] = tuple(sorted(rng.choice(n_sats, size=k, replace=False).tolist()))
    base, beams, dirs = {}, {}, {}
    for g in gu_ids:
        for s in visible[g]:
            h = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2 * n)
            base[(s, g)] = channel_scale * h
            beams[(s, g)] = analog_beamform(h, codebook, k=min(4, n)).entries
            d = rng.standard_normal(3)
            dirs[(g, s)] = d / np.linalg.norm(d)
    return EpochInstance(sat_ids=sat_ids, gu_ids=gu_ids, rf=rf_cfg,
                         n_beams=n_beams, visible=visible, base_channels=base,
                         analog_beams=beams, sat_directions=dirs)


def serving_vector(instance, sats):
    """Serving vector (satellite row per user, -1 unserved) of a
    {user: satellite or None} map; users missing from the map are
    unserved."""
    return np.array([-1 if sats.get(g) is None else instance.sat_index[sats[g]]
                     for g in instance.gu_ids], dtype=int)


def serving_sats(instance, serving):
    """{user: satellite or None} map of a serving vector."""
    return {g: None if i < 0 else instance.sat_ids[i]
            for g, i in zip(instance.gu_ids, serving)}


def mirror_first_satellite(inst: EpochInstance) -> EpochInstance:
    """Copy satellite 0's links onto satellite 1 (same channels, beams and
    directions), so their candidates tie exactly while the two serve the
    same users."""
    base, beams, dirs = (dict(inst.base_channels), dict(inst.analog_beams),
                         dict(inst.sat_directions))
    for g, sats in inst.visible.items():
        if 0 in sats:
            base[(1, g)] = base[(0, g)]
            beams[(1, g)] = beams[(0, g)]
            dirs[(g, 1)] = dirs[(g, 0)]
    return EpochInstance(inst.sat_ids, inst.gu_ids, inst.rf, inst.n_beams,
                         inst.visible, base, beams, dirs)


@st.composite
def instances(draw):
    """Random instances: any visibility (users who see one satellite or
    none included), one to three beams per satellite, and optionally
    satellites 0 and 1 as exact copies of each other."""
    n_sats = draw(st.integers(1, 4))
    n_gus = draw(st.integers(1, 7))
    n_beams = draw(st.integers(1, 3))
    mirror = n_sats >= 2 and draw(st.booleans())
    visible = {}
    for g in range(100, 100 + n_gus):
        sats = draw(st.sets(st.integers(0, n_sats - 1), max_size=n_sats))
        if mirror and sats & {0, 1}:
            sats |= {0, 1}
        visible[g] = tuple(sorted(sats))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inst = make_instance(rng, n_sats=n_sats, n_gus=n_gus, n_beams=n_beams,
                         visible=visible)
    return mirror_first_satellite(inst) if mirror else inst


@pytest.fixture
def instance_factory():
    return make_instance
