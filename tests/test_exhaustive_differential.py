"""Differential tests: the exhaustive oracle, which designs every
(satellite, member set) up front in batches and scores assignments in
stacked blocks, against the per-assignment loop kept in
``reference_exhaustive``.

Both evaluate every assignment with the same arithmetic, so the links
must be equal and the total SE equal to the bit, ties included, however
the designs are split into batches.  The array-built blocks of
assignments must be ``itertools.product``'s, and a batch of designs
over many satellites must give each set the bits it gets alone.
"""

import itertools
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import instances, make_instance, mirror_first_satellite, same_bits
from coopsat import metrics, scheduling
from coopsat.network import design_powers, equal_power_mixer, hybrid_from_beamspace
from coopsat.scheduling import SchemeMode, exhaustive_schedule, final_beams
from reference_exhaustive import reference_exhaustive

# No satellite in view: every user's one option is to stay unserved.
NO_SATELLITE = make_instance(np.random.default_rng(43), n_sats=0, n_gus=3,
                             visible={g: () for g in range(100, 103)})


def assert_matches_reference(inst, mode):
    new = exhaustive_schedule(inst, mode)
    ref = reference_exhaustive(inst, mode)
    assert np.array_equal(new.links, ref.links)
    assert new.total_se == ref.total_se
    assert new.unserved == ref.unserved
    assert new.beams.keys() == ref.beams.keys()
    assert all(np.array_equal(new.beams[i], ref.beams[i]) for i in ref.beams)


@pytest.mark.parametrize("mode", list(SchemeMode))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(inst=instances(max_gus=5))
def test_exhaustive_matches_reference_loop(mode, inst):
    assert_matches_reference(inst, mode)


@pytest.mark.parametrize("mode", list(SchemeMode))
def test_no_satellite_in_view_matches_reference_loop(mode):
    assert_matches_reference(NO_SATELLITE, mode)


def options_of(inst):
    return [np.flatnonzero(row).tolist() + [-1] for row in inst.visible_mask]


def assert_blocks_match_product(options):
    assignments = itertools.product(*options)
    blocks = scheduling._assignment_blocks(options)
    while combos := list(itertools.islice(assignments, scheduling._BLOCK)):
        expected = np.array(combos, dtype=int).reshape(len(combos), len(options))
        block = next(blocks)
        assert block.dtype == expected.dtype
        assert np.array_equal(block, expected)
    assert next(blocks, None) is None


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(inst=instances(max_gus=7))
def test_array_blocks_equal_product_blocks(inst):
    assert_blocks_match_product(options_of(inst))


# Spaces of one assignment (no satellite in view), of 4 full blocks
# (4**5), of 3 blocks with a short last one (3**6 = 729), and of mixed
# radices with a user who sees nothing (4 * 1 * 2 * 3 * 4 * 2 * 3 = 1152).
@pytest.mark.parametrize("options", [
    options_of(NO_SATELLITE),
    [[0, 1, 2, -1]] * 5,
    [[0, 1, -1]] * 6,
    [[0, 1, 2, -1], [-1], [1, -1], [0, 2, -1], [0, 1, 2, -1], [2, -1], [1, 2, -1]],
], ids=["no-satellite", "4-blocks", "short-last-block", "mixed-radix"])
def test_array_blocks_equal_product_blocks_over_several_blocks(options):
    assert_blocks_match_product(options)


# Nine users of one satellite with nine beams, and eight satellites with
# satellite 0 seen by all nine users: sets of eight or more members, whose
# sums over beams numpy adds with several accumulators, unlike the sums
# of fewer than eight terms the strategy's sets give.
NINE_BEAMS = make_instance(np.random.default_rng(45), n_sats=1, n_gus=9, n_beams=9,
                           visible={g: (0,) for g in range(100, 109)})
EIGHT_SATELLITES = make_instance(
    np.random.default_rng(46), n_sats=8, n_gus=9, n_beams=9,
    visible={g: (0, 1 + k % 7, 1 + (k + 3) % 7) for k, g in enumerate(range(100, 109))})


# The oracle designs the sets of one size of every satellite in one call,
# the satellite given per row: each row must keep the bits of its set
# designed alone, for the hybrid and the equal-power mixers alike.
@pytest.mark.parametrize("beta", [None, 0.0, 0.5])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(inst=instances(max_gus=6))
@example(inst=NINE_BEAMS)
@example(inst=EIGHT_SATELLITES)
def test_cross_satellite_design_equals_each_set_alone(beta, inst):
    for m in range(1, max(3, inst.n_beams) + 1):
        sets = [(s, c) for s, seen in enumerate(inst.visible_mask.T)
                for c in itertools.combinations(np.flatnonzero(seen).tolist(), m)]
        if not sets:
            continue
        sat, idx = np.array([s for s, _ in sets]), np.array([c for _, c in sets])
        hybrid = hybrid_from_beamspace(inst, sat, idx, beta)
        for k, s in enumerate(sat.tolist()):  # the mixers are transposed views
            assert same_bits(np.ascontiguousarray(hybrid[k]), np.ascontiguousarray(
                hybrid_from_beamspace(inst, s, idx[k:k + 1], beta)[0]))
        for mixer in (hybrid, equal_power_mixer(inst, m)):
            batched = design_powers(inst, sat, idx, mixer)
            for k, s in enumerate(sat.tolist()):
                one = mixer[k:k + 1] if mixer.ndim == 3 else mixer
                single = design_powers(inst, s, idx[k:k + 1], one)
                assert all(same_bits(a[k], b[0]) for a, b in zip(batched, single))


@pytest.mark.parametrize("mode", list(SchemeMode))
@pytest.mark.parametrize("seed", range(2))
def test_several_blocks_match_reference_loop(mode, seed):
    # 4**5 = 1024 assignments: four blocks, with one beam per satellite
    # binding the capacity in most of them
    inst = make_instance(np.random.default_rng(40 + seed), n_sats=3, n_gus=5,
                         n_beams=1 + seed,
                         visible={g: (0, 1, 2) for g in range(100, 105)})
    assert_matches_reference(inst, mode)


# Batches of one and of three designs: with three, a batch boundary falls
# inside one (satellite, member count), e.g. among the 10 pairs of 5 users.
@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("mode", list(SchemeMode))
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(inst=instances(max_gus=5))
def test_design_batches_match_reference_loop(chunk, mode, inst):
    with mock.patch.object(scheduling, "_CHUNK", chunk):
        assert_matches_reference(inst, mode)


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("mode", list(SchemeMode))
def test_design_batches_match_reference_loop_at_capacity(chunk, mode):
    inst = make_instance(np.random.default_rng(41), n_sats=3, n_gus=5, n_beams=2,
                         visible={g: (0, 1, 2) for g in range(100, 105)})
    with mock.patch.object(scheduling, "_CHUNK", chunk):
        assert_matches_reference(inst, mode)


@pytest.mark.parametrize("mode", list(SchemeMode))
def test_each_member_set_is_designed_once(mode):
    inst = make_instance(np.random.default_rng(42), n_sats=3, n_gus=5, n_beams=3,
                         visible={100: (0, 1), 101: (0, 1, 2), 102: (1,),
                                  103: (0, 2), 104: (0, 1, 2)})
    expected = sorted(
        (s, subset) for s in range(3)
        for m in range(1, inst.n_beams + 1)
        for subset in itertools.combinations(
            np.flatnonzero(inst.visible_mask[:, s]).tolist(), m))
    with mock.patch.object(scheduling, "_CHUNK", 3), \
         mock.patch.object(scheduling, "design_powers",
                           wraps=scheduling.design_powers) as powers, \
         mock.patch.object(scheduling, "hybrid_from_beamspace",
                           wraps=scheduling.hybrid_from_beamspace) as zf:
        exhaustive_schedule(inst, mode)
    for spy in (powers,) if mode is SchemeMode.AU else (powers, zf):
        designed = sorted((s, tuple(row)) for c in spy.call_args_list
                          for s, row in zip(c.args[1].tolist(), c.args[2].tolist()))
        assert designed == expected  # every set, none twice
    if mode is SchemeMode.AU:
        assert not zf.called


# User 100 sees only the mirrored satellites 0 and 1, which serve it
# equally well: serving it from 0 or from 1 ties to the bit, and the
# first enumerated (satellite 0) must win.  With four more users seeing
# three other satellites, the two tied assignments lie 256 apart, in
# different blocks.
TIES = {"within a block": {100: (0, 1), 101: (2,), 102: ()},
        "across blocks": {100: (0, 1), **{g: (2, 3, 4) for g in range(101, 105)}}}


@pytest.mark.parametrize("mode", list(SchemeMode))
@pytest.mark.parametrize("visible", TIES.values(), ids=TIES.keys())
def test_exact_tie_goes_to_first_assignment(mode, visible):
    inst = mirror_first_satellite(make_instance(
        np.random.default_rng(31), n_sats=5, n_gus=len(visible), n_beams=2,
        visible=visible))
    result = exhaustive_schedule(inst, mode)
    assert result.links[0] == 0
    swapped = result.links.copy()
    swapped[0] = 1
    beams = final_beams(inst, swapped, mode)
    assert metrics.total_se(inst, swapped, beams) == result.total_se
    assert_matches_reference(inst, mode)


@pytest.mark.parametrize("search", [exhaustive_schedule, reference_exhaustive])
def test_non_finite_sinr_names_user_and_satellite(search):
    inst = make_instance(np.random.default_rng(17), n_sats=2, n_gus=2,
                         visible={100: (0, 1), 101: (0, 1)})
    channels = inst.channels.copy()
    channels[1, 1] = np.nan
    with pytest.raises(metrics.NonFiniteSinrError,
                       match=r"SINR of user 101 served by satellite 1 is nan"):
        search(replace(inst, channels=channels), SchemeMode.AU)


@pytest.mark.parametrize("search", [exhaustive_schedule, reference_exhaustive])
def test_non_finite_sinr_in_a_later_block(search):
    # user 100's beam from satellite 2 is NaN: the first assignment that
    # radiates it is the 513th, in the third block of 256
    inst = make_instance(np.random.default_rng(18), n_sats=3, n_gus=5, n_beams=5,
                         visible={g: (0, 1, 2) for g in range(100, 105)})
    analog = inst.analog.copy()
    analog[2, 0] = np.nan
    with pytest.raises(metrics.NonFiniteSinrError,
                       match=r"SINR of user 100 served by satellite 2 is nan"):
        search(replace(inst, analog=analog), SchemeMode.AU)
