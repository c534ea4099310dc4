"""Differential tests: the incremental greedy scorer against the
whole-network re-evaluation loop kept in ``reference_greedy``.

The reference is replayed along the new scheduler's decisions, so every
step is compared from the same state even after a near-tie sent the two
down different paths.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance
from coopsat.network import EpochInstance
from coopsat.scheduling import SchemeMode, greedy_schedule
from reference_greedy import reference_greedy

# Reference gains closer than this (relative) are a near-tie, which the
# two scorers may break differently: their rounding differs.
NEAR_TIE = 1e-9
# The scores themselves must agree to this (bits, relative or absolute).
# The reference computes each served user's intra-satellite interference
# as (sum of beam powers) - (own beam power), so its absolute rounding
# error is of order 1e-16 * signal power: about 1e-10 at the 1e6-scale
# SINRs of these instances, seen as gain differences up to ~1e-9 bit.
SCORE_TOL = 1e-6


def _near(a: float, b: float) -> bool:
    return abs(a - b) <= NEAR_TIE * max(abs(a), abs(b))


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


def assert_matches_reference(inst: EpochInstance, mode: SchemeMode) -> None:
    new = greedy_schedule(inst, mode, trace=True)
    picks = [(r.sat_id, r.gu_id) for r in new.trace]
    steps, links, unserved = reference_greedy(inst, mode, picks=picks)

    assert len(steps) == len(new.trace)
    near_tie_seen = False
    for rec, step in zip(new.trace, steps):
        ref = step.record
        assert (rec.iteration, rec.n_candidates, rec.committed) == (
            ref.iteration, ref.n_candidates, ref.committed)
        best_pair, best = step.best
        runner_up = sorted(step.gains)[-2] if len(step.gains) > 1 else -math.inf
        pick = (rec.sat_id, rec.gu_id)
        if best == runner_up:
            assert pick == best_pair  # exact tie: smallest (sat, gu)
        elif _near(best, runner_up):
            near_tie_seen = True
            assert _near(step.gain_of(pick), best)
        else:
            assert pick == best_pair
        assert math.isclose(rec.delta_se, step.gain_of(pick),
                            rel_tol=SCORE_TOL, abs_tol=SCORE_TOL)
    assert np.array_equal(new.links.matrix, links.matrix)
    assert new.unserved == unserved

    if not near_tie_seen:  # then the reference's own path is the same
        _, own_links, own_unserved = reference_greedy(inst, mode)
        assert np.array_equal(new.links.matrix, own_links.matrix)
        assert new.unserved == own_unserved


@pytest.mark.parametrize("mode", list(SchemeMode))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(inst=instances())
def test_greedy_matches_reference_loop(mode, inst):
    assert_matches_reference(inst, mode)


@pytest.mark.parametrize("mode", list(SchemeMode))
def test_exact_tie_goes_to_smallest_pair(mode):
    # users 100 and 101 see the mirrored satellites 0 and 1: the first
    # step's best gain is shared by (0, g) and (1, g)
    inst = mirror_first_satellite(make_instance(
        np.random.default_rng(31), n_sats=3, n_gus=4, n_beams=1,
        visible={100: (0, 1), 101: (0, 1, 2), 102: (2,), 103: ()}))
    steps, _, _ = reference_greedy(inst, mode)
    (s, g), best = steps[0].best
    assert s == 0
    assert steps[0].gain_of((1, g)) == best  # the tie is exact
    new = greedy_schedule(inst, mode, trace=True)
    assert (new.trace[0].sat_id, new.trace[0].gu_id) == (0, g)
    assert_matches_reference(inst, mode)
