"""Differential tests: the incremental greedy scorer against the
whole-network re-evaluation loop kept in ``reference_greedy``.

The reference is replayed along the new scheduler's decisions, so every
step is compared from the same state even after a near-tie sent the two
down different paths.  The scorer keeps its beams' powers and candidate
designs across iterations; JHU's scores are also checked against
``reference_greedy.hybrid_gains``, which designs them again each time,
to ``JHU_SCORE_RTOL`` and ``JHU_SCORE_ATOL``, and every mode's kept
powers against beams designed afresh after every commit.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import instances, make_instance, mirror_first_satellite
from coopsat import scheduling
from coopsat.network import EpochInstance, beam_powers, hybrid_from_beamspace
from coopsat.scheduling import SchemeMode, greedy_schedule, preassign_single_visibility
from reference_greedy import hybrid_gains, reference_greedy, unit_power_beams

# Reference gains closer than this (relative) are a near-tie, which the
# two scorers may break differently: their rounding differs.
NEAR_TIE = 1e-9
# The scores themselves must agree to this (bits, relative or absolute).
# Each side sums its terms in its own order, and both sum a served user's
# intra-satellite interference beam by beam, so the scores differ only by
# rounding: up to ~5e-12 bit on 60 random instances of the sizes drawn
# here.  The bound leaves a wide margin over that.
SCORE_TOL = 1e-6


def _near(a: float, b: float) -> bool:
    return abs(a - b) <= NEAR_TIE * max(abs(a), abs(b))


def assert_matches_reference(inst: EpochInstance, mode: SchemeMode) -> None:
    scorer = scheduling._joint_gains
    grids = []  # the scorer's own gains at each step

    def recording(*args):
        gains = scorer(*args)
        grids.append(gains.copy())
        return gains

    with mock.patch.object(scheduling, "_joint_gains", recording):
        new = greedy_schedule(inst, mode, trace=True)
    picks = [(r.sat_id, r.gu_id) for r in new.trace]
    steps, links, unserved = reference_greedy(inst, mode, picks=picks)

    assert len(steps) == len(new.trace) == len(grids)
    near_tie_seen = False
    for rec, step, grid in zip(new.trace, steps, grids):
        ref = step.record
        assert (rec.iteration, rec.n_candidates, rec.committed) == (
            ref.iteration, ref.n_candidates, ref.committed)
        best_pair, best = step.best
        runner_up = sorted(step.gains)[-2] if len(step.gains) > 1 else -math.inf
        pick = (rec.sat_id, rec.gu_id)
        tied = np.argwhere(grid == grid.max())
        if len(tied) > 1:  # an exact tie in the scorer's gains: smallest (sat, gu)
            assert pick == min((inst.sat_ids[s], inst.gu_ids[g]) for s, g in tied)
        # an exact tie in the reference's gains is a near-tie too: the
        # scorer's rounding may break it
        if _near(best, runner_up):
            near_tie_seen = True
            assert _near(step.gain_of(pick), best)
        else:
            assert pick == best_pair
        assert math.isclose(rec.delta_se, step.gain_of(pick),
                            rel_tol=SCORE_TOL, abs_tol=SCORE_TOL)
    assert np.array_equal(new.links, links)
    assert new.unserved == unserved

    if not near_tie_seen:  # then the reference's own path is the same
        _, own_links, own_unserved = reference_greedy(inst, mode)
        assert np.array_equal(new.links, own_links)
        assert new.unserved == own_unserved


@pytest.mark.parametrize("mode", list(SchemeMode))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(inst=instances())
def test_greedy_matches_reference_loop(mode, inst):
    assert_matches_reference(inst, mode)


@pytest.mark.parametrize("mode", list(SchemeMode))
def test_exact_tie_goes_to_smallest_pair(mode):
    inst = tie_instance()
    steps, _, _ = reference_greedy(inst, mode)
    (s, g), best = steps[0].best
    assert s == 0
    assert steps[0].gain_of((1, g)) == best  # the tie is exact
    new = greedy_schedule(inst, mode, trace=True)
    assert (new.trace[0].sat_id, new.trace[0].gu_id) == (0, g)
    assert_matches_reference(inst, mode)


def tie_instance() -> EpochInstance:
    # users 100 and 101 see the mirrored satellites 0 and 1: the first
    # step's best gain is shared by (0, g) and (1, g)
    return mirror_first_satellite(make_instance(
        np.random.default_rng(31), n_sats=3, n_gus=4, n_beams=1,
        visible={100: (0, 1), 101: (0, 1, 2), 102: (2,), 103: ()}))


def crowded_instance() -> EpochInstance:
    # one beam per satellite for five contending users: satellites are
    # retired at capacity between commits; user 103 sees no satellite
    return mirror_first_satellite(make_instance(
        np.random.default_rng(42), n_sats=3, n_gus=6, n_beams=1,
        visible={100: (0, 1), 101: (0, 1, 2), 102: (0, 1, 2), 103: (),
                 104: (1, 2), 105: (0, 2)}))


def many_satellites_instance() -> EpochInstance:
    # users seeing up to ten satellites: numpy sums eight or more terms
    # with several accumulators, so summation orders can be told apart
    return make_instance(np.random.default_rng(43), n_sats=10, n_gus=12, n_beams=2)


def many_beams_instance() -> EpochInstance:
    # ten beams per satellite, all taken: the JHU designs grow to ten
    # beams, and the served users seeing a satellite to eleven, so the
    # sums over beams and over users are eight or more terms long
    return make_instance(np.random.default_rng(44), n_sats=2, n_gus=12, n_beams=10,
                         visible={g: (0, 1) for g in range(100, 112)})


# The kept scorer and the stateless recompute design the same beams with
# the same bits, but sum a candidate's terms in their own orders: up to
# 3.3e-16 relative and 1.4e-14 absolute (in bit/s/Hz) over 27,943 scores
# of 800 hypothesis instances and the examples below at the three betas
# tested here, and 1.6e-14 relative and 6.8e-15 absolute over the 24,721
# scores of full-profile epochs 0, 11 and 23.
JHU_SCORE_RTOL = 1e-12
JHU_SCORE_ATOL = 1e-12


def checked_jhu_schedule(inst: EpochInstance, beta: float | None = None):
    """Run the JHU greedy, asserting at every iteration that the kept
    scorer's candidate scores equal the stateless recompute's to
    ``JHU_SCORE_RTOL`` and ``JHU_SCORE_ATOL``.  Returns the result."""
    scorer = scheduling._joint_gains
    calls = []

    def checking(instance, serving, candidates, powers, designs):
        scores = scorer(instance, serving, candidates, powers, designs)
        expected = hybrid_gains(instance, serving, candidates, beta)
        np.testing.assert_allclose(scores[candidates], expected[candidates],
                                   rtol=JHU_SCORE_RTOL, atol=JHU_SCORE_ATOL)
        calls.append(None)
        return scores

    with mock.patch.object(scheduling, "_joint_gains", checking):
        result = greedy_schedule(inst, SchemeMode.JHU, beta=beta, trace=True)
    assert len(calls) == len(result.trace)
    return result


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(inst=instances())
@example(inst=tie_instance())
@example(inst=crowded_instance())
@example(inst=many_beams_instance())
@example(inst=many_satellites_instance())
def test_jhu_scores_equal_stateless_recompute(inst):
    checked_jhu_schedule(inst)


# beta = 0 is plain channel inversion (the pseudo-inverse); beta = None
# is n / P, which the test above covers
@pytest.mark.parametrize("beta", [0.0, 0.5])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(inst=instances())
@example(inst=tie_instance())
@example(inst=crowded_instance())
def test_jhu_scores_equal_stateless_recompute_at_explicit_beta(beta, inst):
    checked_jhu_schedule(inst, beta)


def assert_fresh_powers(powers, inst: EpochInstance, serving: np.ndarray,
                        beta: float | None) -> None:
    """``powers`` (L, own, intra) equal the ``beam_powers`` of the hybrid
    beams of ``serving``, each satellite's mixer designed alone."""
    fresh = beam_powers(inst, serving, {
        i: hybrid_from_beamspace(inst, i, np.array([members]), beta)[0]
        for i, members in inst.served_map(serving).items()})
    for got, want in zip(powers, fresh):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("beta", [None, 0.0, 0.5])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(inst=instances())
@example(inst=crowded_instance())
def test_kept_jhu_powers_equal_fresh_designs_after_every_commit(beta, inst):
    # a commit copies the winner's candidate design into the kept powers;
    # each commit is followed by a scoring call or by the end of the run
    scorer = scheduling._joint_gains
    kept = []

    def checking(instance, serving, candidates, powers, designs):
        kept[:] = [powers]
        assert_fresh_powers(powers, instance, serving, beta)
        return scorer(instance, serving, candidates, powers, designs)

    with mock.patch.object(scheduling, "_joint_gains", checking):
        result = greedy_schedule(inst, SchemeMode.JHU, beta=beta)
    if kept:  # no scoring call, no commit
        assert_fresh_powers(kept[0], inst, result.links, beta)


# A commit adds the winner's unit beam to the kept powers, so L sums a
# satellite's beams in commit order where beam_powers sums them in user
# order: the two agree to rounding, ~1e-16 relative.
UNIT_POWER_TOL = 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(inst=instances())
@example(inst=tie_instance())
@example(inst=crowded_instance())
def test_kept_au_powers_equal_fresh_unit_beams_after_every_commit(inst):
    # AU's (and SHU's) kept powers against beam_powers of unit beams
    scorer = scheduling._joint_gains
    kept = []

    def assert_unit_powers(powers, serving):
        fresh = beam_powers(inst, serving, unit_power_beams(inst, serving))
        for got, want in zip(powers, fresh):
            np.testing.assert_allclose(got, want, rtol=UNIT_POWER_TOL, atol=0.0)

    def checking(instance, serving, candidates, powers, designs):
        kept[:] = [powers]
        assert_unit_powers(powers, serving)
        return scorer(instance, serving, candidates, powers, designs)

    with mock.patch.object(scheduling, "_joint_gains", checking):
        result = greedy_schedule(inst, SchemeMode.AU)
    if kept:
        assert_unit_powers(kept[0], result.links)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(inst=instances())
@example(inst=tie_instance())
@example(inst=crowded_instance())
def test_jhu_commit_designs_nothing(inst):
    # one design per satellite served before the first iteration
    # (hybrid_from_beamspace), and one batched build per (satellite,
    # members) scored with candidates (_hybrid_mixers on the satellite's
    # seen block); a commit copies the winner's cached design
    before = np.full(len(inst.gu_ids), -1)
    preassign_single_visibility(inst, before)
    builds = set()
    scorer = scheduling._joint_gains

    def recording(instance, serving, candidates, *rest):
        for s in np.flatnonzero(candidates.any(axis=1)):
            builds.add((s, tuple(np.flatnonzero(serving == s))))
        return scorer(instance, serving, candidates, *rest)

    with mock.patch.object(scheduling, "_joint_gains", recording), \
         mock.patch.object(scheduling, "hybrid_from_beamspace",
                           wraps=scheduling.hybrid_from_beamspace) as design, \
         mock.patch.object(scheduling, "_hybrid_mixers",
                           wraps=scheduling._hybrid_mixers) as batch:
        greedy_schedule(inst, SchemeMode.JHU)
    assert design.call_count == len(inst.served_map(before))
    assert batch.call_count == len(builds)


@pytest.mark.parametrize("make", [tie_instance, crowded_instance])
def test_bit_exact_examples_cover_their_cases(make):
    # test_exact_tie_goes_to_smallest_pair shows tie_instance's exact tie
    inst = make()
    result = checked_jhu_schedule(inst)
    committed = [r.committed for r in result.trace]
    # a capacity retirement followed by a commit
    assert any(not a and b for a, b in zip(committed, committed[1:]))
    assert 103 in result.unserved and not inst.visible_mask[3].any()
