"""Test-only reference greedy scheduler.

The per-candidate loop the incremental scorer in ``coopsat.scheduling``
replaced: every candidate link is scored by re-evaluating the whole
network's total SE with and without it.  O(users^3 * visibility) in
Python, so it serves only as the oracle of the differential tests.

``hybrid_gains`` is the JHU scorer before it kept state across
iterations: it designs every satellite's current and candidate beams
again from the serving vector alone, with the same arithmetic but its
own summation order, so the kept scorer's scores must equal it to
rounding (the tolerance ``test_greedy_differential`` states).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from coopsat import metrics
from coopsat.network import (EpochInstance, beam_powers, hybrid_beams,
                             hybrid_from_beamspace, signal_and_interference)
from coopsat.scheduling import (SchemeMode, TraceRecord,
                                preassign_single_visibility)


def unit_power_beams(instance: EpochInstance,
                     served: dict[int, list[int]]) -> dict[int, np.ndarray]:
    """Plain analog beams with unit per-beam power (scheduling-time view)."""
    return {i: np.eye(len(members)) for i, members in served.items()}


def scoring_beams(instance: EpochInstance, served: dict[int, list[int]],
                  mode: SchemeMode, beta: float | None) -> dict[int, np.ndarray]:
    """Beams the greedy loop scores with: hybrid for JHU, unit-power
    analog otherwise."""
    if mode is SchemeMode.JHU:
        return hybrid_beams(instance, served, beta=beta)
    return unit_power_beams(instance, served)


def hybrid_gains(instance: EpochInstance, serving: np.ndarray,
                 candidates: np.ndarray, beta: float | None) -> np.ndarray:
    """Total-SE gain of every candidate link when the satellite redesigns
    its hybrid beams (JHU); -inf off the candidates."""
    n_sats, n_gus = candidates.shape
    x = instance.cross_terms
    gain = instance.gain_table
    g0 = instance.boresight_gain
    served = serving >= 0

    # the current hybrid beams, designed here rather than by hybrid_beams,
    # which stands for the final-beam step in traced runs
    members_of = instance.served_map(serving)
    current = {i: hybrid_from_beamspace(instance, i, np.array([members]), beta)[0]
               for i, members in members_of.items()}
    power, own, intra = beam_powers(instance, members_of, current)
    signal, by_sat = signal_and_interference(instance, serving, power, own, intra)
    interference = by_sat.sum(axis=1)
    base = np.log2(1.0 + signal / (interference + 1.0))
    others = interference[:, None] - by_sat  # from every satellite but s
    # a new user tracking s sees the other satellites' current beams
    off = gain * (1.0 - np.eye(n_sats))
    new_others = np.einsum("gst,tg->sg", off, power)

    gains = np.full((n_sats, n_gus), -np.inf)
    for s in range(n_sats):
        cand = np.flatnonzero(candidates[s])
        if not cand.size:
            continue
        members = np.flatnonzero(serving == s)
        idx = np.sort(np.column_stack(
            [np.broadcast_to(members, (cand.size, members.size)), cand]), axis=1)
        mixer = hybrid_from_beamspace(instance, s, idx, beta)
        affected = np.flatnonzero(served & instance.visible_mask[:, s])
        m = affected.size
        rows = np.column_stack([np.broadcast_to(affected, (cand.size, m)), cand])
        amp = np.abs(x[s][rows[:, :, None], idx[:, None, :]] @ mixer) ** 2
        mine = rows[:, :, None] == idx[:, None, :]  # each row's own beam
        own_s = np.where(mine, amp, 0.0).sum(axis=2)
        intra_s = np.where(mine, 0.0, amp).sum(axis=2)

        tracks_s = serving[affected] == s
        g_s = gain[affected, serving[affected], s]
        sig = np.where(tracks_s, g0 * own_s[:, :m], signal[affected])
        intf = others[affected, s] + np.where(
            tracks_s, g0 * intra_s[:, :m], g_s * amp[:, :m].sum(axis=2))
        delta = (np.log2(1.0 + sig / (intf + 1.0)) - base[affected]).sum(axis=1)
        new_intf = new_others[s, cand] + g0 * intra_s[:, m]
        gains[s, cand] = np.log2(1.0 + g0 * own_s[:, m] / (new_intf + 1.0)) + delta
    return gains


@dataclass
class ReferenceStep:
    """One greedy iteration: every candidate's gain and the decision."""

    candidates: list[tuple[int, int]]  # (satellite id, user id), as in TraceRecord
    gains: list[float]
    record: TraceRecord

    @property
    def best(self) -> tuple[tuple[int, int], float]:
        k = int(np.argmax(self.gains))  # first maximum: smallest pair
        return self.candidates[k], self.gains[k]

    def gain_of(self, pair: tuple[int, int]) -> float:
        return self.gains[self.candidates.index(pair)]


def reference_greedy(instance: EpochInstance, mode: "SchemeMode | str",
                     beta: float | None = None,
                     picks: list[tuple[int, int]] | None = None):
    """Run the reference loop.  Returns ``(steps, serving, unserved)``.

    With ``picks`` the loop follows the given (satellite id, user id)
    decision at each step instead of its own argmax, so its per-step gains
    can be compared against another scheduler's decisions even after a
    near-tie sent the two down different paths.
    """
    mode = SchemeMode.parse(mode)
    serving = np.full(len(instance.gu_ids), -1)
    dropped = set(preassign_single_visibility(instance, serving))
    spare = set(range(len(instance.sat_ids)))
    unserved = set(np.flatnonzero(serving < 0).tolist()) - dropped
    steps: list[ReferenceStep] = []

    iteration = 0
    while unserved:
        # (satellite row, user row) pairs; sorting rows sorts ids
        candidates = sorted(
            (i, u)
            for u in unserved
            for i in np.flatnonzero(instance.visible_mask[u]).tolist()
            if i in spare
        )
        if not candidates:
            break
        served = instance.served_map(serving)
        base_beams = scoring_beams(instance, served, mode, beta)
        base_se = metrics.total_se(instance, serving, base_beams)

        gains = []
        best_pair = None
        best_gain = -math.inf
        for i, u in candidates:
            members = sorted(served.get(i, []) + [u])
            cand = {**base_beams, **scoring_beams(instance, {i: members}, mode, beta)}
            trial = serving.copy()
            trial[u] = i
            gain = metrics.total_se(instance, trial, cand) - base_se
            gains.append(gain)
            if gain > best_gain:
                best_gain = gain
                best_pair = (i, u)

        if picks is not None:
            s, g = picks[iteration]
            best_pair = (instance.sat_ids.index(s), instance.gu_ids.index(g))
            best_gain = gains[candidates.index(best_pair)]
        i_hat, u_hat = best_pair
        committed = len(served.get(i_hat, ())) < instance.n_beams
        if committed:
            serving[u_hat] = i_hat
            unserved.discard(u_hat)
        else:
            spare.discard(i_hat)
        steps.append(ReferenceStep(
            [(instance.sat_ids[i], instance.gu_ids[u]) for i, u in candidates], gains,
            TraceRecord(iteration, len(candidates), instance.sat_ids[i_hat],
                        instance.gu_ids[u_hat], best_gain, committed)))
        iteration += 1

    return steps, serving, tuple(instance.gu_ids[u] for u in sorted(dropped | unserved))
