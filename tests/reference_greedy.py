"""Test-only reference greedy scheduler.

The per-candidate loop the incremental scorer in ``coopsat.scheduling``
replaced: every candidate link is scored by re-evaluating the whole
network's total SE with and without it.  O(users^3 * visibility) in
Python, so it serves only as the oracle of the differential tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from coopsat import metrics
from coopsat.network import EpochInstance, hybrid_beams
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
