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

from conftest import visible_sats
from coopsat import metrics
from coopsat.network import EpochInstance, SatelliteBeams, hybrid_beams
from coopsat.scheduling import (SchemeMode, TraceRecord,
                                preassign_single_visibility)


def unit_power_beams(instance: EpochInstance,
                     served: dict[int, tuple[int, ...]]) -> dict[int, SatelliteBeams]:
    """Plain analog beams with unit per-beam power (scheduling-time view)."""
    return {s: SatelliteBeams(s, gus, np.eye(len(gus)))
            for s, gus in served.items() if gus}


def scoring_beams(instance: EpochInstance, served: dict[int, tuple[int, ...]],
                  mode: SchemeMode, beta: float | None) -> dict[int, SatelliteBeams]:
    """Beams the greedy loop scores with: hybrid for JHU, unit-power
    analog otherwise."""
    if mode is SchemeMode.JHU:
        return hybrid_beams(instance, served, beta=beta)
    return unit_power_beams(instance, served)


@dataclass
class ReferenceStep:
    """One greedy iteration: every candidate's gain and the decision."""

    candidates: list[tuple[int, int]]
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

    With ``picks`` the loop follows the given (satellite, user) decision
    at each step instead of its own argmax, so its per-step gains can be
    compared against another scheduler's decisions even after a near-tie
    sent the two down different paths.
    """
    mode = SchemeMode.parse(mode)
    serving = np.full(len(instance.gu_ids), -1)
    dropped = {instance.gu_ids[u]
               for u in preassign_single_visibility(instance, serving)}
    spare = set(instance.sat_ids)
    unserved = {g for g, s in zip(instance.gu_ids, serving) if s < 0} - dropped
    steps: list[ReferenceStep] = []

    iteration = 0
    while unserved:
        candidates = sorted(
            (s, g)
            for g in unserved
            for s in visible_sats(instance, g)
            if s in spare
        )
        if not candidates:
            break
        served = instance.served_map(serving)
        base_beams = scoring_beams(instance, served, mode, beta)
        base_se = metrics.total_se(instance, serving, base_beams)

        gains = []
        best_pair = None
        best_gain = -math.inf
        for s, g in candidates:
            gus = tuple(sorted(served.get(s, ()) + (g,)))
            cand = {**base_beams, **scoring_beams(instance, {s: gus}, mode, beta)}
            trial = serving.copy()
            trial[instance.gu_index[g]] = instance.sat_index[s]
            gain = metrics.total_se(instance, trial, cand) - base_se
            gains.append(gain)
            if gain > best_gain:
                best_gain = gain
                best_pair = (s, g)

        if picks is not None:
            best_pair = picks[iteration]
            best_gain = gains[candidates.index(best_pair)]
        s_hat, g_hat = best_pair
        committed = len(served.get(s_hat, ())) < instance.n_beams
        if committed:
            serving[instance.gu_index[g_hat]] = instance.sat_index[s_hat]
            unserved.discard(g_hat)
        else:
            spare.discard(s_hat)
        steps.append(ReferenceStep(
            candidates, gains,
            TraceRecord(iteration, len(candidates), s_hat, g_hat, best_gain,
                        committed)))
        iteration += 1

    return steps, serving, tuple(sorted(dropped | unserved))
