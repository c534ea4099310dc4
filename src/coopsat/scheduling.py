"""Heuristic satellite-user link scheduling.

Users with a single visible satellite are linked up front.  The greedy
loop then scores every remaining candidate link by the total spectral
efficiency increment it would produce and commits the best one; a
satellite already at its beam capacity that wins the argmax is instead
retired from the candidate pool.  Three evaluation modes:

* ``AU``  - scores with fixed unit-power analog beams; final transmit
  matrices are the power-scaled analog beams.
* ``SHU`` - scores like AU; digital beamforming is applied once on the
  completed links.
* ``JHU`` - rebuilds the hybrid beamforming for each hypothetical link
  before scoring, so scheduling and digital precoding are designed
  jointly.

An exhaustive oracle for desk-scale instances provides the reference
optimum for testing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import metrics
from .network import (EpochInstance, SatelliteBeams, hybrid_beams,
                      power_scaled_analog_beams, unit_analog_beams)


class SchemeMode(str, Enum):
    AU = "au"
    SHU = "shu"
    JHU = "jhu"

    @classmethod
    def parse(cls, value: "str | SchemeMode") -> "SchemeMode":
        if isinstance(value, SchemeMode):
            return value
        try:
            return cls(value.strip().lower())
        except ValueError:
            raise ValueError(f"unknown scheme {value!r}; expected au, shu or jhu")


class ExhaustiveSearchError(ValueError):
    """Assignment space too large for the exhaustive oracle."""


@dataclass(eq=False)
class LinkMatrix:
    """Binary satellite-user assignment with index bookkeeping."""

    sat_ids: tuple[int, ...]
    gu_ids: tuple[int, ...]
    matrix: np.ndarray  # (n_sats, n_gus) int8

    @classmethod
    def empty(cls, sat_ids, gu_ids) -> "LinkMatrix":
        sat_ids = tuple(sat_ids)
        gu_ids = tuple(gu_ids)
        return cls(sat_ids, gu_ids,
                   np.zeros((len(sat_ids), len(gu_ids)), dtype=np.int8))

    def __post_init__(self) -> None:
        self._row = {s: i for i, s in enumerate(self.sat_ids)}
        self._col = {g: j for j, g in enumerate(self.gu_ids)}

    def copy(self) -> "LinkMatrix":
        return LinkMatrix(self.sat_ids, self.gu_ids, self.matrix.copy())

    def add_link(self, sat_id: int, gu_id: int) -> None:
        i, j = self._row[sat_id], self._col[gu_id]
        if self.matrix[:, j].any():
            raise ValueError(f"user {gu_id} is already linked")
        self.matrix[i, j] = 1

    def with_link(self, sat_id: int, gu_id: int) -> "LinkMatrix":
        out = self.copy()
        out.add_link(sat_id, gu_id)
        return out

    def serving_sat(self, gu_id: int) -> int | None:
        col = self.matrix[:, self._col[gu_id]]
        idx = np.nonzero(col)[0]
        return self.sat_ids[idx[0]] if idx.size else None

    def served_gus(self, sat_id: int) -> tuple[int, ...]:
        row = self.matrix[self._row[sat_id], :]
        return tuple(self.gu_ids[j] for j in np.nonzero(row)[0])

    def n_served(self, sat_id: int) -> int:
        return int(self.matrix[self._row[sat_id], :].sum())

    def served_map(self) -> dict[int, tuple[int, ...]]:
        return {s: self.served_gus(s) for s in self.sat_ids if self.n_served(s)}

    def unserved_gus(self) -> tuple[int, ...]:
        return tuple(g for g in self.gu_ids
                     if not self.matrix[:, self._col[g]].any())


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    n_candidates: int
    sat_id: int
    gu_id: int
    delta_se: float
    committed: bool


@dataclass(eq=False)
class ScheduleResult:
    links: LinkMatrix
    beams: dict[int, SatelliteBeams]
    total_se: float
    unserved: tuple[int, ...]
    trace: list[TraceRecord] = field(default_factory=list)


def final_beams(instance: EpochInstance, links: LinkMatrix, mode: SchemeMode,
                beta: float | None = None) -> dict[int, SatelliteBeams]:
    """Transmit matrices each scheme actually radiates with."""
    served = links.served_map()
    if mode is SchemeMode.AU:
        return power_scaled_analog_beams(instance, served)
    return hybrid_beams(instance, served, beta=beta)


def preassign_single_visibility(instance: EpochInstance,
                                links: LinkMatrix) -> list[int]:
    """Link every unlinked user that sees exactly one satellite.  Users
    who see no satellite, or whose only satellite has no spare beam
    (capacity keeps priority), are dropped.  Returns the dropped users."""
    dropped = []
    for g in links.unserved_gus():
        sats = instance.visible.get(g, ())
        if len(sats) == 1 and links.n_served(sats[0]) < instance.n_beams:
            links.add_link(sats[0], g)
        elif len(sats) <= 1:
            dropped.append(g)
    return dropped


def _scoring_beams(instance: EpochInstance, served: dict[int, tuple[int, ...]],
                   mode: SchemeMode, beta: float | None) -> dict[int, SatelliteBeams]:
    """Beams the greedy loop scores with: hybrid for JHU, unit-power
    analog otherwise."""
    if mode is SchemeMode.JHU:
        return hybrid_beams(instance, served, beta=beta)
    return unit_analog_beams(instance, served)


def greedy_schedule(instance: EpochInstance, mode: "SchemeMode | str",
                    beta: float | None = None,
                    trace: bool = False) -> ScheduleResult:
    """Run the greedy link construction and return links, final beams and
    the resulting total SE.  Deterministic: argmax ties go to the
    lexicographically smallest (satellite, user) pair."""
    mode = SchemeMode.parse(mode)
    links = LinkMatrix.empty(instance.sat_ids, instance.gu_ids)
    dropped = preassign_single_visibility(instance, links)
    spare = set(instance.sat_ids)
    unserved = set(links.unserved_gus()) - set(dropped)
    records: list[TraceRecord] = []

    iteration = 0
    while unserved:
        candidates = sorted(
            (s, g)
            for g in unserved
            for s in instance.visible.get(g, ())
            if s in spare
        )
        if not candidates:
            break
        base_beams = _scoring_beams(instance, links.served_map(), mode, beta)
        base_se = metrics.total_se(instance, links, base_beams)

        best_pair = None
        best_gain = -math.inf
        for s, g in candidates:
            gus = tuple(sorted(links.served_gus(s) + (g,)))
            cand = {**base_beams, **_scoring_beams(instance, {s: gus}, mode, beta)}
            gain = metrics.total_se(instance, links.with_link(s, g), cand) - base_se
            if gain > best_gain:
                best_gain = gain
                best_pair = (s, g)

        s_hat, g_hat = best_pair
        committed = links.n_served(s_hat) < instance.n_beams
        if committed:
            links.add_link(s_hat, g_hat)
            unserved.discard(g_hat)
        else:
            spare.discard(s_hat)
        if trace:
            records.append(TraceRecord(iteration, len(candidates), s_hat, g_hat,
                                       best_gain, committed))
        iteration += 1

    beams = final_beams(instance, links, mode, beta)
    se = metrics.total_se(instance, links, beams)
    return ScheduleResult(links=links, beams=beams, total_se=se,
                          unserved=tuple(sorted(set(dropped) | unserved)),
                          trace=records)


def exhaustive_schedule(instance: EpochInstance, mode: "SchemeMode | str",
                        beta: float | None = None,
                        max_space: int = 1_000_000) -> ScheduleResult:
    """Enumerate feasible assignments and return the best one.

    Every user may also stay unserved, which makes the reported optimum a
    true upper bound for any partial greedy outcome.  Complete
    assignments are enumerated first, so on exact ties they win.
    """
    mode = SchemeMode.parse(mode)
    options = [list(instance.visible.get(g, ())) + [None]
               for g in instance.gu_ids]

    space = math.prod(len(o) for o in options)
    if space > max_space:
        raise ExhaustiveSearchError(
            f"assignment space {space} exceeds limit {max_space}")

    best: ScheduleResult | None = None
    for combo in itertools.product(*options):
        counts: dict[int, int] = {}
        for s in combo:
            if s is not None:
                counts[s] = counts.get(s, 0) + 1
        if any(c > instance.n_beams for c in counts.values()):
            continue
        links = LinkMatrix.empty(instance.sat_ids, instance.gu_ids)
        for g, s in zip(instance.gu_ids, combo):
            if s is not None:
                links.add_link(s, g)
        beams = final_beams(instance, links, mode, beta)
        se = metrics.total_se(instance, links, beams)
        if best is None or se > best.total_se:
            best = ScheduleResult(links=links, beams=beams, total_se=se,
                                  unserved=links.unserved_gus())
    if best is None:  # cannot happen: the all-unserved combo is always feasible
        raise RuntimeError("no feasible assignment found")
    return best
