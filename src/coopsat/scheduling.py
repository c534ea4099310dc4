"""Heuristic satellite-user link scheduling.

A schedule is a serving vector over the instance's users: the row in
``sat_ids`` of each user's serving satellite, or -1 when the user is
unserved.  Users with a single visible satellite are linked up front.
The greedy loop then scores every remaining candidate link by the total
spectral efficiency increment it would produce and commits the best
one; a satellite already at its beam capacity that wins the argmax is
instead retired from the candidate pool.  Three evaluation modes:

* ``AU``  - scores with fixed unit-power analog beams; final transmit
  matrices are the power-scaled analog beams.
* ``SHU`` - scores like AU; digital beamforming is applied once on the
  completed links.
* ``JHU`` - rebuilds the hybrid beamforming for each hypothetical link
  before scoring, so scheduling and digital precoding are designed
  jointly.

Incremental scoring.  Both scorers read the current beams' signal and
interference from ``network.beam_powers`` and
``network.signal_and_interference``, the evaluator ``metrics`` uses, and
add the candidate terms below.  Write sigma(u) for the satellite
serving user u, X_s[u, v] = h_{s,u}^H w_{s,v} for the beam-space cross terms,
G[u, a, b] for u's antenna gain toward b while tracking a (g0 on
boresight), and S_u / (I_u + 1) for a served user's SINR.  A candidate
link (s, g) changes the SINR only of g and of served users that see s,
so its gain is evaluated over those users alone:

* AU/SHU (unit-power analog beams): the existing beams stay as they
  are and one beam is added.  With L_t[u] = sum_{v: sigma(v)=t}
  |X_t[u, v]|^2 the power of satellite t's beams at u,

      gain(s, g) = log2(1 + g0 |X_s[g, g]|^2 / (sum_t G[g, s, t] L_t[g] + 1))
                 + sum_u [log2(1 + S_u / (I_u + G[u, sigma(u), s] |X_s[u, g]|^2 + 1))
                          - log2(1 + S_u / (I_u + 1))],

  one numpy expression over every (s, g).
* JHU: satellite s redesigns its beams on T = served(s) + {g} with
  ``network.hybrid_from_beamspace``, which also builds the final SHU and
  JHU beams: the regularized-ZF precoder F of sqrt(g0) X_s[T, T] is scaled
  by eta = P / tr(F^H (A^H A) F), where A^H A is the analog Gram on T.
  Served users that see s, and g, are re-evaluated with s's new beam
  powers and the other satellites' unchanged interference.  Every
  candidate of one satellite has |T| = n_s + 1, so their ZF systems are
  solved in one batched call.

The scores are exact, not approximations: each is the difference of the
total SE with and without the link, minus terms that cancel.  They
differ from re-evaluating the whole network only by floating-point
rounding, so the argmax can change only among candidates whose gains
agree to rounding.
Ties go to the smallest (satellite, user) pair: ``np.argmax`` scans the
gain grid in row-major order over the sorted satellite and user ids.

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
from .network import (EpochInstance, SatelliteBeams, beam_powers,
                      equal_power_beams, hybrid_beams, hybrid_from_beamspace,
                      signal_and_interference)


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
    links: np.ndarray  # serving vector: satellite row per user, -1 unserved
    beams: dict[int, SatelliteBeams]
    total_se: float
    unserved: tuple[int, ...]
    trace: list[TraceRecord] = field(default_factory=list)


def final_beams(instance: EpochInstance, serving: np.ndarray, mode: SchemeMode,
                beta: float | None = None) -> dict[int, SatelliteBeams]:
    """Transmit matrices each scheme actually radiates with."""
    served = instance.served_map(serving)
    if mode is SchemeMode.AU:
        return equal_power_beams(instance, served)
    return hybrid_beams(instance, served, beta=beta)


def preassign_single_visibility(instance: EpochInstance,
                                serving: np.ndarray) -> list[int]:
    """Link, in place, every unserved user that sees exactly one
    satellite.  Users who see no satellite, or whose only satellite has no
    spare beam (capacity keeps priority), are dropped.  Returns the rows
    of the dropped users."""
    load = np.bincount(serving[serving >= 0], minlength=len(instance.sat_ids))
    dropped = []
    for u in np.flatnonzero(serving < 0):
        sats = np.flatnonzero(instance.visible_mask[u])
        if sats.size == 1 and load[sats[0]] < instance.n_beams:
            serving[u] = sats[0]
            load[sats[0]] += 1
        elif sats.size <= 1:
            dropped.append(int(u))
    return dropped


def _unserved(instance: EpochInstance, serving: np.ndarray) -> tuple[int, ...]:
    return tuple(instance.gu_ids[u] for u in np.flatnonzero(serving < 0))


def _analog_gains(instance: EpochInstance, serving: np.ndarray,
                  candidates: np.ndarray, beta: float | None) -> np.ndarray:
    """Total-SE gain of every (satellite row, user row) link under
    unit-power analog beams (AU and SHU); the module docstring has the
    formula."""
    p2 = instance.cross_power
    gain = instance.gain_table
    g0 = instance.boresight_gain
    unit = {s: SatelliteBeams(s, gus, np.eye(len(gus)))
            for s, gus in instance.served_map(serving).items()}
    load, own, intra = beam_powers(instance, unit)  # load[t, u] = L_t[u]
    signal, by_sat = signal_and_interference(instance, serving, load, own, intra)

    # served users: current SINR, and with s's unit beam toward g added
    served = np.flatnonzero(serving >= 0)
    g_served = gain[served, serving[served], :]
    signal = signal[served]
    interference = by_sat[served].sum(axis=1)
    base = np.log2(1.0 + signal / (interference + 1.0))
    extra = g_served.T[:, :, None] * p2[:, served, :]  # (s, u, g)
    changed = np.log2(1.0 + signal[:, None] / (interference[:, None] + extra + 1.0))
    delta = (changed - base[:, None]).sum(axis=1)

    # the new user, tracking s, sees every satellite's current beams
    new_interference = np.einsum("gst,tg->sg", gain, load)
    new_signal = g0 * np.einsum("sgg->sg", p2)
    return np.log2(1.0 + new_signal / (new_interference + 1.0)) + delta


def _hybrid_gains(instance: EpochInstance, serving: np.ndarray,
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
    current = {}
    for s, gus in instance.served_map(serving).items():
        idx = np.array([[instance.gu_index[g] for g in gus]])
        current[s] = SatelliteBeams(
            s, gus, hybrid_from_beamspace(instance, instance.sat_index[s], idx, beta)[0])
    power, own, intra = beam_powers(instance, current)
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


def greedy_schedule(instance: EpochInstance, mode: "SchemeMode | str",
                    beta: float | None = None,
                    trace: bool = False) -> ScheduleResult:
    """Run the greedy link construction and return the serving vector,
    final beams and the resulting total SE.  Deterministic: argmax ties
    go to the lexicographically smallest (satellite, user) pair."""
    mode = SchemeMode.parse(mode)
    serving = np.full(len(instance.gu_ids), -1)
    dropped = preassign_single_visibility(instance, serving)
    spare = np.ones(len(instance.sat_ids), dtype=bool)
    pending = serving < 0
    pending[dropped] = False
    score = _hybrid_gains if mode is SchemeMode.JHU else _analog_gains
    records: list[TraceRecord] = []

    iteration = 0
    while pending.any():
        candidates = instance.visible_mask.T & spare[:, None] & pending
        n_candidates = int(candidates.sum())
        if not n_candidates:
            break
        gains = np.where(candidates, score(instance, serving, candidates, beta),
                         -np.inf)
        bad = candidates & ~np.isfinite(gains)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise metrics.NonFiniteSinrError(
                f"score of link ({instance.sat_ids[i]}, {instance.gu_ids[j]}) "
                f"is {gains[i, j]}")
        i, j = np.unravel_index(np.argmax(gains), gains.shape)
        s_hat, g_hat = instance.sat_ids[i], instance.gu_ids[j]
        committed = bool(np.count_nonzero(serving == i) < instance.n_beams)
        if committed:
            serving[j] = i
            pending[j] = False
        else:
            spare[i] = False
        if trace:
            records.append(TraceRecord(iteration, n_candidates, s_hat, g_hat,
                                       float(gains[i, j]), committed))
        iteration += 1

    beams = final_beams(instance, serving, mode, beta)
    se = metrics.total_se(instance, serving, beams)
    return ScheduleResult(links=serving, beams=beams, total_se=se,
                          unserved=_unserved(instance, serving), trace=records)


def exhaustive_schedule(instance: EpochInstance, mode: "SchemeMode | str",
                        beta: float | None = None,
                        max_space: int = 1_000_000) -> ScheduleResult:
    """Enumerate feasible assignments and return the best one.

    Every user may also stay unserved, which makes the reported optimum a
    true upper bound for any partial greedy outcome.  Complete
    assignments are enumerated first, so on exact ties they win.
    """
    mode = SchemeMode.parse(mode)
    options = [np.flatnonzero(row).tolist() + [-1] for row in instance.visible_mask]

    space = math.prod(len(o) for o in options)
    if space > max_space:
        raise ExhaustiveSearchError(
            f"assignment space {space} exceeds limit {max_space}")

    best: ScheduleResult | None = None
    for combo in itertools.product(*options):
        serving = np.array(combo, dtype=int)
        if np.bincount(serving + 1)[1:].max(initial=0) > instance.n_beams:
            continue
        beams = final_beams(instance, serving, mode, beta)
        se = metrics.total_se(instance, serving, beams)
        if best is None or se > best.total_se:
            best = ScheduleResult(links=serving, beams=beams, total_se=se,
                                  unserved=_unserved(instance, serving))
    if best is None:  # cannot happen: the all-unserved combo is always feasible
        raise RuntimeError("no feasible assignment found")
    return best
