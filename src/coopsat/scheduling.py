"""Heuristic satellite-user link scheduling.

A schedule is a serving vector over the instance's users: the row in
``sat_ids`` of each user's serving satellite, or -1 when the user is
unserved.  ``ScheduleResult`` derives its beams, ``{satellite row:
mixer}`` over the serving satellites as ``network`` defines them, and
its total SE on first use; ids appear only in ``TraceRecord`` and
``ScheduleResult.unserved``.  Users with a single
visible satellite are linked up front.  The greedy loop then scores
every remaining candidate link by the total spectral efficiency
increment it would produce and commits the best one; a satellite
already at its beam capacity that wins the argmax is instead retired
from the candidate pool.  Three evaluation modes:

* ``AU``  - scores with fixed unit-power analog beams; final transmit
  matrices are the power-scaled analog beams.
* ``SHU`` - scores like AU (``SchemeMode.scoring``); digital
  beamforming is applied once on the completed links.
* ``JHU`` - rebuilds the hybrid beamforming for each hypothetical link
  before scoring, so scheduling and digital precoding are designed
  jointly.

Incremental scoring.  Every mode scores alike; only the beams a
satellite would radiate with a candidate added differ.  Write sigma(u)
for the satellite serving user u, X_s[u, v] = h_{s,u}^H w_{s,v} for the
beam-space cross terms, G[u, a, b] for u's antenna gain toward b while
tracking a (g0 on boresight), S_u / (I_u + 1) for a served user's SINR
from ``network.signal_and_interference`` (the evaluator ``metrics``
uses), I_u(t) for its part from satellite t, and L_t[u] for the power of
t's beams at u.  If g joins s, s's candidate design puts the powers
own'(u), intra'(u) and total'(u) at u: of u's own beam, of s's other
beams, of all of s's beams.  Only g and the served users that see s
change their SINR, so

    gain(s, g) = log2(1 + g0 own'(g) / (sum_{t != s} G[g, s, t] L_t[g]
                                         + g0 intra'(g) + 1))
               + sum_u [log2(1 + S'_u / (I_u - I_u(s) + I'_u(s) + 1))
                        - log2(1 + S_u / (I_u + 1))],

where S'_u and I'_u(s) are g0 own'(u) and g0 intra'(u) if u tracks s,
else S_u and G[u, sigma(u), s] total'(u).  Designs have two sources:

* AU/SHU, unit-power analog beams: g's beam joins s's unchanged ones, a
  closed form: total' = L_s + |X_s[:, g]|^2, intra'(u) = intra(u) +
  |X_s[u, g]|^2, intra'(g) = L_s[g], own'(u) = own(u) and own'(g) =
  |X_s[g, g]|^2.
* JHU: s redesigns its beams on T = served(s) + {g} with the design
  code that also builds the final SHU and JHU beams
  (``network.hybrid_from_beamspace``): the regularized-ZF precoder F of
  sqrt(g0) X_s[T, T] scaled by eta = P / tr(F^H (A^H A) F), A^H A the
  analog Gram on T.

The designs are kept as S x U x U arrays over (s, g, u).  A satellite
with candidates and a clear flag has its rows filled and its flag set;
a commit to s copies the winner's rows into the kept
``network.beam_powers`` (L, own, intra) and clears it.  Until then s's
candidates only leave the pool and the served users who see s only
join, so the rows stay exact (AU's kept L sums beams in commit order,
not user order: the same to rounding).  What no commit changes is built
once per schedule (``_Designs``): each satellite's seen users, their
cross terms X_s[seen, seen] and analog Gram block, and the gain table
off its diagonal.  A JHU batch takes its candidates' sets T from the
candidate grid and the serving vector, gathers X_s[seen, T] once, and
runs the shared design and power kernels (``network._hybrid_mixers``,
``network._powers_at``) on that one gather: one batched ZF solve per
batch, with the bits each set gets alone.  Each iteration derives the
signal and interference from the kept powers with
``network.signal_and_interference``, scores every candidate in one set
of numpy calls over the flat (candidate, affected user) entries, and
sums each candidate's entries with one ``np.bincount``.

The scores are exact, not approximations: each is the difference of the
total SE with and without the link, minus terms that cancel.  They
differ from re-evaluating the whole network only by floating-point
rounding, so the argmax can change only among candidates whose gains
agree to rounding.
Ties go to the smallest (satellite, user) pair: ``np.argmax`` scans the
gain grid in row-major order over the sorted satellite and user ids.

An exhaustive oracle for desk-scale instances provides the reference
optimum for testing.  After checking the size of the assignment space,
``_BeamCache`` designs every (satellite row, member set) within the beam
capacity, one batched design per member count over every satellite: a
satellite's beams depend only on the users it serves.  Assignments (each
user's visible satellite rows in increasing order, then unserved) are
enumerated in ``itertools.product`` order, ``_BLOCK`` at a time, as a
mixed-radix count over the users (the last fastest) turned into serving
vectors by index arithmetic; those over a satellite's capacity are
dropped.  ``metrics.stacked_total_se`` scores a block in numpy, equal
to ``metrics.total_se`` to rounding; the winner's total SE is derived
again from its links.  The first strictly greater score in enumeration
order wins, so exact ties go to the assignment enumerated first, and a
complete assignment beats an equally good partial one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

import numpy as np

from . import metrics
from .network import (EpochInstance, _hybrid_mixers, _powers_at, beam_powers,
                      design_powers, equal_power_mixer, hybrid_beams, hybrid_from_beamspace,
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
        except (AttributeError, ValueError):  # AttributeError: not a string
            raise ValueError(
                f"unknown scheme {value!r}; expected au, shu or jhu") from None

    @property
    def scoring(self) -> "SchemeMode":
        """The mode whose greedy schedules this one's links."""
        return SchemeMode.JHU if self is SchemeMode.JHU else SchemeMode.AU


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


@dataclass(frozen=True, eq=False)
class ScheduleResult:
    instance: EpochInstance
    mode: SchemeMode
    beta: float | None
    links: np.ndarray  # serving vector: satellite row per user, -1 unserved
    trace: list[TraceRecord] = field(default_factory=list)

    @functools.cached_property
    def beams(self) -> dict[int, np.ndarray]:  # serving satellite row: mixer
        return final_beams(self.instance, self.links, self.mode, self.beta)

    @functools.cached_property
    def total_se(self) -> float:
        return metrics.total_se(self.instance, self.links, self.beams)

    @property
    def unserved(self) -> tuple[int, ...]:
        return tuple(self.instance.gu_ids[u] for u in np.flatnonzero(self.links < 0))


def final_beams(instance: EpochInstance, serving: np.ndarray, mode: SchemeMode,
                beta: float | None = None) -> dict[int, np.ndarray]:
    """Mixers each scheme actually radiates with, by satellite row."""
    if mode is SchemeMode.AU:
        return {i: equal_power_mixer(instance, len(members))
                for i, members in instance.served_map(serving).items()}
    return hybrid_beams(instance, serving, beta=beta)


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


class _Designs:
    """The greedy's candidate designs, and what no commit changes, built
    once per schedule.  ``own``, ``intra`` and ``total`` are the S x U x U
    design rows over (s, g, u), ``designed`` a flag per satellite row.
    ``off`` is the gain table with zeros where the two satellites are
    one.  For JHU, ``seen`` holds each satellite row's seen users, and
    ``cross`` and ``gram`` its cross terms X_s[seen, seen] and analog
    Gram block (A^H A)_s[seen, seen]."""

    def __init__(self, instance: EpochInstance, unit: bool) -> None:
        n_sats, n_gus = len(instance.sat_ids), len(instance.gu_ids)
        self.own, self.intra, self.total = np.zeros((3, n_sats, n_gus, n_gus))
        self.designed = np.zeros(n_sats, dtype=bool)
        if not unit:
            self.seen = [np.flatnonzero(v) for v in instance.visible_mask.T]
            blocks = [np.ix_(v, v) for v in self.seen]
            self.cross = [x[b] for x, b in zip(instance.cross_terms, blocks)]
            self.gram = [a[b] for a, b in zip(instance.analog_gram, blocks)]
        self.off = instance.gain_table * (1.0 - np.eye(n_sats))


def _fill_designs(instance: EpochInstance, serving: np.ndarray, candidates: np.ndarray,
                  powers: tuple[np.ndarray, ...], designs: _Designs,
                  beta: float | None, unit: bool) -> None:
    """Fill the design rows of each satellite with candidates and a clear
    flag, and set the flag: g's unit beam added to the kept unit beams'
    ``powers`` (L, own, intra) if ``unit``, else the hybrid beams
    redesigned on the members and g."""
    own, intra, total = designs.own, designs.intra, designs.total
    for s in np.flatnonzero(candidates.any(axis=1) & ~designs.designed):
        if unit:  # a closed form at every (g, u): no beam is redesigned
            load, kept_own, kept_intra = powers
            added = instance.cross_power[s].T  # added[g, u] = |X_s[u, g]|^2
            np.add(load[s], added, out=total[s])
            np.add(kept_intra, added, out=intra[s])
            own[s] = kept_own
            np.fill_diagonal(intra[s], load[s])
            np.fill_diagonal(own[s], added.diagonal())
        else:
            # each candidate's set T = members + {g}, by position in seen
            seen = designs.seen[s]
            cand = np.flatnonzero(candidates[s][seen])
            pick = np.arange(seen.size) == cand[:, None]
            pick |= serving[seen] == s
            sets = np.nonzero(pick)[1].reshape(cand.size, -1)
            block = designs.cross[s][:, sets].transpose(1, 0, 2)  # K x seen x n
            mixer = _hybrid_mixers(instance, block[np.arange(cand.size)[:, None], sets],
                                   designs.gram[s][sets[:, :, None], sets[:, None, :]], beta)
            rows = s, seen[cand][:, None], seen
            total[rows], own[rows], intra[rows] = _powers_at(block, sets, mixer)
        designs.designed[s] = True


def _joint_gains(instance: EpochInstance, serving: np.ndarray, candidates: np.ndarray,
                 powers: tuple[np.ndarray, ...], designs: _Designs) -> np.ndarray:
    """Total-SE gain of every candidate link, given the kept ``powers``
    (L, own, intra) and the filled candidate ``designs``; -inf off the
    candidates."""
    g0 = instance.boresight_gain
    signal, by_sat = signal_and_interference(instance, serving, *powers)
    interference = by_sat.sum(axis=1)
    base = np.log2(1.0 + signal / (interference + 1.0))
    others = interference[:, None] - by_sat  # from every satellite but s
    # a new user tracking s sees the other satellites' current beams
    n_sats, n_gus = candidates.shape
    new_others = np.einsum("gst,tg->sg", designs.off, powers[0])

    # every (candidate, served user seeing its satellite) entry at once,
    # gathered by flat index
    own, intra, total = designs.own, designs.intra, designs.total
    flat = np.flatnonzero(candidates)  # s * U + g
    sats, gus = np.divmod(flat, n_gus)
    affected = instance.visible_mask.T & (serving >= 0)
    pair, u = np.divmod(np.flatnonzero(affected[sats]), n_gus)
    s, a = sats[pair], serving[u]
    at = flat[pair] * n_gus + u  # (s, g, u)
    tracks = np.flatnonzero(a == s)
    sig = signal[u]
    sig[tracks] = g0 * own.take(at[tracks])
    intf = instance.gain_table.take((u * n_sats + a) * n_sats + s) * total.take(at)
    intf[tracks] = g0 * intra.take(at[tracks])
    intf = others.take(u * n_sats + s) + intf
    terms = np.log2(1.0 + sig / (intf + 1.0)) - base[u]
    # a candidate with no affected user sums to 0 (np.add.reduceat would
    # return the next candidate's first entry)
    delta = np.bincount(pair, weights=terms, minlength=flat.size)
    at = flat * n_gus + gus  # (s, g, g)
    new_intf = new_others.take(flat) + g0 * intra.take(at)
    gains = np.full(candidates.shape, -np.inf)
    gains.flat[flat] = np.log2(1.0 + g0 * own.take(at) / (new_intf + 1.0)) + delta
    return gains


def greedy_schedule(instance: EpochInstance, mode: "SchemeMode | str",
                    beta: float | None = None,
                    trace: bool = False) -> ScheduleResult:
    """The greedy link construction's schedule of ``instance``."""
    mode = SchemeMode.parse(mode)
    serving = np.full(len(instance.gu_ids), -1)
    dropped = preassign_single_visibility(instance, serving)
    spare = np.ones(len(instance.sat_ids), dtype=bool)
    pending = serving < 0
    pending[dropped] = False
    unit = mode.scoring is SchemeMode.AU

    # powers of the beams each mode scores with, kept across iterations
    # (not hybrid_beams, which traced runs count as the final-beam step)
    powers = load, kept_own, kept_intra = beam_powers(instance, serving, {
        i: np.eye(len(m)) if unit else
        hybrid_from_beamspace(instance, i, np.array([m]), beta)[0]
        for i, m in instance.served_map(serving).items()})
    designs = _Designs(instance, unit)
    own, intra, total = designs.own, designs.intra, designs.total
    records: list[TraceRecord] = []

    iteration = 0
    while pending.any():
        candidates = instance.visible_mask.T & spare[:, None] & pending
        n_candidates = int(candidates.sum())
        if not n_candidates:
            break
        _fill_designs(instance, serving, candidates, powers, designs, beta, unit)
        gains = _joint_gains(instance, serving, candidates, powers, designs)
        bad = candidates & ~np.isfinite(gains)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise metrics.NonFiniteSinrError(
                f"score of link ({instance.sat_ids[i]}, {instance.gu_ids[j]}) "
                f"is {gains[i, j]}")
        i, j = np.unravel_index(np.argmax(gains), gains.shape)
        committed = bool(np.count_nonzero(serving == i) < instance.n_beams)
        if committed:  # the winner's design has the committed beams' powers
            serving[j] = i
            pending[j] = False
            members = serving == i
            load[i] = total[i, j]
            kept_own[members], kept_intra[members] = own[i, j, members], intra[i, j, members]
            designs.designed[i] = False
        else:
            spare[i] = False
        if trace:
            records.append(TraceRecord(iteration, n_candidates, instance.sat_ids[i],
                                       instance.gu_ids[j], float(gains[i, j]), committed))
        iteration += 1

    return ScheduleResult(instance, mode, beta, serving, records)


# Assignments the oracle scores per stacked evaluation: large enough to
# amortize numpy's per-call cost, small enough that a block's (K, U, S)
# arrays stay well under a megabyte.
_BLOCK = 256
# Member sets the oracle designs per batched call: working memory grows
# as chunk x users x beams.
_CHUNK = 256


class _BeamCache:
    """``beam_powers`` entries (row of the S x U powers, members' own and
    intra powers) of every set of at most ``n_beams`` users who see a
    satellite; serving one set alone is feasible, so none is wasted.  The
    sets of one size, satellite after satellite, get their mixers (SHU's
    and JHU's are alike) and powers ``_CHUNK`` at a time in one call each,
    the satellite given per row, with the bits each set gets alone.  A
    member set is a bitmask over the m users who see some satellite: a
    space of 2**m assignments or more has m of them, so for any space
    that can be enumerated the key s * 2**m + mask of (satellite row s,
    mask) fits an int64.  One table holds every set's powers in key
    order, for ``np.searchsorted``; mask 0 (no one) has zero powers, and
    so has row 0 (key -1), which unserved users read."""

    def __init__(self, instance: EpochInstance, mode: SchemeMode,
                 beta: float | None) -> None:
        users = np.flatnonzero(instance.visible_mask.any(axis=1))
        self.bits = np.zeros(len(instance.gu_ids), dtype=np.int64)
        self.bits[users] = 1 << np.arange(users.size, dtype=np.int64)
        seen = [np.flatnonzero(v).tolist() for v in instance.visible_mask.T]
        self.sat_keys = np.arange(len(seen), dtype=np.int64) << users.size
        keys = [[-1], self.sat_keys]
        parts = [np.zeros((3, 1 + len(seen), len(instance.gu_ids)))]
        for m in range(1, min(instance.n_beams, max(map(len, seen), default=0)) + 1):
            sets = [np.array(list(itertools.combinations(v, m)), dtype=int).reshape(-1, m)
                    for v in seen]
            sats = np.repeat(np.arange(len(seen)), [len(c) for c in sets])
            sets = np.concatenate(sets)
            for start in range(0, len(sets), _CHUNK):
                sat, idx = sats[start:start + _CHUNK], sets[start:start + _CHUNK]
                mixer = (equal_power_mixer(instance, m) if mode is SchemeMode.AU
                         else hybrid_from_beamspace(instance, sat, idx, beta))
                parts.append(np.stack(design_powers(instance, sat, idx, mixer)))
            keys.append(self.sat_keys[sats] + self.bits[sets].sum(axis=1))
        keys = np.concatenate(keys)
        order = np.argsort(keys)
        self.keys, self.table = keys[order], np.concatenate(parts, axis=1)[:, order]

    def powers(self, serving: np.ndarray, member: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``beam_powers`` of a stack of assignments, given as K x U
        serving vectors and their K x U x S membership (user u served by
        satellite row s): K x S x U, K x U and K x U.  A user's own and
        intra powers are read from its serving satellite's set alone,
        the zeros of the others' sets never added to them."""
        masks = self.bits @ member  # K x S
        at = np.zeros((len(masks), self.sat_keys.size + 1), dtype=np.intp)
        at[:, :-1] = np.searchsorted(self.keys, masks + self.sat_keys)
        mine = at[np.arange(len(at))[:, None], serving]  # -1: the last column, row 0
        users = np.arange(serving.shape[1])
        return self.table[0][at[:, :-1]], self.table[1][mine, users], self.table[2][mine, users]


def _assignment_blocks(options: list[list[int]]) -> Iterator[np.ndarray]:
    """The serving vectors of ``itertools.product(*options)``, in its
    order and ``_BLOCK`` at a time, as K x U arrays.  Assignment k is a
    mixed-radix count with the last user fastest: user u's option is
    digit (k // stride_u) % radix_u, gathered from a users x options
    table."""
    radix = [len(o) for o in options]
    table = np.full((len(options), max(radix, default=1)), -1)
    for u, o in enumerate(options):
        table[u, :len(o)] = o
    stride = np.array([math.prod(radix[u + 1:]) for u in range(len(radix))], dtype=np.int64)
    users, space = np.arange(len(options)), math.prod(radix)
    for start in range(0, space, _BLOCK):
        k = np.arange(start, min(start + _BLOCK, space))[:, None]
        yield table[users, k // stride % radix]


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

    cache = _BeamCache(instance, mode, beta)
    sats, ones = np.arange(len(instance.sat_ids)), np.ones(len(options), dtype=np.int64)
    best_se, best_links = -math.inf, None
    for serving in _assignment_blocks(options):
        member = serving[:, :, None] == sats  # K x U x S
        # loads (and masks) by integer products: a sum of bools along the
        # users takes several times longer
        feasible = (ones @ member <= instance.n_beams).all(axis=1)
        if not feasible.any():
            continue
        serving, member = serving[feasible], member[feasible]
        se = metrics.stacked_total_se(instance, serving, cache.powers(serving, member))
        k = np.argmax(se)  # the first maximum
        if se[k] > best_se:
            best_se, best_links = se[k], serving[k]
    if best_links is None:  # cannot happen: the all-unserved combo is always feasible
        raise RuntimeError("no feasible assignment found")
    return ScheduleResult(instance, mode, beta, best_links)
