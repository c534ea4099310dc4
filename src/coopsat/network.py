"""Per-epoch network state shared by the scheduler and the metrics.

``EpochInstance`` holds one time snapshot as arrays over the sorted
satellite and user ids: visibility V (U x S), channels H and per-link
analog beams W (S x U x N), and user-to-satellite directions D
(U x S x 3), which give the user antenna gain of any serving
assignment.  It derives the beam-space cross terms, the antenna gain
table and the analog Gram matrices from them once, on first use.  An
assignment is a serving vector over ``gu_ids``: the row in ``sat_ids``
of each user's serving satellite, or -1 when the user is unserved.

Channel vectors here exclude the user antenna gain: it depends on which
satellite the user antenna tracks, so it is applied as a scalar at
evaluation time.  Noise power is already normalized to one inside the
channel amplitudes.

Each satellite transmits its analog beams A through a ``mixer``: the
n x n matrix that maps its n per-user analog beams, ordered by
increasing user row, to the transmitted beam columns A @ mixer.  A
schedule's beams are ``{satellite row: mixer}``, one entry per serving
satellite; ``EpochInstance.served_map`` gives each one's user rows.
Two configurations exist: analog beams sharing the satellite power
equally (AU's final beams), and hybrid beams with a power-scaled
regularized-ZF precoder (the final SHU and JHU beams, and the beams the
JHU scheduler scores with).  ``_hybrid_mixers`` is the one place hybrid
beams are designed and scaled: ``hybrid_from_beamspace`` gathers its
blocks from the instance, the JHU greedy from each satellite's seen
block.

``beam_powers`` and ``signal_and_interference`` are the one evaluator
of a served user's signal and interference, for ``metrics``, the greedy
scorer and the exhaustive oracle alike.  ``design_powers`` gives a
satellite's powers for a stack of member sets in one call: for
``beam_powers`` one set per satellite, for the oracle the sets of one
size of every satellite, with the satellite given per row.  It gathers
the cross terms and runs ``_powers_at``, which the JHU greedy runs on
its own gather, one set per candidate.  The greedy keeps only its
``beam_powers`` across commits and derives the signal and interference
again from them at every iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .beamforming import regularized_zf
from .channel import RfConfig, vsat_gain_linear


@dataclass(eq=False)
class EpochInstance:
    """Immutable snapshot of the cooperative downlink problem.  Entries
    of links the user does not see are unused (zero when built by
    ``harness.build_epoch_instance``)."""

    sat_ids: tuple[int, ...]
    gu_ids: tuple[int, ...]
    rf: RfConfig
    n_beams: int
    visible_mask: np.ndarray  # V[u, s]: user u sees satellite s (bool)
    channels: np.ndarray      # H[s, u]: channel of link (s, u), (N,) complex
    analog: np.ndarray        # W[s, u]: analog beam of link (s, u), (N,) complex
    directions: np.ndarray    # D[u, s]: unit vector from u toward s, (3,)

    def __post_init__(self) -> None:
        for name in ("sat_ids", "gu_ids"):
            if list(getattr(self, name)) != sorted(set(getattr(self, name))):
                raise ValueError(f"{name} must be strictly increasing")
        n_s, n_u = len(self.sat_ids), len(self.gu_ids)
        n = np.shape(self.channels)[-1] if np.ndim(self.channels) == 3 else "N"
        for name, kind, shape in (("visible_mask", "b", (n_u, n_s)),
                                  ("channels", "c", (n_s, n_u, n)),
                                  ("analog", "c", (n_s, n_u, n)),
                                  ("directions", "f", (n_u, n_s, 3))):
            a = getattr(self, name)
            if not isinstance(a, np.ndarray) or a.dtype.kind != kind or a.shape != shape:
                raise ValueError(f"{name} must be a {shape} array of dtype kind "
                                 f"{kind!r}, got {np.shape(a)} of {np.asarray(a).dtype}")

    @property
    def tx_power_w(self) -> float:
        return self.rf.tx_power_w

    def _visible_products(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """S x U x U array holding, for each satellite, ``l^H r`` of the
        rows ``l``, ``r`` (n x N) of ``left`` and ``right`` of the n users
        that see it, on those users' rows and columns, zero elsewhere."""
        n_u = len(self.gu_ids)
        out = np.zeros((len(self.sat_ids), n_u, n_u), dtype=complex)
        for i, v in enumerate(self.visible_mask.T):
            rows = np.flatnonzero(v)
            out[i][np.ix_(rows, rows)] = left[i, rows].conj() @ right[i, rows].T
        return out

    @cached_property
    def cross_terms(self) -> np.ndarray:
        """X[s, u, v] = h_{s,u}^H w^A_{s,v} (S x U x U), zero unless both
        users see the satellite."""
        return self._visible_products(self.channels, self.analog)

    @cached_property
    def cross_power(self) -> np.ndarray:
        """|X|^2: power of user v's unit analog beam at user u."""
        return np.abs(self.cross_terms) ** 2

    @cached_property
    def analog_gram(self) -> np.ndarray:
        """(A^H A)[s, u, v] = w^A_{s,u}^H w^A_{s,v} (S x U x U); only the
        hybrid power scaling reads it."""
        return self._visible_products(self.analog, self.analog)

    @cached_property
    def boresight_gain(self) -> float:
        return vsat_gain_linear(0.0, self.rf)

    @cached_property
    def gain_table(self) -> np.ndarray:
        """G[u, a, b]: linear user antenna gain toward satellite ``b``
        while user ``u`` tracks satellite ``a`` (U x S x S), zero unless
        the user sees both; the boresight gain where a = b."""
        d = self.directions
        cos = np.clip(np.sum(d[:, :, None] * d[:, None], axis=-1), -1.0, 1.0)
        gain = vsat_gain_linear(np.degrees(np.arccos(cos)), self.rf)
        diagonal = np.arange(len(self.sat_ids))
        gain[:, diagonal, diagonal] = self.boresight_gain
        seen = self.visible_mask
        return np.where(seen[:, :, None] & seen[:, None], gain, 0.0)

    def served_map(self, serving: np.ndarray) -> dict[int, list[int]]:
        """Rows of the users served by each satellite row that serves
        someone, in increasing order, for a serving vector; rejects a
        vector of the wrong shape or type, a row outside ``sat_ids`` and a
        link to a satellite the user does not see."""
        serving = np.asarray(serving)
        if serving.shape != (len(self.gu_ids),) or serving.dtype.kind not in "iu":
            raise ValueError(f"serving vector must be {len(self.gu_ids)} integers, "
                             f"got shape {serving.shape} of {serving.dtype}")
        users: dict[int, list[int]] = {}
        for u, i in enumerate(serving.tolist()):
            if not -1 <= i < len(self.sat_ids):
                raise ValueError(f"serving rows must lie in [-1, {len(self.sat_ids)})")
            if i < 0:
                continue
            if not self.visible_mask[u, i]:
                raise ValueError(f"user {self.gu_ids[u]} does not see its serving "
                                 f"satellite {self.sat_ids[i]}")
            users.setdefault(i, []).append(u)
        return {i: users[i] for i in sorted(users)}


def equal_power_mixer(instance: EpochInstance, n: int) -> np.ndarray:
    """Mixer of n analog beams sharing the satellite power equally."""
    return np.eye(n) * math.sqrt(instance.tx_power_w / n)


def equal_power_beams(instance: EpochInstance,
                      served: dict[int, list[int]]) -> dict[int, np.ndarray]:
    """Analog beams sharing the satellite power equally; ``served`` maps
    satellite rows to their user rows, as ``EpochInstance.served_map``
    does."""
    return {i: equal_power_mixer(instance, len(members))
            for i, members in served.items()}


def hybrid_from_beamspace(instance: EpochInstance, sat: "int | np.ndarray",
                          idx: np.ndarray, beta: float | None = None) -> np.ndarray:
    """Hybrid mixers sqrt(eta) F of satellite row ``sat`` serving each
    row of user rows ``idx`` (K x n); returns K x n x n.  ``sat`` may
    also give the satellite of each row (K,), so one call designs member
    sets of one size for many satellites; each row rounds as it does
    alone.  The design is ``_hybrid_mixers`` of the gathered blocks."""
    at = np.reshape(sat, (-1, 1, 1)), idx[:, :, None], idx[:, None, :]
    return _hybrid_mixers(instance, instance.cross_terms[at], instance.analog_gram[at], beta)


def _hybrid_mixers(instance: EpochInstance, cross: np.ndarray, gram: np.ndarray,
                   beta: float | None) -> np.ndarray:
    """Hybrid mixers sqrt(eta) F of a stack of member sets T, from their
    beam-space blocks X_s[T, T] and analog Gram blocks (A^H A)[T, T]
    (K x n x n each); returns K x n x n, each row rounding as it does
    alone.

    F is the regularized-ZF precoder of the beam-space channel
    sqrt(g0) X_s[T, T]; its rows carry the boresight user antenna gain
    g0, since every served user tracks this satellite.  The power scaling
    eta = P / tr(F^H (A^H A) F) makes the radiated product A F carry
    exactly the satellite power P without forming it.
    """
    h_tilde = math.sqrt(instance.boresight_gain) * cross
    f = regularized_zf(h_tilde, instance.tx_power_w, beta)
    # tr(F^H (A^H A) F) = ||A F||_F^2
    total = np.sum(f.conj() * (gram @ f), axis=(1, 2)).real
    if np.any(total == 0.0):
        raise ValueError("hybrid matrix is identically zero")
    return np.sqrt(instance.tx_power_w / total)[:, None, None] * f


def hybrid_beams(instance: EpochInstance, served: dict[int, list[int]],
                 beta: float | None = None) -> dict[int, np.ndarray]:
    """Hybrid (analog + regularized-ZF) beams at full satellite power."""
    return {i: hybrid_from_beamspace(instance, i, np.array([members]), beta)[0]
            for i, members in served.items()}


def beam_powers(instance: EpochInstance, served: Mapping[int, list[int]],
                beams: Mapping[int, np.ndarray]
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Received powers of the given beams (``{satellite row: mixer}``,
    serving the user rows ``served`` maps each satellite to), before the
    user antenna gain: of each satellite's beams at each user (S x U),
    and of each served user's own beam and of its satellite's other
    beams (U each, zero elsewhere).  A user is a member of one satellite
    at most, so the satellites' own and intra powers add only zeros to
    each other."""
    n_u = len(instance.gu_ids)
    power = np.zeros((len(instance.sat_ids), n_u))
    own = np.zeros(n_u)
    intra = np.zeros(n_u)
    for i, members in served.items():
        (power[i],), (own_i,), (intra_i,) = design_powers(
            instance, i, np.array([members]), beams[i], np.arange(n_u))
        own += own_i
        intra += intra_i
    return power, own, intra


def design_powers(instance: EpochInstance, sat: "int | np.ndarray", idx: np.ndarray,
                  mixer: np.ndarray, rows: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Powers at user rows ``rows`` of the beams of satellite row ``sat``
    (or of the satellite of each row, (K,)) serving each row of user rows
    ``idx`` (K x n) through ``mixer`` (K x n x n, or one n x n for every
    row), as ``_powers_at`` gives them from the gathered cross terms.
    Every member must be one of ``rows``."""
    at = np.reshape(sat, (-1, 1, 1)), rows[:, None], idx[:, None, :]
    pos = np.zeros(len(instance.gu_ids), dtype=np.intp)
    pos[rows] = np.arange(len(rows))
    return _powers_at(instance.cross_terms[at], pos[idx], mixer)


def _powers_at(cross: np.ndarray, pos: np.ndarray, mixer: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Powers at R rows of the beams of a stack of member sets, from the
    rows' cross terms with the members' analog beams (K x R x n), each
    member's position among the rows ``pos`` (K x n) and ``mixer``
    (K x n x n, or one n x n for every set): of all the beams, and at the
    members of the own beam and of the other beams, zero elsewhere;
    K x R each.  Own and intra power are evaluated at the member rows
    alone: each design's n x n block of member rows by beams gives own
    power on its diagonal, and intra power as the sum of each row with
    its diagonal entry zeroed, over the same n beams as the total.  The
    other beams are summed directly: after ZF nulling, a difference of
    the two totals would be rounding noise.  Each set of the stack rounds
    as it does alone."""
    amp = np.abs(cross @ mixer) ** 2
    at = np.arange(len(pos))[:, None], pos  # each member's row of amp
    block = amp[at]  # K x n x n: member b's row, beam c
    own, intra = np.zeros((2, *amp.shape[:2]))
    own[at] = np.diagonal(block, axis1=1, axis2=2)
    intra[at] = np.where(np.eye(pos.shape[1], dtype=bool), 0.0, block).sum(axis=2)
    return amp.sum(axis=2), own, intra


def signal_and_interference(instance: EpochInstance, serving: np.ndarray,
                            power: np.ndarray, own: np.ndarray, intra: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Signal (U) and interference from each satellite (U x S) at each
    served user, zero at unserved users, from the ``beam_powers`` of the
    serving vector's beams.  Satellites a user does not see are dropped
    by V, not by their zero gain, which would keep a NaN power.

    A stack of assignments evaluates in one call: ``serving``, ``own``
    and ``intra`` of shape (..., U) and ``power`` of shape (..., S, U)
    give (..., U) and (..., U, S).  Each entry is the same product as
    for a single assignment, so a stack rounds as its members one by
    one."""
    idx = np.nonzero(serving >= 0)  # leading index and row of each served user
    u, a = idx[-1], serving[idx]
    g0 = instance.boresight_gain
    signal = np.zeros(serving.shape)
    signal[idx] = g0 * own[idx]
    by_sat = np.zeros(serving.shape + (len(instance.sat_ids),))
    at_user = np.swapaxes(power, -1, -2)[idx]  # every satellite's power at u
    by_sat[idx] = np.where(instance.visible_mask[u], instance.gain_table[u, a] * at_user, 0.0)
    by_sat[idx + (a,)] = g0 * intra[idx]
    return signal, by_sat

