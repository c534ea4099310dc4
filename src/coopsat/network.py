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

Each satellite transmits in one of two configurations, both expressed
as a ``mixer`` on its analog beams: analog beams sharing the satellite
power equally (AU's final beams), and hybrid beams with a power-scaled
regularized-ZF precoder (the final SHU and JHU beams, and the beams the
JHU scheduler scores with).  ``hybrid_from_beamspace`` is the one place
hybrid beams are designed and scaled.

``beam_powers`` and ``signal_and_interference`` are the one evaluator
of a served user's signal and interference, for ``metrics`` and the
greedy scorers alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .beamforming import regularized_zf
from .channel import RfConfig, vsat_gain_linear


@dataclass(frozen=True, eq=False)
class SatelliteBeams:
    """Transmit configuration of one satellite.

    ``mixer`` maps the satellite's per-user analog beams (columns for
    ``gus``, in order) to the transmitted beam columns; identity means
    plain analog transmission, a scaled digital precoder means hybrid.
    """

    sat_id: int
    gus: tuple[int, ...]
    mixer: np.ndarray  # (n, n)


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

    @cached_property
    def sat_index(self) -> dict[int, int]:
        """Row of each satellite in the dense per-epoch arrays."""
        return {s: i for i, s in enumerate(self.sat_ids)}

    @cached_property
    def gu_index(self) -> dict[int, int]:
        """Row of each user in the dense per-epoch arrays."""
        return {g: j for j, g in enumerate(self.gu_ids)}

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
        the user sees both.  The off-boresight angle is evaluated with the
        scalar ``math.acos``, not ``np.arccos``, which may differ in the
        last bit: the result files pin its values."""
        n_s = len(self.sat_ids)
        out = np.zeros((len(self.gu_ids), n_s, n_s))
        for u, row in enumerate(self.visible_mask):
            sats = np.flatnonzero(row)
            for a in sats:
                out[u, a, a] = self.boresight_gain
                for b in sats[sats != a]:
                    cos = np.dot(self.directions[u, a], self.directions[u, b])
                    angle = math.degrees(math.acos(float(np.clip(cos, -1.0, 1.0))))
                    out[u, a, b] = vsat_gain_linear(angle, self.rf)
        return out

    def served_map(self, serving: np.ndarray) -> dict[int, tuple[int, ...]]:
        """Users served by each satellite that serves someone, by id, for
        a serving vector; rejects a vector of the wrong shape or type, a
        row outside ``sat_ids`` and a link to a satellite the user does
        not see."""
        serving = np.asarray(serving)
        if serving.shape != (len(self.gu_ids),) or serving.dtype.kind not in "iu":
            raise ValueError(f"serving vector must be {len(self.gu_ids)} integers, "
                             f"got shape {serving.shape} of {serving.dtype}")
        users: dict[int, list[int]] = {}
        # a Python loop: the exhaustive oracle calls this for every
        # assignment of a handful of users, where numpy's per-call
        # overhead dominates
        for u, i in enumerate(serving.tolist()):
            if not -1 <= i < len(self.sat_ids):
                raise ValueError(f"serving rows must lie in [-1, {len(self.sat_ids)})")
            if i < 0:
                continue
            if not self.visible_mask[u, i]:
                raise ValueError(f"user {self.gu_ids[u]} does not see its serving "
                                 f"satellite {self.sat_ids[i]}")
            users.setdefault(i, []).append(self.gu_ids[u])
        return {self.sat_ids[i]: tuple(users[i]) for i in sorted(users)}

    def beam_matrix(self, beams: SatelliteBeams) -> np.ndarray:
        """Actual transmit columns (N x n) of one satellite."""
        rows = [self.gu_index[g] for g in beams.gus]
        return self.analog[self.sat_index[beams.sat_id], rows].T @ beams.mixer


def equal_power_beams(instance: EpochInstance,
                      served: dict[int, tuple[int, ...]]) -> dict[int, SatelliteBeams]:
    """Analog beams sharing the satellite power equally; ``served`` maps
    each satellite to its users, as ``EpochInstance.served_map`` does."""
    out = {}
    for s, gus in served.items():
        n = len(gus)
        out[s] = SatelliteBeams(s, gus,
                                np.eye(n) * math.sqrt(instance.tx_power_w / n))
    return out


def hybrid_from_beamspace(instance: EpochInstance, sat: int, idx: np.ndarray,
                          beta: float | None = None) -> np.ndarray:
    """Hybrid mixers sqrt(eta) F of satellite row ``sat`` serving each
    row of user rows ``idx`` (K x n); returns K x n x n.

    F is the regularized-ZF precoder of the beam-space channel
    sqrt(g0) X_s[T, T]; its rows carry the boresight user antenna gain
    g0, since every served user tracks this satellite.  The power scaling
    eta = P / tr(F^H (A^H A) F) makes the radiated product A F carry
    exactly the satellite power P without forming it.
    """
    rows, cols = idx[:, :, None], idx[:, None, :]
    h_tilde = math.sqrt(instance.boresight_gain) * instance.cross_terms[sat][rows, cols]
    f = regularized_zf(h_tilde, instance.tx_power_w, beta)
    gram = instance.analog_gram[sat][rows, cols]
    # tr(F^H (A^H A) F) = ||A F||_F^2
    total = np.sum(f.conj() * (gram @ f), axis=(1, 2)).real
    if np.any(total == 0.0):
        raise ValueError("hybrid matrix is identically zero")
    return np.sqrt(instance.tx_power_w / total)[:, None, None] * f


def hybrid_beams(instance: EpochInstance, served: dict[int, tuple[int, ...]],
                 beta: float | None = None) -> dict[int, SatelliteBeams]:
    """Hybrid (analog + regularized-ZF) beams at full satellite power."""
    out = {}
    for s, gus in served.items():
        idx = np.array([[instance.gu_index[g] for g in gus]])
        mixer = hybrid_from_beamspace(instance, instance.sat_index[s], idx, beta)
        out[s] = SatelliteBeams(s, gus, mixer[0])
    return out


def beam_powers(instance: EpochInstance, beams: Mapping[int, SatelliteBeams]
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Received powers of the given beams, before the user antenna gain:
    of each satellite's beams at each user (S x U), and of each served
    user's own beam and of its satellite's other beams (U each, zero
    elsewhere).  The other beams are summed directly: after ZF nulling, a
    difference of the two totals would be rounding noise."""
    n_u = len(instance.gu_ids)
    power = np.zeros((len(instance.sat_ids), n_u))
    own = np.zeros(n_u)
    intra = np.zeros(n_u)
    for s, b in beams.items():
        i = instance.sat_index[s]
        members = [instance.gu_index[g] for g in b.gus]
        amp = np.abs(instance.cross_terms[i][:, members] @ b.mixer) ** 2
        power[i] = amp.sum(axis=1)
        mine = amp[members]  # row k: user gus[k]; column k: its own beam
        own[members] = np.diagonal(mine)
        np.fill_diagonal(mine, 0.0)
        intra[members] = mine.sum(axis=1)
    return power, own, intra


def signal_and_interference(instance: EpochInstance, serving: np.ndarray,
                            power: np.ndarray, own: np.ndarray, intra: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Signal (U) and interference from each satellite (U x S) at each
    served user, zero at unserved users, from the ``beam_powers`` of the
    serving vector's beams.  Satellites a user does not see are dropped
    by V, not by their zero gain, which would keep a NaN power."""
    u = np.flatnonzero(serving >= 0)
    a = serving[u]
    g0 = instance.boresight_gain
    signal = np.zeros(len(serving))
    signal[u] = g0 * own[u]
    by_sat = np.zeros((len(serving), len(instance.sat_ids)))
    by_sat[u] = np.where(instance.visible_mask[u],
                         instance.gain_table[u, a] * power[:, u].T, 0.0)
    by_sat[u, a] = g0 * intra[u]
    return signal, by_sat
