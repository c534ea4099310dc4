"""Per-epoch network state shared by the scheduler and the metrics.

``EpochInstance`` freezes everything the link-selection problem needs
for one time snapshot: visibility, channel vectors, per-link analog
beams, and the geometry needed to evaluate the user antenna gain for
any hypothetical serving assignment.  Besides the per-link dicts it
holds dense per-epoch arrays, built once on first use: the visibility
mask, the beam-space cross terms and their powers, the user antenna
gain table and the analog Gram matrices of the hybrid power scaling.
An assignment is a serving vector over ``gu_ids``: the row in
``sat_ids`` of each user's serving satellite, or -1 when the user is
unserved.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    """Immutable snapshot of the cooperative downlink problem."""

    sat_ids: tuple[int, ...]
    gu_ids: tuple[int, ...]
    rf: RfConfig
    n_beams: int
    visible: dict[int, tuple[int, ...]]                 # gu -> sorted sats
    base_channels: dict[tuple[int, int], np.ndarray]    # (sat, gu) -> (N,)
    analog_beams: dict[tuple[int, int], np.ndarray]     # (sat, gu) -> (N,)
    sat_directions: dict[tuple[int, int], np.ndarray]   # (gu, sat) -> unit (3,)

    def __post_init__(self) -> None:
        self.sat_ids = tuple(sorted(self.sat_ids))
        self.gu_ids = tuple(sorted(self.gu_ids))
        self.visible = {g: tuple(sorted(sats)) for g, sats in self.visible.items()}
        for g, sats in self.visible.items():
            for s in sats:
                if (s, g) not in self.base_channels:
                    raise ValueError(f"missing channel for link ({s}, {g})")
                if (s, g) not in self.analog_beams:
                    raise ValueError(f"missing analog beam for link ({s}, {g})")
                if (g, s) not in self.sat_directions:
                    raise ValueError(f"missing direction for pair ({g}, {s})")

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

    @cached_property
    def visible_mask(self) -> np.ndarray:
        """V[u, s]: user ``u`` sees satellite ``s`` (U x S, bool)."""
        out = np.zeros((len(self.gu_ids), len(self.sat_ids)), dtype=bool)
        for u, g in enumerate(self.gu_ids):
            for s in self.visible.get(g, ()):
                out[u, self.sat_index[s]] = True
        return out

    def _per_satellite(self, block) -> np.ndarray:
        """S x U x U array holding, for each satellite, ``block(h, w)`` of
        the n users that see it (channels h: n x N, analog beams w: N x n)
        on those users' rows and columns, zero elsewhere."""
        out = np.zeros((len(self.sat_ids), len(self.gu_ids), len(self.gu_ids)),
                       dtype=complex)
        for i, s in enumerate(self.sat_ids):
            gus = [g for g in self.gu_ids if s in self.visible.get(g, ())]
            if not gus:
                continue
            h = np.vstack([self.base_channels[(s, g)] for g in gus])
            w = np.column_stack([self.analog_beams[(s, g)] for g in gus])
            rows = [self.gu_index[g] for g in gus]
            out[i][np.ix_(rows, rows)] = block(h, w)
        return out

    @cached_property
    def cross_terms(self) -> np.ndarray:
        """X[s, u, v] = h_{s,u}^H w^A_{s,v} (S x U x U), zero unless both
        users see the satellite."""
        return self._per_satellite(lambda h, w: h.conj() @ w)

    @cached_property
    def cross_power(self) -> np.ndarray:
        """|X|^2: power of user v's unit analog beam at user u."""
        return np.abs(self.cross_terms) ** 2

    @cached_property
    def analog_gram(self) -> np.ndarray:
        """(A^H A)[s, u, v] = w^A_{s,u}^H w^A_{s,v} (S x U x U); only the
        hybrid power scaling reads it."""
        return self._per_satellite(lambda h, w: w.conj().T @ w)

    @cached_property
    def boresight_gain(self) -> float:
        return vsat_gain_linear(0.0, self.rf)

    @cached_property
    def gain_table(self) -> np.ndarray:
        """G[u, a, b]: linear user antenna gain toward satellite ``b``
        while user ``u`` tracks satellite ``a`` (U x S x S), zero unless
        the user sees both.  The off-boresight angle is evaluated with the
        scalar ``math.acos``, not ``np.arccos``, which may differ in the
        last bit: ``metrics.user_metrics`` reads this table, and the
        result files pin its values."""
        n_s = len(self.sat_ids)
        out = np.zeros((len(self.gu_ids), n_s, n_s))
        for u, g in enumerate(self.gu_ids):
            sats = self.visible.get(g, ())
            for a in sats:
                for b in sats:
                    if a == b:
                        gain = self.boresight_gain
                    else:
                        d1 = self.sat_directions[(g, a)]
                        d2 = self.sat_directions[(g, b)]
                        angle = math.degrees(
                            math.acos(float(np.clip(np.dot(d1, d2), -1.0, 1.0))))
                        gain = vsat_gain_linear(angle, self.rf)
                    out[u, self.sat_index[a], self.sat_index[b]] = gain
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
        analog = np.column_stack([self.analog_beams[(beams.sat_id, g)]
                                  for g in beams.gus])
        return analog @ beams.mixer


def power_scaled_analog_beams(instance: EpochInstance,
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
