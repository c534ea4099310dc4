"""Per-user SINR and spectral efficiency, density classification, and
run-level aggregation.

The received SINR of a served user combines the desired beam through
the boresight antenna gain with interference from every visible
satellite's beams toward other users, each attenuated by the user
antenna's off-boresight roll-off.  Noise power is one by channel
normalization.  Unserved users count with zero rate.  Signal and
interference come from the evaluator in ``network``
(``beam_powers``, ``signal_and_interference``), which the greedy
scorer shares.  Users and satellites enter as rows of the instance's
arrays; ids appear only in the ``UserMetrics`` it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .geometry import EARTH_RADIUS_KM, GroundUser
from .network import EpochInstance, beam_powers, signal_and_interference


@dataclass(frozen=True)
class UserMetrics:
    gu_id: int
    sinr: float
    se: float
    serving_sat: int | None
    interference_power: float


@dataclass(frozen=True)
class DensityClass:
    gu_id: int
    dense: bool

    @property
    def label(self) -> str:
        return "dense" if self.dense else "sparse"


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Outcome of one (epoch, scheme) evaluation."""

    epoch_index: int
    epoch_s: float
    scheme: str
    users: tuple[UserMetrics, ...]
    trace: tuple = ()  # the greedy's TraceRecords, when traced

    @property
    def total_se(self) -> float:
        """The per-user SEs summed in row order, as ``total_se`` sums them."""
        return sum(u.se for u in self.users)

    @property
    def unserved(self) -> tuple[int, ...]:
        return tuple(u.gu_id for u in self.users if u.serving_sat is None)


class NonFiniteSinrError(ValueError):
    """A SINR or a scheduling score evaluated to NaN or infinity."""


def _evaluate(instance: EpochInstance, serving: np.ndarray,
              powers: tuple[np.ndarray, np.ndarray, np.ndarray]
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SINR, spectral efficiency log2(1 + SINR) and total interference of
    every user of one serving vector, or of a stack of them, from the
    ``beam_powers`` of their beams (see ``network.signal_and_interference``
    for the shapes); all are 0.0 at an unserved user.  Raises
    ``NonFiniteSinrError`` naming the first served user, in stack and then
    row order, whose SINR is NaN or infinite."""
    signal, by_sat = signal_and_interference(instance, serving, *powers)
    interference = by_sat.sum(axis=-1)
    sinr = signal / (interference + 1.0)
    bad = np.argwhere(~np.isfinite(sinr))  # an unserved user's SINR is 0.0
    if bad.size:
        where = tuple(bad[0])
        raise NonFiniteSinrError(
            f"SINR of user {instance.gu_ids[where[-1]]} served by satellite "
            f"{instance.sat_ids[serving[where]]} is {sinr[where]}")
    return sinr, np.log2(1.0 + sinr), interference


def user_metrics(instance: EpochInstance, serving: np.ndarray,
                 beams: Mapping[int, np.ndarray]) -> list[UserMetrics]:
    """Evaluate every user under a serving vector (the serving
    satellite's row in ``instance.sat_ids`` per user, -1 when unserved)
    and the mixers ``{satellite row: mixer}`` of exactly the satellites
    that serve someone, each n x n for its n users.  A malformed serving
    vector or beams that do not match it raise ``ValueError`` (see
    ``network.beam_powers``)."""
    serving = np.asarray(serving)
    sinr, se, interference = _evaluate(instance, serving,
                                       beam_powers(instance, serving, beams))
    return [UserMetrics(g, x, e, instance.sat_ids[a] if a >= 0 else None, i)
            for g, a, x, e, i in zip(instance.gu_ids, serving.tolist(), sinr.tolist(),
                                     se.tolist(), interference.tolist())]


def total_se(instance: EpochInstance, serving: np.ndarray,
             beams: Mapping[int, np.ndarray]) -> float:
    return sum(u.se for u in user_metrics(instance, serving, beams))


def stacked_total_se(instance: EpochInstance, serving: np.ndarray,
                     powers: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """``total_se`` of each serving vector of a K x U stack, from the
    ``beam_powers`` of its beams stacked along a leading axis (K x S x U,
    K x U, K x U), to rounding: each user's SE has the bits
    ``user_metrics`` gives it, but ``np.sum`` adds them in its own order.
    Every served SINR of the stack is checked as ``user_metrics`` checks
    it."""
    return _evaluate(instance, serving, powers)[1].sum(axis=-1)


def _haversine_km(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Great-circle distance on the spherical Earth (haversine) between
    points given in degrees; the arguments broadcast."""
    lat1, lon1, lat2, lon2 = map(np.radians, (lat1, lon1, lat2, lon2))
    s = (np.sin((lat2 - lat1) / 2.0) ** 2
         + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(s)))


def density_classes(gus: Sequence[GroundUser],
                    threshold_km: float = 400.0) -> list[DensityClass]:
    """A user is sparse when every other user is farther than the
    threshold; otherwise dense."""
    if threshold_km <= 0.0:
        raise ValueError("threshold_km must be > 0")
    lat, lon = np.reshape([(g.latitude_deg, g.longitude_deg) for g in gus], (-1, 2)).T
    ids = np.array([g.user_id for g in gus])
    near = _haversine_km(lat[:, None], lon[:, None], lat, lon) <= threshold_km
    dense = (near & (ids[:, None] != ids)).any(axis=1)
    return [DensityClass(g.user_id, d) for g, d in zip(gus, dense.tolist())]


def mean_total_se(results: Iterable[ExperimentResult]) -> dict[str, float]:
    """Mean total SE per scheme over epochs."""
    totals: dict[str, list[float]] = {}
    for r in results:
        totals.setdefault(r.scheme, []).append(r.total_se)
    if not totals:
        raise ValueError("no results to aggregate")
    return {scheme: float(np.mean(v)) for scheme, v in sorted(totals.items())}


def pairwise_gains(means: Mapping[str, float]) -> dict[str, float]:
    """Percentage gain (a - b) / b for every ordered scheme pair."""
    out = {}
    for a in sorted(means):
        for b in sorted(means):
            if a != b and means[b] > 0.0:
                out[f"{a}_vs_{b}_pct"] = 100.0 * (means[a] - means[b]) / means[b]
    return out


def density_statistics(results: Iterable[ExperimentResult],
                       classes: Sequence[DensityClass]) -> dict[str, dict[str, dict[str, float]]]:
    """Mean and population variance of per-user SE by scheme and density
    class, pooled over epochs and users."""
    labels = {c.gu_id: c.label for c in classes}
    samples: dict[tuple[str, str], list[float]] = {}
    for r in results:
        for u in r.users:
            samples.setdefault((r.scheme, labels[u.gu_id]), []).append(u.se)
    out: dict[str, dict[str, dict[str, float]]] = {}
    for (scheme, label), vals in sorted(samples.items()):
        arr = np.asarray(vals)
        out.setdefault(scheme, {})[label] = {
            "mean_se": float(arr.mean()),
            "var_se": float(arr.var()),  # population variance
            "count": int(arr.size),
        }
    return out
