"""Per-user SINR and spectral efficiency, density classification, and
run-level aggregation.

The received SINR of a served user combines the desired beam through
the boresight antenna gain with interference from every visible
satellite's beams toward other users, each attenuated by the user
antenna's off-boresight roll-off.  Noise power is one by channel
normalization.  Unserved users count with zero rate.  Signal and
interference come from the evaluator in ``network``
(``beam_powers``, ``signal_and_interference``), which the greedy
scorers share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .geometry import EARTH_RADIUS_KM, GroundUser
from .network import (EpochInstance, SatelliteBeams, beam_powers,
                      signal_and_interference)


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
    threshold_km: float

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
    unserved: tuple[int, ...]
    total_se: float

    def __post_init__(self) -> None:
        total = sum(u.se for u in self.users)
        if not math.isclose(total, self.total_se, rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError("total_se does not match the per-user sum")


class NonFiniteSinrError(ValueError):
    """A SINR or a scheduling score evaluated to NaN or infinity."""


def user_metrics(instance: EpochInstance, serving: np.ndarray,
                 beams: Mapping[int, SatelliteBeams]) -> list[UserMetrics]:
    """Evaluate every user under a serving vector (the serving
    satellite's row in ``instance.sat_ids`` per user, -1 when unserved)
    and the transmit beams of exactly the satellites that serve someone.
    A malformed serving vector (see ``EpochInstance.served_map``) or
    beams that do not match it raise ``ValueError``."""
    serving = np.asarray(serving)
    served = instance.served_map(serving)
    if {s: b.gus for s, b in beams.items()} != served:
        raise ValueError(f"beams {sorted(beams)} inconsistent with the users "
                         f"served by satellites {sorted(served)}")

    signal, by_sat = signal_and_interference(instance, serving,
                                             *beam_powers(instance, beams))
    interference = by_sat.sum(axis=1)
    sinr = signal / (interference + 1.0)
    out = []
    for g, a, x, i in zip(instance.gu_ids, serving.tolist(), sinr.tolist(),
                          interference.tolist()):
        if a < 0:
            out.append(UserMetrics(g, 0.0, 0.0, None, 0.0))
            continue
        serving_sat = instance.sat_ids[a]
        if not math.isfinite(x):
            raise NonFiniteSinrError(
                f"SINR of user {g} served by satellite {serving_sat} is {x}")
        out.append(UserMetrics(g, x, math.log2(1.0 + x), serving_sat, i))
    return out


def total_se(instance: EpochInstance, serving: np.ndarray,
             beams: Mapping[int, SatelliteBeams]) -> float:
    return sum(u.se for u in user_metrics(instance, serving, beams))


def great_circle_km(a: GroundUser, b: GroundUser) -> float:
    """Great-circle distance on the spherical Earth (haversine)."""
    lat1, lon1 = math.radians(a.latitude_deg), math.radians(a.longitude_deg)
    lat2, lon2 = math.radians(b.latitude_deg), math.radians(b.longitude_deg)
    s = (math.sin((lat2 - lat1) / 2.0) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


def density_classes(gus: Sequence[GroundUser],
                    threshold_km: float = 400.0) -> list[DensityClass]:
    """A user is sparse when every other user is farther than the
    threshold; otherwise dense."""
    if threshold_km <= 0.0:
        raise ValueError("threshold_km must be > 0")
    out = []
    for a in gus:
        dense = any(great_circle_km(a, b) <= threshold_km
                    for b in gus if b.user_id != a.user_id)
        out.append(DensityClass(a.user_id, dense, threshold_km))
    return out


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
    is_dense = {c.gu_id: c.dense for c in classes}
    samples: dict[tuple[str, str], list[float]] = {}
    for r in results:
        for u in r.users:
            label = "dense" if is_dense[u.gu_id] else "sparse"
            samples.setdefault((r.scheme, label), []).append(u.se)
    out: dict[str, dict[str, dict[str, float]]] = {}
    for (scheme, label), vals in sorted(samples.items()):
        arr = np.asarray(vals)
        out.setdefault(scheme, {})[label] = {
            "mean_se": float(arr.mean()),
            "var_se": float(arr.var()),  # population variance
            "count": int(arr.size),
        }
    return out
