"""Per-user SINR and spectral efficiency, density classification, and
run-level aggregation.

The received SINR of a served user combines the desired beam through
the boresight antenna gain with interference from every visible
satellite's beams toward other users, each attenuated by the user
antenna's off-boresight roll-off.  Noise power is one by channel
normalization.  Unserved users count with zero rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .geometry import EARTH_RADIUS_KM, GroundUser
from .network import EpochInstance, SatelliteBeams


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
    served = instance.served_map(serving)
    if {s: b.gus for s, b in beams.items()} != served:
        raise ValueError(f"beams {sorted(beams)} inconsistent with the users "
                         f"served by satellites {sorted(served)}")

    cross = instance.cross_terms
    gains = instance.gain_table
    sat_index = instance.sat_index
    cols = {s: [instance.gu_index[g] for g in b.gus] for s, b in beams.items()}
    out = []
    for u, g in enumerate(instance.gu_ids):
        a = int(serving[u])
        if a < 0:
            out.append(UserMetrics(g, 0.0, 0.0, None, 0.0))
            continue
        signal = 0.0
        interference = 0.0
        for s in instance.visible[g]:
            b = beams.get(s)
            if b is None:
                continue
            i = sat_index[s]
            # complex amplitudes of every beam of s at g, before the user
            # antenna gain
            amplitudes = cross[i, u, cols[s]] @ b.mixer
            powers = gains[u, a, i] * np.abs(amplitudes) ** 2
            if i == a:
                # the other beams summed directly: after ZF nulling,
                # sum(powers) - signal would be rounding noise
                j = b.gus.index(g)
                signal = float(powers[j])
                interference += float(np.sum(np.delete(powers, j)))
            else:
                interference += float(np.sum(powers))
        sinr = signal / (interference + 1.0)
        serving_sat = instance.sat_ids[a]
        if not math.isfinite(sinr):
            raise NonFiniteSinrError(
                f"SINR of user {g} served by satellite {serving_sat} is {sinr}")
        out.append(UserMetrics(g, sinr, math.log2(1.0 + sinr), serving_sat,
                               interference))
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
