"""Per-epoch network state shared by the scheduler and the metrics.

``EpochInstance`` freezes everything the link-selection problem needs
for one time snapshot: visibility, channel vectors, per-link analog
beams, and the geometry needed to evaluate the user antenna gain for
any hypothetical serving assignment.

Channel vectors here exclude the user antenna gain: it depends on which
satellite the user antenna tracks, so it is applied as a scalar at
evaluation time.  Noise power is already normalized to one inside the
channel amplitudes.

Each satellite transmits in one of three configurations, all expressed
as a ``mixer`` on its analog beams: unit-power analog beams (scoring in
AU and SHU), analog beams sharing the satellite power equally (AU's
final beams), and hybrid beams with a power-scaled regularized-ZF
precoder (JHU scoring and the final SHU and JHU beams).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .beamforming import hybrid_from_beamspace
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
    def candidates(self) -> dict[int, tuple[int, ...]]:
        """gu candidates of each satellite (mirror of ``visible``)."""
        out: dict[int, list[int]] = {s: [] for s in self.sat_ids}
        for g in self.gu_ids:
            for s in self.visible.get(g, ()):
                out[s].append(g)
        return {s: tuple(sorted(gs)) for s, gs in out.items()}

    @cached_property
    def _col_index(self) -> dict[int, dict[int, int]]:
        return {s: {g: j for j, g in enumerate(gs)}
                for s, gs in self.candidates.items()}

    @cached_property
    def _cross(self) -> dict[int, np.ndarray]:
        """Per satellite: X[i, j] = h_{s,gi}^H w^A_{s,gj} over candidates."""
        out = {}
        for s, gs in self.candidates.items():
            if not gs:
                out[s] = np.zeros((0, 0), dtype=complex)
                continue
            h = np.vstack([self.base_channels[(s, g)] for g in gs])
            w = np.column_stack([self.analog_beams[(s, g)] for g in gs])
            out[s] = h.conj() @ w
        return out

    @cached_property
    def boresight_gain(self) -> float:
        return vsat_gain_linear(0.0, self.rf)

    def cross(self, sat_id: int) -> np.ndarray:
        return self._cross[sat_id]

    def col_of(self, sat_id: int, gu_id: int) -> int:
        return self._col_index[sat_id][gu_id]

    def off_boresight_deg(self, gu_id: int, serving_sat: int, other_sat: int) -> float:
        """Angle at the user between its boresight (serving satellite)
        and another satellite."""
        if serving_sat == other_sat:
            return 0.0
        d1 = self.sat_directions[(gu_id, serving_sat)]
        d2 = self.sat_directions[(gu_id, other_sat)]
        return math.degrees(math.acos(float(np.clip(np.dot(d1, d2), -1.0, 1.0))))

    def receive_gain(self, gu_id: int, serving_sat: int, other_sat: int) -> float:
        """Linear user antenna gain toward ``other_sat`` while tracking
        ``serving_sat``."""
        if serving_sat == other_sat:
            return self.boresight_gain
        return vsat_gain_linear(
            self.off_boresight_deg(gu_id, serving_sat, other_sat), self.rf)

    def analog_matrix(self, sat_id: int, gus: tuple[int, ...]) -> np.ndarray:
        """Analog beam columns of ``sat_id`` for the given users."""
        return np.column_stack([self.analog_beams[(sat_id, g)] for g in gus])

    def beam_matrix(self, beams: SatelliteBeams) -> np.ndarray:
        """Actual transmit columns (N x n) of one satellite."""
        return self.analog_matrix(beams.sat_id, beams.gus) @ beams.mixer


def unit_analog_beams(instance: EpochInstance,
                      served: dict[int, tuple[int, ...]]) -> dict[int, SatelliteBeams]:
    """Plain analog beams with unit per-beam power (scheduling-time view)."""
    return {s: SatelliteBeams(s, gus, np.eye(len(gus)))
            for s, gus in served.items() if gus}


def power_scaled_analog_beams(instance: EpochInstance,
                              served: dict[int, tuple[int, ...]]) -> dict[int, SatelliteBeams]:
    """Analog beams sharing the satellite power equally."""
    out = {}
    for s, gus in served.items():
        if not gus:
            continue
        n = len(gus)
        out[s] = SatelliteBeams(s, gus,
                                np.eye(n) * math.sqrt(instance.tx_power_w / n))
    return out


def hybrid_beams(instance: EpochInstance, served: dict[int, tuple[int, ...]],
                 beta: float | None = None) -> dict[int, SatelliteBeams]:
    """Hybrid (analog + regularized-ZF) beams at full satellite power.

    The beam-space channel rows carry the boresight user antenna gain:
    every served user tracks this satellite.
    """
    out = {}
    g0 = math.sqrt(instance.boresight_gain)
    for s, gus in served.items():
        if not gus:
            continue
        idx = [instance.col_of(s, g) for g in gus]
        h_tilde = g0 * instance.cross(s)[np.ix_(idx, idx)]
        analog = instance.analog_matrix(s, gus)
        digital = hybrid_from_beamspace(h_tilde, analog, instance.tx_power_w,
                                        beta=beta)
        out[s] = SatelliteBeams(s, gus, math.sqrt(digital.eta) * digital.matrix)
    return out
