"""Test-only reference exhaustive oracle.

The per-assignment loop that ``coopsat.scheduling.exhaustive_schedule``
replaced: every feasible assignment gets its final beams from
``final_beams`` and its total SE from ``metrics.total_se``, one
assignment at a time.  It redesigns the same (satellite, member set)
beams over and over, so it serves only as the oracle of the
differential tests.  It returns the best total SE the loop itself
computed, not one derived again from the winner.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from coopsat import metrics
from coopsat.network import EpochInstance
from coopsat.scheduling import SchemeMode, final_beams


@dataclass(eq=False)
class ReferenceResult:
    links: np.ndarray
    beams: dict[int, np.ndarray]
    total_se: float
    unserved: tuple[int, ...]


def reference_exhaustive(instance: EpochInstance, mode: "SchemeMode | str",
                         beta: float | None = None) -> ReferenceResult:
    """Best feasible assignment, each user's options being its visible
    satellite rows in increasing order and then unserved; the first
    strictly greater total SE in ``itertools.product`` order wins."""
    mode = SchemeMode.parse(mode)
    options = [np.flatnonzero(row).tolist() + [-1] for row in instance.visible_mask]
    best: ReferenceResult | None = None
    for combo in itertools.product(*options):
        serving = np.array(combo, dtype=int)
        if np.bincount(serving + 1)[1:].max(initial=0) > instance.n_beams:
            continue
        beams = final_beams(instance, serving, mode, beta)
        se = metrics.total_se(instance, serving, beams)
        if best is None or se > best.total_se:
            unserved = tuple(instance.gu_ids[u] for u in np.flatnonzero(serving < 0))
            best = ReferenceResult(serving, beams, se, unserved)
    assert best is not None  # the all-unserved assignment is always feasible
    return best
