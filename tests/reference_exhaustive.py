"""Test-only reference exhaustive oracle.

The per-assignment loop that ``coopsat.scheduling.exhaustive_schedule``
replaced: every feasible assignment gets its final beams from
``final_beams`` and its total SE from ``metrics.total_se``, one
assignment at a time.  It redesigns the same (satellite, member set)
beams over and over, so it serves only as the oracle of the
differential tests.
"""

from __future__ import annotations

import itertools

import numpy as np

from coopsat import metrics
from coopsat.network import EpochInstance
from coopsat.scheduling import ScheduleResult, SchemeMode, final_beams


def reference_exhaustive(instance: EpochInstance, mode: "SchemeMode | str",
                         beta: float | None = None) -> ScheduleResult:
    """Best feasible assignment, each user's options being its visible
    satellite rows in increasing order and then unserved; the first
    strictly greater total SE in ``itertools.product`` order wins."""
    mode = SchemeMode.parse(mode)
    options = [np.flatnonzero(row).tolist() + [-1] for row in instance.visible_mask]
    best: ScheduleResult | None = None
    for combo in itertools.product(*options):
        serving = np.array(combo, dtype=int)
        if np.bincount(serving + 1)[1:].max(initial=0) > instance.n_beams:
            continue
        beams = final_beams(instance, serving, mode, beta)
        se = metrics.total_se(instance, serving, beams)
        if best is None or se > best.total_se:
            unserved = tuple(instance.gu_ids[u] for u in np.flatnonzero(serving < 0))
            best = ScheduleResult(links=serving, beams=beams, total_se=se,
                                  unserved=unserved)
    assert best is not None  # the all-unserved assignment is always feasible
    return best
