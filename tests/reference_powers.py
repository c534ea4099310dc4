"""Test-only reference for ``coopsat.network.design_powers``.

The per-beam loop: each design's received powers at every user row from
its own matrix product, then each member beam's own power and the
sum of the other beams at that member, read one beam at a time.  A
member's other beams are summed over its row with its own entry zeroed,
the order ``design_powers`` sums them in, so the two agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from coopsat.network import EpochInstance


def reference_design_powers(instance: EpochInstance, sat: "int | np.ndarray",
                            idx: np.ndarray, mixer: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Total, own and intra power (K x U each) of the designs of
    satellite row ``sat`` (or one per row) serving the user rows of each
    row of ``idx`` through ``mixer`` (K x n x n, or one n x n)."""
    k, n = idx.shape
    sats = np.broadcast_to(sat, (k,)).tolist()
    mixers = np.broadcast_to(mixer, (k, n, n))
    total, own, intra = np.zeros((3, k, len(instance.gu_ids)))
    for d, (s, members) in enumerate(zip(sats, idx.tolist())):
        amp = np.abs(instance.cross_terms[s][:, members] @ mixers[d]) ** 2
        total[d] = amp.sum(axis=1)
        for b, u in enumerate(members):
            own[d, u] = amp[u, b]
            others = amp[u].copy()
            others[b] = 0.0
            intra[d, u] = others.sum()
    return total, own, intra
