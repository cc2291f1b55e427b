"""Centro-symmetry parameter: identifying grain-boundary atoms (Fig. 2).

The paper's Fig. 2 colors grain-boundary atoms (white) against the two
bulk crystal orientations.  The standard classifier is the
centro-symmetry parameter (Kelchner et al. 1998):

    CSP_i = sum_{k=1}^{N/2} | r_k + r_{k+N/2} |^2

over the ``N`` nearest neighbors paired so that each pair is as close
to opposite as possible.  Perfect centrosymmetric environments (bulk
FCC with N = 12, BCC with N = 8) give CSP ~ 0; defects, surfaces and
grain boundaries give large values.
"""

from __future__ import annotations

import numpy as np

from repro.md.boundary import Box
from repro.md.neighbor_list import NeighborList

__all__ = ["centrosymmetry"]


def centrosymmetry(
    positions: np.ndarray,
    box: Box,
    *,
    n_neighbors: int = 8,
    cutoff: float | None = None,
) -> np.ndarray:
    """Centro-symmetry parameter per atom (A^2).

    ``n_neighbors`` should be the bulk coordination of the first shell
    (12 for FCC, 8 for BCC).  Atoms with fewer neighbors than that
    (surfaces) get ``inf`` — they are trivially non-centrosymmetric.
    """
    positions = np.asarray(positions, dtype=np.float64)
    n = len(positions)
    if n_neighbors < 2 or n_neighbors % 2:
        raise ValueError(f"n_neighbors must be even and >= 2, got {n_neighbors}")
    if cutoff is None:
        # generous first-shell reach; neighbors are rank-selected below
        span = np.ptp(positions, axis=0)
        cutoff = max(1.0, float(np.min(span[span > 0])) / 4.0) if n > 1 else 1.0
        cutoff = min(cutoff, 6.0)
    # per-atom neighborhood indexing needs both (i, j) and (j, i)
    pairs = NeighborList(box, cutoff, skin=0.0).pairs(positions).directed()

    csp = np.full(n, np.inf)
    order = np.lexsort((pairs.r, pairs.i))
    i_sorted = pairs.i[order]
    rij_sorted = pairs.rij[order]
    starts = np.searchsorted(i_sorted, np.arange(n))
    ends = np.searchsorted(i_sorted, np.arange(n) + 1)
    half = n_neighbors // 2
    for atom in range(n):
        vecs = rij_sorted[starts[atom]:ends[atom]][:n_neighbors]
        if len(vecs) < n_neighbors:
            continue
        # greedy opposite-pairing of the neighbor vectors
        remaining = list(range(n_neighbors))
        total = 0.0
        for _ in range(half):
            a = remaining.pop(0)
            sums = [float(np.sum((vecs[a] + vecs[b]) ** 2)) for b in remaining]
            k = int(np.argmin(sums))
            total += sums[k]
            remaining.pop(k)
        csp[atom] = total
    return csp
