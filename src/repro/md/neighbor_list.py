"""Verlet neighbor lists with a skin distance.

The candidate set is built once from a cell list at ``cutoff + skin``
and reused until any atom has moved more than ``skin / 2`` since the
build — the standard LAMMPS policy the paper contrasts against (the
WSE implementation rebuilds every step; neighbor-list *reuse* is one of
its projected future optimizations, Table V row "Neighbor list").

Candidates and the resulting :class:`~repro.potentials.base.PairTable`
are *half* lists — each undirected pair stored once, the software
analogue of the paper's Force Symmetry (Sec. VI-A).  Callers that need
the double-counted view expand with ``PairTable.directed()``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.kernels import active_backend
from repro.md.boundary import Box
from repro.md.cell_list import CellList
from repro.obs import metrics
from repro.potentials.base import PairTable

__all__ = ["NeighborList", "count_funnel", "max_sq_displacement"]


def max_sq_displacement(positions: np.ndarray, ref: np.ndarray) -> float:
    """Largest squared displacement of any atom from ``ref`` — the
    quantity the skin/2 trigger compares, here and parent-side in the
    sharded pipeline (one arithmetic, so the two triggers agree bit for
    bit).

    Displacement is physical distance; periodic wrap is irrelevant for
    "how far did it move" as integration never wraps positions.  Raises
    :class:`FloatingPointError` on a non-finite result: ``np.max``
    propagates NaN, so the check costs no extra pass, and left
    unchecked ``NaN > bound`` is False — the list would be reused and
    the strict filter would silently drop the atom's pairs.
    """
    delta = positions - ref
    max_d2 = float(np.max(np.einsum("ij,ij->i", delta, delta)))
    if not math.isfinite(max_d2):
        raise FloatingPointError(
            "non-finite positions in neighbor-list displacement check"
        )
    return max_d2


def count_funnel(n_raw: int, n_coarse: int, n_exact: int) -> None:
    """Add one rebuild's candidate funnel to the metrics registry.

    ``neighbor.raw_candidates`` (stencil pairs enumerated) >=
    ``neighbor.coarse_kept`` (survivors of the sweep's in-block cut) >=
    ``neighbor.exact_kept`` (candidates the exact kernel kept).  All
    three are exact, seed-repeatable counts: a loosened coarse bound
    shows up as ``coarse_kept - exact_kept`` growing, not as noise.
    """
    reg = metrics()
    reg.counter("neighbor.raw_candidates").inc(n_raw)
    reg.counter("neighbor.coarse_kept").inc(n_coarse)
    reg.counter("neighbor.exact_kept").inc(n_exact)


class NeighborList:
    """Reusable half candidate pair list.

    Parameters
    ----------
    box, cutoff:
        Interaction geometry.
    skin:
        Extra candidate radius (A).  Zero forces a rebuild every query.
    """

    def __init__(self, box: Box, cutoff: float, skin: float = 0.5) -> None:
        if skin < 0:
            raise ValueError(f"skin must be non-negative, got {skin}")
        self.box = box
        self.cutoff = float(cutoff)
        self.skin = float(skin)
        self._any_periodic = bool(np.any(box.periodic))
        self._cells = CellList(box, self.cutoff + self.skin)
        self._cand_i: np.ndarray | None = None
        self._cand_j: np.ndarray | None = None
        self._ref_positions: np.ndarray | None = None
        self._built_n_atoms = -1
        self.n_builds = 0
        self.last_pair_count = 0

    def rebuild_reason(self, positions: np.ndarray) -> str | None:
        """Why the candidate set must be rebuilt, or ``None`` to reuse.

        Reasons: ``"first"`` (no build yet), ``"skin_zero"`` (skin 0
        forces a rebuild every query), ``"size"`` (atom count changed —
        the cached candidate indices would be stale or out of range),
        ``"displacement"`` (some atom moved more than skin/2).
        """
        if self._ref_positions is None:
            return "first"
        if self.skin == 0.0:
            return "skin_zero"
        if len(positions) != len(self._ref_positions):
            return "size"
        max_d2 = max_sq_displacement(positions, self._ref_positions)
        if max_d2 > (self.skin / 2.0) ** 2:
            return "displacement"
        return None

    def needs_rebuild(self, positions: np.ndarray) -> bool:
        """True if any atom moved more than skin/2 since the last build."""
        return self.rebuild_reason(positions) is not None

    def rebuild(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rebuild the candidate set from scratch.

        One streaming sweep: the cell list enumerates its half-stencil
        blocks, coarsely cuts each at ``cutoff + skin`` where it is
        enumerated (:meth:`CellList.pairs_within` — over-inclusive by a
        rounding-error margin, never under), and the exact
        ``neighbor_prefilter`` kernel then makes every keep/drop
        decision on the coarse survivors.  The candidate set and its
        order are exactly those of the kernel run on the raw stencil
        stream, at ~6.5x fewer rows on ref-Ta.

        Candidates are Verlet-prefiltered to ``cutoff + skin`` at the
        build positions: the skin/2 rebuild policy guarantees no
        dropped pair can re-enter the cutoff before the next rebuild
        (each atom moves < skin/2, so a pair's distance shrinks by
        < skin).

        Returns the kernel's ``(rij, r)`` of the candidates *at*
        ``positions`` so a query at those same positions need not
        measure them again; the list itself keeps no geometry.
        """
        self._cells.build(positions)
        reach = self.cutoff + self.skin
        ci, cj, n_raw = self._cells.pairs_within(reach)
        kept = active_backend().neighbor_prefilter(
            positions, ci, cj, self.box.lengths, self.box.periodic,
            reach, inclusive=True, compute_r=True,
        )
        self._cand_i, self._cand_j, rij, r = kept
        self._ref_positions = np.array(positions, copy=True)
        self._built_n_atoms = len(self._ref_positions)
        self.n_builds += 1
        count_funnel(n_raw, len(ci), len(self._cand_i))
        return rij, r

    def pairs(self, positions: np.ndarray) -> PairTable:
        """Half interacting pairs at the *current* positions.

        Rebuilds the candidate set first if the skin criterion demands
        it, then distance-filters candidates to the true cutoff.  Each
        undirected pair appears once (``half=True``); kernels scatter
        both halves, so no physics is lost.
        """
        positions = np.asarray(positions, dtype=np.float64)
        reason = self.rebuild_reason(positions)
        if reason is None and self._built_n_atoms != len(positions):
            # Belt-and-braces: never index stale candidates into a
            # differently-sized position array, even if the reference
            # positions were tampered with between queries.
            reason = "stale_guard"
        reg = metrics()
        table = None
        if reason is not None:
            rij, r = self.rebuild(positions)
            reg.counter("neighbor.rebuilds").inc()
            reg.counter(f"neighbor.rebuilds.{reason}").inc()
            # The build just measured every candidate at these very
            # positions; only here — never across calls — is its
            # geometry the query's geometry.
            table = self._cut_built(rij, r)
        else:
            reg.counter("neighbor.reuses").inc()
        if table is None:
            # strict filter at the true cutoff, minimum image applied
            # along the periodic dimensions inside the kernel
            i, j, rij, r = active_backend().neighbor_prefilter(
                positions, self._cand_i, self._cand_j,
                self.box.lengths, self.box.periodic,
                self.cutoff, inclusive=False, compute_r=True,
            )
            table = PairTable(i=i, j=j, rij=rij, r=r, half=True)
        self.last_pair_count = table.n_pairs
        return table

    def _cut_built(self, rij: np.ndarray, r: np.ndarray) -> PairTable | None:
        """The strict ``r2 < cutoff**2`` table from build-time geometry.

        The kernel hands back ``r = sqrt(r2)``, not ``r2``.  ``sqrt``
        is correctly rounded, hence monotone: with
        ``rc = sqrt(cutoff * cutoff)``, ``r < rc`` implies
        ``r2 < cutoff**2`` and ``r > rc`` implies ``r2 > cutoff**2``,
        for any backend.  Only ``r == rc`` leaves the kernel's decision
        open (a lattice shell sitting exactly on the cutoff); then
        ``None`` sends the query through the kernel as usual.
        """
        rc = math.sqrt(self.cutoff * self.cutoff)
        if np.any(r == rc):
            return None
        keep = r < rc
        n_keep = int(np.count_nonzero(keep))
        i, j = self._cand_i, self._cand_j
        if n_keep == len(r):
            # skin 0: every candidate interacts.  The arrays are the
            # kernel's fresh outputs; rebuilds rebind, never mutate.
            return PairTable(i=i, j=j, rij=rij, r=r, half=True)
        return PairTable(
            i=i[keep], j=j[keep], rij=rij[keep], r=r[keep], half=True
        )

    @property
    def n_candidates(self) -> int:
        """Size of the current candidate set (half pairs)."""
        return 0 if self._cand_i is None else len(self._cand_i)
