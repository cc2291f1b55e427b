"""Linked-cell spatial binning and candidate pair generation.

The reference engine's neighbor search: atoms are binned into cells of
edge >= cutoff, and candidate pairs are drawn from each atom's 27-cell
stencil.  Each undirected pair is generated exactly *once* (the half
stencil plus ordered same-cell pairs), halving the candidate stream the
distance filter and force kernels consume.  This module holds a
build's plan -- the binning and the stable sort into cell order
(:func:`~repro.kernels.numpy_backend.cell_plan`), the over-inclusion
bound (:func:`~repro.kernels.numpy_backend.sweep_cut`), the very
functions the registry's ``md_step`` builds its list with -- and the
sweep itself is one call of the
active tier's ``cell_pairs`` kernel
(:mod:`repro.kernels`): the numpy body walks the blocks of
:func:`~repro.kernels.numpy_backend.cell_blocks`, the one definition of
the stream's order, with a Python loop over the stencil offsets only;
the native body emits the same stream from a C loop.

For periodic dimensions the box must span at least three cells
(= 3 x cutoff) for the stencil to be alias-free; smaller periodic
systems automatically fall back to the brute-force ``all_pairs`` path,
which handles any box permitted by minimum image.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import active_backend, numpy_backend
from repro.kernels.numpy_backend import HALF_STENCIL, concatenated_ranges
from repro.md.boundary import Box

__all__ = ["CellList", "all_pairs", "concatenated_ranges"]

_EMPTY = np.empty(0, dtype=np.int64)


def all_pairs(
    positions: np.ndarray, cutoff: float, box: Box
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Brute-force directed pairs within ``cutoff``.

    Returns ``(i, j, rij, r)`` with minimum image applied.  O(N^2); for
    tests and small periodic boxes.
    """
    box.check_minimum_image_valid(cutoff)
    n = len(positions)
    delta = positions[None, :, :] - positions[:, None, :]
    delta = box.minimum_image(delta)
    dist2 = np.einsum("ijk,ijk->ij", delta, delta)
    np.fill_diagonal(dist2, np.inf)
    ii, jj = np.nonzero(dist2 < cutoff * cutoff)
    rij = delta[ii, jj]
    return ii, jj, rij, np.sqrt(dist2[ii, jj])


class CellList:
    """Spatial binning for one configuration.

    Build once per neighbor-list rebuild; ``candidate_pairs`` then
    produces every undirected pair within the bin cutoff exactly once,
    and ``pairs_within`` the same stream already cut at a radius (the
    form rebuilds consume).  Cells have edge >= cutoff and the stencil
    is the fixed 13-offset half of the 27-cell cube, for the serial
    list and every shard rank alike.
    """

    def __init__(self, box: Box, cutoff: float) -> None:
        if cutoff <= 0:
            raise ValueError(f"cutoff must be positive, got {cutoff}")
        box.check_minimum_image_valid(cutoff)
        self.box = box
        self.cutoff = float(cutoff)
        self._ncell = np.ones(3, dtype=np.int64)
        self._use_brute = False
        self._n = 0
        self._binned: numpy_backend.CellPlan | None = None
        # the binning's buffers, reused across rebuilds of the same
        # sizes so a skin-policy rebuild costs no fresh large allocations
        self._buffers: dict = {}

    def build(self, positions: np.ndarray) -> None:
        """Bin atoms (:func:`~repro.kernels.numpy_backend.cell_plan`);
        decides grid geometry from the current positions."""
        positions = np.asarray(positions, dtype=np.float64)
        box = self.box
        plan = numpy_backend.cell_plan(positions, box.origin, box.lengths,
                                       box.periodic, self.cutoff,
                                       self._buffers)
        if plan is None:
            raise FloatingPointError("non-finite positions in cell-list build")
        self._binned = plan
        self._ncell = plan.ncell
        self._use_brute = plan.brute
        self._n = len(positions)

    def lend_buffers(self) -> dict:
        """The binning's buffers, for a build elsewhere (the numpy body
        of the registry's ``md_step``) to bin into.  Such a build
        overwrites the plan of the last :meth:`build`, so that plan is
        dropped here: a pair query raises until the next
        :meth:`build`."""
        self._binned = None
        return self._buffers

    def candidate_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Each undirected candidate pair (i, j) exactly once (half list).

        This is the software analogue of the paper's Force Symmetry
        optimization (Sec. VI-A): every pair is visited once, and force
        kernels scatter both halves.  Same-cell pairs are emitted with
        ``i < j``; cross-cell pairs use the 13-offset half stencil (the
        opposite offset is covered from the partner cell).

        Pairs are a superset of interacting pairs and carry no distance
        information.  This is the *raw* enumerator: the hot rebuild
        path uses :meth:`pairs_within`, whose kernel walks the same
        block stream (:func:`~repro.kernels.numpy_backend.cell_blocks`,
        the one definition of its order) but measures each block before
        mapping it to atom ids; ``candidate_pairs`` stays as the oracle
        that stream is tested against and as the probe of the raw
        stencil volume.  Callers that need both directions expand via
        :meth:`directed_candidate_pairs`.
        """
        if self._use_brute:
            return self._brute_pairs()
        out_i = [_EMPTY]
        out_j = [_EMPTY]
        for src, start, count in numpy_backend.cell_blocks(*self._plan()):
            order = self._binned.order
            out_i.append(np.repeat(order[src], count))
            out_j.append(order[concatenated_ranges(start, count)])
        return np.concatenate(out_i), np.concatenate(out_j)

    def pairs_within(self, reach: float) -> tuple[np.ndarray, np.ndarray, int]:
        """:meth:`candidate_pairs` coarsely cut at ``reach``, streamed.

        Returns ``(i, j, n_raw)``: the sub-stream of
        ``candidate_pairs()`` — same pairs, same order — whose
        separation at the build positions may be within ``reach``, and
        the length ``n_raw`` of the raw stream it was cut from.  The cut
        only ever *over*-includes: every pair an exact distance kernel
        would keep at ``r2 <= reach**2`` is present, so running that
        kernel on the result decides the same set in the same order as
        running it on the raw stream, on a fraction of the rows.

        The sweep is one call of the active tier's ``cell_pairs``
        kernel on this build's plan: each stencil block is measured
        where it is enumerated, in cell-sorted coordinate columns, and
        only the survivors are mapped through the sort order to atom
        ids; the raw ``(i, j)`` arrays never exist.

        Over-inclusion bound.  Along an open dimension the coarse
        component is the same IEEE subtraction of the same two doubles
        the exact kernel performs.  Along a periodic dimension both
        apply the nearest-image formula to that difference ``d``; a
        kernel that rounds or contracts it differently, or breaks a
        half-box tie the other way, lands within
        ``4 * eps * (|d| + L)`` in magnitude, and ``|d|`` is at most the
        coordinate span ``S`` of the build.  Summing three squares
        costs either side at most ``3 * eps`` relative.  So a pair the
        exact kernel keeps has a coarse ``r2`` of at most
        ``reach**2 * (1 + 16 * eps) + 8 * reach * sum_periodic(
        4 * eps * (S + L))``, which is the threshold used (see
        DESIGN.md, "Neighbor search").  The brute-force fallback
        has no blocks to measure and returns its raw stream whole.
        """
        if self._use_brute:
            i, j = self._brute_pairs()
            return i, j, len(i)
        return active_backend().cell_pairs(*self._sweep_args(reach))

    def _brute_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        return numpy_backend.brute_pairs(self._n)

    def _sweep_args(self, reach: float) -> tuple:
        """The ``cell_pairs`` kernel's arguments for this build's sweep
        at ``reach``: the coordinate columns, the sort order, the
        :meth:`_plan`, the box lengths and the over-inclusive cut
        (:meth:`pairs_within`)."""
        plan = self._plan()
        cols = self._binned.cols
        r2_max = numpy_backend.sweep_cut(cols, self.box.lengths,
                                         self.box.periodic, reach)
        return (cols, self._binned.order, *plan, self.box.lengths, r2_max)

    def _plan(self) -> tuple:
        """This build's plan of the half-stencil stream, as the sweep
        kernels take it (:func:`~repro.kernels.numpy_backend.cell_blocks`):
        ``(cid, coords, starts, counts, ncell, periodic, stencil)`` over
        slots, the positions in cell-sorted order (``order[slot]`` is the
        atom id).

        Atoms are visited in cell-sorted order (stable argsort of the
        flat cell id): neighbors-in-space become neighbors-in-stream,
        so every gather downstream walks memory near-sequentially.
        """
        plan = self._binned
        if plan is None:
            raise RuntimeError("pair enumeration before build()")
        return (plan.cid_sorted, plan.coords_sorted, plan.starts,
                plan.counts, plan.ncell, self.box.periodic, HALF_STENCIL)

    def directed_candidate_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Directed (double-counted) view of :meth:`candidate_pairs`."""
        i, j = self.candidate_pairs()
        return np.concatenate([i, j]), np.concatenate([j, i])
