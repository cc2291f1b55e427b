"""Linked-cell spatial binning and candidate pair generation.

The reference engine's neighbor search: atoms are binned into cells of
edge >= cutoff, and candidate pairs are drawn from each atom's 27-cell
stencil.  Each undirected pair is generated exactly *once* (the half
stencil plus ordered same-cell pairs), halving the candidate stream the
distance filter and force kernels consume.  All stages are vectorized;
the only Python-level loop is over the 13 half-stencil offsets.

For periodic dimensions the box must span at least three cells
(= 3 x cutoff) for the stencil to be alias-free; smaller periodic
systems automatically fall back to the brute-force ``all_pairs`` path,
which handles any box permitted by minimum image.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.md.boundary import Box

__all__ = ["CellList", "all_pairs", "concatenated_ranges"]

_EMPTY = np.empty(0, dtype=np.int64)

#: Half stencil: one offset per unordered offset pair (+o covers -o).
#: (0, 0, 0) is excluded — same-cell pairs are generated with i < j.
_HALF_STENCIL = [
    (dx, dy, dz)
    for dx, dy, dz in itertools.product((-1, 0, 1), repeat=3)
    if dz > 0 or (dz == 0 and dy > 0) or (dz == 0 and dy == 0 and dx > 0)
]


def concatenated_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + c)`` for each (s, c) pair."""
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # arange(total) restarts at each range when the range's own offset
    # into the output is subtracted from its start
    out = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    out += np.arange(total, dtype=np.int64)
    return out


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
    form rebuilds consume).

    ``subdivide=k`` bins at cell edge >= cutoff/k and widens the half
    stencil to radius k (with corner blocks farther than the cutoff
    pruned per build).  Finer cells hug the cutoff sphere tighter, so
    the raw candidate stream the distance filter consumes shrinks —
    at k=2 by roughly 40% — at the price of more stencil offsets per
    build.  The candidate *set* within the cutoff is identical for
    every k; only the enumeration order changes, so callers that pin
    bitwise stream order must keep the default ``subdivide=1``.
    Periodic dims need >= 2k+1 cells to stay alias-free; a build that
    cannot afford that falls back to k=1 (then to brute force).
    """

    def __init__(self, box: Box, cutoff: float, subdivide: int = 1) -> None:
        if cutoff <= 0:
            raise ValueError(f"cutoff must be positive, got {cutoff}")
        if subdivide < 1:
            raise ValueError(f"subdivide must be >= 1, got {subdivide}")
        box.check_minimum_image_valid(cutoff)
        self.box = box
        self.cutoff = float(cutoff)
        self.subdivide = int(subdivide)
        self._stencil: list[tuple[int, int, int]] = _HALF_STENCIL
        # Decided at build time (open dims depend on the configuration).
        self._lo = np.zeros(3)
        self._ncell = np.ones(3, dtype=np.int64)
        self._cell_size = np.ones(3)
        self._cid: np.ndarray | None = None
        self._order: np.ndarray | None = None
        self._starts: np.ndarray | None = None
        self._counts: np.ndarray | None = None
        self._use_brute = False
        # Scratch buffers, sized lazily and reused across rebuilds so a
        # skin-policy rebuild costs no fresh large allocations.
        self._n_buf = -1
        self._ntot_buf = -1

    def build(self, positions: np.ndarray) -> None:
        """Bin atoms; decides grid geometry from the current positions."""
        positions = np.asarray(positions, dtype=np.float64)
        if not np.all(np.isfinite(positions)):
            raise FloatingPointError("non-finite positions in cell-list build")
        eps = 1e-9
        lengths = np.empty(3)
        for d in range(3):
            if self.box.periodic[d]:
                lengths[d] = self.box.lengths[d]
                self._lo[d] = self.box.origin[d]
            else:
                lo = float(positions[:, d].min()) - eps
                hi = float(positions[:, d].max()) + eps
                lengths[d] = max(hi - lo, self.cutoff)
                self._lo[d] = lo
        # Finest alias-free subdivision this box affords: periodic dims
        # need >= 2k+1 cells of edge >= cutoff/k for +o/-o offsets of a
        # radius-k stencil to never wrap onto the same neighbor.
        for k in range(self.subdivide, 0, -1):
            ncell = np.maximum(
                1, np.floor(lengths * k / self.cutoff).astype(np.int64)
            )
            if not np.any(self.box.periodic & (ncell < 2 * k + 1)):
                break
        self._ncell[:] = ncell
        self._cell_size[:] = lengths / self._ncell
        self._stencil = self._half_stencil(k)
        # Alias-free stencil needs >= 3 cells along periodic dims.
        self._use_brute = bool(
            np.any(self.box.periodic & (self._ncell < 3))
        )
        if self._use_brute:
            self._positions = positions
            return

        n = len(positions)
        if n != self._n_buf:
            self._rel = np.empty((n, 3), dtype=np.float64)
            self._coords = np.empty((n, 3), dtype=np.int64)
            self._sorted_coords = np.empty((n, 3), dtype=np.int64)
            self._cid = np.empty(n, dtype=np.int64)
            self._nb = np.empty((n, 3), dtype=np.int64)
            self._cols = np.empty((3, n), dtype=np.float64)
            self._n_buf = n
        self._bin_into_buffers(positions)
        ntot = int(np.prod(self._ncell))
        if ntot != self._ntot_buf:
            self._counts = np.empty(ntot, dtype=np.int64)
            self._starts = np.empty(ntot, dtype=np.int64)
            self._ntot_buf = ntot
        self._counts[:] = np.bincount(self._cid, minlength=ntot)
        self._starts[0] = 0
        np.cumsum(self._counts[:-1], out=self._starts[1:])
        self._order = np.argsort(self._cid, kind="stable")
        # Cell-sorted coords: candidate generation walks atoms in bin
        # order, so the starts/counts gathers and the j-range gathers
        # below touch memory near-sequentially.
        np.take(self._coords, self._order, axis=0, out=self._sorted_coords)
        # Cell-sorted flat ids: offsets that cross no periodic dim
        # locate their neighbor cells by pure flat-id arithmetic
        # (see _neighbor_cells), skipping the per-offset coordinate
        # add + re-flatten.
        self._cid_sorted = self._cid[self._order]
        # Cell-sorted coordinate columns: the fused sweep measures pair
        # blocks in these, one contiguous 1-D take per axis.
        np.take(positions.T, self._order, axis=1, out=self._cols)
        self._positions = positions

    def _half_stencil(self, k: int) -> list[tuple[int, int, int]]:
        """Radius-``k`` half stencil, pruned to blocks within reach.

        One offset per unordered offset pair (the positivity rule that
        defines ``_HALF_STENCIL``), dropping offsets whose nearest cell
        corners are already farther apart than the cutoff — at k >= 2
        the corner blocks of the (2k+1)^3 cube can't hold any pair
        within the cutoff sphere.  Pruning depends on the actual cell
        sizes, so the stencil is recomputed each build.
        """
        if k == 1:
            return _HALF_STENCIL
        stencil = []
        for o in itertools.product(range(-k, k + 1), repeat=3):
            dx, dy, dz = o
            if not (dz > 0 or (dz == 0 and dy > 0)
                    or (dz == 0 and dy == 0 and dx > 0)):
                continue
            gap2 = sum(
                (max(0, abs(o[d]) - 1) * self._cell_size[d]) ** 2
                for d in range(3)
            )
            if gap2 <= self.cutoff * self.cutoff:
                stencil.append(o)
        return stencil

    def _bin_into_buffers(self, positions: np.ndarray) -> None:
        """Cell coords + flat cell ids, written into reused scratch."""
        np.subtract(positions, self._lo, out=self._rel)
        np.divide(self._rel, self._cell_size, out=self._rel)
        np.floor(self._rel, out=self._rel)
        np.copyto(self._coords, self._rel, casting="unsafe")
        for d in range(3):
            col = self._coords[:, d]
            if self.box.periodic[d]:
                np.mod(col, self._ncell[d], out=col)
            else:
                np.clip(col, 0, self._ncell[d] - 1, out=col)
        nx, ny, nz = self._ncell
        np.multiply(self._coords[:, 0], ny, out=self._cid)
        self._cid += self._coords[:, 1]
        self._cid *= nz
        self._cid += self._coords[:, 2]

    def _flatten(self, coords: np.ndarray) -> np.ndarray:
        nx, ny, nz = self._ncell
        return (coords[:, 0] * ny + coords[:, 1]) * nz + coords[:, 2]

    def candidate_pairs(
        self, live: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each undirected candidate pair (i, j) exactly once (half list).

        This is the software analogue of the paper's Force Symmetry
        optimization (Sec. VI-A): every pair is visited once, and force
        kernels scatter both halves.  Same-cell pairs are emitted with
        ``i < j``; cross-cell pairs use the 13-offset half stencil (the
        opposite offset is covered from the partner cell).

        Pairs are a superset of interacting pairs and carry no distance
        information.  This is the *raw* enumerator: the hot rebuild
        path uses :meth:`pairs_within`, which walks the same block
        stream but measures each block before mapping it to atom ids;
        ``candidate_pairs`` stays as the oracle that stream is tested
        against and as the probe of the raw stencil volume.  Callers
        that need both directions expand via
        :meth:`directed_candidate_pairs`.

        ``live`` (optional, per-atom bool) prunes pair blocks where
        *neither* side's cell holds a live atom.  Domain shards mark
        their owned atoms live: a ghost-ghost pair can never survive an
        owns-one-endpoint seam rule, so skipping dead-cell blocks drops
        part of the halo-ring enumeration without touching the order of
        the surviving stream (the result is exactly the full stream
        filtered, never reordered).
        """
        if self._use_brute:
            return self._brute_pairs()
        out_i = [_EMPTY]
        out_j = [_EMPTY]
        for src, start, count in self._blocks(live):
            out_i.append(np.repeat(self._order[src], count))
            out_j.append(self._order[concatenated_ranges(start, count)])
        return np.concatenate(out_i), np.concatenate(out_j)

    def pairs_within(
        self, reach: float, live: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """:meth:`candidate_pairs` coarsely cut at ``reach``, streamed.

        Returns ``(i, j, n_raw)``: the sub-stream of
        ``candidate_pairs(live)`` — same pairs, same order — whose
        separation at the build positions may be within ``reach``, and
        the length ``n_raw`` of the raw stream it was cut from.  The cut
        only ever *over*-includes: every pair an exact distance kernel
        would keep at ``r2 <= reach**2`` is present, so running that
        kernel on the result decides the same set in the same order as
        running it on the raw stream, on a fraction of the rows.

        Each stencil block is measured where it is enumerated, in
        cell-sorted coordinate columns (contiguous 1-D ``take`` /
        ``repeat``), and only the survivors are mapped through the sort
        order to atom ids; the raw ``(i, j)`` arrays never exist.

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
        eps = np.finfo(np.float64).eps
        slack = sum(
            4.0 * eps * (np.ptp(self._cols[d]) + self.box.lengths[d])
            for d in range(3) if self.box.periodic[d]
        )
        r2_max = reach * reach * (1.0 + 16.0 * eps) + 8.0 * reach * slack
        n_raw = 0
        out_i = [_EMPTY]
        out_j = [_EMPTY]
        for src, start, count in self._blocks(live):
            n_raw += int(count.sum())
            islot = np.repeat(src, count)
            jslot = concatenated_ranges(start, count)
            r2 = None
            for d in range(3):
                col = self._cols[d]
                dd = col.take(jslot)
                dd -= col.take(islot)
                if self.box.periodic[d]:
                    ld = self.box.lengths[d]
                    dd -= ld * np.floor(dd / ld + 0.5)
                np.multiply(dd, dd, out=dd)
                r2 = dd if r2 is None else np.add(r2, dd, out=r2)
            keep = np.nonzero(r2 <= r2_max)[0]
            out_i.append(self._order.take(islot.take(keep)))
            out_j.append(self._order.take(jslot.take(keep)))
        return np.concatenate(out_i), np.concatenate(out_j), n_raw

    def _brute_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        ii, jj = np.triu_indices(len(self._positions), k=1)
        return ii.astype(np.int64), jj.astype(np.int64)

    def _blocks(self, live: np.ndarray | None):
        """The half-stencil pair stream, one block per stencil offset.

        Yields ``(src, start, count)`` int64 triples over *slots*
        (positions in the cell-sorted order; ``self._order[slot]`` is
        the atom id): slot ``src[k]`` pairs with the ``count[k] > 0``
        consecutive slots from ``start[k]``.  Walking the blocks in
        order, rows in order, partners in order is the one enumeration
        order both :meth:`candidate_pairs` and :meth:`pairs_within`
        emit.

        Atoms are visited in cell-sorted order (stable argsort of the
        flat cell id): neighbors-in-space become neighbors-in-stream,
        so every gather downstream walks memory near-sequentially.
        """
        if self._cid is None:
            raise RuntimeError("pair enumeration before build()")
        live_cells = src_live = None
        if live is not None:
            live_cells = np.zeros(int(np.prod(self._ncell)), dtype=bool)
            live_cells[self._cid[np.asarray(live, dtype=bool)]] = True
            src_live = live_cells[self._cid_sorted]
        # Same-cell pairs, i < j: the sort is stable, so within a cell
        # slot order is id order and each atom pairs with the rest of
        # its cell's slot range after itself.
        slots = np.arange(len(self._order))
        cid = self._cid_sorted
        start = slots + 1
        count = self._starts[cid] + self._counts[cid] - start
        keep = count > 0
        if src_live is not None:
            keep &= src_live
        yield slots[keep], start[keep], count[keep]
        # Cross-cell pairs: each unordered cell pair visited from one
        # side only (>= 2k+1 cells along periodic dims guarantees +o
        # and -o never wrap to the same neighbor, see build()).
        # Per-(axis, shift) validity masks are shared across the
        # offsets of one enumeration (a radius-k stencil reuses each
        # shift mask ~(2k+1)^2 times).
        shift_masks: dict = {}
        for offset in self._stencil:
            src, ncid = self._neighbor_cells(offset, shift_masks)
            count = self._counts.take(ncid)
            keep = count > 0
            if live_cells is not None:
                # Dead-cell pruning: with every atom of both cells
                # dead, no pair of this block can own a live endpoint.
                keep &= src_live.take(src) | live_cells.take(ncid)
            if not keep.all():
                src, ncid, count = src[keep], ncid[keep], count[keep]
            if len(src):
                yield src, self._starts.take(ncid), count

    def _neighbor_cells(
        self, offset: tuple[int, int, int], shift_masks: dict
    ) -> tuple[np.ndarray, np.ndarray]:
        """Slots whose cell has a neighbor cell at the (nonzero)
        ``offset``, and that cell's flat id per such slot."""
        nx, ny, nz = self._ncell
        if not any(
            delta and self.box.periodic[d] for d, delta in enumerate(offset)
        ):
            # No wrap on this offset: the neighbor cell's flat id is
            # the atom's flat id plus a constant, and validity is a
            # one-sided range test per shifted axis — exact integer
            # identities of the generic path below, at a fraction of
            # its per-offset cost.
            valid = None
            for d, delta in enumerate(offset):
                if not delta:
                    continue
                m = shift_masks.get((d, delta))
                if m is None:
                    col = self._sorted_coords[:, d]
                    if delta > 0:
                        m = col < self._ncell[d] - delta
                    else:
                        m = col >= -delta
                    shift_masks[(d, delta)] = m
                valid = m if valid is None else valid & m
            src = np.nonzero(valid)[0]
            ncid = self._cid_sorted.take(src)
            ncid += (offset[0] * ny + offset[1]) * nz + offset[2]
            return src, ncid
        np.add(self._sorted_coords, np.asarray(offset, dtype=np.int64),
               out=self._nb)
        nb = self._nb
        valid = np.ones(len(nb), dtype=bool)
        for d in range(3):
            if self.box.periodic[d]:
                nb[:, d] = np.mod(nb[:, d], self._ncell[d])
            else:
                valid &= (nb[:, d] >= 0) & (nb[:, d] < self._ncell[d])
        src = np.nonzero(valid)[0]
        return src, self._flatten(nb.take(src, axis=0))

    def directed_candidate_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Directed (double-counted) view of :meth:`candidate_pairs`."""
        i, j = self.candidate_pairs()
        return np.concatenate([i, j]), np.concatenate([j, i])
