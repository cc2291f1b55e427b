"""Streaming, offset-fused sweeps for the lockstep machine.

One timestep of the paper (Sec. III-A) exchanges positions once, builds
the neighbor list once, and its second exchange ships only the scalar
``F'``.  The wafer rebuilds that list every step because one core per
atom makes it free; on a host it is the largest cost, and in a solid the
list barely changes.  So the sweeps here keep an *index-only* Verlet
list across steps and redo only the exact geometry:

1. :meth:`StreamingSweeps.density` decides, from the positions and
   occupancy it is handed, whether the list it holds still covers every
   pair within the cutoff (same occupancy, every tile moved less than
   ``skin / 2`` since the build).  If not, it **builds**: each *chunk*
   of neighborhood offsets is shifted into a reused stack (the
   candidate exchange) and coarse-filtered at ``cutoff + skin``, and
   only the flat center / source tile of each listed pair is kept.
   Either way the registry's ``density_chunk`` kernel
   (:mod:`repro.kernels`) then runs over the listed rows of each chunk —
   gather ``pos[src] - pos[ctr]``, minimum image, keep
   ``0 < r^2 < rc^2``, ``rho`` and ``rho'`` through the table bank, each
   offset's density added to the running accumulator *in exchange
   order* — and leaves one compact :class:`SurvivorRecord` per chunk:
   the survivors' tiles, distance, unit vector and ``rho'``.
2. :meth:`StreamingSweeps.force` hands those records, in the same
   order, to the ``force_chunk`` kernel — gather ``F'`` at the recorded
   tiles (the second exchange), evaluate only ``phi``, scatter Eq. 4
   per offset — and drops each as it is used.

This module owns list validity, the list build and the record plumbing;
the arithmetic of both sweeps lives behind the two kernels (whose numpy
bodies are the code that used to live here), so the wafer runs on
whichever tier the registry has active.

Validity is decided from values alone, so nothing has to tell the
sweeps about an atom swap, a restored checkpoint or a caller writing
into the position grid: any of them either leaves every tile within
``skin / 2`` of its build-time position (each position moved less than
``skin / 2``, so ``r_now < rc`` implies ``r_build < rc + skin``,
whichever atom sits on the tile) or forces a build.  ``skin = 0`` builds
every step — the paper's policy — through the same code.  Survivors are
the listed rows that pass the exact test, in list order (offset-major,
tile-minor), so the survivor set, its order and every accumulation are
the same on a build step and on a reuse step: trajectories do not
depend on the skin.

Memory: O(chunk x nx x ny) for the exchange stacks (``chunk`` is the
``offset_chunk`` RunSpec knob), used on build steps only; O(interactions)
for the records in flight between the two sweeps of one step
(:meth:`StreamingSweeps.record_bytes`, 0 outside a step); and, between
steps, the list — at most 8 B per listed pair plus the build-time
position and occupancy planes and the candidate-count plane
(:meth:`StreamingSweeps.list_bytes`).  The arithmetic per surviving
candidate and the per-tile accumulation order are exactly those of the
record-per-offset passes this module replaced, so trajectories are
bitwise identical — the equivalence the ``tests/core`` streaming suite
asserts.

The sweeps are self-contained (no reference to the parent machine).
"""

from __future__ import annotations

import time
from collections import deque
from typing import NamedTuple

import numpy as np

from repro.core.exchange import shift_rects
from repro.kernels import active_backend
from repro.kernels.numpy_backend import minimum_image
from repro.obs import metrics

__all__ = [
    "StreamingSweeps",
    "SurvivorRecord",
    "SweepRecordError",
    "auto_chunk",
    "FAR",
]

#: Fabric-plane sentinel coordinate of an empty tile's "atom at
#: infinity".  The sweeps never compare against it: an empty tile is
#: masked by its occupancy bit, the sentinel only has to stay finite
#: when subtracted and squared in the machine dtype.
FAR = 1.0e15

#: Element budget for the auto-sized chunk: chunk * nx * ny stays at or
#: under this many stacked tiles (~96 MB of float64 displacement stack),
#: capped so small grids do not build absurdly deep stacks.
_AUTO_CHUNK_ELEMENTS = 4_000_000
_AUTO_CHUNK_MAX = 16


def auto_chunk(nx: int, ny: int) -> int:
    """Default offset-chunk size for an ``nx x ny`` grid.

    Sized so the stacked exchange buffers stay around 100 MB however
    large the grid is, while small grids still batch enough offsets to
    amortize per-chunk dispatch.
    """
    return max(1, min(_AUTO_CHUNK_MAX, _AUTO_CHUNK_ELEMENTS // (nx * ny)))


class SweepRecordError(RuntimeError):
    """A force sweep was asked to run without a fresh density sweep."""


class SurvivorRecord(NamedTuple):
    """One chunk's surviving candidates, offset-major (exchange order).

    Everything the force sweep needs about the chunk, so it never
    re-runs the exchange or the filter.  Row ``p`` is one (center tile,
    source tile) interaction; ``starts[i]:starts[i + 1]`` are the rows
    of the chunk's ``i``-th offset, and within one offset every center
    (and every source) tile appears at most once.
    """

    starts: np.ndarray
    ctr: np.ndarray  # flat center tile, int32
    src: np.ndarray  # flat source tile (the partner), int32
    r: np.ndarray  # distance, machine dtype
    unit: np.ndarray  # (n, 3) unit vector center -> source, machine dtype
    rho_d_src: np.ndarray  # rho' through the source's type
    rho_d_ctr: np.ndarray  # rho' through the center's type
    phi_member: np.ndarray | int  # phi table per row (0 = single type)

    @property
    def nbytes(self) -> int:
        """Bytes held, counting a shared single-type ``rho'`` once."""
        arrays = [self.starts, self.ctr, self.src, self.r, self.unit,
                  self.rho_d_src]
        if self.rho_d_ctr is not self.rho_d_src:
            arrays += [self.rho_d_ctr, self.phi_member]
        return sum(a.nbytes for a in arrays)


class _SkinList(NamedTuple):
    """The index-only Verlet list and what its validity is judged by.

    ``chunks[k]`` lists chunk ``k``'s pairs within ``cutoff + skin`` at
    build time as ``(starts, ctr, src)`` — int32, offset-major and
    tile-minor like :class:`SurvivorRecord`, no geometry.
    """

    chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    pos: np.ndarray  # build-time position plane (a copy)
    occ: np.ndarray  # build-time occupancy plane (a copy)
    n_cand: np.ndarray  # received candidates per tile, int32

    @property
    def nbytes(self) -> int:
        index = sum(a.nbytes for chunk in self.chunks for a in chunk)
        return index + self.pos.nbytes + self.occ.nbytes + self.n_cand.nbytes


def _flat(grid: np.ndarray, *tail: int) -> np.ndarray:
    """A flat-tile *view* of a caller's (nx, ny, ...) accumulator."""
    if not grid.flags.c_contiguous:
        raise ValueError("sweep accumulators must be C-contiguous")
    return grid.reshape(-1, *tail)


class StreamingSweeps:
    """Listed density sweep + record-driven force sweep over a fixed
    offset list.

    Parameters
    ----------
    nx, ny:
        Core-grid shape.
    dtype:
        Per-tile position dtype (the machine's storage dtype).
    lengths, periodic:
        Box edge lengths and periodic flags (minimum-image wrap).
    cutoff:
        Interaction cutoff (A).
    skin:
        Verlet skin (A): the list is built at ``cutoff + skin`` and
        reused while every tile stays within ``skin / 2`` of its
        build-time position.  0 builds every step and retains nothing.
    tables:
        :class:`~repro.potentials.eam.EAMTables`; batched evaluation
        uses its cached :meth:`~repro.potentials.eam.EAMTables.grouped`
        banks.
    offsets:
        The ``(dx, dy)`` neighborhood offsets this sweeper owns, in
        exchange order (already cropped to the half neighborhood when
        force symmetry is on).
    chunk:
        Offsets stacked per batch (0 = :func:`auto_chunk`).
    force_symmetry:
        Paper Sec. VI-A half-neighborhood mode: every pair term is
        computed once and the partner's share is added at the source
        tile (the reverse reduction).
    """

    def __init__(
        self,
        *,
        nx: int,
        ny: int,
        dtype,
        lengths,
        periodic,
        cutoff: float,
        skin: float,
        tables,
        offsets: list[tuple[int, int]],
        chunk: int = 0,
        force_symmetry: bool = False,
    ) -> None:
        if chunk < 0:
            raise ValueError(f"offset chunk must be >= 0, got {chunk}")
        if not skin >= 0:
            raise ValueError(f"skin must be >= 0, got {skin}")
        self.nx = int(nx)
        self.ny = int(ny)
        self.dtype = np.dtype(dtype)
        self.lengths = tuple(float(v) for v in lengths)
        self.periodic = tuple(bool(v) for v in periodic)
        self.cutoff = float(cutoff)
        self.skin = float(skin)
        # The coarse cut and the exact cut are separate reductions; the
        # few-ulp pad keeps the list a superset of the exact survivors
        # even at skin 0, whatever order either one sums in.
        self._reach2 = (self.cutoff + self.skin) ** 2 * (
            1.0 + 8.0 * float(np.finfo(self.dtype).eps)
        )
        self.tables = tables
        self.offsets = [(int(dx), int(dy)) for dx, dy in offsets]
        self.force_symmetry = bool(force_symmetry)
        self.chunk = int(chunk) if chunk else auto_chunk(self.nx, self.ny)
        depth = max(1, min(self.chunk, len(self.offsets)))
        # Chunk-stacked exchange buffers, reused by every chunk of a
        # list build — the only allocations proportional to chunk x
        # grid.  The displacement stack starts zeroed and is only ever
        # written with finite differences, so the tiles an offset does
        # not reach hold stale finite values (masked, never read).
        self._d = np.zeros((depth, self.nx, self.ny, 3), dtype=self.dtype)
        self._within = np.empty((depth, self.nx, self.ny), dtype=bool)
        # The coarse cut only marks the stack, so its scratch is one
        # plane, not a stack: what the list costs between steps is paid
        # for here.
        self._r2 = np.empty((self.nx, self.ny), dtype=self.dtype)
        self._cmp = np.empty((self.nx, self.ny), dtype=bool)
        # per chunk: each offset's shift rectangles and flat-tile shift
        self._chunks: list[tuple[list, np.ndarray]] = []
        for start in range(0, len(self.offsets), depth):
            part = self.offsets[start:start + depth]
            rects = [shift_rects(self.nx, self.ny, dx, dy) for dx, dy in part]
            shift = np.array([dx * self.ny + dy for dx, dy in part])
            self._chunks.append((rects, shift))
        #: survivor records between a density sweep and its force sweep
        self._records: deque[SurvivorRecord] | None = None
        #: the list carried across steps (None: next density builds)
        self._list: _SkinList | None = None

    def buffer_bytes(self) -> int:
        """Bytes held by the reusable build buffers (two chunk stacks,
        two planes)."""
        return (self._d.nbytes + self._r2.nbytes
                + self._within.nbytes + self._cmp.nbytes)

    def record_bytes(self) -> int:
        """Bytes of survivor records awaiting the force sweep (0
        outside a step)."""
        return sum(rec.nbytes for rec in self._records or ())

    def list_bytes(self) -> int:
        """Bytes retained between steps: the index list plus the
        build-time planes (0 before the first build and at skin 0)."""
        return self._list.nbytes if self._list is not None else 0

    # -- the list: validity, build, exact geometry ------------------------

    def _list_valid(self, pos, occ) -> bool:
        """Does the retained list still cover every pair within the
        cutoff?  Judged from the arrays alone: same occupancy, every
        tile within ``skin / 2`` of its build-time position (empty
        tiles hold the same sentinel on both planes)."""
        held = self._list
        if held is None or not np.array_equal(occ, held.occ):
            return False
        moved = pos - held.pos
        moved2 = np.einsum("xyk,xyk->xy", moved, moved)
        # a NaN displacement compares False: build, and let the exact
        # test drop the atom as it always has
        return bool(moved2.max() < (0.5 * self.skin) ** 2)

    def _list_chunk(self, rects, shift, pos, occ, n_cand):
        """Shift one chunk of offsets and list its pairs within
        ``cutoff + skin``.

        Returns the chunk's ``(starts, ctr, src)`` index rows in
        (offset-major) exchange order and the exchange / neighbor split
        of the elapsed time; adds the chunk's received candidates —
        occupied tiles whose neighbor at the offset exists on the
        fabric, a rectangle per offset — to ``n_cand``.
        """
        c = len(rects)
        n_tiles = self.nx * self.ny
        d = self._d[:c]
        within = self._within[:c]
        t0 = time.perf_counter()
        within[...] = False
        for i, rect in enumerate(rects):
            if rect is None:
                continue
            dst, src = rect
            np.subtract(pos[src], pos[dst], out=d[i][dst])
            np.logical_and(occ[dst], occ[src], out=within[i][dst])
            n_cand[dst] += occ[dst]
        t1 = time.perf_counter()
        minimum_image(d.reshape(-1, 3), self.lengths, self.periodic)
        for i, rect in enumerate(rects):
            if rect is None:
                continue
            np.einsum("xyk,xyk->xy", d[i], d[i], out=self._r2)
            np.less(self._r2, self._reach2, out=self._cmp)
            within[i] &= self._cmp
        hit = np.flatnonzero(within)
        starts = np.searchsorted(hit, np.arange(c + 1) * n_tiles)
        which = np.repeat(np.arange(c), np.diff(starts))
        ctr = (hit - which * n_tiles).astype(np.int32)
        src = ctr + shift[which].astype(np.int32)
        t2 = time.perf_counter()
        return (starts.astype(np.int32), ctr, src), t1 - t0, t2 - t1

    # -- sweep 1: density -------------------------------------------------

    def density(self, pos, occ, typ, rho_bar, n_cand, n_int):
        """Candidate exchange + neighbor filter + density accumulation.

        Builds the list first unless the one held is still valid for
        ``pos``/``occ``.  Accumulates into the caller's ``rho_bar``
        (float64), ``n_cand``/``n_int`` (int64) grids, leaves one
        :class:`SurvivorRecord` per non-empty chunk for :meth:`force`
        (replacing any unconsumed ones) and returns
        ``(t_exchange, t_neighbor, reused)`` — the seconds a list build
        spent shifting and coarse-filtering (0.0 on a reuse step: the
        kernel's gather and exact test are fused with the density
        arithmetic and cannot be timed apart).
        """
        grouped = self.tables.grouped()
        kernel = active_backend().density_chunk
        calls = metrics().counter("kernels.density_chunk.calls")
        pos_rows = _flat(pos, 3)
        rho_flat = _flat(rho_bar)
        int_flat = _flat(n_int)
        typ_flat = _flat(typ)
        records: deque[SurvivorRecord] = deque()
        self._records = records
        reused = self._list_valid(pos, occ)
        if reused:
            chunks, cand = self._list.chunks, self._list.n_cand
        else:
            self._list = None  # a build that raises leaves no list
            chunks, cand = [], np.zeros((self.nx, self.ny), dtype=np.int32)
        t_ex = t_nb = 0.0
        for k, (rects, shift) in enumerate(self._chunks):
            if not reused:
                listed, dt_ex, dt_nb = self._list_chunk(
                    rects, shift, pos, occ, cand
                )
                chunks.append(listed)
                t_ex += dt_ex
                t_nb += dt_nb
            record = SurvivorRecord(*kernel(
                pos_rows, chunks[k], self.lengths, self.periodic,
                self.cutoff, typ_flat, grouped.rho.bank(),
                grouped.phi_index, self.force_symmetry, rho_flat, int_flat,
            ))
            calls.inc()
            if len(record.r):
                records.append(record)
        n_cand += cand
        if not reused and self.skin > 0.0:
            self._list = _SkinList(chunks, pos.copy(), occ.copy(), cand)
        return t_ex, t_nb, reused

    # -- sweep 2: forces --------------------------------------------------

    def force(self, f_der, force, e_pair=None):
        """F' exchange + Eq. 4 force (and pair-energy) accumulation.

        Consumes the records the last :meth:`density` left — each is
        dropped as soon as it is scattered — and accumulates into the
        caller's float64 ``force`` grid, and into ``e_pair`` when one
        is passed.  Returns the number of interactions scattered (the
        ``F'`` exchange is the kernel's own gather at the recorded
        tiles).  Raises :class:`SweepRecordError` when no fresh records
        exist: positions may have moved since whatever density sweep
        came before.
        """
        records, self._records = self._records, None
        if records is None:
            raise SweepRecordError(
                "force sweep without a fresh density sweep: survivor "
                "records are consumed by the first force sweep after "
                "each density sweep"
            )
        kernel = active_backend().force_chunk
        calls = metrics().counter("kernels.force_chunk.calls")
        phi_bank = self.tables.grouped().phi.bank()
        fder_flat = _flat(f_der)
        force_rows = _flat(force, 3)
        e_flat = _flat(e_pair) if e_pair is not None else None
        n_pts = 0
        while records:
            record = records.popleft()
            n_pts += len(record.r)
            kernel(record, fder_flat, phi_bank, self.force_symmetry,
                   force_rows, e_flat)
            calls.inc()
        return n_pts
