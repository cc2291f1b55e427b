"""Streaming, offset-fused sweeps for the lockstep machine.

One timestep of the paper (Sec. III-A) exchanges positions once, builds
the neighbor list once, and its second exchange ships only the scalar
``F'``.  The wafer rebuilds that list every step because one core per
atom makes it free; on a host it is the largest cost, and in a solid the
list barely changes.  So the sweeps here keep an *index-only* Verlet
list across steps and redo only the exact geometry:

1. :meth:`StreamingSweeps.density` asks the registry's ``list_valid``
   kernel (:mod:`repro.kernels`) whether the list it holds still covers
   every pair within the cutoff for the positions and occupancy it is
   handed (same occupancy, every tile moved less than ``skin / 2`` since
   the build).  If not, it **builds**: the ``wafer_list`` kernel shifts
   the grid by every neighborhood offset (the candidate exchange),
   coarse-filters at ``cutoff + skin`` and keeps only the flat center /
   source tile of each listed pair.  Either way the ``wafer_density``
   kernel then runs over every listed row — gather ``pos[src] -
   pos[ctr]``, minimum image, keep ``0 < r^2 < rc^2``, ``rho`` and
   ``rho'`` through the table bank, each offset's density added to the
   running accumulator *in exchange order* — and leaves one compact
   :class:`SurvivorRecord`: the survivors' tiles, distance, unit vector
   and ``rho'``.
2. :meth:`StreamingSweeps.force` hands that record to the
   ``wafer_force`` kernel — gather ``F'`` at the recorded tiles (the
   second exchange), evaluate only ``phi``, scatter Eq. 4 per offset —
   and drops it.

Each sweep is one kernel call over all of its offsets, as the paper's
step is one marching multicast over the whole neighborhood.  This module
owns the validity *policy* (when a list exists to test, what the skin
allows) and the record plumbing; the arithmetic of the list and of both
sweeps lives behind the four kernels (whose numpy bodies are the code
that used to live here), so the wafer runs on whichever tier the
registry has active.  The native tier runs the list build and both
sweeps on every usable CPU at the same bits;
:attr:`StreamingSweeps.threads` says how many the last step used.

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

Memory: a build's scratch belongs to the tier and is O(grid) for any
number of offsets — the numpy body reuses one displacement plane and
one mask plane, the native loop walks pair by pair and holds none.  The
record in flight between the two sweeps of one step is
O(interactions) (:meth:`StreamingSweeps.record_bytes`, 0 outside a
step); between steps the list is at most 8 B per listed pair plus the
build-time position and occupancy planes and the candidate-count plane
(:meth:`StreamingSweeps.list_bytes`).  The arithmetic per surviving
candidate and the per-tile accumulation order are exactly those of the
record-per-offset passes this module replaced, so trajectories are
bitwise identical — the equivalence the ``tests/core`` streaming suite
asserts.

The sweeps are self-contained (no reference to the parent machine).
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from repro.kernels import active_backend
from repro.obs import metrics

__all__ = [
    "StreamingSweeps",
    "SurvivorRecord",
    "SweepRecordError",
    "FAR",
]

#: Fabric-plane sentinel coordinate of an empty tile's "atom at
#: infinity".  The sweeps never compare against it: an empty tile is
#: masked by its occupancy bit, the sentinel only has to stay finite
#: when subtracted and squared in the machine dtype.
FAR = 1.0e15


class SweepRecordError(RuntimeError):
    """A force sweep was asked to run without a fresh density sweep."""


class SurvivorRecord(NamedTuple):
    """The step's surviving candidates, offset-major (exchange order).

    Everything the force sweep needs, so it never re-runs the exchange
    or the filter.  Row ``p`` is one (center tile, source tile)
    interaction; ``starts[i]:starts[i + 1]`` are the rows of the
    ``i``-th offset, and within one offset every center (and every
    source) tile appears at most once.
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

    ``listed`` holds every pair within ``cutoff + skin`` at build time
    as ``(starts, ctr, src)`` — int32, offset-major and tile-minor like
    :class:`SurvivorRecord`, no geometry.
    """

    listed: tuple[np.ndarray, np.ndarray, np.ndarray]
    pos: np.ndarray  # build-time position plane (a copy)
    occ: np.ndarray  # build-time occupancy plane (a copy)
    n_cand: np.ndarray  # received candidates per tile, int32

    @property
    def nbytes(self) -> int:
        index = sum(a.nbytes for a in self.listed)
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
        force_symmetry: bool = False,
    ) -> None:
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
        #: the offsets as the list kernel takes them, an int64 (n, 2) array
        self._offset_rows = np.array(self.offsets, dtype=np.int64)
        self.force_symmetry = bool(force_symmetry)
        #: the survivor record between a density sweep and its force sweep
        self._record: SurvivorRecord | None = None
        #: the list carried across steps (None: next density builds)
        self._list: _SkinList | None = None
        #: the most threads a kernel call of the last density sweep and
        #: the force sweep after it ran on (1 on a tier without threads)
        self.threads = 1

    def record_bytes(self) -> int:
        """Bytes of the survivor record awaiting the force sweep (0
        outside a step)."""
        return self._record.nbytes if self._record is not None else 0

    def list_bytes(self) -> int:
        """Bytes retained between steps: the index list plus the
        build-time planes (0 before the first build and at skin 0)."""
        return self._list.nbytes if self._list is not None else 0

    # -- sweep 1: density -------------------------------------------------

    def density(self, pos, occ, typ, rho_bar, n_cand, n_int):
        """Candidate exchange + neighbor filter + density accumulation.

        Builds the list first unless the one held is still valid for
        ``pos``/``occ``.  Accumulates into the caller's ``rho_bar``
        (float64), ``n_cand``/``n_int`` (int64) grids, leaves the
        :class:`SurvivorRecord` for :meth:`force` (replacing an
        unconsumed one) and returns ``(t_build, t_valid, reused)`` — the
        seconds the list build spent (0.0 on a reuse step; the shift and
        the coarse cut are one kernel) and the seconds the validity test
        spent (0.0 when no list was held).  The kernel's gather and
        exact test are fused with the density arithmetic and cannot be
        timed apart.
        """
        kernels = active_backend()
        grouped = self.tables.grouped()
        self._record = None
        held = self._list
        t0 = time.perf_counter()
        reused = held is not None and kernels.list_valid(
            pos, occ, held.pos, held.occ, (0.5 * self.skin) ** 2
        )
        t_valid = time.perf_counter() - t0 if held is not None else 0.0
        self.threads = 1
        t_build = 0.0
        if reused:
            listed, cand = held.listed, held.n_cand
        else:
            self._list = None  # a build that raises leaves no list
            cand = np.zeros((self.nx, self.ny), dtype=np.int32)
            t0 = time.perf_counter()
            listed = kernels.wafer_list(
                pos, occ, self._offset_rows, self.lengths, self.periodic,
                self._reach2, cand,
            )
            t_build = time.perf_counter() - t0
            self._count_threads(kernels)
        self._record = SurvivorRecord(*kernels.wafer_density(
            _flat(pos, 3), listed, self.lengths, self.periodic, self.cutoff,
            _flat(typ), grouped.rho.bank(), grouped.phi_index,
            self.force_symmetry, _flat(rho_bar), _flat(n_int),
        ))
        self._count_threads(kernels)
        metrics().counter("kernels.wafer_density.calls").inc()
        n_cand += cand
        if not reused and self.skin > 0.0:
            self._list = _SkinList(listed, pos.copy(), occ.copy(), cand)
        return t_build, t_valid, reused

    # -- sweep 2: forces --------------------------------------------------

    def force(self, f_der, force, e_pair=None):
        """F' exchange + Eq. 4 force (and pair-energy) accumulation.

        Consumes the record the last :meth:`density` left and
        accumulates into the caller's float64 ``force`` grid, and into
        ``e_pair`` when one is passed.  Returns the number of
        interactions scattered (the ``F'`` exchange is the kernel's own
        gather at the recorded tiles).  Raises :class:`SweepRecordError`
        when no fresh record exists: positions may have moved since
        whatever density sweep came before.
        """
        record, self._record = self._record, None
        if record is None:
            raise SweepRecordError(
                "force sweep without a fresh density sweep: the survivor "
                "record is consumed by the first force sweep after each "
                "density sweep"
            )
        kernels = active_backend()
        kernels.wafer_force(
            record, _flat(f_der), self.tables.grouped().phi.bank(),
            self.force_symmetry, _flat(force, 3),
            _flat(e_pair) if e_pair is not None else None,
        )
        self._count_threads(kernels)
        metrics().counter("kernels.wafer_force.calls").inc()
        return len(record.r)

    def _count_threads(self, kernels) -> None:
        """Fold in the threads the tier's last kernel call ran on."""
        self.threads = max(self.threads, getattr(kernels, "threads", 1))
