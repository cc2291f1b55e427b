"""Verlet neighbor lists with a skin distance — the one owner on the host.

The candidate set is built once from a cell list at ``cutoff + skin``
and reused until any atom has moved more than ``skin / 2`` since the
build — the standard LAMMPS policy the paper contrasts against (the
WSE implementation rebuilds every step; neighbor-list *reuse* is one of
its projected future optimizations, Table V row "Neighbor list").

Three pieces, shared by the serial loop and every shard of
:mod:`repro.parallel`:

* :func:`build_candidates` — cell sweep, exact inclusive prefilter at
  the reach;
* :class:`Candidates` — the built index pairs with their build-time
  separations, queried per step by the exact strict filter (the only
  place a pair is admitted) under two bit-neutral cross-step cuts;
* :func:`skin_trigger` — the skin/2 rebuild decision and the
  displacement bound that feeds those cuts.

:class:`NeighborList` is the trigger plus one :class:`Candidates`; a
shard rank is a plain ``Simulation`` on its tile's rows and holds one
the same way, and measures the displacement of the rows it owns, which
its pipeline max-reduces and puts to the same trigger.

Candidates and the resulting :class:`~repro.potentials.base.PairTable`
are *half* lists — each undirected pair stored once, the software
analogue of the paper's Force Symmetry (Sec. VI-A).  Callers that need
the double-counted view expand with ``PairTable.directed()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.kernels import active_backend, numpy_backend
from repro.md.boundary import Box
from repro.md.cell_list import CellList
from repro.potentials.base import PairTable

__all__ = [
    "Candidates",
    "NeighborList",
    "build_candidates",
    "displacement2",
    "displacement_trigger",
    "skin_trigger",
]


def skin_trigger(
    positions: np.ndarray, ref: np.ndarray | None, skin: float
) -> tuple[str | None, float]:
    """Why a list built at ``ref`` must be rebuilt, and how far atoms moved.

    Returns ``(reason, d_max)``.  Reasons: ``"first"`` (no build yet),
    ``"skin_zero"`` (skin 0 forces a rebuild every query), ``"size"``
    (atom count changed — the cached candidate indices would be stale
    or out of range), ``"displacement"`` (some atom moved more than
    skin/2), or ``None`` to reuse; then ``d_max`` is the largest
    displacement of any atom since the build (0.0 otherwise), the bound
    :meth:`Candidates.pairs` takes.  The last two steps are
    :func:`displacement2` and :func:`displacement_trigger`, which the
    sharded pipeline runs apart — each rank the first, maximised over
    the rows it owns, the parent the second on the maximum of the
    maxima — so the two triggers agree bit for bit.
    """
    if ref is None:
        return "first", 0.0
    if skin == 0.0:
        return "skin_zero", 0.0
    if len(positions) != len(ref):
        return "size", 0.0
    d2 = displacement2(positions, ref)
    return displacement_trigger(float(np.max(d2, initial=0.0)), skin)


def displacement2(positions: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Squared displacement of every row since ``ref`` (physical
    distance: integration never wraps positions).  ``np.max`` propagates
    NaN, so a non-finite coordinate survives into a maximum of these —
    and a maximum of such maxima — at no extra pass."""
    delta = positions - ref
    return np.einsum("ij,ij->i", delta, delta)


def displacement_trigger(
    max_d2: float, skin: float
) -> tuple[str | None, float]:
    """The skin/2 decision on a largest squared displacement:
    ``("displacement", 0.0)`` or ``(None, d_max)``.  Raises
    :class:`FloatingPointError` on a non-finite value: left unchecked
    ``NaN > bound`` is False — the list would be reused and the strict
    filter would silently drop the atom's pairs."""
    if not math.isfinite(max_d2):
        raise FloatingPointError(
            "non-finite positions in neighbor-list displacement check"
        )
    if max_d2 > (skin / 2.0) ** 2:
        return "displacement", 0.0
    return None, math.sqrt(max_d2)


@dataclass
class Candidates:
    """A built Verlet candidate set: half index pairs ``(i, j)`` with
    their separations ``r_build`` at the build positions.

    Valid until the next rebuild; :meth:`pairs` distance-filters to the
    true cutoff at the *current* positions.
    """

    i: np.ndarray
    j: np.ndarray
    r_build: np.ndarray
    #: (raw, coarse_kept, exact_kept) counts of the build that made this
    #: set, widest first: raw is what the sweep enumerated;
    #: coarse_kept survived the sweep's in-block cut; exact_kept the
    #: exact kernel.  All three are exact, seed-repeatable counts: a
    #: loosened coarse bound shows as ``coarse_kept - exact_kept``
    #: growing, not as noise.  The reference engine sums them over its
    #: builds into :class:`~repro.md.simulation.SimStats`.
    funnel: tuple[int, int, int] = (0, 0, 0)
    _r_build_max: float | None = field(default=None, init=False, repr=False)
    #: the pre-mask's state: the smallest displacement bound at which the
    #: cut failed to pay (it fails at every larger one)
    premask_dead_bound: float = field(default=np.inf, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.i)

    def r_build_max(self) -> float:
        """Largest build-time candidate separation (cached; 0.0 if none).

        The one scalar both cross-step cuts of :meth:`pairs` pivot on,
        computed once per rebuild window.
        """
        if self._r_build_max is None:
            self._r_build_max = (
                float(self.r_build.max()) if len(self.r_build) else 0.0
            )
        return self._r_build_max

    def pairs(
        self,
        positions: np.ndarray,
        box: Box,
        cutoff: float,
        max_disp: float | None = None,
    ) -> PairTable:
        """Half interacting pairs at the current positions.

        The strict ``r2 < cutoff**2`` kernel, minimum image applied
        along the periodic dimensions inside it, decides every emitted
        pair.  ``max_disp`` is an upper bound on the displacement of
        any atom since the build (any valid bound works —
        :func:`skin_trigger` has the global one in hand).  When known
        it powers the all-inside and pre-mask cuts of
        :func:`~repro.kernels.numpy_backend.held_table`, which skip
        work and never change a bit: the emitted pair list is bit for
        bit the plain strict-filtered one.
        """
        (i, j, rij, r), self.premask_dead_bound = numpy_backend.held_table(
            active_backend().neighbor_prefilter, positions, self.i, self.j,
            self.r_build, self.r_build_max(), box.lengths, box.periodic,
            cutoff, max_disp, self.premask_dead_bound,
        )
        return PairTable(i=i, j=j, rij=rij, r=r, half=True)


def build_candidates(
    cells: CellList, positions: np.ndarray
) -> tuple[Candidates, np.ndarray]:
    """Build the candidate set of ``positions`` at the reach ``cells``
    bins for (``cells.cutoff``, in ``cells.box``).

    One streaming sweep: the cell list enumerates its half-stencil
    blocks, coarsely cuts each at the reach where it is enumerated
    (:meth:`CellList.pairs_within` — over-inclusive by a rounding-error
    margin, never under), and the exact ``neighbor_prefilter`` kernel
    then makes every keep/drop decision on the coarse survivors.  The
    candidate set and its order are exactly those of the kernel run on
    the raw stencil stream, at ~6.5x fewer rows on ref-Ta.

    The reach is ``cutoff + skin``: the skin/2 rebuild policy
    guarantees no dropped pair can re-enter the cutoff before the next
    rebuild (each atom moves < skin/2, so a pair's distance shrinks by
    < skin).

    Returns the candidates and the kernel's ``rij`` *at* ``positions``
    (with ``Candidates.r_build`` it lets a query at those same
    positions skip measuring them again; the set itself keeps no
    vectors).
    """
    if len(positions) == 0:
        ids = np.empty(0, dtype=np.int64)
        empty = Candidates(ids, ids, np.empty(0, dtype=np.float64))
        return empty, np.empty((0, 3), dtype=np.float64)
    box, reach = cells.box, cells.cutoff
    cells.build(positions)
    ci, cj, n_raw = cells.pairs_within(reach)
    i, j, rij, r = active_backend().neighbor_prefilter(
        positions, ci, cj, box.lengths, box.periodic, reach, inclusive=True
    )
    return Candidates(i, j, r, funnel=(n_raw, len(ci), len(i))), rij


class NeighborList:
    """Reusable half candidate pair list: :func:`skin_trigger` plus one
    :class:`Candidates`.

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
        self._cells = CellList(box, self.cutoff + self.skin)
        self.candidates: Candidates | None = None
        self._ref_positions: np.ndarray | None = None
        self._built_n_atoms = -1
        self.n_builds = 0
        self.last_pair_count = 0
        self._funnel: tuple[int, int, int] | None = None  # while handed over
        self._scratch: dict = {}  # what md_step keeps between calls
        self._tier = None  # the kernel tier of the last md_step call

    def rebuild_reason(self, positions: np.ndarray) -> str | None:
        """Why the candidate set must be rebuilt, or ``None`` to reuse
        (the reasons of :func:`skin_trigger`)."""
        return skin_trigger(positions, self._ref_positions, self.skin)[0]

    def rebuild(self, positions: np.ndarray) -> np.ndarray:
        """Rebuild the candidate set from scratch (:func:`build_candidates`).

        Returns the kernel's ``rij`` of the candidates *at* ``positions``
        so a query at those same positions need not measure them again.
        """
        self.candidates, rij = build_candidates(self._cells, positions)
        self._ref_positions = np.array(positions, copy=True)
        self._built_n_atoms = len(self._ref_positions)
        self.n_builds += 1
        return rij

    def pairs(self, positions: np.ndarray) -> PairTable:
        """Half interacting pairs at the *current* positions.

        Rebuilds the candidate set first if the skin criterion demands
        it, then distance-filters candidates to the true cutoff.  Each
        undirected pair appears once (``half=True``); kernels scatter
        both halves, so no physics is lost.
        """
        positions = np.asarray(positions, dtype=np.float64)
        reason, d_max = skin_trigger(positions, self._ref_positions, self.skin)
        if reason is None and self._built_n_atoms != len(positions):
            # Belt-and-braces: never index stale candidates into a
            # differently-sized position array, even if the reference
            # positions were tampered with between queries.
            reason = "stale_guard"
        if reason is not None:
            table = self.build(positions)
        else:
            table = self.candidates.pairs(
                positions, self.box, self.cutoff, max_disp=d_max
            )
        self.last_pair_count = table.n_pairs
        return table

    def build(self, positions: np.ndarray) -> PairTable:
        """:meth:`rebuild`, then the half interacting pairs at the very
        positions it was built at."""
        rij = self.rebuild(positions)
        # The build just measured every candidate at these very
        # positions; only here — never across calls — is its geometry
        # the query's geometry.
        table = self._cut_built(rij)
        if table is None:
            table = self.candidates.pairs(positions, self.box, self.cutoff)
        return table

    @property
    def ref_positions(self) -> np.ndarray | None:
        """The positions the held list was built at (None: no build)."""
        return self._ref_positions

    def hand_over(self, positions: np.ndarray) -> tuple[list, float]:
        """The held list as the registry's ``md_step`` takes it, and the
        pre-mask's dead bound: ``[ref, i, j, r_build, r_build_max]``, or
        ``[]`` when none is held for as many atoms as ``positions``.

        The list leaves this object until :meth:`take_over`: the call
        owns it, and ends it when it builds the next (a call that raises
        leaves no list, and the next query builds one).
        """
        cand, held, dead = self.candidates, [], np.inf
        if cand is not None and self._built_n_atoms == len(positions) == len(
                self._ref_positions):
            held = [self._ref_positions, cand.i, cand.j, cand.r_build,
                    cand.r_build_max()]
            dead = cand.premask_dead_bound
        self._funnel = None if cand is None else cand.funnel
        self.candidates, self._ref_positions = None, None
        self._built_n_atoms = -1
        return held, dead

    def md_scratch(self, kernels) -> dict:
        """The scratch the kernel tier ``kernels``' ``md_step`` keeps
        between calls on this list, in its slot ``scratch[kernels.name]``
        (a change of tier drops the other tiers' slots).  The numpy
        body's slot is this list's cell-list buffers
        (:meth:`CellList.lend_buffers`), so a build has one set of them
        whichever path makes it."""
        if kernels is not self._tier:
            self._scratch.clear()
            self._tier = kernels
        self._scratch[numpy_backend.name] = self._cells.lend_buffers()
        return self._scratch

    def take_over(self, held: list, step) -> None:
        """Hold the list an ``md_step`` call returned in ``held`` (its
        :class:`~repro.kernels.numpy_backend.MdStep` is ``step``),
        counting the call's builds and its last step's pairs.  Its
        arrays are this object's on every tier: no later call writes
        them, so :attr:`candidates` and :attr:`ref_positions` kept
        across a run stay what they were."""
        builds = step.builds
        self.n_builds += len(builds)
        if step.steps:
            self.last_pair_count = int(step.pairs[-1])
        if not held:
            return
        ref, i, j, r_build, r_build_max = held
        funnel = (tuple(int(k) for k in builds[-1, 1:]) if len(builds)
                  else self._funnel)
        cand = Candidates(i, j, r_build, funnel=funnel)
        cand._r_build_max = r_build_max
        cand.premask_dead_bound = step.dead_bound
        self.candidates, self._ref_positions = cand, ref
        self._built_n_atoms = len(ref)

    def _cut_built(self, rij: np.ndarray) -> PairTable | None:
        """The strict table from build-time geometry
        (:func:`~repro.kernels.numpy_backend.cut_built`)."""
        cand = self.candidates
        table = numpy_backend.cut_built(cand.i, cand.j, rij, cand.r_build,
                                        self.cutoff)
        if table is None:
            return None
        i, j, rij, r = table
        return PairTable(i=i, j=j, rij=rij, r=r, half=True)

    @property
    def n_candidates(self) -> int:
        """Size of the current candidate set (half pairs)."""
        return 0 if self.candidates is None else len(self.candidates)
