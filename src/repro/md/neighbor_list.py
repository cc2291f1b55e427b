"""Verlet neighbor lists with a skin distance — the one owner on the host.

The candidate set is built once from a cell list at ``cutoff + skin``
and reused until any atom has moved more than ``skin / 2`` since the
build — the standard LAMMPS policy the paper contrasts against (the
WSE implementation rebuilds every step; neighbor-list *reuse* is one of
its projected future optimizations, Table V row "Neighbor list").

Three pieces, shared by the serial loop and every shard of
:mod:`repro.parallel`:

* :func:`build_candidates` — cell sweep, optional owned-subset pruning
  and seam rule, exact inclusive prefilter at the reach;
* :class:`Candidates` — the built index pairs with their build-time
  separations, queried per step by the exact strict filter (the only
  place a pair is admitted) under two bit-neutral cross-step cuts;
* :func:`skin_trigger` — the skin/2 rebuild decision and the
  displacement bound that feeds those cuts.

:class:`NeighborList` is the trigger plus one :class:`Candidates`; a
shard worker holds two (interior / boundary) and measures the
displacement of the rows it owns, which its pipeline max-reduces and
puts to the same trigger.

Candidates and the resulting :class:`~repro.potentials.base.PairTable`
are *half* lists — each undirected pair stored once, the software
analogue of the paper's Force Symmetry (Sec. VI-A).  Callers that need
the double-counted view expand with ``PairTable.directed()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.kernels import active_backend
from repro.md.boundary import Box
from repro.md.cell_list import CellList
from repro.obs import metrics
from repro.potentials.base import PairTable

__all__ = [
    "Candidates",
    "NeighborList",
    "build_candidates",
    "count_funnel",
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
    #: set (see :func:`count_funnel`): raw is what the sweep enumerated,
    #: a tile's halo ring included; coarse and exact are counted after
    #: the seam rule, so exact sums over tiles to the serial build's
    #: (and coarse does wherever the rounding sliver past the reach is
    #: empty).
    funnel: tuple[int, int, int] = (0, 0, 0)
    _r_build_max: float | None = field(default=None, init=False, repr=False)
    _premask_dead_bound: float = field(default=np.inf, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.i)

    def r_build_max(self) -> float:
        """Largest build-time candidate separation (cached; 0.0 if none).

        The one scalar both cross-step bounds below pivot on, computed
        once per rebuild window.
        """
        if self._r_build_max is None:
            self._r_build_max = (
                float(self.r_build.max()) if len(self.r_build) else 0.0
            )
        return self._r_build_max

    def premask_can_cut(self, cutoff: float) -> bool:
        """Whether the Verlet pre-mask can ever exclude a candidate.

        The pre-mask bound ``cutoff + 2 * max_disp`` is tightest at
        zero displacement, so when no candidate sat beyond ``cutoff``
        at build time — a packed crystal whose populated shells all
        fall inside the cutoff — the mask provably keeps every
        candidate for the entire reuse window.  The probe is then
        skipped (a pure wall-clock cut: the mask is a superset filter,
        so skipping it emits identical bits).
        """
        # mirror the pairs() mask epsilon: a candidate at
        # cutoff + 1e-9 is kept even at zero displacement
        return self.r_build_max() > cutoff + 1e-9

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
        it powers two provably bit-neutral cross-step cuts:

        * **all-inside**: when ``max(r_build) + 2 * max_disp < cutoff``
          no candidate can have crossed the cutoff outward, so the
          strict filter's mask is all-True and the backend skips the
          predicate and its four compaction copies outright
          (``assume_inside`` — identical values, no copies).  In a
          packed crystal whose populated shells sit inside the cutoff
          this holds for the *entire* reuse window.
        * **pre-mask**: otherwise, candidates with
          ``r_build > cutoff + 2 * max_disp`` provably cannot have
          closed inside the cutoff — each endpoint moved at most
          ``max_disp`` — so their separations are never computed.  An
          order-preserving *superset* cut (the strict filter below
          still decides every survivor), applied only when it removes
          enough candidates to pay for its own index gathers.

        Both proofs hold under minimum image: the nearest-image
        separation is a minimum of functions each 1-Lipschitz in either
        endpoint, so it moves by at most ``2 * max_disp`` too.  The
        epsilons absorb the floating-point slack in ``r_build`` and
        ``max_disp``; either way the emitted pair list is bit-for-bit
        the plain strict-filtered one.
        """
        i, j = self.i, self.j
        all_inside = False
        if max_disp is not None:
            bound = 2.0 * max_disp + 1e-9
            if self.r_build_max() + bound < cutoff:
                all_inside = True
            elif self.premask_can_cut(cutoff):
                # The cut weakens monotonically as the displacement
                # bound grows (a bigger bound keeps more candidates),
                # and the bound itself only grows within a reuse
                # window — so once the cut fails to pay at some bound,
                # it fails at every later one and the probe is skipped
                # for the rest of the window (bit-neutral: an unapplied
                # probe never touched the emitted pairs).
                if bound < self._premask_dead_bound:
                    sel = self.r_build <= cutoff + bound
                    if np.count_nonzero(sel) <= 0.9 * len(sel):
                        i = i[sel]
                        j = j[sel]
                    else:
                        self._premask_dead_bound = bound
        i, j, rij, r = active_backend().neighbor_prefilter(
            positions, i, j, box.lengths, box.periodic,
            cutoff, inclusive=False, compute_r=True,
            assume_inside=all_inside,
        )
        return PairTable(i=i, j=j, rij=rij, r=r, half=True)

    def split(self, mask: np.ndarray) -> tuple[Candidates, Candidates]:
        """Partition into the candidates ``mask`` selects and the rest.

        A stable mask split: candidate order within each part is the
        build order, so the two parts in that fixed order are a
        permutation of the original list.  ``r_build`` subsets ride
        along, so the cuts of :meth:`pairs` stay available per part
        (with per-part ``r_build_max``, which can only tighten the
        bound).
        """
        rest = ~mask
        return (
            Candidates(self.i[mask], self.j[mask], self.r_build[mask]),
            Candidates(self.i[rest], self.j[rest], self.r_build[rest]),
        )


def build_candidates(
    cells: CellList, positions: np.ndarray, owned: np.ndarray | None = None
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

    ``owned`` marks the atoms a tile owns among its local (owned +
    ghost, globally ascending) atoms.  Two things then ride the sweep:
    dead-cell pruning — a pair both of whose endpoints sit in cells
    with no owned atom can never pass the seam rule, so the
    ring-vs-ring part of the enumeration is skipped — and the seam rule
    itself: keep the pair iff this tile owns the smaller id.  Local ids
    ascend with global ids, so ``min()`` in local indices picks the
    member the global rule would; the rule is a mask on the same stream
    as the coarse cut, so the two commute, and the union over tiles is
    the serial candidate set with each pair kept exactly once.

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
    ci, cj, n_raw = cells.pairs_within(reach, live=owned)
    if owned is not None:
        keep = owned[np.minimum(ci, cj)]
        ci = ci[keep]
        cj = cj[keep]
    i, j, rij, r = active_backend().neighbor_prefilter(
        positions, ci, cj, box.lengths, box.periodic,
        reach, inclusive=True, compute_r=True,
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
        count_funnel(*self.candidates.funnel)
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
        reg = metrics()
        table = None
        if reason is not None:
            rij = self.rebuild(positions)
            reg.counter("neighbor.rebuilds").inc()
            reg.counter(f"neighbor.rebuilds.{reason}").inc()
            # The build just measured every candidate at these very
            # positions; only here — never across calls — is its
            # geometry the query's geometry.
            table = self._cut_built(rij)
            d_max = None
        else:
            reg.counter("neighbor.reuses").inc()
        if table is None:
            table = self.candidates.pairs(
                positions, self.box, self.cutoff, max_disp=d_max
            )
        self.last_pair_count = table.n_pairs
        return table

    def _cut_built(self, rij: np.ndarray) -> PairTable | None:
        """The strict ``r2 < cutoff**2`` table from build-time geometry.

        The kernel hands back ``r = sqrt(r2)``, not ``r2``.  ``sqrt``
        is correctly rounded, hence monotone: with
        ``rc = sqrt(cutoff * cutoff)``, ``r < rc`` implies
        ``r2 < cutoff**2`` and ``r > rc`` implies ``r2 > cutoff**2``,
        for any backend.  Only ``r == rc`` leaves the kernel's decision
        open (a lattice shell sitting exactly on the cutoff); then
        ``None`` sends the query through the kernel as usual.
        """
        cand = self.candidates
        r = cand.r_build
        rc = math.sqrt(self.cutoff * self.cutoff)
        if np.any(r == rc):
            return None
        keep = r < rc
        n_keep = int(np.count_nonzero(keep))
        if n_keep == len(r):
            # skin 0: every candidate interacts.  The arrays are the
            # kernel's fresh outputs; rebuilds rebind, never mutate.
            return PairTable(i=cand.i, j=cand.j, rij=rij, r=r, half=True)
        return PairTable(
            i=cand.i[keep], j=cand.j[keep], rij=rij[keep], r=r[keep],
            half=True,
        )

    @property
    def n_candidates(self) -> int:
        """Size of the current candidate set (half pairs)."""
        return 0 if self.candidates is None else len(self.candidates)
