"""Spatial domain decomposition for the sharded force pipeline.

The paper maps atoms to PEs through a locality-preserving assignment of
spatial cells to the fabric's rows and columns; the host-side analogue
here tiles the (fully open) box into a :class:`DomainGrid` of
``px x py`` contiguous rectangles — ``px`` columns along x crossed with
``py`` rows along y — one tile per worker.  The historical 1D x-column
decomposition (:func:`plan_columns`) is the ``px x 1`` special case.
Everything in this module is pure array logic — the worker processes
call it, and the test suite calls it single-process to pin down the
decomposition invariants without any multiprocessing.

Invariants
----------
* Each axis's owned intervals ``[edges[k], edges[k+1])`` partition the
  real line (``edges[0] = -inf``, ``edges[-1] = +inf``), so the tile
  rectangles partition the plane and every atom is owned by exactly
  one tile.
* A tile's *local* set is its owned rectangle dilated by the halo width
  (``cutoff + skin``) along x and y: every pair a tile is responsible
  for has both members local, because a candidate pair's build-time
  separation never exceeds the halo width.
* A pair is kept by the tile that **owns the smaller global id** — a
  total tie-free rule, so across tiles each undirected candidate pair
  appears exactly once (the seam analogue of the half pair list).
  Nothing in the rule depends on the edges being balanced or
  cell-aligned; any partition of the plane works.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from repro.kernels import active_backend
from repro.md.boundary import Box
from repro.md.cell_list import CellList
from repro.potentials.base import PairTable

__all__ = [
    "DomainGrid",
    "plan_axis",
    "plan_grid",
    "plan_columns",
    "ShardPairs",
    "tile_local_ids",
    "owned_mask_local",
    "build_local_pairs",
    "build_tile_pairs",
    "build_shard_pairs",
    "split_interior_boundary",
    "warn_halo_dominated",
]

#: Shard boxes are fully open: the distance kernel never wraps, so the
#: box lengths it receives are irrelevant placeholders.
_OPEN_PERIODIC = np.zeros(3, dtype=bool)
_OPEN_LENGTHS = np.ones(3, dtype=np.float64)

#: Degenerate-decomposition warnings already issued (once per distinct
#: (axis, requested, available) shape per process, mirroring the
#: registry's once-per-name policy).
_warned_degenerate: set[tuple] = set()


def plan_axis(
    coords: np.ndarray, n_parts: int, cell_width: float, *, axis: str = "x"
) -> np.ndarray:
    """Cell-aligned interval edges with near-equal atom counts.

    Returns ``(n_parts + 1,)`` edges with ``edges[0] = -inf`` and
    ``edges[-1] = +inf``; part ``k`` owns ``[edges[k], edges[k+1])``.
    Interior edges lie on boundaries of a global column grid of width
    >= ``cell_width`` (the cell size the shards bin at, so domains
    align with whole cell columns), chosen where the cumulative atom
    histogram crosses each equal share.

    When ``n_parts`` exceeds the number of cell columns the data spans,
    the effective part count is capped at the column count (the balance
    targets are spread over the cap, and the trailing parts stay empty)
    and a once-per-shape :class:`RuntimeWarning` says so — many silently
    empty shards otherwise look like a balanced decomposition.
    """
    if n_parts < 1:
        raise ValueError(f"n_parts must be >= 1, got {n_parts}")
    edges = np.full(n_parts + 1, np.inf)
    edges[0] = -np.inf
    if n_parts == 1 or len(coords) == 0:
        return edges
    eps = 1e-9
    lo = float(coords.min()) - eps
    hi = float(coords.max()) + eps
    extent = max(hi - lo, cell_width)
    ncol = max(1, int(np.floor(extent / cell_width)))
    effective = min(n_parts, ncol)
    if effective < n_parts:
        key = (axis, n_parts, ncol)
        if key not in _warned_degenerate:
            _warned_degenerate.add(key)
            warnings.warn(
                f"{axis}-axis decomposition requested {n_parts} domains "
                f"but the data spans only {ncol} cell column(s); capping "
                f"at {effective} ({n_parts - effective} shard(s) stay "
                f"empty)",
                RuntimeWarning,
                stacklevel=3,
            )
    width = extent / ncol
    col = np.clip((coords - lo) // width, 0, ncol - 1).astype(np.int64)
    cum = np.cumsum(np.bincount(col, minlength=ncol))
    n = len(coords)
    for k in range(1, effective):
        target = k * n / effective
        idx = int(np.searchsorted(cum, target))
        edges[k] = lo + (idx + 1) * width
    # Monotonicity: crowded columns can make consecutive targets pick
    # the same boundary; the duplicate edge just yields an empty shard.
    np.maximum.accumulate(edges, out=edges)
    return edges


def plan_columns(
    x: np.ndarray, n_shards: int, cell_width: float
) -> np.ndarray:
    """1D x-column edges — the ``px x 1`` special case of :func:`plan_grid`."""
    return plan_axis(x, n_shards, cell_width, axis="x")


@dataclass(frozen=True)
class DomainGrid:
    """A ``px x py`` rectangular tiling of the xy-plane.

    Tile ``k`` sits at column ``ix = k % px`` and row ``iy = k // px``
    and owns the half-open rectangle
    ``[x_edges[ix], x_edges[ix+1]) x [y_edges[iy], y_edges[iy+1])``.
    Both edge arrays run from ``-inf`` to ``+inf``, so the tiles
    partition the plane and the z-axis is never decomposed (the paper's
    thin-slab workloads are at most a few cells thick in z).

    The grid is a plain picklable value: the parent plans it on a
    rebuild step and broadcasts it to the workers over whatever
    transport is in use.
    """

    px: int
    py: int
    x_edges: np.ndarray
    y_edges: np.ndarray

    def __post_init__(self) -> None:
        if self.px < 1 or self.py < 1:
            raise ValueError(
                f"topology must be at least 1x1, got {self.px}x{self.py}"
            )
        if len(self.x_edges) != self.px + 1 or len(self.y_edges) != self.py + 1:
            raise ValueError(
                f"edge arrays must have px+1/py+1 entries, got "
                f"{len(self.x_edges)}/{len(self.y_edges)} for "
                f"{self.px}x{self.py}"
            )

    @property
    def n_tiles(self) -> int:
        return self.px * self.py

    def tile_coords(self, tile: int) -> tuple[int, int]:
        """``(ix, iy)`` of tile ``tile`` (row-major over columns first)."""
        return tile % self.px, tile // self.px

    def tile_bounds(self, tile: int) -> tuple[float, float, float, float]:
        """``(xlo, xhi, ylo, yhi)`` of the tile's owned rectangle."""
        ix, iy = self.tile_coords(tile)
        return (
            float(self.x_edges[ix]),
            float(self.x_edges[ix + 1]),
            float(self.y_edges[iy]),
            float(self.y_edges[iy + 1]),
        )

    def owner_of(self, positions: np.ndarray) -> np.ndarray:
        """Owning tile index per atom (total: every atom has one)."""
        ix = np.searchsorted(self.x_edges, positions[:, 0], side="right") - 1
        iy = np.searchsorted(self.y_edges, positions[:, 1], side="right") - 1
        ix = np.clip(ix, 0, self.px - 1)
        iy = np.clip(iy, 0, self.py - 1)
        return iy * self.px + ix


def plan_grid(
    positions: np.ndarray, px: int, py: int, cell_width: float
) -> DomainGrid:
    """Balanced cell-aligned ``px x py`` tiling of the current positions.

    Each axis is planned independently (a tensor-product grid), so tile
    atom counts are near-equal for near-separable densities — the
    paper's uniform slabs — and the seam rule stays correct regardless.
    """
    return DomainGrid(
        px=px,
        py=py,
        x_edges=plan_axis(positions[:, 0], px, cell_width, axis="x"),
        y_edges=plan_axis(positions[:, 1], py, cell_width, axis="y"),
    )


@dataclass
class ShardPairs:
    """One shard's cached candidate pairs, in global atom indices.

    Built at (re)build time and reused until the next coordinated
    rebuild; :meth:`pairs` distance-filters to the true cutoff at the
    *current* positions, mirroring the serial
    :class:`~repro.md.neighbor_list.NeighborList` query.  ``r_build``
    (candidate separations at the build positions, when the builder
    recorded them) enables the cross-step Verlet pre-mask below.
    """

    gi: np.ndarray
    gj: np.ndarray
    n_local: int
    n_owned: int
    r_build: np.ndarray | None = None
    #: (raw, coarse_kept, exact_kept) counts of the build that made this
    #: list (see ``repro.md.neighbor_list.count_funnel``): raw is what
    #: this tile enumerated, halo ring included; coarse and exact are
    #: counted after the seam rule, so exact sums over tiles to the
    #: serial build's (and coarse does wherever the rounding sliver
    #: past the reach is empty).
    funnel: tuple[int, int, int] = (0, 0, 0)

    @property
    def n_candidates(self) -> int:
        return len(self.gi)

    def r_build_max(self) -> float:
        """Largest build-time candidate separation (cached; 0.0 if none).

        The one scalar both cross-step bounds below pivot on, computed
        once per rebuild window.
        """
        m = getattr(self, "_r_build_max", None)
        if m is None:
            m = float(self.r_build.max()) if len(self.r_build) else 0.0
            self._r_build_max = m
        return m

    def premask_can_cut(self, cutoff: float) -> bool:
        """Whether the Verlet pre-mask can ever exclude a candidate.

        The pre-mask bound ``cutoff + 2 * max_disp`` is tightest at
        zero displacement, so when no candidate sat beyond ``cutoff``
        at build time — a packed crystal whose populated shells all
        fall inside the cutoff — the mask provably keeps every
        candidate for the entire reuse window.  Callers then skip both
        the mask and the per-step displacement tracking that feeds it
        (a pure wall-clock cut: the mask is a superset filter, so
        skipping it emits identical bits).
        """
        if self.r_build is None:
            return False
        # mirror the pairs() mask epsilon: a candidate at
        # cutoff + 1e-9 is kept even at zero displacement
        return self.r_build_max() > cutoff + 1e-9

    def pairs(
        self,
        positions: np.ndarray,
        cutoff: float,
        max_disp: float | None = None,
    ) -> PairTable:
        """Half interacting pairs at the current positions (open box).

        ``max_disp`` is an upper bound on the displacement of any local
        atom since the build (any valid bound works — the pipeline
        passes the parent's *global* bound, already in hand from the
        skin trigger).  When known (and ``r_build`` was recorded) it
        powers two provably bit-neutral cross-step cuts:

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

        The epsilons absorb the floating-point slack in ``r_build``
        and ``max_disp``; either way the emitted pair list is
        bit-for-bit the plain strict-filtered one.
        """
        gi, gj = self.gi, self.gj
        all_inside = False
        if max_disp is not None and self.r_build is not None:
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
                dead = getattr(self, "_premask_dead_bound", np.inf)
                if bound < dead:
                    sel = self.r_build <= cutoff + bound
                    if np.count_nonzero(sel) <= 0.9 * len(sel):
                        gi = gi[sel]
                        gj = gj[sel]
                    else:
                        self._premask_dead_bound = bound
        i, j, rij, r = active_backend().neighbor_prefilter(
            positions, gi, gj, _OPEN_LENGTHS, _OPEN_PERIODIC,
            cutoff, inclusive=False, compute_r=True,
            assume_inside=all_inside,
        )
        return PairTable(i=i, j=j, rij=rij, r=r, half=True)


def tile_local_ids(
    positions: np.ndarray, grid: DomainGrid, tile: int, reach: float
) -> np.ndarray:
    """Global ids of a tile's *local* set — owned rectangle dilated by
    the halo width ``reach`` along x and y — in ascending order.

    Ascending order matters: it makes local-index comparisons order-
    isomorphic to global-id comparisons, so the seam rule evaluated in
    local indices (:func:`build_local_pairs`) keeps exactly the pairs
    the global rule would.
    """
    xlo, xhi, ylo, yhi = grid.tile_bounds(tile)
    x = positions[:, 0]
    y = positions[:, 1]
    return np.nonzero(
        (x >= xlo - reach) & (x < xhi + reach)
        & (y >= ylo - reach) & (y < yhi + reach)
    )[0]


def owned_mask_local(
    local_positions: np.ndarray,
    bounds: tuple[float, float, float, float],
) -> np.ndarray:
    """Which local atoms fall in the tile's owned rectangle.

    Evaluated from the same half-open comparisons the parent's global
    ownership test uses, so a worker holding only its halo pack makes
    bit-identical ownership decisions.
    """
    xlo, xhi, ylo, yhi = bounds
    x = local_positions[:, 0]
    y = local_positions[:, 1]
    return (x >= xlo) & (x < xhi) & (y >= ylo) & (y < yhi)


def build_local_pairs(
    local_positions: np.ndarray,
    owned: np.ndarray,
    *,
    box: Box,
    reach: float,
    cells: CellList | None = None,
) -> ShardPairs:
    """One tile's candidate pairs in *local* index space.

    This is the worker-side build: the worker holds only its halo pack
    (owned + ghost atoms, globally ascending), never the full position
    array.  Because the pack preserves global order, the cell binning,
    the own-smaller-id seam rule and the Verlet prefilter all make the
    same decisions as a global-index build — mapping the result through
    the pack's id list reproduces :func:`build_tile_pairs` exactly
    (pinned by the seam-rule property sweep in ``tests/parallel``).
    """
    n_local = len(local_positions)
    n_owned = int(np.count_nonzero(owned))
    if n_local == 0:
        empty = np.empty(0, dtype=np.int64)
        return ShardPairs(
            empty, empty, 0, n_owned, r_build=np.empty(0, dtype=np.float64)
        )
    if cells is None:
        cells = CellList(box, reach)
    cells.build(local_positions)
    # The serial rebuild's sweep (NeighborList.rebuild): stencil blocks
    # coarsely cut at the reach where they are enumerated.  Dead-cell
    # pruning rides along: a pair both of whose endpoints sit in cells
    # with no owned atom can never pass the seam rule below, so the
    # halo-ring-vs-halo-ring part of the enumeration is skipped.
    ci, cj, n_raw = cells.pairs_within(reach, live=owned)
    # Seam rule: keep the pair iff this tile owns the smaller id.  The
    # local ids are ascending in global id, so min() in local indices
    # picks the same member the global rule would.  It is a mask on the
    # same stream as the coarse cut, so the two commute.
    keep = owned[np.minimum(ci, cj)]
    ci = ci[keep]
    cj = cj[keep]
    # The exact kernel decides — identical semantics to the serial
    # rebuild, so tile unions reproduce the serial candidate set
    # exactly.  The kept separations are recorded for the cross-step
    # pre-mask in :meth:`ShardPairs.pairs`.
    li, lj, _, r = active_backend().neighbor_prefilter(
        local_positions, ci, cj, _OPEN_LENGTHS, _OPEN_PERIODIC,
        reach, inclusive=True, compute_r=True,
    )
    return ShardPairs(
        li, lj, n_local, n_owned, r_build=r,
        funnel=(n_raw, len(ci), len(li)),
    )


def build_tile_pairs(
    positions: np.ndarray,
    grid: DomainGrid,
    tile: int,
    *,
    box: Box,
    reach: float,
    cells: CellList | None = None,
) -> ShardPairs:
    """One tile's Verlet-prefiltered candidate pairs, in global ids.

    ``reach`` is ``cutoff + skin``: it is the Verlet prefilter radius
    *and* the halo width (a kept pair's build separation is <= reach,
    so the partner of any owned atom lies inside the halo ring).
    ``cells`` lets a persistent worker reuse its :class:`CellList`
    buffers across rebuilds.

    Implemented as :func:`build_local_pairs` on the tile's halo pack
    mapped back to global ids — the single-process twin of what a
    worker computes from its pack, which is what lets the test suite
    pin the distributed build against this function.
    """
    local = tile_local_ids(positions, grid, tile, reach)
    sp = build_local_pairs(
        positions[local],
        owned_mask_local(positions[local], grid.tile_bounds(tile)),
        box=box,
        reach=reach,
        cells=cells,
    )
    return ShardPairs(
        local[sp.gi], local[sp.gj], sp.n_local, sp.n_owned,
        r_build=sp.r_build, funnel=sp.funnel,
    )


def split_interior_boundary(
    sp: ShardPairs, owned: np.ndarray
) -> tuple[ShardPairs, ShardPairs]:
    """Partition candidates into an interior and a boundary shard.

    A candidate is *interior* when both endpoints are owned — its
    separation never reads a ghost row, so the interior filter and the
    interior density/force passes can run before any halo data arrives.
    Everything else (at least one ghost endpoint) is *boundary* and must
    wait for the step's ghost rows.

    The partition is a stable mask split: candidate order within each
    class is the build order, and ``interior ∪ boundary`` in that fixed
    (interior-then-boundary) order is a permutation of the original
    list.  Per-atom accumulation stays bitwise-equal to the unsplit pass
    because the merge adds whole per-atom partial sums in a pinned
    order (interior + boundary) — see ``ShardWorker`` — rather than
    re-interleaving per-pair contributions.  ``r_build`` subsets ride
    along, so the all-inside / pre-mask cuts stay available per class
    (with per-class ``r_build_max``, which can only tighten the bound).
    """
    interior = owned[sp.gi] & owned[sp.gj]
    r_build = sp.r_build
    inside = ShardPairs(
        sp.gi[interior], sp.gj[interior], sp.n_local, sp.n_owned,
        r_build=None if r_build is None else r_build[interior],
    )
    outside = ~interior
    seam = ShardPairs(
        sp.gi[outside], sp.gj[outside], sp.n_local, sp.n_owned,
        r_build=None if r_build is None else r_build[outside],
    )
    return inside, seam


def warn_halo_dominated(
    positions: np.ndarray, px: int, py: int, reach: float
) -> None:
    """Warn once when tiles are so narrow the halo dominates them.

    The decomposition stays *correct* for any tile width (the seam
    rule only needs owned-rectangle-dilated-by-reach locality), but
    when an axis's average tile width drops below ``2 x reach`` the
    ghost ring is wider than the owned region, so the sparse halo
    exchange degenerates toward the full broadcast it replaced.  Keyed
    into the same once-per-shape cache as the capped-decomposition
    warning and re-armed by ``repro.parallel.reset_warnings()``.
    """
    if len(positions) == 0:
        return
    for axis, coords, parts in (
        ("x", positions[:, 0], px),
        ("y", positions[:, 1], py),
    ):
        if parts < 2:
            continue
        width = (float(coords.max()) - float(coords.min())) / parts
        if width >= 2.0 * reach:
            continue
        key = ("halo", axis, parts)
        if key in _warned_degenerate:
            continue
        _warned_degenerate.add(key)
        warnings.warn(
            f"{axis}-axis tiles average {width:.2f} wide but the halo "
            f"reaches {reach:.2f} on each side; ghost regions dominate "
            f"owned regions, so the sparse halo exchange carries "
            f"near-broadcast volume",
            RuntimeWarning,
            stacklevel=3,
        )


def build_shard_pairs(
    positions: np.ndarray,
    edges: np.ndarray,
    shard: int,
    *,
    box: Box,
    reach: float,
    cells: CellList | None = None,
) -> ShardPairs:
    """1D column shard pairs — :func:`build_tile_pairs` on a ``px x 1`` grid."""
    edges = np.asarray(edges, dtype=np.float64)
    grid = DomainGrid(
        px=len(edges) - 1,
        py=1,
        x_edges=edges,
        y_edges=np.array([-np.inf, np.inf]),
    )
    return build_tile_pairs(
        positions, grid, shard, box=box, reach=reach, cells=cells
    )
