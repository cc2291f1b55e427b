"""Spatial domain decomposition for the sharded force pipeline.

The paper maps atoms to PEs through a locality-preserving assignment of
spatial cells to the fabric's rows and columns; the host-side analogue
here tiles the (fully open) box into a :class:`DomainGrid` of
``px x py`` contiguous rectangles — ``px`` columns along x crossed with
``py`` rows along y — one tile per worker.  This module is planning
only: where the edges go, which atoms a tile holds, which of them it
owns.  The pairs a tile keeps are built by
:func:`repro.md.neighbor_list.build_candidates` from exactly these
outputs, and :func:`seam_plan` says which rows then travel between
tiles.  Everything here is pure array logic, so the test suite pins the
decomposition invariants single-process, without any multiprocessing.

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

from dataclasses import dataclass

import numpy as np

from repro.obs import warn_once

__all__ = [
    "DomainGrid",
    "plan_axis",
    "plan_grid",
    "tile_local_ids",
    "owned_mask_local",
    "seam_plan",
    "warn_halo_dominated",
]


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
        warn_once(
            (axis, n_parts, ncol),
            f"{axis}-axis decomposition requested {n_parts} domains "
            f"but the data spans only {ncol} cell column(s); capping "
            f"at {effective} ({n_parts - effective} shard(s) stay "
            f"empty)",
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


def tile_local_ids(
    positions: np.ndarray, grid: DomainGrid, tile: int, reach: float
) -> np.ndarray:
    """Global ids of a tile's *local* set — owned rectangle dilated by
    the halo width ``reach`` along x and y — in ascending order.

    Ascending order matters: it makes local-index comparisons order-
    isomorphic to global-id comparisons, so the seam rule evaluated in
    local indices (:func:`~repro.md.neighbor_list.build_candidates`)
    keeps exactly the pairs the global rule would.
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


def seam_plan(
    ids: list[np.ndarray], n_atoms: int
) -> tuple[list[np.ndarray], list[np.ndarray], list[list]]:
    """Which rows travel between tiles each step, cut once per rebuild.

    ``ids[k]`` are tile ``k``'s local global ids (ascending).  A *seam*
    row is local to more than one tile; every holder stages its seam
    rows' partial sums and is sent, for every *other* holder in
    ascending rank, that holder's partials of the rows they share.
    Returns ``(seam, take, segs)``: ``seam[k]`` are tile ``k``'s seam
    rows (local indices — what it stages, in pack order); ``take[k]``
    indexes the rank-concatenated staged packs (what
    ``Transport.scatter`` ships rank ``k``); ``segs[k][m]`` says where
    among ``seam[k]`` rank ``m``'s slice lands (``None`` at ``m == k``).
    """
    w = len(ids)
    holders = np.bincount(np.concatenate(ids), minlength=n_atoms)
    seam = [np.nonzero(holders[i] > 1)[0] for i in ids]
    slot = np.full(n_atoms, -1, dtype=np.int64)
    take = [[np.empty(0, dtype=np.int64)] for _ in range(w)]
    segs: list[list] = [[] for _ in range(w)]
    offset = 0
    for m in range(w):
        staged = ids[m][seam[m]]
        slot[staged] = offset + np.arange(len(staged))
        for k in range(w):
            if k == m:
                segs[k].append(None)
                continue
            at = slot[ids[k][seam[k]]]
            hit = np.nonzero(at >= 0)[0]
            take[k].append(at[hit])
            segs[k].append(hit)
        slot[staged] = -1
        offset += len(staged)
    return seam, [np.concatenate(t) for t in take], segs


def warn_halo_dominated(
    positions: np.ndarray, px: int, py: int, reach: float
) -> None:
    """Warn once when tiles are so narrow the halo dominates them.

    The decomposition stays *correct* for any tile width (the seam
    rule only needs owned-rectangle-dilated-by-reach locality), but
    when an axis's average tile width drops below ``2 x reach`` the
    ghost ring is wider than the owned region, so the sparse halo
    exchange degenerates toward the full broadcast it replaced.  Warned
    once per shape through :func:`repro.obs.warn_once`, like the
    capped-decomposition warning.
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
        warn_once(
            ("halo", axis, parts),
            f"{axis}-axis tiles average {width:.2f} wide but the halo "
            f"reaches {reach:.2f} on each side; ghost regions dominate "
            f"owned regions, so the sparse halo exchange carries "
            f"near-broadcast volume",
        )
