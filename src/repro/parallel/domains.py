"""Spatial domain decomposition for the sharded pipeline.

The paper maps atoms to PEs through a locality-preserving assignment of
spatial cells to the fabric's rows and columns; the host-side analogue
here tiles the (fully open) box into a :class:`DomainGrid` of
``px x py`` contiguous rectangles — ``px`` columns along x crossed with
``py`` rows along y — one tile per worker.  This module is planning
only: where the edges go, which atoms a tile holds, which of them it
owns, and (:func:`export_plan`) which rows then travel between tiles.
Everything here is pure array logic, so the test suite pins the
decomposition invariants single-process, without any multiprocessing.

Invariants
----------
* Each axis's owned intervals ``[edges[k], edges[k+1])`` partition the
  real line (``edges[0] = -inf``, ``edges[-1] = +inf``), so the tile
  rectangles partition the plane and every atom is owned by exactly
  one tile.
* A tile's *local* set is its owned rectangle dilated by the ghost
  shell's depth along x and y.  The pipeline digs the shell
  ``2 * cutoff + skin`` deep: while no atom has moved ``skin / 2``
  since the plan, every partner of every owned row's density partners
  is local, so a rank steps its owned rows exactly as the serial
  engine steps them.  Nothing depends on the edges being balanced or
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
    "export_plan",
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
    paper's uniform slabs — and the shell stays correct regardless.
    """
    return DomainGrid(
        px=px,
        py=py,
        x_edges=plan_axis(positions[:, 0], px, cell_width, axis="x"),
        y_edges=plan_axis(positions[:, 1], py, cell_width, axis="y"),
    )


def tile_local_ids(
    positions: np.ndarray, grid: DomainGrid, tile: int, depth: float
) -> np.ndarray:
    """Global ids of a tile's *local* set — owned rectangle dilated by
    the shell ``depth`` along x and y — in ascending order (so a single
    tile's rows are the global rows, in order)."""
    xlo, xhi, ylo, yhi = grid.tile_bounds(tile)
    x = positions[:, 0]
    y = positions[:, 1]
    return np.nonzero(
        (x >= xlo - depth) & (x < xhi + depth)
        & (y >= ylo - depth) & (y < yhi + depth)
    )[0]


def owned_mask_local(
    local_positions: np.ndarray,
    bounds: tuple[float, float, float, float],
) -> np.ndarray:
    """Which local atoms fall in the tile's owned rectangle (the
    half-open comparisons that partition the plane)."""
    xlo, xhi, ylo, yhi = bounds
    x = local_positions[:, 0]
    y = local_positions[:, 1]
    return (x >= xlo) & (x < xhi) & (y >= ylo) & (y < yhi)


def export_plan(
    ids: list[np.ndarray], owned: list[np.ndarray], n_atoms: int
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Which rows travel between tiles each step, cut once per plan.

    ``ids[k]`` are tile ``k``'s local global ids (ascending) and
    ``owned[k]`` the mask of the ones it owns.  Every other local row
    is a *ghost*, whose position its owner computes each step; the
    owner stages each of its rows that some tile holds as a ghost once,
    and the parent hands every holder its ghosts from the rank-
    concatenated staged packs.  Returns ``(ghosts, exports, take)``:
    ``ghosts[k]`` are tile ``k``'s ghost rows and ``exports[k]`` the
    owned rows it stages (local indices, ascending — pack order);
    ``take[k]`` indexes the rank-concatenated export packs, one entry
    per ghost row of tile ``k`` (what ``Transport.scatter`` ships it).
    Each ghost row has exactly one source: its owner.
    """
    ghosts = [np.flatnonzero(~mask) for mask in owned]
    wanted = np.zeros(n_atoms, dtype=bool)
    for local, rows in zip(ids, ghosts):
        wanted[local[rows]] = True
    slot = np.full(n_atoms, -1, dtype=np.int64)
    exports, offset = [], 0
    for local, mask in zip(ids, owned):
        rows = np.flatnonzero(mask & wanted[local])
        slot[local[rows]] = offset + np.arange(len(rows))
        offset += len(rows)
        exports.append(rows)
    take = [slot[local[rows]] for local, rows in zip(ids, ghosts)]
    return ghosts, exports, take


def warn_halo_dominated(
    positions: np.ndarray, px: int, py: int, depth: float
) -> None:
    """Warn once when tiles are so narrow the ghost shell dominates them.

    The decomposition stays *correct* for any tile width, but when an
    axis's average tile width drops below ``2 x depth`` the shell is
    wider than the owned region, so each rank steps more ghost rows
    than rows of its own and the ghost exchange nears a broadcast.
    Warned once per shape through :func:`repro.obs.warn_once`, like
    the capped-decomposition warning.
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
        if width >= 2.0 * depth:
            continue
        warn_once(
            ("halo", axis, parts),
            f"{axis}-axis tiles average {width:.2f} wide but the ghost "
            f"shell reaches {depth:.2f} on each side; ghost regions "
            f"dominate owned regions, so the ghost exchange carries "
            f"near-broadcast volume",
        )
