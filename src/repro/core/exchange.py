"""Functional neighborhood exchange for the lockstep machine.

The lockstep simulator executes every tile's worker simultaneously on
per-tile grid arrays of shape ``(nx, ny, ...)``.  The candidate exchange
then becomes, for each neighborhood offset ``(dx, dy)``, an aligned
array shift: ``shifted[x, y] = grid[x + dx, y + dy]`` (out-of-fabric
reads yield the fill value — the "atom at infinity" the paper uses for
empty tiles).  Iterating offsets in the deterministic exchange order and
accumulating streamingly keeps memory at O(grid) instead of
O(grid x candidates), mirroring how real tiles process candidates as
they arrive rather than materializing them.

The equivalence of this functional exchange with the wavelet-level
marching multicast is established by tests: the event simulator's
per-tile delivered source sets equal these shifts' source sets.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.wse.geometry import TileGrid

__all__ = [
    "shift2d",
    "shift2d_into",
    "shift_rects",
    "iter_neighborhood",
    "neighborhood_sources",
]


def shift_rects(nx: int, ny: int, dx: int, dy: int):
    """``(dst, src)`` slice pairs of one offset's aligned shift.

    ``grid[src]`` lands on ``out[dst]`` (``out[x, y] = grid[x + dx,
    y + dy]``); tiles of ``out`` outside ``dst`` have no neighbor at
    this offset on the fabric.  ``None`` when the offset leaves the
    fabric entirely.
    """
    xs0, xs1 = max(dx, 0), nx + min(dx, 0)
    ys0, ys1 = max(dy, 0), ny + min(dy, 0)
    if xs0 >= xs1 or ys0 >= ys1:
        return None
    dst = (slice(xs0 - dx, xs1 - dx), slice(ys0 - dy, ys1 - dy))
    return dst, (slice(xs0, xs1), slice(ys0, ys1))


def shift2d_into(
    out: np.ndarray, grid: np.ndarray, dx: int, dy: int, fill=0
) -> np.ndarray:
    """Aligned shift written into a caller-owned buffer.

    ``out[x, y] = grid[x + dx, y + dy]`` where the source exists,
    ``fill`` elsewhere.  Semantics identical to :func:`shift2d`; lets
    loops over neighborhood offsets reuse a preallocated exchange
    buffer instead of allocating every call.
    """
    out[...] = fill
    rects = shift_rects(*grid.shape[:2], dx, dy)
    if rects is not None:
        dst, src = rects
        out[dst] = grid[src]
    return out


def shift2d(grid: np.ndarray, dx: int, dy: int, fill=0) -> np.ndarray:
    """Aligned shift: ``out[x, y] = grid[x + dx, y + dy]`` or ``fill``.

    Works for (nx, ny) and (nx, ny, k) arrays; the shift applies to the
    leading two axes.  Non-periodic fabric: out-of-range reads fill.
    """
    return shift2d_into(np.empty_like(grid), grid, dx, dy, fill=fill)


def iter_neighborhood(
    grid: TileGrid, b: int
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (dx, dy, in_fabric_mask) for each neighborhood offset.

    Offsets follow the deterministic arrival order of the exchange
    (:meth:`repro.wse.geometry.TileGrid.neighborhood_offsets`); the mask
    marks tiles whose neighbor at that offset exists on the fabric (the
    candidate is *received* there — edge tiles see fewer candidates).
    """
    xs = np.arange(grid.nx)[:, None]
    ys = np.arange(grid.ny)[None, :]
    for dx, dy in grid.neighborhood_offsets(b):
        mask = (
            (xs + dx >= 0)
            & (xs + dx < grid.nx)
            & (ys + dy >= 0)
            & (ys + dy < grid.ny)
        )
        yield int(dx), int(dy), np.broadcast_to(mask, (grid.nx, grid.ny))


def neighborhood_sources(grid: TileGrid, b: int, tile_x: int, tile_y: int) -> set[int]:
    """Flat indices of the tiles whose data reaches (tile_x, tile_y).

    Reference implementation used to cross-check the event-level fabric
    simulation and the shift-based exchange against each other.
    """
    out: set[int] = set()
    for dx, dy in grid.neighborhood_offsets(b):
        x, y = tile_x + dx, tile_y + dy
        if 0 <= x < grid.nx and 0 <= y < grid.ny:
            out.add(int(grid.flatten(x, y)))
    return out
