"""Functional neighborhood exchange on per-tile grids.

On per-tile grid arrays of shape ``(nx, ny, ...)`` the candidate
exchange becomes, for each neighborhood offset ``(dx, dy)``, an aligned
array shift: ``shifted[x, y] = grid[x + dx, y + dy]`` (out-of-fabric
reads yield the fill value — the "atom at infinity" the paper uses for
empty tiles).  Iterating offsets in the deterministic exchange order and
accumulating streamingly keeps memory at O(grid) instead of
O(grid x candidates), mirroring how real tiles process candidates as
they arrive rather than materializing them.

The equivalence of this functional exchange with the wavelet-level
marching multicast is established by tests: the event simulator's
per-tile delivered source sets equal these shifts' source sets.

The lockstep machine does not call this module: its exchange is the
list build inside the ``wafer_step`` registry kernel
(:mod:`repro.kernels`), whose numpy body shifts through
:func:`~repro.kernels.numpy_backend.shift_rects` too.
Here the shifts serve :class:`~repro.core.swap.SwapEngine`
(:func:`shift2d`) and the tests' exchange oracles.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.numpy_backend import shift_rects

__all__ = ["shift2d", "shift2d_into"]


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
