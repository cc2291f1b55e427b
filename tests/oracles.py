"""Reference helpers only the tests call.

The exchange's per-tile source sets and arrival masks (the oracles the
event-level fabric simulation and the record-based passes are checked
against) and the two-engine trajectory comparison.  Nothing under
``src/`` imports this module.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.validate import TrajectoryComparison
from repro.core.wse_md import WseMd
from repro.md.simulation import Simulation
from repro.md.state import AtomsState
from repro.wse.geometry import TileGrid


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


def compare_trajectories(
    state: AtomsState,
    wse: WseMd,
    reference: Simulation,
    n_steps: int,
) -> TrajectoryComparison:
    """Advance both engines ``n_steps`` and measure deviations.

    ``wse`` and ``reference`` must have been built from copies of
    ``state``; ``state`` itself is untouched.
    """
    wse.step(n_steps)
    reference.run(n_steps)
    a = wse.gather_state()
    b = reference.state
    order_b = np.argsort(b.ids)
    if not np.array_equal(a.ids, b.ids[order_b]):
        raise ValueError("engines hold different atom id sets")
    dp = np.abs(a.positions - b.positions[order_b]).max() if a.n_atoms else 0.0
    dv = np.abs(a.velocities - b.velocities[order_b]).max() if a.n_atoms else 0.0
    e_wse = wse.compute_energy()
    e_ref = reference.potential_energy()
    return TrajectoryComparison(
        n_steps=n_steps,
        max_position_error=float(dp),
        max_velocity_error=float(dv),
        energy_error=abs(e_wse - e_ref),
    )
