"""Offline assignment-cost optimization (paper Sec. V-E).

The paper compares online swap maintenance against "our best off-line
attempt at optimizing of the assignment cost", which reached 2.1 A plus
the EAM cutoff.  This module provides that offline pass: repeated
greedy mutual-swap rounds over a static configuration until the
assignment cost converges, returning an improved
:class:`~repro.core.mapping.Mapping`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mapping import Mapping
from repro.core.swap import SwapEngine

__all__ = ["OptimizeResult", "optimize_mapping"]


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of an offline optimization run."""

    mapping: Mapping
    initial_cost: float
    final_cost: float
    rounds: int
    swaps: int


def optimize_mapping(
    mapping: Mapping,
    positions: np.ndarray,
    *,
    max_rounds: int = 200,
    patience: int = 5,
) -> OptimizeResult:
    """Improve a mapping by repeated swap rounds until converged.

    Stops after ``patience`` consecutive rounds without a swap, or
    ``max_rounds``.  Returns a new mapping; the input is untouched.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if len(positions) != mapping.n_atoms:
        raise ValueError(
            f"{len(positions)} positions for {mapping.n_atoms} mapped atoms"
        )
    engine = SwapEngine()
    grid = mapping.grid
    nx, ny = grid.nx, grid.ny

    # per-tile grids: atom index held by each core (-1 empty)
    holder = np.full((nx, ny), -1, dtype=np.int64)
    cx, cy = mapping.core_xy()
    holder[cx, cy] = np.arange(mapping.n_atoms)
    occ = holder >= 0

    proj_atoms = mapping.projection.project(positions)
    proj = np.full((nx, ny, 2), 1.0e15)
    proj[cx, cy] = proj_atoms

    centers = np.empty((nx, ny, 2))
    centers[:, :, 0] = mapping.origin[0] + np.arange(nx)[:, None] * mapping.pitch[0]
    centers[:, :, 1] = mapping.origin[1] + np.arange(ny)[None, :] * mapping.pitch[1]

    initial_cost = mapping.assignment_cost(positions)
    grids = {"holder": holder, "proj": proj, "occ": occ}
    total_swaps = 0
    quiet = 0
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        n = engine.apply(grids, grids["proj"], grids["occ"], centers,
                         mapping.pitch)
        total_swaps += n
        quiet = quiet + 1 if n == 0 else 0
        if quiet >= patience:
            break

    atom_core = np.empty(mapping.n_atoms, dtype=np.int64)
    fx, fy = np.nonzero(grids["occ"])
    atom_core[grids["holder"][fx, fy]] = grid.flatten(fx, fy)
    improved = Mapping(
        grid=grid,
        projection=mapping.projection,
        pitch=mapping.pitch,
        origin=mapping.origin,
        atom_core=atom_core,
    )
    return OptimizeResult(
        mapping=improved,
        initial_cost=initial_cost,
        final_cost=improved.assignment_cost(positions),
        rounds=rounds,
        swaps=total_swaps,
    )
