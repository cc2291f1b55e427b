"""Locality-preserving atom-to-core mapping (paper Sec. III-A).

Each core ``c`` is identified with a nominal fabric-plane coordinate
``P(c)``; the assignment cost ``C(g)`` of a mapping ``g`` is the
worst-case max-norm displacement between an atom's projected position
``P(r_i)`` and its worker core's coordinate ``P(g(i))``.  Together with
the cutoff, ``C(g)`` bounds the fabric distance between the workers of
interacting atoms by ``2 C(g) + r_cut`` — which is what sizes the
candidate neighborhood (:mod:`repro.core.neighborhood`).

The builder uses a two-stage geometric assignment:

1. **Columns** — each atom's projected x picks a core column; columns
   over capacity spill their outermost atoms to the neighbor column
   (one rightward then one leftward balancing pass).
2. **Rows** — within a column, atoms sorted by projected y are placed on
   distinct rows minimizing the worst row displacement (a cummax-based
   order-preserving assignment).

The result is deterministic, one-to-one, and leaves empty cores free for
the online swap remapping (Sec. III-D).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.folding import FabricProjection
from repro.md.boundary import Box
from repro.wse.geometry import TileGrid

__all__ = ["Mapping", "build_mapping", "grid_for_atoms", "assign_rows"]


def grid_for_atoms(
    n_atoms: int,
    extent: np.ndarray,
    *,
    fill: float = 0.94,
    max_tiles: int | None = None,
) -> TileGrid:
    """Choose a core grid for ``n_atoms`` with aspect matching ``extent``.

    ``fill`` is the target occupancy (the paper's 801,792-atom runs use
    94 % of the CS-2's 850k cores); the grid's aspect ratio follows the
    projected domain so pitch is roughly isotropic.
    """
    if n_atoms < 1:
        raise ValueError(f"need at least one atom, got {n_atoms}")
    if not 0.0 < fill <= 1.0:
        raise ValueError(f"fill must be in (0, 1], got {fill}")
    ex, ey = float(extent[0]), float(extent[1])
    if ex <= 0 or ey <= 0:
        raise ValueError(f"degenerate extent {extent}")
    target = n_atoms / fill
    gx = max(1, int(np.ceil(np.sqrt(target * ex / ey))))
    gy = max(1, int(np.ceil(target / gx)))
    while gx * gy < n_atoms:
        gy += 1
    if max_tiles is not None and gx * gy > max_tiles:
        raise ValueError(
            f"{n_atoms} atoms at fill {fill} need {gx * gy} tiles, "
            f"machine has {max_tiles}"
        )
    return TileGrid(gx, gy)


def _assign_lowest(desired: np.ndarray, n_rows: int) -> np.ndarray:
    """Lowest feasible strictly-increasing assignment >= pattern.

    ``r_k = k + cummax(d_k - k)`` pushed down from the top so the tail
    fits; the minimal order-preserving assignment at or above the
    desired slots wherever possible.
    """
    m = len(desired)
    k = np.arange(m, dtype=np.int64)
    rows = k + np.maximum.accumulate(np.asarray(desired, dtype=np.int64) - k)
    return np.minimum(rows, n_rows - m + k)


def assign_rows(desired: np.ndarray, n_rows: int) -> np.ndarray:
    """Distinct, order-preserving assignment with *centered* displacement.

    ``desired`` are the (sorted ascending) preferred rows.  A one-sided
    greedy (always shift up on collision) lets displacement accumulate
    across a long run of over-demand; instead we compute the lowest and
    highest feasible assignments and take their midpoint, so local
    surpluses push half the atoms down and half up and the worst-case
    displacement stays bounded by the local overload, independent of
    system size.
    """
    m = len(desired)
    if m > n_rows:
        raise ValueError(f"{m} atoms cannot occupy {n_rows} distinct rows")
    if m == 0:
        return np.empty(0, dtype=np.int64)
    desired = np.clip(np.asarray(desired, dtype=np.int64), 0, n_rows - 1)
    low = _assign_lowest(desired, n_rows)
    # highest feasible = mirror of the lowest on the complemented pattern
    mirrored = (n_rows - 1) - desired[::-1]
    high = (n_rows - 1) - _assign_lowest(mirrored, n_rows)[::-1]
    return (low + high) // 2


@dataclass
class Mapping:
    """A one-to-one atom-to-core assignment.

    Attributes
    ----------
    grid:
        The core grid in use.
    projection:
        Fabric-plane projection (handles periodic folding).
    pitch:
        Fabric-plane length per tile, (2,).
    origin:
        Fabric-plane coordinate of core (0, 0)'s center, (2,).
    atom_core:
        Flat core index per atom, (N,).
    """

    grid: TileGrid
    projection: FabricProjection
    pitch: np.ndarray
    origin: np.ndarray
    atom_core: np.ndarray

    def __post_init__(self) -> None:
        self.atom_core = np.asarray(self.atom_core, dtype=np.int64)
        uniq = np.unique(self.atom_core)
        if len(uniq) != len(self.atom_core):
            raise ValueError("mapping is not one-to-one: duplicate cores")
        if np.any(self.atom_core < 0) or np.any(
            self.atom_core >= self.grid.n_tiles
        ):
            raise ValueError("mapping references cores outside the grid")

    @property
    def n_atoms(self) -> int:
        """Number of mapped atoms."""
        return len(self.atom_core)

    def core_xy(self) -> tuple[np.ndarray, np.ndarray]:
        """Grid coordinates (x, y) of each atom's core."""
        return self.grid.unflatten(self.atom_core)

    def core_centers(self) -> np.ndarray:
        """Fabric-plane coordinates of each atom's core center, (N, 2)."""
        cx, cy = self.core_xy()
        return self.origin + np.stack([cx, cy], axis=1) * self.pitch

    def per_atom_cost(self, positions: np.ndarray) -> np.ndarray:
        """Max-norm fabric-plane displacement of each atom (angstrom)."""
        proj = self.projection.project(positions)
        delta = np.abs(proj - self.core_centers())
        return delta.max(axis=1)

    def assignment_cost(self, positions: np.ndarray) -> float:
        """The paper's C(g): worst-case coordinate displacement."""
        return float(np.max(self.per_atom_cost(positions)))

    def occupancy(self) -> np.ndarray:
        """Boolean per-tile occupancy, shape (grid.nx, grid.ny)."""
        occ = np.zeros(self.grid.n_tiles, dtype=bool)
        occ[self.atom_core] = True
        return occ.reshape(self.grid.nx, self.grid.ny)


def layer_offsets(z: np.ndarray, *, max_layers: int = 128) -> np.ndarray | None:
    """Per-atom serpentine in-plane offsets derived from z-layers.

    A thin slab stacks many atoms above each tile footprint; they must
    spread over a small block of cores.  Doing that *consistently* —
    every atom of z-layer ``l`` shifted by the same (ox, oy) pattern
    position — keeps the offsets of interacting atoms correlated (same
    layer: identical; adjacent layers: adjacent pattern cells), which is
    what lets the required neighborhood ``b`` stay near ``r_cut/pitch``
    (the paper's b = 4 for Ta, b = 7 for Cu/W).  Returns (N, 2) offsets
    in *pattern units* (to be scaled by the pitch), or None when the
    configuration has no usable layer structure.
    """
    z = np.asarray(z, dtype=np.float64)
    span = float(z.max() - z.min()) if len(z) else 0.0
    if span < 1e-9:
        return None
    # quantize generously: layers are crystal planes, typically > 0.5 A apart
    quant = np.round((z - z.min()) / (span / 512.0)).astype(np.int64)
    uniq, inverse = np.unique(quant, return_inverse=True)
    # merge quantization bins closer than 1/64 of the span into layers
    layer_of_bin = np.zeros(len(uniq), dtype=np.int64)
    layer = 0
    for k in range(1, len(uniq)):
        if uniq[k] - uniq[k - 1] > 8:  # > span/64 apart: a new layer
            layer += 1
        layer_of_bin[k] = layer
    layers = layer_of_bin[inverse]
    n_layers = layer + 1
    if n_layers < 2 or n_layers > max_layers:
        return None
    sx = int(np.ceil(np.sqrt(n_layers)))
    sy = int(np.ceil(n_layers / sx))
    # serpentine: adjacent layers land on adjacent pattern cells
    l = np.arange(n_layers)
    oy, ox = l // sx, l % sx
    ox = np.where(oy % 2 == 1, sx - 1 - ox, ox)
    ox = ox - (sx - 1) / 2.0
    oy = oy - (sy - 1) / 2.0
    return np.stack([ox[layers], oy[layers]], axis=1)


def build_mapping(
    positions: np.ndarray,
    box: Box,
    *,
    grid: TileGrid | None = None,
    fill: float = 0.94,
    layer_aware: bool = True,
) -> Mapping:
    """Construct the locality-preserving mapping for a configuration."""
    positions = np.asarray(positions, dtype=np.float64)
    n = len(positions)
    if n == 0:
        raise ValueError("cannot map an empty configuration")
    projection = FabricProjection(box)
    proj = projection.project(positions)
    lo, hi = projection.plane_extent(positions)
    extent = np.maximum(hi - lo, 1e-9)
    if grid is None:
        grid = grid_for_atoms(n, extent, fill=fill)
    if grid.n_tiles < n:
        raise ValueError(f"grid {grid.nx}x{grid.ny} too small for {n} atoms")
    pitch = extent / np.array([grid.nx, grid.ny], dtype=np.float64)
    origin = lo + pitch / 2.0

    # Effective coordinates: project, then displace each atom by its
    # z-layer's pattern offset so stacked atoms spread consistently.
    eff = proj.copy()
    offsets = layer_offsets(positions[:, 2]) if layer_aware else None
    if offsets is not None:
        eff = eff + offsets * pitch

    # Quantile (rank) transport in both axes.  Anchoring atoms to the
    # grid cell under their projection fails on crystals: lattice
    # discreteness makes some columns systematically over-dense along
    # their whole height, and any order-preserving point assignment
    # then accumulates displacement with system size.  Rank transport
    # instead re-pitches each column to its own load, so displacement is
    # bounded by *local* density fluctuations, independent of size.
    atom_core = np.empty(n, dtype=np.int64)
    # Crystals produce large groups of atoms with *identical* effective
    # x (same lattice plane and layer, every y).  A rank cut through
    # such a group must take a y-uniform subset — splitting by storage
    # order would give adjacent columns y-skewed catches and bend the
    # mapping.  A golden-ratio tie-break key is equidistributed in y,
    # so every prefix of a tie group covers the column height evenly.
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    order_xy = np.lexsort((eff[:, 1], eff[:, 0]))
    x_sorted = eff[order_xy, 0]
    new_group = np.concatenate([[True], x_sorted[1:] != x_sorted[:-1]])
    starts = np.repeat(
        np.nonzero(new_group)[0], np.diff(np.append(np.nonzero(new_group)[0], n))
    )
    rank_in_group = np.arange(n, dtype=np.int64) - starts
    tie_break = np.empty(n)
    # golden-ratio sequence on the *rank*: every prefix of a tie group
    # sorted by this key is a uniformly spread subset of its y order
    tie_break[order_xy] = np.modf(rank_in_group * golden)[0]
    order_x = np.lexsort((tie_break, eff[:, 0]))
    columns = np.empty(n, dtype=np.int64)
    columns[order_x] = (np.arange(n, dtype=np.int64) * grid.nx) // n
    # Rows stay *anchored* to physical y (no stretch: the fill slack is
    # left wherever the atoms are not), with collisions resolved by the
    # centered order-preserving assignment.  Equal-count columns make
    # each column's y-load uniform, so no displacement accumulates.
    desired_rows = np.floor((eff[:, 1] - lo[1]) / pitch[1]).astype(np.int64)
    order = np.lexsort((eff[:, 1], desired_rows, columns))
    col_sorted = columns[order]
    boundaries = np.nonzero(np.diff(col_sorted))[0] + 1
    for seg in np.split(np.arange(n), boundaries):
        if len(seg) == 0:
            continue
        atoms = order[seg]
        col = int(col_sorted[seg[0]])
        rows = assign_rows(desired_rows[atoms], grid.ny)
        atom_core[atoms] = grid.flatten(col, rows)
    return Mapping(
        grid=grid,
        projection=projection,
        pitch=pitch,
        origin=origin,
        atom_core=atom_core,
    )
