"""Mutable per-atom simulation state.

Positions and velocities are stored as (N, 3) float64 arrays, in both
engines: the paper's WSE code uses FP32 throughout, which the lockstep
simulator models only in its SRAM and FLOP accounting, so that either
engine can serve as the other's accuracy baseline (Sec. II-B notes
production codes often mix FP32 forces with FP64 integration).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import MVV2E, kinetic_energy_to_temperature
from repro.md.boundary import Box

__all__ = ["AtomsState"]


@dataclass
class AtomsState:
    """Positions, velocities, types and masses of all atoms.

    Attributes
    ----------
    positions, velocities:
        (N, 3) arrays in angstrom and angstrom/ps.
    types:
        (N,) integer type indices.
    masses:
        Per-*type* masses (g/mol): ``masses[types[i]]`` is atom i's mass.
    box:
        Simulation box and boundary conditions.
    ids:
        Stable atom identities (the WSE mapping permutes storage order;
        ids let trajectories be compared atom-by-atom).
    """

    positions: np.ndarray
    velocities: np.ndarray
    types: np.ndarray
    masses: np.ndarray
    box: Box
    ids: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.positions = np.ascontiguousarray(self.positions, dtype=np.float64)
        self.velocities = np.ascontiguousarray(self.velocities, dtype=np.float64)
        self.types = np.ascontiguousarray(self.types, dtype=np.int64)
        self.masses = np.atleast_1d(np.asarray(self.masses, dtype=np.float64))
        n = len(self.positions)
        if self.positions.shape != (n, 3):
            raise ValueError(f"positions must be (N, 3), got {self.positions.shape}")
        if self.velocities.shape != (n, 3):
            raise ValueError(
                f"velocities shape {self.velocities.shape} != positions {self.positions.shape}"
            )
        if self.types.shape != (n,):
            raise ValueError(f"types must be (N,), got {self.types.shape}")
        if len(self.masses) and (
            np.any(self.types < 0) or np.any(self.types >= len(self.masses))
        ):
            raise ValueError(
                f"types reference masses outside [0, {len(self.masses)})"
            )
        if np.any(self.masses <= 0):
            raise ValueError(f"masses must be positive, got {self.masses}")
        if self.ids is None:
            self.ids = np.arange(n, dtype=np.int64)
        else:
            self.ids = np.ascontiguousarray(self.ids, dtype=np.int64)
            if self.ids.shape != (n,):
                raise ValueError(f"ids must be (N,), got {self.ids.shape}")

    @classmethod
    def from_positions(
        cls,
        positions: np.ndarray,
        box: Box,
        *,
        mass: float = 1.0,
        types: np.ndarray | None = None,
        masses: np.ndarray | None = None,
    ) -> "AtomsState":
        """Zero-velocity state, single type unless ``types`` given."""
        positions = np.asarray(positions, dtype=np.float64)
        n = len(positions)
        if types is None:
            types = np.zeros(n, dtype=np.int64)
        if masses is None:
            masses = np.array([mass], dtype=np.float64)
        return cls(
            positions=positions,
            velocities=np.zeros((n, 3)),
            types=np.asarray(types),
            masses=np.asarray(masses),
            box=box,
        )

    @property
    def n_atoms(self) -> int:
        """Number of atoms."""
        return len(self.positions)

    @property
    def atom_masses(self) -> np.ndarray:
        """Per-atom masses (N,), expanded from per-type masses."""
        return self.masses[self.types]

    def kinetic_energy(self) -> float:
        """Total kinetic energy (eV)."""
        v2 = np.einsum("ij,ij->i", self.velocities, self.velocities)
        return float(0.5 * MVV2E * np.sum(self.atom_masses * v2))

    def temperature(self) -> float:
        """Instantaneous temperature (K), 3N degrees of freedom."""
        return kinetic_energy_to_temperature(self.kinetic_energy(), 3 * self.n_atoms)

    def momentum(self) -> np.ndarray:
        """Total momentum vector (g/mol * A/ps)."""
        return (self.atom_masses[:, None] * self.velocities).sum(axis=0)

    def copy(self) -> "AtomsState":
        """Deep copy (box shared: boxes are not mutated by integration)."""
        return AtomsState(
            positions=self.positions.copy(),
            velocities=self.velocities.copy(),
            types=self.types.copy(),
            masses=self.masses.copy(),
            box=self.box,
            ids=self.ids.copy(),
        )

    def reorder(self, perm: np.ndarray) -> "AtomsState":
        """New state with atoms permuted by ``perm`` (ids follow atoms)."""
        perm = np.asarray(perm)
        if sorted(perm.tolist()) != list(range(self.n_atoms)):
            raise ValueError("perm must be a permutation of all atom indices")
        return AtomsState(
            positions=self.positions[perm],
            velocities=self.velocities[perm],
            types=self.types[perm],
            masses=self.masses.copy(),
            box=self.box,
            ids=self.ids[perm],
        )
