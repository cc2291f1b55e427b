"""Potential interface shared by EAM and pairwise potentials.

A :class:`Potential` consumes a *pair table* — flat arrays describing all
interacting (i, j) pairs within the cutoff — and produces per-atom
energies and forces.  The pair table abstraction lets the same kernels
serve the reference MD engine (cell-list neighbor search) and the
lockstep WSE simulator (candidate-neighborhood search), which is exactly
the property the paper exploits: the physics is independent of how
neighbors were found.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = ["PairTable", "Potential", "PairDistanceCap"]


@dataclass
class PairTable:
    """Flat pair list for force evaluation.

    Attributes
    ----------
    i, j:
        Atom indices of each directed pair.  Full (double-counted) lists
        contain both (i, j) and (j, i); ``half`` marks lists that contain
        each pair once.
    rij:
        Displacement vectors ``r_j - r_i`` for each pair, shape (P, 3).
    r:
        Euclidean pair distances, shape (P,).
    half:
        Whether each undirected pair appears once (True) or twice.
    """

    i: np.ndarray
    j: np.ndarray
    rij: np.ndarray
    r: np.ndarray
    half: bool = False

    def __post_init__(self) -> None:
        p = len(self.i)
        if not (len(self.j) == p and self.rij.shape == (p, 3) and len(self.r) == p):
            raise ValueError(
                "inconsistent pair table shapes: "
                f"i={len(self.i)} j={len(self.j)} rij={self.rij.shape} r={len(self.r)}"
            )

    @property
    def n_pairs(self) -> int:
        """Number of stored (directed or half) pairs."""
        return len(self.i)

    def directed(self) -> "PairTable":
        """A directed (double-counted) view of this table.

        The hot paths store each undirected pair once; consumers that
        index per-atom neighborhoods directly (RDF histograms,
        centro-symmetry sorting) still want both (i, j) and (j, i).
        Returns ``self`` unchanged when already directed.
        """
        if not self.half:
            return self
        return PairTable(
            i=np.concatenate([self.i, self.j]),
            j=np.concatenate([self.j, self.i]),
            rij=np.concatenate([self.rij, -self.rij]),
            r=np.concatenate([self.r, self.r]),
            half=False,
        )


@dataclass
class PairDistanceCap:
    """Guard against unphysically close approaches.

    EAM spline tables start at a small but nonzero distance; pairs below
    ``r_min`` indicate a broken configuration (overlapping atoms).  The
    kernels raise rather than silently extrapolating into garbage.
    """

    r_min: float = 0.25

    def check(self, r: np.ndarray) -> None:
        """Raise ``FloatingPointError`` if any distance is below the cap."""
        if len(r) and float(np.min(r)) < self.r_min:
            raise FloatingPointError(
                f"pair distance {float(np.min(r)):.4f} A below minimum "
                f"{self.r_min} A: atoms are overlapping"
            )


class Potential(ABC):
    """Abstract interatomic potential.

    Concrete implementations provide per-atom potential energies and
    forces from a :class:`PairTable`.  ``cutoff`` is the interaction
    cutoff radius in angstroms; neighbor searches must include every pair
    with ``r < cutoff``.
    """

    @property
    @abstractmethod
    def cutoff(self) -> float:
        """Interaction cutoff radius (A)."""

    @abstractmethod
    def compute(
        self,
        n_atoms: int,
        pairs: PairTable,
        types: np.ndarray | None = None,
        *,
        tracer=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-atom energies (N,) and forces (N, 3) from a pair table.

        A ``tracer`` (:mod:`repro.obs`) receives the work as the phase
        taxonomy's spans: ``density``, ``embedding`` and ``pair_force``.
        """

    @abstractmethod
    def bank_tables(self, n_atoms: int, types: np.ndarray | None = None):
        """The packed spline banks the registry's ``md_step`` kernel
        evaluates this potential through."""
