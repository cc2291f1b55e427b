"""Lennard-Jones pair potential (paper Sec. II-B baseline).

The paper cites LAMMPS LJ rates for 1k-atom systems as the conventional
strong-scaling limit (<10k steps/s on a V100, ~25k steps/s on a
dual-socket CPU).  We include LJ so the small-system rate comparison
benchmark can run the identical workload.
"""

from __future__ import annotations

import numpy as np

from repro.obs import NULL_TRACER
from repro.potentials.base import PairDistanceCap, PairTable, Potential

__all__ = ["LennardJones"]


class LennardJones(Potential):
    """Truncated, energy-shifted 12-6 Lennard-Jones potential.

        U(r) = 4 eps [ (sigma/r)^12 - (sigma/r)^6 ] - U(rc)   for r < rc.
    """

    def __init__(
        self,
        epsilon: float = 1.0,
        sigma: float = 1.0,
        cutoff: float = 2.5,
        cap: PairDistanceCap | None = None,
    ) -> None:
        if epsilon <= 0 or sigma <= 0:
            raise ValueError(f"epsilon/sigma must be positive: {epsilon}, {sigma}")
        if cutoff <= sigma:
            raise ValueError(f"cutoff {cutoff} must exceed sigma {sigma}")
        self.epsilon = float(epsilon)
        self.sigma = float(sigma)
        self._cutoff = float(cutoff)
        self.cap = cap or PairDistanceCap(r_min=0.05 * sigma)
        sr6 = (sigma / cutoff) ** 6
        self.shift = 4.0 * epsilon * (sr6 * sr6 - sr6)

    @property
    def cutoff(self) -> float:
        return self._cutoff

    def pair_energy_force(
        self, r: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fused shifted energy and dU/dr from a single ``(sigma/r)^6``."""
        r = np.asarray(r, dtype=np.float64)
        sr6 = (self.sigma / r) ** 6
        sr12 = sr6 * sr6
        within = r < self._cutoff
        e = np.where(within, 4.0 * self.epsilon * (sr12 - sr6) - self.shift, 0.0)
        d = np.where(
            within, -24.0 * self.epsilon * (2.0 * sr12 - sr6) / r, 0.0
        )
        return e, d

    def compute(
        self,
        n_atoms: int,
        pairs: PairTable,
        types: np.ndarray | None = None,
        *,
        tracer=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        tr = tracer if tracer is not None else NULL_TRACER
        with tr.phase("pair_force", pairs=pairs.n_pairs):
            self.cap.check(pairs.r)
            energies = np.zeros(n_atoms, dtype=np.float64)
            forces = np.zeros((n_atoms, 3), dtype=np.float64)
            if pairs.n_pairs == 0:
                return energies, forces
            e, s = self.pair_energy_force(pairs.r)
            unit = pairs.rij / pairs.r[:, None]
            fvec = s[:, None] * unit
            for axis in range(3):
                forces[:, axis] += np.bincount(
                    pairs.i, weights=fvec[:, axis], minlength=n_atoms
                )
            if pairs.half:
                for axis in range(3):
                    forces[:, axis] -= np.bincount(
                        pairs.j, weights=fvec[:, axis], minlength=n_atoms
                    )
                ends = (pairs.i, pairs.j)
            else:
                ends = (pairs.i,)
            for end in ends:
                energies += 0.5 * np.bincount(end, weights=e, minlength=n_atoms)
            return energies, forces
