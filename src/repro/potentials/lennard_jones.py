"""Lennard-Jones pair potential (paper Sec. II-B baseline).

The paper cites LAMMPS LJ rates for 1k-atom systems as the conventional
strong-scaling limit (<10k steps/s on a V100, ~25k steps/s on a
dual-socket CPU).  We include LJ so the small-system rate comparison
benchmark can run the identical workload.

LJ is one more set of EAM tables: a phi spline of the shifted 12-6
energy, and zero rho and F splines.  So it steps through the same
kernels as every other potential (the registry's ``md_step`` in the
reference engine), and :meth:`LennardJones.pair_energy_force` is the
analytic source the table is built from.
"""

from __future__ import annotations

import numpy as np

from repro.potentials.base import PairDistanceCap
from repro.potentials.eam import EAMPotential, EAMTables
from repro.potentials.spline import UniformCubicSpline

__all__ = ["LennardJones"]

#: The phi table's uniform knots, from ``TABLE_START`` sigma to the
#: cutoff.  Against :meth:`LennardJones.pair_energy_force` on
#: [0.85 sigma, r_c) the table is off by at most 5.3e-9 eps in energy
#: and 3.1e-5 eps/sigma in force; the force error is O(h) near r_c,
#: where the natural end condition forces zero curvature.
TABLE_KNOTS = 2001
#: The first knot, in sigma.  It is also the default distance cap, so no
#: pair is evaluated below the table.
TABLE_START = 0.5


class LennardJones(EAMPotential):
    """Truncated, energy-shifted 12-6 Lennard-Jones potential.

        U(r) = 4 eps [ (sigma/r)^12 - (sigma/r)^6 ] - U(rc)   for r < rc,

    evaluated from its phi table (see :data:`TABLE_KNOTS`).
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
        sr6 = (sigma / cutoff) ** 6
        self.shift = 4.0 * epsilon * (sr6 * sr6 - sr6)
        r0 = TABLE_START * self.sigma
        h = (self._cutoff - r0) / (TABLE_KNOTS - 1)
        phi, _ = self.pair_energy_force(r0 + h * np.arange(TABLE_KNOTS))
        zero = UniformCubicSpline(r0, self._cutoff - r0, np.zeros(2))
        tables = EAMTables(
            rho=[zero],
            embed=[UniformCubicSpline(0.0, 1.0, np.zeros(2))],
            phi={(0, 0): UniformCubicSpline(r0, h, phi)},
            cutoff=self._cutoff,
        )
        super().__init__(tables, cap or PairDistanceCap(r_min=r0))

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
