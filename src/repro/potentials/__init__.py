"""Interatomic potentials: tabulated EAM, analytic builders, and LJ.

The Embedded Atom Method implementation mirrors the paper's structure
(Sec. II-A): per-type electron-density splines ``rho_i(r)``, embedding
splines ``F_i(rho)``, and per-pair interaction splines ``phi_ij(r)``,
all represented as polynomial spline tables (:mod:`repro.potentials.spline`).

Potentials for the paper's three benchmark metals (Cu, W, Ta) are
constructed from material data via the Rose universal equation of state
(:mod:`repro.potentials.builder`); see DESIGN.md for why this substitution
preserves the published interaction counts and crystal behaviour.
:mod:`repro.potentials.setfl` writes these tables as LAMMPS ``eam/alloy``
files and reads such files back, and :class:`LennardJones` is the
Sec. II-B small-system baseline.
"""

from repro.potentials.spline import UniformCubicSpline
from repro.potentials.base import Potential, PairDistanceCap
from repro.potentials.eam import EAMPotential, EAMTables
from repro.potentials.builder import build_rose_eam
from repro.potentials.elements import (
    ELEMENTS,
    ElementData,
    make_element_potential,
)
from repro.potentials.lennard_jones import LennardJones

__all__ = [
    "UniformCubicSpline",
    "Potential",
    "PairDistanceCap",
    "EAMPotential",
    "EAMTables",
    "build_rose_eam",
    "ELEMENTS",
    "ElementData",
    "make_element_potential",
    "LennardJones",
]
