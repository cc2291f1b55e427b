"""Reference molecular dynamics engine (vectorized NumPy).

This engine plays the role LAMMPS plays in the paper: the trusted
implementation that defines correct trajectories.  The WSE lockstep
simulator (:mod:`repro.core`) is validated against it — identical
physics, radically different parallel decomposition.

Pipeline per timestep: neighbor search (cell list + Verlet list with
skin) -> EAM force evaluation -> Verlet leap-frog integration (Eq. 5).
"""

from repro.md.state import AtomsState
from repro.md.boundary import Box
from repro.md.cell_list import CellList
from repro.md.neighbor_list import NeighborList
from repro.md.integrators import LeapfrogVerlet, VelocityVerlet
from repro.md.thermostat import (
    maxwell_boltzmann_velocities,
    rescale_to_temperature,
    BerendsenThermostat,
)
from repro.md.langevin import LangevinThermostat
from repro.md.simulation import Simulation

__all__ = [
    "AtomsState",
    "Box",
    "CellList",
    "NeighborList",
    "LeapfrogVerlet",
    "VelocityVerlet",
    "maxwell_boltzmann_velocities",
    "rescale_to_temperature",
    "BerendsenThermostat",
    "LangevinThermostat",
    "Simulation",
]
