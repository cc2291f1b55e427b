"""Langevin thermostat: stochastic dynamics at fixed temperature.

The BBK discretization adds a friction and a fluctuation term to the
leap-frog velocity update:

    v <- v (1 - gamma dt) + a dt + sqrt(2 gamma k_B T dt / (m MVV2E)) xi

with ``xi`` standard normal per component.  Useful for equilibrating
grain-boundary structures where local heating (surface relaxation,
boundary reconstruction) would otherwise drive the temperature far from
target — gentler and more local than global velocity rescaling.
"""

from __future__ import annotations

import numpy as np

from repro.constants import KB_EV, MVV2E
from repro.md.state import AtomsState

__all__ = ["LangevinThermostat"]


class LangevinThermostat:
    """Stochastic friction + noise applied after each integration step.

    Parameters
    ----------
    temperature:
        Target temperature (K).
    damping_fs:
        Relaxation time 1/gamma in femtoseconds (LAMMPS ``fix langevin``
        convention).
    seed:
        RNG seed; runs are deterministic given the seed.
    rng:
        Pre-built generator to draw noise from (wins over ``seed``).
        The runtime passes its "thermostat" seed stream here so the
        noise sequence is checkpointable.
    """

    def __init__(
        self,
        temperature: float,
        damping_fs: float = 100.0,
        seed: int = 0,
        rng: np.random.Generator | None = None,
    ) -> None:
        if temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {temperature}")
        if damping_fs <= 0:
            raise ValueError(f"damping must be positive, got {damping_fs}")
        self.temperature = float(temperature)
        self.damping_ps = damping_fs / 1000.0
        self._rng = rng if rng is not None else np.random.default_rng(seed)

    def apply(self, state: AtomsState, dt_fs: float) -> None:
        """One friction + fluctuation kick, in place."""
        dt = dt_fs / 1000.0
        gamma = 1.0 / self.damping_ps
        if gamma * dt >= 1.0:
            raise ValueError(
                f"timestep {dt_fs} fs too large for damping "
                f"{self.damping_ps * 1000} fs (gamma dt >= 1)"
            )
        m = state.atom_masses[:, None]
        state.velocities *= 1.0 - gamma * dt
        if self.temperature > 0.0:
            sigma = np.sqrt(
                2.0 * gamma * KB_EV * self.temperature * dt / (m * MVV2E)
            )
            state.velocities += sigma * self._rng.standard_normal(
                state.velocities.shape
            )
