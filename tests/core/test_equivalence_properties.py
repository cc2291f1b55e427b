"""Property-based engine equivalence: random configs, random settings.

hypothesis drives the whole stack — random slab sizes, temperatures,
elements, swap settings — asserting the lockstep wafer machine always
reproduces the reference engine's trajectory.  This is the repo's
strongest single guarantee: the wafer mapping changes *where* arithmetic
happens, never *what* is computed.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.wse_md import WseMd
from repro.md.simulation import Simulation
from tests.conftest import small_slab_state
from tests.oracles import compare_trajectories


@st.composite
def workload(draw):
    element = draw(st.sampled_from(["Ta", "Cu", "W"]))
    nx = draw(st.integers(4, 7))
    ny = draw(st.integers(4, 7))
    nz = draw(st.integers(2, 3))
    temperature = draw(st.sampled_from([0.0, 150.0, 350.0]))
    seed = draw(st.integers(0, 100))
    swap_interval = draw(st.sampled_from([0, 4]))
    symmetry = draw(st.booleans())
    return element, (nx, ny, nz), temperature, seed, swap_interval, symmetry


class TestEngineEquivalence:
    @given(w=workload())
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_wafer_machine_equals_reference(self, w, element_potentials):
        element, reps, temperature, seed, swap_interval, symmetry = w
        pot = element_potentials[element]
        state = small_slab_state(element, reps, temperature, seed=seed)
        wse = WseMd(
            state.copy(), pot, dt_fs=2.0, swap_interval=swap_interval,
            force_symmetry=symmetry, b_margin=2.0,
        )
        ref = Simulation(state.copy(), pot, dt_fs=2.0, skin=0.8)
        cmp = compare_trajectories(state, wse, ref, 8)
        assert cmp.max_position_error < 1e-9, w
        assert cmp.max_velocity_error < 1e-9, w

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=8, deadline=None)
    def test_gas_configurations_also_equal(self, seed, ta_potential):
        """Non-crystal (no layer structure) configurations."""
        from repro.md.boundary import Box
        from repro.md.state import AtomsState
        from repro.md.thermostat import maxwell_boltzmann_velocities

        rng = np.random.default_rng(seed)
        n = 60
        pos = rng.uniform(-15, 15, (n, 3)) * [1.0, 1.0, 0.15]
        # enforce a minimum separation to keep the potential in range
        from scipy.spatial.distance import pdist
        tries = 0
        while pdist(pos).min() < 1.9 and tries < 300:
            pos = rng.uniform(-15, 15, (n, 3)) * [1.0, 1.0, 0.15]
            tries += 1
        if pdist(pos).min() < 1.9:
            return  # could not build a valid random configuration
        box = Box.open([60, 60, 30])
        state = AtomsState.from_positions(pos, box, mass=180.95)
        maxwell_boltzmann_velocities(state, 100.0, rng)
        wse = WseMd(state.copy(), ta_potential, dt_fs=1.0, b_margin=2.0)
        ref = Simulation(state.copy(), ta_potential, dt_fs=1.0, skin=0.8)
        cmp = compare_trajectories(state, wse, ref, 5)
        assert cmp.max_position_error < 1e-9
