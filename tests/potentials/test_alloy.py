"""Binary alloy mixing + multi-type engine paths (W-Ta)."""

import numpy as np
import pytest

from repro.core.wse_md import WseMd
from repro.lattice.cells import BCC
from repro.lattice.crystals import replicate
from repro.md.boundary import Box
from repro.md.cell_list import all_pairs
from repro.md.simulation import Simulation
from repro.md.state import AtomsState
from repro.md.thermostat import maxwell_boltzmann_velocities
from repro.potentials.alloy import mix_tables
from repro.potentials.base import PairTable
from repro.potentials.eam import EAMPotential
from repro.potentials.elements import ELEMENTS, make_element_tables
from tests.conftest import total_energy


@pytest.fixture(scope="module")
def wta_tables():
    return mix_tables(make_element_tables("W"), make_element_tables("Ta"))


@pytest.fixture(scope="module")
def wta_potential(wta_tables):
    return EAMPotential(wta_tables)


def alloy_state(seed=0, temperature=0.0):
    """Random W/Ta solid solution on a BCC lattice at the mean a0."""
    a = 0.5 * (ELEMENTS["W"].lattice_constant + ELEMENTS["Ta"].lattice_constant)
    crystal = replicate(BCC, a, (8, 8, 3))
    rng = np.random.default_rng(seed)
    types = (rng.random(crystal.n_atoms) < 0.5).astype(np.int64)
    box = Box.open(crystal.box + 25.0)
    state = AtomsState(
        positions=crystal.positions - crystal.box / 2,
        velocities=np.zeros((crystal.n_atoms, 3)),
        types=types,
        masses=np.array([ELEMENTS["W"].mass, ELEMENTS["Ta"].mass]),
        box=box,
    )
    if temperature > 0:
        maxwell_boltzmann_velocities(state, temperature, rng)
    return state


class TestMixing:
    def test_two_types(self, wta_tables):
        assert wta_tables.n_types == 2
        assert (0, 1) in wta_tables.phi

    def test_pure_components_preserved(self, wta_tables):
        w = make_element_tables("W")
        r = np.linspace(2.0, w.cutoff * 0.95, 50)
        assert np.allclose(wta_tables.phi[(0, 0)](r), w.phi[(0, 0)](r),
                           atol=1e-6)
        assert np.allclose(wta_tables.rho[0](r), w.rho[0](r), atol=1e-8)

    def test_cross_pair_between_pure_pairs(self, wta_tables):
        """Johnson mixing interpolates the two like-pair interactions."""
        r = np.linspace(2.4, 3.6, 30)
        ab = wta_tables.phi[(0, 1)](r)
        aa = wta_tables.phi[(0, 0)](r)
        bb = wta_tables.phi[(1, 1)](r)
        lo = np.minimum(aa, bb)
        hi = np.maximum(aa, bb)
        # within the envelope up to the density-ratio weighting
        assert np.all(ab >= lo * 0.2 - 1e-9)
        assert np.all(ab <= hi * 5.0 + 1e-9)

    def test_cross_pair_vanishes_beyond_smaller_cutoff(self, wta_tables):
        r = np.array([wta_tables.meta["cross_cutoff"] + 0.1])
        # spline ringing at the truncation knot is allowed to be tiny
        assert abs(wta_tables.phi[(0, 1)](r)[0]) < 1e-6

    def test_rejects_multielement_inputs(self, wta_tables):
        with pytest.raises(ValueError, match="single-element"):
            mix_tables(wta_tables, make_element_tables("W"))


class TestAlloyPhysics:
    def test_forces_match_numerical_gradient(self, wta_potential):
        state = alloy_state()
        # perturb so forces are nonzero
        rng = np.random.default_rng(1)
        pos = state.positions + rng.normal(scale=0.05,
                                           size=state.positions.shape)

        def energy(p):
            i, j, rij, r = all_pairs(p, wta_potential.cutoff, state.box)
            return total_energy(wta_potential, len(p),
                                PairTable(i=i, j=j, rij=rij, r=r), state.types)

        i, j, rij, r = all_pairs(pos, wta_potential.cutoff, state.box)
        _, forces = wta_potential.compute(
            len(pos), PairTable(i=i, j=j, rij=rij, r=r), state.types
        )
        eps = 1e-6
        for atom in (0, 17):
            for axis in range(3):
                p1, p2 = pos.copy(), pos.copy()
                p1[atom, axis] -= eps
                p2[atom, axis] += eps
                f_num = -(energy(p2) - energy(p1)) / (2 * eps)
                assert forces[atom, axis] == pytest.approx(
                    f_num, rel=1e-4, abs=1e-6
                )

    def test_alloy_is_bound(self, wta_potential):
        state = alloy_state()
        i, j, rij, r = all_pairs(state.positions, wta_potential.cutoff,
                                 state.box)
        e = total_energy(wta_potential, state.n_atoms,
                         PairTable(i=i, j=j, rij=rij, r=r), state.types)
        # cohesive: between the two pure cohesive energies, roughly
        assert -9.5 < e / state.n_atoms < -5.0


class TestAlloyOnTheWafer:
    def test_multitype_lockstep_matches_reference(self, wta_potential):
        """The WseMd multi-type paths against the reference engine."""
        state = alloy_state(temperature=250.0, seed=3)
        wse = WseMd(state.copy(), wta_potential, dt_fs=2.0)
        ref = Simulation(state.copy(), wta_potential, dt_fs=2.0, skin=0.6)
        from tests.oracles import compare_trajectories
        cmp = compare_trajectories(state, wse, ref, 15)
        assert cmp.max_position_error < 1e-10
        assert cmp.energy_error < 1e-8

    def test_multitype_force_symmetry_mode(self, wta_potential):
        state = alloy_state(temperature=250.0, seed=4)
        full = WseMd(state.copy(), wta_potential)
        half = WseMd(state.copy(), wta_potential, force_symmetry=True)
        full.step(5)
        half.step(5)
        a = full.gather_state()
        b = half.gather_state()
        assert np.abs(a.positions - b.positions).max() < 1e-10

    def test_types_travel_with_swapped_atoms(self, wta_potential):
        state = alloy_state(temperature=400.0, seed=5)
        wse = WseMd(state.copy(), wta_potential, swap_interval=5,
                    b_margin=2.0)
        wse.step(20)
        out = wse.gather_state()
        order = np.argsort(state.ids)
        assert np.array_equal(out.types, state.types[order])
