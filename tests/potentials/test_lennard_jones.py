"""Lennard-Jones baseline potential tests."""

import numpy as np
import pytest

from repro.lattice.cells import FCC
from repro.lattice.crystals import replicate
from repro.md.boundary import Box
from repro.md.cell_list import all_pairs
from repro.md.simulation import Simulation
from repro.md.state import AtomsState
from repro.potentials.base import PairTable
from repro.potentials.lennard_jones import LennardJones


def lj_pairs(positions, pot):
    box = Box.open(np.ptp(positions, axis=0) + 10 * pot.cutoff)
    i, j, rij, r = all_pairs(positions, pot.cutoff, box)
    return PairTable(i=i, j=j, rij=rij, r=r)


class TestLennardJones:
    def test_minimum_at_r_min(self):
        lj = LennardJones()
        r_min = 2 ** (1 / 6)
        assert lj.pair_energy_force(np.array([r_min]))[1][0] == pytest.approx(
            0.0, abs=1e-12
        )

    def test_energy_shift_makes_cutoff_continuous(self):
        lj = LennardJones(cutoff=2.5)
        e, _ = lj.pair_energy_force(np.array([2.5 - 1e-9]))
        assert abs(e[0]) < 1e-6

    def test_repulsive_inside_minimum(self):
        lj = LennardJones()
        _, s = lj.pair_energy_force(np.array([0.9]))
        assert s[0] < 0  # dU/dr < 0: force pushes atoms apart

    def test_dimer_forces_match_gradient(self):
        lj = LennardJones()
        pos = np.array([[0.0, 0.0, 0.0], [1.3, 0.2, -0.1]])
        _, f = lj.compute(2, lj_pairs(pos, lj))
        eps = 1e-7
        for axis in range(3):
            e_pm = []
            for s in (-1, 1):
                p = pos.copy()
                p[1, axis] += s * eps
                e, _ = lj.compute(2, lj_pairs(p, lj))
                e_pm.append(e.sum())
            assert f[1, axis] == pytest.approx(
                -(e_pm[1] - e_pm[0]) / (2 * eps), rel=1e-4, abs=1e-8
            )

    def test_half_list_equivalence(self):
        rng = np.random.default_rng(1)
        pos = rng.uniform(0, 4.0, size=(12, 3))
        lj = LennardJones(cap=None)
        full = lj_pairs(pos, lj)
        keep = full.i < full.j
        half = PairTable(i=full.i[keep], j=full.j[keep],
                         rij=full.rij[keep], r=full.r[keep], half=True)
        e_f, f_f = lj.compute(12, full)
        e_h, f_h = lj.compute(12, half)
        assert np.allclose(e_f, e_h)
        assert np.allclose(f_f, f_h)

    @pytest.mark.parametrize("epsilon,sigma", [(1.0, 1.0), (0.0104, 3.405)])
    def test_table_matches_analytic(self, epsilon, sigma):
        """The phi table the kernels evaluate, against the analytic
        pair_energy_force on [0.85 sigma, r_c): unit LJ and argon."""
        lj = LennardJones(epsilon, sigma, 2.5 * sigma)
        r = np.linspace(0.85 * sigma, lj.cutoff, 200_001)[:-1]
        e, d = lj.pair_energy_force(r)
        v, g = lj.tables.phi_for(0, 0).evaluate(r)
        assert np.max(np.abs(v - e)) <= 1e-8 * epsilon
        assert np.max(np.abs(g - d)) <= 5e-5 * epsilon / sigma

    def test_engine_energy_matches_analytic(self):
        """The reference engine's energy (the fused kernels of the active
        tier over the phi table) against the analytic pair sum, within
        the table's error per pair."""
        rng = np.random.default_rng(3)
        crystal = replicate(FCC, 1.55, (3, 3, 3))
        pos = crystal.positions + rng.normal(0.0, 0.03, crystal.positions.shape)
        lj = LennardJones()
        box = Box.open(np.ptp(pos, axis=0) + 10 * lj.cutoff)
        sim = Simulation(AtomsState.from_positions(pos, box, mass=40.0), lj)
        i, j, _, r = all_pairs(pos, lj.cutoff, box)
        e, _ = lj.pair_energy_force(r)
        assert np.min(r) > 0.85
        assert sim.potential_energy() == pytest.approx(
            0.5 * e.sum(), abs=0.5 * len(r) * 1e-8)

    def test_default_cap_is_the_first_knot(self):
        """No pair is evaluated below the table: two heavy atoms closing
        0.9 A a step from sigma apart stop the run at the cap."""
        lj = LennardJones(sigma=2.0, cutoff=5.0)
        assert lj.cap.r_min == lj.tables.phi_for(0, 0).x0 == 1.0
        state = AtomsState(
            positions=np.array([[10.0, 10.0, 10.0], [12.0, 10.0, 10.0]]),
            velocities=np.array([[225.0, 0.0, 0.0], [-225.0, 0.0, 0.0]]),
            types=np.zeros(2, dtype=np.int64), masses=np.array([1e9]),
            box=Box.open(np.full(3, 30.0)))
        sim = Simulation(state, lj)
        with pytest.raises(FloatingPointError, match="overlapping"):
            sim.run(5)
        assert sim.step_count == 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LennardJones(epsilon=-1.0)
        with pytest.raises(ValueError):
            LennardJones(cutoff=0.5, sigma=1.0)

    def test_fcc_lattice_is_bound(self):
        """An FCC LJ crystal near its known optimum has negative energy."""
        from repro.lattice.cells import FCC
        from repro.lattice.crystals import replicate
        lj = LennardJones(cutoff=3.0)
        a = 1.54  # near LJ-FCC equilibrium (~1.542 sigma at rc=3)
        crystal = replicate(FCC, a, (4, 4, 4))
        box = Box(crystal.box, periodic=[True] * 3, origin=np.zeros(3))
        i, j, rij, r = all_pairs(crystal.positions, lj.cutoff, box)
        pairs = PairTable(i=i, j=j, rij=rij, r=r)
        e, f = lj.compute(crystal.n_atoms, pairs)
        assert e.sum() / crystal.n_atoms < -5.0  # cohesive LJ fcc ~ -8 eps
        assert np.max(np.abs(f)) < 1e-8
