"""EAM kernel tests: staging, forces vs numerical gradients, half lists."""

import numpy as np
import pytest

from repro.md.boundary import Box
from repro.md.cell_list import all_pairs
from repro.potentials.base import PairTable, Potential
from repro.potentials.eam import EAMPotential, EAMTables
from repro.potentials.elements import make_element_tables
from tests.conftest import total_energy


def pair_table_for(positions, cutoff, box=None, half=False):
    box = box or Box.open(np.ptp(positions, axis=0) + 10 * cutoff)
    i, j, rij, r = all_pairs(positions, cutoff, box)
    if half:
        keep = i < j
        return PairTable(i=i[keep], j=j[keep], rij=rij[keep], r=r[keep], half=True)
    return PairTable(i=i, j=j, rij=rij, r=r, half=False)


@pytest.fixture(scope="module")
def ta_tables():
    return make_element_tables("Ta")


@pytest.fixture(scope="module")
def ta_pot(ta_tables):
    return EAMPotential(ta_tables)


class TestTables:
    def test_missing_phi_rejected(self, ta_tables):
        with pytest.raises(ValueError, match="missing phi"):
            EAMTables(rho=ta_tables.rho, embed=ta_tables.embed, phi={},
                      cutoff=ta_tables.cutoff)

    def test_mismatched_types_rejected(self, ta_tables):
        with pytest.raises(ValueError, match="embedding tables"):
            EAMTables(rho=ta_tables.rho, embed=[], phi=ta_tables.phi,
                      cutoff=ta_tables.cutoff)

    def test_phi_symmetric_lookup(self, ta_tables):
        assert ta_tables.phi_for(0, 0) is ta_tables.phi[(0, 0)]

    def test_sram_footprint_positive(self, ta_tables):
        assert ta_tables.sram_bytes() > 0


class TestDimerPhysics:
    """Two Ta atoms: everything can be computed by hand from the tables."""

    def test_energy_decomposition(self, ta_pot, ta_tables):
        r = 2.9
        pos = np.array([[0.0, 0.0, 0.0], [r, 0.0, 0.0]])
        pairs = pair_table_for(pos, ta_tables.cutoff)
        e, f = ta_pot.compute(2, pairs)
        rho = float(ta_tables.rho[0](np.array([r]))[0])
        f_embed = float(ta_tables.embed[0](np.array([rho]))[0])
        phi = float(ta_tables.phi[(0, 0)](np.array([r]))[0])
        assert e[0] == pytest.approx(f_embed + 0.5 * phi, rel=1e-10)
        assert e[1] == pytest.approx(e[0])

    def test_forces_equal_and_opposite(self, ta_pot, ta_tables):
        pos = np.array([[0.0, 0.0, 0.0], [2.9, 0.5, -0.3]])
        pairs = pair_table_for(pos, ta_tables.cutoff)
        _, f = ta_pot.compute(2, pairs)
        assert np.allclose(f[0], -f[1], atol=1e-12)

    def test_force_matches_numerical_gradient(self, ta_pot, ta_tables):
        pos = np.array([[0.0, 0.0, 0.0], [2.9, 0.0, 0.0]])
        pairs = pair_table_for(pos, ta_tables.cutoff)
        _, f = ta_pot.compute(2, pairs)
        eps = 1e-6
        energies = []
        for dx in (-eps, eps):
            p = pos.copy()
            p[1, 0] += dx
            pr = pair_table_for(p, ta_tables.cutoff)
            energies.append(total_energy(ta_pot, 2, pr))
        f_num = -(energies[1] - energies[0]) / (2 * eps)
        assert f[1, 0] == pytest.approx(f_num, rel=1e-5)

    def test_beyond_cutoff_no_interaction(self, ta_pot, ta_tables):
        pos = np.array([[0.0, 0.0, 0.0], [ta_tables.cutoff + 0.1, 0.0, 0.0]])
        pairs = pair_table_for(pos, ta_tables.cutoff)
        assert pairs.n_pairs == 0


class TestClusterForces:
    def test_forces_match_numerical_gradient_random_cluster(self, ta_pot, ta_tables):
        rng = np.random.default_rng(3)
        # compressed-ish cluster with all pairs safely above the cap
        pos = rng.uniform(0, 6.0, size=(8, 3))
        from scipy.spatial.distance import pdist
        while pdist(pos).min() < 1.8:
            pos = rng.uniform(0, 6.0, size=(8, 3))
        pairs = pair_table_for(pos, ta_tables.cutoff)
        _, forces = ta_pot.compute(8, pairs)
        eps = 1e-6
        for atom in (0, 3, 7):
            for axis in range(3):
                e_pm = []
                for s in (-1, 1):
                    p = pos.copy()
                    p[atom, axis] += s * eps
                    e_pm.append(
                        total_energy(ta_pot, 8,
                                     pair_table_for(p, ta_tables.cutoff))
                    )
                f_num = -(e_pm[1] - e_pm[0]) / (2 * eps)
                assert forces[atom, axis] == pytest.approx(
                    f_num, rel=1e-4, abs=1e-7
                )

    def test_newtons_third_law_total_force_zero(self, ta_pot, ta_tables):
        rng = np.random.default_rng(5)
        pos = rng.uniform(0, 8.0, size=(20, 3)) * [1, 1, 0.4]
        pairs = pair_table_for(pos, ta_tables.cutoff)
        _, forces = ta_pot.compute(20, pairs)
        assert np.allclose(forces.sum(axis=0), 0.0, atol=1e-10)


class TestHalfList:
    def test_half_list_matches_full_list(self, ta_pot, ta_tables):
        rng = np.random.default_rng(11)
        pos = rng.uniform(0, 9.0, size=(15, 3))
        full = pair_table_for(pos, ta_tables.cutoff, half=False)
        half = pair_table_for(pos, ta_tables.cutoff, half=True)
        e_f, f_f = ta_pot.compute(15, full)
        e_h, f_h = ta_pot.compute(15, half)
        assert np.allclose(e_f, e_h, atol=1e-10)
        assert np.allclose(f_f, f_h, atol=1e-10)


class TestStages:
    def test_staged_equals_composed(self, ta_pot, ta_tables):
        rng = np.random.default_rng(2)
        pos = rng.uniform(0, 7.0, size=(10, 3))
        pairs = pair_table_for(pos, ta_tables.cutoff)
        rho = ta_pot.accumulate_density(10, pairs)
        f_val, f_der = ta_pot.embed(rho)
        e_pair, forces = ta_pot.pair_energy_forces(10, pairs, f_der)
        e2, f2 = ta_pot.compute(10, pairs)
        assert np.allclose(e_pair + f_val, e2)
        assert np.allclose(forces, f2)

    def test_isolated_atom_zero_energy(self, ta_pot):
        pairs = PairTable(
            i=np.empty(0, int), j=np.empty(0, int),
            rij=np.empty((0, 3)), r=np.empty(0),
        )
        e, f = ta_pot.compute(1, pairs)
        assert e[0] == pytest.approx(0.0, abs=1e-8)
        assert np.allclose(f, 0.0)


class TestGuards:
    def test_overlapping_atoms_raise(self, ta_pot, ta_tables):
        pos = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]])
        pairs = pair_table_for(pos, ta_tables.cutoff)
        with pytest.raises(FloatingPointError, match="overlapping"):
            ta_pot.compute(2, pairs)

    def test_bad_type_index_rejected(self, ta_pot, ta_tables):
        pos = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        pairs = pair_table_for(pos, ta_tables.cutoff)
        with pytest.raises(ValueError, match="type out of range"):
            ta_pot.compute(2, pairs, types=np.array([0, 5]))

    def test_inconsistent_pair_table_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            PairTable(
                i=np.array([0]), j=np.array([1, 2]),
                rij=np.zeros((1, 3)), r=np.zeros(1),
            )

    def test_a_potential_must_give_bank_tables(self):
        """Every potential steps through ``md_step``: a subclass without
        bank tables cannot be built."""
        class NoBanks(Potential):
            cutoff = 1.0

            def compute(self, n_atoms, pairs, types=None, *, tracer=None):
                raise NotImplementedError

        with pytest.raises(TypeError, match="bank_tables"):
            NoBanks()
