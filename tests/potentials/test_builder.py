"""Rose-EOS EAM construction: properties guaranteed by construction."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.lattice.cells import BCC, FCC
from repro.lattice.neighbors_ideal import lattice_sum
from repro.md.boundary import Box
from repro.md.cell_list import all_pairs
from repro.potentials import builder
from repro.potentials.base import PairTable
from repro.potentials.builder import RoseEAMSpec, build_rose_eam, smootherstep_cut
from repro.potentials.eam import EAMPotential
from repro.potentials.elements import ELEMENTS, make_element_tables
from repro.potentials.rose import RoseEOS


class TestSmootherstep:
    def test_one_below_start(self):
        assert smootherstep_cut(np.array([0.5]), 1.0, 2.0)[0] == 1.0

    def test_zero_at_cutoff(self):
        assert smootherstep_cut(np.array([2.0, 3.0]), 1.0, 2.0).tolist() == [0, 0]

    def test_monotone_decreasing(self):
        r = np.linspace(1.0, 2.0, 100)
        v = smootherstep_cut(r, 1.0, 2.0)
        assert np.all(np.diff(v) <= 1e-12)

    def test_derivative_vanishes_at_ends(self):
        eps = 1e-6
        for x in (1.0, 2.0):
            d = (
                smootherstep_cut(np.array([x + eps]), 1.0, 2.0)[0]
                - smootherstep_cut(np.array([max(x - eps, 1.0)]), 1.0, 2.0)[0]
            ) / (2 * eps)
            assert abs(d) < 1e-4

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            smootherstep_cut(np.array([1.0]), 2.0, 1.0)


class TestRoseEOS:
    def test_minimum_at_equilibrium(self):
        eos = RoseEOS(cohesive_energy=3.54, bulk_modulus=0.86, atomic_volume=11.8)
        assert eos.energy(np.array([1.0]))[0] == pytest.approx(-3.54)
        assert eos.energy_derivative(np.array([1.0]))[0] == pytest.approx(0.0)

    def test_curvature_equals_9_b_omega(self):
        eos = RoseEOS(cohesive_energy=3.54, bulk_modulus=0.86, atomic_volume=11.8)
        assert eos.curvature_check() == pytest.approx(9 * 0.86 * 11.8)

    def test_energy_approaches_zero_at_large_separation(self):
        eos = RoseEOS(cohesive_energy=8.1, bulk_modulus=1.2, atomic_volume=18.0)
        assert abs(eos.energy(np.array([3.0]))[0]) < 0.05 * 8.1

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            RoseEOS(cohesive_energy=-1.0, bulk_modulus=1.0, atomic_volume=1.0)


def bulk_energy_per_atom(symbol: str, scale: float = 1.0) -> float:
    """Bulk cohesive energy at a uniform lattice scale, via lattice sums."""
    el = ELEMENTS[symbol]
    tables = make_element_tables(symbol)
    pot = EAMPotential(tables)
    rho = lattice_sum(
        el.cell, lambda r: float(tables.rho[0](np.array([r]))[0]),
        tables.cutoff, el.lattice_constant, scale=scale,
    )
    pair = 0.5 * lattice_sum(
        el.cell, lambda r: float(tables.phi[(0, 0)](np.array([r]))[0]),
        tables.cutoff, el.lattice_constant, scale=scale,
    )
    embed = float(tables.embed[0](np.array([rho]))[0])
    return pair + embed


class TestConstructedPotentials:
    @pytest.mark.parametrize("symbol", ["Cu", "W", "Ta"])
    def test_cohesive_energy_by_construction(self, symbol):
        e = bulk_energy_per_atom(symbol)
        assert e == pytest.approx(-ELEMENTS[symbol].cohesive_energy, abs=2e-3)

    @pytest.mark.parametrize("symbol", ["Cu", "W", "Ta"])
    def test_equilibrium_is_energy_minimum(self, symbol):
        e0 = bulk_energy_per_atom(symbol, 1.0)
        for s in (0.98, 1.02):
            assert bulk_energy_per_atom(symbol, s) > e0

    @pytest.mark.parametrize("symbol", ["Cu", "W", "Ta"])
    def test_bulk_modulus_from_curvature(self, symbol):
        el = ELEMENTS[symbol]
        h = 0.004
        e = [bulk_energy_per_atom(symbol, 1.0 + k * h) for k in (-1, 0, 1)]
        d2 = (e[0] - 2 * e[1] + e[2]) / h**2
        b_measured = d2 / (9.0 * el.cell.atomic_volume(el.lattice_constant))
        assert b_measured == pytest.approx(el.bulk_modulus, rel=0.05)

    @pytest.mark.parametrize("symbol", ["Cu", "W", "Ta"])
    def test_energy_follows_rose_eos_along_path(self, symbol):
        el = ELEMENTS[symbol]
        eos = RoseEOS(
            cohesive_energy=el.cohesive_energy,
            bulk_modulus=el.bulk_modulus,
            atomic_volume=el.cell.atomic_volume(el.lattice_constant),
        )
        for s in (0.85, 0.95, 1.05, 1.15):
            e = bulk_energy_per_atom(symbol, s)
            assert e == pytest.approx(float(eos.energy(np.array([s]))[0]), abs=0.02)

    def test_embedding_zero_at_zero_density(self):
        tables = make_element_tables("Ta")
        v, _ = tables.embed[0].evaluate(np.array([0.0]))
        assert abs(v[0]) < 1e-6

    def test_cutoff_must_reach_first_shell(self):
        with pytest.raises(ValueError, match="nearest"):
            RoseEAMSpec(
                cell=FCC, lattice_constant=3.6, cohesive_energy=3.5,
                bulk_modulus=0.8, cutoff=2.0,
            )

    def test_bcc_crystal_forces_vanish(self, ta_potential):
        """Perfect bulk crystal at equilibrium: zero forces."""
        from repro.lattice.crystals import replicate
        el = ELEMENTS["Ta"]
        crystal = replicate(BCC, el.lattice_constant, (4, 4, 4))
        box = Box(crystal.box, periodic=[True] * 3, origin=np.zeros(3))
        i, j, rij, r = all_pairs(crystal.positions, ta_potential.cutoff, box)
        pairs = PairTable(i=i, j=j, rij=rij, r=r)
        _, forces = ta_potential.compute(crystal.n_atoms, pairs)
        assert np.max(np.abs(forces)) < 1e-10


def assert_scipy_pchip(x, y, v, out):
    """``_pchip(x, y, v)`` returned ``out``: bitwise SciPy's PCHIP."""
    interpolate = pytest.importorskip("scipy.interpolate")
    ref = interpolate.PchipInterpolator(x, y)
    c, values, end_slope = out
    assert np.array_equal(c, ref.c)
    assert np.array_equal(values, ref(v))
    assert end_slope == ref.derivative()(x[-1])


@st.composite
def pchip_knots(draw):
    """Strictly increasing ``x`` (n >= 3), a ``y`` with flat runs and
    slope sign changes (small integers repeat), and evaluation points
    inside, on and beyond the knots."""
    n = draw(st.integers(3, 12))
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1))
    x = draw(st.floats(-10.0, 10.0)) + np.concatenate([[0.0], np.cumsum(steps)])
    assume(np.all(np.diff(x) > 0))
    level = st.integers(-3, 3).map(float) | st.floats(-1e3, 1e3)
    y = np.array(draw(st.lists(level, min_size=n, max_size=n)))
    v = np.concatenate([x, draw(st.lists(st.floats(x[0] - 1.0, x[-1] + 1.0), max_size=20))])
    return x, y, v


class TestPchip:
    """The embedding table's PCHIP is SciPy 1.17's, bit for bit."""

    @pytest.mark.parametrize("symbol", ["Cu", "W", "Ta"])
    def test_builder_eos_path_bitwise(self, symbol, monkeypatch):
        interpolate = pytest.importorskip("scipy.interpolate")
        pchip, calls = builder._pchip, []

        def spy(x, y, v):
            calls.append((x, y, v, pchip(x, y, v)))
            return calls[-1][-1]

        monkeypatch.setattr(builder, "_pchip", spy)
        tables = build_rose_eam(ELEMENTS[symbol].rose_spec())
        [(x, y, v, out)] = calls
        assert len(x) > 3
        assert_scipy_pchip(x, y, v, out)
        # the whole embedding table: SciPy inside the path, its end
        # slope beyond it
        ref = interpolate.PchipInterpolator(x, y)
        grid = np.linspace(0.0, float(x[-1]) * 1.05, len(v))
        expect = np.where(
            grid <= x[-1],
            ref(np.minimum(grid, x[-1])),
            y[-1] + ref.derivative()(x[-1]) * (grid - x[-1]),
        )
        assert np.array_equal(tables.embed[0].y, expect)

    @given(pchip_knots())
    @settings(max_examples=300, deadline=None)
    # the one-sided end slopes' two shape-preserving cuts, at both ends
    # (x = 0, 1, 2): d against m0's sign -> 0; |d| > 3|m0| -> 3 m0
    @example((np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 5.0]), np.array([0.5])))
    @example((np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, -9.0]), np.array([0.5])))
    @example((np.array([0.0, 1.0, 2.0]), np.array([5.0, 1.0, 0.0]), np.array([1.5])))
    @example((np.array([0.0, 1.0, 2.0]), np.array([-9.0, 1.0, 0.0]), np.array([1.5])))
    @example((np.arange(6.0), np.array([1.0, 1.0, 1.0, 2.0, 2.0, -1.0]), np.arange(6.0)))
    def test_bitwise_scipy(self, knots):
        x, y, v = knots
        assert_scipy_pchip(x, y, v, builder._pchip(x, y, v))

    @pytest.mark.parametrize("y, d_left, d_right", [
        ([0.0, 1.0, 5.0], 0.0, 5.5),     # left: d = -0.5 against m0 = 1
        ([0.0, 1.0, -9.0], 3.0, -15.5),  # left: d = 6.5 > 3|m0| = 3
        ([5.0, 1.0, 0.0], -5.5, 0.0),    # right: d = 0.5 against m0 = -1
        ([-9.0, 1.0, 0.0], 15.5, -3.0),  # right: d = -6.5, |d| > 3
    ])
    def test_end_slope_cuts(self, y, d_left, d_right):
        c, _, end_slope = builder._pchip(np.array([0.0, 1.0, 2.0]), np.array(y), np.zeros(1))
        assert c[2, 0] == d_left
        assert end_slope == pytest.approx(d_right)

    def test_rejects_fewer_than_three_knots(self):
        with pytest.raises(ValueError, match=">= 3 knots"):
            builder._pchip(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.zeros(1))
