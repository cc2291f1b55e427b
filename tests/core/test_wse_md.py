"""Lockstep machine: trajectory equivalence and machine invariants."""

import numpy as np
import pytest

from repro.core.exchange import neighborhood_sources, shift2d
from repro.core.neighborhood import candidate_count, choose_b, required_b
from repro.core.validate import compare_trajectories
from repro.core.wse_md import WseMd
from repro.md.boundary import Box
from repro.md.simulation import Simulation
from repro.md.state import AtomsState
from repro.md.thermostat import maxwell_boltzmann_velocities
from repro.wse.geometry import TileGrid
from tests.conftest import small_slab_state


class TestShift2d:
    def test_basic_shift(self):
        a = np.arange(12).reshape(3, 4)
        out = shift2d(a, 1, 0, fill=-1)
        assert out[0, 0] == a[1, 0]
        assert np.all(out[2, :] == -1)

    def test_negative_shift(self):
        a = np.arange(12).reshape(3, 4)
        out = shift2d(a, 0, -2, fill=0)
        assert out[1, 2] == a[1, 0]
        assert np.all(out[:, 0] == 0)

    def test_vector_payload(self):
        a = np.random.default_rng(0).normal(size=(4, 4, 3))
        out = shift2d(a, -1, 1, fill=0.0)
        assert np.allclose(out[2, 1], a[1, 2])

    def test_shift_beyond_grid_all_fill(self):
        a = np.ones((3, 3))
        assert np.all(shift2d(a, 5, 0, fill=7.0) == 7.0)

    def test_matches_neighborhood_sources(self):
        g = TileGrid(6, 5)
        # the set of (dx,dy) shifts covering tile (2,2)'s neighborhood
        srcs = neighborhood_sources(g, 2, 2, 2)
        expect = set()
        for dx in (-2, -1, 0, 1, 2):
            for dy in (-2, -1, 0, 1, 2):
                if dx == dy == 0:
                    continue  # a tile does not receive its own atom
                x, y = 2 + dx, 2 + dy
                if 0 <= x < 6 and 0 <= y < 5:
                    expect.add(int(g.flatten(x, y)))
        assert srcs == expect


class TestNeighborhoodSizing:
    def test_candidate_count(self):
        assert candidate_count(4) == 80
        assert candidate_count(7) == 224
        with pytest.raises(ValueError):
            candidate_count(-1)

    def test_required_b_covers_all_pairs(self, ta_potential):
        state = small_slab_state("Ta", (6, 6, 3), temperature=0.0)
        from repro.core.mapping import build_mapping
        m = build_mapping(state.positions, state.box)
        b = required_b(m, state.positions, state.box, ta_potential.cutoff)
        cx, cy = m.core_xy()
        from repro.md.neighbor_list import NeighborList
        pairs = NeighborList(state.box, ta_potential.cutoff, skin=0.0).pairs(
            state.positions
        )
        dist = np.maximum(
            np.abs(cx[pairs.i] - cx[pairs.j]), np.abs(cy[pairs.i] - cy[pairs.j])
        )
        assert dist.max() <= b

    def test_choose_b_bound_exceeds_required(self, ta_potential):
        state = small_slab_state("Ta", (12, 12, 3), temperature=0.0)
        from repro.core.mapping import build_mapping
        m = build_mapping(state.positions, state.box)
        loose = choose_b(m, state.positions, ta_potential.cutoff)
        tight = required_b(m, state.positions, state.box, ta_potential.cutoff)
        assert loose >= tight


class TestTrajectoryEquivalence:
    """The central claim: same physics as the reference engine."""

    def test_open_boundary_slab(self, ta_potential):
        state = small_slab_state("Ta", (6, 6, 3), temperature=290.0)
        wse = WseMd(state.copy(), ta_potential, dt_fs=2.0)
        ref = Simulation(state.copy(), ta_potential, dt_fs=2.0, skin=0.6)
        cmp = compare_trajectories(state, wse, ref, 25)
        assert cmp.max_position_error < 1e-10
        assert cmp.max_velocity_error < 1e-10
        assert cmp.energy_error < 1e-8

    def test_z_periodic_slab(self, ta_potential):
        state = small_slab_state("Ta", (6, 6, 3), temperature=250.0)
        lz = 3 * 3.304
        box = Box(
            np.array([state.box.lengths[0], state.box.lengths[1], lz]),
            periodic=[False, False, True],
            origin=np.array([state.box.origin[0], state.box.origin[1],
                             -lz / 2.0]),
        )
        state = AtomsState(
            positions=state.positions, velocities=state.velocities,
            types=state.types, masses=state.masses, box=box,
        )
        wse = WseMd(state.copy(), ta_potential, dt_fs=2.0)
        ref = Simulation(state.copy(), ta_potential, dt_fs=2.0, skin=0.6)
        cmp = compare_trajectories(state, wse, ref, 20)
        assert cmp.max_position_error < 1e-10

    def test_inplane_periodic_uses_folding(self, ta_potential):
        el_a = 3.304
        nx = 8
        lx = nx * el_a
        from repro.lattice.crystals import replicate
        from repro.lattice.cells import BCC
        crystal = replicate(BCC, el_a, (nx, 6, 2))
        box = Box(
            np.array([lx, 6 * el_a + 30.0, 2 * el_a + 30.0]),
            periodic=[True, False, False],
            origin=np.array([0.0, -15.0, -15.0]),
        )
        state = AtomsState.from_positions(crystal.positions, box, mass=180.95)
        maxwell_boltzmann_velocities(state, 200.0, np.random.default_rng(8))
        wse = WseMd(state.copy(), ta_potential, dt_fs=2.0)
        assert wse.pbc_inplane
        ref = Simulation(state.copy(), ta_potential, dt_fs=2.0, skin=0.6)
        cmp = compare_trajectories(state, wse, ref, 15)
        assert cmp.max_position_error < 1e-10

    def test_equivalence_with_atom_swaps_enabled(self, ta_potential):
        """Swaps permute storage, never physics."""
        state = small_slab_state("Ta", (5, 5, 3), temperature=290.0, seed=12)
        wse = WseMd(state.copy(), ta_potential, dt_fs=2.0, swap_interval=5,
                    b_margin=2.0)
        ref = Simulation(state.copy(), ta_potential, dt_fs=2.0, skin=0.8)
        cmp = compare_trajectories(state, wse, ref, 30)
        assert cmp.max_position_error < 1e-9

    def test_fp32_mode_close_to_fp64(self, ta_potential):
        state = small_slab_state("Ta", (5, 5, 2), temperature=290.0)
        wse32 = WseMd(state.copy(), ta_potential, dtype=np.float32)
        ref = Simulation(state.copy(), ta_potential, dt_fs=2.0, skin=0.6)
        cmp = compare_trajectories(state, wse32, ref, 10)
        # FP32 storage: agreement at single precision, not double
        assert cmp.max_position_error < 1e-3
        assert cmp.max_position_error > 0.0


class TestMachineBehaviour:
    def test_counts_match_reference_neighbor_counts(self, ta_potential):
        state = small_slab_state("Ta", (6, 6, 3), temperature=0.0)
        wse = WseMd(state.copy(), ta_potential)
        wse.step(1)
        mean_cand, mean_int = wse.mean_counts()
        # bulk Ta coordination is 14; slab surface atoms see fewer
        assert 8.0 < mean_int < 14.0
        assert mean_cand <= candidate_count(wse.b)

    def test_cycle_trace_recorded(self, ta_potential):
        state = small_slab_state("Ta", (5, 5, 2))
        wse = WseMd(state.copy(), ta_potential)
        wse.step(3)
        assert wse.trace.n_steps == 3
        assert wse.measured_rate() > 0

    def test_cycle_trace_stops_growing(self, ta_potential):
        """A long run holds a fixed window of per-tile planes; the
        modeled rate still covers every step."""
        from repro.wse.trace import WINDOW_STEPS

        wse = WseMd(small_slab_state("Ta", (4, 4, 2)), ta_potential)
        wse.step(WINDOW_STEPS + 2)
        held = wse.trace.nbytes
        total = wse.trace.total_cycles()
        wse.step(2 * WINDOW_STEPS)
        assert wse.trace.nbytes == held + 2 * WINDOW_STEPS * 16
        assert wse.trace.n_steps == 3 * WINDOW_STEPS + 2
        assert wse.trace.total_cycles() > total
        assert len(wse.trace.as_array()) == WINDOW_STEPS

    def test_empty_tiles_have_lower_cost(self, ta_potential):
        state = small_slab_state("Ta", (5, 5, 2))
        wse = WseMd(state.copy(), ta_potential)
        wse.step(1)
        cycles = wse.trace.as_array()[0].reshape(wse.grid.nx, wse.grid.ny)
        if np.any(~wse.occ):
            assert cycles[~wse.occ].max() < cycles[wse.occ].max()

    def test_jitter_produces_paper_like_stability(self, ta_potential):
        state = small_slab_state("Ta", (5, 5, 2), temperature=0.0)
        clean = WseMd(state.copy(), ta_potential, jitter_rel=0.0)
        noisy = WseMd(state.copy(), ta_potential, jitter_rel=0.0011, seed=3)
        clean.step(20)
        noisy.step(20)
        # static atoms + no jitter: per-tile timings are exactly repeatable
        per_tile_clean = clean.trace.as_array().std(axis=0)
        assert np.allclose(per_tile_clean, 0.0)
        rep = noisy.trace.stability()
        per_tile_noisy = noisy.trace.as_array().std(axis=0).mean()
        mean = noisy.trace.as_array().mean()
        assert per_tile_noisy / mean == pytest.approx(0.0011, rel=0.5)
        # array-averaging shrinks the noise (paper: 0.11% -> 91 ppm)
        assert rep.array_avg_rel < per_tile_noisy / mean

    def test_swap_maintains_assignment_cost(self, ta_potential):
        state = small_slab_state("Ta", (6, 6, 2), temperature=400.0, seed=4)
        with_swaps = WseMd(state.copy(), ta_potential, swap_interval=10,
                           b_margin=2.0)
        without = WseMd(state.copy(), ta_potential, b_margin=2.0)
        with_swaps.step(100)
        without.step(100)
        assert with_swaps.assignment_cost() <= without.assignment_cost() + 0.5

    def test_vacated_tiles_reset_after_swaps(self, ta_potential):
        from repro.core.wse_md import _FAR

        state = small_slab_state("Ta", (6, 6, 2), temperature=400.0, seed=4)
        wse = WseMd(state.copy(), ta_potential, swap_interval=5, b_margin=2.0)
        wse.step(25)
        vac = ~wse.occ
        assert vac.any()  # grid is larger than the atom count
        # a vacated tile must look exactly like it never held an atom
        assert np.all(wse.pos[vac] == _FAR)
        assert np.all(wse.vel[vac] == 0.0)
        assert np.all(wse.aid[vac] == -1)
        assert np.all(wse.typ[vac] == 0)

    def test_integrate_never_touches_empty_tiles(self, ta_potential):
        state = small_slab_state("Ta", (5, 5, 2), temperature=290.0)
        wse = WseMd(state.copy(), ta_potential)
        vac = ~wse.occ
        pos_before = wse.pos[vac].copy()
        vel_before = wse.vel[vac].copy()
        wse.step(5)
        assert np.array_equal(wse.pos[vac], pos_before)
        assert np.array_equal(wse.vel[vac], vel_before)

    def test_gather_state_preserves_ids(self, ta_potential):
        state = small_slab_state("Ta", (4, 4, 2))
        wse = WseMd(state.copy(), ta_potential, swap_interval=3)
        wse.step(9)
        out = wse.gather_state()
        assert np.array_equal(out.ids, np.sort(state.ids))
        assert out.n_atoms == state.n_atoms

    def test_rejects_bad_arguments(self, ta_potential):
        state = small_slab_state("Ta", (4, 4, 2))
        with pytest.raises(ValueError):
            WseMd(state.copy(), ta_potential, swap_interval=-1)
        with pytest.raises(ValueError):
            WseMd(state.copy(), ta_potential, b=0)
        wse = WseMd(state.copy(), ta_potential)
        with pytest.raises(ValueError):
            wse.step(-1)
        with pytest.raises(RuntimeError):
            WseMd(state.copy(), ta_potential).measured_rate()

    def test_explicit_grid_and_b(self, ta_potential):
        state = small_slab_state("Ta", (4, 4, 2))
        wse = WseMd(state.copy(), ta_potential, grid=TileGrid(40, 40), b=8)
        assert wse.grid.nx == 40
        assert wse.b == 8
