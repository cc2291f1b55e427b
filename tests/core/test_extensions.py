"""Extension features: force symmetry, offline optimization, packing."""

import numpy as np
import pytest

from repro.core.cycle_model import CycleCostModel, OptimizationConfig
from repro.core.mapping import build_mapping
from repro.core.optimize import optimize_mapping
from repro.core.wse_md import WseMd
from repro.md.simulation import Simulation
from repro.perfmodel.packing import packed_step_cycles, packing_sweep
from repro.potentials.elements import ELEMENTS
from tests.conftest import small_slab_state
from tests.oracles import compare_trajectories


class TestForceSymmetry:
    def test_trajectories_identical_to_full_mode(self, ta_potential):
        state = small_slab_state("Ta", (6, 6, 3), temperature=290.0)
        sym = WseMd(state.copy(), ta_potential, force_symmetry=True)
        ref = Simulation(state.copy(), ta_potential, dt_fs=2.0, skin=0.6)
        cmp = compare_trajectories(state, sym, ref, 20)
        assert cmp.max_position_error < 1e-10
        assert cmp.energy_error < 1e-8

    def test_half_the_work(self, ta_potential):
        state = small_slab_state("Ta", (6, 6, 3), temperature=0.0)
        full = WseMd(state.copy(), ta_potential)
        half = WseMd(state.copy(), ta_potential, force_symmetry=True)
        full.step(1)
        half.step(1)
        fc, fi = full.mean_counts()
        hc, hi = half.mean_counts()
        assert hc == pytest.approx(fc / 2, rel=0.02)
        assert hi == pytest.approx(fi / 2, rel=0.02)

    def test_symmetric_energy_equals_full(self, ta_potential):
        state = small_slab_state("Ta", (5, 5, 2), temperature=100.0)
        full = WseMd(state.copy(), ta_potential)
        half = WseMd(state.copy(), ta_potential, force_symmetry=True)
        assert half.compute_energy() == pytest.approx(
            full.compute_energy(), abs=1e-9
        )

    def test_priced_with_symmetry_opt_is_faster(self):
        model = CycleCostModel()
        sym = model.with_opt(
            OptimizationConfig(name="sym", interaction_factor=0.5)
        )
        el = ELEMENTS["Ta"]
        assert sym.steps_per_second(
            el.candidates / 2, el.interactions / 2, el.neighborhood_b
        ) > model.steps_per_second(
            el.candidates, el.interactions, el.neighborhood_b
        )


class TestOfflineOptimization:
    def test_improves_scrambled_mapping(self, ta_potential):
        state = small_slab_state("Ta", (6, 6, 3), temperature=0.0)
        mapping = build_mapping(state.positions, state.box)
        # scramble: swap random core assignments
        rng = np.random.default_rng(0)
        scrambled = mapping.atom_core.copy()
        idx = rng.permutation(len(scrambled))[:100]
        scrambled[idx] = scrambled[np.roll(idx, 1)]
        from repro.core.mapping import Mapping
        bad = Mapping(
            grid=mapping.grid, projection=mapping.projection,
            pitch=mapping.pitch, origin=mapping.origin, atom_core=scrambled,
        )
        result = optimize_mapping(bad, state.positions)
        assert result.final_cost < result.initial_cost
        assert result.swaps > 0
        assert result.mapping.n_atoms == mapping.n_atoms
        # one-to-one preserved (Mapping validates on construction)
        assert len(np.unique(result.mapping.atom_core)) == mapping.n_atoms

    def test_good_mapping_left_nearly_unchanged(self, ta_potential):
        state = small_slab_state("Ta", (6, 6, 3), temperature=0.0)
        mapping = build_mapping(state.positions, state.box)
        result = optimize_mapping(mapping, state.positions, max_rounds=50)
        assert result.final_cost <= result.initial_cost + 1e-9

    def test_converges_toward_paper_offline_quality(self, ta_potential):
        """Paper Sec. V-E: best offline attempt reached 2.1 A."""
        state = small_slab_state("Ta", (8, 8, 3), temperature=0.0)
        mapping = build_mapping(state.positions, state.box)
        result = optimize_mapping(mapping, state.positions)
        assert result.final_cost < 3.5

    def test_position_count_mismatch_rejected(self, ta_potential):
        state = small_slab_state("Ta", (4, 4, 2), temperature=0.0)
        mapping = build_mapping(state.positions, state.box)
        with pytest.raises(ValueError):
            optimize_mapping(mapping, state.positions[:-1])
        with pytest.raises(TypeError):  # one swap rule: greedy mutual
            optimize_mapping(mapping, state.positions, engine=None)


class TestPacking:
    def test_k1_matches_base_model(self):
        model = CycleCostModel()
        el = ELEMENTS["Ta"]
        packed = packed_step_cycles(
            model, el.candidates, el.interactions, el.neighborhood_b, 1
        )
        base = model.step_cycles(
            el.candidates, el.interactions, el.neighborhood_b
        )
        assert packed == pytest.approx(base, rel=0.001)

    def test_rate_falls_capacity_grows(self):
        model = CycleCostModel()
        el = ELEMENTS["Ta"]
        sweep = packing_sweep(
            model, el.candidates, el.interactions, el.neighborhood_b
        )
        rates = [c.steps_per_second for c in sweep]
        atoms = [c.max_atoms for c in sweep]
        assert all(b < a for a, b in zip(rates, rates[1:]))
        assert all(b > a for a, b in zip(atoms, atoms[1:]))

    def test_atom_throughput_grows_with_packing(self):
        """More atoms per core: lower step rate, higher atom-steps/s."""
        model = CycleCostModel()
        el = ELEMENTS["Ta"]
        sweep = packing_sweep(
            model, el.candidates, el.interactions, el.neighborhood_b,
            k_values=(1, 4, 16),
        )
        thr = [c.atom_steps_per_second for c in sweep]
        assert thr[-1] > thr[0]

    def test_neighborhood_shrinks_in_tiles(self):
        model = CycleCostModel()
        sweep = packing_sweep(model, 224, 42, 7, k_values=(1, 4, 16))
        assert [c.b_tiles for c in sweep] == [7, 4, 2]

    def test_rejects_bad_k(self):
        model = CycleCostModel()
        with pytest.raises(ValueError):
            packed_step_cycles(model, 80, 14, 4, 0)
