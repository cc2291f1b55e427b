"""Tile core model and SRAM budget tests."""

import pytest

from repro.wse.machine import WSE2, MachineConfig
from repro.wse.tile import TABLE3_FLOPS, SramBudget, TileCoreModel
from repro.wse.trace import WINDOW_STEPS, CycleTrace

import numpy as np


class TestMachine:
    def test_wse2_clock_from_peak(self):
        # 1.45 PFLOP/s over 850k cores at 2 FLOP/cycle -> ~853 MHz
        assert WSE2.clock_hz == pytest.approx(852.9e6, rel=0.001)

    def test_cycle_ns(self):
        assert WSE2.cycle_ns == pytest.approx(1.1724, rel=0.001)

    def test_cycles_to_seconds(self):
        assert WSE2.cycles_to_seconds(WSE2.clock_hz) == pytest.approx(1.0)

    def test_rejects_cores_exceeding_mesh(self):
        with pytest.raises(ValueError):
            MachineConfig(
                name="bad", grid_x=10, grid_y=10, usable_cores=101,
                sram_per_tile=1, power_watts=1.0, peak_flops_fp32=1.0,
            )


class TestTable3Flops:
    def test_paper_subtotals(self):
        assert TABLE3_FLOPS["candidate"].total == 9       # 6 + 3
        assert TABLE3_FLOPS["interaction"].total == 36    # 14 + 19 + 3
        assert TABLE3_FLOPS["fixed"].total == 12          # 8 + 2 + 2

    def test_at_peak_times_match_table3(self):
        """Paper: candidate 5.3 ns, interaction 21.2 ns, fixed 7.1 ns."""
        from repro.perfmodel.flops import at_peak_time_ns
        assert at_peak_time_ns(
            TABLE3_FLOPS["candidate"], 2.0, WSE2.clock_hz
        ) == pytest.approx(5.3, abs=0.1)
        assert at_peak_time_ns(
            TABLE3_FLOPS["interaction"], 2.0, WSE2.clock_hz
        ) == pytest.approx(21.2, abs=0.2)
        assert at_peak_time_ns(
            TABLE3_FLOPS["fixed"], 2.0, WSE2.clock_hz
        ) == pytest.approx(7.1, abs=0.1)


class TestSramBudget:
    def test_paper_configs_fit(self):
        budget = SramBudget()
        # Ta b=4 and Cu/W b=7 must fit in 48 kB
        assert budget.fits(4)
        assert budget.fits(7)

    def test_oversized_neighborhood_does_not_fit(self):
        assert not SramBudget().fits(25)

    def test_max_b_consistent(self):
        budget = SramBudget()
        b = budget.max_b()
        assert budget.fits(b)
        assert not budget.fits(b + 1)

    def test_budget_grows_quadratically_with_b(self):
        budget = SramBudget()
        d1 = budget.candidate_buffers(4)
        d2 = budget.candidate_buffers(8)
        assert d2 / d1 == pytest.approx((17 / 9) ** 2, rel=0.01)


class TestTileCoreModel:
    def test_flops_per_step_ta(self):
        model = TileCoreModel()
        # Ta: 9*80 + 36*14 + 12 = 1236 FLOPs per atom-step
        assert model.flops_per_step(80, 14) == 1236

    def test_cycle_costs_exceed_at_peak(self):
        model = TileCoreModel()
        assert model.candidate_cycles() > 9 / 2
        assert model.interaction_cycles() > 36 / 2
        assert model.fixed_cycles() > 12 / 2


class TestCycleTrace:
    def test_stability_reductions(self):
        rng = np.random.default_rng(0)
        trace = CycleTrace(n_tiles=100)
        base = 3477.0
        for _ in range(50):
            trace.record(base * (1 + 0.0011 * rng.standard_normal(100)))
        rep = trace.stability()
        # array-averaging shrinks the std by ~sqrt(n_tiles)
        assert rep.array_avg_rel < rep.per_tile_rel / 5
        assert rep.per_tile_rel == pytest.approx(0.0011, rel=0.3)

    def test_step_cycles_max_vs_mean(self):
        trace = CycleTrace(4)
        trace.record([10.0, 20.0, 30.0, 40.0])
        assert trace.step_cycles(reduce="max")[0] == 40.0
        assert trace.step_cycles(reduce="mean")[0] == 25.0
        assert trace.total_cycles() == 40.0

    def test_shape_validation(self):
        trace = CycleTrace(3)
        with pytest.raises(ValueError):
            trace.record([1.0, 2.0])

    def test_empty_trace_raises(self):
        with pytest.raises(RuntimeError):
            CycleTrace(2).as_array()

    def test_memory_is_flat_over_a_long_run(self):
        """Per-tile planes are kept for a fixed recent window only:
        between step 50 and step 500 a trace grows by the two whole-run
        scalars per step and nothing proportional to the grid."""
        rng = np.random.default_rng(1)
        sizes = {}
        for n_tiles in (64, 640):
            trace = CycleTrace(n_tiles)
            for step in range(1, 501):
                cand = rng.integers(0, 120, n_tiles)
                trace.record(3000.0 + cand, cand, cand // 8)
                if step in (50, 500):
                    sizes[n_tiles, step] = trace.nbytes
            assert trace.n_steps == 500
            assert trace.as_array().shape == (WINDOW_STEPS, n_tiles)
        assert sizes[64, 500] - sizes[64, 50] == 450 * 16
        assert sizes[640, 500] - sizes[640, 50] == 450 * 16

    def test_whole_run_reductions_survive_the_window(self):
        rng = np.random.default_rng(2)
        trace = CycleTrace(30)
        rows = 3477.0 * (1 + 0.0011 * rng.standard_normal((40, 30)))
        for row in rows:
            trace.record(row)
        # bit-identical to reducing the full (n_steps, n_tiles) history
        assert trace.total_cycles() == float(rows.max(axis=1).sum())
        assert np.array_equal(
            trace.step_cycles(reduce="max"), rows.max(axis=1)
        )
        np.testing.assert_allclose(
            trace.step_cycles(reduce="mean"), rows.mean(axis=1), rtol=1e-14
        )
        rep = trace.stability()
        assert rep.mean_cycles == pytest.approx(rows.mean(), rel=1e-12)
        assert rep.per_tile_std == pytest.approx(rows.std(), rel=1e-6)
        assert rep.array_avg_std == pytest.approx(
            rows.mean(axis=1).std(), rel=1e-9
        )
        # the window is the most recent steps
        assert np.array_equal(trace.as_array(), rows[-WINDOW_STEPS:])

    def test_counts_are_windowed_int32(self):
        trace = CycleTrace(5)
        for step in range(WINDOW_STEPS + 3):
            trace.record(np.full(5, 100.0 + step), np.full(5, step),
                         np.full(5, 2 * step))
        assert trace.has_counts
        cycles, cand, inter = trace.count_samples()
        assert cycles.shape == cand.shape == (WINDOW_STEPS, 5)
        assert cand.dtype == inter.dtype == np.int32
        assert cand[-1, 0] == WINDOW_STEPS + 2 and cand[0, 0] == 3
        assert np.array_equal(inter, 2 * cand)
