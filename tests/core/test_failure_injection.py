"""Failure injection: the machine detects broken invariants loudly.

The wafer algorithm rests on invariants (neighborhood coverage, SRAM
capacity, finite state); these tests verify that violations surface as
errors or detections rather than silent corruption.
"""

import numpy as np
import pytest

from repro.core.wse_md import WseMd
from repro.potentials.elements import make_element_potential
from repro.wse.fabric import ChainFabric
from repro.wse.router import MarchingRouter, RouterState
from repro.wse.tile import SramBudget
from repro.wse.wavelet import RouterCommand, Wavelet, WaveletKind
from tests.conftest import small_slab_state


class TestCoverageViolations:
    def test_undersized_b_detected_by_verify_coverage(self, ta_potential):
        state = small_slab_state("Ta", (6, 6, 3), temperature=0.0)
        sim = WseMd(state.copy(), ta_potential, b=2)  # too small on purpose
        assert sim.verify_coverage() > 0

    def test_adequate_b_passes(self, ta_potential):
        state = small_slab_state("Ta", (6, 6, 3), temperature=0.0)
        sim = WseMd(state.copy(), ta_potential)
        assert sim.verify_coverage() == 0

    def test_undersized_b_loses_interactions(self, ta_potential):
        """The physical consequence: missing pair work."""
        state = small_slab_state("Ta", (6, 6, 3), temperature=0.0)
        good = WseMd(state.copy(), ta_potential)
        bad = WseMd(state.copy(), ta_potential, b=2)
        good.step(1)
        bad.step(1)
        assert bad.last_interactions.sum() < good.last_interactions.sum()

    def test_neighborhood_larger_than_grid_rejected(self, ta_potential):
        state = small_slab_state("Ta", (4, 4, 2), temperature=0.0)
        with pytest.raises(ValueError, match="exceeds grid"):
            WseMd(state.copy(), ta_potential, b=50)


class TestStateCorruption:
    def test_overlapping_atoms_raise_in_reference(self, ta_potential):
        from repro.md.simulation import Simulation
        state = small_slab_state("Ta", (4, 4, 2), temperature=0.0)
        state.positions[1] = state.positions[0] + 0.05
        sim = Simulation(state, ta_potential)
        with pytest.raises(FloatingPointError, match="overlapping"):
            sim.compute_forces()

    def test_nonfinite_positions_raise_in_cell_list(self, ta_potential):
        from repro.md.neighbor_list import NeighborList
        state = small_slab_state("Ta", (4, 4, 2), temperature=0.0)
        state.positions[3, 1] = np.inf
        nl = NeighborList(state.box, ta_potential.cutoff)
        with pytest.raises(FloatingPointError, match="non-finite"):
            nl.pairs(state.positions)

    def test_nonfinite_state_rejected_by_the_wafer(self, ta_potential):
        state = small_slab_state("Ta", (4, 4, 2), temperature=0.0)
        state.positions[3, 1] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite"):
            WseMd(state, ta_potential)

    @pytest.mark.parametrize("field", ["pos", "vel"])
    def test_nan_on_the_wafer_fails_the_step_it_appears(
        self, ta_potential, field
    ):
        # a NaN coordinate fails every cutoff test: the atom used to
        # drop out of the neighborhood silently and the energy stayed
        # finite
        sim = WseMd(small_slab_state("Ta", (6, 6, 3)), ta_potential)
        sim.step(2)
        x, y = np.argwhere(sim.occ)[7]
        getattr(sim, field)[x, y, 1] = np.nan
        with pytest.raises(FloatingPointError, match="step 3"):
            sim.step(4)
        assert sim.step_count == 2


class TestFabricMisconfiguration:
    def test_body_core_injection_rejected(self):
        r = MarchingRouter(state=RouterState.BODY)
        w = Wavelet(kind=WaveletKind.DATA, vc=0, src=0)
        with pytest.raises(RuntimeError, match="only the head"):
            r.route(w, from_core=True)

    def test_misrouted_advance_detected(self):
        # ADVANCE must only reach the next-in-line body (or b=1 tail)
        r = MarchingRouter(state=RouterState.BODY)
        w = Wavelet(kind=WaveletKind.COMMAND, vc=0, src=0,
                    commands=[RouterCommand.ADVANCE, RouterCommand.RESET])
        with pytest.raises(RuntimeError, match="mis-sized"):
            r.route(w, from_core=False)

    def test_data_at_head_from_upstream_detected(self):
        r = MarchingRouter(state=RouterState.HEAD)
        w = Wavelet(kind=WaveletKind.DATA, vc=0, src=0)
        with pytest.raises(RuntimeError, match="head"):
            r.route(w, from_core=False)

    def test_stuck_fabric_times_out(self):
        fabric = ChainFabric(10, 2, 3)
        # sabotage: silence all heads so nothing ever transmits
        for r in fabric.routers:
            if r.state is RouterState.HEAD:
                r.state = RouterState.BODY
        with pytest.raises(RuntimeError, match="did not drain|stuck"):
            fabric.run(max_cycles=200)


class TestSramPressure:
    def test_paper_b_values_fit_with_margin(self):
        budget = SramBudget()
        for b in (4, 7):
            assert budget.total(b) < budget.capacity * 0.9

    def test_capacity_exceeded_is_detectable(self):
        budget = SramBudget()
        big_b = budget.max_b() + 1
        assert not budget.fits(big_b)
        assert budget.total(big_b) > budget.capacity
