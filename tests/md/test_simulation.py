"""Reference MD engine integration tests: conservation laws, observers
(the Runner's bus over a hand-built simulation)."""

import numpy as np
import pytest

from repro.md.simulation import Simulation
from tests.conftest import bulk_state, runner_over, small_slab_state

#: the serial loop, and the same loop handed a layout: two shard workers
#: step the atoms (an open slab, so the pipeline takes it)
layouts = pytest.mark.parametrize(
    "workers", [None, 2], ids=["serial", "sharded"])


def _run_closing(sim, n_steps):
    try:
        sim.run(n_steps)
    finally:
        sim.close()

class TestConservation:
    def test_energy_conservation_bulk_ta(self, ta_potential):
        state = bulk_state("Ta", (3, 3, 3), temperature=290.0)
        sim = Simulation(state, ta_potential, dt_fs=2.0)
        e0 = sim.potential_energy() + state.kinetic_energy()
        sim.run(100)
        e1 = sim.potential_energy() + state.kinetic_energy()
        assert abs(e1 - e0) / state.n_atoms < 1e-3  # eV/atom

    @layouts
    def test_energy_conservation_open_slab(self, ta_potential, workers):
        state = small_slab_state("Ta", (5, 5, 2), temperature=200.0)
        sim = Simulation(state, ta_potential, dt_fs=2.0, workers=workers)
        try:
            e0 = sim.potential_energy() + state.kinetic_energy()
            sim.run(100)
            e1 = sim.potential_energy() + state.kinetic_energy()
        finally:
            sim.close()
        assert abs(e1 - e0) / state.n_atoms < 1e-3

    @layouts
    def test_momentum_conservation(self, ta_potential, workers):
        # sharded, every seam row's force is summed from per-tile
        # partials: Newton's third law must survive the reduction
        state = small_slab_state("Ta", (4, 4, 2), temperature=290.0)
        sim = Simulation(state, ta_potential, dt_fs=2.0, workers=workers)
        p0 = state.momentum()
        _run_closing(sim, 80)
        assert np.allclose(state.momentum(), p0, atol=1e-7 * state.n_atoms)

    def test_smaller_timestep_conserves_better(self, ta_potential):
        drifts = []
        for dt in (4.0, 1.0):
            state = bulk_state("Ta", (3, 3, 3), temperature=400.0, seed=9)
            sim = Simulation(state, ta_potential, dt_fs=dt)
            e0 = sim.potential_energy() + state.kinetic_energy()
            sim.run(int(100 * 4.0 / dt))  # same simulated time
            e1 = sim.potential_energy() + state.kinetic_energy()
            drifts.append(abs(e1 - e0))
        assert drifts[1] < drifts[0]


class TestCrystalStability:
    def test_cold_crystal_stays_put(self, ta_potential):
        state = bulk_state("Ta", (3, 3, 3), temperature=0.0)
        ref = state.positions.copy()
        sim = Simulation(state, ta_potential)
        sim.run(50)
        assert np.max(np.abs(state.positions - ref)) < 1e-8

    def test_room_temperature_crystal_does_not_melt(self, ta_potential):
        state = bulk_state("Ta", (3, 3, 3), temperature=290.0, seed=2)
        ref = state.positions.copy()
        sim = Simulation(state, ta_potential)
        sim.run(150)
        # max displacement well below the nearest-neighbor distance
        disp = np.linalg.norm(state.positions - ref, axis=1)
        assert disp.max() < 0.5 * 2.86


class TestDriverMechanics:
    @layouts
    def test_observer_called_at_interval(self, ta_potential, workers):
        state = small_slab_state("Ta", (4, 4, 2))
        runner = runner_over(Simulation(state, ta_potential, workers=workers))
        seen = []
        runner.add_observer(5, lambda ev: seen.append(ev.step))
        try:
            runner.run(20)
        finally:
            runner.close()
        assert seen == [5, 10, 15, 20]

    @layouts
    def test_observer_sees_the_step_and_leaves_no_trace(
        self, ta_potential, workers
    ):
        """An observer reads the engine at its step — stats, energies,
        forces — and the trajectory is that of an unobserved run."""
        plain = Simulation(small_slab_state("Ta", (4, 4, 2)), ta_potential,
                           workers=workers)
        _run_closing(plain, 20)
        state = small_slab_state("Ta", (4, 4, 2))
        runner = runner_over(Simulation(state, ta_potential, workers=workers))
        seen = []

        def observe(ev):
            sim = ev.engine.sim
            energies, forces = sim.compute_forces()
            seen.append((ev.step, sim.stats.steps, float(np.sum(energies)),
                         float(np.abs(forces).max())))

        runner.add_observer(10, observe)
        try:
            runner.run(20)
        finally:
            runner.close()
        assert [s[:2] for s in seen] == [(10, 10), (20, 20)]
        assert all(np.isfinite(e) and f > 0 for *_, e, f in seen)
        assert np.array_equal(state.positions, plain.state.positions)
        assert np.array_equal(state.velocities, plain.state.velocities)

    def test_simulation_has_no_observer_bus_of_its_own(self, ta_potential):
        sim = Simulation(small_slab_state("Ta", (3, 3, 2)), ta_potential)
        assert not hasattr(sim, "add_observer")

    def test_negative_steps_rejected(self, ta_potential):
        sim = Simulation(small_slab_state("Ta", (3, 3, 2)), ta_potential)
        with pytest.raises(ValueError):
            sim.run(-1)

    def test_equilibrate_restores_thermostat(self, ta_potential):
        state = small_slab_state("Ta", (3, 3, 2), temperature=100.0)
        sim = Simulation(state, ta_potential)
        sim.equilibrate(10, 290.0)
        assert sim.thermostat is None

    @layouts
    def test_equilibration_warms_system(self, ta_potential, workers):
        # sharded, the parent-side thermostat costs a velocity pull and
        # push per step; the ranks must integrate the rescaled values
        state = small_slab_state("Ta", (4, 4, 2), temperature=50.0, seed=3)
        sim = Simulation(state, ta_potential, workers=workers)
        try:
            sim.equilibrate(300, 290.0, tau_fs=50.0)
        finally:
            sim.close()
        assert state.temperature() > 150.0


def _ledger_probes():
    """``benchmarks/ledger/probes.py``, imported as the ledger imports
    it (its directory on the path, for its ``spans`` import)."""
    import importlib
    import sys
    from pathlib import Path

    here = str(Path(__file__).resolve().parents[2] / "benchmarks" / "ledger")
    sys.path.insert(0, here)
    try:
        return importlib.import_module("probes"), importlib.import_module(
            "spans")
    finally:
        sys.path.remove(here)


class TestLedgerTracedPass:
    """``Simulation.run`` is bitwise the public-step sequence of the
    ledger's ``decomposed_steps`` (``NeighborList.pairs`` ->
    ``EAMPotential.compute`` -> ``LeapfrogVerlet.step``): the ledger's
    ``paths_bitwise_equal`` check on ``ta16k-steady`` and
    ``ta16k-rebuild`` at ``--trace 1`` rests on it."""

    @pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
    @pytest.mark.parametrize("skin", [0.5, 0.0])
    @pytest.mark.parametrize("tier", ["numpy", "native"])
    def test_run_is_the_decomposed_steps(self, tier, skin, traced):
        import repro.kernels as kernels
        from repro.obs import Tracer
        from repro.runtime import RunSpec, build_engine

        if kernels.backend_status()[tier] != "ok":
            pytest.skip(f"{tier} tier unavailable")
        probes, spans = _ledger_probes()
        spec = RunSpec(element="Ta", reps=(4, 4, 3), temperature=900.0,
                       engine="reference", backend=tier, skin=skin)
        try:
            engines = [build_engine(spec, tracer=Tracer() if traced else None)
                       for _ in range(2)]
            engines[0].step(60)
            probes.decomposed_steps(engines[1].sim, 60,
                                    spans.SpanRecorder("test"), [])
            run, decomposed = (e.sim for e in engines)
            assert run.step_count == decomposed.step_count == 60
            assert run.neighbors.n_builds == decomposed.neighbors.n_builds
            assert run.neighbors.n_builds >= (60 if skin == 0.0 else 3)
            for a, b in ((run.state.positions, decomposed.state.positions),
                         (run.state.velocities,
                          decomposed.state.velocities)):
                assert a.tobytes() == b.tobytes()
            assert run.stats.steps == 60
            assert run.stats.neighbor_rebuilds == run.neighbors.n_builds
            if traced:
                totals = run.tracer.phase_totals()
                assert {"step", "neighbor", "density", "embedding",
                        "pair_force", "integrate"} <= set(totals)
        finally:
            kernels.set_backend(kernels.DEFAULT_BACKEND)
