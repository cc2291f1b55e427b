"""End-to-end pipeline correctness: parity with numpy, reproducibility,
backend gating, telemetry.

The acceptance bar these tests pin: the parallel backend agrees with
the serial numpy path on energies to <= 1e-9 relative for 1/2/4
workers, trajectories are bitwise-reproducible for a fixed worker
count and seed, and unsupported workloads fall back (once-warned) to
the serial path instead of failing.
"""

import warnings

import numpy as np
import pytest

import repro.parallel as par
from repro.kernels import active_backend_name, set_backend
from repro.md.simulation import Simulation
from repro.obs import metrics
from repro.parallel import (
    ShardedForcePipeline,
    fork_available,
    unsupported_reason,
)
from repro.runtime import RunSpec, SpecError, build_engine
from tests.conftest import bulk_state, small_slab_state

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="parallel backend requires fork"
)

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(autouse=True)
def _restore_backend():
    base = active_backend_name()
    yield
    set_backend(base)


def _serial_reference(potential, reps=(4, 4, 2), temperature=350.0):
    set_backend("numpy")
    state = small_slab_state("Ta", reps, temperature=temperature)
    sim = Simulation(state, potential, dt_fs=2.0)
    energies, forces = sim.compute_forces()
    return state, energies, forces


class TestForceParity:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_energies_and_forces_match_numpy(self, ta_potential, workers):
        state, e_ref, f_ref = _serial_reference(ta_potential)
        pipe = ShardedForcePipeline(state, ta_potential, workers=workers)
        try:
            e_par, f_par, info = pipe.compute(state.positions)
        finally:
            pipe.close()
        assert info.pairs_last > 0
        rel = abs(e_par.sum() - e_ref.sum()) / abs(e_ref.sum())
        assert rel <= 1e-9
        scale = np.max(np.abs(f_ref))
        assert np.max(np.abs(f_par - f_ref)) <= 1e-9 * scale

    def test_single_worker_is_bitwise_serial(self, ta_potential):
        state, e_ref, f_ref = _serial_reference(ta_potential)
        pipe = ShardedForcePipeline(state, ta_potential, workers=1)
        try:
            e_par, f_par, _ = pipe.compute(state.positions)
        finally:
            pipe.close()
        # one shard owns every pair: identical operation order, so the
        # results are the serial ones bit for bit
        assert np.array_equal(e_par, e_ref)
        assert np.array_equal(f_par, f_ref)

    def test_pair_count_matches_serial(self, ta_potential):
        state, _, _ = _serial_reference(ta_potential)
        set_backend("numpy")
        serial = Simulation(state, ta_potential)
        serial.compute_forces()
        pipe = ShardedForcePipeline(state, ta_potential, workers=3)
        try:
            _, _, info = pipe.compute(state.positions)
        finally:
            pipe.close()
        assert info.pairs_last == serial.stats.pairs_last


def _run_trajectory(workers: int, steps: int = 5, seed: int = 3):
    spec = RunSpec(
        element="Ta", reps=(4, 4, 2), steps=steps, seed=seed,
        backend="parallel", workers=workers,
    )
    engine = build_engine(spec)
    try:
        engine.step(steps)
        return (
            engine.state.positions.copy(),
            engine.state.velocities.copy(),
            engine.total_energy(),
        )
    finally:
        engine.close()


class TestReproducibility:
    def test_bitwise_reproducible_for_fixed_workers_and_seed(self):
        pos_a, vel_a, e_a = _run_trajectory(workers=2)
        pos_b, vel_b, e_b = _run_trajectory(workers=2)
        assert np.array_equal(pos_a, pos_b)
        assert np.array_equal(vel_a, vel_b)
        assert e_a == e_b

    def test_energy_independent_of_worker_count(self):
        energies = {}
        positions = {}
        for w in WORKER_COUNTS:
            positions[w], _, energies[w] = _run_trajectory(workers=w)
        e1 = energies[1]
        for w in WORKER_COUNTS[1:]:
            assert abs(energies[w] - e1) / abs(e1) <= 1e-9
            assert np.max(np.abs(positions[w] - positions[1])) < 1e-10


class TestGating:
    def test_periodic_box_is_unsupported(self, ta_potential):
        state = bulk_state("Ta", (3, 3, 3))
        reason = unsupported_reason(state.box, ta_potential)
        assert reason is not None and "periodic" in reason

    def test_open_slab_is_supported(self, ta_potential):
        state = small_slab_state("Ta", (4, 4, 2))
        assert unsupported_reason(state.box, ta_potential) is None

    def test_fallback_warns_once_and_stays_correct(self, ta_potential):
        state = bulk_state("Ta", (3, 3, 3), temperature=200.0)
        par._warned_reasons.clear()
        set_backend("parallel")
        with pytest.warns(RuntimeWarning, match="periodic"):
            sim = Simulation(state, ta_potential)
            e_fallback = sim.potential_energy()
        assert sim._pipeline is None
        # second construction: same reason, no second warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Simulation(state, ta_potential).compute_forces()
        set_backend("numpy")
        e_serial = Simulation(state, ta_potential).potential_energy()
        assert e_fallback == e_serial

    def test_spec_rejects_negative_workers(self):
        with pytest.raises(SpecError, match="workers"):
            RunSpec(element="Ta", workers=-1)

    def test_workers_is_not_a_physics_field(self):
        a = RunSpec(element="Ta", workers=0)
        b = RunSpec(element="Ta", workers=4, backend="parallel")
        assert a.spec_hash() == b.spec_hash()


class TestTelemetry:
    def test_engine_reports_workers_and_shard_seconds(self):
        spec = RunSpec(
            element="Ta", reps=(4, 4, 2), steps=3,
            backend="parallel", workers=2,
        )
        engine = build_engine(spec)
        try:
            engine.step(3)
            telemetry = engine.telemetry()
        finally:
            engine.close()
        assert telemetry.counters["workers"] == 2
        shard = telemetry.counters["shard_seconds"]
        # the ledger's three, plus what the ranks took over from the
        # parent: every reduce, the embedding and the move
        assert set(shard) == {"neighbor", "density", "force", "integrate"}
        assert telemetry.counters["rounds"] > 0
        assert all(len(v) == 2 for v in shard.values())

    def test_pool_spawn_traced_as_its_own_phase(self, ta_potential):
        from repro.obs import Tracer

        state = small_slab_state("Ta", (4, 4, 2))
        set_backend("parallel")
        tracer = Tracer()
        sim = Simulation(state, ta_potential, tracer=tracer, workers=2)
        try:
            sim.run(2)
        finally:
            sim.close()
        totals = tracer.phase_totals()
        assert "parallel.pool" in totals
        for phase in ("neighbor", "density", "embedding", "pair_force"):
            assert phase in totals


def _inline_engine(workers=2, **fields):
    return build_engine(RunSpec(
        element="Ta", reps=(4, 4, 2), seed=3, backend="parallel",
        workers=workers, transport="inline", **fields,
    ))


class TestNonFinitePositions:
    def test_nan_on_a_reuse_step_raises_instead_of_reusing_packs(self):
        engine = _inline_engine()
        try:
            engine.step(2)
            assert engine.telemetry().counters["transport"] == "inline"
            engine.state.positions[5, 0] = np.nan
            with pytest.raises(FloatingPointError, match="non-finite"):
                engine.step(3)
        finally:
            engine.close()


class TestFunnelCounters:
    """Shard-side rebuild funnels reach the parent's registry — once,
    whether the ranks share its process (inline) or not (shared)."""

    def _funnel(self, engine, steps=3):
        metrics().reset()
        try:
            engine.step(steps)
        finally:
            engine.close()
        counters = metrics().as_dict()["counters"]
        return [counters[f"neighbor.{key}"] for key in (
            "rebuilds", "raw_candidates", "coarse_kept", "exact_kept"
        )]

    def test_tiles_sum_to_serial_and_repeat_exactly(self):
        serial = self._funnel(build_engine(RunSpec(
            element="Ta", reps=(4, 4, 2), seed=3, backend="numpy", skin=0.0,
        )))
        inline = self._funnel(_inline_engine(skin=0.0))
        again = self._funnel(_inline_engine(skin=0.0))
        forked = self._funnel(build_engine(RunSpec(
            element="Ta", reps=(4, 4, 2), seed=3, backend="parallel",
            workers=2, transport="shared", skin=0.0,
        )))
        assert inline == again == forked
        rebuilds, raw, coarse, exact = inline
        assert rebuilds == serial[0] > 1
        assert exact == serial[3]
        assert raw >= coarse >= exact > 0
