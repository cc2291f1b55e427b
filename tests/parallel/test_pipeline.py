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

from repro.kernels import active_backend_name, set_backend
from repro.md.integrators import LeapfrogVerlet
from repro.md.simulation import Simulation
from repro.obs import reset_warnings
from repro.parallel import (
    ShardedForcePipeline,
    fork_available,
    unsupported_reason,
)
from repro.potentials.elements import make_element_potential
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
        """One tile evaluates the serial pairs; three evaluate each
        tile's own, its ghost shell included (what ``pairs_per_step``
        counts when sharded)."""
        from repro.md.neighbor_list import NeighborList

        state, _, _ = _serial_reference(ta_potential)
        set_backend("numpy")
        serial = Simulation(state, ta_potential)
        serial.compute_forces()
        counts = {}
        for workers in (1, 3):
            pipe = ShardedForcePipeline(state, ta_potential, workers=workers)
            try:
                counts[workers] = pipe.compute(state.positions)[2].pairs_last
                tiles = [state.positions[ids] for ids in pipe._ids]
            finally:
                pipe.close()
        assert counts[1] == serial.stats.pairs_last
        want = sum(
            NeighborList(state.box, ta_potential.cutoff).pairs(rows).n_pairs
            for rows in tiles
        )
        assert counts[3] == want > serial.stats.pairs_last


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

    def test_any_potential_the_serial_engine_steps_is_supported(self):
        """A rank is a plain ``Simulation``: a Lennard-Jones slab shards
        and steps as the serial engine steps it."""
        from repro.potentials.lennard_jones import LennardJones

        lj = LennardJones(epsilon=0.01, sigma=2.5, cutoff=6.0)
        runs = []
        for layout in ({}, {"workers": 2, "transport": "inline"}):
            state = small_slab_state("Ta", (4, 4, 2), temperature=300.0)
            assert unsupported_reason(state.box, lj) is None
            sim = Simulation(state, lj, **layout)
            try:
                sim.run(3)
                assert (sim._pipeline is not None) == bool(layout)
            finally:
                sim.close()
            runs.append(state.positions)
        assert np.max(np.abs(runs[1] - runs[0])) < 1e-10

    def test_fallback_warns_once_and_stays_correct(self, ta_potential):
        state = bulk_state("Ta", (3, 3, 3), temperature=200.0)
        reset_warnings()
        with pytest.warns(RuntimeWarning, match="periodic"):
            sim = Simulation(state, ta_potential, workers=2)
            e_fallback = sim.potential_energy()
        assert sim._pipeline is None
        # second construction: same reason, no second warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Simulation(state, ta_potential, workers=2).compute_forces()
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

    def test_default_layout_is_the_most_nearly_square_grid(self):
        engine = build_engine(RunSpec(
            element="Ta", reps=(4, 4, 2), seed=3, backend="parallel",
            workers=4, transport="inline",
        ))
        try:
            engine.step(1)
            counters = engine.telemetry().counters
        finally:
            engine.close()
        assert (counters["workers"], counters["topology"]) == (4, [2, 2])

    def test_pool_spawn_traced_as_its_own_phase(self, ta_potential):
        from repro.obs import Tracer

        state = small_slab_state("Ta", (4, 4, 2))
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


class TestEngineOption:
    """Sharding follows the Simulation's own arguments; the kernel tier
    is whatever the parent has active, in the parent and in every rank."""

    @pytest.mark.parametrize("tier", ["numpy", "native"])
    def test_no_layout_never_shards(self, ta_potential, tier):
        set_backend(tier)
        sim = Simulation(small_slab_state("Ta", (4, 4, 2)), ta_potential)
        sim.run(2)
        assert sim._pipeline is None and sim._layout is None

    @pytest.mark.parametrize("tier", ["numpy", "native"])
    def test_transport_alone_is_not_a_layout(self, ta_potential, tier):
        set_backend(tier)
        sim = Simulation(small_slab_state("Ta", (4, 4, 2)), ta_potential,
                         transport="shared")
        sim.run(2)
        assert sim._pipeline is None and sim._layout is None

    @pytest.mark.parametrize("layout, grid", [
        ({"workers": 1}, (1, 1)),
        ({"workers": 2}, (2, 1)),
        ({"workers": 0}, (2, 1)),  # one tile per usable CPU (patched: 2)
        ({"topology": (2, 1)}, (2, 1)),
        ({"topology": (1, 2)}, (1, 2)),
    ])
    def test_layout_arguments_shard(
        self, ta_potential, monkeypatch, layout, grid
    ):
        import repro.parallel.pipeline as pipeline_mod

        monkeypatch.setattr(pipeline_mod, "usable_cpus", lambda: 2)
        sim = Simulation(small_slab_state("Ta", (4, 4, 2)), ta_potential,
                         transport="inline", **layout)
        try:
            sim.run(2)
            assert sim._pipeline is not None
            assert sim._pipeline.topology == grid
        finally:
            sim.close()

    def _sharded_run(self, ta_potential, tier, transport, steps=6):
        set_backend(tier)
        state = small_slab_state("Ta", (4, 4, 2))
        sim = Simulation(state, ta_potential, workers=2, transport=transport)
        try:
            sim.run(steps)
            assert sim._pipeline is not None
            return state.positions.copy(), state.velocities.copy()
        finally:
            sim.close()

    @pytest.mark.parametrize("transport", ["shared", "socket", "inline"])
    def test_layout_under_numpy_is_bitwise_the_native_build(
        self, ta_potential, transport
    ):
        pos_np, vel_np = self._sharded_run(ta_potential, "numpy", transport)
        pos_nat, vel_nat = self._sharded_run(ta_potential, "native", transport)
        assert np.array_equal(pos_np, pos_nat)
        assert np.array_equal(vel_np, vel_nat)

    @pytest.mark.parametrize("transport", ["shared", "socket", "inline"])
    def test_ranks_run_the_parents_tier(
        self, ta_potential, tmp_path, transport
    ):
        """A numpy tier under another name, whose step leaves the pid
        of the process that ran it: every forked rank must appear
        (an inline rank is the parent itself), i.e. no rank switched to
        a tier of its own."""
        import os
        from types import SimpleNamespace

        from repro import kernels
        from repro.kernels import KERNEL_FUNCTIONS, numpy_backend

        def md_step(*args, **kwargs):
            (tmp_path / str(os.getpid())).touch()
            return numpy_backend.md_step(*args, **kwargs)

        spy = SimpleNamespace(
            name="rank-spy",
            **{fn: getattr(numpy_backend, fn) for fn in KERNEL_FUNCTIONS},
        )
        spy.md_step = md_step
        kernels.register_backend("rank-spy", lambda: spy)
        try:
            set_backend("rank-spy")
            state = small_slab_state("Ta", (4, 4, 2))
            sim = Simulation(state, ta_potential, workers=2,
                             transport=transport)
            try:
                sim.run(2)
                procs = getattr(sim._pipeline.transport.mover, "_procs", [])
                ranks = {p.pid for p in procs}
            finally:
                sim.close()
        finally:
            kernels._loaders.pop("rank-spy", None)
            kernels._resolved.pop("rank-spy", None)
        ran = {int(f.name) for f in tmp_path.iterdir()}
        if transport == "inline":
            assert ran == {os.getpid()}
        else:
            assert len(ranks) == 2
            assert ranks <= ran

    def test_spec_workers_zero_shards_over_usable_cpus(self, monkeypatch):
        import repro.parallel.pipeline as pipeline_mod

        monkeypatch.setattr(pipeline_mod, "usable_cpus", lambda: 3)
        engine = build_engine(RunSpec(
            element="Ta", reps=(6, 6, 2), seed=3, backend="parallel",
            workers=0, transport="inline",
        ))
        try:
            engine.step(1)
            counters = engine.telemetry().counters
        finally:
            engine.close()
        assert (counters["workers"], counters["topology"]) == (3, [3, 1])

    @pytest.mark.parametrize("backend", [None, "numpy", "native"])
    def test_only_the_parallel_backend_gets_a_layout(self, backend):
        engine = build_engine(RunSpec(
            element="Ta", reps=(4, 4, 2), seed=3, engine="reference",
            backend=backend,
        ))
        try:
            engine.step(2)
            assert engine.sim._pipeline is None
            assert "workers" not in engine.telemetry().counters
        finally:
            engine.close()

    def test_parallel_spec_runs_the_default_tier(self):
        from repro.kernels import DEFAULT_BACKEND, backend_status

        set_backend("numpy")
        engine = build_engine(RunSpec(
            element="Ta", reps=(4, 4, 2), seed=3, backend="parallel",
            workers=2, transport="inline",
        ))
        try:
            engine.step(1)
            assert engine.sim._pipeline is not None
        finally:
            engine.close()
        expected = DEFAULT_BACKEND if backend_status()[DEFAULT_BACKEND] \
            == "ok" else "numpy"
        assert active_backend_name() == expected


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

    def test_nan_before_the_first_plan_raises_instead_of_dropping_it(self):
        """A NaN row is in no tile's rectangle: the plan refuses it with
        the serial engine's error type, before the axis planner sees it."""
        engine = _inline_engine()
        try:
            engine.state.positions[5, 0] = np.nan
            with pytest.raises(FloatingPointError, match="non-finite"):
                engine.step(1)
            assert engine.step_count == 0
        finally:
            engine.close()


class TestFunnelCounters:
    """Shard-side rebuild funnels reach the parent's telemetry — once,
    whether the ranks share its process (inline) or not (shared) — and
    an engine's counts are its own, whatever else the process runs."""

    KEYS = ("neighbor_rebuilds", "raw_candidates", "coarse_kept",
            "exact_kept")

    @staticmethod
    def _serial_engine():
        return build_engine(RunSpec(
            element="Ta", reps=(4, 4, 2), seed=3, backend="numpy", skin=0.0,
        ))

    def _funnel(self, engine, steps=3):
        try:
            engine.step(steps)
            counters = engine.telemetry().counters
        finally:
            engine.close()
        return [counters[key] for key in self.KEYS]

    def test_tiles_count_their_shells_and_repeat_exactly(self):
        serial = self._funnel(self._serial_engine())
        inline = self._funnel(_inline_engine(skin=0.0))
        again = self._funnel(_inline_engine(skin=0.0))
        forked = self._funnel(build_engine(RunSpec(
            element="Ta", reps=(4, 4, 2), seed=3, backend="parallel",
            workers=2, transport="shared", skin=0.0,
        )))
        assert inline == again == forked
        rebuilds, raw, coarse, exact = inline
        assert rebuilds == serial[0] > 1
        # each tile lists its ghost shell's pairs too: the shells overlap
        assert exact > serial[3]
        assert raw >= coarse >= exact > 0

    def test_two_engines_stepped_in_turn_count_only_their_own(self):
        alone = [self._funnel(self._serial_engine()),
                 self._funnel(_inline_engine(skin=0.0))]
        engines = [self._serial_engine(), _inline_engine(skin=0.0)]
        try:
            for _ in range(3):
                for engine in engines:
                    engine.step(1)
            together = [
                [engine.telemetry().counters[key] for key in self.KEYS]
                for engine in engines
            ]
        finally:
            for engine in engines:
                engine.close()
        assert together == alone
        # the tiles enumerate their halo rings: the two funnels differ,
        # so a count that leaked from one engine to the other would show
        assert alone[0][1] != alone[1][1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # halo-dominated
class TestRankIsTheSerialEngine:
    """Each rank is a plain ``Simulation`` over its owned rows and a
    ghost shell ``2 * cutoff + skin`` deep: a steady step is one round
    of one ``md_step`` call per rank, and the owned rows' forces are the
    serial engine's."""

    @staticmethod
    def _pipeline(topology, reps=(6, 6, 2)):
        state = small_slab_state("Ta", reps, temperature=350.0)
        pipe = ShardedForcePipeline(
            state, make_element_potential("Ta"), topology=topology,
            transport="inline",
        )
        return state, pipe

    @staticmethod
    def _serial_forces(state):
        set_backend("numpy")
        sim = Simulation(state.copy(), make_element_potential("Ta"))
        return sim.compute_forces()[1]

    @pytest.mark.parametrize("topology", [(1, 2), (2, 2), (4, 1)],
                             ids=lambda t: f"{t[0]}x{t[1]}")
    def test_owned_forces_are_the_serial_forces(self, topology):
        """At a re-plan (the first call) and at a reuse step (three
        steady steps later, same plan) the forces gathered from the
        owned rows are the serial engine's to 1e-12 relative."""
        set_backend("numpy")
        state, pipe = self._pipeline(topology)
        try:
            _, forces, _ = pipe.compute(state.positions)
            want = self._serial_forces(state)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(forces - want)) <= 1e-12 * scale
            pipe.advance(state, 3, LeapfrogVerlet(2.0))
            assert pipe.n_builds == 1  # the steps reused the plan
            _, forces, _ = pipe.compute(state.positions)
            want = self._serial_forces(state)
            assert np.max(np.abs(forces - want)) <= 1e-12 * scale
        finally:
            pipe.close()

    def test_steady_two_worker_step_is_one_round(self):
        state, pipe = self._pipeline((2, 1))
        try:
            pipe.advance(state, 1, LeapfrogVerlet(2.0))  # plan + step
            rounds = pipe.rounds
            pipe.advance(state, 5, LeapfrogVerlet(2.0))
            assert pipe.n_builds == 1  # all five were steady
            assert pipe.rounds - rounds == 5 + 1  # one a step, the pull
        finally:
            pipe.close()
