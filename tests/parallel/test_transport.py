"""Transport layer: socket parity, 2D topology runs, teardown robustness.

The acceptance bars pinned here: a 2x2 run matches the serial path to
<= 1e-9 (and is bitwise-reproducible for a fixed topology+transport),
an identical spec produces the *bitwise identical* trajectory under
both transports, and teardown never hangs — dead workers, double
closes, and post-mortem commands all surface cleanly.
"""

import copy
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.kernels import active_backend_name, set_backend
from repro.md.simulation import Simulation
from repro.obs import reset_warnings
from repro.parallel import ShardedForcePipeline, WorkerLost, fork_available
from repro.parallel.transport import (
    _REAP_TIMEOUT_S,
    TRANSPORTS,
    SocketMover,
    make_transport,
)
from repro.potentials.eam import EAMPotential
from repro.potentials.elements import make_element_potential
from repro.runtime import RunSpec, SpecError, build_engine
from tests.conftest import small_slab_state, wait_gone

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="parallel backend requires fork"
)


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


def _pipeline_forces(state, potential, **kwargs):
    pipe = ShardedForcePipeline(state, potential, **kwargs)
    try:
        e, f, info = pipe.compute(state.positions)
        halo = pipe.halo_bytes
    finally:
        pipe.close()
    return e, f, info, halo


class TestSocketParity:
    def test_socket_matches_numpy(self, ta_potential):
        state, e_ref, f_ref = _serial_reference(ta_potential)
        e, f, info, _ = _pipeline_forces(
            state, ta_potential, workers=2, transport="socket"
        )
        assert info.pairs_last > 0
        rel = abs(e.sum() - e_ref.sum()) / abs(e_ref.sum())
        assert rel <= 1e-9
        scale = np.max(np.abs(f_ref))
        assert np.max(np.abs(f - f_ref)) <= 1e-9 * scale

    def test_socket_is_bitwise_identical_to_shared(self, ta_potential):
        state, _, _ = _serial_reference(ta_potential)
        e_shm, f_shm, _, halo_shm = _pipeline_forces(
            state, ta_potential, topology=(2, 2), transport="shared"
        )
        e_sock, f_sock, _, halo_sock = _pipeline_forces(
            state, ta_potential, topology=(2, 2), transport="socket"
        )
        # pickling preserves float64 bits and both transports fill the
        # same slot layout, so the fixed-order reduction agrees exactly
        assert np.array_equal(e_shm, e_sock)
        assert np.array_equal(f_shm, f_sock)
        # the logical byte-accounting rule makes the halo numbers
        # comparable across transports
        assert halo_shm == halo_sock
        assert halo_shm[0] > 0 and halo_shm[1] > 0

    def test_socket_links_do_not_wait_on_nagle(self, ta_potential):
        """A seam pack is a 4-byte header and one sub-MSS payload: with
        Nagle on, the payload waits for the header's delayed ACK and
        every round of a 16k-atom run stalls 40 ms (10 steps/s measured
        against 140).  The worker turns it off at connect; the parent's
        end of every link is checked here."""
        import socket

        state = small_slab_state("Ta", (4, 4, 2))
        pipe = ShardedForcePipeline(
            state, ta_potential, workers=2, transport="socket"
        )
        try:
            for conn in pipe.transport.mover._conns:
                with socket.socket(fileno=os.dup(conn.fileno())) as sock:
                    assert sock.getsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY
                    )
        finally:
            pipe.close()

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="carrier-pigeon"):
            make_transport("carrier-pigeon", 1, {}, {}, {})
        assert TRANSPORTS == ("shared", "socket", "inline")


class Test2DTopology:
    def test_2x2_matches_numpy(self, ta_potential):
        state, e_ref, f_ref = _serial_reference(ta_potential)
        e, f, info, _ = _pipeline_forces(
            state, ta_potential, topology=(2, 2)
        )
        assert info.pairs_last > 0
        rel = abs(e.sum() - e_ref.sum()) / abs(e_ref.sum())
        assert rel <= 1e-9
        scale = np.max(np.abs(f_ref))
        assert np.max(np.abs(f - f_ref)) <= 1e-9 * scale

    def test_topology_conflicts_rejected(self, ta_potential):
        state = small_slab_state("Ta", (4, 4, 2))
        with pytest.raises(ValueError, match="conflicts"):
            ShardedForcePipeline(
                state, ta_potential, workers=3, topology=(2, 2)
            )
        with pytest.raises(ValueError, match="1x1"):
            ShardedForcePipeline(state, ta_potential, topology=(0, 2))


def _run_trajectory(steps=5, seed=3, **spec_kwargs):
    spec = RunSpec(
        element="Ta", reps=(4, 4, 2), steps=steps, seed=seed,
        backend="parallel", **spec_kwargs,
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


class TestTrajectoryReproducibility:
    def test_2x2_bitwise_reproducible(self):
        pos_a, vel_a, e_a = _run_trajectory(topology=(2, 2))
        pos_b, vel_b, e_b = _run_trajectory(topology=(2, 2))
        assert np.array_equal(pos_a, pos_b)
        assert np.array_equal(vel_a, vel_b)
        assert e_a == e_b

    def test_identical_spec_identical_under_both_transports(self):
        pos_shm, vel_shm, e_shm = _run_trajectory(
            topology=(2, 2), transport="shared"
        )
        pos_sock, vel_sock, e_sock = _run_trajectory(
            topology=(2, 2), transport="socket"
        )
        assert np.array_equal(pos_shm, pos_sock)
        assert np.array_equal(vel_shm, vel_sock)
        assert e_shm == e_sock

    def test_2x2_energy_matches_1d_layout(self):
        _, _, e_2d = _run_trajectory(topology=(2, 2))
        _, _, e_1d = _run_trajectory(workers=4)
        assert abs(e_2d - e_1d) / abs(e_1d) <= 1e-9


class TestSpecFields:
    def test_topology_string_normalized(self):
        spec = RunSpec(element="Ta", backend="parallel", topology="2x3")
        assert spec.topology == (2, 3)
        assert spec.to_dict()["topology"] == [2, 3]

    def test_topology_tuple_accepted(self):
        spec = RunSpec(element="Ta", backend="parallel", topology=(4, 1))
        assert spec.topology == (4, 1)

    def test_bad_topology_rejected(self):
        for bad in ("2x", "axb", (0, 2), (1, 2, 3)):
            with pytest.raises(SpecError, match="topology"):
                RunSpec(element="Ta", backend="parallel", topology=bad)

    def test_workers_topology_conflict_rejected(self):
        with pytest.raises(SpecError, match="conflict"):
            RunSpec(
                element="Ta", backend="parallel",
                workers=3, topology=(2, 2),
            )

    def test_bad_transport_rejected(self):
        with pytest.raises(SpecError, match="transport"):
            RunSpec(element="Ta", backend="parallel", transport="udp")

    def test_layout_is_not_physics(self):
        a = RunSpec(element="Ta")
        b = RunSpec(
            element="Ta", backend="parallel",
            topology=(2, 2), transport="socket",
        )
        assert a.spec_hash() == b.spec_hash()

    def test_round_trip_through_dict(self):
        spec = RunSpec(
            element="Ta", backend="parallel",
            topology="2x2", transport="socket",
        )
        again = RunSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.topology == (2, 2)
        assert again.transport == "socket"


class _RaisingPotential:
    """A potential whose evaluation raises a named exception on every
    rank — picklable by reference, so it also crosses the socket
    mover's ``setup`` message."""

    _TYPES = {
        "KeyError": KeyError,
        "TypeError": TypeError,
        "FloatingPointError": FloatingPointError,
        "ValueError": ValueError,
        "RuntimeError": RuntimeError,
    }

    def __init__(self, cutoff: float, kind: str) -> None:
        self.cutoff = cutoff
        self.kind = kind

    def compute(self, *args, **kwargs):
        raise self._TYPES[self.kind]("injected fault")


class TestWorkerErrorSurface:
    """One failure scan for every transport: the error's type name
    survives the trip home, whichever mover carried the reply."""

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize(
        "kind,raised",
        [
            ("KeyError", RuntimeError),
            ("TypeError", RuntimeError),
            ("FloatingPointError", FloatingPointError),
            ("ValueError", ValueError),
        ],
    )
    def test_kind_survives_and_the_round_is_drained(
        self, ta_potential, transport, kind, raised
    ):
        state = small_slab_state("Ta", (4, 4, 2))
        pipe = ShardedForcePipeline(
            state, _RaisingPotential(ta_potential.cutoff, kind),
            workers=2, transport=transport,
        )
        try:
            # both ranks fail; the lowest rank's report wins
            with pytest.raises(raised, match="shard worker 0") as info:
                pipe.compute(state.positions)
            assert type(info.value) is raised
            assert "injected fault" in str(info.value)
            if raised is RuntimeError:  # not re-raisable by type
                assert kind in str(info.value)
            # rank 1's error reply was drained too: the next round on
            # the same transport starts clean
            pipe.transport.command(("ping",))
        finally:
            pipe.close()


class _RaisingTables(EAMPotential):
    """A Ta potential whose bank tables (what a rank's ``md_step`` call
    is handed) and whose energy evaluation raise a named exception."""

    @classmethod
    def of_kind(cls, kind: str) -> "_RaisingTables":
        potential = copy.copy(make_element_potential("Ta"))
        potential.__class__ = cls
        potential.kind = kind
        return potential

    def bank_tables(self, n_atoms, types):
        raise _RaisingPotential._TYPES[self.kind]("injected fault")

    def compute(self, *args, **kwargs):
        raise _RaisingPotential._TYPES[self.kind]("injected fault")


class TestRankStageErrorSurface:
    """A rank's stages — its ``Simulation``'s step and energy query, and
    the displacement it reports — fail the way the kernels do: by name,
    lowest rank first, round drained."""

    KINDS = [
        ("KeyError", RuntimeError),
        ("FloatingPointError", FloatingPointError),
        ("ValueError", ValueError),
        ("RuntimeError", RuntimeError),
    ]

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("kind,raised", KINDS)
    def test_fault_in_the_step_leaves_the_state_unadvanced(
        self, transport, kind, raised
    ):
        from repro.md.integrators import LeapfrogVerlet

        state = small_slab_state("Ta", (4, 4, 2), temperature=300.0)
        before = state.copy()
        pipe = ShardedForcePipeline(
            state, _RaisingTables.of_kind(kind), workers=2,
            transport=transport,
        )
        try:
            with pytest.raises(raised, match="shard worker 0") as info:
                pipe.advance(state, 3, LeapfrogVerlet(2.0))
            assert type(info.value) is raised
            assert "injected fault" in str(info.value)
            assert np.array_equal(state.positions, before.positions)
            assert np.array_equal(state.velocities, before.velocities)
            pipe.transport.command(("ping",))  # rank 1's reply was drained too
        finally:
            pipe.close()

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("kind,raised", KINDS)
    def test_fault_in_an_energy_query(self, transport, kind, raised):
        state = small_slab_state("Ta", (4, 4, 2))
        pipe = ShardedForcePipeline(
            state, _RaisingTables.of_kind(kind), workers=2,
            transport=transport,
        )
        try:
            with pytest.raises(raised, match="shard worker 0") as info:
                pipe.compute(state.positions)
            assert type(info.value) is raised
            assert "injected fault" in str(info.value)
            pipe.transport.command(("ping",))
        finally:
            pipe.close()

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_nan_position_surfaces_from_its_owner(self, transport):
        """A NaN pushed into one row fails the displacement its owner
        reports, on that rank; the ranks are stale, not lost: with the
        row restored the next call re-plans and runs."""
        engine = build_engine(RunSpec(
            element="Ta", reps=(4, 4, 2), seed=3, backend="parallel",
            workers=2, transport=transport,
        ))
        try:
            engine.step(2)
            pipe = engine.sim._pipeline
            good = engine.state.positions[5].copy()
            engine.state.positions[5, 0] = np.nan
            with pytest.raises(FloatingPointError,
                               match="shard worker .: non-finite") as info:
                engine.step(3)
            assert type(info.value) is FloatingPointError
            pipe.transport.command(("ping",))
            assert engine.step_count == 2
            engine.state.positions[5] = good
            builds = pipe.n_builds
            engine.step(2)
            assert pipe.n_builds == builds + 1
            assert engine.step_count == 4
        finally:
            engine.close()


def _kill_rank_on_round(pipe, round_no: int, rank: int = 1):
    """Arrange for ``rank`` to be SIGKILLed just before the pipeline's
    ``round_no``-th round from now is posted: mid-``advance``, with the
    ranks already past the caller's state.  Returns the victim."""
    mover = pipe.transport.mover
    victim = mover._procs[rank]
    post, seen = pipe.transport.post, [0]

    def killing_post(msg, parts=None):
        seen[0] += 1
        if seen[0] == round_no:
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
        post(msg, parts)

    pipe.transport.post = killing_post
    return victim


class TestLostRankMidAdvance:
    """A rank that dies takes its rows with it: the run fails typed,
    the caller's state stays at its last synced values, no rank is
    orphaned, and a checkpointed run resumes onto the same bits."""

    @pytest.mark.parametrize("transport", ("shared", "socket"))
    def test_state_and_step_count_stay_at_the_last_sync(self, transport):
        engine = build_engine(RunSpec(
            element="Ta", reps=(4, 4, 2), seed=3, backend="parallel",
            workers=2, transport=transport,
        ))
        try:
            engine.step(4)
            pos = engine.state.positions.copy()
            vel = engine.state.velocities.copy()
            stats = engine.sim.stats.force_evaluations
            pipe = engine.sim._pipeline
            procs = list(pipe.transport.mover._procs)
            _kill_rank_on_round(pipe, 5)  # inside the third step of six
            t0 = time.perf_counter()
            with pytest.raises(WorkerLost, match="worker 1"):
                engine.step(6)
            assert time.perf_counter() - t0 < 5.0
            assert engine.step_count == 4
            assert engine.sim.stats.force_evaluations == stats
            assert np.array_equal(engine.state.positions, pos)
            assert np.array_equal(engine.state.velocities, vel)
            # the pipeline closed itself: the surviving rank was reaped
            assert wait_gone([p.pid for p in procs], timeout=5.0)
            with pytest.raises(RuntimeError, match="closed"):
                engine.step(1)
        finally:
            engine.close()

    @pytest.mark.parametrize("transport", ("shared", "socket"))
    def test_runner_resumes_onto_the_uninterrupted_digest(
        self, transport, tmp_path
    ):
        """Killed mid-chunk after the step-10 checkpoint, resumed from
        it.  ``skin=0`` makes every step re-plan from the positions it
        is at, so the resumed run's first build is the interrupted
        run's step-10 build and the digests must match exactly (with a
        skin the resume re-plans where the original reused, which only
        agrees to seam-reduction tolerance)."""
        from repro.runtime import Runner

        spec = RunSpec(
            element="Ta", reps=(4, 4, 2), seed=3, steps=16, skin=0.0,
            backend="parallel", workers=2, transport=transport,
            checkpoint_interval=5,
        )
        whole = Runner.from_spec(spec)
        try:
            whole.run()
            expected = whole.engine.state.copy()
        finally:
            whole.close()

        prefix = tmp_path / "ck"
        runner = Runner.from_spec(spec, checkpoint_prefix=prefix)
        try:
            runner.run(10)  # checkpoints at 5 and 10
            # four rounds a step at skin 0 (pull, rebuild, force, move)
            _kill_rank_on_round(runner.engine.sim._pipeline, 7)
            with pytest.raises(WorkerLost):
                runner.run()
            assert runner.engine.step_count == 10
        finally:
            runner.close()

        resumed = Runner.resume(spec, prefix)
        try:
            assert resumed.engine.step_count == 10
            resumed.run()
            state = resumed.engine.state
            assert resumed.engine.step_count == 16
            assert np.array_equal(state.positions, expected.positions)
            assert np.array_equal(state.velocities, expected.velocities)
        finally:
            resumed.close()


class TestTeardownRobustness:
    def test_close_survives_dead_worker(self, ta_potential):
        state = small_slab_state("Ta", (4, 4, 2))
        pipe = ShardedForcePipeline(
            state, ta_potential, workers=2, transport="shared"
        )
        mover = pipe.transport.mover
        victim = mover._procs[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5.0)
        t0 = time.perf_counter()
        pipe.close()  # must not hang or raise
        assert time.perf_counter() - t0 < 10.0
        mover.close()  # idempotent
        assert mover._procs == []

    def test_command_reports_dead_worker(self, ta_potential):
        state = small_slab_state("Ta", (4, 4, 2))
        pipe = ShardedForcePipeline(
            state, ta_potential, workers=2, transport="shared"
        )
        try:
            victim = pipe.transport.mover._procs[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            with pytest.raises(WorkerLost, match="worker 1 died"):
                pipe.transport.command(("ping",))
        finally:
            pipe.close()

    @pytest.mark.parametrize("transport", ("shared", "socket"))
    def test_killed_rank_fails_the_step_with_worker_lost(self, transport):
        """SIGKILL between two steps: typed error, bounded, no hang."""
        engine = build_engine(RunSpec(
            element="Ta", reps=(4, 4, 2), seed=3, backend="parallel",
            workers=2, transport=transport,
        ))
        try:
            engine.step(1)
            victim = engine.sim._pipeline.transport.mover._procs[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            assert not victim.is_alive()
            t0 = time.perf_counter()
            with pytest.raises(WorkerLost, match="worker 1"):
                engine.step(1)
            assert time.perf_counter() - t0 < 5.0
        finally:
            t0 = time.perf_counter()
            engine.close()
            assert time.perf_counter() - t0 < _REAP_TIMEOUT_S

    def test_pipeline_close_is_idempotent(self, ta_potential):
        state = small_slab_state("Ta", (4, 4, 2))
        pipe = ShardedForcePipeline(state, ta_potential, workers=2)
        pipe.compute(state.positions)
        pipe.close()
        pipe.close()  # second close is a no-op, not an error

    def test_socket_transport_close_is_idempotent(self, ta_potential):
        state = small_slab_state("Ta", (4, 4, 2))
        pipe = ShardedForcePipeline(
            state, ta_potential, workers=2, transport="socket"
        )
        pipe.compute(state.positions)
        tp = pipe.transport
        assert isinstance(tp.mover, SocketMover)
        tp.close()
        tp.close()
        pipe.close()

    def test_simulation_close_reaps_socket_workers(self, ta_potential):
        state = small_slab_state("Ta", (4, 4, 2))
        sim = Simulation(
            state, ta_potential, workers=2, transport="socket"
        )
        sim.run(1)
        procs = list(sim._pipeline.transport.mover._procs)
        sim.close()
        assert all(not p.is_alive() for p in procs)


#: An owner process: one parallel engine, its worker pids on stdout,
#: then steps until killed.
_OWNER = """
import sys
from repro.runtime import RunSpec, build_engine
engine = build_engine(RunSpec(
    element="Ta", reps=(4, 4, 2), seed=3, backend="parallel",
    workers=2, transport=sys.argv[1],
))
engine.step(1)
print(*(p.pid for p in engine.sim._pipeline.transport.mover._procs),
      flush=True)
while True:
    engine.step(1)
"""


class TestOwnerDeath:
    @pytest.mark.parametrize("transport", ("shared", "socket"))
    def test_sigkilled_owner_leaves_no_worker(self, transport):
        """Workers must see EOF when their owner dies without a word:
        no forked sibling may hold the owner's end of a pipe open."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        owner = subprocess.Popen(
            [sys.executable, "-c", _OWNER, transport],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        pids = []
        try:
            pids = [int(pid) for pid in owner.stdout.readline().split()]
            assert len(pids) == 2
            os.kill(owner.pid, signal.SIGKILL)
            owner.wait(timeout=10)
            assert wait_gone(pids, timeout=5.0)
        finally:
            owner.kill()
            owner.wait()
            owner.stdout.close()
            for pid in pids:  # a failing run must not leak its orphans
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


def _owner_process(script: str, *args: str) -> subprocess.Popen:
    """``python -c script *args`` on this checkout's ``src``, both
    output streams piped."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", script, *args], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=env, text=True,
    )


def _maps_a_named_segment(pid: int) -> bool:
    """Whether ``pid`` maps a file under ``/dev/shm`` (a named segment;
    an anonymous shared mapping reads ``/dev/zero (deleted)``)."""
    return "/dev/shm/" in Path(f"/proc/{pid}/maps").read_text()


class TestAnonymousSharedPages:
    @pytest.mark.skipif(
        not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
        reason="needs /proc/<pid>/task/<tid>/children",
    )
    def test_shared_owner_has_only_its_ranks_and_names_nothing(self):
        """The shared mover's pages are inherited at the fork: no helper
        process, no named segment, nothing to warn about at SIGKILL."""
        owner = _owner_process(_OWNER, "shared")
        pids = []
        try:
            pids = [int(pid) for pid in owner.stdout.readline().split()]
            assert len(pids) == 2
            children = Path(
                f"/proc/{owner.pid}/task/{owner.pid}/children"
            ).read_text().split()
            assert sorted(int(pid) for pid in children) == sorted(pids)
            assert not any(
                _maps_a_named_segment(pid) for pid in (owner.pid, *pids)
            )
            os.kill(owner.pid, signal.SIGKILL)
            _, err = owner.communicate(timeout=10)
            assert "resource_tracker" not in err
        finally:
            owner.kill()
            owner.communicate()
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


#: An owner whose socket rank 1 exits before its hello: at once, or
#: right after its connection is accepted.
_EARLY_EXIT_OWNER = """
import os, sys
from multiprocessing.connection import Client
from repro.parallel import WorkerLost, transport
entry = transport._socket_worker_entry
def entry_or_exit(address, authkey, rank):
    if rank == 1:
        if sys.argv[1] == "connected":
            Client(address, authkey=authkey)
        os._exit(3)
    entry(address, authkey, rank)
transport._socket_worker_entry = entry_or_exit
try:
    transport.SocketMover(2, {}, {}, {})
except WorkerLost as exc:
    print(exc, flush=True)
"""


class TestHandshake:
    @pytest.mark.parametrize("when", ("at_once", "connected"))
    def test_a_rank_gone_before_its_hello_raises_worker_lost(self, when):
        owner = _owner_process(_EARLY_EXIT_OWNER, when)
        try:
            out, err = owner.communicate(timeout=5.0)
        except subprocess.TimeoutExpired:
            pytest.fail("SocketMover still waits for a rank that exited")
        finally:
            owner.kill()
            owner.communicate()
        assert "shard worker 1 exited (code 3) before its handshake" in out
        assert "Traceback" not in err  # rank 0 was reaped, not left to fail


class TestTelemetry:
    def test_engine_reports_layout_and_halo(self):
        spec = RunSpec(
            element="Ta", reps=(4, 4, 2), steps=3,
            backend="parallel", topology=(2, 2), transport="socket",
        )
        engine = build_engine(spec)
        try:
            engine.step(3)
            telemetry = engine.telemetry()
        finally:
            engine.close()
        c = telemetry.counters
        assert c["topology"] == [2, 2]
        assert c["transport"] == "socket"
        assert c["halo_bytes_sent"] > 0
        assert c["halo_bytes_recv"] > 0
        assert c["halo_seconds"] >= 0.0

    def test_halo_exchange_traced_as_child_span(self, ta_potential):
        from repro.obs import Tracer, required_phases

        state = small_slab_state("Ta", (4, 4, 2))
        tracer = Tracer()
        sim = Simulation(
            state, ta_potential, tracer=tracer, topology=(2, 2)
        )
        try:
            sim.run(2)
        finally:
            sim.close()
        totals = tracer.phase_totals()
        required = required_phases("reference", sharded=True)
        assert "halo_exchange" in required
        for phase in required:
            assert phase in totals

    def test_required_phases_serial_fallback_has_no_halo(self):
        from repro.obs import required_phases

        assert "halo_exchange" not in required_phases("reference")
        assert "halo_exchange" not in required_phases(
            "wse", swap_interval=0, sharded=True
        )


class TestAutoSelection:
    """``transport="auto"`` resolution against the host's core budget.

    The policy under test: the forked tier only pays off with spare
    cores, so auto picks inline when cpus < workers (warning once per
    shape) or when there is a single worker (silently); otherwise it
    picks shared.  ``os.cpu_count() -> None`` — a real possibility the
    docs allow — must resolve like a 1-CPU host, never crash.
    """

    @staticmethod
    def _resolve(monkeypatch, cpus, workers):
        from repro.parallel.transport import resolve_transport

        # force the os.cpu_count() fallback path (including None) by
        # removing the affinity API resolve_transport prefers
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        reset_warnings()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            kind = resolve_transport("auto", workers)
        return kind, [str(w.message) for w in caught]

    @pytest.mark.parametrize(
        "cpus,workers,expected",
        [
            (None, 2, "inline"),  # unknown core count == 1-CPU host
            (1, 2, "inline"),
            (1, 4, "inline"),
            (2, 4, "inline"),
            (4, 4, "shared"),
            (8, 2, "shared"),
        ],
    )
    def test_core_budget_picks_tier(
        self, monkeypatch, cpus, workers, expected
    ):
        kind, messages = self._resolve(monkeypatch, cpus, workers)
        assert kind == expected
        if expected == "inline":
            assert len(messages) == 1
            assert "picked the inline tier" in messages[0]
            assert f"{workers} workers" in messages[0]
        else:
            assert messages == []

    @pytest.mark.parametrize("cpus", [None, 1, 8])
    def test_single_worker_is_silently_inline(self, monkeypatch, cpus):
        kind, messages = self._resolve(monkeypatch, cpus, 1)
        assert kind == "inline"
        assert messages == []

    def test_starved_pick_warns_once_per_shape(self, monkeypatch):
        from repro.parallel.transport import resolve_transport

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        reset_warnings()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            resolve_transport("auto", 2)
            resolve_transport("auto", 2)  # same shape: no re-warn
            resolve_transport("auto", 4)  # new shape: warns again
        assert len(caught) == 2

    def test_affinity_mask_sizes_the_default_pool_and_auto(
        self, monkeypatch, ta_potential
    ):
        """Under a cpuset smaller than the machine (2 of 8 CPUs) the
        default pool is 2 tiles — not 8 that ``auto`` would then have to
        run inline with a warning — and ``auto`` keeps them forked."""
        import repro.parallel as par
        from repro.parallel.transport import resolve_transport

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        assert par.usable_cpus() == 2
        reset_warnings()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_transport("auto", 2) == "shared"
            state = small_slab_state("Ta", (4, 4, 2))
            pipe = ShardedForcePipeline(state, ta_potential, workers=None)
        try:
            assert pipe.n_workers == 2
            assert pipe.transport_kind == "shared"
        finally:
            pipe.close()

    def test_explicit_kind_passes_through(self, monkeypatch):
        from repro.parallel.transport import resolve_transport

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert resolve_transport("socket", 8) == "socket"
