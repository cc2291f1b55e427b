"""Runner orchestration: observers, checkpoint cadence, resume fidelity."""

import dataclasses

import numpy as np
import pytest

from repro.runtime import (
    CheckpointError,
    RunSpec,
    Runner,
    ThermostatSpec,
    checkpoint_paths,
    read_checkpoint,
)

QUICK = dict(element="Ta", reps=(3, 3, 2), temperature=150.0, seed=6)
#: the reference engine's two layouts: the serial loop, and the sharded
#: pipeline on two ranks (a slab wide enough that both tiles hold atoms),
#: whose chunks are cut at observers and checkpoints
LAYOUTS = {
    None: {},
    "parallel": {"backend": "parallel", "workers": 2, "reps": (4, 4, 2)},
}


def _positions(runner):
    state = runner.engine.state
    return state.positions[np.argsort(state.ids)]


class TestLoop:
    def test_run_defaults_to_spec_steps(self):
        runner = Runner.from_spec(RunSpec(steps=5, **QUICK))
        tel = runner.run()
        assert runner.engine.step_count == 5
        assert tel.steps == 5

    def test_run_is_resumable_to_spec_target(self):
        runner = Runner.from_spec(RunSpec(steps=6, **QUICK))
        runner.run(2)
        runner.run()  # tops up to the spec's 6
        assert runner.engine.step_count == 6

    @pytest.mark.parametrize("backend", LAYOUTS)
    def test_observers_fire_on_absolute_steps(self, backend):
        runner = Runner.from_spec(
            RunSpec(steps=10, **{**QUICK, **LAYOUTS[backend]}))
        seen2, seen5 = [], []
        runner.add_observer(2, lambda ev: seen2.append(ev.step))
        runner.add_observer(5, lambda ev: seen5.append(ev.step))
        try:
            runner.run()
        finally:
            runner.close()
        assert seen2 == [2, 4, 6, 8, 10]
        assert seen5 == [5, 10]

    def test_observer_event_exposes_state(self):
        runner = Runner.from_spec(RunSpec(engine="wse", steps=2, **QUICK))
        atoms = []
        runner.add_observer(1, lambda ev: atoms.append(ev.state.n_atoms))
        runner.run()
        assert atoms == [runner.engine.state.n_atoms] * 2

    def test_bad_observer_interval(self):
        runner = Runner.from_spec(RunSpec(steps=1, **QUICK))
        with pytest.raises(ValueError, match="interval"):
            runner.add_observer(0, lambda ev: None)

    @pytest.mark.parametrize("backend", LAYOUTS)
    def test_chunking_does_not_change_trajectory(self, backend):
        spec = RunSpec(steps=9, **{**QUICK, **LAYOUTS[backend]})
        plain = Runner.from_spec(spec)
        chopped = Runner.from_spec(spec)
        try:
            plain.run()
            chopped.add_observer(2, lambda ev: None)
            chopped.add_observer(7, lambda ev: None)
            chopped.run()
            np.testing.assert_array_equal(
                _positions(plain), _positions(chopped))
        finally:
            plain.close()
            chopped.close()

    @pytest.mark.parametrize("backend", LAYOUTS)
    def test_nan_mid_run_is_a_typed_failure_at_the_step_it_appears(
        self, backend
    ):
        # a reuse step used to take NaN > skin/2 == False for "nobody
        # moved", drop the atom's pairs and carry on; sharded, the
        # poisoned row is pushed to its ranks by value and refused there
        runner = Runner.from_spec(RunSpec(
            steps=12, engine="reference", **{**QUICK, **LAYOUTS[backend]}
        ))

        def poison(event):
            event.state.positions[4, 2] = np.nan

        runner.add_observer(5, poison)
        try:
            with pytest.raises(FloatingPointError, match="non-finite"):
                runner.run()
            assert runner.engine.step_count == 5
        finally:
            runner.close()

    def test_nan_on_the_wafer_is_a_typed_failure_too(self):
        # the lockstep machine used to let a NaN atom drop out of every
        # neighborhood and report a finite energy
        runner = Runner.from_spec(RunSpec(steps=12, engine="wse", **QUICK))

        def poison(event):
            sim = runner.engine.sim
            x, y = np.argwhere(sim.occ)[4]
            sim.pos[x, y, 2] = np.nan

        runner.add_observer(5, poison)
        try:
            with pytest.raises(FloatingPointError, match="non-finite"):
                runner.run()
            assert runner.engine.step_count == 5
        finally:
            runner.close()


class TestCheckpointing:
    def test_final_checkpoint_always_written(self, tmp_path):
        prefix = tmp_path / "c"
        Runner.from_spec(
            RunSpec(steps=3, **QUICK), checkpoint_prefix=prefix
        ).run()
        assert all(p.exists() for p in checkpoint_paths(prefix))
        assert read_checkpoint(prefix).step_count == 3

    @pytest.mark.parametrize("backend", LAYOUTS)
    def test_periodic_checkpoints(self, tmp_path, backend):
        prefix = tmp_path / "c"
        spec = RunSpec(
            steps=6, checkpoint_interval=2, **{**QUICK, **LAYOUTS[backend]})
        steps_seen = []
        runner = Runner.from_spec(spec, checkpoint_prefix=prefix)
        # probe at odd steps: the snapshot on disk is the last even one
        runner.add_observer(
            3, lambda ev: steps_seen.append(read_checkpoint(prefix).step_count)
        )
        try:
            runner.run()
        finally:
            runner.close()
        assert steps_seen == [2, 4]
        checkpoint = read_checkpoint(prefix)
        assert checkpoint.step_count == 6
        # the snapshot is the state the run ended on, not a stale pull
        assert np.array_equal(
            checkpoint.state.positions, runner.engine.state.positions)

    def test_no_prefix_no_files(self, tmp_path):
        Runner.from_spec(RunSpec(steps=2, checkpoint_interval=1, **QUICK)).run()
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "engine_kwargs",
    [
        {"engine": "reference"},
        {"engine": "wse"},
        {"engine": "wse", "swap_interval": 2, "force_symmetry": True},
        {
            "engine": "reference",
            "thermostat": ThermostatSpec("langevin", 290.0, tau_fs=100.0),
        },
        {
            "engine": "wse",
            "thermostat": ThermostatSpec("berendsen", 100.0, tau_fs=50.0),
        },
        {"engine": "reference", **LAYOUTS["parallel"]},
        {
            "engine": "reference",
            "thermostat": ThermostatSpec("langevin", 290.0, tau_fs=100.0),
            **LAYOUTS["parallel"],
        },
    ],
    ids=["reference", "wse", "wse-swaps", "langevin", "wse-berendsen",
         "reference-parallel", "langevin-parallel"],
)
def test_resume_matches_uninterrupted(tmp_path, engine_kwargs):
    """Kill-at-step-k property: checkpoint at k, resume, compare at N."""
    spec = RunSpec(steps=8, **{**QUICK, **engine_kwargs})

    straight = Runner.from_spec(spec)
    straight.run()
    straight.close()

    prefix = tmp_path / "c"
    first = Runner.from_spec(spec, checkpoint_prefix=prefix)
    first.run(3)
    first.write_checkpoint()
    first.close()  # the "crash"

    resumed = Runner.resume(spec, prefix)
    assert resumed.engine.step_count == 3
    resumed.run()  # tops up to the spec's 8
    resumed.close()
    assert resumed.engine.step_count == 8

    np.testing.assert_allclose(
        _positions(straight), _positions(resumed), atol=1e-12
    )
    vs = straight.engine.state
    vr = resumed.engine.state
    np.testing.assert_allclose(
        vs.velocities[np.argsort(vs.ids)],
        vr.velocities[np.argsort(vr.ids)],
        atol=1e-12,
    )


def test_wse_resume_mid_reuse_matches_skin_zero_twin(tmp_path):
    """The wafer's Verlet list is not checkpointed: a run resumed in the
    middle of a reuse stretch builds its own on its first step, and is
    bitwise the ``skin=0`` run resumed at the same step."""
    spec = RunSpec(steps=8, engine="wse", **QUICK)
    assert spec.skin > 0

    straight = Runner.from_spec(spec)
    straight.run()
    # one build, then reuse: a stop after step 3 is mid-stretch
    assert straight.engine.telemetry().counters["list_builds"] == 1

    resumed = {}
    for skin in (spec.skin, 0.0):
        skinned = dataclasses.replace(spec, skin=skin)
        prefix = tmp_path / f"skin{skin}"
        first = Runner.from_spec(skinned, checkpoint_prefix=prefix)
        first.run(3)
        first.write_checkpoint()
        del first
        resumed[skin] = Runner.resume(skinned, prefix)
        resumed[skin].run()
    counters = resumed[spec.skin].engine.telemetry().counters
    assert counters["list_builds"] == 1
    assert counters["list_reuse_ratio"] == 4 / 5
    twin_counters = resumed[0.0].engine.telemetry().counters
    assert twin_counters["list_builds"] == 5
    assert twin_counters["list_reuse_ratio"] == 0.0

    a, b = (resumed[skin].engine.state for skin in (spec.skin, 0.0))
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.velocities, b.velocities)
    # (a resume re-maps atoms to tiles, so against the uninterrupted
    # run it agrees to rounding, as on every engine)
    np.testing.assert_allclose(
        _positions(straight), _positions(resumed[spec.skin]), atol=1e-12
    )


def test_resume_with_longer_steps_is_legal(tmp_path):
    prefix = tmp_path / "c"
    spec = RunSpec(steps=2, **QUICK)
    Runner.from_spec(spec, checkpoint_prefix=prefix).run()
    longer = dataclasses.replace(spec, steps=4)
    resumed = Runner.resume(longer, prefix)
    resumed.run()
    assert resumed.engine.step_count == 4


def test_resume_refuses_different_physics(tmp_path):
    prefix = tmp_path / "c"
    Runner.from_spec(RunSpec(steps=2, **QUICK), checkpoint_prefix=prefix).run()
    other = RunSpec(steps=2, **{**QUICK, "seed": 7})
    with pytest.raises(CheckpointError, match="different physics"):
        Runner.resume(other, prefix)


def test_resume_continues_checkpointing_at_same_prefix(tmp_path):
    prefix = tmp_path / "c"
    spec = RunSpec(steps=4, **QUICK)
    runner = Runner.from_spec(spec, checkpoint_prefix=prefix)
    runner.run(2)
    resumed = Runner.resume(spec, prefix)
    resumed.run()
    assert read_checkpoint(prefix).step_count == 4


class TestTeardown:
    """close()/request_stop(): idempotent, thread-safe, resumable."""

    @pytest.mark.parametrize("engine", ["reference", "wse"])
    def test_close_twice_is_harmless(self, engine):
        runner = Runner.from_spec(RunSpec(engine=engine, steps=2, **QUICK))
        runner.run()
        runner.close()
        runner.close()  # second call is a no-op, not an error

    @pytest.mark.parametrize("engine", ["reference", "wse"])
    def test_close_from_another_thread(self, engine):
        import threading

        runner = Runner.from_spec(RunSpec(engine=engine, steps=2, **QUICK))
        runner.run()
        errors = []

        def _close():
            try:
                runner.close()
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        threads = [threading.Thread(target=_close) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        runner.close()  # and again from the original thread

    @pytest.mark.parametrize("backend", LAYOUTS)
    def test_request_stop_breaks_at_chunk_boundary(self, tmp_path, backend):
        prefix = tmp_path / "c"
        spec = RunSpec(steps=10, **{**QUICK, **LAYOUTS[backend]})
        runner = Runner.from_spec(spec, checkpoint_prefix=prefix)
        runner.add_observer(
            2, lambda ev: runner.request_stop() if ev.step >= 4 else None
        )
        runner.run()
        assert runner.engine.step_count == 4  # not the target 10

        # the stopped run still wrote its final checkpoint and resumes
        runner.close()
        resumed = Runner.resume(spec, prefix)
        assert resumed.engine.step_count == 4
        resumed.run()
        resumed.close()
        assert resumed.engine.step_count == 10

    @pytest.mark.parametrize("backend", LAYOUTS)
    def test_stopped_run_matches_uninterrupted(self, tmp_path, backend):
        spec = RunSpec(steps=8, **{**QUICK, **LAYOUTS[backend]})
        straight = Runner.from_spec(spec)
        straight.run()
        straight.close()

        prefix = tmp_path / "c"
        stopped = Runner.from_spec(spec, checkpoint_prefix=prefix)
        stopped.add_observer(3, lambda ev: stopped.request_stop())
        stopped.run()
        stopped.close()
        resumed = Runner.resume(spec, prefix)
        resumed.run()
        resumed.close()
        np.testing.assert_allclose(
            _positions(straight), _positions(resumed), atol=1e-12
        )

    def test_resume_sweeps_orphan_tmp(self, tmp_path):
        prefix = tmp_path / "c"
        spec = RunSpec(steps=2, **QUICK)
        Runner.from_spec(spec, checkpoint_prefix=prefix).run()
        orphan = tmp_path / "c.npz.tmp"
        orphan.write_bytes(b"partial write from a crash")
        Runner.resume(spec, prefix)
        assert not orphan.exists()
