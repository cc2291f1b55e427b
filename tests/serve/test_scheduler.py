"""JobScheduler: coalescing, cache dispositions, ensembles, cancel.

No pytest-asyncio in the test environment, so every test drives its
own loop with ``asyncio.run``.
"""

import asyncio
import json

import pytest

from repro.parallel import fork_available
from repro.runtime import RunSpec, Runner
from repro.serve import JobScheduler, JobState, ResultCache

SPEC = RunSpec(
    element="Ta", reps=(3, 3, 2), temperature=120.0, seed=5,
    engine="reference", steps=4,
)


def _scheduler(tmp_path, **kwargs):
    kwargs.setdefault("cache", ResultCache(tmp_path / "cache"))
    return JobScheduler(**kwargs)


class TestCacheSemantics:
    def test_identical_request_is_a_hit_with_bitwise_telemetry(
        self, tmp_path
    ):
        async def body():
            sched = _scheduler(tmp_path)
            first = await sched.submit(SPEC)
            await sched.wait(first)
            second = await sched.submit(SPEC)
            await sched.wait(second)
            await sched.close()
            return first, second

        first, second = asyncio.run(body())
        assert first.state is JobState.DONE and first.cache == "miss"
        assert second.state is JobState.DONE and second.cache == "hit"
        # the hit returns the *stored* record: bitwise-identical JSON
        assert json.dumps(
            first.result["telemetry"], sort_keys=True
        ) == json.dumps(second.result["telemetry"], sort_keys=True)

    def test_concurrent_duplicates_coalesce_to_one_run(self, tmp_path):
        async def body():
            sched = _scheduler(tmp_path)
            jobs = [await sched.submit(SPEC) for _ in range(4)]
            await sched.wait(jobs[0])
            await sched.close()
            return sched, jobs

        sched, jobs = asyncio.run(body())
        assert len({job.id for job in jobs}) == 1  # one Job object
        assert jobs[0].coalesced == 3
        assert sched.cache.misses == 1 and sched.cache.hits == 0

    def test_longer_request_resumes_from_checkpoint(self, tmp_path):
        async def body():
            sched = _scheduler(tmp_path)
            short = await sched.submit(SPEC)
            await sched.wait(short)
            longer = await sched.submit(SPEC, steps=8)
            await sched.wait(longer)
            await sched.close()
            return longer

        longer = asyncio.run(body())
        assert longer.state is JobState.DONE
        assert longer.cache == "resume"
        assert longer.resume_step == 4
        assert longer.result["telemetry"]["serve"]["resume_step"] == 4
        assert longer.result["steps"] == 8

    def test_resumed_trajectory_matches_uninterrupted(self, tmp_path):
        import numpy as np

        from repro.runtime import read_checkpoint

        async def body():
            sched = _scheduler(tmp_path)
            await sched.wait(await sched.submit(SPEC))
            longer = await sched.submit(SPEC, steps=8)
            await sched.wait(longer)
            cache = sched.cache
            await sched.close()
            return cache

        cache = asyncio.run(body())
        served = read_checkpoint(cache.prefix(SPEC.spec_hash(), 8)).state
        straight = Runner.from_spec(SPEC)
        straight.run(8)
        state = straight.engine.state
        straight.close()
        np.testing.assert_array_equal(
            served.positions[np.argsort(served.ids)],
            state.positions[np.argsort(state.ids)],
        )

    def test_speed_knob_change_still_hits(self, tmp_path):
        """backend/offset_chunk are not physics: same cache key."""
        from dataclasses import replace

        async def body():
            sched = _scheduler(tmp_path)
            await sched.wait(await sched.submit(SPEC))
            tweaked = replace(SPEC, backend="numpy", offset_chunk=7)
            job = await sched.submit(tweaked)
            await sched.wait(job)
            await sched.close()
            return job

        job = asyncio.run(body())
        assert job.cache == "hit"

    def test_physics_change_misses(self, tmp_path):
        from dataclasses import replace

        async def body():
            sched = _scheduler(tmp_path)
            await sched.wait(await sched.submit(SPEC))
            other = await sched.submit(replace(SPEC, seed=6))
            await sched.wait(other)
            await sched.close()
            return other

        assert asyncio.run(body()).cache == "miss"

    def test_no_cache_scheduler_always_runs(self, tmp_path):
        async def body():
            sched = JobScheduler(cache=None)
            a = await sched.submit(SPEC)
            await sched.wait(a)
            b = await sched.submit(SPEC)
            await sched.wait(b)
            await sched.close()
            return a, b

        a, b = asyncio.run(body())
        assert a.cache == "miss" and b.cache == "miss"

    def test_cache_survives_scheduler_restart(self, tmp_path):
        async def first_life():
            sched = _scheduler(tmp_path)
            await sched.wait(await sched.submit(SPEC))
            await sched.close()

        async def second_life():
            sched = _scheduler(tmp_path)  # fresh ResultCache, same dir
            job = await sched.submit(SPEC)
            await sched.wait(job)
            await sched.close()
            return job

        asyncio.run(first_life())
        assert asyncio.run(second_life()).cache == "hit"


class TestLifecycle:
    def test_states_and_events_stream_in_order(self, tmp_path):
        async def body():
            sched = _scheduler(tmp_path)
            sub = sched.bus.subscribe()
            job = await sched.submit(SPEC)
            await sched.wait(job)
            await sched.close()
            events = []
            while not sub.queue.empty():
                events.append(sub.queue.get_nowait())
            return job, events

        job, events = asyncio.run(body())
        states = [
            e.payload["state"] for e in events if e.kind == "state"
        ]
        assert states == ["queued", "running", "done"]
        assert any(e.kind == "progress" for e in events)
        assert all(e.job_id == job.id for e in events)

    def test_failed_job_captures_error(self, tmp_path):
        """An engine exception raised inside a slot — a resume from a
        checkpoint poisoned with a NaN — reaches ``job.error`` as
        ``"<TypeName>: <message>"`` and costs neither the slot nor the
        next job."""
        import numpy as np

        async def body():
            sched = _scheduler(tmp_path, slots=1)
            await sched.wait(await sched.submit(SPEC))
            npz = f"{sched.cache.prefix(SPEC.spec_hash(), 4)}.npz"
            data = dict(np.load(npz))
            data["positions"][5, 1] = np.nan
            np.savez(npz, **data)
            bad = await sched.submit(SPEC, steps=8)
            await sched.wait(bad)
            ok = await sched.cancel(bad.id)  # terminal: not cancellable
            from dataclasses import replace

            after = await sched.submit(replace(SPEC, seed=6))
            await sched.wait(after)
            await sched.close()
            return bad, ok, after

        bad, ok, after = asyncio.run(body())
        assert bad.state is JobState.FAILED
        assert bad.error.startswith("FloatingPointError: non-finite")
        assert bad.log[-1] == f"failed: {bad.error}"
        assert not ok
        assert after.state is JobState.DONE
        assert after.slot_pid == bad.slot_pid  # same slot, still alive

    def test_cancel_queued_job_never_runs(self, tmp_path):
        async def body():
            sched = _scheduler(tmp_path, slots=1)
            blocker = await sched.submit(SPEC)
            queued = await sched.submit(SPEC, steps=16)
            cancelled = await sched.cancel(queued.id)
            await sched.wait(blocker)
            await sched.close()
            return queued, cancelled

        queued, cancelled = asyncio.run(body())
        assert cancelled
        assert queued.state is JobState.CANCELLED
        assert queued.slot_pid is None  # never took a slot
        assert queued.cache is None

    def test_cancel_unknown_or_done_job_is_false(self, tmp_path):
        async def body():
            sched = _scheduler(tmp_path)
            job = await sched.submit(SPEC)
            await sched.wait(job)
            late = await sched.cancel(job.id)
            ghost = await sched.cancel("j9999")
            await sched.close()
            return late, ghost

        assert asyncio.run(body()) == (False, False)

    def test_close_cancels_outstanding_jobs(self, tmp_path):
        async def body():
            sched = _scheduler(tmp_path, slots=1)
            running = await sched.submit(SPEC, steps=200)
            queued = await sched.submit(SPEC, steps=300)
            await asyncio.sleep(0.05)
            await sched.close()
            return running, queued

        running, queued = asyncio.run(body())
        assert running.terminal
        assert queued.state is JobState.CANCELLED

    def test_submit_after_close_raises(self, tmp_path):
        async def body():
            sched = _scheduler(tmp_path)
            await sched.close()
            with pytest.raises(RuntimeError, match="closed"):
                await sched.submit(SPEC)

        asyncio.run(body())


class TestEnsembles:
    def test_replicas_fan_out_over_seeds(self, tmp_path):
        async def body():
            sched = _scheduler(tmp_path)
            jobs = await sched.submit_ensemble(SPEC, replicas=3)
            for job in jobs:
                await sched.wait(job)
            await sched.close()
            return jobs

        jobs = asyncio.run(body())
        assert [job.spec.seed for job in jobs] == [5, 6, 7]
        assert len({job.ensemble for job in jobs}) == 1
        assert all(job.state is JobState.DONE for job in jobs)
        assert len({job.key for job in jobs}) == 3

    def test_sweep_crosses_with_replicas(self, tmp_path):
        async def body():
            sched = _scheduler(tmp_path)
            jobs = await sched.submit_ensemble(
                SPEC, replicas=2, sweep={"temperature": [50.0, 150.0]}
            )
            for job in jobs:
                await sched.wait(job)
            await sched.close()
            return jobs

        jobs = asyncio.run(body())
        combos = {(job.spec.temperature, job.spec.seed) for job in jobs}
        assert combos == {(50.0, 5), (50.0, 6), (150.0, 5), (150.0, 6)}

    @pytest.mark.skipif(
        not fork_available(), reason="the patched builder reaches a slot by fork"
    )
    def test_ensemble_builds_tables_at_most_once_per_slot(
        self, tmp_path, monkeypatch
    ):
        """Three replicas on two slots: the only expensive part of a
        workload, the Rose tables, is built once per slot process (the
        per-process memo in ``potentials.elements``), not once per job.
        The builder announces itself with a warning, which the slot
        forwards into the job log."""
        import warnings

        from repro.potentials import elements

        build = elements.build_rose_eam

        def announcing_build(rose_spec):
            warnings.warn("rose tables built", UserWarning)
            return build(rose_spec)

        monkeypatch.setattr(elements, "build_rose_eam", announcing_build)
        # the slots fork from this process: start them cold
        monkeypatch.setattr(elements, "_TABLES_CACHE", {})

        async def body():
            sched = _scheduler(tmp_path, slots=2)
            jobs = await sched.submit_ensemble(SPEC, replicas=3)
            for job in jobs:
                await sched.wait(job)
            await sched.close()
            return jobs

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            jobs = asyncio.run(body())
        assert all(job.state is JobState.DONE for job in jobs)
        builds: dict[int, int] = {}
        for job in jobs:
            builds[job.slot_pid] = builds.get(job.slot_pid, 0) + sum(
                "rose tables built" in line for line in job.log
            )
        assert builds and max(builds.values()) == 1
        # every slot that served a replica built them exactly once
        assert sum(builds.values()) == len(builds) <= 2
        assert not elements._TABLES_CACHE  # nothing was built here

    def test_snapshot_counts_states(self, tmp_path):
        async def body():
            sched = _scheduler(tmp_path)
            job = await sched.submit(SPEC)
            await sched.wait(job)
            snap = sched.snapshot()
            await sched.close()
            return snap

        snap = asyncio.run(body())
        assert snap["states"] == {"done": 1}
        assert snap["cache"]["entries"] == 1
        assert len(set(snap["slot_pids"])) == snap["slots"] == 2
        assert snap["slots_busy"] == 0 and snap["slot_restarts"] == 0
