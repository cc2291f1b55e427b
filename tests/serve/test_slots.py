"""Slot processes: what crosses the pipe, and what happens when one dies.

Every engine run of the serve layer happens in a child process of the
scheduler (``repro.serve.slots``).  These tests drive the public
surface only — ``JobScheduler`` coroutines, the wire API, job records,
``snapshot()`` — plus real signals.

No pytest-asyncio in the test environment, so every test drives its
own loop with ``asyncio.run``.
"""

import asyncio
import os
import re
import signal
import socket
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from repro.parallel import fork_available
from repro.runtime import RunSpec, build_engine, read_checkpoint
from repro.serve import (
    JobScheduler,
    JobState,
    ResultCache,
    ServeClient,
    ServeServer,
)
from tests.conftest import pid_gone, wait_gone

SPEC = RunSpec(
    element="Ta", reps=(3, 3, 2), temperature=120.0, seed=5,
    engine="reference", steps=4,
)
#: Far more steps than any test waits for: these jobs are cancelled or
#: killed once their first progress sample proves the engine is stepping.
LONG = 200_000

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="relies on state a forked slot inherits"
)


def _scheduler(tmp_path, **kwargs):
    kwargs.setdefault("cache", ResultCache(tmp_path / "cache"))
    return JobScheduler(**kwargs)


async def _first_progress(sched, job, timeout=30.0):
    """Block until ``job``'s engine has reported a step from its slot."""
    sub = sched.bus.subscribe(job.id)
    try:
        while True:
            event = await asyncio.wait_for(sub.get(), timeout)
            if event.kind == "progress":
                return event.payload
    finally:
        sub.close()


class TestWhereJobsRun:
    def test_computed_jobs_name_a_slot_pid_hits_name_none(self, tmp_path):
        async def body():
            sched = _scheduler(tmp_path)
            pids = sched.snapshot()["slot_pids"]
            miss = await sched.wait(await sched.submit(SPEC))
            resume = await sched.wait(await sched.submit(SPEC, steps=8))
            hit = await sched.wait(await sched.submit(SPEC))
            await sched.close()
            return pids, miss, resume, hit

        pids, miss, resume, hit = asyncio.run(body())
        assert (miss.cache, resume.cache, hit.cache) == (
            "miss", "resume", "hit"
        )
        # no engine ever steps in the scheduler's own process
        for job in (miss, resume):
            assert job.slot_pid in pids and job.slot_pid != os.getpid()
            assert job.as_dict()["slot_pid"] == job.slot_pid
        assert hit.slot_pid is None

    def test_spawned_slot_serves_a_job(self, tmp_path, monkeypatch):
        """The start method used where fork does not exist."""
        monkeypatch.setattr("repro.parallel.fork_available", lambda: False)

        async def body():
            sched = _scheduler(tmp_path, slots=1)
            job = await sched.wait(await sched.submit(SPEC))
            await sched.close()
            return job

        job = asyncio.run(body())
        assert job.state is JobState.DONE and job.cache == "miss"
        assert job.slot_pid != os.getpid()
        assert job.result["telemetry"]["steps"] == 4

    def test_close_reaps_every_slot(self, tmp_path):
        async def body():
            sched = _scheduler(tmp_path, slots=3)
            pids = sched.snapshot()["slot_pids"]
            await sched.wait(await sched.submit(SPEC))
            await sched.close()
            return pids

        pids = asyncio.run(body())
        for pid in pids:  # reaped, not merely dead: no zombie left
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @needs_fork
    def test_parallel_job_runs_inside_a_slot(self, tmp_path):
        """Shard workers are children of the slot — which is why a slot
        is not a daemon — and the physics matches the numpy job's."""
        base = replace(SPEC, reps=(6, 6, 3), steps=6)
        variants = {
            "numpy": replace(base, backend="numpy"),
            "parallel": replace(
                base, backend="parallel", workers=2, transport="shared"
            ),
        }

        async def body(name):
            # one cache per backend: the two specs share a cache key
            sched = _scheduler(
                tmp_path, slots=1, cache=ResultCache(tmp_path / name)
            )
            job = await sched.wait(await sched.submit(variants[name]))
            await sched.close()
            return job

        energy = {}
        for name in variants:
            job = asyncio.run(body(name))
            assert job.state is JobState.DONE, job.error
            assert job.cache == "miss"
            state = read_checkpoint(job.result["checkpoint"]).state
            engine = build_engine(replace(base, backend="numpy"), state=state)
            energy[name] = engine.total_energy()
            engine.close()
            counters = job.result["telemetry"]["counters"]
            if name == "parallel":
                assert counters["workers"] == 2
                assert counters["transport"] == "shared"
            else:
                assert "workers" not in counters
        assert energy["parallel"] == pytest.approx(energy["numpy"], rel=1e-9)

    @needs_fork
    def test_slot_warnings_reach_the_log_and_the_server(self, tmp_path):
        """A warning raised in a slot is re-issued in the scheduler's
        process with its category and text, and narrated in the job log."""
        degraded = replace(
            SPEC, backend="parallel", topology=(4, 1), transport="inline"
        )

        async def body():
            sched = _scheduler(tmp_path, slots=1)
            job = await sched.wait(await sched.submit(degraded))
            await sched.close()
            return job

        with pytest.warns(RuntimeWarning, match="ghost regions dominate"):
            job = asyncio.run(body())
        assert job.state is JobState.DONE
        assert any(
            line.startswith("warning: RuntimeWarning:")
            and "ghost regions dominate" in line
            for line in job.log
        )


class TestScheduling:
    def test_hit_does_not_queue_behind_a_running_engine(self, tmp_path):
        async def body():
            sched = _scheduler(tmp_path, slots=1, progress_interval=20)
            await sched.wait(await sched.submit(SPEC))  # fills the key
            long = await sched.submit(replace(SPEC, seed=6), steps=LONG)
            await _first_progress(sched, long)
            sub = sched.bus.subscribe()
            hit = await asyncio.wait_for(
                sched.wait(await sched.submit(SPEC)), timeout=10
            )
            seen = (long.state, sched.snapshot()["slots_busy"])
            states = []
            while not sub.queue.empty():
                event = sub.queue.get_nowait()
                if event.job_id == hit.id and event.kind == "state":
                    states.append(event.payload["state"])
            await sched.cancel(long.id)
            cache = sched.cache
            await sched.close()
            return hit, states, seen, cache

        hit, states, seen, cache = asyncio.run(body())
        assert hit.state is JobState.DONE and hit.cache == "hit"
        # ... while the only slot was still busy with the long job
        assert seen == (JobState.RUNNING, 1)
        assert states == ["queued", "running", "done"]
        assert "no engine run" in hit.log[-1]
        assert cache.hits == 1 and cache.misses == 2

    def test_cancel_mid_run_caches_the_partial_trajectory(self, tmp_path):
        async def body():
            sched = _scheduler(tmp_path, slots=1, progress_interval=10)
            job = await sched.submit(SPEC, steps=LONG)
            await _first_progress(sched, job)
            cancelled = await asyncio.wait_for(
                sched.cancel(job.id), timeout=10
            )
            reached = job.result["steps"]
            longer = await sched.wait(
                await sched.submit(SPEC, steps=reached + 10)
            )
            entries = sched.snapshot()["cache"]["entries"]
            await sched.close()
            return job, cancelled, reached, longer, entries

        job, cancelled, reached, longer, entries = asyncio.run(body())
        assert cancelled and job.state is JobState.CANCELLED
        # stopped at a chunk boundary, far short of the target ...
        assert 10 <= reached < LONG and reached % 10 == 0
        assert f"stopped at step {reached} of {LONG}" in job.log
        # ... and what it computed is stored under the step it reached
        assert f"cached result under ({SPEC.spec_hash()}, {reached})" in job.log
        assert job.result["telemetry"]["serve"]["reached_step"] == reached
        assert longer.state is JobState.DONE and longer.cache == "resume"
        assert longer.resume_step == reached
        assert entries == 2


def _forked_children(pid: int) -> list[int]:
    """Children of ``pid`` that are forks of it — not the resource
    tracker it may have exec'ed, which exits (and unlinks the dead
    slot's shared memory) once its last client is gone."""
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
                cmdline = Path(f"/proc/{entry}/cmdline").read_text()
            except OSError:
                continue
            if (int(stat.rsplit(")", 1)[1].split()[1]) == pid
                    and "resource_tracker" not in cmdline):
                out.append(int(entry))
    return out


class TestSlotLoss:
    def test_killed_slot_fails_its_job_and_is_replaced(self, tmp_path):
        async def body():
            sched = _scheduler(tmp_path, progress_interval=20)
            before = sched.snapshot()
            job = await sched.submit(SPEC, steps=LONG)
            await _first_progress(sched, job)
            busy = sched.snapshot()["slots_busy"]
            os.kill(job.slot_pid, signal.SIGKILL)
            t0 = time.monotonic()
            await asyncio.wait_for(sched.wait(job), timeout=5)
            took = time.monotonic() - t0
            after = sched.snapshot()
            # both slots serve again: two distinct jobs run to done
            nexts = [
                await sched.submit(replace(SPEC, seed=seed))
                for seed in (6, 7)
            ]
            for nxt in nexts:
                await asyncio.wait_for(sched.wait(nxt), timeout=30)
            await sched.close()
            return before, busy, job, took, after, nexts

        before, busy, job, took, after, nexts = asyncio.run(body())
        index = before["slot_pids"].index(job.slot_pid)
        assert busy == 1
        assert job.state is JobState.FAILED and took < 5.0
        assert job.error.startswith(
            f"SlotLost: slot {index} (pid {job.slot_pid}) died under the job"
        )
        assert pid_gone(job.slot_pid)
        # the permit came back with a fresh process behind it
        assert after["slots_busy"] == 0 and after["slot_restarts"] == 1
        assert after["slot_pids"][index] not in before["slot_pids"]
        assert after["slot_pids"][1 - index] == before["slot_pids"][1 - index]
        assert all(nxt.state is JobState.DONE for nxt in nexts)
        assert {nxt.slot_pid for nxt in nexts} <= set(after["slot_pids"])

    def test_slot_killed_while_idle_costs_no_job(self, tmp_path):
        """Whichever idle slot died, the next dispatch replaces it
        before any job can land on it."""

        async def body():
            sched = _scheduler(tmp_path)
            before = sched.snapshot()["slot_pids"]
            os.kill(before[1], signal.SIGKILL)  # not the next one in line
            assert wait_gone([before[1]])
            jobs = [
                await sched.submit(replace(SPEC, seed=seed))
                for seed in (5, 6)
            ]
            for job in jobs:
                await asyncio.wait_for(sched.wait(job), timeout=30)
            after = sched.snapshot()
            await sched.close()
            return before, jobs, after

        before, jobs, after = asyncio.run(body())
        assert all(job.state is JobState.DONE for job in jobs)
        assert after["slot_restarts"] == 1
        assert after["slot_pids"][0] == before[0]
        assert after["slot_pids"][1] != before[1]
        assert {job.slot_pid for job in jobs} == set(after["slot_pids"])

    @needs_fork
    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc"
    )
    def test_killed_slot_under_a_parallel_job_is_still_noticed(self, tmp_path):
        """A forked shard worker holds every descriptor its parent
        held — except the slot's pipe, or its EOF would never reach the
        scheduler — and leaves on its own pipe's EOF once the slot is
        gone."""
        par = replace(
            SPEC, reps=(6, 6, 3), backend="parallel", workers=2,
            transport="shared",
        )
        orphans = []

        async def body():
            sched = _scheduler(tmp_path, slots=1, progress_interval=20)
            job = await sched.submit(par, steps=LONG)
            await _first_progress(sched, job)
            orphans.extend(_forked_children(job.slot_pid))
            os.kill(job.slot_pid, signal.SIGKILL)
            await asyncio.wait_for(sched.wait(job), timeout=5)
            await sched.close()
            return job

        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                job = asyncio.run(body())
            assert wait_gone(orphans)
        finally:
            for pid in orphans:  # a failing run must not leak them
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        assert len(orphans) == 2
        assert job.state is JobState.FAILED
        assert job.error.startswith("SlotLost: slot 0")

    @needs_fork
    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc"
    )
    def test_respawned_slot_holds_none_of_the_servers_sockets(self, tmp_path):
        """A slot forked under a live server inherits its listening
        socket and client connections; it must drop them, or the port
        stays taken after the listener closes."""

        def sockets_of(pid):
            links = []
            for fd in os.listdir(f"/proc/{pid}/fd"):
                try:
                    links.append(os.readlink(f"/proc/{pid}/fd/{fd}"))
                except OSError:
                    pass
            return [link for link in links if link.startswith("socket:")]

        async def body():
            sched = _scheduler(tmp_path, slots=1, progress_interval=20)
            server = ServeServer(sched, port=0)
            await server.start()
            port = server.port
            client = ServeClient(port=port, timeout=60.0)
            loop = asyncio.get_running_loop()
            try:
                # a client connection is open while the slot is replaced
                waiting = loop.run_in_executor(
                    None, lambda: client.submit(SPEC.to_dict(), steps=LONG)
                )
                while not sched.jobs.all():
                    await asyncio.sleep(0.01)
                (job,) = sched.jobs.all()
                await _first_progress(sched, job)
                os.kill(job.slot_pid, signal.SIGKILL)
                response = await asyncio.wait_for(waiting, timeout=10)
                (fresh,) = sched.snapshot()["slot_pids"]
                mine = len(sockets_of(os.getpid()))
                # the fork has only just happened: give the new slot
                # a moment to reach the first lines of slot_main
                deadline = time.monotonic() + 5.0
                while True:
                    held = sockets_of(fresh)
                    if len(held) == 1 or time.monotonic() > deadline:
                        break
                    await asyncio.sleep(0.02)
            finally:
                await server.close()
            # the replaced slot is alive, the listener is closed: the
            # port must bind at once
            with socket.socket() as probe:
                probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                probe.bind(("127.0.0.1", port))
            alive = not pid_gone(fresh)
            await sched.close()
            return response, held, mine, alive

        response, held, mine, alive = asyncio.run(body())
        assert response["job"]["state"] == "failed"
        assert "SlotLost" in response["job"]["error"]
        assert alive
        assert len(held) == 1  # its own pipe, nothing of the server's
        assert mine > 2  # the server did have more to inherit


class TestServerProcess:
    def _start(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--slots", "2", "--cache-dir", str(tmp_path / "cache")],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        line = proc.stdout.readline()
        port = int(re.search(r"listening on [^:]+:(\d+)", line).group(1))
        return proc, ServeClient(port=port, timeout=60.0)

    def test_sigkilled_server_leaves_no_orphan(self, tmp_path):
        proc, client = self._start(tmp_path)
        try:
            job = client.submit(SPEC.to_dict())["job"]
            pids = client.stats()["stats"]["slot_pids"]
            assert job["state"] == "done" and job["slot_pid"] in pids
            assert all(not pid_gone(pid) for pid in pids)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            # the slots see EOF on their pipes and exit on their own
            assert wait_gone(pids)
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()

    def test_shutdown_reaps_slots_and_frees_the_port(self, tmp_path):
        proc, client = self._start(tmp_path)
        try:
            pids = client.stats()["stats"]["slot_pids"]
            assert len(pids) == 2 and proc.pid not in pids
            client.shutdown()
            assert proc.wait(timeout=10) == 0
            assert wait_gone(pids, timeout=0.5)
            with socket.socket() as probe:
                probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                probe.bind(("127.0.0.1", client.port))
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
