"""The async job scheduler: bounded slot processes over the runtime.

One :class:`JobScheduler` owns everything between an accepted
:class:`~repro.runtime.spec.RunSpec` and a served result:

* a bounded pool of **persistent slot processes**
  (:mod:`repro.serve.slots`) — forked when the scheduler is
  constructed, one engine at a time each, so two jobs never share an
  interpreter lock; any number of jobs wait queued for an idle slot;
* **coalescing**: a submission whose ``(spec_hash, steps)`` key is
  already in flight attaches to the running job instead of spawning a
  duplicate engine run;
* the **result cache** (:class:`~repro.serve.cache.ResultCache`):
  exact keys return the stored telemetry without touching, or waiting
  for, a slot, and longer requests resume from the deepest stored
  checkpoint;
* **ensembles**: N replicas / parameter sweeps expanded into jobs that
  drain through the same persistent slots;
* **lifecycle + cancellation**: ``queued -> running -> done | failed |
  cancelled``; a cancel crosses the pipe as a ``stop`` message, the
  slot's loop breaks at its next poll — at most 1,024 steps away, one
  ``md_step`` call of the reference engine — and the partial
  trajectory is cached, so cancelled work is still resumable; a slot
  that dies under its job fails it with
  :class:`~repro.serve.slots.SlotLost` and is replaced;
* **event streaming**: state transitions, log lines, and progress
  samples (taken inside the slot by the runner's observer bus, at the
  cadence the slot derives from the job) pushed to
  :class:`~repro.serve.events.EventBus` subscribers.

Process discipline: everything that decides or mutates — cache index,
coalescing, job states, event bus, the cache's counts — lives on the
event loop of the server process, which starts no thread and never
executes ``Runner.run``.  A slot gets a spec and two checkpoint
prefixes and answers with telemetry; it writes checkpoint files into
the cache directory, but only this process indexes them.
"""

from __future__ import annotations

import asyncio
import warnings
from dataclasses import replace
from functools import partial

from repro.runtime.spec import RunSpec, SpecError
from repro.serve.cache import ResultCache
from repro.serve.events import EventBus
from repro.serve.queue import Job, JobState, JobTable
from repro.serve.slots import Slot

__all__ = ["JobScheduler"]


class JobScheduler:
    """Accept RunSpecs, schedule them on slot processes, cache results.

    Parameters
    ----------
    slots:
        Concurrent engine runs, one child process each, started here:
        construct the scheduler before the process owns listeners,
        connections or threads a fork would copy.  Queued jobs wait.
    cache:
        Optional :class:`ResultCache`; without one every job is a fresh
        run and nothing is stored.

    Subscribers attach to :attr:`bus`.  How often a running job
    reports progress and heeds a cancel is the slot's rule, derived
    from the job (:mod:`repro.serve.slots`).
    """

    def __init__(
        self,
        *,
        slots: int = 2,
        cache: ResultCache | None = None,
    ) -> None:
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self.slots = int(slots)
        self.cache = cache
        self.bus = EventBus()
        self.jobs = JobTable()
        self._inflight: dict[tuple, Job] = {}
        self._slots = [Slot(index) for index in range(self.slots)]
        self._idle = list(self._slots)
        self._sem = asyncio.Semaphore(self.slots)  # a permit: an idle slot
        self._ensembles = 0
        self._closed = False

    # -- submission --------------------------------------------------------

    async def submit(
        self,
        spec: RunSpec,
        *,
        steps: int | None = None,
        ensemble: str | None = None,
    ) -> Job:
        """Accept one request; returns its (possibly coalesced) job.

        ``steps`` overrides the spec's run length.  A request whose
        ``(spec_hash, steps)`` is already queued or running attaches to
        that job — concurrent duplicates cost one engine run.
        """
        if self._closed:
            raise RuntimeError("scheduler is closed")
        if steps is not None:
            spec = replace(spec, steps=int(steps))
        target = spec.steps
        key = (spec.spec_hash(), target)
        existing = self._inflight.get(key)
        if existing is not None and not existing.terminal:
            existing.coalesced += 1
            self._log(existing, "coalesced a duplicate submission")
            return existing
        job = self.jobs.new(spec, target, ensemble=ensemble)
        job.done_event = asyncio.Event()
        self._inflight[key] = job
        self._log(job, f"queued: {spec.element} {spec.reps} "
                       f"x {target} steps ({spec.engine})")
        self.bus.publish(job.id, "state", {"state": job.state.value})
        job.task = asyncio.create_task(self._run_job(job))
        # safety net: a task cancelled before its body ever ran skips
        # _run_job's state handling entirely — without this callback
        # the job would stay QUEUED and its done_event never fire
        job.task.add_done_callback(lambda task: self._task_done(job, task))
        return job

    def _task_done(self, job: Job, task: asyncio.Task) -> None:
        if self._inflight.get(job.key) is job:
            self._inflight.pop(job.key, None)
        if job.terminal:
            return
        if task.cancelled():
            self._set_state(job, JobState.CANCELLED)
        elif task.exception() is not None:  # pragma: no cover - net
            job.error = repr(task.exception())
            self._set_state(job, JobState.FAILED, error=job.error)

    async def submit_ensemble(
        self,
        spec: RunSpec,
        *,
        replicas: int = 1,
        sweep: dict | None = None,
        steps: int | None = None,
    ) -> list[Job]:
        """Batch submission: N replicas and/or a parameter sweep.

        Replica ``i`` runs ``seed + i``; ``sweep`` maps one spec field
        to a list of values (crossed with the replicas).  All jobs in
        the batch drain through the same persistent slots, each of
        which builds an element's potential tables at most once.
        """
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self._ensembles += 1
        batch = f"e{self._ensembles:03d}"
        variants = [spec]
        if sweep:
            from dataclasses import fields

            known = {f.name for f in fields(RunSpec)}
            variants = []
            for field_name, values in sweep.items():
                if field_name not in known:
                    raise SpecError(
                        f"unknown sweep field {field_name!r}; "
                        f"expected a RunSpec field"
                    )
                for value in values:
                    variants.append(replace(spec, **{field_name: value}))
        jobs = []
        for variant in variants:
            for i in range(replicas):
                member = replace(variant, seed=variant.seed + i)
                jobs.append(
                    await self.submit(member, steps=steps, ensemble=batch)
                )
        return jobs

    async def wait(self, job: Job) -> Job:
        """Block until the job reaches a terminal state."""
        await job.done_event.wait()
        return job

    async def cancel(self, job_id: str) -> bool:
        """Cancel a queued or running job; ``False`` if already done.

        A queued job is dropped before it ever takes a slot; a running
        job is asked to stop at the slot's next poll, its partial
        checkpoint is cached, and its state becomes ``cancelled``.
        """
        job = self.jobs.get(job_id)
        if job is None or job.terminal:
            return False
        self._log(job, "cancellation requested")
        self._interrupt(job)
        await job.done_event.wait()
        return job.state is JobState.CANCELLED

    def _interrupt(self, job: Job) -> None:
        job.cancel_requested = True
        if job.slot is not None:
            job.slot.send(("stop", job.id))
        elif job.state is JobState.QUEUED and job.task is not None:
            job.task.cancel()

    # -- loop-side internals -----------------------------------------------

    def _set_state(self, job: Job, state: JobState, **payload) -> None:
        job.state = state
        self.bus.publish(
            job.id, "state", {"state": state.value, **payload}
        )
        if job.terminal:
            job.done_event.set()

    def _log(self, job: Job, line: str) -> None:
        job.log.append(line)
        self.bus.publish(job.id, "log", {"line": line})

    async def _run_job(self, job: Job) -> None:
        try:
            # a hit neither waits for nor touches a slot
            job.result = self._serve_from_cache(job)
            if job.result is None:
                async with self._sem:
                    if job.cancel_requested:
                        self._set_state(job, JobState.CANCELLED)
                        return
                    self._set_state(job, JobState.RUNNING)
                    for slot in self._idle:
                        # one that died idle is replaced here, where
                        # its death costs no job
                        slot.ensure_alive()
                    slot = self._idle.pop(0)
                    try:
                        job.result = await self._compute(job, slot)
                    finally:
                        job.slot = None
                        self._idle.append(slot)
            if job.cancel_requested and job.result["steps"] < job.steps:
                self._set_state(job, JobState.CANCELLED)
            else:
                self._set_state(job, JobState.DONE, cache=job.cache)
        except asyncio.CancelledError:
            self._set_state(job, JobState.CANCELLED)
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            job.error = f"{type(exc).__name__}: {exc}"
            self._log(job, f"failed: {job.error}")
            self._set_state(job, JobState.FAILED, error=job.error)
        finally:
            if self._inflight.get(job.key) is job:
                self._inflight.pop(job.key, None)

    def _serve_from_cache(self, job: Job) -> dict | None:
        """Serve the job's exact key from the cache, if it is there."""
        if self.cache is None:
            return None
        spec_hash, target = job.key
        if self.cache.lookup(spec_hash, target) is None:
            return None
        telemetry = self.cache.telemetry(spec_hash, target)
        if telemetry is None:
            # checkpoint valid but telemetry sidecar unreadable:
            # recompute
            self.cache.evict(spec_hash, target)
            return None
        job.cache = "hit"
        self._set_state(job, JobState.RUNNING)
        self._log(
            job,
            f"cache hit: ({spec_hash}, {target}) served from "
            f"stored result, no engine run",
        )
        return {
            "telemetry": telemetry,
            "cache": "hit",
            "resume_step": 0,
            "steps": target,
            "checkpoint": str(self.cache.prefix(spec_hash, target)),
        }

    async def _compute(self, job: Job, slot: Slot) -> dict:
        """The server half of an engine run: pick the resume source,
        have ``slot`` compute, adopt what it wrote into the cache."""
        spec_hash, target = job.key
        cache = self.cache
        prefix = resume = None
        if cache is not None:
            prefix = cache.prefix(spec_hash, target)
            entry = cache.best_resume(spec_hash, target)
            if entry is not None:
                resume = cache.prefix(spec_hash, entry.steps)
                job.cache = "resume"
                job.resume_step = entry.steps
                self._log(
                    job,
                    f"resumed from cached checkpoint at step "
                    f"{job.resume_step} (of {target})",
                )
        if resume is None:
            job.cache = "miss"
            self._log(job, "cache miss: fresh engine run")
        job.slot, job.slot_pid = slot, slot.process.pid
        tele, reached = await slot.run(
            ("run", job.id, job.spec, prefix, resume),
            partial(self._slot_event, job),
        )

        tele["serve"] = {
            "job": job.id,
            "resume_step": int(job.resume_step),
            "reached_step": int(reached),
            "cache": job.cache,
        }
        checkpoint = None
        if cache is not None:
            cache.put(spec_hash, reached, tele, src_prefix=prefix)
            checkpoint = str(cache.prefix(spec_hash, reached))
            self._log(job, f"cached result under ({spec_hash}, {reached})")
        if reached < target:
            self._log(job, f"stopped at step {reached} of {target}")
        return {
            "telemetry": tele,
            "cache": job.cache,
            "resume_step": int(job.resume_step),
            "steps": int(reached),
            "checkpoint": checkpoint,
        }

    def _slot_event(self, job: Job, kind: str, *payload) -> None:
        """What a slot streams while its engine steps."""
        if kind == "progress":
            (sample,) = payload
            self.bus.publish(job.id, "progress", sample)
        elif kind == "warning":
            category, text = payload
            self._log(job, f"warning: {category.__name__}: {text}")
            warnings.warn(text, category)

    # -- lifecycle ---------------------------------------------------------

    async def close(self) -> None:
        """Cancel outstanding jobs, drain the slots, reap every slot."""
        if self._closed:
            return
        self._closed = True
        pending = [job for job in self.jobs.all() if not job.terminal]
        for job in pending:
            self._interrupt(job)
        for job in pending:
            await job.done_event.wait()
        for slot in self._slots:
            slot.close()

    def snapshot(self) -> dict:
        """JSON-ready view of the whole scheduler (API stats op)."""
        states: dict[str, int] = {}
        for job in self.jobs.all():
            states[job.state.value] = states.get(job.state.value, 0) + 1
        out = {
            "slots": self.slots,
            "slot_pids": [slot.process.pid for slot in self._slots],
            "slots_busy": self.slots - len(self._idle),
            "slot_restarts": sum(slot.restarts for slot in self._slots),
            "jobs": len(self.jobs),
            "states": states,
        }
        if self.cache is not None:
            out["cache"] = self.cache.stats()
        return out
