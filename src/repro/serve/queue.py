"""Job model and table for the serve layer.

A :class:`Job` is one accepted request: a :class:`~repro.runtime.spec.
RunSpec` plus a target step count, moving through the lifecycle
``queued -> running -> done | failed | cancelled``.  The job's *cache
disposition* (``hit`` / ``resume`` / ``miss``) records how the
scheduler satisfied it — identical requests return the stored result,
longer requests continue from the stored checkpoint — and the
append-only ``log`` narrates the decisions for ``repro jobs`` and the
CI smoke.

The :class:`JobTable` is the scheduler's in-memory registry: insertion-
ordered, id-keyed, with monotonically increasing ids.  It is loop-
confined state of the server process — only the scheduler's event loop
creates jobs, transitions states, appends log lines and sets result
fields; a slot process never sees a :class:`Job`, only the spec and
checkpoint prefixes the scheduler sends it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.runtime.spec import RunSpec

__all__ = ["JobState", "TERMINAL_STATES", "Job", "JobTable"]


class JobState(str, enum.Enum):
    """Lifecycle of a served job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States a job never leaves.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
)


@dataclass
class Job:
    """One accepted request and everything learned while serving it."""

    id: str
    spec: RunSpec
    steps: int
    state: JobState = JobState.QUEUED
    #: How the cache satisfied the job: ``"hit"`` (stored result
    #: returned, no engine run), ``"resume"`` (continued from a stored
    #: checkpoint), ``"miss"`` (fresh run), or ``None`` while queued.
    cache: Optional[str] = None
    #: Step count the engine *started* from (> 0 only on resume).
    resume_step: int = 0
    #: Extra submissions coalesced into this job (same spec hash and
    #: step target while it was in flight).
    coalesced: int = 0
    #: Batch id when submitted as part of an ensemble.
    ensemble: Optional[str] = None
    #: Pid of the slot process that ran the job (``None`` for a hit).
    slot_pid: Optional[int] = None
    error: Optional[str] = None
    result: Optional[dict] = None
    log: list = field(default_factory=list)
    cancel_requested: bool = False
    # loop-side handles (not serialized)
    task: object = None
    slot: object = None  # the Slot stepping it right now
    done_event: object = None

    @property
    def key(self) -> tuple:
        """The result-cache key this job computes: (spec_hash, steps)."""
        return (self.spec.spec_hash(), self.steps)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def as_dict(self) -> dict:
        """JSON-ready public view (what the API returns)."""
        return {
            "id": self.id,
            "state": self.state.value,
            "element": self.spec.element,
            "reps": list(self.spec.reps),
            "engine": self.spec.engine,
            "steps": int(self.steps),
            "spec_hash": self.spec.spec_hash(),
            "cache": self.cache,
            "resume_step": int(self.resume_step),
            "coalesced": int(self.coalesced),
            "ensemble": self.ensemble,
            "slot_pid": self.slot_pid,
            "error": self.error,
            "result": self.result,
            "log": list(self.log),
        }


class JobTable:
    """Insertion-ordered, id-keyed registry of every accepted job."""

    def __init__(self) -> None:
        self._jobs: dict[str, Job] = {}
        self._next = 1

    def new(self, spec: RunSpec, steps: int, *, ensemble: str | None = None) -> Job:
        job_id = f"j{self._next:04d}"
        self._next += 1
        job = Job(id=job_id, spec=spec, steps=int(steps), ensemble=ensemble)
        self._jobs[job_id] = job
        return job

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def all(self) -> list[Job]:
        return list(self._jobs.values())

    def __len__(self) -> int:
        return len(self._jobs)
