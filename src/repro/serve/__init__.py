"""``repro.serve`` — the MD runtime as a long-lived service.

The paper's wafer holds a simulation for days; the question this layer
answers is what sits *in front* of such an engine: a job runtime that
accepts declarative :class:`~repro.runtime.spec.RunSpec` requests,
schedules them onto a bounded pool of persistent slot processes, and
never recomputes what it already knows.  Results are cached by
``(spec_hash, n_steps)`` on top of the atomic checkpoint store — an
identical request returns the stored telemetry without touching an
engine, and a request for *more* steps of a cached spec resumes from
the stored checkpoint instead of restarting from step zero.

Layers (each its own module):

* :mod:`~repro.serve.queue` — the job model and table
  (``queued -> running -> done | failed | cancelled``);
* :mod:`~repro.serve.cache` — the on-disk result cache with LRU cap
  and corruption-tolerant validation;
* :mod:`~repro.serve.events` — lifecycle/progress/log streaming to
  subscribers;
* :mod:`~repro.serve.slots` — the slot process an engine runs in and
  the pipe protocol to it;
* :mod:`~repro.serve.scheduler` — coalescing, cache decisions,
  ensembles, cancellation, slot loss;
* :mod:`~repro.serve.api` — the JSON-lines TCP wire protocol and the
  blocking client behind ``repro serve`` / ``repro submit`` /
  ``repro jobs``.
"""

from repro.serve.api import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    ServeClient,
    ServeServer,
    run_server,
)
from repro.serve.cache import CacheEntry, ResultCache
from repro.serve.events import EventBus, JobEvent, Subscription
from repro.serve.queue import TERMINAL_STATES, Job, JobState, JobTable
from repro.serve.scheduler import JobScheduler

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "ServeClient",
    "ServeServer",
    "run_server",
    "CacheEntry",
    "ResultCache",
    "EventBus",
    "JobEvent",
    "Subscription",
    "TERMINAL_STATES",
    "Job",
    "JobState",
    "JobTable",
    "JobScheduler",
]
