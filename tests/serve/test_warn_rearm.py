"""Served jobs hear parallel degradation warnings, every job.

The warn-once cache (``repro.obs.warn_once``: a core-starved
``transport="auto"`` falling back to the inline tier, degenerate halo
widths) is process state: without the scheduler's per-job
``reset_warnings()`` re-arm, the first job would permanently silence
every later job's degradation report.  These tests pin that two
sequential served jobs each emit the warnings.

No pytest-asyncio in the test environment, so each test drives its
own loop with ``asyncio.run``.
"""

import asyncio
import os
import warnings

import pytest

from repro.parallel import fork_available
from repro.runtime import RunSpec
from repro.serve import JobScheduler, JobState

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="parallel backend requires fork"
)

#: A tiny parallel job that degrades twice: ``transport="auto"`` on a
#: host with fewer cores than workers (the starved auto-inline pick;
#: the fixture below pins the core count to 1) and a 4x1 grid over a
#: slab too narrow for four tiles (the degenerate-halo advisory).
PAR_SPEC = RunSpec(
    element="Ta", reps=(3, 3, 2), temperature=120.0, seed=5,
    steps=2, backend="parallel", topology=(4, 1), transport="auto",
)


def _serve_twice():
    async def body():
        sched = JobScheduler(cache=None)  # every submit really runs
        first = await sched.submit(PAR_SPEC)
        await sched.wait(first)
        second = await sched.submit(PAR_SPEC)
        await sched.wait(second)
        await sched.close()
        return first, second

    return asyncio.run(body())


def test_each_served_job_hears_degradations():
    with warnings.catch_warnings(record=True) as heard:
        warnings.simplefilter("always")
        first, second = _serve_twice()
    assert first.state is JobState.DONE
    assert second.state is JobState.DONE
    starved = [w for w in heard if "picked the inline tier" in str(w.message)]
    halo = [w for w in heard if "ghost regions dominate" in str(w.message)]
    # once per *job*, not once per process: the scheduler re-armed the
    # caches between the two runs
    assert len(starved) == 2
    assert len(halo) == 2


@pytest.fixture(autouse=True)
def _one_core_host(monkeypatch):
    from repro.kernels import active_backend_name, set_backend
    from repro.obs import reset_warnings

    # resolve_transport falls back to os.cpu_count() without the
    # affinity API: a 1-core host, whatever runs the suite
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    # start from a clean slate so earlier tests' warnings don't mask
    reset_warnings()
    base = active_backend_name()
    yield
    # the served parallel job switches the process-wide backend
    set_backend(base)
    reset_warnings()
