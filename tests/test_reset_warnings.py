"""The warn-once cache: its reset and fork inheritance.

The kernel and parallel layers warn once per degradation for the life
of the process, through one cache (:func:`repro.obs.warn_once`).  That
cache is plain module state, so it survives ``fork`` — a worker (or a
served job) inheriting a populated cache never hears about
degradations that predate it.  ``repro.obs.reset_warnings()`` re-arms
it; the serve scheduler calls it before every job.
"""

import multiprocessing
import sys
import warnings

import pytest

from repro import kernels, obs
from repro.obs import reset_warnings


class TestKernelReset:
    def test_clears_fallback_cache(self):
        obs._warned.add("probe:test")
        reset_warnings()
        assert obs._warned == set()

    def test_rearms_the_warning(self):
        previous = kernels.active_backend_name()
        reset_warnings()
        try:
            with warnings.catch_warnings(record=True) as first:
                warnings.simplefilter("always")
                kernels.set_backend("no-such-backend-xyz")
            assert len(first) == 1
            # cached: silent the second time
            with warnings.catch_warnings(record=True) as second:
                warnings.simplefilter("always")
                kernels.set_backend("no-such-backend-xyz")
            assert len(second) == 0
            # reset: audible again
            reset_warnings()
            with warnings.catch_warnings(record=True) as third:
                warnings.simplefilter("always")
                kernels.set_backend("no-such-backend-xyz")
            assert len(third) == 1
        finally:
            reset_warnings()
            kernels.set_backend(previous)


class TestParallelReset:
    def test_clears_both_caches(self):
        obs._warned.add("probe reason")
        obs._warned.add(("x", 9, 1))
        reset_warnings()
        assert obs._warned == set()


def _forked_child(queue) -> None:
    """Runs in the fork: report the inherited cache, reset, re-check."""
    inherited = list(obs._warned)
    reset_warnings()
    queue.put({
        "inherited": inherited,
        "after_reset": list(obs._warned),
    })


@pytest.mark.skipif(
    sys.platform == "win32", reason="fork start method required"
)
def test_fork_inherits_cache_and_reset_clears_it():
    """A forked worker inherits the parent's warn-once cache (the bug
    surface) and reset_warnings() gives it a clean slate."""
    marker = "fork-probe:backend"
    obs._warned.add(marker)
    try:
        ctx = multiprocessing.get_context("fork")
        queue = ctx.SimpleQueue()
        child = ctx.Process(target=_forked_child, args=(queue,))
        child.start()
        report = queue.get()
        child.join(timeout=30)
        assert child.exitcode == 0
        assert marker in report["inherited"]
        assert report["after_reset"] == []
        # the parent's cache is untouched by the child's reset
        assert marker in obs._warned
    finally:
        obs._warned.discard(marker)
