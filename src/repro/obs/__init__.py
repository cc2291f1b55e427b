"""``repro.obs``: structured tracing for both engines.

The paper's headline claim rests on per-phase accounting — Table II's
``t = A*n_cand + B*n_int + C`` regression and Sec. V-B's per-tile
timestep-time stability both come from instrumenting *where* a step
spends its time.  This package is the software analogue, LAMMPS-style:

* :class:`~repro.obs.tracer.Tracer` — nested phase spans (wall time +
  counter payloads) with self-time accounting, so per-phase totals sum
  to the traced wall time.
* Sinks (:mod:`repro.obs.sinks`) — JSONL trace files and the
  end-of-run summary table.
* :mod:`repro.obs.profile` — run a spec under tracing and reduce it to
  a phase breakdown (the ``repro profile`` CLI command).
* :func:`warn_once` / :func:`reset_warnings` — the one warn-once cache
  every degradation warning goes through (a kernel tier that cannot
  load, a sharded run that falls back to serial, a degenerate domain
  decomposition).

Counts are not kept here.  Each lives on the object that made it —
``WseMd.list_builds``, ``NeighborList.n_builds``, the reference
engine's rebuild funnel in its ``SimStats``, the pipeline's rounds and
halo bytes, ``ResultCache.hits`` — and reaches readers through the
engine's :class:`~repro.runtime.telemetry.Telemetry` (or, for the job
server, its ``stats`` op).  There is no process-wide registry.

Phase taxonomy
--------------
Both engines report through one vocabulary:

========== ===============================================================
phase      meaning
========== ===============================================================
exchange   candidate/embedding-derivative neighborhood exchange (WSE only)
neighbor   neighbor search: cell-list/Verlet build + distance filter
density    electron-density accumulation (EAM stage 1)
embedding  embedding energy/derivative evaluation (EAM stage 2)
pair_force pair force/energy evaluation (EAM stage 3 / Eq. 4)
integrate  leap-frog update (+ thermostat)
swap       atom-swap remapping round (WSE only)
========== ===============================================================

Engines may emit extra spans beyond the taxonomy: both wrap each
timestep in a ``step`` envelope whose *self*-time is the loop glue
between phases (LAMMPS's "Other" row), and the lockstep machine adds
``cycle_account``.  Sharded (given a domain layout, e.g.
``backend="parallel"`` in a spec), the reference engine additionally
emits ``parallel.pool`` — the one-time
worker-pool spawn, its own phase so pool setup never inflates
``neighbor`` nor counts against the ``repro profile --check``
wall-coverage gate (teardown happens outside the measured wall time).
The lockstep machine's step is one kernel call that times its own
phases, so every wse phase is a pre-measured leaf span inside ``step``:
``neighbor`` the test of the held list, ``exchange`` the list build
(candidate shift and coarse cut; 0 on a reuse step), then ``density``,
``embedding``, ``pair_force``, ``integrate`` and ``cycle_account``; the
wse taxonomy is unchanged.  Sharded runs keep the standard taxonomy
too: each rank runs the serial engine on its tile, so its phases
arrive as pre-measured children (the slowest rank's, per phase),
per-shard timings ride in the engine's telemetry, and each command
round's exposed communication time lands as one extra
leaf, a pre-measured ``halo_exchange`` child span (with
``bytes_sent``/``bytes_recv`` counters from the transport) — the host
analogue of the wafer's exchange cost.  :data:`ENGINE_PHASES` names the
subset each engine is *required* to produce, which the ``repro profile
--check`` CI smoke asserts; ``required_phases(..., sharded=True)`` adds
``halo_exchange`` for runs the sharded pipeline actually drove.
"""

import warnings

from repro.obs.sinks import (
    JsonlSink,
    read_trace,
    render_phase_table,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "PHASES",
    "ENGINE_PHASES",
    "required_phases",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "JsonlSink",
    "read_trace",
    "render_phase_table",
    "warn_once",
    "reset_warnings",
]

#: Keys whose warning this process has already emitted.  Module state,
#: so it outlives a job and survives fork: :func:`reset_warnings`
#: re-arms it.
_warned: set = set()


def warn_once(key, message: str) -> None:
    """Emit ``message`` as a RuntimeWarning once per ``key`` (any
    hashable) until the next :func:`reset_warnings`; the warning is
    attributed to the caller of the function that calls this."""
    if key in _warned:
        return
    _warned.add(key)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def reset_warnings() -> None:
    """Re-arm every warn-once warning.

    Without a reset the cache silences a warning for the life of the
    process *and* across fork, so a worker or a served job never hears
    about degradations that predate it.  A serve slot calls this before
    each job.
    """
    _warned.clear()


#: The full phase vocabulary, in canonical (timestep) order.
PHASES = (
    "exchange",
    "neighbor",
    "density",
    "embedding",
    "pair_force",
    "integrate",
    "swap",
)

#: The taxonomy subset each engine must emit every run.
ENGINE_PHASES = {
    "reference": ("neighbor", "density", "embedding", "pair_force", "integrate"),
    "wse": ("exchange", "neighbor", "density", "embedding", "pair_force",
            "integrate", "swap"),
}


def required_phases(
    engine: str,
    *,
    swap_interval: int = 0,
    sharded: bool = False,
) -> tuple[str, ...]:
    """The phases a run of ``engine`` must produce.

    ``swap`` only fires when swapping is enabled, so it is required of
    the lockstep engine only when ``swap_interval > 0``; likewise
    ``halo_exchange`` only fires when the sharded force pipeline drove
    the run (``sharded=True`` — the caller knows from the engine's
    telemetry, since a parallel spec can legitimately fall back to the
    serial path).
    """
    phases = ENGINE_PHASES[engine]
    if engine == "wse" and swap_interval == 0:
        phases = tuple(p for p in phases if p != "swap")
    if sharded and engine == "reference":
        phases = (*phases, "halo_exchange")
    return phases
