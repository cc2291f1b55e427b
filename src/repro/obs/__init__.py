"""``repro.obs``: structured tracing and metrics for both engines.

The paper's headline claim rests on per-phase accounting — Table II's
``t = A*n_cand + B*n_int + C`` regression and Sec. V-B's per-tile
timestep-time stability both come from instrumenting *where* a step
spends its time.  This package is the software analogue, LAMMPS-style:

* :class:`~repro.obs.tracer.Tracer` — nested phase spans (wall time +
  counter payloads) with self-time accounting, so per-phase totals sum
  to the traced wall time.
* :class:`~repro.obs.metrics.MetricsRegistry` — process-wide counters,
  gauges and histograms (``neighbor.rebuilds``, ``wse.list.builds`` /
  ``wse.list.reuses``, ``swap.moves``, per-tile cycle distributions,
  kernel dispatch counts).
* Sinks (:mod:`repro.obs.sinks`) — JSONL trace files and the
  end-of-run summary table.
* :mod:`repro.obs.profile` — run a spec under tracing and reduce it to
  a phase breakdown (the ``repro profile`` CLI command).

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
``cycle_account``.  Under the ``parallel`` kernel backend the
reference engine additionally emits ``parallel.pool`` — the one-time
worker-pool spawn, its own phase so pool setup never inflates
``neighbor`` nor counts against the ``repro profile --check``
wall-coverage gate (teardown happens outside the measured wall time).
The lockstep machine's streaming sweeps report ``exchange`` and
``neighbor`` as pre-measured child spans inside ``density`` (the
position shift and the one filter of the step) and ``exchange`` again
inside ``pair_force`` (the ``F'`` gather at the recorded survivors), so
the wse taxonomy is unchanged.  Sharded runs keep the standard taxonomy
too: the ranks step their own atoms, so stages that run rank-side
inside another phase's round (density, embedding, the look-ahead
filter) arrive as pre-measured children, per-shard timings ride as span
counters (``shard_sum_s``/``shard_max_s``) and ``parallel.*`` metrics,
and each command round's exposed communication time lands as one extra
leaf, a pre-measured ``halo_exchange`` child span (with
``bytes_sent``/``bytes_recv`` counters from the transport) — the host
analogue of the wafer's exchange cost.  :data:`ENGINE_PHASES` names the
subset each engine is *required* to produce, which the ``repro profile
--check`` CI smoke asserts; ``required_phases(..., sharded=True)`` adds
``halo_exchange`` for runs the sharded pipeline actually drove.
"""

from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    label,
    metrics,
)
from repro.obs.sinks import (
    JsonlSink,
    ListSink,
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
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "label",
    "metrics",
    "JsonlSink",
    "ListSink",
    "read_trace",
    "render_phase_table",
]

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
