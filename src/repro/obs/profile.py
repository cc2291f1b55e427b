"""Run a spec under tracing and reduce it to a phase breakdown.

This is the engine room of the ``repro profile`` CLI command and the CI
observability smoke: build each requested engine from the *same*
physics spec, attach a :class:`~repro.obs.tracer.Tracer` (optionally
feeding a shared JSONL trace file), run it, and reduce the result to an
:class:`EngineProfile` — per-phase wall seconds, coverage against the
engine's measured wall time, and, for the lockstep machine, the paper's
Table II (A, B, C) constants fitted from the traced per-tile cycle
counts and compared against the cycle model's calibration targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None

from repro.obs import metrics, required_phases
from repro.obs.sinks import JsonlSink
from repro.obs.tracer import Tracer
from repro.perfmodel.linear import LinearStepModel, fit_linear_model

__all__ = [
    "EngineProfile",
    "profile_spec",
    "fit_traced_linear",
    "expected_linear_constants",
    "FUNNEL_COUNTERS",
]

#: The neighbor rebuild funnel, widest first (registry counter names).
FUNNEL_COUNTERS = (
    "neighbor.rebuilds",
    "neighbor.raw_candidates",
    "neighbor.coarse_kept",
    "neighbor.exact_kept",
)


@dataclass(frozen=True)
class EngineProfile:
    """One engine's traced run, reduced.

    Attributes
    ----------
    engine:
        ``"reference"`` or ``"wse"``.
    steps:
        Timesteps executed.
    wall_s:
        Engine wall time (host seconds inside ``Engine.step``).
    phase_seconds:
        Per-phase self-time seconds from the tracer (sums to the traced
        total; includes extra spans beyond the taxonomy).
    coverage:
        Traced seconds / ``wall_s`` — how much of the engine's wall
        time the spans account for (the profile check wants >= 0.95).
    missing_phases:
        Required taxonomy phases the run failed to emit (empty on a
        healthy run).
    counters:
        Engine-shaped work counters from its telemetry.
    funnel:
        What the run added to the :data:`FUNNEL_COUNTERS` registry
        counters: rebuilds, and the candidates entering and leaving
        the sweep's coarse cut and the exact kernel (exact,
        seed-repeatable counts; all zero for the lockstep engine).
    minor_faults_per_step:
        Minor page faults this process took per profiled step
        (``ru_minflt`` delta over the run, first step included): the
        allocation tax of per-step temporaries large enough to be
        mapped and faulted afresh each time.  Forked workers fault in
        their own processes and are not counted; ``None`` where the
        ``resource`` module is missing.
    fit:
        Table II constants regressed from the traced per-tile cycles
        (lockstep engine only; ``None`` elsewhere or if degenerate).
    fit_expected:
        The cycle model's calibration targets for the same constants
        (ns), keyed ``a_candidate`` / ``b_interaction`` / ``c_fixed``.
    """

    engine: str
    steps: int
    wall_s: float
    phase_seconds: dict[str, float] = field(default_factory=dict)
    coverage: float = 0.0
    missing_phases: tuple[str, ...] = ()
    counters: dict = field(default_factory=dict)
    funnel: dict[str, int] = field(default_factory=dict)
    minor_faults_per_step: float | None = None
    fit: LinearStepModel | None = None
    fit_expected: dict[str, float] | None = None

    def fit_rel_errors(self) -> dict[str, float] | None:
        """Relative error of each fitted constant vs its target."""
        if self.fit is None or self.fit_expected is None:
            return None
        fitted = {
            "a_candidate": self.fit.a_candidate,
            "b_interaction": self.fit.b_interaction,
            "c_fixed": self.fit.c_fixed,
        }
        return {
            k: abs(fitted[k] - v) / v if v else abs(fitted[k])
            for k, v in self.fit_expected.items()
        }


def _minor_faults() -> int | None:
    """This process's minor page faults so far (``None``: no rusage)."""
    if resource is None:
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def fit_traced_linear(sim) -> LinearStepModel | None:
    """Fit Table II's constants from a :class:`WseMd`'s cycle trace.

    Every (tile, step) sample is one regression row: the tile's cycle
    count (converted to ns at the machine clock) against the candidate
    and interaction counts the step charged it for.  Empty tiles anchor
    the intercept with (0, 0, C) rows.  Returns ``None`` when the trace
    carries no work counts or the sweep is degenerate.
    """
    try:
        cycles, cand, inter = sim.trace.count_samples()
    except RuntimeError:
        return None
    t_ns = cycles * sim.cost_model.machine.cycle_ns
    try:
        return fit_linear_model(cand.ravel(), inter.ravel(), t_ns.ravel())
    except ValueError:
        return None


def expected_linear_constants(sim) -> dict[str, float]:
    """The cycle model's calibration targets for (A, B, C), in ns."""
    model = sim.cost_model
    ns = model.machine.cycle_ns
    pbc = sim.pbc_inplane
    return {
        "a_candidate": model.candidate_cycles(pbc=pbc) * ns,
        "b_interaction": model.interaction_cycles() * ns,
        "c_fixed": (
            model.exchange_cycles(sim.b, pbc=pbc) + model.fixed_cycles()
        )
        * ns,
    }


def profile_spec(
    spec,
    *,
    engines=("reference", "wse"),
    trace_path=None,
    steps: int | None = None,
) -> dict[str, EngineProfile]:
    """Profile ``spec`` on each engine; optionally write a JSONL trace.

    All engines share one trace file (records carry an ``engine``
    static field); each engine runs the same physics spec with only the
    ``engine`` field replaced.  ``steps`` overrides the spec's run
    length.
    """
    from repro.runtime.runner import Runner

    results: dict[str, EngineProfile] = {}
    fh = open(trace_path, "w") if trace_path is not None else None
    try:
        for name in engines:
            espec = spec.with_engine(name)
            tracer = Tracer()
            if fh is not None:
                sink = JsonlSink(fh, static={"engine": name})
                sink.write_meta(spec=espec.to_dict())
                tracer.add_sink(sink)
            runner = Runner.from_spec(espec, tracer=tracer)
            reg = metrics()
            before = {n: reg.counter(n).value for n in FUNNEL_COUNTERS}
            faults = _minor_faults()
            try:
                telemetry = runner.run(steps)
                faults_after = _minor_faults()
            finally:
                # pool teardown happens outside the engine's measured
                # wall time; spawn is traced as ``parallel.pool``, so
                # neither counts against the coverage gate
                runner.close()
            totals = tracer.phase_totals()
            wall = telemetry.wall_time_s
            coverage = tracer.total_s() / wall if wall > 0 else 0.0
            # A parallel spec can legitimately degrade to the serial
            # path (no fork, periodic box); the telemetry says whether
            # the sharded pipeline — and so ``halo_exchange`` — ran.
            required = required_phases(
                name,
                swap_interval=espec.swap_interval,
                sharded="transport" in telemetry.counters,
            )
            missing = tuple(p for p in required if p not in totals)
            fit = None
            expected = None
            if name == "wse":
                sim = runner.engine.sim
                fit = fit_traced_linear(sim)
                expected = expected_linear_constants(sim)
            results[name] = EngineProfile(
                engine=name,
                steps=telemetry.steps,
                wall_s=wall,
                phase_seconds=totals,
                coverage=coverage,
                missing_phases=missing,
                counters=dict(telemetry.counters),
                funnel={
                    n: int(reg.counter(n).value - before[n])
                    for n in FUNNEL_COUNTERS
                },
                minor_faults_per_step=(
                    (faults_after - faults) / telemetry.steps
                    if faults is not None and telemetry.steps else None
                ),
                fit=fit,
                fit_expected=expected,
            )
    finally:
        if fh is not None:
            fh.close()
    return results
