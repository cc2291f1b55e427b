"""CI smoke bench: a table of RunSpecs + a 30% drop gate (``repro bench``).

Each :class:`BenchCase` names one complete :class:`~repro.runtime.RunSpec`
— element, slab, engine, steps and the whole layer stack (kernel backend,
workers/topology/transport) — so a case name means the same run on every
host.  ``repro bench`` builds each spec's engine, steps it through a
warm-up and a few timed windows, appends the run to the append-only
``BENCH_kernels.json`` history (``repro-bench/2``), and with
``--baseline`` exits non-zero when any case's steps/s falls more than
:data:`MAX_DROP` below the newest same-mode baseline row of that name.

This is a smoke test, not the performance record: claims are settled by
the calibrated ledger (``benchmarks/ledger``), phase breakdowns come from
``repro profile --spec``, and parallel == serial is proven by
``tests/parallel/test_halo.py::TestTrajectoryMatrix``.

Benchmark numbers are machine-dependent: compare runs from the same
host only.  The committed ``benchmarks/baseline_kernels.json`` is
refreshed whenever the kernels intentionally change speed.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.runtime.spec import RunSpec

__all__ = [
    "BenchCase",
    "BenchResult",
    "CASES",
    "MAX_DROP",
    "CaseSelectionError",
    "run_case",
    "run_bench",
    "baseline_for_case",
    "compare_to_baseline",
    "write_report",
    "peak_rss_bytes",
    "reset_peak_rss",
]

#: Largest fractional steps/s drop vs the baseline the gate lets pass.
MAX_DROP = 0.30


@dataclass(frozen=True)
class BenchCase:
    """One timed workload: a name, the full-mode spec, the quick override.

    ``quick`` holds the :class:`RunSpec` fields quick mode replaces (a
    small slab and its step count); ``None`` marks a full-mode-only
    case.  ``warmup`` is the (full, quick) count of steps run untimed
    first, so the cell-list build and first-use caching costs do not
    pollute the steady-state rate.
    """

    name: str
    spec: RunSpec
    quick: dict | None
    warmup: tuple[int, int] = (2, 5)
    #: timed windows per run; the recorded rate is the best window.
    #: Wall-clock noise on shared hosts is one-sided (throttling and
    #: interference only ever *add* time), so max-of-N windows is the
    #: consistent estimator of the steady rate; every case uses 3.
    windows: int = 3


_QUICK_TA = {"reps": (8, 8, 4), "steps": 40}

#: Standard workloads.  Reference slabs are bulk-like (the acceptance
#: workload is the 16,000-atom Ta slab); the small lockstep case is
#: small because the simulator carries per-tile overhead in Python, and
#: every lockstep case benches the paper's force-symmetry path (on the
#: native tier).  The ``par-Ta-*`` cases run the sharded pipeline on the
#: same 16k-atom slab the serial ``ref-Ta`` case (numpy) times, the
#: ``native-*`` cases their ``ref-*`` twin's slab and window.  The Ta
#: reference cases time a 40-step full-mode window: neighbor candidates
#: persist across steps (serially and shard-side), so a representative
#: rate must span at least two Verlet reuse periods (~16 steps each at
#: 300 K) — a window shorter than one period measures a reuse-only
#: rate no long run can sustain and hides the rebuild economics.
CASES: tuple[BenchCase, ...] = (
    BenchCase("ref-Ta", RunSpec(
        element="Ta", reps=(20, 20, 20), steps=40, backend="numpy",
    ), _QUICK_TA),
    BenchCase("native-Ta", RunSpec(
        element="Ta", reps=(20, 20, 20), steps=40, backend="native",
    ), _QUICK_TA),
    # The Ta siblings are compared against ref-Ta's rate, so they run
    # immediately after it: comparison pairs timed back-to-back see the
    # same host state, while a sweep that interleaves the lockstep cases
    # hands the later side cold caches and a throttled clock (a ~15%
    # ratio bias measured on 1-core containers).
    BenchCase("par-Ta-w1", RunSpec(
        element="Ta", reps=(20, 20, 20), steps=40, backend="parallel",
        workers=1, transport="shared",
    ), _QUICK_TA),
    BenchCase("par-Ta-w2", RunSpec(
        element="Ta", reps=(20, 20, 20), steps=40, backend="parallel",
        workers=2, transport="shared",
    ), _QUICK_TA),
    BenchCase("par-Ta-w4", RunSpec(
        element="Ta", reps=(20, 20, 20), steps=40, backend="parallel",
        workers=4, transport="shared",
    ), _QUICK_TA),
    # both parallel layers at once: a 2D domain grid over loopback TCP
    BenchCase("par-Ta-2x2-socket", RunSpec(
        element="Ta", reps=(20, 20, 20), steps=40, backend="parallel",
        topology=(2, 2), transport="socket",
    ), _QUICK_TA),
    BenchCase("ref-Cu", RunSpec(
        element="Cu", reps=(16, 16, 16), steps=6, backend="numpy",
    ), {"reps": (6, 6, 4), "steps": 40}),
    BenchCase("native-Cu", RunSpec(
        element="Cu", reps=(16, 16, 16), steps=6, backend="native",
    ), {"reps": (6, 6, 4), "steps": 40}),
    BenchCase("ref-W", RunSpec(
        element="W", reps=(20, 20, 20), steps=6, backend="numpy",
    ), {"reps": (8, 8, 4), "steps": 40}),
    BenchCase("wse-Ta", RunSpec(
        element="Ta", reps=(8, 8, 3), steps=20, engine="wse",
        backend="native", force_symmetry=True,
    ), {"reps": (5, 5, 2), "steps": 30}),
    # Lockstep scaling cases: the wafer's sweeps keep their scratch at
    # O(grid), so the machine runs the paper's actual experiment
    # sizes.  100k is the everyday scaling case (its quick slab covers
    # the >=10k-atom regime the CI gate watches); 800k is the paper's
    # 801,792-atom Ta slab (256 x 261 x 6 BCC cells), which has no small
    # stand-in and is therefore full mode only.  Both warm up 2 steps,
    # past the set-up list build, and keep the best of 3 windows: a
    # single window read whatever the case before it left in the caches
    # and on the clock.
    BenchCase("wse-Ta-100k", RunSpec(
        element="Ta", reps=(128, 131, 3), steps=5, engine="wse",
        backend="native", force_symmetry=True,
    ), {"reps": (48, 48, 3), "steps": 10}, warmup=(2, 2)),
    BenchCase("wse-Ta-800k", RunSpec(
        element="Ta", reps=(256, 261, 6), steps=6, engine="wse",
        backend="native", force_symmetry=True,
    ), None, warmup=(2, 2)),
)


class CaseSelectionError(ValueError):
    """``--cases`` named a case that does not exist or cannot run here."""


@dataclass
class BenchResult:
    """Timing + workload stats for one executed case."""

    name: str
    engine: str
    element: str
    n_atoms: int
    steps: int
    wall_s: float
    steps_per_s: float
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "engine": self.engine,
            "element": self.element,
            "n_atoms": self.n_atoms,
            "steps": self.steps,
            "wall_s": round(self.wall_s, 4),
            "steps_per_s": round(self.steps_per_s, 3),
        }
        out.update(self.extra)
        return out


def _case_extra(engine: str, telemetry) -> dict:
    """Engine-shaped report extras, from the unified telemetry record."""
    c = telemetry.counters
    if engine == "reference":
        ph = telemetry.phase_seconds
        out = {
            "pairs_per_step": round(c["pairs_per_step"], 1),
            "neighbor_rebuilds": c["neighbor_rebuilds"],
            "time_neighbor_s": round(ph["neighbor"], 4),
            "time_force_s": round(ph["force"], 4),
            "time_integrate_s": round(ph["integrate"], 4),
            # the resolved layout (null for serial runs), so the history
            # shows which grid and transport a row actually ran
            "topology": c.get("topology"),
            "transport": c.get("transport"),
        }
        if "workers" in c:
            from repro import parallel

            # sharded run: worker count, halo traffic and cumulative
            # per-stage shard seconds, so imbalance and ghost cost are
            # visible in the report; a row with more pinned ranks than
            # usable CPUs measures oversubscription, not scaling
            out["workers"] = c["workers"]
            out["oversubscribed"] = c["workers"] > parallel.usable_cpus()
            out["halo_bytes_sent"] = c["halo_bytes_sent"]
            out["halo_bytes_recv"] = c["halo_bytes_recv"]
            out["halo_seconds"] = c["halo_seconds"]
            out["shard_seconds"] = c["shard_seconds"]
        return out
    return {
        "grid": [c["grid_nx"], c["grid_ny"]],
        "b": c["b"],
        "modeled_wse2_steps_per_s": round(c["modeled_steps_per_s"], 1),
        # how many CPUs the native sweeps ran on (derived, not a knob)
        "sweep_threads": int(c["sweep_threads"]),
        # how many of the window's sweeps rebuilt the Verlet list: a
        # short window can hold none, and then reads the reuse rate
        "list_builds": int(c["list_builds"]),
        "list_reuse_ratio": round(c["list_reuse_ratio"], 3),
    }


def reset_peak_rss() -> bool:
    """Reset the kernel's peak-RSS watermark for this process.

    Writing ``5`` to ``/proc/self/clear_refs`` (Linux >= 4.0) resets
    ``VmHWM``, so each bench case's recorded peak is its own, not the
    high-water mark of whichever earlier case was largest.  Returns
    False where unsupported — then :func:`peak_rss_bytes` reports the
    process-lifetime peak (still an upper bound).
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def peak_rss_bytes() -> int | None:
    """Peak resident set size in bytes (``VmHWM``; ru_maxrss fallback)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except (ImportError, OSError):  # pragma: no cover - non-POSIX
        return None


def run_case(case: BenchCase, *, quick: bool = False,
             steps: int | None = None) -> BenchResult:
    """Time one case: build its spec's engine, warm up, best of N windows.

    ``steps`` shortens the timed window (tests); the kernel backend that
    was active before the call is active again after it, so a case's
    tier (``kernel_backend``, a sharded case's too) never leaks out.
    """
    from repro.kernels import active_backend, active_backend_name, set_backend
    from repro.runtime import build_engine

    spec = replace(case.spec, **case.quick) if quick else case.spec
    if steps is not None:
        spec = replace(spec, steps=steps)
    base_backend = active_backend_name()
    reset_peak_rss()
    windows = []
    try:
        engine = build_engine(spec)
        try:
            # the first step builds the wafer's Verlet list: timed alone
            t0 = time.perf_counter()
            engine.step(1)
            first_step_s = time.perf_counter() - t0
            engine.step(case.warmup[1 if quick else 0] - 1)
            # every window re-times the same steady-state workload; the
            # engine keeps running, so later windows span the same
            # rebuild cadence as the first
            for _ in range(case.windows):
                engine.reset_telemetry()  # steady state, not warmup
                engine.step(spec.steps)
                windows.append(engine.telemetry())
            kernel_backend = active_backend_name()
            # seconds spent in the C compiler: 0.0 on a warm cache
            compile_s = getattr(active_backend(), "compile_s", 0.0)
        finally:
            engine.close()
    finally:
        set_backend(base_backend)
    telemetry = max(windows, key=lambda w: w.steps_per_s)
    extra = _case_extra(spec.engine, telemetry)
    if len(windows) > 1:
        extra["window_steps_per_s"] = [
            round(w.steps_per_s, 3) for w in windows
        ]
    if spec.engine == "wse":
        extra["build_step_s"] = round(first_step_s, 4)
    extra["kernel_backend"] = kernel_backend
    extra["compile_s"] = round(compile_s, 4)
    peak = peak_rss_bytes()
    if peak is not None:
        extra["peak_rss_bytes"] = peak
    return BenchResult(
        name=case.name,
        engine=spec.engine,
        element=spec.element,
        n_atoms=int(telemetry.counters["n_atoms"]),
        steps=spec.steps,
        wall_s=telemetry.wall_time_s,
        steps_per_s=telemetry.steps_per_s,
        extra=extra,
    )


def run_bench(
    *,
    quick: bool = False,
    cases: list[str] | None = None,
    steps: int | None = None,
    progress=None,
) -> list[BenchResult]:
    """Run the selected cases (default: all) in declaration order.

    A case pinned to a backend this host cannot load (``native-*``
    without a C compiler, ``par-*`` without fork) is never timed under the
    numpy fallback: swept up by the default selection it is skipped
    with a progress note, *named* in ``cases`` it raises
    :class:`CaseSelectionError` before anything is timed — as does an
    unknown name — so a CI backend leg can never silently bench the
    wrong kernels.  Quick mode skips full-mode-only cases with a note.
    """
    from repro import parallel
    from repro.kernels import available_backends, backend_status

    known = [c.name for c in CASES]
    unknown = [n for n in cases or () if n not in known]
    if unknown:
        raise CaseSelectionError(
            f"unknown bench case(s) {unknown}; expected some of {known}"
        )
    selected = [c for c in CASES if not cases or c.name in cases]
    usable = set(available_backends())
    if parallel.fork_available():  # the sharded engine's one requirement
        usable.add("parallel")
    for case in selected:
        if cases and case.spec.backend not in usable:
            reasons = {"parallel": "no fork start method", **backend_status()}
            reason = reasons.get(case.spec.backend, "unknown backend")
            raise CaseSelectionError(
                f"case {case.name} needs the {case.spec.backend} backend, "
                f"which is unavailable ({reason}); a named case never "
                f"benches the numpy fallback"
            )
    note = progress or (lambda line: None)
    results: list[BenchResult] = []
    for case in selected:
        if quick and case.quick is None:
            note(f"  {case.name}: full mode only, skipped")
        elif case.spec.backend not in usable:
            note(f"  {case.name}: backend {case.spec.backend!r} "
                 f"unavailable on this host, skipped")
        else:
            note(f"  {case.name} ({case.spec.engine}) ...")
            results.append(run_case(case, quick=quick, steps=steps))
    return results


def _git_sha() -> str | None:
    """Short commit SHA of the working tree, or None outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def write_report(path: str, results: list[BenchResult], *,
                 quick: bool) -> dict:
    """Append this run to the report history at ``path``.

    ``BENCH_kernels.json`` is append-only: each run becomes one
    ``history`` entry (timestamp, git SHA, mode, per-case results), so
    the recorded trajectory of steps/s survives across invocations.  A
    missing, corrupt or history-less file starts a fresh history.
    Returns the full report dict.
    """
    entry = {
        "created_unix": round(time.time(), 1),
        "git_sha": _git_sha(),
        "mode": "quick" if quick else "full",
        "numpy_version": np.__version__,
        # parallel entries are only comparable on similar hosts; record
        # the core count next to each run's worker counts
        "cpu_count": os.cpu_count(),
        "results": [r.to_json() for r in results],
    }
    history: list[dict] = []
    try:
        with open(path) as fh:
            on_disk = json.load(fh)
        if isinstance(on_disk, dict) and isinstance(
            on_disk.get("history"), list
        ):
            history = on_disk["history"]
    except (OSError, json.JSONDecodeError):
        pass
    history.append(entry)
    report = {"schema": "repro-bench/2", "history": history}
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report


def baseline_for_case(report: dict, name: str, mode: str) -> dict | None:
    """Newest ``mode`` row for ``name``, walking the history backwards.

    The latest history entry need not contain every case (``--cases``
    runs, cases added after the last full sweep): the gate compares
    each case against the most recent entry that actually timed it.
    Only entries of the same bench mode count — quick and full numbers
    are never comparable.  Returns ``None`` when no prior timing exists
    anywhere — the committed baseline is refreshed whenever a case is
    added, so the gap is one run wide.
    """
    for entry in reversed(report.get("history", [])):
        if entry.get("mode") != mode:
            continue
        for r in entry.get("results", []):
            if r.get("name") == name and r.get("steps_per_s"):
                return r
    return None


def compare_to_baseline(
    results: list[BenchResult], baseline: dict, mode: str
) -> tuple[list[str], list[str]]:
    """The regression gate: each result vs its :func:`baseline_for_case`.

    A case absent from the newest entry still gates against its own
    most recent number instead of silently passing.  Returns
    ``(failures, notes)``: failure lines (empty = pass), plus one note
    per case with **no** baseline anywhere (new cases are reported
    distinctly, never silently skipped).
    """
    failures: list[str] = []
    notes: list[str] = []
    for r in results:
        ref = baseline_for_case(baseline, r.name, mode)
        if ref is None:
            notes.append(
                f"{r.name}: no baseline entry (new case; recorded at "
                f"{r.steps_per_s:.2f} steps/s, gated from the next run)"
            )
            continue
        floor = (1.0 - MAX_DROP) * ref["steps_per_s"]
        if r.steps_per_s < floor:
            failures.append(
                f"{r.name}: {r.steps_per_s:.2f} steps/s < "
                f"{floor:.2f} (baseline {ref['steps_per_s']:.2f} "
                f"- {MAX_DROP:.0%} allowance)"
            )
    return failures, notes
