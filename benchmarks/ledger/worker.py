"""One workload, one pass, one fresh process.  Started by ``run.py``.

Prints a single JSON record as the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time


def named_metrics(measured: dict[str, float], declared: list[dict]) -> dict:
    """The measured metrics in declared order, each with its declared unit.

    Only what this workload measured: a layer it does not exercise has no
    entry, so a probe that stops emitting is missing, not 0.  A measured
    name that is not declared is a harness bug.
    """
    unknown = sorted(set(measured) - {m["name"] for m in declared})
    if unknown:
        raise KeyError(f"metrics not named in BENCHMARK.json: {unknown}")
    return {
        m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]}
        for m in declared if m["name"] in measured
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    from host import OUT_DIR, REPO_ROOT, HostClock, host_info

    t_begin = time.perf_counter()
    src = REPO_ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())

    t0 = time.perf_counter()
    import repro.runtime.runner  # noqa: F401  (engines, kernels, md, potentials)
    import repro.serve  # noqa: F401
    import_s = time.perf_counter() - t0

    import md_workloads
    import serve_workload
    from spans import SpanRecorder

    tmp_dir = OUT_DIR / f"tmp-{workload}-{os.getpid()}"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    rec = SpanRecorder(f"{workload}/seed{seed}")
    clock = HostClock()
    try:
        if workload == "serve-mix":
            wl = serve_workload.WORKLOAD
            if smoke:
                wl = serve_workload.smoke_size(wl)
            if trace:
                measured, checks, details = serve_workload.run_traced(
                    wl, seed, seconds, rec, tmp_dir)
            else:
                measured, checks, details = serve_workload.run_end_to_end(
                    wl, seed, seconds, tmp_dir)
        else:
            wl = md_workloads.WORKLOADS[workload]
            if smoke:
                wl = md_workloads.smoke_size(wl)
            if trace:
                measured, checks, details = md_workloads.run_traced(
                    wl, seed, seconds, benchmark["run_seconds"],
                    rec, tmp_dir, smoke)
            else:
                measured, checks, details = md_workloads.run_end_to_end(
                    wl, seed, seconds, clock)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    clock.finish()

    if trace:
        measured["host.calib_ms"] = clock.calib_ms
        measured["host.calib_drift_pct"] = clock.drift_pct
        measured["runtime.import_s"] = import_s
        rec.write_jsonl(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
    declared = benchmark["per_layer" if trace else "end_to_end"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "metrics": named_metrics(measured, declared),
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "failures": checks.failures,
        "calib": {"before_ms": clock.before_ms, "after_ms": clock.after_ms,
                  "median_ms": clock.calib_ms, "drift_pct": clock.drift_pct},
        "host": host_info(),
        "elapsed_s": time.perf_counter() - t_begin,
        "details": details,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    # before numpy loads its BLAS: every workload is single-threaded per process
    for var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        os.environ[var] = "1"
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    # telemetry counters may carry numpy scalars
    print(json.dumps(record, default=lambda o: o.item()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
