"""The layer-tax ledger: this repository's benchmark.

    python benchmarks/ledger/run.py [--seed 7] [--workloads a,b] [--trace] [--out FILE]
    python benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1
    python benchmarks/ledger/run.py --compare A.json B.json

The first form runs every workload (end-to-end pass, then with
``--trace`` the per-layer pass), prints every metric by name with its
unit, and appends every run made to ``--out``.  The second is the form
``BENCHMARK.json`` declares: one workload, one pass, result as the last
line.  Each run is a fresh ``worker.py`` process.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
DRIFT_LIMIT_PCT = 10.0
MAX_RERUNS = 2
WORKER_TIMEOUT_S = 170


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               smoke: bool) -> dict:
    """One fresh worker process; its record, or an exception if it failed."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    # own session: on a timeout the worker's server and forked ranks go with it
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(
            f"worker for {workload} ran past {WORKER_TIMEOUT_S} s and was killed")
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def print_record(record: dict) -> None:
    pass_name = "per-layer (traced)" if record["trace"] else "end-to-end"
    print(f"== {record['workload']}  {pass_name}  seed {record['seed']}  "
          f"{record['elapsed_s']:.1f} s  calibration kernel "
          f"{record['calib']['median_ms']:.3f} ms, drift "
          f"{record['calib']['drift_pct']:+.1f}%")
    samples = record["details"].get("samples", {})
    wall = record["details"].get("wall_clock", {})
    for name, metric in record["metrics"].items():
        n = f"  n={samples[name]}" if name in samples else ""
        raw = f"  (calibrated; wall-clock {wall[name]:.6g})" if name in wall else ""
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}{n}{raw}")
    print(f"  attempted {record['attempted']}  failed {record['failed']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    if record["details"].get("oversubscribed"):
        print("  oversubscribed: fewer cores than workers; counts hold, "
              "wall-clock metrics do not")


def contract_line(record: dict, benchmark: dict) -> str:
    """The result line of the single-workload form.

    The driver wants every declared metric of the pass from every
    workload, so here, and only here, a per-layer metric this workload
    did not measure reads 0.  Records and the printed table keep only
    what was measured.
    """
    metrics = record["metrics"]
    if record["trace"]:
        blank = {m["name"]: {"value": 0.0, "unit": m["unit"]}
                 for m in benchmark["per_layer"]}
        metrics = {**blank, **metrics}
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def guarded_runs(workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool) -> list[dict]:
    """Run; re-run (at most twice) while the host drifted more than 10%.

    Every run made is returned; the last one is the one to read.
    """
    records = []
    for _ in range(1 + MAX_RERUNS):
        records.append(run_worker(workload, seed, seconds, trace, smoke))
        if abs(records[-1]["calib"]["drift_pct"]) <= DRIFT_LIMIT_PCT:
            break
        print(f"  host drifted {records[-1]['calib']['drift_pct']:+.1f}% "
              f"during {workload}; running it again")
    return records


def append_records(path: Path, records: list[dict]) -> None:
    """``--out`` accumulates: every run ever made into it is kept."""
    existing = json.loads(path.read_text()) if path.exists() else []
    path.write_text(json.dumps(existing + records, indent=1) + "\n")


def main() -> int:
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="one workload, one pass, result as the last line")
    parser.add_argument("--workloads", help="comma-separated subset (default all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the harness's own tests")
    parser.add_argument("--out", type=Path, help="append every run to this JSON file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args()

    if args.compare:
        from compare import compare_files

        return compare_files(*args.compare, benchmark)

    try:
        return run_benchmark(args, benchmark, parser)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run_benchmark(args, benchmark: dict, parser) -> int:
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload:
        record = run_worker(args.workload, args.seed, args.seconds, args.trace,
                            args.smoke)
        print_record(record)
        if args.out:
            append_records(args.out, [record])
        print(contract_line(record, benchmark))
        return 0

    selected = args.workloads.split(",") if args.workloads else names
    unknown = sorted(set(selected) - set(names))
    if unknown:
        parser.error(f"unknown workloads {unknown}; expected some of {names}")
    failed = 0
    for workload in selected:
        records = guarded_runs(workload, args.seed, args.seconds, 0, args.smoke)
        if args.trace:
            records += guarded_runs(workload, args.seed, args.seconds, 1, args.smoke)
        for record in records:
            print_record(record)
        if args.out:
            append_records(args.out, records)
        failed += sum(r["failed"] for r in records)
    print(f"failed operations over all workloads: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
