"""``run.py --compare A.json B.json``: is B worse than A, by the ledger's rules?

A and B are ``--out`` files (A the parent commit, B the change), each
holding every run made into it.  Per workload and end-to-end metric:
both medians and quartiles, how much worse B's median is as a share of
A's, the bound, and a verdict.  ``unresolved`` means the run-to-run
spread is wider than the bound, so the runs cannot show the metric
unchanged — never read it as ``ok``.  Digests and program counts of runs
that share a seed must be equal.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def worse_by(a: list[float], b: list[float], better: str) -> float:
    """How much worse B's median is than A's, as a share of A's (+ is worse)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    delta = med_a - med_b if better == "higher" else med_b - med_a
    return delta / abs(med_a) if med_a else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    if max(spread(a), spread(b)) > bound:
        every_b_better = (
            min(b) > max(a) if better == "higher" else max(b) < min(a)
        )
        return "ok" if every_b_better else "unresolved"
    return "regressed" if worse_by(a, b, better) > bound else "ok"


def _load(path: Path) -> dict[str, list[dict]]:
    """End-to-end, full-size runs by workload, in the order they were made."""
    by_workload: dict[str, list[dict]] = {}
    for record in json.loads(path.read_text()):
        if not record["trace"] and not record["smoke"]:
            by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def exact_mismatches(runs_a: list[dict], runs_b: list[dict]) -> tuple[int, list[str]]:
    """Compare ``details.exact`` of every run with the first run of its seed."""
    first: dict[int, dict] = {}
    compared = 0
    problems = []
    for record in runs_a + runs_b:
        exact = record["details"]["exact"]
        reference = first.setdefault(record["seed"], exact)
        if reference is exact:
            continue
        compared += 1
        for key in sorted(set(reference) | set(exact)):
            if reference.get(key) != exact.get(key):
                problems.append(
                    f"seed {record['seed']} {key}: "
                    f"{reference.get(key)!r} != {exact.get(key)!r}"
                )
    return compared, problems


def compare_files(path_a: Path, path_b: Path, benchmark: dict) -> int:
    runs_a, runs_b = _load(path_a), _load(path_b)
    bad = False
    print(f"A = {path_a}   B = {path_b}   (worse-by is B against A)")
    for workload in (w["name"] for w in benchmark["workloads"]):
        a_runs, b_runs = runs_a.get(workload, []), runs_b.get(workload, [])
        if not a_runs or not b_runs:
            print(f"{workload}: missing from {'A' if not a_runs else 'B'}")
            continue
        failed = sum(r["failed"] for r in a_runs), sum(r["failed"] for r in b_runs)
        print(f"{workload}  runs A={len(a_runs)} B={len(b_runs)}  "
              f"failed operations A={failed[0]} B={failed[1]}")
        bad |= failed[1] > failed[0]
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            qa, qb = quartiles(a), quartiles(b)
            result = verdict(a, b, metric["better"], metric["bound"])
            bad |= result == "regressed"
            print(f"  {name:<12} {metric['unit']:<8} "
                  f"A {qa[1]:>10.4g} [{qa[0]:.4g}, {qa[2]:.4g}]  "
                  f"B {qb[1]:>10.4g} [{qb[0]:.4g}, {qb[2]:.4g}]  "
                  f"worse by {worse_by(a, b, metric['better']) * 100:+6.1f}% "
                  f"of bound {metric['bound'] * 100:.0f}%  {result}")
        compared, problems = exact_mismatches(a_runs, b_runs)
        if problems:
            bad = True
            for problem in problems:
                print(f"  exact MISMATCH {problem}")
        else:
            print(f"  exact: digests and counts equal over {compared} "
                  f"same-seed comparisons")
    return 1 if bad else 0
