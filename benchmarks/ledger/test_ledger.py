"""Tests of the ledger harness itself, at ``--smoke`` size (whole file < 30 s).

    python -m pytest benchmarks/ledger/test_ledger.py -q

Not part of the repository's tier-1 suite (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import compare  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import serve_workload  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


# Which declared per-layer metrics each workload measures, by name prefix.
# Everything else is a layer that workload does no work in.
EVERY_TRACED_RUN = ("host.", "ledger.trace_overhead_pct", "ledger.traced_ops",
                    "ledger.untraced_ops_per_s", "runtime.import_s")
SERIAL_LAYERS = ("runtime.build_engine_s", "kernels.neighbor_prefilter.",
                 "kernels.fused_density_pass.", "kernels.fused_force_pass.busy_s",
                 "kernels.fused_force_pass.pairs_per_s",
                 "kernels.bytes_per_pair_computed", "md.", "potentials.",
                 "ledger.self_time_coverage")
MEASURED_BY = {
    "ta16k-steady": SERIAL_LAYERS + (
        "runtime.engine_tax_pct", "runtime.runner_tax_pct", "runtime.checkpoint.",
        "obs.", "kernels.floor.", "kernels.fused_force_pass.frac_of_floor"),
    "ta16k-rebuild": SERIAL_LAYERS,
    "ta16k-sharded": ("runtime.build_engine_s", "parallel."),
    "wse-ta100k": ("runtime.build_engine_s", "core."),
    "serve-mix": ("serve.", "runtime.bare_job_ms"),
}


def _declared(prefixes) -> list[str]:
    return [m["name"] for m in BENCHMARK["per_layer"]
            if m["name"].startswith(prefixes)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_pass_emits_every_declared_metric_with_its_unit(workload):
    record = worker.run(workload, seed=3, seconds=0.0, trace=False, smoke=True)
    assert record["metrics"].keys() == {m["name"] for m in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["end_to_end"]:
        assert record["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert all(m["value"] > 0 for m in record["metrics"].values())
    assert record["failures"] == []
    assert record["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS[:4])
def test_the_host_speed_factors_on_record_are_the_ones_applied(workload):
    record = worker.run(workload, seed=3, seconds=0.0, trace=False, smoke=True)
    details = record["details"]
    rates = [details["window_steps"] / wall / speed for wall, speed
             in zip(details["window_seconds"], details["window_host_speed"])]
    assert record["metrics"]["steps_per_s"]["value"] == pytest.approx(
        statistics.median(rates))
    assert record["metrics"]["setup_s"]["value"] == pytest.approx(
        min(details["setup_seconds"]) * details["setup_host_speed"])
    # factors come only from kernel samples taken around the timed units
    samples = details["calib_samples_ms"]
    assert len(samples["steps_per_s"]) == len(details["window_seconds"]) + 1
    assert len(samples["setup_s"]) == len(details["setup_seconds"]) + 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_emits_exactly_the_layers_the_workload_exercises(workload):
    record = worker.run(workload, seed=3, seconds=0.0, trace=True, smoke=True)
    expected = _declared(EVERY_TRACED_RUN + MEASURED_BY[workload])
    assert list(record["metrics"]) == expected
    for metric in BENCHMARK["per_layer"]:
        if metric["name"] in record["metrics"]:
            assert record["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert record["failures"] == []
    # the result line still names every per-layer metric, as the driver asks
    line = json.loads(run.contract_line(record, BENCHMARK))
    assert list(line["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]


def test_every_per_layer_metric_is_measured_by_some_workload():
    measured = {name for prefixes in MEASURED_BY.values()
                for name in _declared(EVERY_TRACED_RUN + prefixes)}
    assert measured == {m["name"] for m in BENCHMARK["per_layer"]}


def test_an_undeclared_metric_is_refused():
    with pytest.raises(KeyError, match="not named"):
        worker.named_metrics({"made.up": 1.0}, BENCHMARK["per_layer"])


def test_declared_names_are_plain_and_unique():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert "setup_s" in {m["name"] for m in BENCHMARK["end_to_end"]}


def test_schedule_repeats_per_seed_and_differs_across_seeds():
    assert (serve_workload.make_schedule(5, 0, 300)
            == serve_workload.make_schedule(5, 0, 300))
    assert (serve_workload.make_schedule(5, 0, 300)
            != serve_workload.make_schedule(6, 0, 300))


@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_schedule_classes_are_decided_before_sending(seed):
    keys_of_all_clients = []
    for client in range(serve_workload.CLIENTS):
        existing: set[tuple[int, int]] = set()
        classes = []
        for cls, spec_seed, steps in serve_workload.make_schedule(seed, client, 400):
            key = (spec_seed, steps)
            if cls == "hit":
                assert key in existing
            else:
                assert key not in existing  # a resume never targets a stored key
                if cls == "resume":
                    deepest = max(s for k, s in existing if k == spec_seed)
                    assert steps == deepest + serve_workload.STEP_INCREMENT
                else:
                    assert all(k != spec_seed for k, _ in existing)
                existing.add(key)
            classes.append(cls)
        assert classes[0] == "cold"
        assert (classes.count("cold"), classes.count("hit")) == (80, 240)
        keys_of_all_clients.append({k for k, _ in existing})
    assert not set.intersection(*keys_of_all_clients)


def test_top_percentile_needs_ten_samples_beyond_it():
    assert spans.top_percentile(216) == 95.0  # 10.8 samples beyond p95
    assert spans.top_percentile(199) == 90.0
    assert spans.top_percentile(72) == 85.0
    assert spans.top_percentile(10_000) == 99.9
    assert spans.top_percentile(19) == 50.0
    assert spans.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert spans.percentile([float(x) for x in range(101)], 95.0) == 95.0
    assert spans.percentile([4.0, 1.0], 99.9) == pytest.approx(3.997)


def test_self_time_is_duration_minus_what_children_cover():
    # id, name, start, end, parent, thread
    rows = [
        [1, "step", 0.0, 10.0, None, 0],
        [2, "pairs", 1.0, 4.0, 1, 0],
        [3, "kernel", 2.0, 3.0, 2, 0],
        [4, "force", 5.0, 9.0, 1, 0],
        [5, "force", 8.0, 9.0, 1, 1],  # another thread; overlaps its sibling
    ]
    times = spans.layer_times(rows)
    assert times["step"] == {"calls": 1, "busy_s": 10.0, "self_s": 3.0}
    assert times["pairs"]["self_s"] == 2.0
    assert times["kernel"]["self_s"] == 1.0
    assert times["force"] == {"calls": 2, "busy_s": 5.0, "self_s": 5.0}


def test_recorder_links_children_to_the_open_span():
    rec = spans.SpanRecorder("t")
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    (outer, inner) = rec.spans
    assert inner[4] == outer[0] and outer[4] is None
    assert outer[2] <= inner[2] <= inner[3] <= outer[3]


def test_traced_backend_is_bitwise_numpy():
    from repro.kernels import set_backend
    from repro.runtime.engines import build_engine
    from repro.runtime.spec import RunSpec

    spec = RunSpec(element="Ta", reps=(6, 6, 3), backend="numpy", seed=4)
    plain = build_engine(spec)
    plain.step(6)
    traced = build_engine(spec)
    rec = spans.SpanRecorder("t")
    ledger = probes.register_traced_backend(rec)
    set_backend(probes.TRACED_BACKEND)
    try:
        probes.decomposed_steps(traced.sim, 6, rec, [])
    finally:
        set_backend("numpy")
    assert np.array_equal(plain.state.positions, traced.state.positions)
    assert np.array_equal(plain.state.velocities, traced.state.velocities)
    assert ledger.items["fused_force_pass"] > 0
    assert spans.layer_times(rec.spans)["kernels.fused_force_pass"]["calls"] == 6


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [x * 0.97 for x in steady], "higher", 0.1) == "ok"
    assert compare.verdict(steady, [x * 0.8 for x in steady], "higher", 0.1) == "regressed"
    assert compare.verdict(steady, [x * 1.2 for x in steady], "lower", 0.1) == "regressed"
    noisy = [100.0, 130.0, 80.0, 120.0, 90.0]
    assert compare.verdict(noisy, noisy, "higher", 0.1) == "unresolved"
    assert compare.verdict(noisy, [200.0, 210.0, 190.0, 250.0], "higher", 0.1) == "ok"
