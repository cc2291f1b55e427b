"""Benchmark harness unit + smoke tests (``repro.bench`` / CLI)."""

import json
from pathlib import Path

import pytest

from repro.bench import (
    CASES,
    MAX_DROP,
    BenchResult,
    CaseSelectionError,
    baseline_for_case,
    compare_to_baseline,
    run_bench,
    run_case,
    write_report,
)
from repro.cli import main
from repro.kernels import available_backends

BY_NAME = {c.name: c for c in CASES}

# the lockstep cases are pinned to the compiled tier, and a *named* case
# never benches the numpy fall-back
needs_native = pytest.mark.skipif(
    "native" not in available_backends(),
    reason="the wse-* bench cases need the native tier (no C compiler)",
)


def fake_result(name="ref-Ta", steps_per_s=10.0, **extra):
    return BenchResult(
        name=name, engine="reference", element="Ta", n_atoms=100,
        steps=5, wall_s=5 / steps_per_s, steps_per_s=steps_per_s,
        extra=extra,
    )


def report_of(*entries):
    """A ``repro-bench/2`` report: one ``(mode, [results])`` per entry."""
    return {
        "schema": "repro-bench/2",
        "history": [
            {"mode": mode, "results": [r.to_json() for r in results]}
            for mode, results in entries
        ],
    }


class TestCaseTable:
    def test_names_are_unique(self):
        assert len(BY_NAME) == len(CASES)

    def test_every_case_pins_its_backend(self):
        # one case name = one layer stack on every host: no case runs
        # "whatever backend the harness was launched with"
        for case in CASES:
            assert case.spec.backend is not None, case.name
            if case.spec.backend == "parallel":
                assert case.spec.transport in ("shared", "socket"), case.name

    def test_only_the_paper_scale_case_is_full_mode_only(self):
        assert [c.name for c in CASES if c.quick is None] == ["wse-Ta-800k"]
        for case in CASES:
            if case.quick is not None:
                assert set(case.quick) == {"reps", "steps"}, case.name

    def test_paper_scale_case_geometry(self):
        # the headline workload: 801,792 Ta atoms (256 x 261 x 6 BCC)
        big = BY_NAME["wse-Ta-800k"].spec
        assert big.engine == "wse" and big.force_symmetry
        nx, ny, nz = big.reps
        assert 2 * nx * ny * nz == 801_792
        assert big.steps >= 3
        scale = BY_NAME["wse-Ta-100k"]
        nx, ny, nz = scale.spec.reps
        assert 2 * nx * ny * nz >= 100_000
        qx, qy, qz = scale.quick["reps"]
        assert 2 * qx * qy * qz >= 10_000  # the >=10k-atom CI regime

    def test_parallel_worker_sweep_present(self):
        sweep = {c.name: c.spec for c in CASES
                 if c.spec.backend == "parallel"}
        assert set(sweep) == {"par-Ta-w1", "par-Ta-w2", "par-Ta-w4",
                              "par-Ta-2x2-socket"}
        assert [sweep[f"par-Ta-w{w}"].workers for w in (1, 2, 4)] == [1, 2, 4]
        both_layers = sweep["par-Ta-2x2-socket"]
        assert (both_layers.topology, both_layers.transport) == (
            (2, 2), "socket")
        # the acceptance workload: same slab and window as ref-Ta
        ref = BY_NAME["ref-Ta"]
        for name, spec in sweep.items():
            assert (spec.reps, spec.steps) == (ref.spec.reps, ref.spec.steps)
            assert BY_NAME[name].quick == ref.quick

    def test_acceptance_workload_present(self):
        ta = BY_NAME["ref-Ta"].spec
        assert (ta.reps, ta.engine, ta.backend) == (
            (20, 20, 20), "reference", "numpy")

    @pytest.mark.parametrize("element", ["Ta", "Cu"])
    def test_native_case_mirrors_its_reference_case(self, element):
        # the compiled tier is timed on the very same slab and window,
        # so the native-X / ref-X ratio is like for like
        import dataclasses

        nat, ref = BY_NAME[f"native-{element}"], BY_NAME[f"ref-{element}"]
        assert nat.spec == dataclasses.replace(ref.spec, backend="native")
        assert (nat.quick, nat.warmup, nat.windows) == (
            ref.quick, ref.warmup, ref.windows)

    def test_lockstep_cases_run_on_the_native_tier(self):
        for name in ("wse-Ta", "wse-Ta-100k", "wse-Ta-800k"):
            assert BY_NAME[name].spec.backend == "native"


class TestCompare:
    def test_within_allowance_passes(self):
        baseline = report_of(("quick", [fake_result(steps_per_s=10.0)]))
        assert compare_to_baseline(
            [fake_result(steps_per_s=8.0)], baseline, "quick"
        ) == ([], [])

    def test_regression_reported(self):
        baseline = report_of(("quick", [fake_result(steps_per_s=10.0)]))
        failures, notes = compare_to_baseline(
            [fake_result(steps_per_s=5.0)], baseline, "quick"
        )
        assert len(failures) == 1
        assert "ref-Ta" in failures[0]
        assert f"{MAX_DROP:.0%}" in failures[0]
        assert notes == []

    def test_unknown_cases_noted_not_failed(self):
        # a case with no baseline anywhere must be surfaced distinctly
        # (a note), never silently skipped and never a failure
        baseline = report_of(("quick", [fake_result(name="other")]))
        failures, notes = compare_to_baseline(
            [fake_result(steps_per_s=0.001)], baseline, "quick"
        )
        assert failures == []
        assert len(notes) == 1
        assert "ref-Ta" in notes[0] and "no baseline" in notes[0]

    def test_gate_reads_latest_history_entry(self):
        # the gate must compare against the newest run that timed the case
        baseline = report_of(
            ("quick", [fake_result(steps_per_s=1000.0)]),
            ("quick", [fake_result(steps_per_s=10.0)]),
        )
        assert compare_to_baseline(
            [fake_result(steps_per_s=9.0)], baseline, "quick"
        ) == ([], [])
        failures, _ = compare_to_baseline(
            [fake_result(steps_per_s=5.0)], baseline, "quick"
        )
        assert len(failures) == 1

    def test_gate_walks_history_for_missing_case(self):
        # the newest entry lacks the case (a --cases run): the gate
        # must fall back to the case's own latest prior number
        baseline = report_of(
            ("quick", [fake_result(steps_per_s=10.0)]),
            ("quick", [fake_result(name="other")]),
        )
        failures, notes = compare_to_baseline(
            [fake_result(steps_per_s=5.0)], baseline, "quick"
        )
        assert len(failures) == 1 and notes == []
        assert compare_to_baseline(
            [fake_result(steps_per_s=9.0)], baseline, "quick"
        ) == ([], [])

    def test_gate_respects_mode(self):
        # quick runs never gate against full-mode history entries
        baseline = report_of(("full", [fake_result(steps_per_s=1000.0)]))
        failures, notes = compare_to_baseline(
            [fake_result(steps_per_s=5.0)], baseline, "quick"
        )
        assert failures == []
        assert len(notes) == 1
        assert baseline_for_case(baseline, "ref-Ta", "full")[
            "steps_per_s"] == 1000.0

    @pytest.mark.parametrize(
        "name", ["BENCH_kernels.json", "benchmarks/baseline_kernels.json"]
    )
    def test_real_on_disk_history_walks_clean(self, name):
        # the shipped reports: every row ever written is still reachable
        # by the walk that gates against it, under its own name and mode
        path = Path(__file__).resolve().parents[1] / name
        report = json.loads(path.read_text())
        assert report["schema"] == "repro-bench/2"
        for entry in report["history"]:
            for r in entry["results"]:
                hit = baseline_for_case(report, r["name"], entry["mode"])
                assert hit is not None and hit["steps_per_s"] > 0
        if name.startswith("benchmarks/"):
            # the committed quick baseline gates every quick case
            for case in CASES:
                hit = baseline_for_case(report, case.name, "quick")
                if case.quick is not None:
                    assert hit["kernel_backend"] == case.spec.backend
                    assert "compile_s" in hit


class TestExecution:
    def test_run_case_quick_wse(self):
        result = run_case(BY_NAME["wse-Ta"], quick=True, steps=2)
        assert result.steps == 2
        assert result.steps_per_s > 0
        assert result.n_atoms == 100  # (5, 5, 2) BCC thin slab
        # the lockstep extras the history is audited by
        assert {"list_builds", "list_reuse_ratio", "offset_chunk",
                "modeled_wse2_steps_per_s"} <= set(result.extra)

    def test_run_case_quick_reference_collects_stats(self):
        result = run_case(BY_NAME["ref-Ta"], quick=True, steps=2)
        assert result.extra["pairs_per_step"] > 0
        # stats are reset after warmup: rebuilds may be 0 in steady state
        assert result.extra["neighbor_rebuilds"] >= 0
        assert result.extra["time_force_s"] > 0
        assert len(result.extra["window_steps_per_s"]) == 3
        # serial run: the layout fields are present and null
        assert result.extra["topology"] is None
        assert result.extra["transport"] is None
        assert "reps" not in result.extra

    def test_run_case_records_backend_and_compile_seconds(self):
        entry = run_case(BY_NAME["ref-Ta"], quick=True, steps=2).to_json()
        assert entry["kernel_backend"] == "numpy"
        assert entry["compile_s"] == 0.0  # numpy compiles nothing
        assert entry["peak_rss_bytes"] > 0

    @needs_native
    def test_run_case_native_reports_what_the_compiler_cost(self):
        from repro.kernels import native_backend

        entry = run_case(BY_NAME["native-Ta"], quick=True, steps=2).to_json()
        assert entry["kernel_backend"] == "native"
        # 0.0 when this process loaded the cached artefact
        assert entry["compile_s"] == round(native_backend.compile_s, 4)

    def test_run_case_sharded_records_layout_and_restores_backend(self):
        from repro.kernels import active_backend_name, available_backends

        if "parallel" not in available_backends():
            pytest.skip("parallel backend needs the fork start method")
        before = active_backend_name()
        entry = run_case(BY_NAME["par-Ta-w2"], quick=True, steps=2).to_json()
        assert active_backend_name() == before
        assert entry["kernel_backend"] == "parallel"
        assert (entry["workers"], entry["topology"], entry["transport"]) == (
            2, [2, 1], "shared")
        assert entry["halo_bytes_sent"] > 0

    def test_run_bench_skips_unavailable_pinned_backend(self, monkeypatch):
        import repro.kernels as kernels

        monkeypatch.setattr(kernels, "available_backends", lambda: ["numpy"])
        lines = []
        results = run_bench(quick=True, steps=2, progress=lines.append)
        assert [r.name for r in results] == ["ref-Ta", "ref-Cu", "ref-W"]
        skipped = {ln.split(":")[0].strip() for ln in lines
                   if "unavailable" in ln}
        assert skipped == {"par-Ta-w1", "par-Ta-w2", "par-Ta-w4",
                           "par-Ta-2x2-socket", "native-Ta", "native-Cu",
                           "wse-Ta", "wse-Ta-100k"}
        assert any("wse-Ta-800k: full mode only" in ln for ln in lines)

    def test_run_bench_unknown_case_name(self):
        with pytest.raises(CaseSelectionError, match="par-Ta-4x1"):
            run_bench(quick=True, cases=["ref-Ta", "par-Ta-4x1"])

    def test_write_report_round_trip(self, tmp_path):
        path = tmp_path / "bench.json"
        report = write_report(str(path), [fake_result()], quick=True)
        on_disk = json.loads(path.read_text())
        assert on_disk == report
        assert on_disk["schema"] == "repro-bench/2"
        entry = on_disk["history"][-1]
        assert entry["mode"] == "quick"
        assert entry["results"][0]["name"] == "ref-Ta"

    def test_write_report_appends_history(self, tmp_path):
        path = tmp_path / "bench.json"
        write_report(str(path), [fake_result(steps_per_s=10.0)], quick=True)
        report = write_report(
            str(path),
            [fake_result(steps_per_s=20.0, topology=[2, 2],
                         transport="shared")],
            quick=True,
        )
        assert len(report["history"]) == 2
        newest = report["history"][-1]["results"][0]
        assert newest["steps_per_s"] == 20.0
        # extras (here: the layout) land in the history row
        assert (newest["topology"], newest["transport"]) == ([2, 2], "shared")

    def test_write_report_survives_corrupt_file(self, tmp_path):
        path = tmp_path / "bench.json"
        # torn, not an object, an object without a history
        for body in ("{not json", "[1, 2]", '{"results": []}'):
            path.write_text(body)
            report = write_report(str(path), [fake_result()], quick=True)
            assert len(report["history"]) == 1


class TestCli:
    @needs_native
    def test_bench_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_kernels.json"
        rc = main(["bench", "--quick", "--cases", "wse-Ta",
                   "--out", str(out)])
        assert rc == 0
        assert "steps/s" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["schema"] == "repro-bench/2"
        entry = report["history"][-1]
        assert entry["mode"] == "quick"
        assert [(r["name"], r["steps"]) for r in entry["results"]] == [
            ("wse-Ta", 30)]

    @needs_native
    def test_bench_gates_against_baseline(self, tmp_path, capsys):
        out = tmp_path / "a.json"
        argv = ["bench", "--quick", "--cases", "wse-Ta"]
        assert main([*argv, "--out", str(out)]) == 0
        report = json.loads(out.read_text())

        def scaled(factor):
            # a baseline far enough off that host noise cannot decide
            path = tmp_path / f"x{factor}.json"
            rows = [dict(r, steps_per_s=r["steps_per_s"] * factor)
                    for r in report["history"][-1]["results"]]
            path.write_text(json.dumps(
                {"schema": "repro-bench/2",
                 "history": [{"mode": "quick", "results": rows}]}))
            return str(path)

        capsys.readouterr()
        assert main([*argv, "--out", str(out),
                     "--baseline", scaled(0.01)]) == 0
        assert "no regression" in capsys.readouterr().out
        rc = main([*argv, "--out", str(out), "--baseline", scaled(100)])
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().out
        # a failed gate still records the run it judged
        assert len(json.loads(out.read_text())["history"]) == 3

    @needs_native
    def test_bench_empty_selection_errors(self, tmp_path, capsys):
        # the one full-mode-only case, asked for in quick mode
        out = tmp_path / "x.json"
        rc = main(["bench", "--quick", "--cases", "wse-Ta-800k",
                   "--out", str(out)])
        assert rc == 2
        assert "no cases selected" in capsys.readouterr().out
        assert not out.exists()

    def test_bench_unknown_case_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["bench", "--quick", "--cases", "ref-Ta", "ref-Xx",
                     "--out", str(out)]) == 2
        assert "unknown bench case" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_pinned_unavailable_backend_exits_2(
        self, tmp_path, capsys, monkeypatch
    ):
        # a *named* case whose backend cannot import must refuse to
        # bench the numpy fallback: exit 2 with a one-line diagnostic,
        # so a CI backend leg can never silently time the wrong kernels
        import repro.kernels as kernels

        monkeypatch.setattr(
            kernels, "available_backends", lambda: ["numpy", "parallel"]
        )
        monkeypatch.setattr(
            kernels, "backend_status",
            lambda: {"native": "no C compiler (cc, gcc, clang) on PATH"},
        )
        out = tmp_path / "x.json"
        rc = main(["bench", "--quick", "--cases", "ref-Ta", "native-Ta",
                   "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "no C compiler" in captured.err and "unavailable" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "ref-Ta" not in captured.out  # nothing was benched ...
        assert not out.exists()  # ... and nothing written

    def test_bench_help_lists_exactly_four_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        out = capsys.readouterr().out
        flags = {w.strip(",[]") for w in out.split() if w.startswith("--")}
        assert flags == {"--help", "--quick", "--cases", "--out",
                         "--baseline"}

    def test_run_reference_prints_loop_stats(self, capsys):
        rc = main(["run", "--engine", "reference", "--reps", "4", "4", "2",
                   "--steps", "5", "--backend", "numpy"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "loop stats" in out
        assert "pairs/step" in out
        assert "numpy kernels" in out
