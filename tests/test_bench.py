"""Benchmark harness unit + smoke tests (``repro.bench`` / CLI)."""

import json

import pytest

from repro.bench import (
    CASES,
    QUICK_REPS,
    SEED_BASELINE,
    BenchResult,
    attach_multiwafer,
    baseline_for_case,
    compare_to_baseline,
    cross_backend_notes,
    latest_results,
    multiwafer_comparison,
    run_bench,
    run_case,
    write_report,
)
from repro.cli import main


def fake_result(name="ref-Ta", steps_per_s=10.0):
    return BenchResult(
        name=name, engine="reference", element="Ta", n_atoms=100,
        steps=5, wall_s=5 / steps_per_s, steps_per_s=steps_per_s,
    )


#: Cases that postdate the seed tree: backend-pinned sweeps and the
#: lockstep scaling cases (the record-based seed engine could not run
#: them at all) — there is no pre-kernel-layer number to compare against.
POST_SEED_CASES = {"wse-Ta-100k", "wse-Ta-800k"}


class TestCaseTable:
    def test_every_case_has_quick_reps_and_seed_numbers(self):
        for case in CASES:
            if case.backend is not None or case.name in POST_SEED_CASES:
                assert case.name not in SEED_BASELINE
            else:
                assert set(SEED_BASELINE[case.name]) == {"full", "quick"}
            # a case absent from QUICK_REPS is full-mode only; today
            # that is exactly the paper-scale slab
            if case.name not in QUICK_REPS:
                assert case.name == "wse-Ta-800k"

    def test_paper_scale_case_geometry(self):
        # the headline workload: 801,792 Ta atoms (256 x 261 x 6 BCC)
        big = next(c for c in CASES if c.name == "wse-Ta-800k")
        assert big.engine == "wse"
        nx, ny, nz = big.reps
        assert 2 * nx * ny * nz == 801_792
        assert big.steps[0] >= 3
        scale = next(c for c in CASES if c.name == "wse-Ta-100k")
        assert 2 * scale.reps[0] * scale.reps[1] * scale.reps[2] >= 100_000
        qx, qy, qz = QUICK_REPS["wse-Ta-100k"]
        assert 2 * qx * qy * qz >= 10_000  # the >=10k-atom CI regime

    def test_parallel_worker_sweep_present(self):
        sweep = {c.name: c for c in CASES if c.backend == "parallel"}
        assert set(sweep) == {"par-Ta-w1", "par-Ta-w2", "par-Ta-w4",
                              "par-Ta-4x1"}
        assert [sweep[f"par-Ta-w{w}"].workers for w in (1, 2, 4)] == [1, 2, 4]
        # the acceptance workload: same slab as ref-Ta
        assert all(c.reps == (20, 20, 20) for c in sweep.values())

    def test_1d_column_sibling_case_present(self):
        # the Table VI hook: par-Ta-w4 defaults to the near-square 2x2
        # grid, and this explicit 4x1 column case is the same-worker-
        # count 1D sibling used as the measured single-wafer stand-in
        case = next(c for c in CASES if c.name == "par-Ta-4x1")
        assert case.topology == (4, 1)
        assert not case.workers  # sized by the topology, not a pool count
        assert case.seed_key == "ref-Ta"
        w4 = next(c for c in CASES if c.name == "par-Ta-w4")
        assert w4.workers == 4 and w4.topology is None

    def test_acceptance_workload_present(self):
        # the 2x-vs-seed criterion is defined on the full Ta slab
        ta = next(c for c in CASES if c.name == "ref-Ta")
        assert ta.reps == (20, 20, 20)
        assert SEED_BASELINE["ref-Ta"]["full"] == pytest.approx(4.875)

    def test_numba_case_mirrors_acceptance_workload(self):
        # the JIT tier is timed on the very same slab the 2x criterion
        # names, gating against ref-Ta's seed rate via seed_key
        nb = next(c for c in CASES if c.name == "numba-Ta")
        ta = next(c for c in CASES if c.name == "ref-Ta")
        assert nb.backend == "numba"
        assert nb.reps == ta.reps and nb.steps == ta.steps
        assert nb.seed_key == "ref-Ta"
        assert QUICK_REPS["numba-Ta"] == QUICK_REPS["ref-Ta"]

    def test_backend_variants_share_serial_seed_key(self):
        for case in CASES:
            if case.backend is not None and case.engine == "reference":
                assert case.seed_key == "ref-Ta", case.name
            else:
                assert case.seed_key is None, case.name


class TestCompare:
    def test_within_allowance_passes(self):
        baseline = {"results": [fake_result(steps_per_s=10.0).to_json()]}
        assert compare_to_baseline(
            [fake_result(steps_per_s=8.0)], baseline, max_drop=0.30
        ) == ([], [])

    def test_regression_reported(self):
        baseline = {"results": [fake_result(steps_per_s=10.0).to_json()]}
        failures, notes = compare_to_baseline(
            [fake_result(steps_per_s=5.0)], baseline, max_drop=0.30
        )
        assert len(failures) == 1
        assert "ref-Ta" in failures[0]
        assert notes == []

    def test_unknown_cases_noted_not_failed(self):
        # a case with no baseline anywhere must be surfaced distinctly
        # (a note), never silently skipped and never a failure
        baseline = {"results": [fake_result(name="other").to_json()]}
        failures, notes = compare_to_baseline(
            [fake_result(steps_per_s=0.001)], baseline, max_drop=0.30
        )
        assert failures == []
        assert len(notes) == 1
        assert "ref-Ta" in notes[0] and "no baseline" in notes[0]

    def test_gate_reads_latest_history_entry(self):
        # v2 baseline: the gate must compare against the newest run
        # that timed the case
        baseline = {
            "schema": "repro-bench/2",
            "history": [
                {"results": [fake_result(steps_per_s=1000.0).to_json()]},
                {"results": [fake_result(steps_per_s=10.0).to_json()]},
            ],
        }
        assert compare_to_baseline(
            [fake_result(steps_per_s=9.0)], baseline, max_drop=0.30
        ) == ([], [])
        failures, _ = compare_to_baseline(
            [fake_result(steps_per_s=5.0)], baseline, max_drop=0.30
        )
        assert len(failures) == 1

    def test_gate_walks_history_for_missing_case(self):
        # the newest entry lacks the case (selective run): the gate
        # must fall back to the case's own latest prior number
        baseline = {
            "schema": "repro-bench/2",
            "history": [
                {"results": [fake_result(steps_per_s=10.0).to_json()]},
                {"results": [fake_result(name="other").to_json()]},
            ],
        }
        failures, notes = compare_to_baseline(
            [fake_result(steps_per_s=5.0)], baseline, max_drop=0.30
        )
        assert len(failures) == 1 and notes == []
        assert compare_to_baseline(
            [fake_result(steps_per_s=9.0)], baseline, max_drop=0.30
        ) == ([], [])

    def test_gate_respects_mode(self):
        # quick runs never gate against full-mode history entries
        baseline = {
            "schema": "repro-bench/2",
            "history": [
                {"mode": "full",
                 "results": [fake_result(steps_per_s=1000.0).to_json()]},
            ],
        }
        failures, notes = compare_to_baseline(
            [fake_result(steps_per_s=5.0)], baseline,
            max_drop=0.30, mode="quick",
        )
        assert failures == []
        assert len(notes) == 1

    def test_null_seed_entries_still_gate(self):
        # par-*/wse-* cases carry seed_steps_per_s: null — the gate
        # must still compare their measured steps/s history
        result = fake_result(name="par-Ta-w2", steps_per_s=10.0)
        assert result.seed_steps_per_s is None
        baseline = {"results": [result.to_json()]}
        failures, notes = compare_to_baseline(
            [fake_result(name="par-Ta-w2", steps_per_s=5.0)],
            baseline, max_drop=0.30,
        )
        assert len(failures) == 1 and notes == []

    def test_speedup_vs_seed(self):
        r = fake_result(steps_per_s=10.0)
        assert r.speedup_vs_seed is None
        r.seed_steps_per_s = 4.0
        assert r.speedup_vs_seed == pytest.approx(2.5)


#: One result row in the exact shape the pre-backend-pinning harness
#: wrote (BENCH_kernels.json history[0], verbatim keys): no
#: ``kernel_backend``, no ``workers``, no layout fields.
LEGACY_ROW = {
    "name": "ref-Ta",
    "engine": "reference",
    "element": "Ta",
    "n_atoms": 16000,
    "steps": 10,
    "wall_s": 0.834,
    "steps_per_s": 11.991,
    "seed_steps_per_s": 4.875,
    "speedup_vs_seed": 2.46,
    "pairs_per_step": 104919.0,
    "neighbor_rebuilds": 0,
    "time_neighbor_s": 0.6476,
    "time_force_s": 0.1734,
    "time_integrate_s": 0.0041,
}


class TestLegacySchemaNormalization:
    """Pre-backend-pinning history rows normalize on read.

    Entries written before the kernel layer existed carry neither
    ``kernel_backend`` nor ``workers``; every read path must fill the
    defaults (``numpy``/``None`` — what those runs actually were) so
    baseline walks and trajectory tooling can key on the fields
    without per-row guards.
    """

    def _legacy_report(self):
        return {
            "schema": "repro-bench/2",
            "history": [
                {
                    "created_unix": 1785967198.6,
                    "mode": "full",
                    "backend": "numpy",
                    "numpy_version": "2.4.6",
                    "results": [dict(LEGACY_ROW)],
                }
            ],
        }

    def test_baseline_walk_fills_defaults(self):
        row = baseline_for_case(self._legacy_report(), "ref-Ta")
        assert row is not None
        assert row["kernel_backend"] == "numpy"
        assert row["workers"] is None
        assert row["steps_per_s"] == 11.991

    def test_latest_results_fills_defaults(self):
        for row in latest_results(self._legacy_report()):
            assert row["kernel_backend"] == "numpy"
            assert row["workers"] is None

    def test_v1_single_run_report_also_normalizes(self):
        v1 = {"results": [dict(LEGACY_ROW)]}
        assert baseline_for_case(v1, "ref-Ta")["kernel_backend"] == "numpy"
        assert latest_results(v1)[0]["workers"] is None

    def test_modern_rows_pass_through_untouched(self):
        modern = dict(LEGACY_ROW, kernel_backend="parallel", workers=4)
        report = {"results": [modern]}
        row = baseline_for_case(report, "ref-Ta")
        assert row["kernel_backend"] == "parallel"
        assert row["workers"] == 4

    def test_normalization_never_mutates_the_report(self):
        report = self._legacy_report()
        baseline_for_case(report, "ref-Ta")
        latest_results(report)
        assert "kernel_backend" not in report["history"][0]["results"][0]

    def test_real_on_disk_history_walks_clean(self):
        # the actual shipped BENCH_kernels.json: every row reachable by
        # a baseline walk must come back schema-complete
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "BENCH_kernels.json"
        report = json.loads(path.read_text())
        for entry in report["history"]:
            for r in entry.get("results", []):
                hit = baseline_for_case(report, r["name"])
                if hit is not None:
                    assert "kernel_backend" in hit
                    assert "workers" in hit


class TestCrossBackendNotes:
    def test_sibling_from_same_run(self):
        results = [
            fake_result(name="ref-Ta", steps_per_s=10.0),
            fake_result(name="par-Ta-w2", steps_per_s=25.0),
        ]
        notes = cross_backend_notes(results)
        assert len(notes) == 1
        assert "par-Ta-w2" in notes[0] and "2.50x" in notes[0]
        assert "this run" in notes[0]

    def test_sibling_from_baseline_history(self):
        baseline = {
            "schema": "repro-bench/2",
            "history": [
                {"mode": "quick",
                 "results": [fake_result(steps_per_s=5.0).to_json()]},
            ],
        }
        notes = cross_backend_notes(
            [fake_result(name="numba-Ta", steps_per_s=20.0)],
            baseline, mode="quick",
        )
        assert len(notes) == 1
        assert "numba-Ta" in notes[0] and "4.00x" in notes[0]
        assert "baseline history" in notes[0]

    def test_missing_sibling_is_noted_not_silent(self):
        notes = cross_backend_notes(
            [fake_result(name="numba-Ta", steps_per_s=20.0)]
        )
        assert len(notes) == 1
        assert "no ref-Ta timing" in notes[0]

    def test_serial_cases_yield_no_notes(self):
        assert cross_backend_notes([fake_result(name="ref-Ta")]) == []


def fake_2d_result(steps_per_s=20.0):
    return BenchResult(
        name="par-Ta-w4", engine="reference", element="Ta",
        n_atoms=512, steps=10, wall_s=10 / steps_per_s,
        steps_per_s=steps_per_s,
        extra={"topology": [2, 2], "transport": "shared",
               "reps": [8, 8, 4]},
    )


class TestMultiwafer:
    def test_comparison_shape(self):
        comp = multiwafer_comparison(fake_2d_result(), 22.0, "par-Ta-4x1")
        assert comp["model"]["k_steps"] >= 1
        assert comp["model"]["n_ghost"] > 0
        assert 0 < comp["model"]["fraction_of_single_wafer"] <= 1.0
        measured = comp["measured"]
        assert measured["single_wafer_case"] == "par-Ta-4x1"
        assert measured["fraction_of_single_wafer"] == pytest.approx(
            20.0 / 22.0, rel=1e-3
        )

    def test_attach_uses_sibling_from_same_run(self):
        r2d = fake_2d_result()
        sibling = fake_result(name="par-Ta-4x1", steps_per_s=25.0)
        notes = attach_multiwafer([sibling, r2d])
        assert len(notes) == 1
        assert "par-Ta-w4" in notes[0] and "Table-VI" in notes[0]
        assert "multiwafer" in r2d.extra
        assert "multiwafer" not in sibling.extra

    def test_attach_falls_back_to_baseline_history(self):
        r2d = fake_2d_result()
        baseline = {
            "schema": "repro-bench/2",
            "history": [
                {"mode": "quick", "results": [
                    fake_result(name="par-Ta-4x1", steps_per_s=40.0)
                    .to_json()
                ]},
            ],
        }
        notes = attach_multiwafer([r2d], baseline, mode="quick")
        assert len(notes) == 1
        assert r2d.extra["multiwafer"]["measured"][
            "single_wafer_steps_per_s"] == 40.0

    def test_missing_sibling_is_noted_not_silent(self):
        r2d = fake_2d_result()
        notes = attach_multiwafer([r2d])
        assert len(notes) == 1
        assert "skipped" in notes[0]
        assert "multiwafer" not in r2d.extra

    def test_1d_results_left_alone(self):
        assert attach_multiwafer(
            [fake_result(name="par-Ta-w2", steps_per_s=10.0)]
        ) == []

    def test_layout_lands_in_history_entry(self, tmp_path):
        # satellite acceptance: every history entry records the layout
        path = tmp_path / "bench.json"
        write_report(str(path), [fake_2d_result()], quick=True,
                     backend="parallel")
        entry = json.loads(path.read_text())["history"][-1]["results"][0]
        assert entry["topology"] == [2, 2]
        assert entry["transport"] == "shared"


class TestExecution:
    def test_run_case_quick_wse(self):
        case = next(c for c in CASES if c.name == "wse-Ta")
        result = run_case(case, quick=True, steps=2)
        assert result.steps == 2
        assert result.steps_per_s > 0
        assert result.n_atoms == 100  # (5, 5, 2) BCC thin slab
        assert result.seed_steps_per_s == SEED_BASELINE["wse-Ta"]["quick"]

    def test_run_case_quick_reference_collects_stats(self):
        case = next(c for c in CASES if c.name == "ref-Ta")
        result = run_case(case, quick=True, steps=2)
        assert result.extra["pairs_per_step"] > 0
        # stats are reset after warmup: rebuilds may be 0 in steady state
        assert result.extra["neighbor_rebuilds"] >= 0
        assert result.extra["time_force_s"] > 0

    def test_run_case_records_backend_and_warmup(self):
        case = next(c for c in CASES if c.name == "ref-Ta")
        result = run_case(case, quick=True, steps=2)
        entry = result.to_json()
        assert entry["kernel_backend"] == "numpy"
        assert entry["jit_warmup_s"] == 0.0  # numpy has no JIT to warm

    def test_run_bench_skips_unavailable_pinned_backend(self, monkeypatch):
        import repro.kernels as kernels

        monkeypatch.setattr(kernels, "available_backends", lambda: ["numpy"])
        lines = []
        results = run_bench(
            quick=True, steps=2, elements=["Cu"],
            engines=["reference"], progress=lines.append,
        )
        assert [r.name for r in results] == ["ref-Cu"]
        skip = [ln for ln in lines if "unavailable" in ln]
        # Ta-only here, so the Cu selection exercises no pinned case;
        # re-run with Ta to see the skips
        assert skip == []
        lines.clear()
        results = run_bench(
            quick=True, steps=2, elements=["Ta"],
            engines=["reference"], progress=lines.append,
        )
        assert [r.name for r in results] == ["ref-Ta"]
        skipped = {ln.split(":")[0].strip() for ln in lines
                   if "unavailable" in ln}
        assert skipped == {"par-Ta-w1", "par-Ta-w2", "par-Ta-w4",
                           "par-Ta-4x1", "numba-Ta"}

    def test_write_report_round_trip(self, tmp_path):
        path = tmp_path / "bench.json"
        report = write_report(
            str(path), [fake_result()], quick=True, backend="numpy"
        )
        on_disk = json.loads(path.read_text())
        assert on_disk == report
        assert on_disk["schema"] == "repro-bench/2"
        entry = on_disk["history"][-1]
        assert entry["mode"] == "quick"
        assert entry["results"][0]["name"] == "ref-Ta"
        assert latest_results(on_disk)[0]["name"] == "ref-Ta"

    def test_write_report_appends_history(self, tmp_path):
        path = tmp_path / "bench.json"
        write_report(str(path), [fake_result(steps_per_s=10.0)],
                     quick=True, backend="numpy")
        report = write_report(str(path), [fake_result(steps_per_s=20.0)],
                              quick=True, backend="numpy")
        assert len(report["history"]) == 2
        assert latest_results(report)[0]["steps_per_s"] == 20.0

    def test_write_report_wraps_v1_file(self, tmp_path):
        path = tmp_path / "bench.json"
        v1 = {
            "schema": "repro-bench/1",
            "created_unix": 1.0,
            "mode": "full",
            "backend": "numpy",
            "numpy_version": "0",
            "results": [fake_result(steps_per_s=3.0).to_json()],
        }
        path.write_text(json.dumps(v1))
        report = write_report(str(path), [fake_result(steps_per_s=4.0)],
                              quick=True, backend="numpy")
        assert len(report["history"]) == 2
        assert report["history"][0]["results"][0]["steps_per_s"] == 3.0
        assert latest_results(report)[0]["steps_per_s"] == 4.0

    def test_write_report_survives_corrupt_file(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("{not json")
        report = write_report(str(path), [fake_result()],
                              quick=True, backend="numpy")
        assert len(report["history"]) == 1


class TestCli:
    def test_bench_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_kernels.json"
        rc = main(["bench", "--quick", "--steps", "2",
                   "--engines", "wse", "--out", str(out)])
        assert rc == 0
        assert "steps/s" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["schema"] == "repro-bench/2"
        assert report["history"][-1]["mode"] == "quick"
        assert [r["name"] for r in latest_results(report)] == [
            "wse-Ta", "wse-Ta-100k",  # wse-Ta-800k is full-mode only
        ]

    def test_bench_gates_against_baseline(self, tmp_path, capsys):
        out = tmp_path / "a.json"
        assert main(["bench", "--quick", "--steps", "2", "--engines", "wse",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        # inflate the baseline so the rerun must trip the gate
        report = json.loads(out.read_text())
        # the rows themselves: latest_results hands out normalized
        # copies of rows that carry no ``workers`` key (wse entries)
        for r in report["history"][-1]["results"]:
            r["steps_per_s"] *= 100
        inflated = tmp_path / "inflated.json"
        inflated.write_text(json.dumps(report))
        rc = main(["bench", "--quick", "--steps", "2", "--engines", "wse",
                   "--out", str(tmp_path / "b.json"),
                   "--baseline", str(inflated)])
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_bench_empty_selection_errors(self, tmp_path, capsys):
        rc = main(["bench", "--quick", "--elements", "Cu",
                   "--engines", "wse",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_bench_pinned_unavailable_backend_exits_2(
        self, tmp_path, capsys, monkeypatch
    ):
        # a pinned backend that cannot import must refuse to bench the
        # numpy fallback: exit 2 with a one-line diagnostic, so a CI
        # backend leg can never silently time the wrong kernels
        import repro.kernels as kernels

        monkeypatch.setattr(
            kernels, "available_backends", lambda: ["numpy", "parallel"]
        )
        monkeypatch.setattr(
            kernels, "backend_status",
            lambda: {"numba": "No module named 'numba'"},
        )
        out = tmp_path / "x.json"
        rc = main(["bench", "--quick", "--backend", "numba",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "numba" in err and "unavailable" in err
        assert not out.exists()  # nothing was benched, nothing written

    def test_bench_available_pinned_backend_proceeds(
        self, tmp_path, capsys
    ):
        # the pre-check must not reject a backend that imports fine
        out = tmp_path / "x.json"
        rc = main(["bench", "--quick", "--steps", "2", "--engines", "wse",
                   "--backend", "numpy", "--out", str(out)])
        assert rc == 0

    def test_run_reference_prints_loop_stats(self, capsys):
        rc = main(["run", "--engine", "reference", "--reps", "4", "4", "2",
                   "--steps", "5", "--backend", "numpy"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "loop stats" in out
        assert "pairs/step" in out
        assert "numpy kernels" in out
