"""Profile reduction tests: phase coverage + Table II fit recovery."""

import pytest

from repro.obs import required_phases
from repro.obs.profile import (
    expected_linear_constants,
    fit_traced_linear,
    profile_spec,
)
from repro.obs.sinks import read_trace
from repro.runtime.spec import RunSpec


@pytest.fixture()
def tiny_spec():
    return RunSpec(
        element="Ta",
        reps=(5, 5, 2),
        steps=6,
        swap_interval=3,
        force_symmetry=True,
    )


class TestRequiredPhases:
    def test_sharded_adds_exactly_the_halo_exchange_span(self):
        serial = required_phases("reference")
        sharded = required_phases("reference", sharded=True)
        assert set(sharded) == set(serial) | {"halo_exchange"}


class TestProfileSpec:
    def test_both_engines_emit_required_phases(self, tiny_spec, tmp_path):
        trace = tmp_path / "trace.jsonl"
        profiles = profile_spec(tiny_spec, trace_path=str(trace))
        assert set(profiles) == {"reference", "wse"}
        for name, prof in profiles.items():
            assert prof.missing_phases == ()
            assert prof.steps == 6
            assert prof.wall_s > 0
            required = required_phases(name, swap_interval=3)
            assert set(required) <= set(prof.phase_seconds)
        # the shared trace parses and carries both engines' spans
        records = read_trace(trace)
        engines = {r.get("engine") for r in records}
        assert engines == {"reference", "wse"}
        assert any(r["type"] == "meta" for r in records)

    def test_trace_holds_each_engine_meta_first_then_its_spans(
        self, tiny_spec, tmp_path
    ):
        trace = tmp_path / "order.jsonl"
        profile_spec(tiny_spec, trace_path=str(trace))
        records = read_trace(trace)
        blocks = [(r["type"], r["engine"]) for r in records]
        n_ref = blocks.index(("meta", "wse"))
        assert blocks[0] == ("meta", "reference")
        assert set(blocks[1:n_ref]) == {("span", "reference")}
        assert set(blocks[n_ref + 1:]) == {("span", "wse")}

    def test_phase_seconds_tile_traced_wall(self, tiny_spec):
        profiles = profile_spec(tiny_spec, engines=("reference",))
        prof = profiles["reference"]
        # self-times sum to the traced total by construction; coverage
        # against the engine wall clock is timing-dependent, so just
        # require the envelope to account for most of it
        assert prof.coverage > 0.5
        assert prof.coverage < 1.5

    def test_wse_fit_recovers_cycle_model_constants(self, tiny_spec):
        profiles = profile_spec(tiny_spec, engines=("wse",))
        prof = profiles["wse"]
        assert prof.fit is not None
        errors = prof.fit_rel_errors()
        # jitter_rel defaults to 0 -> traced cycles are exactly linear
        assert max(errors.values()) < 1e-6

    def test_funnel_is_the_runs_own_and_repeats_exactly(self, tiny_spec):
        # the engine's own telemetry: a second run in the same process
        # reports its own counts, not a running total
        keys = ("neighbor_rebuilds", "raw_candidates", "coarse_kept",
                "exact_kept")
        first = profile_spec(tiny_spec)
        again = profile_spec(tiny_spec)
        funnel = [first["reference"].counters[key] for key in keys]
        assert funnel == [again["reference"].counters[key] for key in keys]
        rebuilds, raw, coarse, exact = funnel
        assert rebuilds >= 1
        assert raw > coarse >= exact > 0
        # the lockstep machine's list has no funnel: it counts its
        # builds and reuses and reports them as counters
        wse = first["wse"].counters
        assert not any(key in wse for key in keys[1:])
        assert wse["list_builds"] >= 1
        assert 0.0 < wse["list_reuse_ratio"] < 1.0

    def test_minor_faults_per_step_from_rusage(self, tiny_spec, monkeypatch):
        import repro.obs.profile as profile_mod

        # a scripted rusage: 70 faults per engine run, whatever ran
        readings = iter(range(1000, 10_000, 70))
        monkeypatch.setattr(
            profile_mod, "_minor_faults", lambda: next(readings)
        )
        profiles = profile_spec(tiny_spec, steps=7)
        for prof in profiles.values():
            assert prof.minor_faults_per_step == 10.0
        monkeypatch.undo()
        real = profile_spec(tiny_spec, engines=("reference",), steps=3)
        assert real["reference"].minor_faults_per_step >= 0.0

    def test_minor_faults_none_without_resource(self, tiny_spec, monkeypatch):
        import repro.obs.profile as profile_mod

        monkeypatch.setattr(profile_mod, "resource", None)
        prof = profile_spec(tiny_spec, engines=("reference",), steps=2)
        assert prof["reference"].minor_faults_per_step is None

    def test_sharded_reference_emits_the_halo_exchange_span(self):
        # `repro profile --check --backend parallel --workers 2`: the
        # layout comes from the spec, and the pipeline's spans tile it
        from repro.parallel import fork_available

        if not fork_available():
            pytest.skip("the sharded engine needs the fork start method")
        spec = RunSpec(element="Ta", reps=(5, 5, 2), steps=6,
                       backend="parallel", workers=2)
        prof = profile_spec(spec, engines=("reference",))["reference"]
        assert prof.missing_phases == ()
        assert "halo_exchange" in prof.phase_seconds
        assert prof.counters["workers"] == 2

    def test_steps_override(self, tiny_spec):
        profiles = profile_spec(tiny_spec, engines=("reference",), steps=2)
        assert profiles["reference"].steps == 2

    def test_wse_fit_at_scale_within_5_percent(self):
        # the streaming sweeps must keep feeding true per-tile
        # candidate/interaction counts into the Table II fit at the
        # >=10k-atom grids the scaling CI leg watches
        spec = RunSpec(
            element="Ta", reps=(48, 48, 3), steps=3, force_symmetry=True
        )
        profiles = profile_spec(spec, engines=("wse",))
        prof = profiles["wse"]
        assert prof.counters["n_atoms"] >= 10_000
        assert prof.missing_phases == ()
        errors = prof.fit_rel_errors()
        assert max(errors.values()) < 0.05
        # the streaming phases still tile the wall time at scale
        assert prof.coverage > 0.9


class TestFitHelpers:
    def test_expected_constants_from_cycle_model(self, tiny_spec):
        from repro.runtime.engines import build_engine

        engine = build_engine(tiny_spec.with_engine("wse"))
        sim = engine.sim
        expected = expected_linear_constants(sim)
        ns = sim.cost_model.machine.cycle_ns
        assert expected["a_candidate"] == pytest.approx(
            sim.cost_model.candidate_cycles(pbc=sim.pbc_inplane) * ns
        )
        assert expected["b_interaction"] == pytest.approx(
            sim.cost_model.interaction_cycles() * ns
        )

    def test_fit_none_without_trace_counts(self, tiny_spec):
        from repro.runtime.engines import build_engine

        engine = build_engine(tiny_spec.with_engine("wse"))
        # no steps run yet -> the cycle trace has no samples
        assert fit_traced_linear(engine.sim) is None
