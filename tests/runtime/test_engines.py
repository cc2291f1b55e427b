"""Engine protocol conformance and the spec-driven factory."""

import numpy as np
import pytest

from repro.kernels import backend_status
from repro.runtime import (
    Engine,
    ReferenceEngine,
    RunSpec,
    Telemetry,
    ThermostatSpec,
    WseEngine,
    build_engine,
    build_state,
    seed_streams,
)
from tests.conftest import ListSink

QUICK = dict(element="Ta", reps=(3, 3, 2), temperature=150.0, steps=4, seed=2)


def _spec(engine, backend, **fields):
    """``backend="parallel"`` shards the reference engine over two ranks
    (on a slab wide enough that both tiles hold atoms)."""
    layout = {"backend": "parallel", "workers": 2, "reps": (4, 4, 2)}
    return RunSpec(engine=engine, **{**QUICK, **(layout if backend else {}),
                                     **fields})


@pytest.fixture()
def build():
    """``build_engine``, closing what it built after the test (a sharded
    engine owns worker processes)."""
    engines = []

    def _build(spec, **kwargs):
        engines.append(build_engine(spec, **kwargs))
        return engines[-1]

    yield _build
    for eng in engines:
        eng.close()


@pytest.mark.parametrize(
    "engine, backend",
    [("reference", None), ("wse", None), ("reference", "parallel")],
    ids=["reference", "wse", "reference-parallel"],
)
class TestProtocol:
    def test_factory_builds_conforming_engine(self, engine, backend, build):
        eng = build(_spec(engine, backend))
        assert isinstance(eng, Engine)
        assert eng.name == engine
        assert eng.step_count == 0

    def test_step_advances_count_and_state(self, engine, backend, build):
        eng = build(_spec(engine, backend))
        before = eng.state.positions.copy()
        eng.step(3)
        assert eng.step_count == 3
        assert not np.allclose(eng.state.positions, before)

    def test_telemetry_shape(self, engine, backend, build):
        eng = build(_spec(engine, backend))
        eng.step(2)
        tel = eng.telemetry()
        assert isinstance(tel, Telemetry)
        assert tel.engine == engine
        assert tel.steps == 2
        assert tel.wall_time_s > 0
        assert tel.counters["n_atoms"] == eng.state.n_atoms
        assert tel.steps_per_s > 0
        d = tel.as_dict()
        assert d["engine"] == engine
        # the layout keys are there exactly when the pipeline ran
        layout = {"workers", "topology", "transport", "halo_bytes_sent",
                  "halo_bytes_recv", "rounds", "ghost_atoms", "shard_seconds"}
        assert (layout <= set(tel.counters)) == (backend == "parallel")
        assert layout.isdisjoint(tel.counters) == (backend is None)

    def test_reset_telemetry_keeps_state(self, engine, backend, build):
        eng = build(_spec(engine, backend))
        eng.step(2)
        pos = eng.state.positions.copy()
        eng.reset_telemetry()
        tel = eng.telemetry()
        assert tel.steps == 0
        assert tel.wall_time_s == 0.0
        assert eng.step_count == 2  # stepping history is state, not telemetry
        np.testing.assert_array_equal(eng.state.positions, pos)
        if backend == "parallel":
            shard = tel.counters["shard_seconds"]
            assert all(s == 0.0 for secs in shard.values() for s in secs)

    def test_telemetry_trace_phases(self, engine, backend, build):
        from repro.obs import Tracer, required_phases

        eng = build(_spec(engine, backend), tracer=Tracer())
        eng.step(3)
        tel = eng.telemetry()
        assert tel.trace_phases is not None
        for phase in required_phases(engine, swap_interval=0):
            assert tel.trace_phases[phase] > 0.0
        assert "trace_phases" in tel.as_dict()

    def test_untraced_telemetry_has_no_phases(self, engine, backend, build):
        eng = build(_spec(engine, backend))
        eng.step(2)
        tel = eng.telemetry()
        assert tel.trace_phases is None
        assert "trace_phases" not in tel.as_dict()

    def test_reset_telemetry_zeroes_tracer(self, engine, backend, build):
        from repro.obs import Tracer

        eng = build(_spec(engine, backend), tracer=Tracer())
        eng.step(2)
        eng.reset_telemetry()
        assert eng.tracer.phase_totals() == {}
        eng.step(1)
        assert eng.telemetry().trace_phases["integrate"] > 0.0

    def test_same_spec_same_trajectory(self, engine, backend, build):
        spec = _spec(engine, backend)
        a = build(spec)
        b = build(spec)
        a.step(4)
        b.step(4)
        np.testing.assert_array_equal(a.state.positions, b.state.positions)
        np.testing.assert_array_equal(a.state.velocities, b.state.velocities)

    def test_different_seed_different_trajectory(self, engine, backend, build):
        spec = _spec(engine, backend)
        a = build(spec)
        b = build(_spec(engine, backend, seed=3))
        a.step(2)
        b.step(2)
        assert not np.allclose(a.state.positions, b.state.positions)


class TestFactory:
    def test_engine_classes(self):
        assert isinstance(build_engine(RunSpec(**QUICK)), ReferenceEngine)
        assert isinstance(
            build_engine(RunSpec(engine="wse", **QUICK)), WseEngine
        )

    def test_build_state_matches_factory_initial_state(self):
        spec = RunSpec(**QUICK)
        state, _ = build_state(spec)
        eng = build_engine(spec)
        np.testing.assert_array_equal(state.positions, eng.state.positions)
        np.testing.assert_array_equal(state.velocities, eng.state.velocities)

    def test_custom_state_not_redrawn(self):
        spec = RunSpec(**QUICK)
        state, pot = build_state(spec)
        vel = state.velocities.copy()
        eng = build_engine(spec, state=state, potential=pot)
        np.testing.assert_array_equal(eng.state.velocities, vel)

    def test_engine_kwargs_win(self):
        eng = build_engine(RunSpec(engine="wse", **QUICK), b_margin=3.0)
        assert eng.sim is not None  # constructed without error

    def test_wse_honours_spec_skin_and_reports_its_list(self):
        from repro.obs.tracer import Tracer

        sink = ListSink()
        eng = build_engine(
            RunSpec(engine="wse", **QUICK), tracer=Tracer([sink])
        )
        assert eng.sim.skin == RunSpec(**QUICK).skin == 0.5
        eng.step(4)
        counters = eng.telemetry().counters
        assert counters["list_builds"] == 1
        assert counters["list_reuse_ratio"] == 0.75
        reused = [
            s.counters["reused"] for s in sink.spans if s.name == "neighbor"
        ]
        assert reused == [False, True, True, True]
        # a window opened mid-stretch counts only its own sweeps
        eng.reset_telemetry()
        eng.step(2)
        counters = eng.telemetry().counters
        assert counters["list_builds"] == 0
        assert counters["list_reuse_ratio"] == 1.0

        every = build_engine(RunSpec(engine="wse", skin=0.0, **QUICK))
        assert every.sim.skin == 0.0
        every.step(2)
        counters = every.telemetry().counters
        assert counters["list_builds"] == 2
        assert counters["list_reuse_ratio"] == 0.0

    def test_wse_reports_the_sweep_threads_of_its_last_step(self, monkeypatch):
        """How many CPUs produced a number is in its telemetry: the most
        threads a sweep kernel of the last step ran on."""
        eng = build_engine(RunSpec(engine="wse", backend="numpy", **QUICK))
        eng.step(1)
        assert eng.telemetry().counters["sweep_threads"] == 1
        if backend_status()["native"] != "ok":
            return
        from repro.kernels import native_backend

        monkeypatch.setattr(native_backend, "_sweep_threads", lambda rows: 2)
        eng = build_engine(RunSpec(engine="wse", backend="native", **QUICK))
        eng.step(2)
        assert eng.telemetry().counters["sweep_threads"] == 2

    def test_seed_streams_are_independent_and_named(self):
        streams = seed_streams(0)
        assert set(streams) == {"velocities", "thermostat", "engine"}
        a = streams["velocities"].random(4)
        b = seed_streams(0)["velocities"].random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.allclose(a, seed_streams(1)["velocities"].random(4))

    def test_wse_engine_uses_engine_stream(self):
        eng = build_engine(RunSpec(engine="wse", **QUICK))
        expected = seed_streams(QUICK["seed"])["engine"]
        assert (
            eng.sim.rng.bit_generator.state == expected.bit_generator.state
        )


class TestThermostats:
    def test_berendsen_cools_wse(self):
        ts = ThermostatSpec("berendsen", temperature=50.0, tau_fs=20.0)
        spec = RunSpec(
            engine="wse", thermostat=ts, **{**QUICK, "temperature": 400.0}
        )
        eng = build_engine(spec)
        t0 = eng.state.temperature()
        eng.step(20)
        assert eng.state.temperature() < t0

    def test_berendsen_matches_across_engines(self):
        ts = ThermostatSpec("berendsen", temperature=100.0, tau_fs=50.0)
        base = dict(QUICK, temperature=300.0)
        ref = build_engine(RunSpec(engine="reference", thermostat=ts, **base))
        wse = build_engine(RunSpec(engine="wse", thermostat=ts, **base))
        ref.step(6)
        wse.step(6)
        np.testing.assert_allclose(
            ref.state.positions, wse.state.positions, atol=1e-10
        )

    def test_langevin_reference_deterministic_per_seed(self):
        ts = ThermostatSpec("langevin", temperature=290.0, tau_fs=100.0)
        spec = RunSpec(thermostat=ts, **QUICK)
        a = build_engine(spec)
        b = build_engine(spec)
        a.step(4)
        b.step(4)
        np.testing.assert_array_equal(a.state.positions, b.state.positions)
        assert a.rng_states()  # the stochastic stream is checkpointable
