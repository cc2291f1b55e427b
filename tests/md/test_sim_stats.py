"""Simulation loop statistics (:class:`repro.md.simulation.SimStats`)."""

import numpy as np
import pytest

from repro.md.boundary import Box
from repro.md.simulation import Simulation
from repro.md.state import AtomsState
from repro.potentials.lennard_jones import LennardJones
from repro.runtime.telemetry import Telemetry
from tests.conftest import runner_over


@pytest.fixture()
def lj_sim():
    rng = np.random.default_rng(11)
    # jittered 4x4x3 lattice near the LJ minimum spacing: cheap and
    # well-separated (random overlaps would blow the integrator up),
    # with enough thermal motion to trigger skin rebuilds
    grid = np.stack(
        np.meshgrid(np.arange(4), np.arange(4), np.arange(3),
                    indexing="ij"), axis=-1,
    ).reshape(-1, 3)
    pos = grid * 3.0 + rng.uniform(-0.15, 0.15, size=(48, 3))
    box = Box.open([30.0, 30.0, 30.0])
    state = AtomsState.from_positions(pos, box, mass=40.0)
    state.velocities[:] = rng.normal(scale=0.08, size=(48, 3))
    pot = LennardJones(epsilon=0.01, sigma=2.5, cutoff=6.0)
    return Simulation(state, pot, dt_fs=1.0, skin=0.5)


class TestAccumulation:
    def test_starts_empty(self, lj_sim):
        st = lj_sim.stats
        assert st.steps == 0
        assert st.force_evaluations == 0
        assert st.wall_time_s == 0.0
        assert st.pairs_per_step == 0.0
        assert st.steps_per_s == 0.0

    def test_counts_steps_and_evaluations(self, lj_sim):
        lj_sim.run(5)
        st = lj_sim.stats
        assert st.steps == 5
        assert st.force_evaluations == 5
        assert st.neighbor_rebuilds >= 1  # first call always builds
        assert st.pairs_total >= st.pairs_last
        assert st.time_force_s > 0.0
        assert st.time_neighbor_s > 0.0
        assert st.time_integrate_s > 0.0

    def test_pairs_per_step_is_mean(self, lj_sim):
        lj_sim.run(4)
        st = lj_sim.stats
        assert st.pairs_per_step == pytest.approx(
            st.pairs_total / st.force_evaluations
        )

    def test_potential_energy_counts_as_evaluation_not_step(self, lj_sim):
        lj_sim.potential_energy()
        st = lj_sim.stats
        assert st.force_evaluations == 1
        assert st.steps == 0

    def test_steps_per_s_consistent(self, lj_sim):
        lj_sim.run(3)
        st = lj_sim.stats
        assert st.steps_per_s == pytest.approx(st.steps / st.wall_time_s)


class TestObserverSnapshot:
    """Observers are the Runner's; what they read of the stats is the
    engine's telemetry, a snapshot."""

    def test_observers_read_stats_at_their_step(self, lj_sim):
        runner = runner_over(lj_sim)
        seen = []
        runner.add_observer(2, lambda ev: seen.append(ev.engine.telemetry()))
        runner.run(6)
        assert all(isinstance(tel, Telemetry) for tel in seen)
        assert [tel.steps for tel in seen] == [2, 4, 6]

    def test_snapshot_is_detached_from_live_stats(self, lj_sim):
        runner = runner_over(lj_sim)
        seen = []
        runner.add_observer(1, lambda ev: seen.append(ev.engine.telemetry()))
        runner.run(1)
        first = seen[0]
        runner.run(4)
        assert first.steps == 1  # later steps must not mutate the snapshot
        assert lj_sim.stats.steps == 5


class TestStatsParity:
    """With an EAM potential ``Simulation.run`` builds its lists inside
    the tier's ``md_step``; its stats and its list are still those of
    the public sequence (``NeighborList.pairs`` -> ``compute`` ->
    leap-frog), on both tiers, at skin 0.5 and 0."""

    @pytest.mark.parametrize("skin", [0.5, 0.0])
    @pytest.mark.parametrize("tier", ["numpy", "native"])
    def test_run_stats_are_the_public_sequence(self, tier, skin):
        import repro.kernels as kernels
        from repro.runtime import RunSpec, build_engine

        if kernels.backend_status()[tier] != "ok":
            pytest.skip(f"{tier} tier unavailable")
        spec = RunSpec(element="Ta", reps=(4, 4, 3), temperature=900.0,
                       engine="reference", backend=tier, skin=skin)
        engines = [build_engine(spec) for _ in range(2)]
        try:
            engines[0].step(60)
            sim = engines[1].sim
            nl, state = sim.neighbors, sim.state
            rebuilds = pairs_total = pairs_last = 0
            funnel = np.zeros(3, dtype=np.int64)
            for _ in range(60):
                before = nl.n_builds
                table = nl.pairs(state.positions)
                if nl.n_builds != before:
                    rebuilds += 1
                    funnel += nl.candidates.funnel
                pairs_total += table.n_pairs
                pairs_last = table.n_pairs
                _, forces = sim.potential.compute(state.n_atoms, table,
                                                  state.types)
                sim.integrator.step(state, forces)
            run = engines[0].sim
            st = run.stats
            assert (st.neighbor_rebuilds, st.raw_candidates, st.coarse_kept,
                    st.exact_kept, st.pairs_total, st.pairs_last) == (
                rebuilds, *funnel.tolist(), pairs_total, pairs_last)
            assert run.neighbors.n_builds == nl.n_builds == rebuilds
            assert rebuilds >= (60 if skin == 0.0 else 2)
            assert (run.neighbors.last_pair_count, run.neighbors.n_candidates
                    ) == (nl.last_pair_count, nl.n_candidates)
            assert (run.neighbors.ref_positions.tobytes()
                    == nl.ref_positions.tobytes())
            assert (run.neighbors.candidates.funnel == nl.candidates.funnel)
            assert run.state.positions.tobytes() == state.positions.tobytes()
        finally:
            for engine in engines:
                engine.close()
            kernels.set_backend(kernels.DEFAULT_BACKEND)
