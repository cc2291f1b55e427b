"""The reference step kernel, ``md_step``: native against its numpy body.

One call advances the serial reference engine up to n steps, its Verlet
list included: the skin/2 list test, the list build where it fires (the
cell sweep, or the brute-force stream of a thin periodic box), the reuse
prefilter with its all-inside and pre-mask cuts, the distance cap,
density, embedding, force and the leap-frog.  The native body must leave
the state, the list it holds, the counts, the builds and the reason it
stopped bitwise where the numpy body leaves them, on open, mixed and
periodic boxes, one table, the W/Ta alloy's two types or Lennard-Jones'
zero density tables, at the pair counts around its 256-row chunks, with
a scratch too small for a build, and when a value goes bad in the middle
of a call.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as kernels
from repro.kernels import numpy_backend
from repro.lattice.cells import BCC
from repro.lattice.crystals import replicate
from repro.md.boundary import Box
from repro.md.integrators import LeapfrogVerlet
from repro.md.neighbor_list import NeighborList
from repro.md.simulation import Simulation
from repro.md.state import AtomsState
from repro.md.thermostat import maxwell_boltzmann_velocities
from repro.potentials.alloy import mix_tables
from repro.potentials.eam import EAMPotential
from repro.potentials.elements import (
    ELEMENTS,
    make_element_potential,
    make_element_tables,
)
from repro.potentials.lennard_jones import LennardJones

_NATIVE_STATUS = kernels.backend_status()["native"]
needs_native = pytest.mark.skipif(
    _NATIVE_STATUS != "ok", reason=f"native tier unavailable: {_NATIVE_STATUS}"
)
TIERS = ("numpy", pytest.param("native", marks=needs_native))
BOXES = {"open": (False, False, False), "mixed": (True, True, False),
         "periodic": (True, True, True)}
DT = 0.002  # ps

_POTENTIALS: dict = {}


def _potential(alloy: bool) -> EAMPotential:
    if alloy not in _POTENTIALS:
        _POTENTIALS[alloy] = (
            EAMPotential(mix_tables(make_element_tables("W"),
                                    make_element_tables("Ta")))
            if alloy else make_element_potential("Ta"))
    return _POTENTIALS[alloy]


def _lennard_jones() -> LennardJones:
    """An LJ whose minimum sits at BCC Ta's nearest-neighbour distance,
    cut at Ta's cutoff, so it runs on :func:`_crystal`'s Ta boxes."""
    if "LJ" not in _POTENTIALS:
        ta = ELEMENTS["Ta"]
        _POTENTIALS["LJ"] = LennardJones(
            epsilon=0.05, sigma=ta.nn_distance / 2 ** (1 / 6),
            cutoff=ta.cutoff)
    return _POTENTIALS["LJ"]


@pytest.fixture(autouse=True)
def restore_backend():
    yield
    kernels.set_backend(kernels.DEFAULT_BACKEND)


def _crystal(box_kind: str, reps, alloy: bool, temperature: float,
             seed: int) -> AtomsState:
    """A BCC crystal (Ta, or a random W/Ta solid solution) in a box
    periodic along the ``box_kind`` dims, where the crystal tiles (at
    least four cells of the alloy, whose W cutoff is 5.5 A)."""
    rng = np.random.default_rng(seed)
    if alloy:
        reps = tuple(max(k, 4) if p else k
                     for k, p in zip(reps, BOXES[box_kind]))
    a = ELEMENTS["Ta"].lattice_constant
    if alloy:
        a = 0.5 * (a + ELEMENTS["W"].lattice_constant)
    crystal = replicate(BCC, a, reps)
    periodic = np.array(BOXES[box_kind])
    lengths = np.where(periodic, crystal.box, crystal.box + 12.0)
    types = (rng.random(crystal.n_atoms) < 0.5).astype(np.int64) * alloy
    masses = ([ELEMENTS["W"].mass, ELEMENTS["Ta"].mass] if alloy
              else [ELEMENTS["Ta"].mass])
    state = AtomsState(
        positions=crystal.positions + rng.normal(0.0, 0.02, (len(types), 3)),
        velocities=np.zeros((len(types), 3)), types=types,
        masses=np.array(masses),
        box=Box(lengths, periodic=periodic, origin=np.zeros(3)),
    )
    if temperature > 0:
        maxwell_boltzmann_velocities(state, temperature, rng)
    return state


def _held(state: AtomsState, potential, skin: float) -> list:
    """The list a :class:`NeighborList` builds at the state's positions,
    as ``md_step`` takes it."""
    nl = NeighborList(state.box, potential.cutoff, skin=skin)
    nl.build(state.positions)
    return nl.hand_over(state.positions)[0]


def _call(tier, state, potential, skin, n_steps, held=(), dead=np.inf,
          fortran=False, scratch=None):
    """``md_step`` on ``tier`` over a copy of ``state`` (its positions
    column-major with ``fortran``) from a copy of the ``held`` list:
    its outputs but the timings, the list it holds (copied), and the
    state's copy."""
    kernels.set_backend(tier)
    state = state.copy()
    if fortran:
        state.positions = np.asfortranarray(state.positions)
    held = list(held)
    box = state.box
    step = kernels.active_backend().md_step(
        state.positions, state.velocities, state.types, state.masses, held,
        box.origin, box.lengths, box.periodic, potential.cutoff, skin,
        potential.cap.r_min, *potential.bank_tables(state.n_atoms,
                                                    state.types),
        DT, n_steps, dead_bound=dead,
        scratch={} if scratch is None else scratch,
    )
    assert step.phase_ns.shape == (step.steps, len(numpy_backend.MD_PHASES))
    outputs = (step.steps, step.stop, step.pairs.tolist(),
               step.builds.tolist(), step.dead_bound)
    return outputs, [np.copy(a) for a in held], state


def _same_on_both(state, potential, skin, n_steps, held=(), dead=np.inf):
    """Both tiers from the same arguments; asserts bitwise agreement and
    returns the numpy outputs, list and state."""
    want, h_np, s_np = _call("numpy", state, potential, skin, n_steps, held,
                             dead)
    if _NATIVE_STATUS == "ok":
        got, h_nat, s_nat = _call("native", state, potential, skin, n_steps,
                                  held, dead)
        assert got == want
        _same_list(h_nat, h_np)
        for a, b in ((s_nat.positions, s_np.positions),
                     (s_nat.velocities, s_np.velocities)):
            assert a.tobytes() == b.tobytes()
    return want, h_np, s_np


def _same_list(got: list, want: list) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestAgainstNumpyBody:
    @needs_native
    @given(
        box_kind=st.sampled_from(sorted(BOXES)),
        kind=st.sampled_from(["Ta", "W/Ta", "LJ"]),
        reps=st.tuples(st.integers(3, 4), st.integers(3, 4),
                       st.integers(3, 4)),
        temperature=st.sampled_from([0.0, 300.0, 3000.0]),
        skin=st.sampled_from([0.1, 0.3, 0.5]),
        n_steps=st.sampled_from([1, 3, 25]),
        from_build=st.booleans(),
        moved=st.sampled_from([0.0, 0.01, 0.2]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_bitwise(self, box_kind, kind, reps, temperature, skin,
                     n_steps, from_build, moved, seed):
        """From no list, or from a held list away from its build."""
        state = _crystal(box_kind, reps, kind == "W/Ta", temperature, seed)
        potential = (_lennard_jones() if kind == "LJ"
                     else _potential(kind == "W/Ta"))
        held = []
        if not from_build:
            held = _held(state, potential, skin)
            rng = np.random.default_rng(seed)
            state.positions += rng.normal(0.0, moved, state.positions.shape)
        _same_on_both(state, potential, skin, n_steps, held)

    @needs_native
    @given(
        box_kind=st.sampled_from(sorted(BOXES) + ["thin"]),
        alloy=st.booleans(),
        skin=st.sampled_from([0.0, 0.5]),
        temperature=st.sampled_from([3000.0, 10000.0]),
        n_steps=st.sampled_from([2, 12, 30]),
        held_first=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_calls_that_build_twice_or_more(self, box_kind, alloy, skin,
                                            temperature, n_steps, held_first,
                                            seed):
        """Builds inside the call, on the cell sweep's plan (periodic
        sides of at least three reaches) or on the brute-force stream
        (``thin``: a periodic x side under three reaches), from no list
        or from a held one."""
        if skin > 0.0 and n_steps < 30:
            n_steps = 30  # hot atoms outrun a 0.5 A skin in ~10 steps
        side = 6 if alloy else 5  # a periodic side of three reaches
        kind = "periodic" if box_kind == "thin" else box_kind
        reps = (4 if alloy else 3, side, side) if box_kind == "thin" else (
            side if p else 3 for p in BOXES[kind])
        state = _crystal(kind, tuple(reps), alloy, temperature, seed)
        potential = _potential(alloy)
        thin = state.box.periodic & (state.box.lengths
                                     < 3 * (potential.cutoff + skin))
        assert thin.any() == (box_kind == "thin")
        held = _held(state, potential, skin) if held_first else []
        (steps, stop, _, builds, _), _, _ = _same_on_both(
            state, potential, skin, n_steps, held)
        assert (steps, stop) == (n_steps, "steps")
        assert len(builds) >= 2
        # the brute-force stream keeps every pair the coarse cut sees
        assert all((raw == coarse) == thin.any()
                   for _, raw, coarse, _ in builds)

    @pytest.mark.parametrize("alloy", [False, True])
    @pytest.mark.parametrize("box_kind", sorted(BOXES))
    def test_builds_mid_call_are_the_public_steps(self, box_kind, alloy):
        """Hot atoms and a thin skin: the call rebuilds its list several
        times, and ends bitwise where the public sequence ends
        (``NeighborList.pairs`` -> ``compute`` -> leap-frog), with the
        same builds, the same list and the same pairs each step."""
        state = _crystal(box_kind, (4, 4, 3), alloy, 6000.0, 3)
        potential = _potential(alloy)
        (steps, stop, pairs, builds, _), held, ran = _same_on_both(
            state, potential, 0.1, 25)
        assert (steps, stop) == (25, "steps") and len(builds) > 2
        public = state.copy()
        nl = NeighborList(public.box, potential.cutoff, skin=0.1)
        integrator = LeapfrogVerlet(2.0)
        assert integrator.dt == DT
        want_pairs, want_builds = [], []
        for k in range(25):
            before = nl.n_builds
            table = nl.pairs(public.positions)
            if nl.n_builds != before:
                want_builds.append([k, *nl.candidates.funnel])
            want_pairs.append(table.n_pairs)
            _, forces = potential.compute(public.n_atoms, table, public.types)
            integrator.step(public, forces)
        assert (pairs, builds) == (want_pairs, want_builds)
        assert ran.positions.tobytes() == public.positions.tobytes()
        assert ran.velocities.tobytes() == public.velocities.tobytes()
        _same_list(held, [*nl.hand_over(public.positions)[0]])

    @pytest.mark.parametrize("tier", TIERS)
    def test_the_cuts_change_no_bit(self, tier):
        """From the list test, a call under the all-inside or pre-mask
        cut, or with the pre-mask dead, is the plain filter's step."""
        state = _crystal("mixed", (4, 4, 3), False, 300.0, 5)
        potential = _potential(False)
        held = _held(state, potential, 0.5)
        state.positions += 1e-3
        runs = [_call(tier, state, potential, 0.5, 3, held, dead=dead)
                for dead in (np.inf, 0.0)]
        assert runs[0][0][:4] == runs[1][0][:4]
        assert runs[1][0][4] == 0.0  # a dead pre-mask stays dead
        assert runs[0][2].positions.tobytes() == runs[1][2].positions.tobytes()


class TestScratch:
    """The native body keeps its plan, table and the lists it builds in
    its slot of the caller's scratch; a build that needs more than the
    slot has regrows it and builds again, never a truncated list."""

    @needs_native
    @pytest.mark.parametrize("box_kind", sorted(BOXES))
    def test_a_scratch_too_small_regrows_to_the_same_bits(self, box_kind):
        from repro.kernels import native_backend

        state = _crystal(box_kind, (5, 5, 5), False, 3000.0, 8)
        potential = _potential(False)
        held = _held(state, potential, 0.5)
        # a slot sized for 10 rows and one cell; a held list of 10 rows
        # built elsewhere, so the first step's test fires and builds
        scratch = {}
        native_backend._md_scratch(scratch.setdefault("native", {}), 10,
                                   state.n_atoms, False, 1)
        small = [held[0] - 1.0, held[1][:10], held[2][:10], held[3][:10],
                 float(held[3][:10].max())]
        want, h_np, s_np = _call("numpy", state, potential, 0.5, 30, small)
        assert want[3][0][0] == 0  # the first step builds
        got, h_nat, s_nat = _call("native", state, potential, 0.5, 30, small,
                                  scratch=scratch)
        assert got == want
        _same_list(h_nat, h_np)
        assert s_nat.positions.tobytes() == s_np.positions.tobytes()
        rows, _, typed, cells, _ = scratch["native"]["md_fits"]
        assert rows >= want[3][0][2] and cells > 1

    @pytest.mark.parametrize("tier", TIERS)
    def test_a_list_it_returned_is_never_written_again(self, tier):
        """Two calls on one scratch: the second starts from the list the
        first returned and builds its own, leaving the first's arrays as
        they were, and ends where one call of both lengths ends."""
        state = _crystal("periodic", (5, 5, 5), False, 6000.0, 9)
        potential = _potential(False)
        one, h_one, s_one = _call(tier, state, potential, 0.1, 20)
        s_two, held, scratch, dead = state.copy(), [], {}, np.inf
        box = s_two.box
        kept = []
        for n_steps in (7, 13):
            step = kernels.active_backend().md_step(
                s_two.positions, s_two.velocities, s_two.types, s_two.masses,
                held, box.origin, box.lengths, box.periodic,
                potential.cutoff, 0.1, potential.cap.r_min,
                *potential.bank_tables(s_two.n_atoms, s_two.types), DT,
                n_steps, dead_bound=dead, scratch=scratch)
            assert step.stop == "steps" and len(step.builds) >= 2
            dead = step.dead_bound
            kept.append((held[:4], [np.copy(a) for a in held[:4]]))
        for arrays, copies in kept:
            _same_list(arrays, copies)
        assert s_two.positions.tobytes() == s_one.positions.tobytes()
        _same_list(held, h_one)


@pytest.mark.parametrize("tier", TIERS)
def test_a_list_kept_across_run_does_not_change(tier):
    """The candidates, build positions and a public ``pairs`` table kept
    from a :class:`Simulation` stay as they were through later runs that
    rebuild the list: the list a run leaves is the caller's."""
    kernels.set_backend(tier)
    for temperature in (30.0, 6000.0):  # an all-inside table, then a cut
        sim = Simulation(_crystal("periodic", (5, 5, 5), False, temperature,
                                  4), _potential(False), skin=0.1)
        sim.run(10)
        nl = sim.neighbors
        table = nl.pairs(sim.state.positions)
        cand = nl.candidates
        kept = [cand.i, cand.j, cand.r_build, nl.ref_positions, table.i,
                table.j, table.rij, table.r]
        copies = [np.copy(a) for a in kept]
        builds = nl.n_builds
        sim.run(30)
        assert nl.n_builds > builds
        _same_list(kept, copies)


class TestChunkEdges:
    """Isolated dimers: the pair count is the dimer count, placed on
    and around the 256-row chunk; one more dimer sits between the
    cutoff and the reach, a candidate that never interacts."""

    @staticmethod
    def _dimers(k: int) -> AtomsState:
        rng = np.random.default_rng(k)
        side = int(np.ceil(np.cbrt(k + 1)))
        sites = np.array(np.unravel_index(np.arange(k + 1), (side,) * 3)).T
        centres = sites * 12.0 + 6.0
        sep = np.full(k + 1, 2.9)
        sep[-1] = 4.2  # past the Ta cutoff, inside the reach
        axis = rng.normal(size=(k + 1, 3))
        axis /= np.linalg.norm(axis, axis=1)[:, None]
        half = 0.5 * sep[:, None] * axis
        positions = np.concatenate([centres - half, centres + half])
        n = len(positions)
        return AtomsState(
            positions=positions, velocities=rng.normal(0.0, 1.0, (n, 3)),
            types=np.zeros(n, dtype=np.int64),
            masses=np.array([ELEMENTS["Ta"].mass]),
            box=Box.open(np.full(3, side * 12.0)),
        )

    @pytest.mark.parametrize("k", [0, 1, 255, 256, 257])
    def test_pair_counts_around_a_chunk(self, k):
        state = self._dimers(k)
        potential = _potential(False)
        (steps, stop, pairs, builds, _), held, _ = _same_on_both(
            state, potential, 0.5, 3)
        assert (steps, stop, pairs[0]) == (3, "steps", k)
        assert builds[0][0] == 0 and len(held[1]) == k + 1


class TestStops:
    """Where a call stops on a bad value, both tiers stop at the same
    step for the same reason, and the state is at the last step run."""

    def test_nan_velocity_stops_the_next_list_test(self):
        state = _crystal("open", (4, 4, 2), False, 300.0, 1)
        potential = _potential(False)
        held = _held(state, potential, 0.5)
        state.velocities[5, 1] = np.nan
        (steps, stop, *_), _, after = _same_on_both(state, potential, 0.5,
                                                    6, held)
        assert (steps, stop) == (1, "non_finite")
        assert np.isnan(after.positions[5, 1])

    def test_nan_velocity_stops_the_next_build_with_no_list(self):
        """At skin 0 every step builds: the build finds the position
        that is not finite, and the call holds no list."""
        state = _crystal("mixed", (4, 4, 2), False, 300.0, 1)
        potential = _potential(False)
        state.velocities[5, 1] = np.nan
        (steps, stop, _, builds, _), held, after = _same_on_both(
            state, potential, 0.0, 6)
        assert (steps, stop, len(builds), held) == (1, "non_finite", 1, [])
        assert np.isnan(after.positions[5, 1])

    def test_an_overlap_stops_before_its_step(self):
        state = _crystal("open", (4, 4, 2), False, 0.0, 2)
        state.positions[1] = state.positions[0] + 0.1
        potential = _potential(False)
        (steps, stop, pairs, builds, _), held, after = _same_on_both(
            state, potential, 0.5, 4)
        assert (steps, stop, pairs, len(builds)) == (0, "cap", [], 1)
        assert held[0].tobytes() == state.positions.tobytes()
        assert after.positions.tobytes() == state.positions.tobytes()

    @pytest.mark.parametrize("tier", TIERS)
    def test_a_declined_call_writes_nothing(self, tier):
        """A type past the tables: the C loop declines before it writes,
        and the numpy body raises before its first leap-frog."""
        state = _crystal("open", (3, 3, 2), True, 300.0, 4)
        potential = _potential(True)
        held = _held(state, potential, 0.5)
        banks, phi_index = potential.bank_tables(state.n_atoms, state.types)
        before = state.copy()
        state.types[2] = 2
        kernels.set_backend(tier)
        box = state.box
        with pytest.raises(IndexError):
            kernels.active_backend().md_step(
                state.positions, state.velocities, state.types,
                np.append(state.masses, 1.0), held, box.origin, box.lengths,
                box.periodic, potential.cutoff, 0.5, potential.cap.r_min,
                banks, phi_index, DT, 3,
            )
        assert state.positions.tobytes() == before.positions.tobytes()
        assert state.velocities.tobytes() == before.velocities.tobytes()

    @needs_native
    def test_a_view_it_cannot_read_runs_the_numpy_body(self):
        from repro.kernels import native_backend

        state = _crystal("periodic", (3, 3, 3), False, 300.0, 6)
        potential = _potential(False)
        want, _, s_np = _call("numpy", state, potential, 0.5, 4)
        before = native_backend.declined
        got, _, s_nat = _call("native", state, potential, 0.5, 4,
                              fortran=True)
        assert native_backend.declined == before + 1
        assert got == want
        assert np.array_equal(s_nat.positions, s_np.positions)


class TestSimulationRaises:
    """``Simulation.run`` raises the public path's error, at the public
    path's step, on both tiers."""

    @staticmethod
    def _public(sim: Simulation, n_steps: int) -> None:
        state = sim.state
        for _ in range(n_steps):
            pairs = sim.neighbors.pairs(state.positions)
            _, forces = sim.potential.compute(state.n_atoms, pairs,
                                              state.types)
            sim.integrator.step(state, forces)
            sim.step_count += 1

    def _both_paths(self, tier, state, match, skin=0.5):
        kernels.set_backend(tier)
        outcomes = []
        for run in (Simulation.run, self._public):
            sim = Simulation(state.copy(), _potential(False), skin=skin)
            with pytest.raises(FloatingPointError, match=match):
                run(sim, 10)
            outcomes.append((sim.step_count, sim.state.positions.tobytes()))
        assert outcomes[0] == outcomes[1]
        return outcomes[0][0]

    @pytest.mark.parametrize("tier", TIERS)
    def test_nan_position(self, tier):
        """A NaN position before the first step: the build refuses it."""
        state = _crystal("mixed", (4, 4, 3), False, 300.0, 1)
        state.positions[5, 1] = np.nan
        assert self._both_paths(tier, state, "non-finite") == 0

    @pytest.mark.parametrize("tier", TIERS)
    def test_nan_velocity(self, tier):
        state = _crystal("open", (4, 4, 2), False, 300.0, 1)
        state.velocities[5, 1] = np.nan
        assert self._both_paths(tier, state, "non-finite") == 1

    @pytest.mark.parametrize("tier", TIERS)
    def test_nan_position_at_a_build_step(self, tier):
        """Skin 0: the second step's build meets the NaN the first step's
        leap-frog wrote, and raises the cell list's error."""
        state = _crystal("mixed", (4, 4, 2), False, 300.0, 1)
        state.velocities[5, 1] = np.nan
        assert self._both_paths(tier, state, "cell-list build",
                                skin=0.0) == 1

    @pytest.mark.parametrize("tier", TIERS)
    def test_closing_overlap(self, tier):
        """Two heavy atoms closing 0.9 A a step from 2.0 A apart: under
        the cap at the third step, each step a rebuild."""
        positions = np.array([[10.0, 10.0, 10.0], [12.0, 10.0, 10.0],
                              [10.0, 20.0, 10.0]])
        velocities = np.array([[225.0, 0.0, 0.0], [-225.0, 0.0, 0.0],
                               [0.0, 0.0, 0.0]])
        state = AtomsState(positions=positions, velocities=velocities,
                           types=np.zeros(3, dtype=np.int64),
                           masses=np.array([1e9]), box=Box.open(np.full(3, 30.0)))
        assert self._both_paths(tier, state, "overlapping") == 2


@pytest.mark.parametrize("tier", TIERS)
def test_a_runner_chunk_is_one_call(tier, monkeypatch):
    """A 100-step job observed every 10 steps is ten ``md_step`` calls,
    however many times its list is rebuilt: an EAM job, and a
    Lennard-Jones one on a hand-built :class:`Simulation`."""
    from repro.runtime import RunSpec, Runner, build_engine
    from repro.runtime.engines import ReferenceEngine

    kernels.backend_status()  # the native probe calls md_step: load first
    kernels.set_backend(tier)
    module = kernels.active_backend()
    body, calls = module.md_step, []

    def counted(*args, **kwargs):
        calls.append(args[-1])  # n_steps
        return body(*args, **kwargs)

    monkeypatch.setattr(module, "md_step", counted)
    for make in (
        lambda: build_engine(RunSpec(element="Ta", reps=(8, 8, 4),
                                     temperature=900.0, engine="reference",
                                     backend=tier, skin=0.1)),
        lambda: ReferenceEngine(RunSpec(engine="reference"), Simulation(
            _crystal("periodic", (8, 8, 4), False, 900.0, 0),
            _lennard_jones(), skin=0.1)),
    ):
        calls.clear()
        engine = make()
        try:
            runner = Runner(engine)
            runner.add_observer(10, lambda event: None)
            runner.run(100)
            assert calls == [10] * 10
            assert engine.sim.neighbors.n_builds > 10
        finally:
            engine.close()
