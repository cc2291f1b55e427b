"""The reference step kernel, ``md_step``: native against its numpy body.

One call advances the serial reference engine up to n steps on a held
Verlet list: the skin/2 list test, the reuse prefilter with its
all-inside and pre-mask cuts, the distance cap, density, embedding,
force and the leap-frog.  The native body must leave the state, the
counts and the reason it stopped bitwise where the numpy body leaves
them, on open, mixed and periodic boxes, one table or the W/Ta alloy's
two types, at the pair counts around its 256-row chunks, and when the
list test fires or a value goes bad in the middle of a call.
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


def _held(state: AtomsState, potential, skin: float):
    """A list built at the state's positions, and the build's table."""
    nl = NeighborList(state.box, potential.cutoff, skin=skin)
    return nl, nl.build(state.positions)


def _call(tier, state, potential, nl, n_steps, table=None, dead=np.inf,
          fortran=False):
    """``md_step`` on ``tier`` over a copy of ``state`` (its positions
    column-major with ``fortran``): its outputs but the timings, and the
    copy."""
    kernels.set_backend(tier)
    state = state.copy()
    if fortran:
        state.positions = np.asfortranarray(state.positions)
    cand = nl.candidates
    first = None if table is None else (table.i, table.j, table.rij, table.r)
    step = kernels.active_backend().md_step(
        state.positions, state.velocities, state.types, state.masses,
        nl.ref_positions, cand.i, cand.j, cand.r_build, cand.r_build_max(),
        state.box.lengths, state.box.periodic, nl.cutoff, nl.skin,
        potential.cap.r_min, *potential.bank_tables(state.n_atoms,
                                                    state.types),
        DT, n_steps, first=first, dead_bound=dead, scratch={},
    )
    assert step.phase_ns.shape == (step.steps, len(numpy_backend.MD_PHASES))
    outputs = (step.steps, step.stop, step.pairs.tolist(), step.dead_bound)
    return outputs, state


def _same_on_both(state, potential, nl, n_steps, table=None, dead=np.inf):
    """Both tiers from the same arguments; asserts bitwise agreement and
    returns the numpy outputs and state."""
    want, s_np = _call("numpy", state, potential, nl, n_steps, table, dead)
    if _NATIVE_STATUS == "ok":
        got, s_nat = _call("native", state, potential, nl, n_steps, table,
                           dead)
        assert got == want
        for a, b in ((s_nat.positions, s_np.positions),
                     (s_nat.velocities, s_np.velocities)):
            assert a.tobytes() == b.tobytes()
    return want, s_np


class TestAgainstNumpyBody:
    @needs_native
    @given(
        box_kind=st.sampled_from(sorted(BOXES)),
        alloy=st.booleans(),
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
    def test_bitwise(self, box_kind, alloy, reps, temperature, skin,
                     n_steps, from_build, moved, seed):
        state = _crystal(box_kind, reps, alloy, temperature, seed)
        potential = _potential(alloy)
        nl, table = _held(state, potential, skin)
        if not from_build:
            # a call that starts with the list test, away from the build
            rng = np.random.default_rng(seed)
            state.positions += rng.normal(0.0, moved, state.positions.shape)
            table = None
        _same_on_both(state, potential, nl, n_steps, table)

    @pytest.mark.parametrize("alloy", [False, True])
    @pytest.mark.parametrize("box_kind", sorted(BOXES))
    def test_list_test_fires_mid_call(self, box_kind, alloy):
        """Hot atoms and a thin skin: the call runs some steps, then its
        list test fires; the state is at the last step run, bitwise the
        state a call asked for exactly that many steps leaves."""
        state = _crystal(box_kind, (4, 4, 3), alloy, 6000.0, 3)
        potential = _potential(alloy)
        nl, table = _held(state, potential, 0.1)
        (steps, stop, *_), stopped = _same_on_both(state, potential, nl, 25,
                                                   table)
        assert stop == "list" and 1 < steps < 25
        exact, ran = _same_on_both(state, potential, nl, steps, table)
        assert exact[:2] == (steps, "steps")
        assert ran.positions.tobytes() == stopped.positions.tobytes()

    @pytest.mark.parametrize("tier", TIERS)
    def test_the_cuts_change_no_bit(self, tier):
        """From the list test, a call under the all-inside or pre-mask
        cut, or with the pre-mask dead, is the plain filter's step."""
        state = _crystal("mixed", (4, 4, 3), False, 300.0, 5)
        potential = _potential(False)
        nl, _ = _held(state, potential, 0.5)
        state.positions += 1e-3
        runs = [_call(tier, state, potential, nl, 3, dead=dead)
                for dead in (np.inf, 0.0)]
        assert runs[0][0][:3] == runs[1][0][:3]
        assert runs[1][0][3] == 0.0  # a dead pre-mask stays dead
        assert runs[0][1].positions.tobytes() == runs[1][1].positions.tobytes()


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
        nl, table = _held(state, potential, 0.5)
        assert len(nl.candidates) == k + 1 and table.n_pairs == k
        (steps, stop, pairs, _), _ = _same_on_both(
            state, potential, nl, 3, table)
        assert (steps, stop, pairs[0]) == (3, "steps", k)


class TestStops:
    """Where a call stops on a bad value, both tiers stop at the same
    step for the same reason, and the state is at the last step run."""

    def test_nan_velocity_stops_the_next_list_test(self):
        state = _crystal("open", (4, 4, 2), False, 300.0, 1)
        potential = _potential(False)
        nl, table = _held(state, potential, 0.5)
        state.velocities[5, 1] = np.nan
        (steps, stop, *_), after = _same_on_both(state, potential, nl, 6,
                                                 table)
        assert (steps, stop) == (1, "non_finite")
        assert np.isnan(after.positions[5, 1])

    def test_an_overlap_stops_before_its_step(self):
        state = _crystal("open", (4, 4, 2), False, 0.0, 2)
        state.positions[1] = state.positions[0] + 0.1
        potential = _potential(False)
        nl, table = _held(state, potential, 0.5)
        (steps, stop, pairs, *_), after = _same_on_both(
            state, potential, nl, 4, table)
        assert (steps, stop, pairs) == (0, "cap", [])
        assert after.positions.tobytes() == state.positions.tobytes()

    @pytest.mark.parametrize("tier", TIERS)
    def test_a_declined_call_writes_nothing(self, tier):
        """A type past the tables: the C loop declines before it writes,
        and the numpy body raises before its first leap-frog."""
        state = _crystal("open", (3, 3, 2), True, 300.0, 4)
        potential = _potential(True)
        nl, table = _held(state, potential, 0.5)
        banks, phi_index = potential.bank_tables(state.n_atoms, state.types)
        before = state.copy()
        state.types[2] = 2
        kernels.set_backend(tier)
        cand = nl.candidates
        with pytest.raises(IndexError):
            kernels.active_backend().md_step(
                state.positions, state.velocities, state.types,
                np.append(state.masses, 1.0), nl.ref_positions, cand.i,
                cand.j, cand.r_build, cand.r_build_max(), state.box.lengths,
                state.box.periodic, nl.cutoff, nl.skin, potential.cap.r_min,
                banks, phi_index, DT, 3,
                first=(table.i, table.j, table.rij, table.r),
            )
        assert state.positions.tobytes() == before.positions.tobytes()
        assert state.velocities.tobytes() == before.velocities.tobytes()

    @needs_native
    def test_a_view_it_cannot_read_runs_the_numpy_body(self):
        from repro.kernels import native_backend

        state = _crystal("periodic", (3, 3, 3), False, 300.0, 6)
        potential = _potential(False)
        nl, table = _held(state, potential, 0.5)
        want, s_np = _call("numpy", state, potential, nl, 4, table)
        before = native_backend.declined
        got, s_nat = _call("native", state, potential, nl, 4, table,
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

    def _both_paths(self, tier, state, match):
        kernels.set_backend(tier)
        outcomes = []
        for run in (Simulation.run, self._public):
            sim = Simulation(state.copy(), _potential(False), skin=0.5)
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
