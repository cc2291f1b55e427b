"""Shared fixtures: cached potentials and small benchmark workloads."""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.lattice.slab import make_slab
from repro.md.boundary import Box
from repro.md.state import AtomsState
from repro.md.thermostat import maxwell_boltzmann_velocities
from repro.potentials.elements import ELEMENTS, make_element_potential


@pytest.fixture(scope="session")
def ta_potential():
    return make_element_potential("Ta")


@pytest.fixture(scope="session")
def cu_potential():
    return make_element_potential("Cu")


@pytest.fixture(scope="session")
def w_potential():
    return make_element_potential("W")


@pytest.fixture(scope="session")
def element_potentials(ta_potential, cu_potential, w_potential):
    return {"Ta": ta_potential, "Cu": cu_potential, "W": w_potential}


def small_slab_state(
    element: str = "Ta",
    reps: tuple[int, int, int] = (6, 6, 3),
    temperature: float = 290.0,
    seed: int = 7,
    margin_cutoffs: float = 4.0,
) -> AtomsState:
    """A small open-boundary thin-slab state for functional tests."""
    el = ELEMENTS[element]
    slab = make_slab(el.cell, el.lattice_constant, reps)
    box = Box.open(slab.box + margin_cutoffs * el.cutoff)
    state = AtomsState.from_positions(slab.positions, box, mass=el.mass)
    if temperature > 0:
        maxwell_boltzmann_velocities(
            state, temperature, np.random.default_rng(seed)
        )
    return state


def bulk_state(
    element: str = "Ta",
    reps: tuple[int, int, int] = (4, 4, 4),
    temperature: float = 0.0,
    seed: int = 7,
) -> AtomsState:
    """A fully periodic bulk crystal state."""
    from repro.lattice.crystals import replicate

    el = ELEMENTS[element]
    crystal = replicate(el.cell, el.lattice_constant, reps)
    box = Box(crystal.box, periodic=[True, True, True], origin=np.zeros(3))
    state = AtomsState.from_positions(crystal.positions, box, mass=el.mass)
    if temperature > 0:
        maxwell_boltzmann_velocities(
            state, temperature, np.random.default_rng(seed)
        )
    return state


@pytest.fixture()
def ta_slab_state():
    return small_slab_state("Ta")


@pytest.fixture()
def ta_bulk_state():
    return bulk_state("Ta")


def runner_over(sim):
    """The one observer bus, a :class:`~repro.runtime.runner.Runner`,
    driving a hand-built :class:`~repro.md.simulation.Simulation`."""
    from repro.runtime import RunSpec, Runner
    from repro.runtime.engines import ReferenceEngine

    return Runner(ReferenceEngine(RunSpec(engine="reference"), sim))


class ListSink:
    """A trace sink that keeps closed spans in memory."""

    def __init__(self) -> None:
        self.spans = []

    def emit(self, span) -> None:
        self.spans.append(span)

    def close(self) -> None:
        pass


def knots(spline) -> np.ndarray:
    """Knot abscissae of a uniform spline."""
    return spline.x0 + spline.h * np.arange(spline.n)


def spline_from_function(fn, x0: float, x1: float, n: int, **kwargs):
    """A :class:`~repro.potentials.spline.UniformCubicSpline` through
    ``fn`` sampled on ``n`` uniform knots over ``[x0, x1]``."""
    from repro.potentials.spline import UniformCubicSpline

    xs = np.linspace(x0, x1, n)
    ys = np.asarray([fn(float(x)) for x in xs], dtype=np.float64)
    return UniformCubicSpline(x0, (x1 - x0) / (n - 1), ys, **kwargs)


def total_energy(potential, n_atoms, pairs, types=None) -> float:
    """Total potential energy (eV) of a pair table."""
    e, _ = potential.compute(n_atoms, pairs, types)
    return float(np.sum(e))


def legacy_candidates(cells, positions, reach):
    """The staged rebuild the streaming sweep replaced, as an oracle.

    ``candidate_pairs()`` materializes the raw stencil stream and the
    exact numpy ``neighbor_prefilter`` cuts it inclusively at
    ``reach``.  Returns the kernel's ``(i, j, rij, r)`` plus the raw
    stream ``(ri, rj)`` the sweep's coarse output must be a sub-stream
    of.  ``cells`` must already be built at ``positions``.
    """
    from repro.kernels import numpy_backend

    ri, rj = cells.candidate_pairs()
    exact = numpy_backend.neighbor_prefilter(
        positions, ri, rj, cells.box.lengths, cells.box.periodic,
        reach, inclusive=True,
    )
    return exact, (ri, rj)


def tile_candidates(positions, grid, tile, box, reach, depth=None):
    """One tile's candidates, built the way a shard rank builds them.

    The single-process twin of a rank's first list build: cut the
    tile's pack (``tile_local_ids`` at the shell ``depth``, ``reach``
    unless given), mark what it owns (``owned_mask_local``) and hand
    the pack to the serial list's own ``build_candidates``.  Returns
    ``(local, owned, candidates)``; ``local[candidates.i]`` maps the
    pack-local indices back to global ids.
    """
    from repro.md.cell_list import CellList
    from repro.md.neighbor_list import build_candidates
    from repro.parallel.domains import owned_mask_local, tile_local_ids

    local = tile_local_ids(positions, grid, tile,
                           reach if depth is None else depth)
    owned = owned_mask_local(positions[local], grid.tile_bounds(tile))
    cand, _ = build_candidates(CellList(box, reach), positions[local])
    return local, owned, cand


def pid_gone(pid: int) -> bool:
    """No such process, or only its unreaped corpse."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        return False
    return "\nState:\tZ" in status


def wait_gone(pids, timeout=5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(pid_gone(pid) for pid in pids):
            return True
        time.sleep(0.02)
    return False


def run_specs():
    """Hypothesis strategy: valid :class:`RunSpec`\\ s over every field.

    Honours the cross-field rules (langevin and the layout fields need
    the reference engine; ``workers`` must agree with ``topology``; the
    layout fields need ``backend="parallel"``), so every drawn spec
    constructs.
    """
    from hypothesis import strategies as st

    from repro.runtime.spec import (
        ENGINES, THERMOSTAT_KINDS, TRANSPORT_CHOICES, RunSpec, ThermostatSpec,
    )

    small = st.integers(0, 50)
    positive = st.floats(0.01, 1e4, allow_nan=False)
    non_negative = st.floats(0.0, 1e4, allow_nan=False)

    @st.composite
    def build(draw):
        engine = draw(st.sampled_from(ENGINES))
        kinds = [k for k in THERMOSTAT_KINDS
                 if engine == "reference" or k != "langevin"]
        backend = draw(st.none() | st.sampled_from(
            ("numpy", "native", "parallel")))
        topology, workers, transport = None, 0, None
        if backend == "parallel" and engine == "reference":
            topology = draw(st.none() | st.tuples(st.integers(1, 3),
                                                  st.integers(1, 3)))
            domains = topology[0] * topology[1] if topology else draw(small)
            workers = draw(st.sampled_from((0, domains)))
            transport = draw(
                st.none() | st.sampled_from(TRANSPORT_CHOICES))
        return RunSpec(
            element=draw(st.sampled_from(("Cu", "W", "Ta"))),
            reps=draw(st.tuples(*[st.integers(1, 9)] * 3)),
            temperature=draw(non_negative),
            engine=engine,
            steps=draw(small),
            seed=draw(st.integers(0, 2**31)),
            dt_fs=draw(positive),
            skin=draw(non_negative),
            backend=backend,
            workers=workers,
            topology=topology,
            transport=transport,
            thermostat=draw(st.none() | st.builds(
                ThermostatSpec, st.sampled_from(kinds), non_negative,
                positive)),
            swap_interval=draw(small),
            force_symmetry=draw(st.booleans()),
            checkpoint_interval=draw(small),
        )

    return build()
