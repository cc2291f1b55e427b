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


def legacy_candidates(cells, positions, reach, live=None, seam=False):
    """The staged rebuild the streaming sweep replaced, as an oracle.

    ``candidate_pairs(live)`` materializes the raw stencil stream, the
    own-smaller-id seam rule masks it (``seam=True``: ``live`` is the
    tile's owned mask), and the exact numpy ``neighbor_prefilter`` cuts
    it inclusively at ``reach``.  Returns the kernel's
    ``(i, j, rij, r)`` plus the raw stream ``(ri, rj)`` the sweep's
    coarse output must be a sub-stream of.  ``cells`` must already be
    built at ``positions``.
    """
    from repro.kernels import numpy_backend

    ri, rj = cells.candidate_pairs(live=live)
    ci, cj = ri, rj
    if seam:
        keep = live[np.minimum(ri, rj)]
        ci, cj = ri[keep], rj[keep]
    exact = numpy_backend.neighbor_prefilter(
        positions, ci, cj, cells.box.lengths, cells.box.periodic,
        reach, inclusive=True, compute_r=True,
    )
    return exact, (ri, rj)


def tile_candidates(positions, grid, tile, box, reach):
    """One tile's candidates, built the way a shard worker builds them.

    The single-process twin of ``ShardWorker``'s rebuild: cut the
    tile's halo pack (``tile_local_ids``), mark what it owns
    (``owned_mask_local``) and hand both to the serial list's own
    ``build_candidates``.  Returns ``(local, owned, candidates)``;
    ``local[candidates.i]`` maps the pack-local indices back to global
    ids.
    """
    from repro.md.cell_list import CellList
    from repro.md.neighbor_list import build_candidates
    from repro.parallel.domains import owned_mask_local, tile_local_ids

    local = tile_local_ids(positions, grid, tile, reach)
    owned = owned_mask_local(positions[local], grid.tile_bounds(tile))
    cand, _ = build_candidates(
        CellList(box, reach), positions[local], owned=owned
    )
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

    Honours the cross-field rules (langevin and ``workers`` need the
    reference engine; ``workers`` must agree with ``topology``), so
    every drawn spec constructs.
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
        topology = draw(st.none() | st.tuples(st.integers(1, 3),
                                              st.integers(1, 3)))
        domains = topology[0] * topology[1] if topology else draw(small)
        return RunSpec(
            element=draw(st.sampled_from(("Cu", "W", "Ta"))),
            reps=draw(st.tuples(*[st.integers(1, 9)] * 3)),
            temperature=draw(non_negative),
            engine=engine,
            steps=draw(small),
            seed=draw(st.integers(0, 2**31)),
            dt_fs=draw(positive),
            skin=draw(non_negative),
            backend=draw(st.none() | st.sampled_from(
                ("numpy", "native", "parallel"))),
            workers=(draw(st.sampled_from((0, domains)))
                     if engine == "reference" else 0),
            topology=topology,
            transport=draw(st.none() | st.sampled_from(TRANSPORT_CHOICES)),
            offset_chunk=draw(small),
            thermostat=draw(st.none() | st.builds(
                ThermostatSpec, st.sampled_from(kinds), non_negative,
                positive)),
            swap_interval=draw(small),
            force_symmetry=draw(st.booleans()),
            checkpoint_interval=draw(small),
        )

    return build()
