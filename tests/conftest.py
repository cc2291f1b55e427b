"""Shared fixtures: cached potentials and small benchmark workloads."""

from __future__ import annotations

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
