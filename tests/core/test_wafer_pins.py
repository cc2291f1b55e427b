"""Pinned wafer trajectories: 30 steps, on both kernel tiers.

Every value below was recorded *before* the lockstep step's integrate,
cycle accounting, list validity and list build moved behind the kernel
registry, and must hold unedited on ``numpy`` and on ``native`` -- there
also with the list build and both sweeps forced onto one thread and
onto two: the SHA-256 of the id-ordered positions and velocities, and of the
``CycleTrace`` planes (cycles, candidate and interaction counts) of
the retained window, plus the modeled rate, the candidates per atom
and the number of list builds.  Every case builds its list at least
twice, so the window holds a list build beside the set-up one, except
``skin 0``, which builds every step.  The cases ``b6`` (84 offsets in
one sweep call instead of 60), ``rect-wide`` and ``rect-tall``
(non-square tile grids, long along one axis and then the other) were
recorded on the code that still split each sweep into offset chunks,
so they pin one call per sweep to the chunked sums.
"""

import hashlib

import numpy as np
import pytest

import repro.kernels as kernels
from repro.md.state import AtomsState
from repro.potentials.alloy import mix_tables
from repro.potentials.eam import EAMPotential
from repro.potentials.elements import ELEMENTS, make_element_tables
from repro.runtime import RunSpec, build_engine
from repro.runtime.engines import build_state

STEPS = 30
BASE = dict(element="Ta", reps=(48, 48, 3), engine="wse", seed=5,
            temperature=600.0, force_symmetry=True)

#: case -> (RunSpec overrides, workload tweak, WseMd keywords)
CASES = {
    "ta": ({}, None, {}),
    "ta-nosym": ({"force_symmetry": False}, None, {}),
    "wta-alloy": ({}, "alloy", {}),
    "vacancies-3pct": ({}, "vacancies", {}),
    "swap5": ({"swap_interval": 5}, None, {}),
    "jitter": ({}, None, {"jitter_rel": 1e-3}),
    "skin0": ({"skin": 0.0}, None, {}),
    "b6": ({}, None, {"b": 6}),
    "rect-wide": ({"reps": (48, 32, 3)}, None, {}),
    "rect-tall": ({"reps": (32, 48, 3)}, None, {}),
}

#: case -> (positions+velocities sha, cycle-trace sha, modeled steps/s
#: as float.hex, candidates per atom as float.hex, list builds)
PINS = {
    "b6": (
        "b04f02749b8d99f8941e7db53341722305924027bf957451208475762c0a8948",
        "c46e0685ae4c50d0e0396e7468e43417e46456dbd9a712c782c05f7e34ba18ff",
        "0x1.ffd83a08e8158p+17", "0x1.3e0e38e38e38ep+6", 2,
    ),
    "jitter": (
        "b04f02749b8d99f8941e7db53341722305924027bf957451208475762c0a8948",
        "44c13bb383393e1550af173c9379301abf3c4461cb264b69e1c92cb2f04399e3",
        "0x1.3927c2d8fe2cdp+18", "0x1.ca4425ed097b4p+5", 2,
    ),
    "rect-tall": (
        "34a727fccf0a6396e25c8b99b00dc56ef5cb8e7d174ba0e0900e3f24983a51d6",
        "c1850aefd73ab7251972295511e981d879fae8eb9af13768a5506009e4abfb13",
        "0x1.32d17d3d1dbbdp+18", "0x1.c4f0000000000p+5", 2,
    ),
    "rect-wide": (
        "969c20df43ccebb0490590ac826fa2ff79586f7a983be406b04b624b4760c906",
        "d4eeb65731c306c5f9bbea5e35cee6b7ff81a6bc5e6625b6000f55e96686c8fd",
        "0x1.39dbe69f62b3bp+18", "0x1.c4cc71c71c71cp+5", 2,
    ),
    "skin0": (
        "b04f02749b8d99f8941e7db53341722305924027bf957451208475762c0a8948",
        "f52aa36249520838ea11d102754b273c74f0387143195f9764e79cc26dbbd0a6",
        "0x1.39dbe69f62b3bp+18", "0x1.ca4425ed097b4p+5", 30,
    ),
    "swap5": (
        "3bd2aa0cd5bfc17dc11519ea00e6fd67de14f90d9d8c38984d39a7b008865a57",
        "95244583ec0267247471c82649414249d95cccdb4f1ee9a7b7980894703a9149",
        "0x1.31aceb7f6f854p+18", "0x1.c6f7b425ed098p+5", 6,
    ),
    "ta": (
        "b04f02749b8d99f8941e7db53341722305924027bf957451208475762c0a8948",
        "f52aa36249520838ea11d102754b273c74f0387143195f9764e79cc26dbbd0a6",
        "0x1.39dbe69f62b3bp+18", "0x1.ca4425ed097b4p+5", 2,
    ),
    "ta-nosym": (
        "534bbd6a6b523adae5cbfe4a7a4417da3e93337a280ea8f96f889d3974c19b1c",
        "30d4dcc1aae29e3f098ef10edaf5239ff2cf3ec75b07d5c4285263043cdbe716",
        "0x1.9b79caf9e1a34p+17", "0x1.ca08aaaaaaaabp+6", 2,
    ),
    "vacancies-3pct": (
        "4661e886b8164cdd6f90acc5c232f21f58aa15c9298a1a7fb26399a0c2bd2797",
        "395e49587b46f1e8b8f117a3e5fcd3a8a2704f079bcc6c2258fb1b128e465143",
        "0x1.ed61851dda2f4p+17", "0x1.3e1d1561f878ap+6", 2,
    ),
    "wta-alloy": (
        "77090d9019480c3af43a055cb2c3f5e9cd8904df0b3ce376c830ddf081a06f2b",
        "94250c5624fad9ba20ad061b8ad6d34aa69c3a718f2019c33456eb4ec1bf01a0",
        "0x1.399653e624b65p+17", "0x1.a46cbda12f685p+6", 3,
    ),
}


def _workload(spec, tweak):
    state, potential = build_state(spec)
    if tweak is None:
        return {}
    rng = np.random.default_rng(2024)
    if tweak == "alloy":
        types = (rng.random(state.n_atoms) < 0.5).astype(np.int64)
        masses = [ELEMENTS["W"].mass, ELEMENTS["Ta"].mass]
        potential = EAMPotential(
            mix_tables(make_element_tables("W"), make_element_tables("Ta"))
        )
        keep = np.ones(state.n_atoms, dtype=bool)
    else:
        types, masses = state.types, state.masses
        keep = rng.random(state.n_atoms) >= 0.03
    state = AtomsState(
        positions=state.positions[keep], velocities=state.velocities[keep],
        types=types[keep], masses=masses, box=state.box,
    )
    return {"state": state, "potential": potential}


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def pinned_values(case: str, backend: str) -> tuple:
    """The recorded tuple of ``case`` run on ``backend``."""
    overrides, tweak, machine = CASES[case]
    spec = RunSpec(**{**BASE, **overrides}, backend=backend)
    engine = build_engine(spec, **_workload(spec, tweak), **machine)
    try:
        engine.step(STEPS)
        state = engine.state
        counters = engine.telemetry().counters
        return (
            _sha(state.positions, state.velocities),
            _sha(*engine.sim.trace.count_samples()),
            float(counters["modeled_steps_per_s"]).hex(),
            float(counters["candidates_per_atom"]).hex(),
            int(counters["list_builds"]),
        )
    finally:
        engine.close()


@pytest.fixture(autouse=True)
def restore_backend():
    yield
    kernels.set_backend(kernels.DEFAULT_BACKEND)


@pytest.mark.parametrize("backend", ["numpy", "native"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_wafer_trajectory_pinned(case, backend):
    if backend == "native" and kernels.backend_status()["native"] != "ok":
        pytest.skip("native tier unavailable on this host")
    got = pinned_values(case, backend)
    assert got == PINS[case]
    assert got[4] == STEPS if case == "skin0" else got[4] >= 2


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_wafer_trajectory_pinned_on_forced_sweep_threads(
    case, threads, monkeypatch
):
    if kernels.backend_status()["native"] != "ok":
        pytest.skip("native tier unavailable on this host")
    from repro.kernels import native_backend

    monkeypatch.setattr(native_backend, "_sweep_threads", lambda rows: threads)
    assert pinned_values(case, "native") == PINS[case]
    assert native_backend.threads == threads
