"""The wafer step's phase sequence, read off a spy tier.

A spy registered through :func:`repro.kernels.register_backend` wraps a
real tier (numpy, and native where it loads) and records, for every
phase the machine's ``wafer_step`` calls report they ran, its name and
the sweep threads the tier reports after the call.  The sequence is the
machine's contract with the registry: a fresh machine builds its list
before the first density sweep, a held list is tested before it is
reused, a skin of 0 never tests one, the observables neither integrate
nor count cycles, and ``sweep_threads`` is what the tier reported.
"""

from types import SimpleNamespace

import pytest

import repro.kernels as kernels
from repro.core.wse_md import WseMd
from tests.conftest import small_slab_state

SWEEPS = ("exchange", "density", "pair_force")
STEP = ["density", "embedding", "pair_force", "integrate", "cycle_account"]


@pytest.fixture(params=["numpy", "native"])
def spy(request, monkeypatch):
    """The active tier, a spy over ``request.param``: ``spy.calls`` is
    the ``(phase, threads)`` of every wafer step phase run since."""
    if (request.param == "native"
            and kernels.backend_status()["native"] != "ok"):
        pytest.skip("native tier unavailable on this host")
    kernels.set_backend(request.param)
    base = kernels.active_backend()
    spy = SimpleNamespace(calls=[], threads=1, tier=request.param)

    def wrap(name):
        kernel = getattr(base, name)

        def call(*args, **kwargs):
            out = kernel(*args, **kwargs)
            spy.threads = getattr(base, "threads", 1)
            if name == "wafer_step":
                spy.calls += [(phase, spy.threads) for phase in out.phases]
            return out

        return call

    for name in kernels.KERNEL_FUNCTIONS:
        setattr(spy, name, wrap(name))
    # registered into copies, so the spy leaves the registry with the test
    monkeypatch.setattr(kernels, "_loaders", dict(kernels._loaders))
    monkeypatch.setattr(kernels, "_resolved", dict(kernels._resolved))
    kernels.register_backend("wafer-spy", lambda: spy)
    assert kernels.set_backend("wafer-spy") == "wafer-spy"
    yield spy
    kernels.set_backend(kernels.DEFAULT_BACKEND)


def _names(spy) -> list[str]:
    """The phases run since the last read, oldest first."""
    names = [name for name, _ in spy.calls]
    spy.calls.clear()
    return names


@pytest.mark.parametrize("force_symmetry", [False, True])
def test_a_fresh_machine_builds_before_its_first_sweep(
    spy, ta_potential, force_symmetry
):
    sim = WseMd(small_slab_state(reps=(5, 5, 2)), ta_potential,
                force_symmetry=force_symmetry)
    sim.step(1)
    assert _names(spy) == ["exchange", *STEP]


def test_a_held_list_is_tested_then_reused_or_rebuilt(spy, ta_potential):
    sim = WseMd(small_slab_state(reps=(5, 5, 2), temperature=100.0),
                ta_potential)
    sim.step(1)
    _names(spy)
    sim.step(1)
    assert (sim.list_builds, sim.list_reuses) == (1, 1)
    assert _names(spy) == ["neighbor", *STEP]
    sim.pos[sim.occ] += 1.0  # every tile a full angstrom
    sim.step(1)
    assert (sim.list_builds, sim.list_reuses) == (2, 1)
    assert _names(spy) == ["neighbor", "exchange", *STEP]


def test_skin_zero_never_tests_a_list(spy, ta_potential):
    sim = WseMd(small_slab_state(reps=(5, 5, 2), temperature=100.0),
                ta_potential, skin=0.0)
    sim.step(3)
    sim.compute_energy()
    sim.compute_forces()
    names = _names(spy)
    assert "neighbor" not in names
    assert names.count("exchange") == names.count("density") == 5


@pytest.mark.parametrize("skin", [0.5, 0.0])
def test_the_observables_neither_integrate_nor_count_cycles(
    spy, ta_potential, skin
):
    sim = WseMd(small_slab_state(reps=(5, 5, 2), temperature=100.0),
                ta_potential, skin=skin)
    sim.step(1)
    _names(spy)
    first = "neighbor" if skin else "exchange"
    for observable in (sim.compute_energy, sim.compute_forces):
        observable()
        assert _names(spy) == [first, "density", "embedding", "pair_force"]
    assert sim.step_count == sim.trace.n_steps == 1


@pytest.mark.parametrize("forced", [1, 2])
def test_sweep_threads_is_what_the_tier_reported(
    spy, ta_potential, forced, monkeypatch
):
    from repro.kernels import native_backend

    monkeypatch.setattr(native_backend, "_sweep_threads", lambda rows: forced)
    sim = WseMd(small_slab_state(reps=(8, 8, 2), temperature=100.0),
                ta_potential, force_symmetry=True)
    for _ in range(3):
        spy.calls.clear()
        sim.step(1)
        reported = [threads for name, threads in spy.calls if name in SWEEPS]
        assert sim.sweep_threads == max(reported)
    assert sim.sweep_threads == (forced if spy.tier == "native" else 1)


@pytest.mark.parametrize("force_symmetry", [False, True])
def test_the_step_records_every_phase_the_kernel_timed(
    spy, ta_potential, force_symmetry
):
    """``step`` records the call's per-phase nanoseconds as leaf spans
    inside ``step``, under the phase names, and the observables record
    none."""
    from repro.kernels.numpy_backend import STEP_PHASES
    from repro.obs import Tracer

    spans = []
    sink = SimpleNamespace(emit=spans.append)
    tracer = Tracer(sinks=[sink])
    sim = WseMd(small_slab_state(reps=(5, 5, 2), temperature=100.0),
                ta_potential, force_symmetry=force_symmetry, tracer=tracer)
    sim.step(2)
    sim.compute_energy()
    names = [span.name for span in spans]
    assert names == [*STEP_PHASES, "step"] * 2
    for span in spans:
        assert span.duration_s >= 0.0
        if span.name != "step":
            assert span.path == f"step/{span.name}"
    steps = [span for span in spans if span.name == "step"]
    children = sum(span.duration_s for span in spans if span.depth == 1)
    assert children <= sum(span.duration_s for span in steps)
    density = spans[STEP_PHASES.index("density")].counters
    assert density["interactions"] == int(sim.last_interactions.sum()) > 0
    # the first step built (no list to test), the second reused
    assert spans[0].duration_s == 0.0
    assert spans[len(STEP_PHASES) + 2].duration_s == 0.0
