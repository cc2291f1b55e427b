"""The wafer step's kernel sequence, read off a spy tier.

A spy registered through :func:`repro.kernels.register_backend` wraps a
real tier (numpy, and native where it loads) and records, for every
kernel of the wafer step the machine calls, its name and the sweep
threads the tier reports after it.  The sequence is the machine's
contract with the registry: a fresh machine builds its list before the
first density sweep, a held list is tested before it is reused, a skin
of 0 never tests one, the observables neither integrate nor count
cycles, and ``sweep_threads`` is what the tier reported.
"""

from types import SimpleNamespace

import pytest

import repro.kernels as kernels
from repro.core.wse_md import WseMd
from tests.conftest import small_slab_state

#: the registry kernels a wafer step is made of
WAFER_KERNELS = ("list_valid", "wafer_list", "wafer_density", "wafer_force",
                 "wafer_integrate", "wafer_cycles")
SWEEPS = ("wafer_list", "wafer_density", "wafer_force")
STEP = ["wafer_density", "wafer_force", "wafer_integrate", "wafer_cycles"]


@pytest.fixture(params=["numpy", "native"])
def spy(request, monkeypatch):
    """The active tier, a spy over ``request.param``: ``spy.calls`` is
    the ``(kernel, threads)`` of every wafer kernel called since."""
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
            if name in WAFER_KERNELS:
                spy.calls.append((name, spy.threads))
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
    """The kernels called since the last read, oldest first."""
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
    assert _names(spy) == ["wafer_list", *STEP]


def test_a_held_list_is_tested_then_reused_or_rebuilt(spy, ta_potential):
    sim = WseMd(small_slab_state(reps=(5, 5, 2), temperature=100.0),
                ta_potential)
    sim.step(1)
    _names(spy)
    sim.step(1)
    assert (sim.list_builds, sim.list_reuses) == (1, 1)
    assert _names(spy) == ["list_valid", *STEP]
    sim.pos[sim.occ] += sim.dtype.type(1.0)  # every tile a full angstrom
    sim.step(1)
    assert (sim.list_builds, sim.list_reuses) == (2, 1)
    assert _names(spy) == ["list_valid", "wafer_list", *STEP]


def test_skin_zero_never_tests_a_list(spy, ta_potential):
    sim = WseMd(small_slab_state(reps=(5, 5, 2), temperature=100.0),
                ta_potential, skin=0.0)
    sim.step(3)
    sim.compute_energy()
    sim.compute_forces()
    names = _names(spy)
    assert "list_valid" not in names
    assert names.count("wafer_list") == names.count("wafer_density") == 5


@pytest.mark.parametrize("skin", [0.5, 0.0])
def test_the_observables_neither_integrate_nor_count_cycles(
    spy, ta_potential, skin
):
    sim = WseMd(small_slab_state(reps=(5, 5, 2), temperature=100.0),
                ta_potential, skin=skin)
    sim.step(1)
    _names(spy)
    first = "list_valid" if skin else "wafer_list"
    for observable in (sim.compute_energy, sim.compute_forces):
        observable()
        assert _names(spy) == [first, "wafer_density", "wafer_force"]
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
