"""Pluggable compute backends for the hot-path kernels.

The physics modules (:mod:`repro.potentials`, :mod:`repro.md`,
:mod:`repro.core`) describe *what* is computed; the kernels layer owns
*how* the inner loops run.  Each backend is a module exposing the same
seven functions (:data:`KERNEL_FUNCTIONS`): for the reference engine the
cell sweep of a neighbor-list rebuild (``cell_pairs``), four pair
kernels and ``md_step``, which runs its steps with their Verlet list --
list test, list build or prefilter, density, embedding, force and
leap-frog -- in one call, and for the lockstep wafer ``wafer_step``, which runs a whole
step -- list test, list build, both sweeps with the embedding between
them, leap-frog and cycle counter -- in one call on whichever tier is
active:

``numpy``
    The definition: fused vectorized NumPy kernels.  Always available,
    and the explicit control every other tier is measured against.
``native``
    The same kernels as C loops (``native.c``), compiled on first use
    with the system C compiler and loaded through :mod:`ctypes`;
    bitwise equal to ``numpy``.  The default.

A tier is what each core executes, not how atoms are laid out: domain
sharding is an option of :class:`~repro.md.simulation.Simulation`,
whose ranks run the tier their parent had active.  :func:`usable_cpus`
is the one count of CPUs both read: the native tier sizes its sweep
threads by it, the sharded engine its default rank count.

Selection: an explicit :func:`set_backend` call, else
:data:`DEFAULT_BACKEND`.  A backend that is unknown or cannot load — no
compiler, a failed compile, a load-time probe one bit off — degrades to
``numpy`` with **one** warning naming the reason: a missing compiler
never changes whether a simulation runs or what it computes, only how
fast.  Nothing is loaded or compiled until a backend is first asked
for, and never for ``numpy``.
"""

from __future__ import annotations

import os
from importlib import import_module
from types import ModuleType, SimpleNamespace

__all__ = [
    "KERNEL_FUNCTIONS",
    "DEFAULT_BACKEND",
    "FALLBACK_BACKEND",
    "available_backends",
    "register_backend",
    "set_backend",
    "active_backend",
    "active_backend_name",
    "backend_status",
    "usable_cpus",
]

#: The interface every backend provides; one missing is a malformed
#: backend, rejected outright.
KERNEL_FUNCTIONS = (
    "grouped_spline_eval",  # (bank, x, member) -> (value, derivative)
    "neighbor_prefilter",   # candidate distance filter -> (i, j, rij, r)
    "cell_pairs",           # cell plan's half-stencil sweep -> (i, j, n_raw)
    "fused_density_pass",   # half-pair EAM stage 1 -> (rho_bar, d_ji, d_ij)
    "fused_force_pass",     # half-pair EAM stage 2 -> (e_pair, forces)
    "wafer_step",           # a whole wafer step, list test to cycles -> WaferStep
    "md_step",              # reference steps and their list, test to leap-frog -> MdStep
)

#: The fastest bitwise tier; resolves to :data:`FALLBACK_BACKEND` (one
#: warning) on a host where it cannot load.
DEFAULT_BACKEND = "native"
FALLBACK_BACKEND = "numpy"

_loaders: dict[str, object] = {}
_active: ModuleType | SimpleNamespace | None = None
_active_name: str | None = None
#: Why a backend failed to load (a failure is paid for once a process).
_failures: dict[str, str] = {}
_resolved: dict[str, ModuleType | SimpleNamespace] = {}


def _affinity() -> list[int]:
    """The CPUs this process may run on ([] where the platform has no
    affinity mask)."""
    try:
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-linux
        return []


def usable_cpus() -> int:
    """How many CPUs this process may run on: its affinity mask (a
    cpuset can be smaller than the machine), else the machine's count;
    never less than 1."""
    return len(_affinity()) or os.cpu_count() or 1


def register_backend(name: str, loader) -> None:
    """Register ``loader`` (a zero-arg callable returning a module-like
    object with the :data:`KERNEL_FUNCTIONS` attributes) under ``name``."""
    _loaders[name] = loader
    _resolved.pop(name, None)
    _failures.pop(name, None)


def _load(name: str) -> ModuleType | SimpleNamespace | None:
    loader = _loaders.get(name)
    if loader is None or name in _failures:
        return None
    cached = _resolved.get(name)
    if cached is not None:
        return cached
    try:
        backend = loader()
    except ImportError as exc:  # no compiler / failed compile or probe
        _failures[name] = str(exc)
        return None
    missing = [f for f in KERNEL_FUNCTIONS if not hasattr(backend, f)]
    if missing:
        raise TypeError(f"backend {name!r} is missing kernels: {missing}")
    _resolved[name] = backend
    return backend


def available_backends() -> list[str]:
    """Names of the backends that load successfully right now."""
    return [name for name in _loaders if _load(name) is not None]


def backend_status() -> dict[str, str]:
    """Per-backend availability: ``"ok"`` or why it did not load (the
    compiler's complaint, the probe's finding)."""
    return {
        name: "ok" if _load(name) is not None
        else _failures.get(name, "unavailable")
        for name in _loaders
    }


def set_backend(name: str) -> str:
    """Select the active backend; returns the name actually activated.

    Unknown or unavailable names fall back to :data:`FALLBACK_BACKEND`
    with a warning (once per name, :func:`repro.obs.warn_once`): a
    campaign calling ``set_backend`` per run is not spammed —
    performance degrades gracefully, physics never depends on the
    choice.
    """
    from repro.obs import warn_once

    global _active, _active_name
    _active, _active_name = _load(name), name
    if _active is None:
        warn_once(
            name,
            f"kernel backend {name!r} unavailable "
            f"({_failures.get(name, 'not registered')}); "
            f"falling back to {FALLBACK_BACKEND!r}",
        )
        _active, _active_name = _load(FALLBACK_BACKEND), FALLBACK_BACKEND
    return _active_name


def active_backend() -> ModuleType | SimpleNamespace:
    """The active backend (resolving the default on first use)."""
    if _active is None:
        set_backend(DEFAULT_BACKEND)
    return _active


def active_backend_name() -> str:
    """Name of the active backend (resolving on first use)."""
    active_backend()
    return _active_name  # type: ignore[return-value]


def _native_loader():
    from repro.kernels import native_backend

    native_backend.load()  # raises ImportError with the reason
    return native_backend


register_backend(
    "numpy", lambda: import_module("repro.kernels.numpy_backend"))
register_backend("native", _native_loader)
