"""Pluggable compute backends for the hot-path kernels.

The physics modules (:mod:`repro.potentials`, :mod:`repro.md`,
:mod:`repro.core`) describe *what* is computed; the kernels layer owns
*how* the inner loops run.  Each backend is a module exposing the same
nine functions (:data:`KERNEL_FUNCTIONS`):

``numpy``
    The definition: fused vectorized NumPy kernels.  Always available,
    and the explicit control every other tier is measured against.
``native``
    The same kernels as C loops (``native.c``), compiled on first use
    with the system C compiler and loaded through :mod:`ctypes`;
    bitwise equal to ``numpy``.  The default.
``parallel``
    The default tier's kernels plus the domain-sharded worker-pool
    force pipeline (:mod:`repro.parallel`).  Needs the fork start method.

Selection order: an explicit :func:`set_backend` call, else the
``REPRO_KERNEL_BACKEND`` environment variable, else
:data:`DEFAULT_BACKEND`.  A backend that is unknown or cannot load — no
compiler, a failed compile, a load-time probe one bit off, no fork —
degrades to ``numpy`` with **one** warning naming the reason: a missing
compiler never changes whether a simulation runs or what it computes,
only how fast.  Nothing is loaded or compiled until a backend is first
asked for, and never for ``numpy``.
"""

from __future__ import annotations

import os
import warnings
from importlib import import_module
from types import ModuleType, SimpleNamespace

__all__ = [
    "KERNEL_FUNCTIONS",
    "DEFAULT_BACKEND",
    "FALLBACK_BACKEND",
    "ENV_VAR",
    "available_backends",
    "register_backend",
    "set_backend",
    "active_backend",
    "active_backend_name",
    "backend_status",
    "default_tier",
    "reset_warnings",
]

#: The interface every backend provides; one missing is a malformed
#: backend, rejected outright.
KERNEL_FUNCTIONS = (
    "spline_eval",          # (coeffs, k, dx) -> (value, derivative)
    "accumulate_scalar",    # (idx, weights, n) -> (n,) scatter-add
    "accumulate_vec3",      # (idx, vectors, n) -> (n, 3) scatter-add
    "grouped_spline_eval",  # (bank, x, member) -> (value, derivative)
    "neighbor_prefilter",   # candidate distance filter -> (i, j, rij, r)
    "fused_density_pass",   # half-pair EAM stage 1 -> (rho_bar, d_ji, d_ij)
    "fused_force_pass",     # half-pair EAM stage 2 -> (e_pair, forces)
    "density_chunk",        # wafer density sweep, one chunk -> record
    "force_chunk",          # wafer force sweep over one record
)

#: The fastest bitwise tier; resolves to :data:`FALLBACK_BACKEND` (one
#: warning) on a host where it cannot load.
DEFAULT_BACKEND = "native"
FALLBACK_BACKEND = "numpy"
ENV_VAR = "REPRO_KERNEL_BACKEND"

_loaders: dict[str, object] = {}
_active: ModuleType | SimpleNamespace | None = None
_active_name: str | None = None
#: Why a backend failed to load (a failure is paid for once a process).
_failures: dict[str, str] = {}
_resolved: dict[str, ModuleType | SimpleNamespace] = {}
#: Backend names whose fallback warning has already been emitted: a
#: campaign calling ``set_backend`` per run warns once per name.
_warned_fallbacks: set[str] = set()


def reset_warnings() -> None:
    """Re-arm the once-per-name fallback warnings.

    The warn-once cache is module state: without a reset it suppresses
    warnings for the life of the process *and* across fork, so a
    worker or a served job never hears about degradations that predate
    it.  A serve slot calls this before each job.
    """
    _warned_fallbacks.clear()


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
    except ImportError as exc:  # no compiler / failed probe / no fork
        _failures[name] = str(exc)
        return None
    missing = [f for f in KERNEL_FUNCTIONS if not hasattr(backend, f)]
    if missing:
        raise TypeError(f"backend {name!r} is missing kernels: {missing}")
    _resolved[name] = backend
    return backend


def _load_or_fall_back(name: str, stacklevel: int):
    """``(backend, name actually loaded)``; warns once per failed name."""
    backend = _load(name)
    if backend is not None:
        return backend, name
    if name not in _warned_fallbacks:
        _warned_fallbacks.add(name)
        warnings.warn(
            f"kernel backend {name!r} unavailable "
            f"({_failures.get(name, 'not registered')}); "
            f"falling back to {FALLBACK_BACKEND!r}",
            RuntimeWarning,
            stacklevel=stacklevel,
        )
    return _load(FALLBACK_BACKEND), FALLBACK_BACKEND


def default_tier() -> ModuleType | SimpleNamespace:
    """``native`` when it loads, else ``numpy`` (warned once)."""
    return _load_or_fall_back(DEFAULT_BACKEND, 3)[0]


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
    with a warning — performance degrades gracefully, physics never
    depends on the choice.
    """
    global _active, _active_name
    _active, _active_name = _load_or_fall_back(name, 3)
    from repro.obs import metrics

    metrics().counter(f"kernels.set_backend.{_active_name}").inc()
    return _active_name


def active_backend() -> ModuleType | SimpleNamespace:
    """The active backend (resolving env/default on first use)."""
    if _active is None:
        set_backend(os.environ.get(ENV_VAR, DEFAULT_BACKEND))
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
register_backend(  # ImportError where the fork start method is missing
    "parallel", lambda: import_module("repro.kernels.parallel_backend"))
