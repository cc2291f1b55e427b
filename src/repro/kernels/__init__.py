"""Pluggable compute backends for the hot-path kernels.

The physics modules (:mod:`repro.potentials`, :mod:`repro.md`) describe
*what* is computed; the kernels layer owns *how* the inner loops run.
Each backend is a module exposing the same kernel interface
(:data:`KERNEL_FUNCTIONS`), so a compiled implementation can slot in
without touching any physics code:

``numpy``
    The baseline: fused vectorized NumPy kernels.  Always available.
``numba``
    JIT-compiled loops via :mod:`numba`.  Optional — when the import
    fails the registry falls back to ``numpy`` and records why.
``parallel``
    The numpy kernels plus the domain-sharded worker-pool force
    pipeline (:mod:`repro.parallel`).  Optional — requires the fork
    start method; unavailable platforms fall back to ``numpy``.

The interface has two tiers.  :data:`CORE_KERNEL_FUNCTIONS` are the
original scatter/spline primitives every backend must provide — a
backend missing one is malformed and rejected outright.
:data:`FUSED_KERNEL_FUNCTIONS` are the whole-pass kernels (neighbor
prefilter, fused EAM density/force passes, grouped-spline batch
evaluation).  A backend may provide any subset of the
fused tier: missing functions are filled per-function from the numpy
baseline, with **one** warning naming exactly which functions degraded
— so an older out-of-tree backend keeps working when the interface
widens, at reduced speed for the passes it lacks.

Selection order: an explicit :func:`set_backend` call, else the
``REPRO_KERNEL_BACKEND`` environment variable, else ``numpy``.  Unknown
or unavailable backends degrade to ``numpy`` with a warning rather than
failing: a missing JIT must never change whether a simulation runs,
only how fast.

JIT backends additionally expose a ``warmup()`` hook;
:func:`warmup_backend` runs it once per process and caches the elapsed
compile time, so benches can pre-pay (and report) JIT latency instead
of polluting the first timed step.
"""

from __future__ import annotations

import os
import time
import warnings
from types import ModuleType, SimpleNamespace

__all__ = [
    "KERNEL_FUNCTIONS",
    "CORE_KERNEL_FUNCTIONS",
    "FUSED_KERNEL_FUNCTIONS",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "available_backends",
    "register_backend",
    "set_backend",
    "active_backend",
    "active_backend_name",
    "backend_status",
    "warmup_backend",
    "reset_warnings",
]

#: The primitives every backend module must provide (the original
#: three-function interface); a backend missing one is rejected.
CORE_KERNEL_FUNCTIONS = (
    "spline_eval",       # (coeffs, k, dx) -> (value, derivative)
    "accumulate_scalar",  # (idx, weights, n) -> (n,) scatter-add
    "accumulate_vec3",   # (idx, vectors, n) -> (n, 3) scatter-add
)

#: Whole-pass fused kernels.  Backends may provide any subset; missing
#: functions degrade per-function to the numpy baseline with a single
#: warning naming them.
FUSED_KERNEL_FUNCTIONS = (
    "grouped_spline_eval",  # (bank, x, member) -> (value, derivative)
    "neighbor_prefilter",   # candidate distance filter -> (i, j, rij, r)
    "fused_density_pass",   # half-pair EAM stage 1 -> (rho_bar, d_ji, d_ij)
    "fused_force_pass",     # half-pair EAM stage 2 -> (e_pair, forces)
)

#: The full interface, in declaration order.
KERNEL_FUNCTIONS = CORE_KERNEL_FUNCTIONS + FUSED_KERNEL_FUNCTIONS

DEFAULT_BACKEND = "numpy"
ENV_VAR = "REPRO_KERNEL_BACKEND"

_loaders: dict[str, object] = {}
_active: ModuleType | SimpleNamespace | None = None
_active_name: str | None = None
_failures: dict[str, str] = {}
#: Resolved backend objects by name (raw module when complete, a
#: namespace with numpy fills when the fused tier is partial).
_resolved: dict[str, ModuleType | SimpleNamespace] = {}
#: Cached ``warmup()`` elapsed seconds per backend name.
_warmups: dict[str, float] = {}
#: Backend names whose fallback warning has already been emitted; a
#: long campaign calling ``set_backend`` per run warns once per name,
#: not once per call.  Long-lived processes (the serve slots) call
#: :func:`reset_warnings` between jobs so one job's degradation does
#: not silence the next job's — and so forked workers, which inherit
#: this set from the parent, do not inherit its suppressions.
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
    _warmups.pop(name, None)


def _resolve(name: str, backend) -> ModuleType | SimpleNamespace:
    """Capability negotiation: fill missing fused kernels from numpy.

    A complete backend is used as-is (``active_backend() is module``
    stays true for numpy).  A backend providing the core tier but only
    part of the fused tier is wrapped in a namespace whose gaps point
    at the numpy implementations; the degradation is reported once,
    naming the functions.
    """
    missing_core = [f for f in CORE_KERNEL_FUNCTIONS if not hasattr(backend, f)]
    if missing_core:
        raise TypeError(f"backend {name!r} is missing kernels: {missing_core}")
    missing = [f for f in FUSED_KERNEL_FUNCTIONS if not hasattr(backend, f)]
    if not missing:
        return backend
    from repro.kernels import numpy_backend

    attrs = {f: getattr(backend, f) for f in KERNEL_FUNCTIONS
             if hasattr(backend, f)}
    for f in missing:
        attrs[f] = getattr(numpy_backend, f)
    attrs["name"] = getattr(backend, "name", name)
    attrs["missing_kernels"] = tuple(missing)
    for extra in ("provides_pipeline", "warmup"):
        if hasattr(backend, extra):
            attrs[extra] = getattr(backend, extra)
    key = f"{name}:partial"
    if key not in _warned_fallbacks:
        _warned_fallbacks.add(key)
        warnings.warn(
            f"kernel backend {name!r} does not provide "
            f"{sorted(missing)}; those kernels fall back to "
            f"{DEFAULT_BACKEND!r} (per-function degradation)",
            RuntimeWarning,
            stacklevel=3,
        )
    return SimpleNamespace(**attrs)


def _load(name: str) -> ModuleType | SimpleNamespace | None:
    loader = _loaders.get(name)
    if loader is None:
        return None
    cached = _resolved.get(name)
    if cached is not None:
        return cached
    try:
        backend = loader()
    except ImportError as exc:  # optional dependency missing
        _failures[name] = str(exc)
        return None
    resolved = _resolve(name, backend)
    _resolved[name] = resolved
    return resolved


def available_backends() -> list[str]:
    """Names of the backends that import successfully right now."""
    return [name for name in _loaders if _load(name) is not None]


def backend_status() -> dict[str, str]:
    """Per-backend availability: ``"ok"`` or the import failure reason."""
    out = {}
    for name in _loaders:
        out[name] = "ok" if _load(name) is not None else _failures.get(
            name, "unavailable"
        )
    return out


def set_backend(name: str) -> str:
    """Select the active backend; returns the name actually activated.

    Unknown or unavailable names fall back to :data:`DEFAULT_BACKEND`
    with a warning — performance degrades gracefully, physics never
    depends on the choice.
    """
    global _active, _active_name
    backend = _load(name)
    if backend is None:
        reason = _failures.get(name, "not registered")
        if name != DEFAULT_BACKEND and name not in _warned_fallbacks:
            _warned_fallbacks.add(name)
            warnings.warn(
                f"kernel backend {name!r} unavailable ({reason}); "
                f"falling back to {DEFAULT_BACKEND!r}",
                RuntimeWarning,
                stacklevel=2,
            )
        backend = _load(DEFAULT_BACKEND)
        name = DEFAULT_BACKEND
        if backend is None:  # pragma: no cover - numpy always present
            raise RuntimeError("default numpy backend failed to load")
    _active = backend
    _active_name = name
    from repro.obs import metrics

    metrics().counter(f"kernels.set_backend.{name}").inc()
    return name


def active_backend() -> ModuleType | SimpleNamespace:
    """The active backend (resolving env/default on first use)."""
    global _active
    if _active is None:
        set_backend(os.environ.get(ENV_VAR, DEFAULT_BACKEND))
    return _active


def active_backend_name() -> str:
    """Name of the active backend (resolving on first use)."""
    active_backend()
    return _active_name  # type: ignore[return-value]


def warmup_backend(name: str | None = None) -> float:
    """Run the backend's one-time ``warmup()`` hook; return its seconds.

    JIT backends compile their kernels here (against
    ``NUMBA_CACHE_DIR`` when set), so the first timed simulation step
    is steady-state.  The elapsed wall time is cached per backend name
    and process — repeated calls return the recorded cost without
    re-running the hook.  Backends without a hook (numpy) cost 0.0.
    """
    if name is None:
        name = active_backend_name()
    cached = _warmups.get(name)
    if cached is not None:
        return cached
    backend = _load(name)
    elapsed = 0.0
    hook = getattr(backend, "warmup", None) if backend is not None else None
    if callable(hook):
        t0 = time.perf_counter()
        hook()
        elapsed = time.perf_counter() - t0
    _warmups[name] = elapsed
    return elapsed


def _numpy_loader():
    from repro.kernels import numpy_backend

    return numpy_backend


def _numba_loader():
    from repro.kernels import numba_backend  # raises ImportError w/o numba

    return numba_backend


def _parallel_loader():
    # raises ImportError when fork is unavailable on the platform
    from repro.kernels import parallel_backend

    return parallel_backend


register_backend("numpy", _numpy_loader)
register_backend("numba", _numba_loader)
register_backend("parallel", _parallel_loader)
