"""The ``parallel`` kernel-backend tier.

Selecting ``backend="parallel"`` means two things:

* the in-process kernels are the default tier's (``native`` when it
  loads, else ``numpy`` — bound below, so the library is resolved once,
  in the parent, before any worker is forked), and
* the reference engine's :class:`~repro.md.simulation.Simulation`
  hands its atoms to the domain-sharded
  :class:`~repro.parallel.pipeline.ShardedForcePipeline`
  (``provides_pipeline``), laid out by ``RunSpec.workers`` /
  ``topology`` / ``transport``: shard workers step them — forces,
  seam reduction, embedding, leap-frog — on the same default tier.

Importing this module raises :class:`ImportError` where the platform
cannot host the worker pool (no fork start method): the registry's
once-per-name fallback to ``numpy``, exactly like a missing compiler.
"""

from __future__ import annotations

from repro.kernels import KERNEL_FUNCTIONS, default_tier
from repro.parallel import fork_available

if not fork_available():  # pragma: no cover - platform-dependent
    raise ImportError(
        "parallel backend requires the fork start method "
        "(unavailable on this platform)"
    )

_tier = default_tier()
globals().update({fn: getattr(_tier, fn) for fn in KERNEL_FUNCTIONS})
serial_tier = _tier.name  # what a shard worker activates
compile_s = getattr(_tier, "compile_s", 0.0)

#: Simulation checks this flag to hand its atoms to the sharded pipeline.
provides_pipeline = True
