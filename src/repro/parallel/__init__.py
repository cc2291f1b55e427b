"""``repro.parallel``: domain-sharded execution over pluggable transports.

The paper's speedup is spatial decomposition — one atom per PE with a
locality-preserving cell-to-fabric mapping — and its multi-wafer design
has every node run the same program on the atoms it owns and ship only
ghost rows.  This package is the host-side analogue, in three layers:

* **Domains** (:mod:`~repro.parallel.domains`): the box is tiled into a
  cell-aligned ``px x py`` :class:`~repro.parallel.domains.DomainGrid`
  of rectangular domains with balanced atom counts; each tile holds its
  owned rows plus a ghost shell ``2 * cutoff + skin`` deep, and
  :func:`~repro.parallel.domains.export_plan` says which owner each
  ghost row comes from.  Planning only.
* **Transport** (:mod:`~repro.parallel.transport`): one synchronous
  round driver over three byte movers — forked workers on anonymous
  shared mappings made before the fork, the same worker protocol over
  loopback TCP sockets, or virtual workers inside the parent —
  and the :class:`~repro.parallel.transport.ShardWorker` that steps a
  tile: a plain :class:`~repro.md.simulation.Simulation`, one
  ``run(1)`` a step.
* **Pipeline** (:class:`~repro.parallel.pipeline.ShardedForcePipeline`):
  round clock, router and observer.  A steady step is one round that
  moves only ghost rows' positions, each from its owner, so
  trajectories are bitwise-reproducible per topology and
  bitwise-identical across transports; it touches full state only to
  re-plan the grid and when a chunk of steps returns.

Selection is an engine option, not a kernel tier: a ``Simulation``
given ``workers`` or ``topology`` (``RunSpec(backend="parallel")``)
hands its atoms to the pipeline, whose ranks run the parent's tier;
:func:`unsupported_reason` gates the cases it cannot shard (periodic
boxes, no fork), which fall back to the serial path with a
once-per-reason warning.
"""

from __future__ import annotations

import numpy as np

from repro.obs import warn_once
from repro.parallel.domains import DomainGrid, plan_grid
from repro.parallel.pipeline import ShardedForcePipeline
from repro.parallel.transport import (
    TRANSPORTS,
    ForkMover,
    InlineMover,
    ShardWorker,
    SocketMover,
    Transport,
    WorkerLost,
    fork_available,
    make_transport,
    resolve_transport,
    usable_cpus,
)

__all__ = [
    "ShardedForcePipeline",
    "DomainGrid",
    "plan_grid",
    "ForkMover",
    "InlineMover",
    "ShardWorker",
    "SocketMover",
    "Transport",
    "WorkerLost",
    "make_transport",
    "resolve_transport",
    "TRANSPORTS",
    "fork_available",
    "usable_cpus",
    "unsupported_reason",
    "warn_fallback",
]


def unsupported_reason(box, potential) -> str | None:
    """Why the sharded pipeline cannot run this workload, or ``None``.

    The pipeline shards fully open boxes (the paper's slab workloads;
    periodic images across domain seams are out of scope).  A rank is a
    plain :class:`~repro.md.simulation.Simulation`, so any potential
    the serial engine steps, a rank steps.
    """
    if not fork_available():
        return "fork start method unavailable on this platform"
    if np.any(box.periodic):
        return "periodic boundaries are not supported by the sharded pipeline"
    return None


def warn_fallback(reason: str) -> None:
    """Warn once per distinct reason (:func:`repro.obs.warn_once`) that
    parallel fell back to serial."""
    warn_once(
        reason,
        f"parallel pipeline unavailable ({reason}); "
        "running the serial force path",
    )
