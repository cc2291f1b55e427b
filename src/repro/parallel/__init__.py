"""``repro.parallel``: domain-sharded execution over pluggable transports.

The paper's speedup is spatial decomposition — one atom per PE with a
locality-preserving cell-to-fabric mapping — and its multi-wafer design
has every node own and integrate its atoms and ship only ghost rows.
This package is the host-side analogue, in three layers:

* **Domains** (:mod:`~repro.parallel.domains`): the box is tiled into a
  cell-aligned ``px x py`` :class:`~repro.parallel.domains.DomainGrid`
  of rectangular domains with balanced atom counts and halo regions of
  width cutoff + skin.  Planning only: each tile's pairs are built by
  :func:`repro.md.neighbor_list.build_candidates`, the serial list's
  own builder, whose own-smaller-global-id seam rule keeps the tile
  union bit-identical to the serial candidate set.
* **Transport** (:mod:`~repro.parallel.transport`): one synchronous
  round driver over three byte movers — forked workers on a
  :class:`~repro.parallel.shm.SharedArena`, the same worker protocol
  over loopback TCP sockets, or virtual workers inside the parent —
  and the :class:`~repro.parallel.transport.ShardWorker` that steps a
  tile: filter, density, seam reduction, embedding, forces, leap-frog.
* **Pipeline** (:class:`~repro.parallel.pipeline.ShardedForcePipeline`):
  round clock, router and observer.  It moves only seam-row partial
  sums between the tiles that hold them (reduced at every holder in
  one fixed rank order, so trajectories are bitwise-reproducible per
  topology and bitwise-identical across transports) and touches full
  state only to re-plan the grid and when a chunk of steps returns.

Selection is the kernel-backend tier: ``backend="parallel"`` (or
``REPRO_KERNEL_BACKEND=parallel``) hands the reference engine's atoms to
the pipeline; :func:`unsupported_reason` gates the cases it cannot shard
(periodic boxes, potentials without the fused two-stage split, no
fork), which fall back to the serial path with a once-per-reason
warning.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.parallel.domains import DomainGrid, plan_grid
from repro.parallel.pipeline import ShardedForcePipeline
from repro.parallel.shm import SharedArena
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
    "SharedArena",
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
    "warn_once",
    "reset_warnings",
]

#: Fallback reasons already warned about (once per reason per process,
#: mirroring the kernel registry's once-per-name policy).  Reset via
#: :func:`reset_warnings` in long-lived processes — otherwise one job's
#: fallback permanently silences every later (unrelated) job's, and
#: forked workers inherit the suppression.
_warned_reasons: set[str] = set()


def reset_warnings() -> None:
    """Re-arm the once-per-reason fallback warnings (and the domain
    planner's once-per-shape degenerate-decomposition warnings).

    Called per served job by the serve slot; forked workers that
    inherited a populated cache can call it to hear warnings again.
    """
    from repro.parallel import domains

    _warned_reasons.clear()
    domains._warned_degenerate.clear()


def unsupported_reason(box, potential) -> str | None:
    """Why the sharded pipeline cannot run this workload, or ``None``.

    The pipeline shards fully open boxes (the paper's slab workloads;
    periodic images across domain seams are out of scope) for
    potentials exposing the fused two-stage EAM split.
    """
    if not fork_available():
        return "fork start method unavailable on this platform"
    if np.any(box.periodic):
        return "periodic boundaries are not supported by the sharded pipeline"
    if not hasattr(potential, "fused_density") or not hasattr(
        potential, "fused_pair_force"
    ):
        return (
            "potential lacks the fused density/pair-force stages "
            "(fused_density/fused_pair_force)"
        )
    return None


def warn_fallback(reason: str) -> None:
    """Warn once per distinct reason that parallel fell back to serial."""
    warn_once(
        reason,
        f"parallel pipeline unavailable ({reason}); "
        "running the serial force path",
    )


def warn_once(key: str, message: str) -> None:
    """Emit ``message`` as a RuntimeWarning once per ``key`` per process.

    Shares the :func:`reset_warnings`-cleared cache with the fallback
    warnings, so served jobs (whose scheduler re-arms the caches) hear
    degradations like a core-starved ``transport="auto"`` falling back
    to the inline tier again.
    """
    if key in _warned_reasons:
        return
    _warned_reasons.add(key)
    warnings.warn(message, RuntimeWarning, stacklevel=4)
