"""The sharded force pipeline: per-step orchestration over a transport.

Each worker permanently owns its tile: halo-pack positions, types,
owned mask, candidate pairs and the rebuild reference all live
shard-side between steps, so a steady-state timestep is **two**
synchronous lockstep rounds moving only sparse packs — the host
analogue of the paper's neighbor-only fabric traffic, and of its fixed
send-then-compute schedule:

1. **dens** (inside the ``neighbor`` phase) — the parent asks
   :func:`~repro.md.neighbor_list.skin_trigger`, the serial
   NeighborList's own trigger, against the rebuild reference (it owns
   every position, so its global ``max |d|`` is arithmetically *equal*
   to an OR-reduce of per-tile triggers over the covering tile-local
   sets), then
   scatters each tile its cached halo pack (``positions[ids_k]``, one
   ``take`` per rank, the index lists persisting until the next
   rebuild) and runs the ``dens`` command: each tile distance-filters
   and densities its *interior* candidates (owned-owned pairs) and its
   *boundary* candidates (touching a ghost) under the trigger's
   displacement bound riding on the command, and merges the two
   partial sums in pinned interior-then-boundary order.  When the
   trigger trips, a ``rebuild`` round runs instead: a fresh balanced
   :class:`~repro.parallel.domains.DomainGrid` is planned, new pack
   ids are cut, and each tile rebuilds its candidates from its pack
   alone (bit-identical to a global build) — no stale-pack scatter, no
   speculative compute is ever discarded.
2. **force** — the parent reduces the gathered ``rho`` packs by
   scatter-adding them **in fixed rank order** into an owned-region
   accumulator, evaluates the embedding stage, scatters each tile its
   ``F'(rho_bar)`` pack, runs ``force`` (interior pass, boundary pass,
   same pinned merge), and reduces the gathered pair-energy/force
   packs the same way.

The fixed-order pack reduction makes a run bitwise-reproducible for a
given topology — and since every transport delivers the same float64
bits in the same pack layout, bitwise-identical across transports too.
A single tile owns every pair, so ``workers=1`` stays bitwise-serial.
Across topologies the physics agrees to floating-point summation
tolerance, like any domain-decomposed MD code.

Halo accounting: every round's *exposed* communication time — pack
scatter/gather cost plus the slack between the command's wall time and
the slowest worker's compute time — is emitted as a pre-measured
``halo_exchange`` child span inside the enclosing phase, with the
transport's byte deltas as counters.  The bytes are **actual sparse
pack bytes** (per-tile prefix sizes, not ``nbytes x workers``
broadcasts), and the ghost-row share — the part that scales with tile
*boundary* area rather than system size — is tracked separately as
``parallel.halo.bytes_ghost``.  Because the density pass runs inside
the ``neighbor``-phase dens round, its worker seconds are
re-attributed to the ``density`` phase via a pre-measured child span,
keeping the reference taxonomy unchanged.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.md.neighbor_list import count_funnel, skin_trigger
from repro.obs import NULL_TRACER, metrics
from repro.parallel.domains import (
    plan_grid,
    tile_local_ids,
    warn_halo_dominated,
)
from repro.parallel.transport import make_transport

__all__ = ["ShardedForcePipeline"]

_STAGES = ("neighbor", "density", "force")

#: Per-row pack bytes by channel (float64 3-vectors and scalars).
_ROW_BYTES = {
    "positions": 24, "types": 8, "f_der": 8,
    "rho": 8, "epair": 8, "forces": 24,
}


class ShardedForcePipeline:
    """Persistent domain-sharded evaluator for one simulation's forces.

    Construct once per :class:`~repro.md.simulation.Simulation` (the
    construction cost — arena/sockets + worker spawn — is what the
    ``parallel.pool`` phase accounts for) and call :meth:`compute` once
    per force evaluation.  Must be :meth:`close`\\ d to reap the
    workers; an abandoned pipeline is cleaned up by GC/daemon
    semantics.

    ``topology`` is the ``(px, py)`` domain grid; ``None`` picks the
    most nearly square factorization of the worker count (least tile
    boundary, hence least ghost traffic — pass an explicit
    ``(workers, 1)`` for 1D columns).
    ``transport``
    selects how bytes reach the workers (``"shared"``, ``"socket"``,
    ``"inline"``, or ``"auto"``/``None`` — inline virtual workers when
    the host has fewer cores than workers, forked shared memory
    otherwise).  ``skin=0.0`` disables cross-step candidate reuse (a
    rebuild every step).
    """

    def __init__(
        self,
        state,
        potential,
        *,
        skin: float = 0.5,
        workers: int | None = None,
        topology: tuple[int, int] | None = None,
        transport: str | None = None,
    ) -> None:
        n = state.n_atoms
        if topology is not None:
            px, py = int(topology[0]), int(topology[1])
            if px < 1 or py < 1:
                raise ValueError(
                    f"topology must be at least 1x1, got {px}x{py}"
                )
            if workers and workers != px * py:
                raise ValueError(
                    f"workers={workers} conflicts with topology "
                    f"{px}x{py} ({px * py} tiles)"
                )
        else:
            w = max(1, int(workers if workers else (os.cpu_count() or 1)))
            # Most nearly square factorization: least tile perimeter,
            # hence least ghost-row traffic per step.
            py = int(np.sqrt(w))
            while w % py:
                py -= 1
            px = w // py
        self.topology = (px, py)
        self.n_workers = px * py
        self.skin = float(skin)
        self.cutoff = float(potential.cutoff)
        self.reach = self.cutoff + self.skin
        self.n_atoms = n
        self.potential = potential
        self._types = np.asarray(state.types, dtype=np.int64)
        # Tile builds bin at half the reach (radius-2 stencil): the
        # finer grid hugs the reach sphere tighter, cutting the raw
        # candidate stream the build prefilter consumes by ~40%.  Only
        # the enumeration *order* changes — the prefiltered candidate
        # set is identical — so the w=1 bitwise-serial contract pins
        # single-tile runs to the serial radius-1 enumeration.
        self.build_subdivide = 1 if self.n_workers == 1 else 2
        cfg = {
            "potential": potential,
            "box": state.box,
            "cutoff": self.cutoff,
            "reach": self.reach,
            "skin": self.skin,
            "n_atoms": n,
            "build_subdivide": self.build_subdivide,
        }
        self.transport = make_transport(
            transport,
            self.n_workers,
            inputs={
                "positions": ((n, 3), np.float64),
                "types": ((n,), np.int64),
                "f_der": ((n,), np.float64),
            },
            outputs={
                "rho": ((n,), np.float64),
                "epair": ((n,), np.float64),
                "forces": ((n, 3), np.float64),
            },
            cfg=cfg,
        )
        #: cached halo pack index lists, one per tile; valid until the
        #: next rebuild (None = no build yet)
        self._ids: list[np.ndarray] | None = None
        #: the same lists concatenated in rank order — the index vector
        #: the single-pass bincount reductions run over
        self._ids_flat: np.ndarray | None = None
        #: rebuild reference positions for the parent-side skin trigger
        #: (None = no build yet)
        self._ref_positions: np.ndarray | None = None
        self._counts: list[int] = [0] * self.n_workers
        #: owned-region accumulators reused every step (steady-state
        #: steps allocate nothing on the reduction path beyond the
        #: returned force array itself, which the caller keeps)
        self._rho = np.zeros(n)
        self._epair = np.zeros(n)
        self._closed = False
        self.n_builds = 0
        self.last_pair_count = 0
        #: current ghost-row count, sum over tiles of (local - owned) —
        #: the boundary-scaling share of every pack
        self.ghost_atoms = 0
        #: cumulative ghost-row bytes moved (the O(boundary) component
        #: of bytes_sent + bytes_recv)
        self.ghost_bytes = 0
        #: cumulative per-worker seconds per stage (bench telemetry)
        self.shard_seconds: dict[str, list[float]] = {
            s: [0.0] * self.n_workers for s in _STAGES
        }
        #: cumulative exposed halo-exchange seconds (bench telemetry)
        self.halo_seconds = 0.0
        #: grow-only reduction scratch (rank-concatenated pack rows)
        self._concat: dict[str, np.ndarray] = {}
        reg = metrics()
        reg.gauge("parallel.workers").set(float(self.n_workers))
        reg.gauge("parallel.topology.px").set(float(px))
        reg.gauge("parallel.topology.py").set(float(py))

    @property
    def transport_kind(self) -> str:
        return self.transport.kind

    @property
    def halo_bytes(self) -> tuple[int, int]:
        """Cumulative (sent, received) sparse pack bytes over the transport."""
        return self.transport.bytes_sent, self.transport.bytes_recv

    # -- ghost accounting --------------------------------------------------

    def _charge_ghost(self, *channels: str) -> None:
        """Credit the ghost-row share of pack transfers just performed."""
        amount = self.ghost_atoms * sum(_ROW_BYTES[c] for c in channels)
        if amount:
            self.ghost_bytes += amount
            metrics().counter("parallel.halo.bytes_ghost").inc(float(amount))

    # -- the step ----------------------------------------------------------

    def compute(
        self, positions: np.ndarray, tr=NULL_TRACER
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """Energies, forces and step accounting at ``positions``.

        Returns ``(energies, forces, info)`` where ``info`` carries
        ``pairs``, ``rebuilds``, ``t_neighbor`` and ``t_force`` for the
        caller's :class:`~repro.md.simulation.SimStats`.
        """
        if len(positions) != self.n_atoms:
            raise ValueError(
                f"pipeline built for {self.n_atoms} atoms, "
                f"got {len(positions)}"
            )
        reg = metrics()
        t0 = time.perf_counter()
        with tr.phase("neighbor") as ph:
            # The serial list's trigger, asked parent-side (equal to
            # an OR-reduce of per-tile checks — the tile-local sets
            # cover every atom) and resolved before any scatter or
            # round, so a triggered step never ships a stale pack or
            # wastes a pass.
            reason, d_max = skin_trigger(
                positions, self._ref_positions, self.skin
            )
            if reason is not None:
                replies = self._rebuild_round(positions, reason, tr)
                reg.counter("neighbor.rebuilds").inc()
                reg.counter(f"neighbor.rebuilds.{reason}").inc()
                for r in replies:
                    count_funnel(*r[4])
            else:
                # Clean step: scatter the cached packs, run the round.
                # The trigger's displacement bound rides on the command
                # — it upper-bounds every tile's local bound, feeding
                # the shards' bit-neutral cross-step filter cuts
                # without any per-tile displacement pass.
                replies = self._round(
                    "neighbor", ("dens", d_max), tr,
                    {"positions": positions},
                )
                reg.counter("neighbor.reuses").inc()
            n_pairs = int(sum(r[1] for r in replies))
            den_secs = [r[3] for r in replies]
            den_sum = sum(den_secs)
            # The density pass ran inside the dens/rebuild round; hand
            # its worker seconds to the density phase as a pre-measured
            # child so the reference taxonomy stays truthful.
            tr.record("density", den_sum)
            self._account_stage(
                "neighbor", [r[2] - r[3] for r in replies], ph
            )
            ph.add(pairs=n_pairs, rebuilds=0 if reason is None else 1)
        t1 = time.perf_counter()
        with tr.phase("density", pairs=n_pairs) as ph:
            packs = self._gather_round("density", ("rho",), tr)
            self._charge_ghost("rho")
            # Seam reduction: accumulate every tile's pack in fixed
            # rank order — bitwise-reproducible per topology, and
            # elementwise (hence bitwise-serial) for a single tile.
            # bincount over the rank-concatenated id list performs the
            # same additions in the same order as a per-tile
            # scatter-add loop (equal ids sum in order of appearance),
            # just in one pass.
            self._reduce_1d(self._rho, packs["rho"])
            self._account_stage("density", den_secs, ph)
        with tr.phase("embedding"):
            f_val, f_der = self.potential.embed(self._rho, self._types)
        with tr.phase("pair_force", pairs=n_pairs) as ph:
            force_replies = self._round(
                "pair_force", ("force",), tr, {"f_der": f_der}
            )
            packs = self._gather_round(
                "pair_force", ("epair", "forces"), tr
            )
            self._charge_ghost("epair", "forces")
            self._reduce_1d(self._epair, packs["epair"])
            pack = self._concat_packs("forces", packs["forces"])
            forces = np.empty((self.n_atoms, 3))
            for c in range(3):
                forces[:, c] = np.bincount(
                    self._ids_flat, weights=pack[:, c],
                    minlength=self.n_atoms,
                )
            self._account_stage(
                "force", [r[2] for r in force_replies], ph
            )
        t2 = time.perf_counter()
        self.last_pair_count = n_pairs
        reg.counter("parallel.steps").inc()
        reg.counter("parallel.pairs").inc(float(n_pairs))
        info = {
            "pairs": n_pairs,
            "rebuilds": 0 if reason is None else 1,
            "t_neighbor": max(0.0, (t1 - t0) - den_sum),
            "t_force": (t2 - t1) + den_sum,
        }
        return self._epair + f_val, forces, info

    # -- seam reduction ----------------------------------------------------

    def _reduce_1d(self, out: np.ndarray, packs: list) -> None:
        """Fixed-order seam reduction of per-tile scalar packs.

        ``bincount`` over the rank-concatenated ids adds equal-index
        contributions in order of appearance — the identical addition
        sequence a per-tile ``out[ids] += pack`` loop performs, so the
        result is bitwise-equal to the loop (and elementwise for a
        single tile, preserving the ``workers=1`` bitwise-serial
        guarantee).
        """
        out[:] = np.bincount(
            self._ids_flat,
            weights=self._concat_packs("scalar", packs),
            minlength=self.n_atoms,
        )

    def _concat_packs(self, key: str, packs: list) -> np.ndarray:
        """Rank-order concatenation into grow-only scratch.

        Bit-identical to ``np.concatenate`` (same rows, same order);
        the reuse just keeps steady steps off the allocator — pack
        sizes only change on a rebuild.
        """
        total = sum(len(p) for p in packs)
        buf = self._concat.get(key)
        if buf is None or buf.shape[0] < total:
            tail = packs[0].shape[1:] if packs else ()
            buf = np.empty((total, *tail), dtype=np.float64)
            self._concat[key] = buf
        return np.concatenate(packs, axis=0, out=buf[:total])

    # -- rounds ------------------------------------------------------------

    def _rebuild_round(
        self, positions: np.ndarray, reason: str, tr
    ) -> list[tuple]:
        """Plan a fresh grid, cut new halo packs, run the rebuild round."""
        grid = plan_grid(
            positions, self.topology[0], self.topology[1], self.reach
        )
        warn_halo_dominated(
            positions, self.topology[0], self.topology[1], self.reach
        )
        ids = [
            tile_local_ids(positions, grid, t, self.reach)
            for t in range(self.n_workers)
        ]
        parts = [
            (len(ids[t]), grid.tile_bounds(t))
            for t in range(self.n_workers)
        ]
        self._ids = ids
        self._ids_flat = np.concatenate(ids) if ids else np.empty(
            0, dtype=np.int64
        )
        self._ref_positions = np.array(positions, copy=True)
        self._counts = [len(i) for i in ids]
        self.ghost_atoms = int(sum(self._counts)) - self.n_atoms
        metrics().gauge("parallel.ghost_atoms").set(float(self.ghost_atoms))
        self.n_builds += 1
        self.transport.set_counts(self._counts)
        return self._round(
            "neighbor", ("rebuild",), tr,
            {"positions": positions, "types": self._types}, parts=parts,
        )

    def _round(
        self, stage: str, msg: tuple, tr, packs: dict, parts=None
    ) -> list[tuple]:
        """One lockstep round: scatter ``packs``, run ``msg``, account.

        ``packs`` maps channel -> source array; each rank receives its
        cached ``source[ids_k]`` pack before the command.  The round's
        exposed communication time is the pack scatter cost plus the
        command wall time not covered by the slowest worker's compute
        time; it lands as a pre-measured ``halo_exchange`` child span
        of the current phase, with the transport's byte deltas (actual
        pack bytes) attached as counters.
        """
        tp = self.transport
        sent0, recv0 = tp.bytes_sent, tp.bytes_recv
        t0 = time.perf_counter()
        for channel, source in packs.items():
            tp.scatter(channel, source, self._ids)
        self._charge_ghost(*packs)
        t1 = time.perf_counter()
        replies = tp.command(msg, parts)
        wall = time.perf_counter() - t1
        compute = max((r[2] for r in replies), default=0.0)
        exposed = (t1 - t0) + max(0.0, wall - compute)
        self._record_halo(stage, exposed, sent0, recv0, tr)
        return replies

    def _gather_round(self, stage: str, names: tuple, tr) -> dict:
        """Pull result packs; account the gather as halo exchange."""
        tp = self.transport
        sent0, recv0 = tp.bytes_sent, tp.bytes_recv
        t0 = time.perf_counter()
        packs = {name: tp.gather(name) for name in names}
        self._record_halo(
            stage, time.perf_counter() - t0, sent0, recv0, tr
        )
        return packs

    def _record_halo(
        self, stage: str, exposed: float, sent0: int, recv0: int, tr
    ) -> None:
        tp = self.transport
        d_sent = tp.bytes_sent - sent0
        d_recv = tp.bytes_recv - recv0
        tr.record(
            "halo_exchange",
            exposed,
            {"bytes_sent": d_sent, "bytes_recv": d_recv, "stage": stage},
        )
        self.halo_seconds += exposed
        reg = metrics()
        reg.counter("parallel.halo.seconds").inc(exposed)
        reg.counter("parallel.halo.bytes_sent").inc(float(d_sent))
        reg.counter("parallel.halo.bytes_recv").inc(float(d_recv))

    def _account_stage(self, stage: str, secs: list[float], ph) -> None:
        """Attach per-shard timings to the span, metrics and telemetry."""
        total = self.shard_seconds[stage]
        for wid, s in enumerate(secs):
            total[wid] += s
        ph.add(shard_sum_s=sum(secs), shard_max_s=max(secs))
        metrics().histogram(f"parallel.{stage}.shard_s").observe_many(secs)

    def reset_shard_stats(self) -> None:
        """Zero the cumulative shard timings (steady-state benching)."""
        for stage in self.shard_seconds:
            self.shard_seconds[stage] = [0.0] * self.n_workers
        self.halo_seconds = 0.0

    def close(self) -> None:
        """Reap the workers and release the transport (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.transport.close()
