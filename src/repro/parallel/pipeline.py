"""The sharded pipeline: every rank runs the serial engine on its tile.

Between plans every rank *owns* its tile — positions and velocities of
its local rows (owned rows plus a ghost shell ``2 * cutoff + skin``
deep) stepped by a plain :class:`~repro.md.simulation.Simulation` —
and the parent is round clock, router and observer.  A steady step is
**one** synchronous round, and only ghost rows' positions move, each
from its owner (:func:`~repro.parallel.domains.export_plan`, cut once
per plan):

* the parent routes the rows each rank staged last step to the tiles
  that hold them as ghosts (:meth:`Transport.gather` /
  :meth:`Transport.scatter`);
* each rank writes its ghosts, runs ``run(1)`` — one ``md_step`` call
  of exactly one step, so a ghost's inexact move never reaches a pair
  test — stages its exported rows, and replies with its owned rows'
  largest squared displacement since the plan and the call's stage
  seconds.

The parent max-reduces the displacements (a maximum of maxima over a
partition is exact) and puts the result to
:func:`~repro.md.neighbor_list.displacement_trigger`, the serial list's
own decision.  When it trips, owned positions and velocities are
pulled, a fresh balanced grid is planned and every tile is pushed its
new pack — with the exit pull, the only rounds that move full state —
so a rank's list builds land on the serial engine's steps.  Energy
queries run each rank's ``Simulation.compute_forces`` and pull the
owned rows.  A single tile has no ghosts, so ``workers=1`` stays
bitwise-serial; a run is bitwise-reproducible per topology and
identical across transports.

**Authority is decided by value.**  The pipeline keeps the positions
and velocities it last pulled or pushed; :meth:`advance` /
:meth:`compute` push whatever no longer compares equal (a hand edit, a
restore, a thermostat's rescale), so nothing needs a hook and only
users of a parent-side thermostat pay its pull + push per step.

Accounting: a round's *exposed* communication time — routing plus the
slack between the command's wall time and the slowest rank's compute
time — is a pre-measured ``halo_exchange`` child span of the enclosing
phase, with the transport's byte deltas as counters; the ranks' phases
are pre-measured children too, slowest rank each.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from repro.md.neighbor_list import displacement_trigger
from repro.md.simulation import SimStats
from repro.obs import NULL_TRACER
from repro.parallel.domains import (
    export_plan,
    owned_mask_local,
    plan_grid,
    tile_local_ids,
    warn_halo_dominated,
)
from repro.parallel.transport import (
    PHASES,
    WorkerLost,
    make_transport,
    usable_cpus,
)

__all__ = ["ShardedForcePipeline"]

_STAGES = ("neighbor", "density", "force", "integrate")


class ShardedForcePipeline:
    """Persistent domain-sharded stepper for one simulation.

    Construct once per :class:`~repro.md.simulation.Simulation` (the
    cost — shared mappings/sockets + worker spawn — is what the
    ``parallel.pool`` phase accounts for); :meth:`advance` runs whole
    chunks of timesteps rank-side, :meth:`compute` evaluates without
    moving.  Call
    :meth:`close` to reap the workers (an abandoned pipeline is
    cleaned up by GC/daemon semantics).

    ``topology`` is the ``(px, py)`` domain grid; ``None`` picks the
    most nearly square factorization of the worker count (fewest ghost
    rows — pass ``(workers, 1)`` for 1D columns), and ``workers=None``
    means one per usable CPU.  ``transport`` selects the byte mover
    (``"shared"``, ``"socket"``, ``"inline"``, or ``"auto"``/``None``:
    inline when the host has fewer usable CPUs than workers, forked
    shared memory otherwise).  ``skin=0.0`` re-plans every step.
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
            w = max(1, int(workers if workers else usable_cpus()))
            py = int(np.sqrt(w))
            while w % py:
                py -= 1
            px = w // py
        self.topology = (px, py)
        self.n_workers = px * py
        self.skin = float(skin)
        cutoff = float(potential.cutoff)
        #: the width the grid's edges align to: the cells a rank bins at
        self.reach = cutoff + self.skin
        #: the ghost shell's depth: while no atom has moved skin/2 since
        #: the plan, every partner of an owned row's density partners
        #: lies within 2 * cutoff of it now, so within this of it then
        self.depth = 2.0 * cutoff + self.skin
        self.n_atoms = n
        self._types = np.asarray(state.types, dtype=np.int64)
        cfg = {
            "potential": potential,
            "box": state.box,
            "masses": state.masses,
            "skin": self.skin,
        }
        # Per-rank capacities: a tile can hold every atom.  Capacity is
        # address space only — pages commit as pack prefixes touch them.
        f8 = np.float64
        self.transport = make_transport(
            transport,
            self.n_workers,
            inputs={
                "positions": ((n, 3), f8), "velocities": ((n, 3), f8),
                "types": ((n,), np.int64), "ghosts": ((n, 3), f8),
            },
            outputs={
                "exports": ((n, 3), f8),
                "own_positions": ((n, 3), f8),
                "own_velocities": ((n, 3), f8),
                "own_energies": ((n,), f8), "own_forces": ((n, 3), f8),
            },
            cfg=cfg,
        )
        #: the state as last pulled from or pushed to the ranks — what
        #: the next call's arrays are compared against, by value
        self._pos: np.ndarray | None = None
        self._vel = np.array(state.velocities, dtype=f8)
        #: local (owned + ghost) and owned global ids per tile, valid
        #: until the next plan (None = no plan yet, or stale ranks)
        self._ids: list[np.ndarray] | None = None
        self._own_ids: list[np.ndarray] = []
        #: the export plan: rows each rank stages, scatter index lists
        self._exports: tuple[list[int], list[np.ndarray]] = ([], [])
        self._stale = False  # ranks' ghosts lag the rows they staged
        self._ahead = False  # ranks have moved since the last pull
        self._max_d2 = 0.0  # largest squared displacement since the plan
        self._route_s = 0.0  # routing seconds since the last round
        self._seen = (0, 0)  # transport byte counters at the last round
        self._closed = False
        self.n_builds = 0
        self.rounds = 0
        #: current ghost-row count, sum over tiles of (local - owned)
        self.ghost_atoms = 0
        #: cumulative per-worker seconds per stage of the ranks'
        #: ``Simulation`` calls (bench telemetry); ``integrate`` holds
        #: the glue around the kernel phases too
        self.shard_seconds: dict[str, list[float]] = {
            s: [0.0] * self.n_workers for s in _STAGES
        }
        #: cumulative exposed halo-exchange seconds (bench telemetry)
        self.halo_seconds = 0.0

    @property
    def transport_kind(self) -> str:
        return self.transport.kind

    @property
    def halo_bytes(self) -> tuple[int, int]:
        """Cumulative (sent, received) pack bytes over the transport."""
        return self.transport.bytes_sent, self.transport.bytes_recv

    # -- the two entry points ----------------------------------------------

    def advance(
        self, state, n_steps: int, integrator, tr=NULL_TRACER
    ) -> SimStats:
        """Run ``n_steps`` timesteps rank-side and pull the result.

        ``state.positions`` / ``.velocities`` are overwritten **only**
        once the exit pull completed: a failed chunk leaves them at
        their last synced values (a lost rank also closes the pipeline;
        any other error marks the ranks stale, so the next call pushes
        the caller's state afresh).  Returns what the chunk adds to the
        caller's :class:`~repro.md.simulation.SimStats`; energies and
        forces are :meth:`compute`'s to pull.
        """
        stats = SimStats(steps=n_steps)
        with self._guard():
            self._sync(state.positions, state.velocities, tr)
            for _ in range(n_steps):
                with tr.phase("step"):
                    self._plan_if_due(tr, stats)
                    replies = self._round(("step", integrator), tr, stats)
                    self._max_d2 = max(r[3] for r in replies)
                    self._ahead = True
            t0 = time.perf_counter()
            with tr.phase("integrate"):
                self._pull(("positions", "velocities"), tr)
            stats.time_integrate_s += time.perf_counter() - t0
        state.positions[:] = self._pos
        state.velocities[:] = self._vel
        return stats

    def compute(
        self, positions: np.ndarray, tr=NULL_TRACER
    ) -> tuple[np.ndarray, np.ndarray, SimStats]:
        """Energies, forces and accounting (a
        :class:`~repro.md.simulation.SimStats` to add) at ``positions``:
        every rank's ``compute_forces``, its owned rows gathered."""
        stats = SimStats()
        with self._guard():
            self._sync(positions, None, tr)
            with tr.phase("pair_force"):
                self._plan_if_due(tr, stats)
                self._round(("forces",), tr, stats)
                t0 = time.perf_counter()
                energies, forces = self._gather(("energies", "forces"))
                stats.time_force_s += time.perf_counter() - t0
        return energies, forces, stats

    @contextmanager
    def _guard(self):
        """Error policy of an entry point (see :meth:`advance`)."""
        if self._closed:
            raise RuntimeError("the sharded pipeline is closed")
        try:
            yield
        except WorkerLost:
            self.close()
            raise
        except Exception:
            # ranks may be mid-step: the next call starts them afresh
            self._ids, self._ahead = None, False
            raise

    # -- value-based authority ---------------------------------------------

    def _sync(self, positions, velocities, tr) -> None:
        """Push whatever differs from what the ranks were last given."""
        if len(positions) != self.n_atoms:
            raise ValueError(
                f"pipeline built for {self.n_atoms} atoms, "
                f"got {len(positions)}"
            )
        if self._ids is None:  # the plan about to run pushes it all
            self._pos = np.array(positions, dtype=np.float64)
            if velocities is not None:
                self._vel[:] = velocities
            return
        names = []
        for name, mine, theirs in (
            ("positions", self._pos, positions),
            ("velocities", self._vel, velocities),
        ):
            if theirs is not None and not np.array_equal(theirs, mine):
                mine[:] = theirs
                self.transport.scatter(name, mine, self._ids)
                names.append(name)
        if names:
            replies = self._command("neighbor", ("push", tuple(names)), tr)
            self._max_d2 = max(r[1] for r in replies)
            self._account({"integrate": [r[0] for r in replies]})
            if "positions" in names:  # every local row is exact again
                self._stale = False

    def _pull(self, names: tuple, tr) -> None:
        """Pull the owned rows' positions / velocities into the state."""
        replies = self._command("integrate", ("pull", names), tr)
        self._account({"integrate": [r[0] for r in replies]})
        self._gather(names)
        self._ahead = False

    def _gather(self, names: tuple) -> list[np.ndarray]:
        """The named owned-row arrays the ranks staged, in global id
        order (positions and velocities land in the pipeline's own)."""
        own = np.concatenate(self._own_ids)
        counts = [len(i) for i in self._own_ids]
        out = []
        for name in names:
            packs = self.transport.gather("own_" + name, counts)
            dest = {"positions": self._pos, "velocities": self._vel}.get(name)
            if dest is None:
                dest = np.zeros((self.n_atoms, *packs[0].shape[1:]))
            dest[own] = np.concatenate(packs)
            out.append(dest)
        return out

    # -- the rounds of a step ----------------------------------------------

    def _plan_if_due(self, tr, stats: SimStats) -> None:
        """Re-plan where the serial list would rebuild: no plan yet,
        skin 0, or a displacement over skin/2."""
        if self._ids is None:
            reason = "first"
        elif self.skin == 0.0:
            reason = "skin_zero"
        else:
            reason = displacement_trigger(self._max_d2, self.skin)[0]
        if reason is None:
            return
        t0 = time.perf_counter()
        with tr.phase("neighbor"):
            if self._ahead:
                self._pull(("positions", "velocities"), tr)
            self._plan(tr)
        stats.neighbor_rebuilds += 1
        stats.time_neighbor_s += time.perf_counter() - t0

    def _plan(self, tr) -> None:
        """Plan a fresh grid on the pulled state and push every tile its
        pack and export plan."""
        pos, (px, py) = self._pos, self.topology
        if not np.isfinite(pos).all():
            raise FloatingPointError("non-finite positions in cell-list build")
        grid = plan_grid(pos, px, py, self.reach)
        warn_halo_dominated(pos, px, py, self.depth)
        tiles = range(self.n_workers)
        ids = [tile_local_ids(pos, grid, t, self.depth) for t in tiles]
        owned = [owned_mask_local(pos[i], grid.tile_bounds(t))
                 for t, i in zip(tiles, ids)]
        ghosts, exports, take = export_plan(ids, owned, self.n_atoms)
        self._ids = ids
        self._own_ids = [i[m] for i, m in zip(ids, owned)]
        self._exports = ([len(e) for e in exports], take)
        self.ghost_atoms = int(sum(len(g) for g in ghosts))
        self.n_builds += 1
        self._max_d2 = 0.0
        self._stale = False
        for name, source in (
            ("positions", pos), ("velocities", self._vel),
            ("types", self._types),
        ):
            self.transport.scatter(name, source, ids)
        parts = [(len(ids[t]), ghosts[t], exports[t]) for t in tiles]
        replies = self._command("neighbor", ("plan",), tr, parts)
        self._account({"neighbor": [r[0] for r in replies]})

    def _round(self, msg: tuple, tr, stats: SimStats) -> list[tuple]:
        """One ``step`` / ``forces`` round: route the ghost rows the
        ranks staged, run the command, account its stages."""
        t0 = time.perf_counter()
        fresh = self._stale
        if fresh:
            counts, take = self._exports
            tp = self.transport
            tp.scatter(
                "ghosts", np.concatenate(tp.gather("exports", counts)), take
            )
            self._route_s += time.perf_counter() - t0
        replies = self._command(
            "integrate" if msg[0] == "step" else "pair_force",
            msg + (fresh,), tr,
        )
        self._stale = msg[0] == "step"
        wall = time.perf_counter() - t0
        phases = np.array([r[1] for r in replies])  # (rank, phase)
        neighbor, density, embedding, pair_force, integrate = phases.T
        self._account({
            "neighbor": neighbor, "density": density,
            "force": embedding + pair_force, "integrate": integrate,
        })
        slow = phases.max(axis=0).tolist()
        for name, seconds in zip(PHASES, slow):
            tr.record(name, seconds)
        pairs = 0
        for r in replies:
            rank = r[2]
            stats.add_funnel(
                (rank.raw_candidates, rank.coarse_kept, rank.exact_kept)
            )
            pairs += rank.pairs_last
        stats.force_evaluations += 1
        stats.pairs_last = pairs
        stats.pairs_total += pairs
        stats.time_neighbor_s += slow[0]
        stats.time_force_s += slow[1] + slow[2] + slow[3]
        stats.time_integrate_s += max(0.0, wall - sum(slow[:4]))
        return replies

    def _command(self, stage: str, msg: tuple, tr, parts=None) -> list[tuple]:
        """One lockstep round, its exposed time accounted as halo exchange.

        Exposed = the routing done since the previous round plus the
        command wall time not covered by the slowest rank's compute
        time; it lands as a pre-measured ``halo_exchange`` child span of
        the current phase, with the transport's byte deltas since the
        previous round attached as counters.
        """
        tp = self.transport
        t0 = time.perf_counter()
        replies = tp.command(msg, parts)
        wall = time.perf_counter() - t0
        exposed = self._route_s + max(0.0, wall - max(r[0] for r in replies))
        self._route_s = 0.0
        self.rounds += 1
        self.halo_seconds += exposed
        sent, recv = tp.bytes_sent, tp.bytes_recv
        d_sent, d_recv = sent - self._seen[0], recv - self._seen[1]
        self._seen = (sent, recv)
        tr.record(
            "halo_exchange", exposed,
            {"bytes_sent": d_sent, "bytes_recv": d_recv, "stage": stage},
        )
        return replies

    def _account(self, secs: dict) -> None:
        """Add per-shard seconds to the telemetry, stage by stage."""
        for stage, per_rank in secs.items():
            total = self.shard_seconds[stage]
            for wid, s in enumerate(per_rank):
                total[wid] += float(s)

    def reset_shard_stats(self) -> None:
        """Zero the cumulative shard timings (steady-state benching)."""
        for stage in self.shard_seconds:
            self.shard_seconds[stage] = [0.0] * self.n_workers
        self.halo_seconds = 0.0
        self.rounds = 0

    def close(self) -> None:
        """Reap the workers and release the transport (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.transport.close()
