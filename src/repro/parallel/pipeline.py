"""The sharded pipeline: shard-resident stepping over a transport.

Between rebuilds every rank *owns* its tile — positions and velocities
of its local (owned + ghost) rows, types, candidates, the rebuild
reference — and runs the timestep itself; the parent is round clock,
router and observer.  A steady step is **two** synchronous rounds, and
only the partial sums of *seam rows* (rows local to more than one tile)
move, routed holder <-> holder through :meth:`Transport.gather` /
:meth:`Transport.scatter` over index lists cut once per rebuild
(:func:`~repro.parallel.domains.seam_plan`):

1. **force** (``pair_force`` phase) — seam ``rho`` partials are routed;
   each holder reduces them **in ascending rank order from 0.0** (the
   addition sequence the parent's ``bincount`` over the
   rank-concatenated ids used to perform, so every holder gets the same
   bits), embeds its rows and runs the pair-force pass.
2. **move** (``integrate``) — seam pair-energy/force partials are
   routed and reduced the same way; each rank integrates all its local
   rows with the caller's integrator (elementwise: an owned row gets
   the serial bits, a ghost row the very bits its owner computes, so no
   position ever travels), reports the largest squared displacement of
   the rows it owns, and goes straight on to the next step's filter +
   density.  The parent max-reduces the displacements (a maximum of
   maxima over a partition is exact) and puts the result to
   :func:`~repro.md.neighbor_list.displacement_trigger`, the serial
   list's own decision.  When it trips, the density run ahead is
   discarded and a ``rebuild`` round runs: owned positions and
   velocities are pulled, a fresh balanced grid is planned exactly as
   before, every tile is pushed its new pack — with the exit pull, the
   only rounds that move full state.

A plain ``dens`` round serves the evaluations no move precedes.  A
single tile has no seam, so ``workers=1`` stays bitwise-serial; a run
is bitwise-reproducible per topology and identical across transports.

**Authority is decided by value.**  The pipeline keeps the positions
and velocities it last pulled or pushed; :meth:`advance` /
:meth:`compute` push whatever no longer compares equal (a hand edit, a
restore, a thermostat's rescale), so nothing needs a hook and only
users of a parent-side thermostat pay its pull + push per step.

Accounting: a round's *exposed* communication time — routing plus the
slack between the command's wall time and the slowest rank's compute
time — is a pre-measured ``halo_exchange`` child span of the enclosing
phase, with the transport's byte deltas as counters; stages that run
rank-side inside another phase's round (density, embedding, the
look-ahead filter) are pre-measured children too, slowest rank each.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np

from repro.md.neighbor_list import count_funnel, displacement_trigger
from repro.md.simulation import SimStats
from repro.obs import NULL_TRACER, metrics
from repro.parallel.domains import (
    owned_mask_local,
    plan_grid,
    seam_plan,
    tile_local_ids,
    warn_halo_dominated,
)
from repro.parallel.transport import WorkerLost, make_transport, usable_cpus

__all__ = ["ShardedForcePipeline"]

_STAGES = ("neighbor", "density", "force", "integrate")


class ShardedForcePipeline:
    """Persistent domain-sharded stepper for one simulation.

    Construct once per :class:`~repro.md.simulation.Simulation` (the
    cost — arena/sockets + worker spawn — is what the ``parallel.pool``
    phase accounts for); :meth:`advance` runs whole chunks of timesteps
    rank-side, :meth:`compute` evaluates without moving.  Must be
    :meth:`close`\ d to reap the workers (an abandoned pipeline is
    cleaned up by GC/daemon semantics).

    ``topology`` is the ``(px, py)`` domain grid; ``None`` picks the
    most nearly square factorization of the worker count (fewest seam
    rows — pass ``(workers, 1)`` for 1D columns), and ``workers=None``
    means one per usable CPU.  ``transport`` selects the byte mover
    (``"shared"``, ``"socket"``, ``"inline"``, or ``"auto"``/``None``:
    inline when the host has fewer usable CPUs than workers, forked
    shared memory otherwise).  ``skin=0.0`` rebuilds every step.
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
        self.reach = float(potential.cutoff) + self.skin
        self.n_atoms = n
        self._types = np.asarray(state.types, dtype=np.int64)
        cfg = {
            "potential": potential,
            "box": state.box,
            "masses": state.masses,
            "cutoff": float(potential.cutoff),
            "reach": self.reach,
            # Tile builds bin at half the reach (radius-2 stencil): the
            # finer grid hugs the reach sphere tighter, cutting the raw
            # candidate stream the build prefilter consumes by ~40%.
            # Only the enumeration *order* changes — the prefiltered
            # candidate set is identical — so the w=1 bitwise-serial
            # contract pins single-tile runs to the serial radius-1
            # enumeration.
            "build_subdivide": 1 if self.n_workers == 1 else 2,
        }
        # Per-rank capacities: a tile can hold every atom, and a row
        # with w holders is routed w - 1 partials.  Capacity is address
        # space only — pages commit as pack prefixes touch them.
        f8, fan = np.float64, max(1, self.n_workers - 1) * n
        self.transport = make_transport(
            transport,
            self.n_workers,
            inputs={
                "positions": ((n, 3), f8), "velocities": ((n, 3), f8),
                "types": ((n,), np.int64), "rho_in": ((fan,), f8),
                "epair_in": ((fan,), f8), "forces_in": ((fan, 3), f8),
            },
            outputs={
                "rho": ((n,), f8), "epair": ((n,), f8),
                "forces": ((n, 3), f8),
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
        #: until the next rebuild (None = no build yet, or stale ranks)
        self._ids: list[np.ndarray] | None = None
        self._own_ids: list[np.ndarray] = []
        #: the seam plan: rows each rank stages, scatter index lists
        self._seam: tuple[list[int], list[np.ndarray]] = ([], [])
        self._max_d2 = 0.0  # largest squared displacement since the build
        self._d_last = 0.0  # the largest displacement one move earlier
        #: per-rank ``(n_pairs, density_s, filter_s)`` of a density pass
        #: already run at the current positions (None = none in hand)
        self._dens: list[tuple] | None = None
        self._ahead = False  # ranks have moved since the last pull
        self._route_s = 0.0  # routing seconds since the last round
        self._seen = (0, 0)  # transport byte counters at the last round
        self._closed = False
        self.n_builds = 0
        self.rounds = 0
        #: current ghost-row count, sum over tiles of (local - owned)
        self.ghost_atoms = 0
        #: cumulative per-worker seconds per stage (bench telemetry);
        #: ``integrate`` is every reduce, the embedding and the move
        self.shard_seconds: dict[str, list[float]] = {
            s: [0.0] * self.n_workers for s in _STAGES
        }
        #: cumulative exposed halo-exchange seconds (bench telemetry)
        self.halo_seconds = 0.0
        reg = metrics()
        reg.gauge("parallel.workers").set(float(self.n_workers))
        reg.gauge("parallel.topology.px").set(float(px))
        reg.gauge("parallel.topology.py").set(float(py))

    @property
    def transport_kind(self) -> str:
        return self.transport.kind

    @property
    def halo_bytes(self) -> tuple[int, int]:
        """Cumulative (sent, received) pack bytes over the transport."""
        return self.transport.bytes_sent, self.transport.bytes_recv

    # -- the two entry points ----------------------------------------------

    def advance(
        self, state, n_steps: int, integrator, tr=NULL_TRACER,
        *, observe: bool = False,
    ) -> tuple[SimStats, np.ndarray | None, np.ndarray | None]:
        """Run ``n_steps`` timesteps rank-side and pull the result.

        ``state.positions`` / ``.velocities`` are overwritten **only**
        once the exit pull completed: a failed chunk leaves them at
        their last synced values (a lost rank also closes the pipeline;
        any other error marks the ranks stale, so the next call pushes
        the caller's state afresh).  Returns ``(stats, energies,
        forces)`` — what the chunk adds to the caller's
        :class:`~repro.md.simulation.SimStats`, and with ``observe`` the
        last step's per-atom energies and forces (else ``None``).
        """
        stats = SimStats(steps=n_steps)
        names = ("positions", "velocities")
        if observe:
            names += ("energies", "forces")
        with self._guard():
            self._sync(state.positions, state.velocities, tr)
            for _ in range(n_steps):
                with tr.phase("step"):
                    self._evaluate(tr, stats)
                    with tr.phase("integrate"):
                        self._move(integrator, tr, stats)
            t0 = time.perf_counter()
            with tr.phase("integrate"):
                pulled = self._pull(names, tr)
            stats.time_integrate_s += time.perf_counter() - t0
        state.positions[:] = self._pos
        state.velocities[:] = self._vel
        energies, forces = pulled[2:] if observe else (None, None)
        return stats, energies, forces

    def compute(
        self, positions: np.ndarray, tr=NULL_TRACER
    ) -> tuple[np.ndarray, np.ndarray, SimStats]:
        """Energies, forces and accounting (a
        :class:`~repro.md.simulation.SimStats` to add) at ``positions``:
        a step's density, force round and reduction, without the move."""
        stats = SimStats()
        with self._guard():
            self._sync(positions, None, tr)
            self._evaluate(tr, stats)
            t0 = time.perf_counter()
            with tr.phase("pair_force"):
                self._move(None, tr, stats)
                energies, forces = self._pull(("energies", "forces"), tr)
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
            self._ids, self._dens, self._ahead = None, None, False
            raise

    # -- value-based authority ---------------------------------------------

    def _sync(self, positions, velocities, tr) -> None:
        """Push whatever differs from what the ranks were last given."""
        if len(positions) != self.n_atoms:
            raise ValueError(
                f"pipeline built for {self.n_atoms} atoms, "
                f"got {len(positions)}"
            )
        if self._ids is None:  # the rebuild about to run pushes it all
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
            self._max_d2 = float(np.max([r[1] for r in replies]))
            self._account("integrate", [r[0] for r in replies])
            if "positions" in names:
                self._dens = None

    def _pull(self, names: tuple, tr) -> list[np.ndarray]:
        """Gather the named owned-row arrays into global id order."""
        replies = self._command("integrate", ("pull", names), tr)
        self._account("integrate", [r[0] for r in replies])
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
        self._ahead = False
        return out

    # -- the rounds of a step ----------------------------------------------

    def _evaluate(self, tr, stats: SimStats) -> None:
        """A step up to its forces: the density pass (the one the last
        move ran ahead, else a ``dens`` or ``rebuild`` round), then the
        force round."""
        reg = metrics()
        rebuilt, t_dens = 0, 0.0
        t0 = time.perf_counter()
        with tr.phase("neighbor") as ph:
            if self._dens is None:
                if self._ids is None:
                    reason = "first"
                elif self.skin == 0.0:
                    reason = "skin_zero"
                else:
                    reason = displacement_trigger(self._max_d2, self.skin)[0]
                if reason is not None:
                    if self._ahead:
                        self._pull(("positions", "velocities"), tr)
                    replies = self._rebuild_round(tr)
                    reg.counter("neighbor.rebuilds").inc()
                    reg.counter(f"neighbor.rebuilds.{reason}").inc()
                    for r in replies:
                        count_funnel(*r[3])
                    rebuilt = 1
                else:
                    replies = self._command("neighbor", ("dens",), tr)
                self._dens = [(r[1], r[2], r[0] - r[2]) for r in replies]
                t_dens = max(d[1] for d in self._dens)
                tr.record("density", t_dens)
            if not rebuilt:
                reg.counter("neighbor.reuses").inc()
            dens, self._dens = self._dens, None
            n_pairs = int(sum(d[0] for d in dens))
            self._account("density", [d[1] for d in dens])
            self._account("neighbor", [d[2] for d in dens], ph)
            ph.add(pairs=n_pairs, rebuilds=rebuilt)
        t1 = time.perf_counter()
        with tr.phase("pair_force", pairs=n_pairs) as ph:
            self._route(("rho",))
            replies = self._command("pair_force", ("force",), tr)
            emb_secs = [r[1] for r in replies]
            tr.record("embedding", max(emb_secs))
            self._account("integrate", emb_secs)
            self._account("force", [r[0] - r[1] for r in replies], ph)
        stats.force_evaluations += 1
        stats.neighbor_rebuilds += rebuilt
        stats.pairs_last = n_pairs
        stats.pairs_total += n_pairs
        stats.time_neighbor_s += t1 - t0 - t_dens
        stats.time_force_s += time.perf_counter() - t1 + t_dens
        reg.counter("parallel.steps").inc()
        reg.counter("parallel.pairs").inc(float(n_pairs))

    def _move(self, integrator, tr, stats: SimStats) -> None:
        """The move round: reduce energies and forces at every holder,
        integrate, run the next density pass ahead and keep it unless
        the trigger trips (``integrator=None``: reduce only).

        The look-ahead is skipped when the largest displacement,
        extrapolated one step along its last increment, crosses skin/2:
        a rebuild is then the likely next round, and a wrong guess only
        costs a plain ``dens`` round — never a bit.
        """
        t0 = time.perf_counter()
        d_now = math.sqrt(self._max_d2)
        ahead = self.skin > 0.0 and 2.0 * d_now - self._d_last <= self.skin / 2
        self._route(("epair", "forces"))
        replies = self._command(
            "integrate", ("move", integrator, ahead), tr
        )
        wall = time.perf_counter() - t0
        if integrator is None:
            self._account("integrate", [r[0] for r in replies])
            return
        self._ahead = True
        self._d_last = d_now
        self._max_d2 = float(np.max([r[1] for r in replies]))
        self._account("integrate", [r[2] for r in replies])
        if ahead and displacement_trigger(self._max_d2, self.skin)[0] is None:
            self._dens = [(r[3], r[4], r[0] - r[2] - r[4]) for r in replies]
            t_dens, t_filter = (
                max(d[i] for d in self._dens) for i in (1, 2)
            )
            tr.record("neighbor", t_filter)
            tr.record("density", t_dens)
            stats.time_neighbor_s += t_filter
            stats.time_force_s += t_dens
            wall -= t_filter + t_dens
        stats.time_integrate_s += wall

    def _rebuild_round(self, tr) -> list[tuple]:
        """Plan a fresh grid on the pulled state, push every tile its
        pack and seam plan, run the rebuild round."""
        pos, (px, py) = self._pos, self.topology
        grid = plan_grid(pos, px, py, self.reach)
        warn_halo_dominated(pos, px, py, self.reach)
        tiles = range(self.n_workers)
        ids = [tile_local_ids(pos, grid, t, self.reach) for t in tiles]
        bounds = [grid.tile_bounds(t) for t in tiles]
        seam, take, segs = seam_plan(ids, self.n_atoms)
        self._ids = ids
        self._own_ids = [
            i[owned_mask_local(pos, b)[i]] for i, b in zip(ids, bounds)
        ]
        self._seam = ([len(rows) for rows in seam], take)
        self.ghost_atoms = int(sum(len(i) for i in ids)) - self.n_atoms
        metrics().gauge("parallel.ghost_atoms").set(float(self.ghost_atoms))
        self.n_builds += 1
        self._max_d2 = self._d_last = 0.0
        for name, source in (
            ("positions", pos), ("velocities", self._vel),
            ("types", self._types),
        ):
            self.transport.scatter(name, source, ids)
        parts = [(len(ids[t]), bounds[t], seam[t], segs[t]) for t in tiles]
        return self._command("neighbor", ("rebuild",), tr, parts)

    def _route(self, names: tuple) -> None:
        """Move seam partials: gather what each rank staged under each
        name, scatter every rank the rows of the other holders (they
        ride the next command as ``<name>_in``)."""
        t0 = time.perf_counter()
        counts, take = self._seam
        tp = self.transport
        for name in names:
            tp.scatter(
                name + "_in", np.concatenate(tp.gather(name, counts)), take
            )
        self._route_s += time.perf_counter() - t0

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
        reg = metrics()
        reg.counter("parallel.rounds").inc()
        reg.counter("parallel.halo.seconds").inc(exposed)
        reg.counter("parallel.halo.bytes_sent").inc(float(d_sent))
        reg.counter("parallel.halo.bytes_recv").inc(float(d_recv))
        return replies

    def _account(self, stage: str, secs: list[float], ph=None) -> None:
        """Add per-shard seconds to the telemetry (and a span)."""
        total = self.shard_seconds[stage]
        for wid, s in enumerate(secs):
            total[wid] += s
        if ph is not None:
            ph.add(shard_sum_s=sum(secs), shard_max_s=max(secs))

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
