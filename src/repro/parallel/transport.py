"""One round driver over three byte movers: how packs reach the shards.

The sharded force pipeline moves *sparse halo packs*, never full
arrays, in fixed synchronous rounds — every rank is sent its pack and
one command, then every rank computes, then every reply is drained —
the host analogue of the paper's lockstep neighbourhood exchange.
This module splits that into two layers so the decomposition logic
never knows how bytes travel:

* :class:`Transport` — the **round driver**, the only parent-side
  protocol code.  :meth:`~Transport.scatter` stages, per rank, only
  the rows a tile's halo region needs (``source[ids[k]]``, one
  ``np.take`` into that rank's reused input buffer; the id lists are
  the pipeline's cached pack indices, recomputed only on a candidate
  rebuild).  :meth:`~Transport.command` sends one small message
  (optionally extended with a per-rank part) to every rank and blocks
  for every reply, in rank order; :meth:`~Transport.post` /
  :meth:`~Transport.collect` are its two halves.  Replies are
  ``(flag, n_pairs, seconds, density_seconds)`` tails.  Every rank is
  drained before anything is raised: a worker-reported error re-raises
  in the parent by exception name (unknown names as ``RuntimeError``
  with the name kept in the text), a rank that died — on the send or
  the receive side — as a typed :class:`WorkerLost`; the lowest failing
  rank wins.  :meth:`~Transport.gather` returns each rank's staged
  output prefix (partial density, pair energy, forces over its local
  atoms), which the parent scatter-adds **in fixed rank order** (the
  seam reduction), so a trajectory is bitwise-reproducible per
  topology — and, because every mover delivers identical float64 bits
  in identical pack layouts, bitwise-identical *across* movers too.
* a **byte mover** — only how a staged pack and a message reach rank
  ``k`` and come back: ``inputs`` (the per-rank buffers the driver
  stages into), ``send(rank, msg, packs)``, ``recv(rank)``,
  ``fetch(rank, name, n)`` and ``close()``.  Three exist:
  :class:`ForkMover` ("shared": forked workers inherit a
  :class:`~repro.parallel.shm.SharedArena` with one
  ``(n_workers, capacity, ...)`` row-per-rank array per channel, the
  input buffers *are* the arena rows, messages ride a pipe — zero
  copies beyond the pack itself), :class:`SocketMover` ("socket": the
  same worker protocol over loopback TCP, packs pickled onto the
  command and the reply) and :class:`InlineMover` ("inline": virtual
  workers inside the parent, :meth:`ShardWorker.handle` called
  directly).

Each mover has a matching thin worker-side channel
(``get``/``put``/``recv``/``send``) under the transport-agnostic
:class:`ShardWorker` / :func:`worker_loop`.

``bytes_sent``/``bytes_recv`` count the *actual pack prefix bytes* —
charged when a pack is scattered and when a gathered pack is consumed —
so halo-traffic numbers are real sparse volumes and are identical
across movers by construction.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np

from repro.parallel.shm import SharedArena

__all__ = [
    "Transport",
    "WorkerLost",
    "ShardWorker",
    "ForkMover",
    "SocketMover",
    "InlineMover",
    "make_transport",
    "resolve_transport",
    "fork_available",
    "worker_loop",
    "TRANSPORTS",
]

TRANSPORTS = ("shared", "socket", "inline")

#: Seconds to wait for a worker to exit before terminating it.
_REAP_TIMEOUT_S = 5.0

#: Exception types a worker may re-raise by name in the parent, so the
#: parallel path surfaces the same error classes the serial path does
#: (e.g. the pair-distance cap's FloatingPointError on atom overlap).
_RERAISABLE = {
    "FloatingPointError": FloatingPointError,
    "ValueError": ValueError,
    "RuntimeError": RuntimeError,
}


class WorkerLost(RuntimeError):
    """A shard worker process died (its pipe or socket went away)."""


def fork_available() -> bool:
    """Whether this platform supports the fork start method."""
    return "fork" in multiprocessing.get_all_start_methods()


# -- the worker protocol (transport-independent) ---------------------------


class ShardWorker:
    """One tile's persistent protocol state machine.

    The worker owns its tile across steps: halo-pack positions, types,
    the owned-region mask and the local-index candidate list (with its
    build-time separations) all persist between commands, so a
    steady-state step moves only the pack and the results.  The Verlet
    skin trigger itself is evaluated parent-side (the parent owns every
    position, so its global check equals the OR over the covering tile
    sets exactly); by the time a ``dens`` command arrives, the
    candidates are guaranteed fresh.

    The candidate list is held as two
    :class:`~repro.md.neighbor_list.Candidates`, the **interior/boundary
    split** of what :func:`~repro.md.neighbor_list.build_candidates`
    builds from the pack: interior candidates touch only owned rows —
    their separations never read a ghost row — boundary candidates
    touch a ghost.  Each class runs its own filter + kernel pass and the
    per-atom results merge as whole partial sums in a pinned order
    (``interior + boundary``) — that order *is* the summation order
    every multi-tile digest depends on — and a round with an empty
    class skips the merge outright: a single-tile run (no ghosts, empty
    boundary) therefore computes the exact unsplit bits, preserving the
    ``w=1`` bitwise-serial contract.

    * ``("dens", max_disp)`` — read the position pack and
      distance-filter the candidates under the parent's global
      displacement bound (a valid upper bound for every tile, already
      in hand from the skin trigger): the bound either proves every
      candidate is still inside the cutoff (the filter skips its mask
      and compaction outright) or pre-masks candidates provably still
      out of range.  Run the interior then the boundary density pass,
      merge, stage the local ``rho`` pack.
    * ``("rebuild", n_local, bounds)`` — read a freshly planned pack
      (positions + types), recompute the owned mask from the tile
      bounds, rebuild the local candidates under the seam rule and
      split them at the seam, then filter + density as above.
    * ``("force",)`` — read the ``f_der`` pack, run the pair-force pass
      over the cached interior and boundary pairs, merge, stage
      ``epair``/``forces``.

    :meth:`handle` returns ``("ok", flag, n_pairs, seconds,
    density_seconds)`` replies (or ``("error", type, text)``); a
    rebuild reply carries the build's ``(raw, coarse_kept,
    exact_kept)`` candidate funnel as a trailing element.  The compute
    body is identical under every mover — forked, socket *and* inline —
    which is what makes cross-transport trajectories bitwise-equal.

    ``switch_backend=False`` skips the process-global kernel-backend
    switch: the inline mover runs workers inside the parent process,
    whose active backend (the ``parallel`` backend binds the default
    tier's kernels) already evaluates the identical arithmetic.
    """

    def __init__(self, channel, cfg: dict, *, switch_backend: bool = True):
        from repro.md.cell_list import CellList

        if switch_backend:
            from repro.kernels import active_backend, set_backend

            # "parallel" only means "drive workers from the parent":
            # a worker's inner loops run the serial tier it binds (any
            # other active backend is serial already, and inherited).
            serial = getattr(active_backend(), "serial_tier", None)
            if serial is not None:
                set_backend(serial)
        self.channel = channel
        self.potential = cfg["potential"]
        self.cutoff = cfg["cutoff"]
        # knows the box and the reach; buffers reused across rebuilds
        self.cells = CellList(
            cfg["box"], cfg["reach"],
            subdivide=cfg.get("build_subdivide", 1),
        )
        self.n_local = 0
        self.types_l = None
        self.cand_int = None  # interior candidates (owned-owned)
        self.cand_bnd = None  # boundary candidates (touching a ghost)
        self.table_int = None
        self.table_bnd = None
        self.cache_int: dict = {}
        self.cache_bnd: dict = {}
        self.positions = None  # current pack (persists dens -> force)
        self.d_max = 0.0  # parent's displacement bound since the rebuild

    def _two_phase_density(self, t0: float) -> tuple:
        """Interior filter + density, boundary filter + density, merge."""
        pos, box = self.positions, self.cells.box
        self.table_int = self.cand_int.pairs(
            pos, box, self.cutoff, max_disp=self.d_max
        )
        td = time.perf_counter()
        rho_int, self.cache_int = self.potential.fused_density(
            self.n_local, self.table_int, self.types_l
        )
        t_dens = time.perf_counter() - td
        self.table_bnd = self.cand_bnd.pairs(
            pos, box, self.cutoff, max_disp=self.d_max
        )
        td = time.perf_counter()
        if self.table_bnd.n_pairs:
            rho_bnd, self.cache_bnd = self.potential.fused_density(
                self.n_local, self.table_bnd, self.types_l
            )
            # pinned merge order: interior partial + boundary partial;
            # an empty class skips the merge so the populated class's
            # bits pass through untouched (the w=1 exactness hinge)
            if self.table_int.n_pairs:
                rho = np.add(rho_int, rho_bnd, out=rho_int)
            else:
                rho = rho_bnd
        else:
            self.cache_bnd = {}
            rho = rho_int
        t_dens += time.perf_counter() - td
        self.channel.put("rho", rho)
        n_pairs = self.table_int.n_pairs + self.table_bnd.n_pairs
        return ("ok", 0, n_pairs, time.perf_counter() - t0, t_dens)

    def handle(self, msg: tuple) -> tuple:
        """Serve one command, returning its reply tuple."""
        from repro.md.neighbor_list import build_candidates
        from repro.parallel.domains import owned_mask_local

        cmd = msg[0]
        t0 = time.perf_counter()
        try:
            if cmd == "dens":
                self.positions = self.channel.get("positions", self.n_local)
                # The parent's global displacement bound (from its skin
                # trigger) rides on the command: it upper-bounds every
                # tile's local displacement, so the tile pays no einsum
                # of its own.  A looser bound only weakens the provably
                # bit-neutral cross-step cuts, never the emitted pairs.
                self.d_max = float(msg[1])
                return self._two_phase_density(t0)
            if cmd == "rebuild":
                self.n_local = int(msg[1])
                bounds = msg[2]
                self.positions = self.channel.get(
                    "positions", self.n_local
                )
                self.types_l = self.channel.get("types", self.n_local)
                owned = owned_mask_local(self.positions, bounds)
                cand, _ = build_candidates(
                    self.cells, self.positions, owned=owned
                )
                self.cand_int, self.cand_bnd = cand.split(
                    owned[cand.i] & owned[cand.j]
                )
                self.d_max = 0.0
                # the build's candidate funnel rides home on the reply:
                # a forked rank's metrics registry is not the parent's
                return (*self._two_phase_density(t0), cand.funnel)
            if cmd == "force":
                f_der = self.channel.get("f_der", self.n_local)
                e_int, f_int = self.potential.fused_pair_force(
                    self.n_local, self.table_int, f_der, self.types_l,
                    cache=self.cache_int,
                )
                if self.table_bnd.n_pairs:
                    e_bnd, f_bnd = self.potential.fused_pair_force(
                        self.n_local, self.table_bnd, f_der, self.types_l,
                        cache=self.cache_bnd,
                    )
                    if self.table_int.n_pairs:
                        e_pair = np.add(e_int, e_bnd, out=e_int)
                        forces = np.add(f_int, f_bnd, out=f_int)
                    else:
                        e_pair, forces = e_bnd, f_bnd
                else:
                    e_pair, forces = e_int, f_int
                self.channel.put("epair", e_pair)
                self.channel.put("forces", forces)
                n_pairs = self.table_int.n_pairs + self.table_bnd.n_pairs
                return ("ok", 0, n_pairs, time.perf_counter() - t0, 0.0)
            if cmd == "ping":
                return ("ok", 0, 0, time.perf_counter() - t0, 0.0)
            return ("error", "ValueError", f"unknown command {cmd!r}")
        except Exception as exc:  # report, keep serving
            return ("error", type(exc).__name__, str(exc))


def worker_loop(channel, wid: int, cfg: dict) -> None:
    """Serve :class:`ShardWorker` commands over a channel until stop."""
    worker = ShardWorker(channel, cfg)
    while True:
        try:
            msg = channel.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "stop":
            break
        channel.send(worker.handle(msg))
    channel.close()


# -- worker-side channels (get / put / recv / send) ------------------------


class _ArenaChannel:
    """Worker-side channel over fork-inherited shared memory + a pipe.

    Every arena array is ``(n_workers, capacity, ...)``; this worker
    reads input pack prefixes from — and writes output pack prefixes
    into — its own row.  The parent finishes a pack write before it
    sends the round's command, so the pipe's send/receive pair is all
    the ordering a read needs (no flag, no memory-model assumption).
    """

    def __init__(self, conn, wid: int, shared: dict) -> None:
        self._conn = conn
        self._rows = {name: rows[wid] for name, rows in shared.items()}

    def recv(self):
        return self._conn.recv()

    def send(self, reply: tuple) -> None:
        self._conn.send(reply)

    def get(self, name: str, n: int) -> np.ndarray:
        return self._rows[name][:n]

    def put(self, name: str, data: np.ndarray) -> None:
        self._rows[name][: len(data)] = data

    def close(self) -> None:
        self._conn.close()


class _SocketChannel:
    """Worker-side channel over one ``multiprocessing.connection`` link.

    Incoming messages are ``(msg, packs)`` — the input packs scattered
    since the previous command, which replace the local ones by name;
    outputs staged with :meth:`put` piggyback on the next reply as
    ``(reply, outputs)``.
    """

    def __init__(self, conn) -> None:
        self._conn = conn
        self._in: dict[str, np.ndarray] = {}
        self._staged: dict[str, np.ndarray] = {}

    def recv(self):
        msg, packs = self._conn.recv()
        self._in.update(packs)
        return msg

    def send(self, reply: tuple) -> None:
        self._conn.send((reply, self._staged))
        self._staged = {}

    def get(self, name: str, n: int) -> np.ndarray:
        pack = self._in[name]
        if len(pack) != n:  # pragma: no cover - protocol violation
            raise RuntimeError(
                f"pack {name!r} has {len(pack)} rows, expected {n}"
            )
        return pack

    def put(self, name: str, data: np.ndarray) -> None:
        self._staged[name] = np.ascontiguousarray(data)

    def close(self) -> None:
        self._conn.close()


class _InlineChannel:
    """In-process channel: packs live in two plain dicts.

    :meth:`InlineMover.send` stores the input packs, :meth:`put` the
    outputs :meth:`InlineMover.fetch` reads back.  ``recv``/``send``
    never run — the mover invokes :meth:`ShardWorker.handle` directly.
    """

    def __init__(self) -> None:
        self.inputs: dict[str, np.ndarray] = {}
        self.outputs: dict[str, np.ndarray] = {}

    def get(self, name: str, n: int) -> np.ndarray:
        return self.inputs[name]

    def put(self, name: str, data: np.ndarray) -> None:
        self.outputs[name] = data


def _fork_worker_entry(
    conn, wid: int, shared: dict, cfg: dict, parent_ends: list
) -> None:
    """Fork-mover worker entry: wrap the inherited arena into a channel.

    ``parent_ends`` are the parent's pipe ends that existed at the fork
    — this worker's own and its elder siblings'.  Held here they would
    hide the parent's death: the pipe never reaches EOF while any
    process keeps a write end open, so they are closed first thing.
    """
    for end in parent_ends:
        end.close()
    worker_loop(_ArenaChannel(conn, wid, shared), wid, cfg)


def _socket_worker_entry(address, authkey: bytes, rank: int) -> None:
    """Socket-mover worker entry: connect, handshake, serve.

    The handshake carries the rank so the parent can order connections
    deterministically, then the parent ships the full worker config
    (potential included) in a ``setup`` message before the first
    command.
    """
    from multiprocessing.connection import Client

    conn = Client(address, authkey=authkey)
    conn.send(("hello", rank))
    msg = conn.recv()
    if msg[0] != "setup":  # pragma: no cover - protocol violation
        conn.close()
        raise RuntimeError(f"expected setup message, got {msg[0]!r}")
    worker_loop(_SocketChannel(conn), rank, msg[1])


# -- the parent-side round driver ------------------------------------------


class Transport:
    """The round driver: every parent-side protocol step, over a mover.

    What :class:`~repro.parallel.pipeline.ShardedForcePipeline` talks
    to.  Owns the per-rank pack counts, pack staging and byte
    accounting, per-rank message assembly, the post / collect round
    with its single failure scan, and the gather length check; the
    mover only carries bytes.
    """

    def __init__(self, mover) -> None:
        self.mover = mover
        self.kind: str = mover.kind
        #: per-rank ``{channel: capacity-sized buffer}`` the packs are
        #: staged into — the mover's own (arena rows under ``shared``),
        #: reused every round, so steady steps allocate nothing here
        self._buffers: list[dict[str, np.ndarray]] = mover.inputs
        self.n_workers = len(self._buffers)
        self.bytes_sent = 0
        self.bytes_recv = 0
        self._counts = [0] * self.n_workers
        #: packs scattered since the last post, handed to the mover
        #: with the next message
        self._pending: list[dict[str, np.ndarray]] = [
            {} for _ in range(self.n_workers)
        ]
        #: ranks whose send failed in the current round (rank -> cause)
        self._lost: dict[int, BaseException] = {}

    def set_counts(self, counts: list[int]) -> None:
        """Rows each rank stages per output pack (its local-atom count)."""
        self._counts = list(counts)

    def scatter(self, name: str, source, ids: list[np.ndarray]) -> None:
        """Stage ``source[ids[k]]`` as rank ``k``'s next ``name`` pack."""
        for k, idx in enumerate(ids):
            pack = self._buffers[k][name][: len(idx)]
            np.take(source, idx, axis=0, out=pack)
            self._pending[k][name] = pack
            self.bytes_sent += pack.nbytes

    def post(self, msg: tuple, parts: list[tuple] | None = None) -> None:
        """Send ``msg`` (+ ``parts[k]``) and the staged packs to every rank.

        A send that fails is remembered, not raised: the later ranks
        still get their message, so :meth:`collect` finds every live
        rank with exactly one reply to drain.
        """
        self._lost = {}
        for k in range(self.n_workers):
            rank_msg = msg if parts is None else msg + tuple(parts[k])
            packs, self._pending[k] = self._pending[k], {}
            try:
                self.mover.send(k, rank_msg, packs)
            except OSError as exc:  # broken pipe / connection reset
                self._lost[k] = exc

    def collect(self) -> list[tuple]:
        """Drain one reply per rank for the last :meth:`post`.

        Every rank is drained before anything is raised, so after a
        worker-*reported* error the transport is idle and usable.  The
        lowest failing rank wins: a dead rank raises
        :class:`WorkerLost`, an error reply its exception by name
        (:data:`_RERAISABLE`) or a ``RuntimeError`` that keeps the name.
        """
        lost = self._lost
        replies: list = []
        for k in range(self.n_workers):
            reply = None
            if k not in lost:
                try:
                    reply = self.mover.recv(k)
                except (EOFError, OSError) as exc:
                    lost[k] = exc
            replies.append(reply)
        for k, reply in enumerate(replies):
            if k in lost:
                raise WorkerLost(
                    f"shard worker {k} died: {lost[k]!r}"
                ) from lost[k]
            if reply[0] == "error":
                _, kind, text = reply
                exc_type = _RERAISABLE.get(kind)
                if exc_type is None:  # surfaced as RuntimeError, kind kept
                    exc_type, text = RuntimeError, f"{kind}: {text}"
                raise exc_type(f"shard worker {k}: {text}")
        return [reply[1:] for reply in replies]

    def command(
        self, msg: tuple, parts: list[tuple] | None = None
    ) -> list[tuple]:
        """One lockstep round: :meth:`post`, then :meth:`collect`."""
        self.post(msg, parts)
        return self.collect()

    def barrier(self) -> None:
        self.command(("ping",))

    def gather(self, name: str) -> list[np.ndarray]:
        """Each rank's staged ``name`` output pack, in rank order."""
        packs = []
        for k, n in enumerate(self._counts):
            pack = self.mover.fetch(k, name, n)
            if len(pack) != n:
                raise RuntimeError(
                    f"rank {k} staged {len(pack)} rows of {name!r}, "
                    f"expected {n}"
                )
            self.bytes_recv += pack.nbytes
            packs.append(pack)
        return packs

    def close(self) -> None:
        self.mover.close()


# -- byte movers -----------------------------------------------------------


def _plain_buffers(n_workers: int, inputs: dict) -> list[dict]:
    """Per-rank capacity-sized input buffers in ordinary memory.

    ``np.empty`` commits pages only as pack prefixes touch them, so the
    capacity sizing costs address space, not resident memory.
    """
    return [
        {
            cname: np.empty(shape, dtype)
            for cname, (shape, dtype) in inputs.items()
        }
        for _ in range(n_workers)
    ]


def _stop_and_reap(conns: list, procs: list, stop_msg) -> None:
    """Tell every worker to stop, then join them with a timeout.

    Dead-worker safe: a worker that already exited — crashed, killed,
    or double-close — must not hang the parent, so sends to broken
    pipes are swallowed, joins are bounded, and anything still alive
    after the timeout is terminated.
    """
    for conn in conns:
        try:
            conn.send(stop_msg)
        except OSError:
            pass
        try:
            conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass
    for proc in procs:
        proc.join(timeout=_REAP_TIMEOUT_S)
        if proc.is_alive():  # pragma: no cover - stuck worker
            proc.terminate()
            proc.join(timeout=1.0)


class ForkMover:
    """Shared-memory mover: a SharedArena + forked daemon workers.

    ``inputs``/``outputs`` are ``{name: (shape, dtype)}`` per-rank
    capacity specs; every channel gets a leading ``n_workers`` row
    dimension in the arena, created **before** the fork so the children
    inherit the mapping.  The driver stages packs straight into the
    arena rows, so only messages cross the pipe.  Workers are daemons:
    an abandoned mover dies with the parent instead of orphaning
    processes.
    """

    kind = "shared"

    def __init__(
        self,
        n_workers: int,
        inputs: dict,
        outputs: dict,
        cfg: dict,
        *,
        name: str = "repro-shard",
    ) -> None:
        self.arena = SharedArena({
            cname: ((n_workers, *shape), dtype)
            for cname, (shape, dtype) in {**inputs, **outputs}.items()
        })
        self.inputs = [
            {cname: self.arena[cname][k] for cname in inputs}
            for k in range(n_workers)
        ]
        ctx = multiprocessing.get_context("fork")
        self._conns: list = []
        self._procs: list = []
        for wid in range(n_workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_fork_worker_entry,
                args=(
                    child_conn, wid, self.arena.arrays, cfg,
                    [*self._conns, parent_conn],
                ),
                daemon=True,
                name=f"{name}-{wid}",
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    def send(self, rank: int, msg: tuple, packs: dict) -> None:
        # the packs already sit in the rank's arena row
        self._conns[rank].send(msg)

    def recv(self, rank: int) -> tuple:
        return self._conns[rank].recv()

    def fetch(self, rank: int, name: str, n: int) -> np.ndarray:
        return self.arena[name][rank, :n]

    def close(self) -> None:
        """Stop and reap the workers, release the arena (idempotent)."""
        conns, self._conns = self._conns, []
        procs, self._procs = self._procs, []
        _stop_and_reap(conns, procs, ("stop",))
        self.arena.close()


class SocketMover:
    """TCP mover over :mod:`multiprocessing.connection`.

    The parent listens on loopback, forks one worker per rank, and
    sends each rank only *its* scattered packs, pickled onto the next
    command; workers return their staged output packs piggybacked on
    replies.  Pickling preserves float64 bits, so the pack reduction
    matches the shared-memory mover bitwise.
    """

    kind = "socket"

    def __init__(
        self,
        n_workers: int,
        inputs: dict,
        outputs: dict,
        cfg: dict,
        *,
        name: str = "repro-shard",
    ) -> None:
        from multiprocessing.connection import Listener

        self.inputs = _plain_buffers(n_workers, inputs)
        self._received: list[dict[str, np.ndarray]] = [
            {} for _ in range(n_workers)
        ]
        authkey = os.urandom(16)
        self._listener = Listener(("127.0.0.1", 0), authkey=authkey)
        ctx = multiprocessing.get_context("fork")
        self._procs: list = []
        for rank in range(n_workers):
            proc = ctx.Process(
                target=_socket_worker_entry,
                args=(self._listener.address, authkey, rank),
                daemon=True,
                name=f"{name}-sock-{rank}",
            )
            proc.start()
            self._procs.append(proc)
        # Accept in arrival order, then seat by handshake rank so the
        # pack reduction order is the topology's, not the race's.
        self._conns: list = [None] * n_workers
        for _ in range(n_workers):
            conn = self._listener.accept()
            hello = conn.recv()
            if hello[0] != "hello":  # pragma: no cover - protocol violation
                raise RuntimeError(f"expected hello, got {hello[0]!r}")
            rank = int(hello[1])
            if not 0 <= rank < n_workers or self._conns[rank] is not None:
                raise RuntimeError(f"bad worker rank {rank}")
            self._conns[rank] = conn
        for conn in self._conns:
            conn.send(("setup", cfg))

    def send(self, rank: int, msg: tuple, packs: dict) -> None:
        self._conns[rank].send((msg, packs))

    def recv(self, rank: int) -> tuple:
        reply, outputs = self._conns[rank].recv()
        self._received[rank].update(outputs)
        return reply

    def fetch(self, rank: int, name: str, n: int) -> np.ndarray:
        return self._received[rank][name]

    def close(self) -> None:
        """Stop and reap the workers (idempotent, dead-worker safe)."""
        conns, self._conns = self._conns, []
        procs, self._procs = self._procs, []
        _stop_and_reap(conns, procs, (("stop",), {}))
        if self._listener is not None:
            self._listener.close()
            self._listener = None


class InlineMover:
    """In-process mover: virtual shard workers, zero IPC.

    Hosts ``n_workers`` :class:`ShardWorker` state machines inside the
    parent process and runs each command synchronously in rank order
    (inside :meth:`recv`, i.e. while the driver collects).  The compute
    body, pack layouts and fixed-order reduction are exactly the
    forked/socket ones, so trajectories are bitwise-equal to the other
    movers by construction — this tier changes *where* the protocol
    runs, never what it computes.

    Exists because process parallelism needs spare cores: on a host
    with fewer CPUs than workers the forked tiers timeshare one core
    and pay IPC + context-switch tax for zero concurrency, while the
    tile decomposition itself is still profitable (tile-sized arrays
    cache better than the global arrays, and dead-block pruning makes
    tile rebuilds cheaper than a global rebuild).  ``resolve_transport``
    picks this tier automatically on such hosts.

    The driver's byte counters report the same sparse pack prefixes the
    wire movers would carry — halo volume is a protocol property, not a
    copper property — so accounting stays comparable across tiers.
    """

    kind = "inline"

    def __init__(
        self,
        n_workers: int,
        inputs: dict,
        outputs: dict,
        cfg: dict,
        *,
        name: str = "repro-shard",
    ) -> None:
        self.inputs = _plain_buffers(n_workers, inputs)
        self._channels = [_InlineChannel() for _ in range(n_workers)]
        self._workers = [
            ShardWorker(ch, cfg, switch_backend=False)
            for ch in self._channels
        ]
        self._posted: list = [None] * n_workers

    def send(self, rank: int, msg: tuple, packs: dict) -> None:
        self._channels[rank].inputs.update(packs)
        self._posted[rank] = msg

    def recv(self, rank: int) -> tuple:
        return self._workers[rank].handle(self._posted[rank])

    def fetch(self, rank: int, name: str, n: int) -> np.ndarray:
        return self._channels[rank].outputs[name]

    def close(self) -> None:
        self._workers = []
        self._channels = []


_MOVERS = {"shared": ForkMover, "socket": SocketMover, "inline": InlineMover}


def resolve_transport(kind: str | None, n_workers: int) -> str:
    """Resolve ``None``/``"auto"`` to a concrete transport kind.

    Process-backed movers only pay off with spare cores: when the
    host has fewer CPUs than workers (or only one worker), the forked
    tiers add IPC and context-switch cost for zero concurrency, so
    ``auto`` picks the inline tier instead — same bits, no processes.

    A core-starved auto-inline pick warns once per (workers, cpus)
    shape: the user asked for parallelism the host cannot deliver, and
    should know the shards run in-process (``n_workers == 1`` stays
    silent — a single worker has nothing to run beside regardless).
    """
    if kind not in (None, "auto"):
        return kind
    if n_workers == 1:
        return "inline"
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-linux
        cpus = os.cpu_count() or 1
    if cpus < n_workers:
        from repro.parallel import warn_once

        warn_once(
            f"auto-inline-{n_workers}w-{cpus}c",
            f"transport='auto' picked the inline tier: {n_workers} "
            f"workers but only {cpus} usable CPU(s), so forked workers "
            f"would timeshare cores for no concurrency "
            f"(pass transport='shared' to override)",
        )
        return "inline"
    return "shared"


def make_transport(
    kind: str | None,
    n_workers: int,
    inputs: dict,
    outputs: dict,
    cfg: dict,
    *,
    name: str = "repro-shard",
) -> Transport:
    """The round driver over the named mover (``None``/``"auto"`` adapt
    to the host, see :func:`resolve_transport`)."""
    kind = resolve_transport(kind, n_workers)
    if kind not in _MOVERS:
        raise ValueError(
            f"unknown transport {kind!r}; expected one of {TRANSPORTS}"
        )
    return Transport(
        _MOVERS[kind](n_workers, inputs, outputs, cfg, name=name)
    )
