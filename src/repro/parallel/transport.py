"""One round driver over three byte movers: how seam rows reach the shards.

Ranks step their own atoms (:class:`ShardWorker`); what crosses this
module is the partial sums of *seam rows* — rows more than one tile
holds — plus full state on the rare rounds that re-plan or observe it,
in fixed synchronous rounds: every rank is sent its packs and one
command, every rank computes, every reply is drained — the host
analogue of the paper's lockstep neighbourhood exchange.  Two layers,
so the decomposition logic never knows how bytes travel:

* :class:`Transport` — the **round driver**, the only parent-side
  protocol code: :meth:`~Transport.scatter` stages ``source[ids[k]]``
  for rank ``k``, :meth:`~Transport.command` runs one round
  (:meth:`~Transport.post` + :meth:`~Transport.collect`, with the
  single drain-then-raise failure scan), :meth:`~Transport.gather`
  returns what the ranks staged.  The pipeline *routes* with these:
  gather a seam pack, scatter its rows to the other holders.
* a **byte mover** — only how a staged pack and a message reach rank
  ``k`` and come back: ``inputs`` (the per-rank buffers the driver
  stages into), ``send(rank, msg, packs)``, ``recv(rank)``,
  ``fetch(rank, name, n)`` and ``close()``.  Three exist:
  :class:`ForkMover` ("shared"), :class:`SocketMover` ("socket") and
  :class:`InlineMover` ("inline"), each with a matching thin
  worker-side channel (``get``/``put``/``recv``/``send``) under the
  transport-agnostic :class:`ShardWorker` / :func:`worker_loop`.

Every mover delivers the same float64 bits in the same pack layout, so
a trajectory is bitwise-identical across movers; and
``bytes_sent``/``bytes_recv`` count the *actual pack prefix bytes* —
charged when a pack is scattered and when a gathered pack is consumed —
so traffic numbers are real sparse volumes, identical across movers too.
"""

from __future__ import annotations

import math
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
    "usable_cpus",
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


# -- the worker protocol (transport-independent) ---------------------------


class ShardWorker:
    """One tile's resident state and the steps it runs on it.

    Between rebuilds the worker *owns* its tile: an
    :class:`~repro.md.state.AtomsState` of its local rows (owned +
    ghost, ascending global id; the velocities live only here), the
    rebuild reference and the candidate list, held as the
    **interior/boundary split** of what
    :func:`~repro.md.neighbor_list.build_candidates` builds from the
    local rows (interior candidates touch only owned rows, boundary
    candidates a ghost).  Each class runs its own filter + kernel pass
    and the per-atom results merge as whole partial sums in a pinned
    order (``interior + boundary``); an empty class skips the merge, so
    a single tile (no ghosts) computes the exact unsplit bits — the
    ``w=1`` bitwise-serial hinge.

    Where a row has several holders (a *seam* row) its per-tile partial
    sums meet in :meth:`_reduce` — at **every** holder, in one order, so
    all of them land on the same bits.  A ghost is therefore a full
    replica: same reduced force, same velocity, and the integrator
    (elementwise) moves it here exactly as its owner does, so positions
    never travel between rebuilds.  Commands (replies are ``("ok",
    seconds, ...)`` or ``("error", type, text)``):

    * ``("rebuild", n_local, bounds, seam, segs)`` — read a freshly
      planned pack (local positions, velocities, types), recompute the
      owned mask from the tile bounds, keep the seam plan
      (:func:`~repro.parallel.domains.seam_plan`), rebuild and split
      the candidates, then ``dens``; the reply adds the build's funnel.
    * ``("dens",)`` — distance-filter under the local displacement
      bound (any valid bound emits the same pairs), run the interior
      then the boundary density pass, merge, stage the seam rows of
      ``rho``.  Reply: ``n_pairs, density_seconds``.
    * ``("force",)`` — reduce ``rho``, embed (elementwise, hence
      subset-safe), run the pair-force pass, stage the seam rows'
      pair-energy and force partials.  Reply: reduce + embed seconds.
    * ``("move", integrator, ahead)`` — reduce pair energies and forces;
      with an integrator (the serial loop's own ``LeapfrogVerlet``;
      ``None`` = evaluate only) advance the local state and, if
      ``ahead``, run the *next* step's ``dens`` on the spot (the parent
      discards it if the max-reduced trigger trips).  Reply: the owned
      rows' largest squared displacement since the rebuild, the move's
      seconds, then (``ahead``) the ``dens`` reply.
    * ``("push", names)`` / ``("pull", names)`` — overwrite local
      ``positions`` / ``velocities`` from the parent (reply: the
      displacement, as ``move``), or stage the owned rows of
      ``positions`` / ``velocities`` / ``energies`` / ``forces`` for it.

    The body is identical under every mover.  ``switch_backend=False``
    skips the process-global kernel-backend switch: the inline mover
    runs workers inside the parent, whose active backend already
    evaluates the identical arithmetic.
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
        self.masses = cfg["masses"]
        # knows the box and the reach; buffers reused across rebuilds
        self.cells = CellList(
            cfg["box"], cfg["reach"],
            subdivide=cfg.get("build_subdivide", 1),
        )
        self.state = None  # AtomsState of the local rows (see above)
        self.d_max = 0.0  # local displacement bound since the rebuild

    def _rebuild(self, n_local, bounds, seam, segs):
        from repro.md.neighbor_list import build_candidates
        from repro.md.state import AtomsState
        from repro.parallel.domains import owned_mask_local

        ch, n = self.channel, int(n_local)
        self.state = state = AtomsState(
            np.array(ch.get("positions", n)), np.array(ch.get("velocities", n)),
            np.array(ch.get("types", n)), self.masses, self.cells.box,
        )
        mask = owned_mask_local(state.positions, bounds)
        self.owned = np.nonzero(mask)[0]
        self.ref = state.positions.copy()
        self.seam, self.segs = seam, segs
        cand, _ = build_candidates(self.cells, state.positions, owned=mask)
        self.cand_int, self.cand_bnd = cand.split(mask[cand.i] & mask[cand.j])
        self.d_max = 0.0
        return cand.funnel

    def _two_phase_density(self) -> tuple:
        """Interior filter + density, boundary filter + density, merge."""
        st, box, n = self.state, self.cells.box, self.state.n_atoms
        self.table_int = self.cand_int.pairs(
            st.positions, box, self.cutoff, max_disp=self.d_max
        )
        td = time.perf_counter()
        rho_int, self.cache_int = self.potential.fused_density(
            n, self.table_int, st.types
        )
        t_dens = time.perf_counter() - td
        self.table_bnd = self.cand_bnd.pairs(
            st.positions, box, self.cutoff, max_disp=self.d_max
        )
        td = time.perf_counter()
        if self.table_bnd.n_pairs:
            rho_bnd, self.cache_bnd = self.potential.fused_density(
                n, self.table_bnd, st.types
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
        self.rho, self.rho_mine = rho, self._stage("rho", rho)
        return self.table_int.n_pairs + self.table_bnd.n_pairs, t_dens

    def _pair_force(self, f_der: np.ndarray) -> None:
        """Interior pass, boundary pass, same pinned merge; stage the
        seam rows' partials for the other holders."""
        st, n = self.state, self.state.n_atoms
        e_pair, forces = self.potential.fused_pair_force(
            n, self.table_int, f_der, st.types, cache=self.cache_int
        )
        if self.table_bnd.n_pairs:
            e_bnd, f_bnd = self.potential.fused_pair_force(
                n, self.table_bnd, f_der, st.types, cache=self.cache_bnd
            )
            if self.table_int.n_pairs:
                np.add(e_pair, e_bnd, out=e_pair)
                np.add(forces, f_bnd, out=forces)
            else:
                e_pair, forces = e_bnd, f_bnd
        self.e_pair, self.e_mine = e_pair, self._stage("epair", e_pair)
        self.forces, self.f_mine = forces, self._stage("forces", forces)

    def _stage(self, name: str, part: np.ndarray) -> np.ndarray:
        """Stage the seam rows of ``part`` for the other holders; the
        staged copy is this rank's own term of :meth:`_reduce`."""
        mine = part[self.seam]
        self.channel.put(name, mine)
        return mine

    def _reduce(self, part: np.ndarray, mine: np.ndarray, name: str) -> None:
        """Overwrite the seam rows of ``part`` with their sum over holders.

        ``self.segs`` lists, per rank in ascending order, where among
        the seam rows that rank's routed slice of pack ``name`` lands
        (``None`` marks ``mine``, this rank's own partial).  Starting
        from 0.0 and adding in that order is, row by row, what
        ``bincount`` over the rank-concatenated pack ids did: same
        operands, same sequence.
        """
        segs = self.segs
        pack = self.channel.get(
            name, sum(len(at) for at in segs if at is not None)
        )
        acc = np.zeros_like(mine)
        off = 0
        for at in segs:
            if at is None:
                acc += mine
            elif len(at) == len(acc):  # shares every seam row: in order
                acc += pack[off:off + len(at)]
                off += len(at)
            else:
                acc[at] += pack[off:off + len(at)]
                off += len(at)
        part[self.seam] = acc

    def _displacement(self) -> tuple:
        """Refresh the local bound; the owned rows' max |d|^2 for the
        parent's trigger."""
        from repro.md.neighbor_list import displacement2

        d2 = displacement2(self.state.positions, self.ref)
        self.d_max = math.sqrt(np.max(d2, initial=0.0))
        return (float(np.max(d2[self.owned], initial=0.0)),)

    def handle(self, msg: tuple) -> tuple:
        """Serve one command, returning its reply tuple."""
        cmd, ch, st = msg[0], self.channel, self.state
        t0 = time.perf_counter()
        tail: tuple = ()
        try:
            if cmd == "dens":
                tail = self._two_phase_density()
            elif cmd == "rebuild":
                funnel = self._rebuild(*msg[1:])
                tail = (*self._two_phase_density(), funnel)
            elif cmd == "force":
                self._reduce(self.rho, self.rho_mine, "rho_in")
                self.f_val, f_der = self.potential.embed(self.rho, st.types)
                tail = (time.perf_counter() - t0,)
                self._pair_force(f_der)
            elif cmd == "move":
                self._reduce(self.e_pair, self.e_mine, "epair_in")
                self._reduce(self.forces, self.f_mine, "forces_in")
                if msg[1] is not None:
                    msg[1].step(st, self.forces)
                    tail = self._displacement()
                    tail += (time.perf_counter() - t0,)
                    if msg[2]:
                        tail += self._two_phase_density()
            elif cmd == "push":
                for name in msg[1]:
                    getattr(st, name)[:] = ch.get(name, st.n_atoms)
                tail = self._displacement()
            elif cmd == "pull":
                for name in msg[1]:
                    rows = (
                        self.forces if name == "forces"
                        else self.e_pair + self.f_val if name == "energies"
                        else getattr(st, name)
                    )
                    ch.put("own_" + name, np.take(rows, self.owned, axis=0))
            elif cmd != "ping":
                return ("error", "ValueError", f"unknown command {cmd!r}")
            return ("ok", time.perf_counter() - t0, *tail)
        except Exception as exc:  # report, keep serving
            return ("error", type(exc).__name__, str(exc))


def worker_loop(channel, wid: int, cfg: dict) -> None:
    """Serve :class:`ShardWorker` commands over a channel until stop.

    A rank owns its tile and, where the platform lets it, one CPU: it
    pins itself to the ``wid``-th usable one (round-robin when ranks
    outnumber them).  Ranks that the scheduler lets drift onto one core
    between rounds serialise a whole round before it separates them.
    """
    cpus = _affinity()
    if cpus:
        try:
            os.sched_setaffinity(0, {cpus[wid % len(cpus)]})
        except OSError:  # pragma: no cover - mask changed under us
            pass
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


def _no_delay(conn) -> None:
    """Nagle off: a seam pack is a 4-byte header plus one sub-segment
    payload, which would wait on the header's delayed ACK — 40 ms a
    round."""
    import socket

    with socket.socket(fileno=os.dup(conn.fileno())) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def _socket_worker_entry(address, authkey: bytes, rank: int) -> None:
    """Socket-mover worker entry: connect, handshake, serve.

    The handshake carries the rank so the parent can order connections
    deterministically, then the parent ships the full worker config
    (potential included) in a ``setup`` message before the first
    command.
    """
    from multiprocessing.connection import Client

    conn = Client(address, authkey=authkey)
    _no_delay(conn)
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
    to.  Owns pack staging and byte accounting, per-rank message
    assembly, the post / collect round with its single failure scan,
    and the gather length check; the mover only carries bytes.
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
        #: packs scattered since the last post, handed to the mover
        #: with the next message
        self._pending: list[dict[str, np.ndarray]] = [
            {} for _ in range(self.n_workers)
        ]
        #: ranks whose send failed in the current round (rank -> cause)
        self._lost: dict[int, BaseException] = {}

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

    def gather(self, name: str, counts: list[int]) -> list[np.ndarray]:
        """Each rank's staged ``name`` output pack (``counts[k]`` rows),
        in rank order."""
        packs = []
        for k, n in enumerate(counts):
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
    """Per-rank capacity-sized input buffers in ordinary memory
    (``np.empty`` commits pages only as pack prefixes touch them)."""
    return [
        {
            cname: np.empty(shape, dtype)
            for cname, (shape, dtype) in inputs.items()
        }
        for _ in range(n_workers)
    ]


def _stop_and_reap(conns: list, procs: list, stop_msg) -> None:
    """Tell every worker to stop, then join them with a timeout.

    Dead-worker safe: a worker that already exited must not hang the
    parent, so sends to broken pipes are swallowed, joins are bounded,
    and anything still alive after the timeout is terminated.
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
        self, n_workers: int, inputs: dict, outputs: dict, cfg: dict
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
                name=f"repro-shard-{wid}",
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
        self, n_workers: int, inputs: dict, outputs: dict, cfg: dict
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
                name=f"repro-shard-sock-{rank}",
            )
            proc.start()
            self._procs.append(proc)
        # Accept in arrival order, then seat by handshake rank so the
        # pack reduction order is the topology's, not the race's.
        self._conns: list = [None] * n_workers
        for _ in range(n_workers):
            conn = self._listener.accept()
            _no_delay(conn)
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
    (inside :meth:`recv`, i.e. while the driver collects): the compute
    body, pack layouts and reduction order are exactly the forked ones,
    so trajectories are bitwise-equal to the other movers — this tier
    changes *where* the protocol runs, never what it computes or what
    the byte counters report.  Exists because process parallelism needs
    spare cores: with fewer CPUs than workers the forked tiers timeshare
    and pay IPC for zero concurrency, while tile-sized arrays still
    cache better than global ones.  ``resolve_transport`` picks this
    tier automatically on such hosts.
    """

    kind = "inline"

    def __init__(
        self, n_workers: int, inputs: dict, outputs: dict, cfg: dict
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

    Process-backed movers only pay off with spare cores: with fewer
    usable CPUs than workers (or one worker) ``auto`` picks the inline
    tier — same bits, no processes — and, since the user asked for
    parallelism the host cannot deliver, warns once per (workers, cpus)
    shape (``n_workers == 1`` stays silent).
    """
    if kind not in (None, "auto"):
        return kind
    if n_workers == 1:
        return "inline"
    cpus = usable_cpus()
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
    kind: str | None, n_workers: int, inputs: dict, outputs: dict, cfg: dict
) -> Transport:
    """The round driver over the named mover (``None``/``"auto"`` adapt
    to the host, see :func:`resolve_transport`)."""
    kind = resolve_transport(kind, n_workers)
    if kind not in _MOVERS:
        raise ValueError(
            f"unknown transport {kind!r}; expected one of {TRANSPORTS}"
        )
    return Transport(_MOVERS[kind](n_workers, inputs, outputs, cfg))
