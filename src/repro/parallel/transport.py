"""One round driver over three byte movers: how ghost rows reach the shards.

Ranks step their own atoms (:class:`ShardWorker`); what crosses this
module is the positions of *ghost rows* — rows a tile holds but another
owns — plus full state on the rare rounds that re-plan or observe it,
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
  gather the owners' export packs, scatter each holder its ghosts.
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
import mmap
import multiprocessing
import os
import time

import numpy as np

# the CPU count lives with the kernels, which size their threads by it
from repro.kernels import _affinity, usable_cpus
from repro.md.neighbor_list import displacement2, displacement_trigger
from repro.md.simulation import SimStats, Simulation
from repro.md.state import AtomsState
from repro.obs import Tracer

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

#: The phases a rank's ``Simulation`` call reports, in reply order.
PHASES = ("neighbor", "density", "embedding", "pair_force", "integrate")

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
    """One tile's resident state and the serial engine that steps it.

    Between plans the worker *owns* its tile: an
    :class:`~repro.md.state.AtomsState` of its local rows (owned +
    ghost, ascending global id; the velocities live only here) stepped
    by a plain :class:`~repro.md.simulation.Simulation` — the serial
    engine, its Verlet list and ``md_step`` included.  The ghost shell
    is deep enough (see :mod:`~repro.parallel.domains`) that one step
    moves every owned row exactly as the serial engine moves it; the
    ghosts' own moves are inexact, so their positions are overwritten
    with their owners' before each step and each step is one
    ``run(1)``: an inexact ghost never reaches a pair test.  A single
    tile has no ghosts and is the serial engine, bit for bit.

    Commands (replies are ``("ok", seconds, ...)`` or ``("error",
    type, text)``; ``fresh`` says the ghost rows' positions were
    routed since the last command and are to be written first):

    * ``("plan", n_local, ghosts, exports)`` — read a freshly planned
      pack (local positions, velocities, types) into a new
      ``Simulation``; ``ghosts`` / ``exports`` are the local rows its
      owners refresh and the owned rows it stages for other tiles
      (:func:`~repro.parallel.domains.export_plan`).
    * ``("step", integrator, fresh)`` — one ``run(1)`` at the
      integrator's timestep, then stage the exported rows' positions.
      Reply: the call's seconds per phase (:data:`PHASES`) and
      :class:`~repro.md.simulation.SimStats`, then the owned rows'
      largest squared displacement since the plan.
    * ``("forces", fresh)`` — ``Simulation.compute_forces`` at the
      current positions; stage the owned rows' energies and forces.
      Reply: phase seconds and stats.
    * ``("push", names)`` / ``("pull", names)`` — overwrite local
      ``positions`` / ``velocities`` from the parent (reply: the
      displacement, as ``step``), or stage the owned rows of
      ``positions`` / ``velocities`` for it.

    The body is identical under every mover, and so is the kernel tier:
    a forked rank inherits the one its parent had active at the fork,
    an inline rank runs the parent's own.
    """

    def __init__(self, channel, cfg: dict):
        self.channel = channel
        self.cfg = cfg
        self.sim = None  # the tile's Simulation, from the first plan
        self.tracer = Tracer()  # its phase seconds, read per command

    def _plan(self, n_local, ghosts, exports) -> None:
        ch, cfg, n = self.channel, self.cfg, int(n_local)
        state = AtomsState(
            np.array(ch.get("positions", n)),
            np.array(ch.get("velocities", n)),
            np.array(ch.get("types", n)), cfg["masses"], cfg["box"],
        )
        self.tracer.reset()  # a failed command may have left phases
        self.sim = Simulation(state, cfg["potential"], skin=cfg["skin"],
                              tracer=self.tracer)
        self.ghosts, self.exports = ghosts, exports
        # a mask, not np.setdiff1d: its first call imports numpy.ma,
        # 20-30 ms of each forked rank's first plan
        owned = np.ones(n, dtype=bool)
        owned[ghosts] = False
        self.owned = np.flatnonzero(owned)
        self.ref = state.positions[self.owned]

    def _ghosts(self, fresh: bool) -> None:
        if fresh:
            self.sim.state.positions[self.ghosts] = self.channel.get(
                "ghosts", len(self.ghosts)
            )

    def _displacement(self) -> float:
        """The owned rows' largest squared displacement since the plan
        (a non-finite one raises here, on the rank that holds it)."""
        d2 = displacement2(self.sim.state.positions[self.owned], self.ref)
        max_d2 = float(np.max(d2, initial=0.0))
        displacement_trigger(max_d2, self.cfg["skin"])
        return max_d2

    def _stages(self, seconds: float) -> tuple:
        """The command's seconds per phase of :data:`PHASES` (the
        tracer's; ``integrate`` also holds the glue around the others)
        and the stats it added, both reset for the next command."""
        tr, sim = self.tracer, self.sim
        totals = tr.phase_totals()
        tr.reset()
        phases = [totals.get(name, 0.0) for name in PHASES[:-1]]
        phases.append(seconds - sum(phases))
        stats, sim.stats = sim.stats, SimStats()
        return tuple(phases), stats

    def handle(self, msg: tuple) -> tuple:
        """Serve one command, returning its reply tuple."""
        cmd, ch, sim = msg[0], self.channel, self.sim
        t0 = time.perf_counter()
        tail: tuple = ()
        try:
            if cmd == "plan":
                self._plan(*msg[1:])
            elif cmd == "step":
                self._ghosts(msg[2])
                sim.integrator = msg[1]
                sim.run(1)
                ch.put("exports", sim.state.positions[self.exports])
                max_d2 = self._displacement()
                tail = (*self._stages(time.perf_counter() - t0), max_d2)
            elif cmd == "forces":
                self._ghosts(msg[1])
                energies, forces = sim.compute_forces()
                ch.put("own_energies", energies[self.owned])
                ch.put("own_forces", forces[self.owned])
                tail = self._stages(time.perf_counter() - t0)
            elif cmd == "push":
                for name in msg[1]:
                    getattr(sim.state, name)[:] = ch.get(
                        name, sim.state.n_atoms
                    )
                tail = (self._displacement(),)
            elif cmd == "pull":
                for name in msg[1]:
                    ch.put("own_" + name,
                           getattr(sim.state, name)[self.owned])
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


class _SharedChannel:
    """Worker-side channel over fork-inherited shared mappings + a pipe.

    Every shared array is ``(n_workers, capacity, ...)``; this worker
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
    """Fork-mover worker entry: wrap the inherited mappings into a channel.

    ``parent_ends`` are the parent's pipe ends that existed at the fork
    — this worker's own and its elder siblings'.  Held here they would
    hide the parent's death: the pipe never reaches EOF while any
    process keeps a write end open, so they are closed first thing.
    """
    for end in parent_ends:
        end.close()
    worker_loop(_SharedChannel(conn, wid, shared), wid, cfg)


def _no_delay(conn) -> None:
    """Nagle off: a ghost pack is a 4-byte header plus one sub-segment
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
        #: staged into — the mover's own (shared rows under ``shared``),
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


def _shared_zeros(shape, dtype) -> np.ndarray:
    """A zeroed array on its own anonymous ``MAP_SHARED`` mapping: a
    process forked after this call maps the same pages, nothing names
    them, and they go with the last process that maps them."""
    count = math.prod(shape)
    buffer = mmap.mmap(-1, max(count * np.dtype(dtype).itemsize, 1))
    return np.frombuffer(buffer, dtype, count).reshape(shape)


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
    """Shared-memory mover: anonymous shared mappings + forked daemon
    workers.

    ``inputs``/``outputs`` are ``{name: (shape, dtype)}`` per-rank
    capacity specs; every channel gets one ``(n_workers, *shape)`` array
    on its own anonymous shared mapping, made **before** the fork so the
    children map the same pages.  The driver stages packs straight into
    the shared rows, so only messages cross the pipe.  Workers are
    daemons: an abandoned mover dies with the parent instead of
    orphaning processes.
    """

    kind = "shared"

    def __init__(
        self, n_workers: int, inputs: dict, outputs: dict, cfg: dict
    ) -> None:
        self._shared = {
            cname: _shared_zeros((n_workers, *shape), dtype)
            for cname, (shape, dtype) in {**inputs, **outputs}.items()
        }
        self.inputs = [
            {cname: self._shared[cname][k] for cname in inputs}
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
                    child_conn, wid, self._shared, cfg,
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
        # the packs already sit in the rank's shared row
        self._conns[rank].send(msg)

    def recv(self, rank: int) -> tuple:
        return self._conns[rank].recv()

    def fetch(self, rank: int, name: str, n: int) -> np.ndarray:
        return self._shared[name][rank, :n]

    def close(self) -> None:
        """Stop and reap the workers (idempotent); the shared pages go
        with the last process that maps them."""
        conns, self._conns = self._conns, []
        procs, self._procs = self._procs, []
        _stop_and_reap(conns, procs, ("stop",))


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
        from multiprocessing.connection import Listener, wait

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
        # pack reduction order is the topology's, not the race's.  A
        # rank that exits before its hello never connects, so wait on
        # the listening socket (what accept() reads) and on every
        # unseated rank's exit at once.
        listening = self._listener._listener._socket
        self._conns: list = [None] * n_workers
        while None in self._conns:
            unseated = {
                self._procs[rank].sentinel: rank
                for rank, conn in enumerate(self._conns) if conn is None
            }
            ready = wait([listening, *unseated])
            gone = [unseated[s] for s in ready if s in unseated]
            if gone:
                self._lost_before_hello(min(gone))
            try:
                conn = self._listener.accept()
                _no_delay(conn)
                hello = conn.recv()
            except (EOFError, OSError):
                continue  # died mid-handshake: its sentinel names it next
            if hello[0] != "hello":  # pragma: no cover - protocol violation
                raise RuntimeError(f"expected hello, got {hello[0]!r}")
            rank = int(hello[1])
            if not 0 <= rank < n_workers or self._conns[rank] is not None:
                raise RuntimeError(f"bad worker rank {rank}")
            self._conns[rank] = conn
        for conn in self._conns:
            conn.send(("setup", cfg))

    def _lost_before_hello(self, rank: int) -> None:
        """Reap every started rank, then raise :class:`WorkerLost`.

        The others are terminated, not stopped: an unseated one is still
        connecting and a seated one waits for its ``setup``, so neither
        would read a ``stop``.
        """
        lost = self._procs[rank]
        for proc in self._procs:
            proc.terminate()
        self._conns = [conn for conn in self._conns if conn is not None]
        self.close()
        raise WorkerLost(
            f"shard worker {rank} exited (code {lost.exitcode}) "
            "before its handshake"
        )

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
        self._workers = [ShardWorker(ch, cfg) for ch in self._channels]
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
        from repro.obs import warn_once

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
