"""Persistent fork-based worker pool: spawn, command, reap.

The pool is deliberately protocol-agnostic plumbing: it forks
``n_workers`` long-lived daemon processes running a caller-supplied
``main(conn, wid, shared, cfg)`` and gives the parent one collective —
:meth:`WorkerPool.command` broadcasts a message and gathers one reply
per worker in rank order.  The shard worker protocol itself lives in
:mod:`repro.parallel.transport` (``worker_loop``), and the WSE
offset-dispatch pool (:mod:`repro.parallel.offsets`) reuses this class
with its own main.

Workers are daemons: an abandoned pool dies with the parent instead of
orphaning processes.
"""

from __future__ import annotations

import multiprocessing

__all__ = ["WorkerPool", "fork_available"]

#: Exception types a worker may re-raise by name in the parent, so the
#: parallel path surfaces the same error classes the serial path does
#: (e.g. the pair-distance cap's FloatingPointError on atom overlap).
_RERAISABLE = {
    "FloatingPointError": FloatingPointError,
    "ValueError": ValueError,
    "RuntimeError": RuntimeError,
}

#: Seconds to wait for a worker to exit before terminating it.
_REAP_TIMEOUT_S = 5.0


def fork_available() -> bool:
    """Whether this platform supports the fork start method."""
    return "fork" in multiprocessing.get_all_start_methods()


class WorkerPool:
    """Spawn, command and reap a set of forked workers.

    Construction forks ``n_workers`` processes that inherit ``shared``
    (typically shared-memory array views) and ``cfg`` by copy-on-write;
    :meth:`command` broadcasts one message and gathers one reply per
    worker, raising in the parent if any worker reported an error.
    """

    def __init__(
        self,
        n_workers: int,
        shared: dict,
        cfg: dict,
        main,
        *,
        name: str = "repro-shard",
    ) -> None:
        ctx = multiprocessing.get_context("fork")
        self._conns = []
        self._procs = []
        for wid in range(n_workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=main,
                args=(child_conn, wid, shared, cfg),
                daemon=True,
                name=f"{name}-{wid}",
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    @property
    def n_workers(self) -> int:
        return len(self._procs)

    def command(
        self,
        msg: tuple,
        parts: list[tuple] | None = None,
        *,
        stagger: bool = False,
    ) -> list[tuple]:
        """Broadcast ``msg``; return each worker's reply payload in order.

        ``parts`` optionally appends a per-rank payload: worker ``k``
        receives ``msg + parts[k]`` (how the pipeline ships each tile
        its own halo-pack length and owned bounds without broadcasting
        every tile's).  Every reply is drained before any error is
        raised, so the pool stays in a consistent idle state even when
        one shard fails.  A worker that died (broken pipe on send, EOF
        on receive) surfaces as a RuntimeError instead of hanging the
        step.

        ``stagger`` dispatches rank ``k+1`` only after rank ``k``'s
        reply arrives, so on a CPU-starved host at most one worker
        computes at a time instead of all of them timesharing the core
        and evicting each other's caches mid-pass.  Replies are
        identical (and in the same rank order) either way — staggering
        changes wall-clock behavior only, never results.
        """
        if not stagger:
            self.post(msg, parts)
            return self.collect()
        replies: list[tuple] = []
        error: tuple | None = None
        down: set[int] = set()
        for wid, conn in enumerate(self._conns):
            try:
                conn.send(msg if parts is None else msg + tuple(parts[wid]))
            except (BrokenPipeError, OSError) as exc:
                down.add(wid)
                if error is None:
                    error = (wid, "RuntimeError", f"worker died: {exc}")
            if wid not in down:
                replies.append(self._recv_reply(wid))
        for wid in down:
            replies.insert(wid, (0, 0.0))
        return self._finish(replies, error)

    def post(self, msg: tuple, parts: list[tuple] | None = None) -> None:
        """Broadcast ``msg`` without waiting for replies.

        The non-blocking half of :meth:`command`: the parent can do
        work of its own — publish the step's ghost packs — while every
        worker computes, then drain the round with :meth:`collect`.
        Send failures are remembered, not raised, so the reply slots
        stay rank-consistent; :meth:`collect` surfaces them.
        """
        self._post_down: set[int] = set()
        self._post_error: tuple | None = None
        for wid, conn in enumerate(self._conns):
            try:
                conn.send(msg if parts is None else msg + tuple(parts[wid]))
            except (BrokenPipeError, OSError) as exc:
                self._post_down.add(wid)
                if self._post_error is None:
                    self._post_error = (
                        wid, "RuntimeError", f"worker died: {exc}"
                    )

    def collect(self) -> list[tuple]:
        """Drain one reply per worker for the last :meth:`post`."""
        down = getattr(self, "_post_down", set())
        error = getattr(self, "_post_error", None)
        replies: list[tuple] = []
        for wid in range(len(self._conns)):
            if wid in down:
                replies.append((0, 0.0))
            else:
                replies.append(self._recv_reply(wid))
        return self._finish(replies, error)

    def _finish(
        self, replies: list[tuple], error: tuple | None
    ) -> list[tuple]:
        """Scan for worker-reported errors and raise the first one."""
        for wid, reply in enumerate(replies):
            if reply and reply[0] == "error" and error is None:
                error = (wid, reply[1], reply[2])
        if error is not None:
            wid, kind, text = error
            exc_type = _RERAISABLE.get(kind)
            if exc_type is None:  # surfaced as RuntimeError, kind kept
                exc_type, text = RuntimeError, f"{kind}: {text}"
            raise exc_type(f"shard worker {wid}: {text}")
        return replies

    def _recv_reply(self, wid: int) -> tuple:
        """One worker's reply payload, with death mapped to an error."""
        try:
            reply = self._conns[wid].recv()
        except (EOFError, OSError) as exc:
            reply = ("error", "RuntimeError", f"worker died: {exc}")
        if reply[0] == "error":
            return reply
        return reply[1:]

    def close(self) -> None:
        """Stop and join every worker (idempotent, dead-worker safe).

        A worker that already exited — crashed, killed, or double-close
        — must not hang the parent: sends to broken pipes are
        swallowed, joins are bounded by a timeout, and anything still
        alive after the timeout is terminated.
        """
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        self._conns = []
        for proc in self._procs:
            proc.join(timeout=_REAP_TIMEOUT_S)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        self._procs = []
