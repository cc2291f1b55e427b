"""Slot processes: where a served engine actually runs.

A *slot* is a persistent, non-daemonic child of the server process
(forked where the platform can fork, spawned through the same code
otherwise) looping on one duplex pipe.  The server keeps every decision
and sends a slot only what it needs to compute:

``("run", job id, RunSpec, checkpoint prefix, resume prefix | None)``
— build the fresh or resumed runner, run it to ``spec.steps``, answer
``("done", telemetry dict, reached step)`` or ``("error", exception
type name, message)``; meanwhile ``("progress", payload)`` and
``("warning", category, text)`` stream back.

``("stop", job id)`` — ``runner.request_stop()`` on that job: its loop
breaks at the next chunk boundary and still writes its checkpoint.  The
slot reads its pipe only at those boundaries, the one place a stop can
take effect, so it needs no second thread; a stop for any other job
(it lost the race with its own job's reply) is dropped.

One cadence, derived from the job, sets both the progress samples and
the stop polls: a tenth of ``spec.steps``, but never more than
:data:`~repro.md.simulation.CALL_STEPS` steps, the most one ``md_step``
call takes — so a cancel lands within one engine call of the reference
engine, and the cap adds no call to it.

EOF on the pipe is the slot's exit signal, whether the server closed it
or died.  Slots are not daemons because a daemon may not have children
and ``backend="parallel"`` jobs fork shard workers.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import multiprocessing.util
import os
import signal
import stat
import warnings

from repro import kernels
from repro.md.simulation import CALL_STEPS
from repro.obs import reset_warnings
from repro.runtime.runner import Runner

__all__ = ["Slot", "SlotLost", "slot_main"]

#: Seconds :meth:`Slot.close` waits for a slot to exit before
#: terminating it.
_REAP_TIMEOUT_S = 5.0


class SlotLost(RuntimeError):
    """A slot process died under its job (its pipe reached EOF)."""


def slot_main(conn, forked: bool) -> None:
    """Entry point of a slot process: serve ``run`` requests until EOF."""
    if forked:  # a spawned child inherits nothing
        # Drop every inherited socket but this pipe.  They are the
        # server's: its ends of this pipe and the siblings' (held here
        # they would hide the server's EOF), the event loop's wake-up
        # pair and, under a respawn, the listening socket and client
        # connections.  Sockets only: the pipes multiprocessing keeps
        # per process (liveness sentinel, resource tracker) must stay.
        for fd in map(int, os.listdir("/dev/fd")):
            try:
                if (fd > 2 and fd != conn.fileno()
                        and stat.S_ISSOCK(os.fstat(fd).st_mode)):
                    os.close(fd)
            except OSError:  # the listing's own descriptor, closed by now
                pass
        # nor may the shard workers a parallel job forks hold the pipe:
        # they outlive a killed slot and would hide its EOF
        os.register_at_fork(after_in_child=conn.close)
    # a terminal's Ctrl-C reaches the whole process group; the server
    # handles it and stops its slots through the pipe
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            kind, job_id, *request = conn.recv()
            if kind != "run":
                continue
            try:
                reply = ("done", *_run(conn, job_id, *request))
            except Exception as exc:  # noqa: BLE001 - job isolation boundary
                reply = ("error", type(exc).__name__, str(exc))
            conn.send(reply)
        except (EOFError, OSError):
            return


def _run(conn, job_id: str, spec, prefix, resume) -> tuple:
    """One job: ``(telemetry dict, reached step)``.

    Every ``min(max(1, spec.steps // 10), CALL_STEPS)`` steps the slot
    streams a progress sample and reads its pipe for a ``stop``.
    """
    # per-job re-arm: an earlier job's fallback must not silence this
    # job's (the warn-once cache is process state that survives fork)
    reset_warnings()
    # ... nor may this job's backend= become the next job's default
    base_backend = kernels.active_backend_name()

    def heed_stop() -> None:
        while conn.poll():
            if conn.recv() == ("stop", job_id):
                runner.request_stop()

    def observer(event) -> None:
        conn.send(("progress", {
            "step": int(event.step),
            "of": int(spec.steps),
            "temperature": round(float(event.state.temperature()), 3),
        }))
        heed_stop()

    with warnings.catch_warnings():
        # every warning crosses the pipe; the server re-issues it under
        # its own filters
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, category, *_: conn.send(
            ("warning", category, str(message))
        )
        try:
            if resume is not None:
                runner = Runner.resume(spec, resume, checkpoint_prefix=prefix)
            else:
                runner = Runner.from_spec(spec, checkpoint_prefix=prefix)
            try:
                heed_stop()  # a cancel that arrived during the build
                every = min(max(1, spec.steps // 10), CALL_STEPS)
                runner.add_observer(every, observer)
                telemetry = runner.run(spec.steps - runner.engine.step_count)
                return telemetry.as_dict(), runner.engine.step_count
            finally:
                runner.close()
        finally:
            kernels.set_backend(base_backend)


class Slot:
    """The server's handle on one slot process.

    Loop-confined like the rest of the scheduler: :meth:`run` waits on
    the pipe through ``loop.add_reader``, so the server needs no thread
    — none to execute or wait for an engine, none alive when it forks.
    """

    def __init__(self, index: int) -> None:
        self.index = index
        self.restarts = 0
        self._spawn()

    def _spawn(self) -> None:
        # imported late: clients and the ledger import this package
        # without ever starting a slot, and the parallel tier is heavy
        from repro.parallel import fork_available

        forked = fork_available()  # the start method ForkMover uses
        ctx = multiprocessing.get_context("fork" if forked else "spawn")
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=slot_main, args=(child_conn, forked)
        )
        self.process.start()
        child_conn.close()
        # interpreter exit joins non-daemonic children: a scheduler
        # nobody closed must not turn that join into a hang
        multiprocessing.util.Finalize(None, self.conn.close, exitpriority=0)

    def ensure_alive(self) -> None:
        """Replace a process that died while idle."""
        if not self.process.is_alive():
            self._respawn()

    def _respawn(self) -> None:
        self.conn.close()
        self.process.kill()  # gone already, or deaf to its pipe
        self.process.join()
        self.restarts += 1
        self._spawn()

    async def run(self, request: tuple, on_event) -> list:
        """Send one ``run`` request; return its ``done`` payload.

        Streamed messages go to ``on_event(kind, *payload)``.  An
        ``error`` reply raises an exception named like the slot-side
        one; a pipe at EOF raises :class:`SlotLost`, after the dead
        process has been reaped and replaced.
        """
        loop = asyncio.get_running_loop()
        reply = loop.create_future()
        fd, pid = self.conn.fileno(), self.process.pid

        def readable() -> None:
            try:
                while not reply.done() and self.conn.poll():
                    kind, *payload = self.conn.recv()
                    if kind == "done":
                        reply.set_result(payload)
                    elif kind == "error":
                        # the "<TypeName>: <message>" a local raise
                        # would have left in job.error
                        name, text = payload
                        failure = type(name, (Exception,), {})
                        reply.set_exception(failure(text))
                    else:
                        on_event(kind, *payload)
            except (EOFError, OSError):
                loop.remove_reader(fd)
                self._respawn()
                reply.set_exception(SlotLost(
                    f"slot {self.index} (pid {pid}) died under the job"
                ))

        loop.add_reader(fd, readable)
        self.send(request)
        try:
            return await reply
        finally:
            loop.remove_reader(fd)

    def send(self, message: tuple) -> None:
        """Best effort: a dead slot's pipe reads EOF, which tells
        :meth:`run` of the loss."""
        try:
            self.conn.send(message)
        except OSError:
            pass

    def close(self) -> None:
        """EOF the pipe, then reap: bounded join, then terminate."""
        self.conn.close()
        self.process.join(timeout=_REAP_TIMEOUT_S)
        if self.process.is_alive():  # pragma: no cover - stuck slot
            self.process.terminate()
            self.process.join(timeout=1.0)
