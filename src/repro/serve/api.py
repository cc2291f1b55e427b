"""The serve wire protocol: a JSON-lines TCP API over the scheduler.

One request per connection, newline-delimited JSON both ways.  The
request is an object with an ``op`` plus op-specific fields; the
response is ``{"ok": true, ...}`` or ``{"ok": false, "error": ...,
"code": ...}`` where ``code`` mirrors the CLI's exit codes (2 for a
malformed spec, 1 for anything else).

Ops
---
``ping``
    Liveness probe.
``submit``
    ``spec`` (a :meth:`RunSpec.to_dict` mapping), optional ``steps``
    override (an integer or null), ``replicas`` (an integer >= 1) and
    ``sweep`` (a spec field -> list of values) for ensembles, ``wait``
    (default true) to block until terminal, ``watch`` to stream each
    :class:`~repro.serve.events.JobEvent` as an interim
    ``{"event": ...}`` line before the final response.
``jobs`` / ``status`` / ``cancel``
    The job table, one job by id, and cancellation.
``stats``
    Scheduler snapshot: slots (pids, busy, restarts), job states,
    cache counters.
``shutdown``
    Acknowledge, then stop the server loop.

:class:`ServeClient` is the blocking counterpart used by the
``repro submit`` / ``repro jobs`` commands and tests — plain sockets,
no asyncio required in the caller.
"""

from __future__ import annotations

import asyncio
import json
import socket
import sys

from repro.runtime.spec import RunSpec, SpecError
from repro.serve.queue import Job
from repro.serve.scheduler import JobScheduler

__all__ = ["ServeServer", "ServeClient", "run_server"]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7421
#: Longest request line (bytes) the server reads; a longer frame is
#: answered with an error instead of being buffered without bound.
FRAME_LIMIT = 2**16


class ServeServer:
    """Asyncio TCP front-end for one :class:`JobScheduler`."""

    def __init__(
        self,
        scheduler: JobScheduler,
        *,
        host: str = DEFAULT_HOST,
        port: int = 0,
    ) -> None:
        self.scheduler = scheduler
        self.host = host
        self._requested_port = port
        self._server: asyncio.Server | None = None
        self.shutdown_requested = asyncio.Event()

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self._requested_port, limit=FRAME_LIMIT
        )

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_until_shutdown(self) -> None:
        """Run until a ``shutdown`` op arrives, then drain the scheduler."""
        if self._server is None:
            await self.start()
        await self.shutdown_requested.wait()
        await self.close()
        await self.scheduler.close()

    # -- connection handling -----------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                line = await reader.readline()
                if not line:
                    return
                request = json.loads(line)
            except ValueError as exc:
                # malformed JSON; any other ValueError is readline's
                # LimitOverrunError: no newline within the limit
                if not isinstance(exc, json.JSONDecodeError):
                    exc = f"frame exceeds {FRAME_LIMIT} bytes"
                await self._send(writer, {
                    "ok": False, "error": f"bad request: {exc}", "code": 1,
                })
                return
            await self._dispatch(request, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-response; nothing to salvage
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _send(self, writer: asyncio.StreamWriter, obj: dict) -> None:
        writer.write(json.dumps(obj).encode() + b"\n")
        await writer.drain()

    async def _dispatch(
        self, request: dict, writer: asyncio.StreamWriter
    ) -> None:
        op = request.get("op")
        if op == "ping":
            await self._send(writer, {"ok": True, "pong": True})
        elif op == "submit":
            await self._op_submit(request, writer)
        elif op == "jobs":
            await self._send(writer, {
                "ok": True,
                "jobs": [
                    self._summary(job) for job in self.scheduler.jobs.all()
                ],
            })
        elif op == "status":
            job = self.scheduler.jobs.get(str(request.get("id")))
            if job is None:
                await self._send(writer, {
                    "ok": False,
                    "error": f"no such job {request.get('id')!r}",
                    "code": 1,
                })
            else:
                await self._send(writer, {"ok": True, "job": job.as_dict()})
        elif op == "cancel":
            cancelled = await self.scheduler.cancel(str(request.get("id")))
            await self._send(writer, {"ok": True, "cancelled": cancelled})
        elif op == "stats":
            await self._send(
                writer, {"ok": True, "stats": self.scheduler.snapshot()}
            )
        elif op == "shutdown":
            await self._send(writer, {"ok": True, "stopping": True})
            self.shutdown_requested.set()
        else:
            await self._send(writer, {
                "ok": False, "error": f"unknown op {op!r}", "code": 1,
            })

    @staticmethod
    def _summary(job: Job) -> dict:
        out = job.as_dict()
        out.pop("result", None)  # keep the listing line-sized
        return out

    async def _op_submit(
        self, request: dict, writer: asyncio.StreamWriter
    ) -> None:
        try:
            spec = RunSpec.from_dict(request.get("spec") or {})
            steps, replicas, sweep = _submit_fields(request)
        except SpecError as exc:
            await self._send(writer, {
                "ok": False, "error": f"invalid run spec: {exc}", "code": 2,
            })
            return
        watch = bool(request.get("watch"))
        wait = bool(request.get("wait", True)) or watch

        sub = self.scheduler.bus.subscribe() if watch else None
        try:
            if replicas > 1 or sweep:
                jobs = await self.scheduler.submit_ensemble(
                    spec, replicas=replicas, sweep=sweep, steps=steps
                )
            else:
                jobs = [await self.scheduler.submit(spec, steps=steps)]
            pending = {job.id for job in jobs if not job.terminal}
            if watch:
                while pending:
                    event = await sub.get()
                    if event.job_id not in {j.id for j in jobs}:
                        continue
                    await self._send(writer, {"event": event.as_dict()})
                    if (
                        event.kind == "state"
                        and self.scheduler.jobs.get(event.job_id).terminal
                    ):
                        pending.discard(event.job_id)
            elif wait:
                for job in jobs:
                    await self.scheduler.wait(job)
        except SpecError as exc:
            await self._send(writer, {
                "ok": False, "error": f"invalid run spec: {exc}", "code": 2,
            })
            return
        finally:
            if sub is not None:
                sub.close()
        payload = {"ok": True, "jobs": [job.as_dict() for job in jobs]}
        if len(jobs) == 1:
            payload["job"] = payload["jobs"][0]
        await self._send(writer, payload)


def _whole(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _submit_fields(request: dict) -> tuple:
    """A submit's ``(steps, replicas, sweep)``; :class:`SpecError`
    names the first that is malformed."""
    steps, sweep = request.get("steps"), request.get("sweep") or None
    replicas = request.get("replicas")
    replicas = 1 if replicas is None else replicas
    if steps is not None and not _whole(steps):
        raise SpecError(f"steps must be an integer or null, got {steps!r}")
    if not _whole(replicas) or replicas < 1:
        raise SpecError(f"replicas must be an integer >= 1, got {replicas!r}")
    if sweep is not None and not (
        isinstance(sweep, dict)
        and all(isinstance(v, list) for v in sweep.values())
    ):
        raise SpecError(
            f"sweep must map spec fields to lists of values, got {sweep!r}"
        )
    return steps, replicas, sweep


class ServeClient:
    """Blocking JSON-lines client (one connection per request)."""

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        *,
        timeout: float = 600.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    def request(self, payload: dict, *, on_event=None) -> dict:
        """Send one request; interim ``{"event": ...}`` lines go to
        ``on_event``, the final response is returned."""
        with socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        ) as conn:
            conn.sendall(json.dumps(payload).encode() + b"\n")
            with conn.makefile("r", encoding="utf-8") as fh:
                for line in fh:
                    obj = json.loads(line)
                    if "event" in obj and "ok" not in obj:
                        if on_event is not None:
                            on_event(obj["event"])
                        continue
                    return obj
        raise ConnectionError("server closed the stream without a response")

    # -- convenience ops ---------------------------------------------------

    def ping(self) -> bool:
        try:
            return bool(self.request({"op": "ping"}).get("pong"))
        except OSError:
            return False

    def submit(
        self,
        spec: dict,
        *,
        steps: int | None = None,
        replicas: int = 1,
        sweep: dict | None = None,
        wait: bool = True,
        watch: bool = False,
        on_event=None,
    ) -> dict:
        payload = {
            "op": "submit", "spec": spec, "wait": wait, "watch": watch,
        }
        if steps is not None:
            payload["steps"] = int(steps)
        if replicas != 1:
            payload["replicas"] = int(replicas)
        if sweep:
            payload["sweep"] = sweep
        return self.request(payload, on_event=on_event)

    def jobs(self) -> dict:
        return self.request({"op": "jobs"})

    def status(self, job_id: str) -> dict:
        return self.request({"op": "status", "id": job_id})

    def cancel(self, job_id: str) -> dict:
        return self.request({"op": "cancel", "id": job_id})

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})


def run_server(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    *,
    slots: int = 2,
    cache_dir: str | None = None,
    cache_bytes: int = 2 * 1024**3,
) -> int:
    """Blocking entry point: serve until a ``shutdown`` op arrives.

    Once listening, prints ``repro serve: listening on HOST:PORT ...``
    to stdout and flushes it, so a supervisor reading a pipe learns a
    ``port=0`` server's port at once.  Returns the exit code: 0, or 2
    after one ``error:`` line on stderr when ``slots`` or
    ``cache_bytes`` is out of range (before any slot forks).
    """
    from repro.serve.cache import ResultCache

    async def _serve() -> int:
        try:
            cache = (
                ResultCache(cache_dir, max_bytes=cache_bytes)
                if cache_dir
                else None
            )
            # the slots fork here, before a listener or connection exists
            scheduler = JobScheduler(slots=slots, cache=cache)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        server = ServeServer(scheduler, host=host, port=port)
        await server.start()
        print(
            f"repro serve: listening on {host}:{server.port} "
            f"({slots} slot{'s' if slots != 1 else ''}, "
            f"cache {cache_dir or 'off'})",
            flush=True,
        )
        await server.serve_until_shutdown()
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        return 0
