"""The JSON-lines TCP API: ops, exit-code mapping, event streaming.

Each test runs a real server on an ephemeral port and talks to it
with the blocking :class:`ServeClient` from an executor thread —
exactly how the CLI uses it.
"""

import asyncio
import json
import socket

import pytest

from repro.runtime import RunSpec
from repro.serve import (
    JobScheduler,
    ResultCache,
    ServeClient,
    ServeServer,
)

SPEC = RunSpec(
    element="Ta", reps=(3, 3, 2), temperature=120.0, seed=8,
    engine="reference", steps=3,
)


def _with_server(tmp_path, fn, **scheduler_kwargs):
    """Run ``fn(client)`` in a thread against a live server."""
    scheduler_kwargs.setdefault("cache", ResultCache(tmp_path / "cache"))

    async def body():
        scheduler = JobScheduler(**scheduler_kwargs)
        server = ServeServer(scheduler, port=0)
        await server.start()
        client = ServeClient(port=server.port, timeout=120.0)
        try:
            return await asyncio.get_running_loop().run_in_executor(
                None, fn, client
            )
        finally:
            await server.close()
            await scheduler.close()

    return asyncio.run(body())


class TestOps:
    def test_ping(self, tmp_path):
        assert _with_server(tmp_path, lambda c: c.ping()) is True

    def test_ping_dead_server_is_false(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        assert ServeClient(port=free_port, timeout=2.0).ping() is False

    def test_submit_roundtrip(self, tmp_path):
        response = _with_server(
            tmp_path, lambda c: c.submit(SPEC.to_dict())
        )
        assert response["ok"]
        job = response["job"]
        assert job["state"] == "done"
        assert job["cache"] == "miss"
        assert job["result"]["telemetry"]["steps"] == 3

    def test_second_submit_is_a_hit(self, tmp_path):
        def both(client):
            client.submit(SPEC.to_dict())
            return client.submit(SPEC.to_dict())

        assert _with_server(tmp_path, both)["job"]["cache"] == "hit"

    def test_longer_submit_resumes(self, tmp_path):
        def both(client):
            client.submit(SPEC.to_dict())
            return client.submit(SPEC.to_dict(), steps=7)

        job = _with_server(tmp_path, both)["job"]
        assert job["cache"] == "resume"
        assert job["resume_step"] == 3
        assert job["result"]["telemetry"]["serve"]["resume_step"] == 3

    def test_jobs_listing_drops_result_payload(self, tmp_path):
        def run(client):
            client.submit(SPEC.to_dict())
            return client.jobs()

        listing = _with_server(tmp_path, run)["jobs"]
        assert len(listing) == 1
        assert "result" not in listing[0]
        assert listing[0]["state"] == "done"

    def test_status_and_unknown_job(self, tmp_path):
        def run(client):
            job_id = client.submit(SPEC.to_dict())["job"]["id"]
            return client.status(job_id), client.status("j9999")

        found, missing = _with_server(tmp_path, run)
        assert found["ok"] and found["job"]["log"]
        assert not missing["ok"] and "no such job" in missing["error"]

    def test_stats_include_cache_counters(self, tmp_path):
        def run(client):
            client.submit(SPEC.to_dict())
            client.submit(SPEC.to_dict())
            return client.stats()

        stats = _with_server(tmp_path, run)["stats"]
        assert stats["states"] == {"done": 2}
        assert stats["cache"]["hits"] == 1

    def test_ensemble_submit(self, tmp_path):
        response = _with_server(
            tmp_path,
            lambda c: c.submit(SPEC.to_dict(), replicas=2),
        )
        assert len(response["jobs"]) == 2
        seeds = {j["spec_hash"] for j in response["jobs"]}
        assert len(seeds) == 2


class TestErrors:
    @pytest.mark.parametrize("spec, complaint", [
        ({"element": "Unobtanium"}, "unknown element"),
        # a field that no longer exists is an unknown key like any other
        ({"element": "Ta", "fuse_integrate": True}, "unknown spec keys"),
    ])
    def test_bad_spec_maps_to_code_2(self, tmp_path, spec, complaint):
        response = _with_server(tmp_path, lambda c: c.submit(spec))
        assert not response["ok"]
        assert response["code"] == 2
        assert "invalid run spec" in response["error"]
        assert complaint in response["error"]

    def test_bad_sweep_field_maps_to_code_2(self, tmp_path):
        response = _with_server(
            tmp_path,
            lambda c: c.submit(
                SPEC.to_dict(), replicas=1, sweep={"no_such_field": [1]}
            ),
        )
        assert not response["ok"]
        assert response["code"] == 2

    def test_unknown_op(self, tmp_path):
        response = _with_server(
            tmp_path, lambda c: c.request({"op": "explode"})
        )
        assert not response["ok"]
        assert "unknown op" in response["error"]

    def test_malformed_json_line(self, tmp_path):
        def run(client):
            with socket.create_connection(
                (client.host, client.port), timeout=30
            ) as conn:
                conn.sendall(b"{not json\n")
                return json.loads(conn.makefile().readline())

        response = _with_server(tmp_path, run)
        assert not response["ok"]
        assert "bad request" in response["error"]

    def test_overlong_frame_is_answered_not_dropped(self, tmp_path, caplog):
        """A request line past the reader's limit used to raise out of
        the handler: the client saw ECONNRESET, the server logged an
        unhandled traceback."""
        def run(client):
            with socket.create_connection(
                (client.host, client.port), timeout=30
            ) as conn:
                frame = json.dumps({"op": "ping", "pad": "x" * 200_000})
                conn.sendall(frame.encode() + b"\n")
                reply = json.loads(conn.makefile().readline())
            return reply, client.ping()

        with caplog.at_level("ERROR", logger="asyncio"):
            reply, alive = _with_server(tmp_path, run)
        assert reply == {
            "ok": False, "code": 1,
            "error": "bad request: frame exceeds 65536 bytes",
        }
        assert alive
        assert not caplog.records


class TestWatch:
    def test_watch_streams_events_then_result(self, tmp_path):
        events = []

        def run(client):
            return client.submit(
                SPEC.to_dict(), watch=True, on_event=events.append
            )

        response = _with_server(tmp_path, run)
        assert response["ok"] and response["job"]["state"] == "done"
        kinds = {e["kind"] for e in events}
        assert "state" in kinds and "progress" in kinds
        # the samples are taken inside the slot and cross its pipe
        progress = [e["payload"] for e in events if e["kind"] == "progress"]
        assert all(p["temperature"] > 0 and p["of"] == 3 for p in progress)
        states = [
            e["payload"]["state"] for e in events if e["kind"] == "state"
        ]
        assert states[-1] == "done"

    def test_cancel_op_on_done_job(self, tmp_path):
        def run(client):
            job_id = client.submit(SPEC.to_dict())["job"]["id"]
            return client.cancel(job_id)

        response = _with_server(tmp_path, run)
        assert response["ok"] and response["cancelled"] is False


def test_shutdown_op_stops_serve_loop(tmp_path):
    async def body():
        scheduler = JobScheduler(cache=None)
        server = ServeServer(scheduler, port=0)
        await server.start()
        client = ServeClient(port=server.port, timeout=30.0)
        loop = asyncio.get_running_loop()
        serve_task = asyncio.create_task(server.serve_until_shutdown())
        response = await loop.run_in_executor(None, client.shutdown)
        await asyncio.wait_for(serve_task, timeout=30)
        return response

    response = asyncio.run(body())
    assert response["ok"] and response["stopping"]


def test_cli_submit_and_jobs_against_live_server(tmp_path, capsys):
    """The repro submit / repro jobs commands, end to end."""
    from repro.cli import main

    async def body():
        scheduler = JobScheduler(cache=ResultCache(tmp_path / "cache"))
        server = ServeServer(scheduler, port=0)
        await server.start()
        loop = asyncio.get_running_loop()

        def cli_calls():
            argv = ["submit", "--port", str(server.port),
                    "--element", "Ta", "--reps", "3", "3", "2",
                    "--steps", "3", "--engine", "reference",
                    "--temperature", "120", "--seed", "8"]
            first = main(argv)
            second = main(argv)
            listing = main(["jobs", "--port", str(server.port)])
            stats = main(["jobs", "--port", str(server.port), "--stats"])
            return first, second, listing, stats

        try:
            return await loop.run_in_executor(None, cli_calls)
        finally:
            await server.close()
            await scheduler.close()

    first, second, listing, stats = asyncio.run(body())
    assert (first, second, listing, stats) == (0, 0, 0, 0)
    out = capsys.readouterr().out
    assert "cache=miss" in out
    assert "cache=hit" in out
    assert "1 hits" in out
    stats_line = next(ln for ln in out.splitlines() if ln.startswith("slots:"))
    assert "slot_pids: [" in stats_line
    assert "slots_busy: 0, slot_restarts: 0" in stats_line
