"""``serve-mix``: the job service driven closed-loop by two client threads.

A ``python -m repro serve`` subprocess with a fresh cache directory; each
client thread keeps one request in flight and walks its own seeded
schedule of cold / hit / resume submissions.  A client draws hits and
resumes only from jobs it completed itself, so the cache class the server
must answer with is known for every request before it is sent.
"""

from __future__ import annotations

import asyncio
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

from host import REPO_ROOT, peak_rss_mib
from md_workloads import Checks
from spans import SpanRecorder, percentile, timed_ms, top_percentile

CLIENTS = 2
SLOTS = 2
STEP_INCREMENT = 100
BLOCK = ("cold",) * 2 + ("hit",) * 6 + ("resume",) * 2  # 20% / 60% / 20%
# what the server reports in job["cache"] for each scheduled class
SERVER_CLASS = {"cold": "miss", "hit": "hit", "resume": "resume"}


@dataclass(frozen=True)
class ServeWorkload:
    spec: dict
    min_requests: int  # per client, always sent
    max_requests: int  # per client, schedule length
    setup_repeats: int
    solo_jobs: int  # traced pass: cold jobs sent by one client alone
    probe_repeats: int


WORKLOAD = ServeWorkload(
    spec={"element": "Ta", "reps": [8, 8, 4], "engine": "reference"},
    min_requests=20, max_requests=4000, setup_repeats=5,
    solo_jobs=8, probe_repeats=20,
)


def smoke_size(wl: ServeWorkload) -> ServeWorkload:
    return replace(
        wl, spec={**wl.spec, "reps": [6, 6, 3]},
        min_requests=10, max_requests=10, setup_repeats=1,  # one whole block
        solo_jobs=2, probe_repeats=3,
    )


def make_schedule(seed: int, client: int, n: int) -> list[tuple[str, int, int]]:
    """``(class, spec_seed, steps)`` for one client, fixed by the seed.

    cold: a spec seed nobody has used, 100 steps.  hit: an exact repeat
    of a job this client completed.  resume: the deepest completed entry
    of one of this client's seeds, 100 steps further — a key that cannot
    exist yet.  Clients own disjoint spec-seed ranges.  Classes come in
    shuffled blocks of ten (2 cold, 6 hit, 2 resume), so the mix is exact
    over any whole number of blocks and the seed moves only the order.
    """
    rng = random.Random(f"serve-mix/{seed}/{client}")
    next_seed = 1_000_000 * (client + 1) + 1_000 * (seed % 1_000)
    completed: list[tuple[int, int]] = []
    deepest: dict[int, int] = {}
    schedule: list[tuple[str, int, int]] = []
    while len(schedule) < n:
        block = list(BLOCK)
        rng.shuffle(block)
        if not schedule:  # nothing to hit or resume before the first cold job
            block.remove("cold")
            block.insert(0, "cold")
        for cls in block:
            if cls == "cold":
                op = (cls, next_seed, STEP_INCREMENT)
                next_seed += 1
            elif cls == "hit":
                op = (cls, *rng.choice(completed))
            else:
                spec_seed = rng.choice(sorted(deepest))
                op = (cls, spec_seed, deepest[spec_seed] + STEP_INCREMENT)
            schedule.append(op)
            if cls != "hit":
                completed.append(op[1:])
                deepest[op[1]] = op[2]
    return schedule[:n]


class Server:
    """One ``repro serve`` subprocess; ``setup_s`` is Popen to first pong."""

    def __init__(self, cache_dir: Path) -> None:
        from repro.serve.api import ServeClient

        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--slots", str(SLOTS), "--cache-dir", str(cache_dir)],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            match = re.search(r"listening on [^:]+:(\d+)", line)
            if match is None:
                raise RuntimeError(f"server did not announce a port: {line!r}")
            self.client = ServeClient(port=int(match.group(1)), timeout=120.0)
            deadline = t0 + 60.0
            while not self.client.ping():
                if time.perf_counter() > deadline:
                    raise RuntimeError("server did not answer a ping in 60 s")
                time.sleep(0.005)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0
        self.cache_dir = cache_dir

    def stop(self) -> None:
        try:
            self.client.shutdown()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()
        finally:
            self.proc.stdout.close()

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()


@dataclass
class Request:
    cls: str
    key: tuple[int, int]
    latency_s: float


def _submit(client, spec: dict, cls: str, spec_seed: int, steps: int,
            stored: dict, failures: list[str]) -> float:
    """One request; checks state, cache class and, for a hit, the result."""
    t0 = time.perf_counter()
    response = client.submit({**spec, "seed": spec_seed}, steps=steps)
    latency = time.perf_counter() - t0
    job = response.get("job") or {}
    result = job.get("result") or {}
    problem = None
    if job.get("state") != "done":
        problem = f"state {job.get('state')!r} ({response.get('error')})"
    elif job.get("cache") != SERVER_CLASS[cls]:
        problem = f"scheduled {cls}, server answered {job.get('cache')!r}"
    elif cls == "hit" and result.get("telemetry") != stored[(spec_seed, steps)]:
        problem = "hit returned telemetry that differs from the stored result"
    if problem is not None:
        failures.append(f"{cls} seed={spec_seed} steps={steps}: {problem}")
    elif cls != "hit":
        stored[(spec_seed, steps)] = result.get("telemetry")
    return latency


def closed_loop(server: Server, wl: ServeWorkload, seed: int, seconds: float,
                rec: SpanRecorder | None):
    """Both clients walk their schedules until ``seconds`` have passed."""
    from repro.serve.api import ServeClient

    schedules = [make_schedule(seed, c, wl.max_requests) for c in range(CLIENTS)]
    requests: list[list[Request]] = [[] for _ in range(CLIENTS)]
    failures: list[str] = []
    ends = [0.0] * CLIENTS
    start = threading.Barrier(CLIENTS + 1)

    span = rec.span if rec else (lambda name: nullcontext())

    def client_loop(c: int) -> None:
        client = ServeClient(port=server.client.port, timeout=120.0)
        stored: dict = {}
        start.wait()
        t_start = time.perf_counter()
        try:
            with span("serve.client.loop"):
                for k, (cls, spec_seed, steps) in enumerate(schedules[c]):
                    if (k >= wl.min_requests
                            and time.perf_counter() - t_start >= seconds):
                        break
                    with span(f"serve.client.{cls}"):
                        latency = _submit(client, wl.spec, cls, spec_seed,
                                          steps, stored, failures)
                    requests[c].append(Request(cls, (spec_seed, steps), latency))
        except Exception as exc:  # a dead client must fail the run, not shorten it
            failures.append(f"client {c} stopped: {type(exc).__name__}: {exc}")
        finally:
            ends[c] = time.perf_counter()

    threads = [threading.Thread(target=client_loop, args=(c,)) for c in range(CLIENTS)]
    for thread in threads:
        thread.start()
    start.wait()
    t0 = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = max(ends) - t0
    return [r for per_client in requests for r in per_client], wall, failures


def _warm_up(server: Server, wl: ServeWorkload) -> None:
    """One job of each class on a reserved seed: lazy imports, first spline build."""
    spec = {**wl.spec, "seed": 999_999_999}
    for steps in (STEP_INCREMENT, STEP_INCREMENT, 2 * STEP_INCREMENT):
        server.client.submit(spec, steps=steps)


def _class_latencies_ms(requests, cls: str) -> list[float]:
    return [r.latency_s * 1e3 for r in requests if r.cls == cls]


def _start_servers(n: int, tmp_dir: Path) -> list[Server]:
    servers = []
    try:
        for k in range(n):
            servers.append(Server(tmp_dir / f"cache-{k}"))
    except BaseException:
        for server in servers:
            server.kill()
        raise
    return servers


def run_end_to_end(wl: ServeWorkload, seed: int, seconds: float, tmp_dir: Path):
    checks = Checks()
    servers = _start_servers(wl.setup_repeats, tmp_dir)
    try:
        for idle in servers[:-1]:
            idle.stop()
        server = servers[-1]
        _warm_up(server, wl)
        requests, loop_s, failures = closed_loop(server, wl, seed, seconds, None)
        stats = server.client.stats()["stats"]
    finally:
        for server in servers:
            if server.proc.poll() is None:
                server.stop()
    checks.attempted += len(requests)
    checks.failures += failures
    computed = sum(r.cls != "hit" for r in requests)
    # Wall-clock seconds, where the MD workloads report calibrated ones
    # (host.HostClock).  The loop's time is the server's while this process
    # idles; sampled here, between server starts and every 0.25 s of the
    # loop, the kernel read the two processes' contention for the cores, not
    # the host: it widened the spread of both times over two sets of ten.
    metrics = {
        # MD steps the service computed (hits compute none) per second
        "steps_per_s": computed * STEP_INCREMENT / loop_s,
        "setup_s": min(s.setup_s for s in servers),
        "peak_rss_mb": peak_rss_mib(),
    }
    details = {
        "samples": {"steps_per_s": len(requests), "setup_s": len(servers)},
        "loop_s": loop_s,
        "setup_seconds": [s.setup_s for s in servers],
        "classes": _class_summary(requests),
        "latencies_ms": {cls: _class_latencies_ms(requests, cls)
                         for cls in SERVER_CLASS},
        "exact": {"cache_evictions": stats["cache"]["evictions"],
                  "class_mismatches": len(failures)},
        "server_stats": stats,
    }
    return metrics, checks, details


def _class_summary(requests) -> dict:
    """Per class: count, median, and the highest percentile the count supports."""
    out = {}
    for cls in SERVER_CLASS:
        ms = _class_latencies_ms(requests, cls)
        top = top_percentile(len(ms))
        out[cls] = {"n": len(ms), "p50_ms": statistics.median(ms),
                    "top_percentile": top, "top_ms": percentile(ms, top)}
    return out


# -- traced pass ------------------------------------------------------------


def _cache_probes(cache_copy: Path, spec_hash: str, steps: int, repeats: int,
                  staging_prefix: Path) -> dict:
    """``ResultCache`` calls timed on a copy of the populated cache dir."""
    from repro.runtime.checkpoint import checkpoint_paths
    from repro.serve.cache import ResultCache

    few = max(3, repeats // 4)
    load_ms = timed_ms(lambda: ResultCache(cache_copy), few)
    cache = ResultCache(cache_copy)
    lookup_ms = timed_ms(lambda: cache.lookup(spec_hash, steps), repeats)
    telemetry_ms = timed_ms(lambda: cache.telemetry(spec_hash, steps), repeats)
    resume_ms = timed_ms(
        lambda: cache.best_resume(spec_hash, steps + STEP_INCREMENT), repeats
    )
    telemetry = cache.telemetry(spec_hash, steps)
    source = checkpoint_paths(cache.prefix(spec_hash, steps))
    put_times = []
    for _ in range(few):
        # put() expects the runner's checkpoint trio staged under a prefix
        for src, dst in zip(source, checkpoint_paths(staging_prefix)):
            shutil.copyfile(src, dst)
        t0 = time.perf_counter()
        cache.put(spec_hash, steps + 7, telemetry, src_prefix=staging_prefix)
        put_times.append(time.perf_counter() - t0)
        cache.evict(spec_hash, steps + 7)
    return {
        "serve.cache.load_index_ms": load_ms,
        "serve.cache.lookup_us": lookup_ms * 1e3,
        "serve.cache.telemetry_us": telemetry_ms * 1e3,
        "serve.cache.best_resume_us": resume_ms * 1e3,
        "serve.cache.put_ms": statistics.median(put_times) * 1e3,
    }


def _scheduler_hit_ms(cache_copy: Path, spec: dict, spec_seed: int,
                      steps: int, repeats: int) -> float:
    """In-process ``JobScheduler.submit`` + ``wait`` on a cached key, no TCP."""
    from repro.runtime.spec import RunSpec
    from repro.serve.cache import ResultCache
    from repro.serve.scheduler import JobScheduler

    run_spec = RunSpec.from_dict({**spec, "seed": spec_seed})

    async def probe() -> float:
        scheduler = JobScheduler(slots=SLOTS, cache=ResultCache(cache_copy))
        times = []
        try:
            for _ in range(repeats):
                t0 = time.perf_counter()
                job = await scheduler.wait(
                    await scheduler.submit(run_spec, steps=steps)
                )
                times.append(time.perf_counter() - t0)
                if job.cache != "hit":
                    raise RuntimeError(f"scheduler probe answered {job.cache!r}")
        finally:
            await scheduler.close()
        return statistics.median(times) * 1e3

    return asyncio.run(probe())


def _bare_job_ms(spec: dict, repeats: int, tmp_dir: Path) -> float:
    """The cold job as an in-process ``Runner`` with a checkpoint prefix."""
    from repro.runtime.runner import Runner
    from repro.runtime.spec import RunSpec

    times = []
    for k in range(repeats):
        run_spec = RunSpec.from_dict(
            {**spec, "seed": 777_000 + k, "steps": STEP_INCREMENT}
        )
        t0 = time.perf_counter()
        runner = Runner.from_spec(run_spec, checkpoint_prefix=tmp_dir / f"bare-{k}")
        try:
            runner.run()
        finally:
            runner.close()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def run_traced(wl: ServeWorkload, seed: int, seconds: float,
               rec: SpanRecorder, tmp_dir: Path):
    """Untraced loop on one server, traced loop on a second, probes on a third."""
    checks = Checks()
    servers = _start_servers(3, tmp_dir)
    plain_server, traced_server, probe_server = servers
    metrics: dict[str, float] = {}
    try:
        for server in servers:
            _warm_up(server, wl)
        half = seconds / 2.0
        plain, plain_wall, plain_failures = closed_loop(
            plain_server, wl, seed, half, None)
        requests, wall, failures = closed_loop(traced_server, wl, seed, half, rec)
        stats = traced_server.client.stats()["stats"]
        cache_stats = stats["cache"]
        ping_ms = timed_ms(probe_server.client.ping, wl.probe_repeats)

        solo = []
        stored: dict = {}
        solo_failures: list[str] = []
        for k in range(wl.solo_jobs):
            solo.append(1e3 * _submit(
                probe_server.client, wl.spec, "cold", 555_000 + k,
                STEP_INCREMENT, stored, solo_failures))
    finally:
        for server in servers:
            server.stop()
    checks.attempted += len(plain) + len(requests) + len(solo)
    checks.failures += plain_failures + failures + solo_failures

    cold = _class_latencies_ms(requests, "cold")
    hit = _class_latencies_ms(requests, "hit")
    resume = _class_latencies_ms(requests, "resume")
    computed_s = (sum(cold) + sum(resume)) / 1e3
    solo_ms = statistics.median(solo)
    bare_ms = _bare_job_ms(wl.spec, max(3, wl.solo_jobs // 2), tmp_dir)

    # a populated cache to probe: the traced server's, copied after it exited
    cache_copy = tmp_dir / "cache-copy"
    shutil.copytree(traced_server.cache_dir, cache_copy)
    from repro.runtime.spec import RunSpec

    first = next(r for r in requests if r.cls == "cold")
    spec_hash = RunSpec.from_dict({**wl.spec, "seed": first.key[0]}).spec_hash()
    metrics.update(_cache_probes(
        cache_copy, spec_hash, first.key[1], wl.probe_repeats,
        tmp_dir / "put-staging",
    ))
    metrics.update({
        "ledger.traced_ops": len(requests),
        "ledger.untraced_ops_per_s": len(plain) / plain_wall,
        "ledger.trace_overhead_pct":
            ((len(plain) / plain_wall) / (len(requests) / wall) - 1.0) * 100.0,
        "serve.api.ping_ms_p50": ping_ms,
        "serve.scheduler.hit_ms_p50": _scheduler_hit_ms(
            cache_copy, wl.spec, *first.key, wl.probe_repeats),
        "serve.scheduler.cold_solo_ms_p50": solo_ms,
        "serve.scheduler.contention_ratio": statistics.median(cold) / solo_ms,
        "serve.scheduler.slot_utilisation": computed_s / (SLOTS * wall),
        "serve.tax_ms": solo_ms - bare_ms,
        "runtime.bare_job_ms": bare_ms,
        "serve.cache.entries": cache_stats["entries"],
        "serve.cache.bytes": cache_stats["bytes"],
        "serve.cache.hit_ratio":
            cache_stats["hits"] / (cache_stats["hits"] + cache_stats["misses"]),
        "serve.cache.resumes": cache_stats["resumes"],
        "serve.cache.evictions": cache_stats["evictions"],
        "serve.client.requests": len(requests),
        "serve.client.class_mismatches": len(failures),
        "serve.client.jobs_per_s": len(requests) / wall,
        "serve.client.cold_ms_p50": statistics.median(cold),
        "serve.client.hit_ms_p50": statistics.median(hit),
        "serve.client.resume_ms_p50": statistics.median(resume),
        "serve.client.hit_ms_p95": percentile(hit, 95.0),
        "serve.client.cold_ms_p85": percentile(cold, 85.0),
        "serve.client.resume_ms_p85": percentile(resume, 85.0),
    })
    details = {"classes": _class_summary(requests), "wall_s": wall,
               "server_stats": stats}
    return metrics, checks, details
