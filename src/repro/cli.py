"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Machine configuration and benchmark-element summary.
``run``
    Run a thin-slab simulation through the unified runtime — from CLI
    flags or a declarative ``--spec`` TOML/JSON file — with optional
    checkpointing (``--checkpoint``) and resume (``--resume``).
    ``run``, ``submit``, ``validate`` and ``profile`` all take the same
    generated spec flags (:func:`add_spec_flags`): one per
    :class:`~repro.runtime.RunSpec` field, each overriding the file.
``serve``
    Start the job server (:mod:`repro.serve`): a bounded pool of
    slot processes behind a JSON-lines TCP API, with an on-disk result
    cache keyed by ``(spec_hash, n_steps)`` — identical submissions
    return the stored telemetry, longer ones resume from the stored
    checkpoint.  Once listening it prints (and flushes) ``repro serve:
    listening on HOST:PORT``.  A running job streams progress and heeds
    ``jobs --cancel`` every tenth of its steps, at most every 1,024.
``submit``
    Submit a run (or a ``--replicas``/``--sweep`` ensemble) to a
    running server and wait for — or ``--watch`` — the result.
``jobs``
    List a server's job table; ``--cancel``, ``--stats``,
    ``--shutdown``.
``validate``
    Run the same workload through both engines and report trajectory
    equivalence with a pass/fail exit code.
``table1`` / ``table5`` / ``table6`` / ``fig1``
    Print quick reproductions of the corresponding paper artifacts
    (the full harness lives in ``benchmarks/``).
``bench``
    Time the :data:`repro.bench.CASES` table (or ``--cases NAME...``),
    append the run to ``BENCH_kernels.json``'s history, and optionally
    gate against a baseline report (see ``repro.bench``).
``profile``
    Run one workload under phase tracing on both engines: write a JSONL
    trace, print the per-phase summary tables, and (``--check``) verify
    the trace parses, every taxonomy phase appears, the phases cover
    >= 95 % of wall time, and the lockstep engine's traced cycles
    regress to the cycle model's (A, B, C) calibration targets.

Exit codes: 0 success, :data:`EXIT_RUN_FAILED` (1) for a run/validation
failure, :data:`EXIT_BAD_SPEC` (2) for a malformed or inconsistent spec
— including a ``--resume`` prefix whose checkpoint is missing, torn, or
physics-incompatible (the *request* is unusable, nothing was run).
"""

from __future__ import annotations

import argparse
import os
import sys

EXIT_OK = 0
EXIT_RUN_FAILED = 1
EXIT_BAD_SPEC = 2


def _cmd_info(args) -> int:
    from repro.potentials.elements import ELEMENTS
    from repro.wse.machine import WSE2
    from repro.io.table_io import Table

    print(f"{WSE2.name}: {WSE2.usable_cores:,} cores on a "
          f"{WSE2.grid_x}x{WSE2.grid_y} mesh, "
          f"{WSE2.sram_per_tile // 1024} kB SRAM/tile, "
          f"{WSE2.peak_flops_fp32 / 1e15:.2f} PFLOP/s FP32 "
          f"({WSE2.clock_hz / 1e6:.0f} MHz), {WSE2.power_watts / 1000:.0f} kW")
    table = Table(
        "benchmark elements (paper Table I workloads)",
        ["element", "structure", "a0 (A)", "cutoff (A)", "b",
         "candidates", "interactions", "atoms"],
    )
    for el in ELEMENTS.values():
        table.add_row(
            el.symbol, el.cell.name, el.lattice_constant,
            f"{el.cutoff:.2f}", el.neighborhood_b, el.candidates,
            el.interactions, el.n_atoms_table1,
        )
    table.print()
    return 0


#: What each spec-taking command runs when neither ``--spec`` nor a flag
#: says otherwise, as overrides of :class:`RunSpec`'s own defaults
#: (pinned by ``tests/test_cli.py``).  ``profile --quick`` swaps every
#: 10 steps so the swap phase fires inside its 30-step run.
RUN_DEFAULTS = {"engine": "wse"}
VALIDATE_DEFAULTS = {"reps": (4, 4, 2), "steps": 10, "temperature": 150.0}
PROFILE_QUICK_DEFAULTS = {"reps": (5, 5, 2), "steps": 30, "swap_interval": 10}


def add_spec_flags(parser: argparse.ArgumentParser, defaults: dict) -> None:
    """``--spec`` plus one generated flag per :class:`RunSpec` field.

    Flag name, type, choices and help all come from the field's
    declaration.  Every flag defaults to ``None`` — "not typed" — so
    :func:`spec_from_args` overrides exactly what the user asked for;
    ``defaults`` (the command's own) ride along on the namespace.
    ``thermostat`` is a nested table and stays spec-file only.
    """
    from dataclasses import fields

    from repro.runtime.spec import RunSpec

    parser.set_defaults(spec_defaults=defaults)
    group = parser.add_argument_group(
        "run spec",
        "One flag per RunSpec field.  A typed flag overrides --spec FILE, "
        "which replaces this command's defaults: RunSpec's own"
        + "".join(f", {k} {v}" for k, v in defaults.items()) + ".",
    )
    group.add_argument("--spec", default=None, metavar="FILE",
                       help="declarative RunSpec file (.toml or .json)")
    for f in fields(RunSpec):
        if f.name == "thermostat":
            continue
        kwargs = {"dest": f.name, "default": None, "help": f.metadata["help"]}
        if isinstance(f.default, bool):
            kwargs["action"] = argparse.BooleanOptionalAction
        elif isinstance(f.default, tuple):
            kwargs.update(type=int, nargs=len(f.default))
        else:
            # unset-by-default fields (backend, topology "PXxPY",
            # transport) are strings RunSpec parses itself
            kwargs["type"] = str if f.default is None else type(f.default)
            kwargs["choices"] = f.metadata.get("choices")
        group.add_argument("--" + f.name.replace("_", "-"), **kwargs)


def spec_from_args(args):
    """The one resolution order: file or command defaults, then flags.

    ``RunSpec.from_file(--spec)`` if given, else ``RunSpec`` with the
    command's defaults; then every flag the user typed replaces its
    field, re-running validation (a bad combination is a
    :class:`~repro.runtime.SpecError` either way).
    """
    from dataclasses import fields, replace

    from repro.runtime.spec import RunSpec

    base = (RunSpec.from_file(args.spec) if args.spec
            else RunSpec(**args.spec_defaults))
    typed = {f.name: getattr(args, f.name) for f in fields(RunSpec)
             if getattr(args, f.name, None) is not None}
    return replace(base, **typed)


def _report_run(runner, spec) -> int:
    from repro.kernels import active_backend_name

    engine = runner.engine
    start = engine.step_count
    if engine.name == "wse":
        sim = engine.sim
        print(f"{sim.n_atoms} {spec.element} atoms on "
              f"{sim.grid.nx}x{sim.grid.ny} cores, b={sim.b}, "
              f"C(g)={sim.assignment_cost():.2f} A")
        runner.run()
        n = engine.step_count - start
        out = engine.state
        if n > 0:
            cand, inter = sim.mean_counts()
            threads = sim.sweep_threads
            print(f"after {n} steps: T={out.temperature():.0f} K, "
                  f"mean work {cand:.0f} cand / {inter:.1f} int per atom "
                  f"({active_backend_name()} kernels, {threads} sweep "
                  f"thread{'s' if threads > 1 else ''})")
            print(f"modeled WSE-2 rate: "
                  f"{sim.measured_rate():,.0f} timesteps/s")
        else:
            # resuming a run that already reached its target is a no-op
            print(f"after 0 steps: T={out.temperature():.0f} K "
                  f"(already at step {engine.step_count})")
        if spec.swap_interval:
            print(f"swaps performed: {sim.swap_count}")
    else:
        e0 = engine.total_energy()
        telemetry = runner.run()
        n = engine.step_count - start
        e1 = engine.total_energy()
        state = engine.state
        c = telemetry.counters
        layout = (f", sharded {c['topology'][0]}x{c['topology'][1]} over "
                  f"{c['transport']}" if "workers" in c else "")
        print(f"{state.n_atoms} {spec.element} atoms, reference engine "
              f"({active_backend_name()} kernels{layout})")
        print(f"after {n} steps: T={state.temperature():.0f} K, "
              f"energy drift {abs(e1 - e0) / state.n_atoms:.2e} eV/atom")
        ph = telemetry.phase_seconds
        print(f"loop stats: {telemetry.steps_per_s:.2f} steps/s, "
              f"{telemetry.counters['neighbor_rebuilds']} rebuilds, "
              f"{telemetry.counters['pairs_per_step']:,.0f} pairs/step; "
              f"wall {telemetry.wall_time_s:.2f} s = "
              f"neighbor {ph['neighbor']:.2f} + "
              f"force {ph['force']:.2f} + "
              f"integrate {ph['integrate']:.2f}")
    if runner.checkpoint_prefix is not None:
        print(f"checkpoint written: {runner.checkpoint_prefix}")
    return EXIT_OK


def _cmd_run(args) -> int:
    from repro.runtime import CheckpointError, Runner

    spec = spec_from_args(args)
    try:
        if args.resume:
            runner = Runner.resume(
                spec, args.resume, checkpoint_prefix=args.checkpoint
            )
        else:
            runner = Runner.from_spec(
                spec, checkpoint_prefix=args.checkpoint
            )
    except CheckpointError as exc:
        # a missing/torn/mismatched --resume checkpoint means the
        # request itself is unusable — bad input (2), not a run
        # failure (1); nothing was computed
        print(f"error: cannot resume: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    except Exception as exc:
        print(f"error: run failed: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILED
    try:
        try:
            return _report_run(runner, spec)
        finally:
            runner.close()
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILED
    except Exception as exc:
        print(f"error: run failed: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILED


def _cmd_serve(args) -> int:
    from repro.serve import run_server

    return run_server(
        args.host,
        args.port,
        slots=args.slots,
        cache_dir=args.cache_dir,
        cache_bytes=args.cache_bytes,
    )


def _describe_served_job(job: dict, verbose: bool = True) -> None:
    line = (f"{job['id']}: {job['state']}  {job['element']} "
            f"{tuple(job['reps'])} x {job['steps']} steps "
            f"[{job['engine']}]")
    if job.get("cache"):
        line += f"  cache={job['cache']}"
    if job.get("resume_step"):
        line += f" (resumed at step {job['resume_step']})"
    if job.get("coalesced"):
        line += f"  coalesced={job['coalesced']}"
    if job.get("ensemble"):
        line += f"  ensemble={job['ensemble']}"
    print(line)
    if job.get("error"):
        print(f"  error: {job['error']}")
    if verbose:
        for entry in job.get("log") or []:
            print(f"  | {entry}")


def _cmd_submit(args) -> int:
    from repro.serve import ServeClient

    spec = spec_from_args(args)
    sweep = None
    if args.sweep:
        name, _, values = args.sweep.partition("=")
        if not values:
            print("error: --sweep expects FIELD=V1,V2,...", file=sys.stderr)
            return EXIT_BAD_SPEC
        sweep = {name: [_parse_sweep_value(v) for v in values.split(",")]}
    client = ServeClient(args.host, args.port, timeout=args.timeout)

    def on_event(event) -> None:
        kind, payload = event["kind"], event["payload"]
        if kind == "progress":
            temp = payload.get("temperature")
            suffix = f"  T={temp:.0f} K" if temp is not None else ""
            print(f"{event['job_id']}: step {payload['step']}"
                  f"/{payload['of']}{suffix}")
        elif kind == "state":
            print(f"{event['job_id']}: -> {payload['state']}")
        elif kind == "log":
            print(f"{event['job_id']}: {payload['line']}")

    try:
        response = client.submit(
            spec.to_dict(),
            replicas=args.replicas,
            sweep=sweep,
            wait=not args.no_wait,
            watch=args.watch,
            on_event=on_event if args.watch else None,
        )
    except OSError as exc:
        print(f"error: cannot reach server at {args.host}:{args.port}: "
              f"{exc}", file=sys.stderr)
        return EXIT_RUN_FAILED
    if not response.get("ok"):
        print(f"error: {response.get('error')}", file=sys.stderr)
        return int(response.get("code") or EXIT_RUN_FAILED)
    failed = False
    for job in response["jobs"]:
        _describe_served_job(job, verbose=not args.watch)
        if job["state"] == "failed":
            failed = True
    return EXIT_RUN_FAILED if failed else EXIT_OK


def _parse_sweep_value(text: str):
    """Best-effort typing for --sweep values (int, float, or string)."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _cmd_jobs(args) -> int:
    from repro.serve import ServeClient

    client = ServeClient(args.host, args.port, timeout=args.timeout)
    try:
        if args.cancel:
            response = client.cancel(args.cancel)
            print(f"{args.cancel}: "
                  f"{'cancelled' if response.get('cancelled') else 'not cancellable'}")
            return EXIT_OK
        if args.shutdown:
            client.shutdown()
            print("server stopping")
            return EXIT_OK
        if args.stats:
            stats = client.stats()["stats"]
            print(f"slots: {stats['slots']}, "
                  f"slot_pids: {stats['slot_pids']}, "
                  f"slots_busy: {stats['slots_busy']}, "
                  f"slot_restarts: {stats['slot_restarts']}, "
                  f"jobs: {stats['jobs']}, states: {stats['states']}")
            cache = stats.get("cache")
            if cache:
                print(f"cache: {cache['entries']} entries, "
                      f"{cache['bytes']:,} bytes "
                      f"(cap {cache['max_bytes']:,}); "
                      f"{cache['hits']} hits, {cache['misses']} misses, "
                      f"{cache['resumes']} resumes, "
                      f"{cache['evictions']} evictions")
            return EXIT_OK
        response = client.jobs()
    except OSError as exc:
        print(f"error: cannot reach server at {args.host}:{args.port}: "
              f"{exc}", file=sys.stderr)
        return EXIT_RUN_FAILED
    jobs = response.get("jobs", [])
    if not jobs:
        print("no jobs")
        return EXIT_OK
    for job in jobs:
        _describe_served_job(job, verbose=args.verbose)
    return EXIT_OK


def _cmd_validate(args) -> int:
    from repro.core.validate import validate_spec
    from repro.runtime import SpecError

    spec = spec_from_args(args)
    try:
        comparison, passed = validate_spec(
            spec, tol_pos=args.tol_pos, tol_energy=args.tol_energy
        )
    except SpecError:
        # the spec cannot run on one of the two engines: main() reports it
        raise
    except Exception as exc:
        print(f"error: validation run failed: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILED
    print(f"trajectory equivalence: reference vs wse, {spec.element} "
          f"{spec.reps}, {comparison.n_steps} steps")
    print(f"  max position deviation: {comparison.max_position_error:.3e} A "
          f"(tol {args.tol_pos:g})")
    print(f"  max velocity deviation: {comparison.max_velocity_error:.3e} "
          f"A/ps")
    print(f"  potential energy deviation: {comparison.energy_error:.3e} eV "
          f"(tol {args.tol_energy:g})")
    print("PASS" if passed else "FAIL")
    return EXIT_OK if passed else EXIT_RUN_FAILED


def _cmd_bench(args) -> int:
    import json

    from repro.bench import (
        MAX_DROP,
        CaseSelectionError,
        compare_to_baseline,
        run_bench,
        write_report,
    )

    mode = "quick" if args.quick else "full"
    print(f"repro bench: {mode} mode")
    try:
        results = run_bench(quick=args.quick, cases=args.cases,
                            progress=print)
    except CaseSelectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    if not results:
        print("no cases selected")
        return EXIT_BAD_SPEC
    for r in results:
        layout = ""
        topo = r.extra.get("topology")
        if topo:
            over = ", oversubscribed" if r.extra.get("oversubscribed") else ""
            layout = (f" [{topo[0]}x{topo[1]}, "
                      f"{r.extra.get('transport')}{over}]")
        print(f"  {r.name}: {r.n_atoms} atoms, {r.steps} steps in "
              f"{r.wall_s:.2f} s -> {r.steps_per_s:.2f} steps/s "
              f"({r.extra['kernel_backend']} kernels){layout}")
    baseline = None
    if args.baseline:
        # read before writing: --out may be the baseline file itself
        with open(args.baseline) as fh:
            baseline = json.load(fh)
    report = write_report(args.out, results, quick=args.quick)
    print(f"wrote {args.out} ({len(results)} cases, "
          f"{len(report['history'])} runs in history)")
    if baseline is not None:
        failures, notes = compare_to_baseline(results, baseline, mode)
        for line in notes:
            print(f"  NO BASELINE {line}")
        if failures:
            print(f"REGRESSION vs {args.baseline}:")
            for line in failures:
                print(f"  {line}")
            return EXIT_RUN_FAILED
        print(f"no regression vs {args.baseline} "
              f"(allowance {MAX_DROP:.0%})")
    return EXIT_OK


def _cmd_profile(args) -> int:
    from repro.io.table_io import Table
    from repro.obs.profile import profile_spec
    from repro.obs.sinks import read_trace, render_phase_table

    spec = spec_from_args(args)

    engines = tuple(args.engines) if args.engines else ("reference", "wse")
    try:
        profiles = profile_spec(spec, engines=engines, trace_path=args.out)
    except Exception as exc:
        print(f"error: profile run failed: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILED

    failures: list[str] = []
    for name, prof in profiles.items():
        print(render_phase_table(
            f"{name} engine: {prof.steps} steps, "
            f"wall {prof.wall_s:.3f} s",
            prof.phase_seconds,
            prof.wall_s,
        ))
        counts = prof.counters
        if counts.get("raw_candidates"):
            print(f"rebuild funnel: rebuilds {counts['neighbor_rebuilds']}, "
                  f"raw_candidates {counts['raw_candidates']}, "
                  f"coarse_kept {counts['coarse_kept']}, "
                  f"exact_kept {counts['exact_kept']}")
        if prof.minor_faults_per_step is not None:
            print(f"minor page faults/step: "
                  f"{prof.minor_faults_per_step:.0f}")
        shard = prof.counters.get("shard_seconds")
        if shard:  # the ranks stepped: what each did, and how often asked
            print(f"rounds/step: {prof.counters['rounds'] / prof.steps:.2f}")
            table = Table("per-rank stage seconds", ["rank", *shard])
            for rank, row in enumerate(zip(*shard.values())):
                table.add_row(rank, *(f"{s:.4f}" for s in row))
            print(table.render())
        if prof.missing_phases:
            failures.append(
                f"{name}: missing phases {list(prof.missing_phases)}"
            )
        if prof.coverage < 0.95:
            failures.append(
                f"{name}: phases cover {prof.coverage:.1%} of wall "
                f"(< 95%)"
            )
        if name == "wse":
            if prof.fit is None:
                failures.append("wse: linear (A, B, C) fit unavailable")
            else:
                exp = prof.fit_expected
                errs = prof.fit_rel_errors()
                print(
                    f"fitted step model (ns): "
                    f"A={prof.fit.a_candidate:.1f} "
                    f"(target {exp['a_candidate']:.1f}), "
                    f"B={prof.fit.b_interaction:.1f} "
                    f"(target {exp['b_interaction']:.1f}), "
                    f"C={prof.fit.c_fixed:.1f} "
                    f"(target {exp['c_fixed']:.1f}), "
                    f"r^2={prof.fit.r_squared:.4f}"
                )
                worst = max(errs.values())
                if worst > 0.05:
                    failures.append(
                        f"wse: fitted constants off calibration by "
                        f"{worst:.1%} (> 5%)"
                    )

    try:
        records = read_trace(args.out)
    except ValueError as exc:
        failures.append(f"trace: {exc}")
        records = []
    print(f"trace: {len(records)} records -> {args.out}")

    if failures:
        for line in failures:
            print(f"CHECK FAILED: {line}",
                  file=sys.stderr if args.check else sys.stdout)
        if args.check:
            return EXIT_RUN_FAILED
    elif args.check:
        print("profile checks passed")
    return EXIT_OK


def _cmd_table1(args) -> int:
    from repro.baselines import FRONTIER_MODELS, QUARTZ_MODELS
    from repro.core.cycle_model import CycleCostModel
    from repro.io.table_io import Table
    from repro.potentials.elements import ELEMENTS

    model = CycleCostModel()
    table = Table(
        "Table I - 801,792-atom models (timesteps/s)",
        ["element", "WSE (model)", "Frontier", "Quartz", "vs GPU", "vs CPU"],
    )
    for sym in ("Cu", "W", "Ta"):
        el = ELEMENTS[sym]
        wse = model.steps_per_second(
            el.candidates, el.interactions, el.neighborhood_b
        )
        gpu, _ = FRONTIER_MODELS[sym].best_rate(801_792)
        cpu, _ = QUARTZ_MODELS[sym].best_rate(801_792)
        table.add_row(sym, round(wse), round(gpu), round(cpu),
                      f"{wse / gpu:.0f}x", f"{wse / cpu:.0f}x")
    table.print()
    return 0


def _cmd_table5(args) -> int:
    from repro.io.table_io import Table
    from repro.perfmodel.projections import project_optimizations
    from repro.potentials.elements import ELEMENTS

    workloads = {
        s: (ELEMENTS[s].candidates, ELEMENTS[s].interactions)
        for s in ("Ta", "W", "Cu")
    }
    table = Table(
        "Table V - projected optimizations (1,000 timesteps/s)",
        ["stage", "Ta", "W", "Cu"],
    )
    for row in project_optimizations(workloads):
        table.add_row(row.description, *[
            f"{row.rates[s] / 1000:.0f}" for s in ("Ta", "W", "Cu")
        ])
    table.print()
    return 0


def _cmd_table6(args) -> int:
    from repro.core.cycle_model import CycleCostModel
    from repro.io.table_io import Table
    from repro.perfmodel import MultiWaferModel
    from repro.potentials.elements import ELEMENTS

    geometry = {"Cu": (283, 10), "W": (317, 8), "Ta": (317, 8)}
    lams = {"Cu": (78, 15), "W": (88, 17), "Ta": (88, 17)}
    cost = CycleCostModel()
    mw = MultiWaferModel()
    table = Table(
        "Table VI - multi-wafer ghost-region model",
        ["element", "lambda", "k", "steps/s", "% of 1 wafer"],
    )
    for sym in ("Cu", "W", "Ta"):
        el = ELEMENTS[sym]
        x, z = geometry[sym]
        single = cost.steps_per_second(
            el.candidates, el.interactions, el.neighborhood_b
        )
        for lam in lams[sym]:
            p = mw.evaluate(sym, x, z, lam, el.cutoff_nn, 1 / single, single)
            table.add_row(sym, lam, p.k_steps, round(p.rate_steps_per_s),
                          f"{100 * p.fraction_of_single_wafer:.0f}")
    table.print()
    return 0


def _cmd_fig1(args) -> int:
    from repro.baselines import FRONTIER_MODELS, QUARTZ_MODELS
    from repro.core.cycle_model import CycleCostModel
    from repro.io.table_io import Table
    from repro.perfmodel.timescale import TimescalePoint
    from repro.potentials.elements import ELEMENTS

    el = ELEMENTS["Ta"]
    wse = TimescalePoint("WSE-2", CycleCostModel().steps_per_second(
        el.candidates, el.interactions, el.neighborhood_b))
    gpu = TimescalePoint("Frontier",
                         FRONTIER_MODELS["Ta"].best_rate(801_792)[0])
    cpu = TimescalePoint("Quartz", QUARTZ_MODELS["Ta"].best_rate(801_792)[0])
    table = Table(
        "Fig. 1 - achievable Ta timescale (30 days, 2 fs steps)",
        ["machine", "steps/s", "simulated us", "vs GPU"],
    )
    for p in (wse, gpu, cpu):
        table.add_row(p.machine, round(p.rate_steps_per_s),
                      f"{p.simulated_us:,.0f}", f"{p.speedup_over(gpu):.0f}x")
    table.print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Wafer-scale MD reproduction (SC 2024) command line",
    )
    from repro.runtime.spec import ENGINES

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="machine and element summary")

    run = sub.add_parser("run", help="run a thin-slab simulation")
    add_spec_flags(run, RUN_DEFAULTS)
    run.add_argument("--checkpoint", default=None, metavar="PREFIX",
                     help="write checkpoints under this path prefix "
                          "(one file, <prefix>.npz)")
    run.add_argument("--resume", default=None, metavar="PREFIX",
                     help="resume from this checkpoint prefix (spec "
                          "physics must match its spec_hash; a missing "
                          "or corrupt checkpoint exits 2, nothing runs)")

    serve = sub.add_parser(
        "serve",
        help="start the job server (slots + result cache over TCP)",
        description="Start the job server.  Once listening it prints "
                    "'repro serve: listening on HOST:PORT' on stdout.  A "
                    "running job streams progress and heeds a cancel "
                    "every tenth of its steps, at most every 1,024 steps.",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7421,
                       help="TCP port (0 = pick a free one; default 7421)")
    serve.add_argument("--slots", type=int, default=2,
                       help="concurrent engine runs (default 2); "
                            "further jobs queue")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result-cache directory keyed by "
                            "(spec_hash, steps); omit to disable caching")
    serve.add_argument("--cache-bytes", type=int, default=2 * 1024**3,
                       help="cache LRU size cap in bytes (default 2 GiB)")

    submit = sub.add_parser(
        "submit", help="submit a run to a job server and await the result"
    )
    add_spec_flags(submit, RUN_DEFAULTS)
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=7421)
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="client socket timeout in seconds")
    submit.add_argument("--replicas", type=int, default=1,
                        help="ensemble size: N jobs at seed, seed+1, ...")
    submit.add_argument("--sweep", default=None, metavar="FIELD=V1,V2",
                        help="parameter sweep, e.g. "
                             "temperature=100,200,300 (crossed with "
                             "--replicas)")
    submit.add_argument("--watch", action="store_true",
                        help="stream job events (state changes, progress, "
                             "log lines) while waiting")
    submit.add_argument("--no-wait", action="store_true",
                        help="return the queued job id immediately")

    jobs = sub.add_parser("jobs", help="inspect a job server")
    jobs.add_argument("--host", default="127.0.0.1")
    jobs.add_argument("--port", type=int, default=7421)
    jobs.add_argument("--timeout", type=float, default=600.0)
    jobs.add_argument("--verbose", action="store_true",
                      help="include each job's log lines")
    jobs.add_argument("--cancel", default=None, metavar="JOB",
                      help="cancel a queued or running job")
    jobs.add_argument("--stats", action="store_true",
                      help="scheduler + cache counters instead of the "
                           "job table")
    jobs.add_argument("--shutdown", action="store_true",
                      help="stop the server (drains running jobs)")

    validate = sub.add_parser(
        "validate",
        help="run both engines on one workload and check equivalence",
    )
    # a file's (or --engine's) engine is ignored: both engines always run
    add_spec_flags(validate, VALIDATE_DEFAULTS)
    validate.add_argument("--tol-pos", type=float, default=1e-8,
                          help="max |dx| in angstrom (default 1e-8)")
    validate.add_argument("--tol-energy", type=float, default=1e-6,
                          help="max |dE| in eV (default 1e-6)")

    bench = sub.add_parser(
        "bench", help="time the bench case table, write BENCH_kernels.json"
    )
    bench.add_argument("--quick", action="store_true",
                       help="small slabs (CI-sized, seconds not minutes)")
    bench.add_argument("--cases", nargs="+", default=None, metavar="NAME",
                       help="run only these repro.bench.CASES entries "
                            "(default: all); a named case whose kernel "
                            "backend cannot import exits 2")
    bench.add_argument("--out", default="BENCH_kernels.json")
    bench.add_argument("--baseline", default=None,
                       help="previous report JSON to gate against "
                            "(fails on a >30%% steps/s drop)")

    profile = sub.add_parser(
        "profile",
        help="trace one workload on both engines, write a JSONL trace",
    )
    # a file's (or --engine's) engine is replaced per profiled engine
    add_spec_flags(profile, {})
    profile.add_argument("--engines", nargs="*", default=None,
                         choices=ENGINES)
    profile.add_argument("--out", default="profile_trace.jsonl",
                         help="JSONL trace path (default "
                              "profile_trace.jsonl)")
    # replaces the command defaults add_spec_flags put on the namespace
    profile.add_argument("--quick", action="store_const",
                         dest="spec_defaults", const=PROFILE_QUICK_DEFAULTS,
                         help="CI-sized default workload: reps 5 5 2, "
                              "30 steps, swap interval 10")
    profile.add_argument("--check", action="store_true",
                         help="exit non-zero unless the trace parses, all "
                              "taxonomy phases appear, coverage >= 95%%, "
                              "and the wse (A, B, C) fit is within 5%% of "
                              "calibration")

    for name in ("table1", "table5", "table6", "fig1"):
        sub.add_parser(name, help=f"print the {name} reproduction")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "info": _cmd_info,
        "run": _cmd_run,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
        "validate": _cmd_validate,
        "bench": _cmd_bench,
        "profile": _cmd_profile,
        "table1": _cmd_table1,
        "table5": _cmd_table5,
        "table6": _cmd_table6,
        "fig1": _cmd_fig1,
    }[args.command]
    from repro.runtime.spec import SpecError

    try:
        return handler(args)
    except SpecError as exc:
        # raised by spec_from_args (or validate's engine swap) before
        # anything ran: a malformed, out-of-range or inconsistent request
        print(f"error: invalid run spec: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    except BrokenPipeError:
        # stdout piped into a pager/head that closed early; not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
