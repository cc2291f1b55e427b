"""The four MD workloads: steady, rebuild-every-step, sharded, lockstep wafer.

End-to-end pass: set-up repeated, a fixed warm-up, then fixed-size
windows of ``Runner.run`` until ``--seconds`` have passed.  Digests and
program counts are taken at a fixed step (after the minimum number of
windows), so two runs of one seed compare exactly however long they ran.

Traced pass: several engines built from the same spec advance the same
trajectory in lockstep, chunk by chunk, each through a different path
(plain, spanned, tracer on, one layer lower ...), so every ratio pairs
identical work under the same host conditions.
"""

from __future__ import annotations

import gc
import hashlib
import os
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

import probes
from host import HostClock, llc_bytes, peak_rss_mib
from spans import SpanRecorder, layer_times, pct_more

# NVE total-energy drift allowed over a run, eV per atom.  The leap-frog
# kinetic term is half a step off the potential term, so the total
# fluctuates by ~3e-4 eV/atom at 290 K; a broken integrator or force
# drifts by orders of magnitude more.
DRIFT_TOL_EV_PER_ATOM = 2e-3
SHARDED_POSITION_TOL_A = 1e-9
RELATIVE_ENERGY_TOL = 1e-9


@dataclass(frozen=True)
class MdWorkload:
    spec: dict  # RunSpec fields, seed excluded
    warm: int  # steps before timing starts (includes the set-up step)
    window: int  # steps per timed Runner.run
    min_windows: int  # windows always run; digests are taken after them
    setup_repeats: int
    chunk: int  # traced pass: steps per lockstep turn
    rounds: int  # traced pass: lockstep rounds at the default --seconds
    # traced pass: also hosts the runtime / obs taxes and the numpy floors
    runtime_probes: bool = False


_SLAB = {"element": "Ta", "reps": (20, 20, 20), "engine": "reference"}

WORKLOADS = {
    "ta16k-steady": MdWorkload(
        {**_SLAB, "backend": "numpy"},
        warm=20, window=25, min_windows=3, setup_repeats=7, chunk=5, rounds=8,
        runtime_probes=True,
    ),
    "ta16k-rebuild": MdWorkload(
        {**_SLAB, "backend": "numpy", "skin": 0.0},
        warm=10, window=8, min_windows=3, setup_repeats=7, chunk=2, rounds=8,
    ),
    "ta16k-sharded": MdWorkload(
        {**_SLAB, "backend": "parallel", "workers": 2, "transport": "shared"},
        warm=20, window=25, min_windows=3, setup_repeats=7, chunk=5, rounds=8,
    ),
    "wse-ta100k": MdWorkload(
        {"element": "Ta", "reps": (128, 131, 3), "engine": "wse",
         "force_symmetry": True},
        warm=2, window=2, min_windows=3, setup_repeats=5, chunk=1, rounds=6,
    ),
}


def smoke_size(wl: MdWorkload) -> MdWorkload:
    """Ta 6x6x3 and a handful of steps: exercises every code path fast."""
    return replace(
        wl, spec={**wl.spec, "reps": (6, 6, 3)},
        warm=2, window=2, min_windows=2, setup_repeats=1, chunk=2, rounds=2,
    )


class Checks:
    """Correctness checks; each one is an attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


def _digest(positions: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(positions).tobytes()).hexdigest()


def _exact_counts(engine) -> dict:
    """Program counts that must repeat exactly for one seed."""
    counters = engine.telemetry().counters
    keys = (
        "neighbor_rebuilds", "force_evaluations", "pairs_per_step",
        "halo_bytes_sent", "halo_bytes_recv", "ghost_atoms",
        "candidates_per_atom", "interactions_per_atom", "modeled_steps_per_s",
    )
    return {k: counters[k] for k in keys if k in counters}


def _serial_spec(spec):
    return replace(spec, backend="numpy", workers=0, transport=None)


def _check_wse_energy(checks: Checks, spec, e_wse: float) -> None:
    """Step-0 potential energy against the reference engine, same slab."""
    from repro.runtime.engines import build_engine

    ref = build_engine(replace(spec, engine="reference", backend="numpy"))
    try:
        e_ref = ref.potential_energy()
    finally:
        ref.close()
    rel = abs(e_wse - e_ref) / abs(e_ref)
    checks.add("wse_step0_energy_vs_reference", rel <= RELATIVE_ENERGY_TOL,
               f"relative difference {rel:.3e}")


def _check_sharded(checks: Checks, spec, warm: int, positions, energy) -> None:
    """The sharded run after ``warm`` steps against a serial run of the same."""
    from repro.runtime.engines import build_engine

    serial = build_engine(_serial_spec(spec))
    try:
        serial.step(warm)
        worst = float(np.max(np.abs(positions - serial.state.positions)))
        rel = abs(energy - serial.total_energy()) / abs(energy)
    finally:
        serial.close()
    checks.add("sharded_positions_vs_serial", worst <= SHARDED_POSITION_TOL_A,
               f"max |dx| {worst:.3e} A after {warm} steps")
    checks.add("sharded_energy_vs_serial", rel <= RELATIVE_ENERGY_TOL,
               f"relative difference {rel:.3e} after {warm} steps")


def run_end_to_end(wl: MdWorkload, seed: int, seconds: float, clock: HostClock):
    from repro.runtime.engines import build_engine
    from repro.runtime.runner import Runner
    from repro.runtime.spec import RunSpec

    spec = RunSpec(seed=seed, **wl.spec)
    is_wse = spec.engine == "wse"
    sharded = spec.backend == "parallel"
    checks = Checks()

    setups = []
    setup_calib = [clock.sample()]
    engine = None
    e_wse0 = None
    for _ in range(wl.setup_repeats):
        if engine is not None:
            engine.close()
            engine = None  # free it before the next is built, or RSS doubles
            gc.collect()
        t0 = time.perf_counter()
        engine = build_engine(spec)
        t1 = time.perf_counter()
        if is_wse and e_wse0 is None:
            e_wse0 = engine.sim.compute_energy()  # step 0, outside the timing
        t2 = time.perf_counter()
        engine.step(1)
        setups.append((t1 - t0) + (time.perf_counter() - t2))
        setup_calib.append(clock.sample())
    try:
        engine.step(wl.warm - 1)
        warm_state = None
        e_start = None
        if not is_wse:
            e_start = engine.total_energy()
        if sharded:
            warm_state = (engine.state.positions.copy(), e_start)

        engine.reset_telemetry()
        runner = Runner(engine)
        walls = []
        window_calib = [clock.sample()]
        exact = {}
        t_start = time.perf_counter()
        while (len(walls) < wl.min_windows
               or time.perf_counter() - t_start < seconds):
            t0 = time.perf_counter()
            runner.run(wl.window)
            walls.append(time.perf_counter() - t0)
            window_calib.append(clock.sample())
            if len(walls) == wl.min_windows:
                exact = {
                    "step": engine.step_count,
                    "positions_sha256": _digest(engine.state.positions),
                    **_exact_counts(engine),
                }
        checks.attempted += len(walls)

        drift = final_energy = None
        if is_wse:
            uncovered = engine.sim.verify_coverage()
            checks.add("wse_coverage", uncovered == 0,
                       f"{uncovered} interacting pairs outside the b-neighborhood")
        else:
            final_energy = engine.total_energy()
            drift = (final_energy - e_start) / engine.state.n_atoms
            checks.add(
                "nve_energy_drift", abs(drift) <= DRIFT_TOL_EV_PER_ATOM,
                f"{drift:.3e} eV/atom, tolerance {DRIFT_TOL_EV_PER_ATOM}",
            )
        steps_run = engine.step_count
    finally:
        engine.close()
    # read before the reference engines of the checks below grow it
    rss = peak_rss_mib()
    if is_wse:
        _check_wse_energy(checks, spec, e_wse0)
    if sharded:
        _check_sharded(checks, spec, wl.warm, *warm_state)

    # Times in calibrated seconds (host.HostClock): each window by the host
    # speed sampled just before and just after it, the fastest set-up by
    # the speed over the set-up phase.
    window_speed = [HostClock.speed_of(window_calib[i:i + 2])
                    for i in range(len(walls))]
    setup_speed = HostClock.speed_of(setup_calib)
    metrics = {
        "steps_per_s": statistics.median(
            wl.window / w / s for w, s in zip(walls, window_speed)),
        "setup_s": min(setups) * setup_speed,
        "peak_rss_mb": rss,
    }
    details = {
        "samples": {"steps_per_s": len(walls), "setup_s": len(setups)},
        "wall_clock": {
            "steps_per_s": statistics.median(wl.window / w for w in walls),
            "setup_s": min(setups),
        },
        "window_host_speed": window_speed,
        "setup_host_speed": setup_speed,
        "calib_samples_ms": {"steps_per_s": window_calib, "setup_s": setup_calib},
        "window_steps": wl.window,
        "window_seconds": walls,
        "setup_seconds": setups,
        "steps_run": steps_run,
        "exact": exact,
        "final_total_energy": final_energy,
        "energy_drift_ev_per_atom": drift,
        "oversubscribed": sharded and (os.cpu_count() or 1) < spec.workers,
    }
    return metrics, checks, details


# -- traced pass ------------------------------------------------------------


def _lockstep(paths: dict, chunk: int, rounds: int) -> dict[str, float]:
    """Advance every path ``chunk`` steps per round; summed seconds per path.

    A path runs ~4% faster straight after an identical one (warm shared
    pages, both cores awake), so the order reverses every round: each of
    two neighbours goes first equally often.
    """
    names = list(paths)
    total = dict.fromkeys(names, 0.0)
    for r in range(rounds):
        for name in names if r % 2 == 0 else reversed(names):
            t0 = time.perf_counter()
            paths[name](chunk)
            total[name] += time.perf_counter() - t0
    return total


def run_traced(wl: MdWorkload, seed: int, seconds: float,
               default_seconds: float, rec: SpanRecorder, tmp_dir, smoke: bool):
    from repro.kernels import set_backend
    from repro.runtime.engines import build_engine
    from repro.runtime.runner import Runner
    from repro.runtime.spec import RunSpec

    spec = RunSpec(seed=seed, **wl.spec)
    is_wse = spec.engine == "wse"
    sharded = spec.backend == "parallel"
    serial_ref = not is_wse and not sharded
    rounds = max(1, round(wl.rounds * seconds / default_seconds))
    n_steps = wl.chunk * rounds
    warm = min(wl.warm, 4)
    checks = Checks()
    metrics: dict[str, float] = {}
    engines = {}
    builds = []

    def add_engine(key, engine_spec, **kwargs):
        t0 = time.perf_counter()
        engines[key] = build_engine(engine_spec, **kwargs)
        builds.append(time.perf_counter() - t0)

    try:
        add_engine("plain", spec)
        add_engine("spanned", spec)
        if serial_ref:
            add_engine("sim", spec)
        if wl.runtime_probes:
            from repro.obs import Tracer

            add_engine("obs", spec, tracer=Tracer())
            add_engine("runner", spec)
        if sharded:
            add_engine("serial", _serial_spec(spec))
            add_engine("w1", replace(spec, workers=1))
            add_engine("socket", replace(spec, transport="socket"))
            add_engine("inline", replace(spec, transport="inline"))
            from repro.parallel import ShardedForcePipeline

            serial = engines["serial"]
            t0 = time.perf_counter()
            pool = ShardedForcePipeline(
                serial.state, serial.sim.potential, skin=spec.skin,
                workers=spec.workers, transport=spec.transport,
            )
            metrics["parallel.pool_spawn_s"] = time.perf_counter() - t0
            pool.close()
        for engine in engines.values():
            engine.step(warm)
            engine.reset_telemetry()

        spanned = engines["spanned"]
        snapshots: list[np.ndarray] = []
        kernel_ledger = None
        if serial_ref:
            kernel_ledger = probes.register_traced_backend(rec)

            def spanned_path(chunk):
                # every other path runs under the plain numpy backend
                set_backend(probes.TRACED_BACKEND)
                try:
                    probes.decomposed_steps(spanned.sim, chunk, rec, snapshots)
                finally:
                    set_backend("numpy")
        else:
            def spanned_path(chunk):
                with rec.span("runtime.engine.step"):
                    spanned.step(chunk)

        paths = {"plain": engines["plain"].step, "spanned": spanned_path}
        if serial_ref:
            paths["sim"] = engines["sim"].sim.run
        if wl.runtime_probes:
            paths["obs"] = engines["obs"].step
            observed = Runner(engines["runner"])
            observed.add_observer(10, lambda event: event.step)
            paths["runner"] = observed.run
        for key in ("serial", "w1", "socket", "inline"):
            if key in engines:
                paths[key] = engines[key].step
        builds_before = spanned.sim.neighbors.n_builds if serial_ref else 0
        took = _lockstep(paths, wl.chunk, rounds)
        checks.attempted += rounds * len(paths)

        digests = {k: _digest(e.state.positions) for k, e in engines.items()
                   if k in ("plain", "spanned", "sim", "obs", "runner")}
        checks.add(
            "paths_bitwise_equal", len(set(digests.values())) == 1,
            f"positions differ between paths: {digests}",
        )
        metrics["ledger.traced_ops"] = n_steps
        metrics["ledger.untraced_ops_per_s"] = n_steps / took["plain"]
        metrics["ledger.trace_overhead_pct"] = pct_more(
            took["spanned"], took["plain"]
        )
        metrics["runtime.build_engine_s"] = statistics.median(builds)
        lt = layer_times(rec.spans)

        if serial_ref:
            metrics.update(_serial_layer_metrics(
                spanned.sim, lt, kernel_ledger, took, builds_before, n_steps
            ))
            reach = spanned.sim.neighbors.cutoff + spanned.sim.neighbors.skin
            # no rebuild fell inside a short traced stretch: build where it ended
            metrics.update(probes.cell_list_probe(
                spanned.state.box, reach, snapshots or [spanned.state.positions]
            ))
        if wl.runtime_probes:
            metrics["runtime.engine_tax_pct"] = pct_more(took["plain"], took["sim"])
            metrics["runtime.runner_tax_pct"] = pct_more(took["runner"], took["plain"])
            metrics["obs.tracer_overhead_pct"] = pct_more(took["obs"], took["plain"])
            metrics.update(probes.checkpoint_probe(
                engines["plain"], tmp_dir / "probe-checkpoint"
            ))
            floors = probes.numpy_floors(llc_bytes(), small=smoke)
            metrics.update(floors)
            force_items = kernel_ledger.items["fused_force_pass"]
            floor_s = (probes.FORCE_PASS_BINCOUNTS * force_items
                       / (floors["kernels.floor.bincount_melem_s"] * 1e6))
            metrics["kernels.fused_force_pass.frac_of_floor"] = (
                floor_s / lt["kernels.fused_force_pass"]["busy_s"]
            )
        if sharded:
            metrics.update(_parallel_metrics(spanned, took, n_steps))
        if is_wse:
            metrics.update(_core_metrics(spanned, took, n_steps))
            uncovered = spanned.sim.verify_coverage()
            metrics["core.uncovered_pairs"] = uncovered
            checks.add("wse_coverage", uncovered == 0, f"{uncovered} uncovered")
    finally:
        for engine in engines.values():
            engine.close()
    details = {"lockstep_seconds": took, "traced_steps": n_steps,
               "layer_times": lt}
    return metrics, checks, details


def _serial_layer_metrics(sim, lt, ledger, took, builds_before, n_steps) -> dict:
    pre = lt["kernels.neighbor_prefilter"]
    dens = lt["kernels.fused_density_pass"]
    force = lt["kernels.fused_force_pass"]
    pairs = lt["md.neighbor_list.pairs"]
    eam = lt["potentials.eam.compute"]
    integ = lt["md.integrators.step"]
    step = lt["md.decomposed_step"]
    rebuilds = sim.neighbors.n_builds - builds_before
    parts_s = pairs["busy_s"] + eam["busy_s"] + integ["busy_s"]
    return {
        "kernels.neighbor_prefilter.busy_s": pre["busy_s"],
        "kernels.neighbor_prefilter.calls": pre["calls"],
        "kernels.neighbor_prefilter.cand_per_s":
            ledger.items["neighbor_prefilter"] / pre["busy_s"],
        "kernels.fused_density_pass.busy_s": dens["busy_s"],
        "kernels.fused_density_pass.pairs_per_s":
            ledger.items["fused_density_pass"] / dens["busy_s"],
        "kernels.fused_force_pass.busy_s": force["busy_s"],
        "kernels.fused_force_pass.pairs_per_s":
            ledger.items["fused_force_pass"] / force["busy_s"],
        "kernels.bytes_per_pair_computed":
            (ledger.bytes["fused_density_pass"] + ledger.bytes["fused_force_pass"])
            / ledger.items["fused_force_pass"],
        "md.neighbor_list.pairs.busy_s": pairs["busy_s"],
        "md.neighbor_list.pairs.self_s": pairs["self_s"],
        "md.neighbor_list.rebuilds": rebuilds,
        "md.neighbor_list.reuse_ratio": (n_steps - rebuilds) / n_steps,
        "md.neighbor_list.candidates": sim.neighbors.n_candidates,
        "md.neighbor_list.survivor_ratio":
            sim.neighbors.last_pair_count / sim.neighbors.n_candidates,
        "potentials.eam.compute.busy_s": eam["busy_s"],
        "potentials.eam.compute.self_s": eam["self_s"],
        "md.integrators.step.busy_s": integ["busy_s"],
        # Simulation.run's wall minus the three parts it is made of
        "md.simulation.step.self_s": took["sim"] - parts_s,
        "ledger.self_time_coverage": 1.0 - step["self_s"] / step["busy_s"],
    }


def _parallel_metrics(engine, took, n_steps) -> dict:
    counters = engine.telemetry().counters
    shard = counters["shard_seconds"]
    per_rank = [sum(stage[r] for stage in shard.values())
                for r in range(counters["workers"])]
    speedup = took["serial"] / took["plain"]
    return {
        "parallel.halo_bytes_per_step":
            (counters["halo_bytes_sent"] + counters["halo_bytes_recv"]) / n_steps,
        "parallel.ghost_atoms": counters["ghost_atoms"],
        "parallel.halo_s": counters["halo_seconds"],
        "parallel.halo_wait_s": counters["halo_wait_seconds"],
        "parallel.overlap_efficiency": counters["overlap_efficiency"],
        "parallel.shard_busy_s.neighbor": max(shard["neighbor"]),
        "parallel.shard_busy_s.density": max(shard["density"]),
        "parallel.shard_busy_s.force": max(shard["force"]),
        "parallel.shard_imbalance": max(per_rank) / (sum(per_rank) / len(per_rank)),
        # the serial fraction: reduction, embedding, scatter, integration
        "parallel.parent_self_s": took["spanned"] - max(per_rank),
        "parallel.speedup_vs_serial": speedup,
        "parallel.efficiency": speedup / counters["workers"],
        "parallel.w1_tax_pct": pct_more(took["w1"], took["serial"]),
        # rate under that transport over rate under shared, two workers
        "parallel.socket_ratio": took["plain"] / took["socket"],
        "parallel.inline_ratio": took["plain"] / took["inline"],
    }


def _core_metrics(engine, took, n_steps) -> dict:
    sim = engine.sim
    counters = engine.telemetry().counters
    step_ms = took["spanned"] / n_steps * 1e3
    forces = []
    for _ in range(2):
        t0 = time.perf_counter()
        sim.compute_forces()
        forces.append(time.perf_counter() - t0)
    forces_ms = statistics.median(forces) * 1e3
    tiles = sim.grid.nx * sim.grid.ny
    cand = counters["candidates_per_atom"]
    return {
        "core.wse_md.step_ms": step_ms,
        "core.wse_md.compute_forces_ms": forces_ms,
        "core.wse_md.integrate_share": 1.0 - forces_ms / step_ms,
        "core.candidates_per_atom": cand,
        "core.interactions_per_atom": counters["interactions_per_atom"],
        "core.b": counters["b"],
        "core.grid_tiles": tiles,
        "core.occupancy": sim.n_atoms / tiles,
        "core.offset_chunk": counters["offset_chunk"],
        # host time per simulated event
        "core.host_ns_per_candidate": step_ms * 1e6 / (sim.n_atoms * cand),
        "core.modeled_steps_per_s": counters["modeled_steps_per_s"],
    }
