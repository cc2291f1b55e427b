"""Per-layer probes: each times one layer of ``repro`` through its public API.

Nothing here reaches into private state; a layer with no public seam
(the cell list inside ``NeighborList``, the ranks of the parallel tier)
is measured in isolation or read from the engine's own telemetry.
"""

from __future__ import annotations

import statistics
import time
from types import SimpleNamespace

import numpy as np

from spans import SpanRecorder, timed_ms

TRACED_BACKEND = "ledger-traced"
# traced kernel -> position of its pair-index argument (whose length is the
# number of candidates or pairs the call works on)
TRACED_KERNELS = {"neighbor_prefilter": 1, "fused_density_pass": 0,
                  "fused_force_pass": 0}
# the force pass scatters three force components to both atoms of a pair
# and half the pair energy to both: eight bincount passes per stored pair
FORCE_PASS_BINCOUNTS = 8
MAX_SNAPSHOTS = 3  # rebuild-step positions kept for the isolated cell-list probe
CHECKPOINT_REPEATS = 3


class KernelLedger:
    """Work counts of the traced kernels (spans carry the times)."""

    def __init__(self) -> None:
        self.items = {name: 0 for name in TRACED_KERNELS}
        self.bytes = {name: 0 for name in TRACED_KERNELS}

    def charge(self, name: str, n_items: int, args, result) -> None:
        self.items[name] += n_items
        arrays = [a for a in (*args, *result) if isinstance(a, np.ndarray)]
        self.bytes[name] += sum(a.nbytes for a in arrays)


def register_traced_backend(rec: SpanRecorder) -> KernelLedger:
    """Register a kernel backend that is numpy plus one span per call.

    Goes through the public ``repro.kernels.register_backend``; every
    kernel delegates to the numpy backend unchanged, so trajectories are
    bitwise those of ``backend="numpy"``.
    """
    from repro.kernels import KERNEL_FUNCTIONS, numpy_backend, register_backend

    ledger = KernelLedger()

    def traced(name: str):
        fn = getattr(numpy_backend, name)

        def call(*args, **kwargs):
            with rec.span(f"kernels.{name}"):
                result = fn(*args, **kwargs)
            ledger.charge(name, len(args[TRACED_KERNELS[name]]), args, result)
            return result

        return call

    attrs = {name: getattr(numpy_backend, name) for name in KERNEL_FUNCTIONS}
    attrs.update({name: traced(name) for name in TRACED_KERNELS})
    backend = SimpleNamespace(name=TRACED_BACKEND, **attrs)
    register_backend(TRACED_BACKEND, lambda: backend)
    return ledger


def decomposed_steps(sim, n_steps: int, rec: SpanRecorder,
                     snapshots: list[np.ndarray]) -> None:
    """``Simulation.run`` taken apart along its public seams.

    Same calls in the same order with the same arguments as
    ``Simulation.run`` / ``compute_forces`` on the serial path, so the
    trajectory is bitwise the engine's own (the harness checks that).
    Positions at the first few rebuild steps are copied into
    ``snapshots`` for the isolated cell-list probe.
    """
    state = sim.state
    neighbors = sim.neighbors
    for _ in range(n_steps):
        with rec.span("md.decomposed_step"):
            builds = neighbors.n_builds
            with rec.span("md.neighbor_list.pairs"):
                pairs = neighbors.pairs(state.positions)
            if neighbors.n_builds != builds and len(snapshots) < MAX_SNAPSHOTS:
                snapshots.append(state.positions.copy())
            with rec.span("potentials.eam.compute"):
                _, forces = sim.potential.compute(
                    state.n_atoms, pairs, state.types
                )
            with rec.span("md.integrators.step"):
                sim.integrator.step(state, forces)
        sim.step_count += 1


def numpy_floors(llc: int, *, small: bool) -> dict[str, float]:
    """Streaming floors of the numpy primitives the kernels are made of.

    Arrays are four times the last-level cache (sizes reported), so the
    rates are memory rates, not cache rates.  ``small`` (smoke runs)
    skips the sizing and says so through the reported array size.
    """
    n_bins = 16_000
    nbytes = 1 << 20 if small else max(4 * llc, 64 << 20)
    n = nbytes // 8 // n_bins * n_bins
    src = np.ones(n, dtype=np.float64)
    dst = np.empty(n, dtype=np.float64)
    np.copyto(dst, src)  # first touch
    t0 = time.perf_counter()
    np.copyto(dst, src)
    copy_s = time.perf_counter() - t0
    idx = dst.view(np.int64)
    idx.reshape(-1, n_bins)[:] = np.arange(n_bins)
    t0 = time.perf_counter()
    np.bincount(idx, weights=src, minlength=n_bins)
    bincount_s = time.perf_counter() - t0
    return {
        # a copy reads and writes every byte once
        "kernels.floor.memcopy_gb_s": 2 * n * 8 / copy_s / 1e9,
        "kernels.floor.bincount_melem_s": n / bincount_s / 1e6,
        "kernels.floor.array_mib": n * 8 / 2**20,
        "kernels.floor.llc_mib": llc / 2**20,
    }


def cell_list_probe(box, reach: float, snapshots: list[np.ndarray]) -> dict:
    """Isolated ``CellList.build`` / ``candidate_pairs`` on rebuild snapshots."""
    from repro.md.cell_list import CellList

    build, cand, raw = [], [], 0
    for positions in snapshots:
        cells = CellList(box, reach)
        t0 = time.perf_counter()
        cells.build(positions)
        t1 = time.perf_counter()
        ci, _ = cells.candidate_pairs()
        t2 = time.perf_counter()
        build.append(t1 - t0)
        cand.append(t2 - t1)
        raw = len(ci)
    return {
        "md.cell_list.build_ms": statistics.median(build) * 1e3,
        "md.cell_list.candidate_pairs_ms": statistics.median(cand) * 1e3,
        "md.cell_list.raw_candidates": raw,
    }


def checkpoint_probe(engine, prefix) -> dict[str, float]:
    """Write and read back one checkpoint of the engine's current state."""
    from repro.runtime.checkpoint import checkpoint_paths, read_checkpoint
    from repro.runtime.runner import Runner

    runner = Runner(engine, checkpoint_prefix=prefix)
    spec_hash = engine.spec.spec_hash()
    return {
        "runtime.checkpoint.write_ms": timed_ms(
            runner.write_checkpoint, CHECKPOINT_REPEATS
        ),
        "runtime.checkpoint.read_ms": timed_ms(
            lambda: read_checkpoint(prefix, expected_spec_hash=spec_hash),
            CHECKPOINT_REPEATS
        ),
        "runtime.checkpoint.bytes": sum(
            p.stat().st_size for p in checkpoint_paths(prefix)
        ),
    }
