"""E14 — Sec. II-B: the small-system rates that motivate the paper.

The conventional strong-scaling limit the paper opens with: a 1,000-atom
Lennard-Jones system tops out below 10k steps/s on a V100 (kernel-launch
bound) and around 25k steps/s on a dual-socket Skylake (MPI bound) —
while a million-step-per-second rate is what O(100 us) of simulated time
per day requires.  The wafer closes that gap: the same 1k-atom workload
mapped one-atom-per-core is fixed-cost dominated and lands deep into the
hundreds of thousands of steps per second.

Beside the three modelled rows, two are measured on the host running
the bench, both by the reference engine on the default kernel tier,
whose steps, list rebuilds included, are one ``md_step`` call.  One is
the same 1,000-atom LJ workload (argon, FCC, periodic): LJ is a set of
EAM tables (a phi spline, zero density and embedding), so it runs the
same kernel as EAM, density pass included.  The other is the reference
engine's own workload at the same size, a 1,024-atom Ta slab.
"""

import time

import numpy as np
import pytest

from repro.baselines.cpu_model import SKYLAKE_LJ_MODEL
from repro.baselines.gpu_model import V100_LJ_MODEL
from repro.core.cycle_model import CycleCostModel
from repro.io.table_io import Table
from repro.kernels import active_backend_name
from repro.lattice.cells import FCC
from repro.lattice.crystals import replicate
from repro.md.boundary import Box
from repro.md.simulation import Simulation
from repro.md.state import AtomsState
from repro.md.thermostat import maxwell_boltzmann_velocities
from repro.potentials.lennard_jones import LennardJones
from repro.runtime import RunSpec, build_engine

N_SMALL = 1_000
#: argon: eps (eV), sigma (A), FCC lattice constant (A), mass (g/mol)
ARGON = {"epsilon": 0.0104, "sigma": 3.405, "a0": 5.26, "mass": 39.948}
HOST_STEPS = 200


def host_lj_rate(steps: int = HOST_STEPS) -> tuple[float, str]:
    """Steps/s of the reference engine on 1,000 LJ atoms (5 x 5 x 10
    FCC cells, periodic, 50 K, 2 fs, cutoff 2.5 sigma) on the default
    kernel tier, after a short warm-up that builds the neighbour list;
    and the tier's name."""
    crystal = replicate(FCC, ARGON["a0"], (5, 5, 10))
    box = Box(crystal.box, periodic=[True] * 3, origin=np.zeros(3))
    state = AtomsState.from_positions(crystal.positions, box, mass=ARGON["mass"])
    assert state.n_atoms == N_SMALL
    maxwell_boltzmann_velocities(state, 50.0, np.random.default_rng(0))
    lj = LennardJones(ARGON["epsilon"], ARGON["sigma"], 2.5 * ARGON["sigma"])
    sim = Simulation(state, lj, dt_fs=2.0, skin=0.5)
    sim.run(5)
    t0 = time.perf_counter()
    sim.run(steps)
    return steps / (time.perf_counter() - t0), active_backend_name()


def host_eam_rate(steps: int = HOST_STEPS) -> tuple[float, str]:
    """Steps/s of the reference engine on a 1,024-atom Ta slab (8 x 8 x
    8 BCC cells, open box, 300 K, 2 fs, skin 0.5) on the default kernel
    tier, after a short warm-up; and the tier's name."""
    engine = build_engine(RunSpec(element="Ta", reps=(8, 8, 8),
                                  engine="reference", temperature=300.0))
    try:
        assert engine.state.n_atoms == 1_024
        engine.step(5)
        t0 = time.perf_counter()
        engine.step(steps)
        return steps / (time.perf_counter() - t0), active_backend_name()
    finally:
        engine.close()


def build_rates():
    model = CycleCostModel()
    # 1k atoms in 3-D at LJ-like density: ~55 neighbors within 2.5 sigma,
    # a Ta-like thin-slab candidate footprint
    wse_rate = model.steps_per_second(80, 55, 4)
    return {
        "V100 GPU (LAMMPS LJ)": V100_LJ_MODEL.rate(N_SMALL, 1),
        "2x Skylake, 36 ranks (LAMMPS LJ)": SKYLAKE_LJ_MODEL.rate(N_SMALL, 36),
        "WSE (one atom per core)": wse_rate,
    }


def test_small_system_rates(benchmark):
    rates = benchmark(build_rates)
    lj, lj_tier = host_lj_rate()
    eam, tier = host_eam_rate()
    table = Table(
        "Sec. II-B - 1,000-atom strong-scaling limit (timesteps/s)",
        ["platform", "steps/s", "paper says"],
    )
    table.add_row("V100 GPU (LAMMPS LJ)",
                  round(rates["V100 GPU (LAMMPS LJ)"]), "< 10k")
    table.add_row("2x Skylake, 36 ranks (LAMMPS LJ)",
                  round(rates["2x Skylake, 36 ranks (LAMMPS LJ)"]), "~25k")
    table.add_row("WSE (one atom per core)",
                  round(rates["WSE (one atom per core)"]),
                  "fixed-cost bound")
    table.add_row(f"this host, reference engine, {lj_tier} LJ (measured)",
                  round(lj), "-")
    table.add_row(f"this host, reference engine, {tier} EAM Ta (measured)",
                  round(eam), "-")
    table.print()
    assert rates["V100 GPU (LAMMPS LJ)"] < 10_000
    assert rates["2x Skylake, 36 ranks (LAMMPS LJ)"] == pytest.approx(
        25_000, rel=0.2
    )
    assert rates["WSE (one atom per core)"] > 100_000


def test_required_rate_for_timescale_goal(benchmark):
    """O(1e11) steps in ~1e5 s needs ~1e6 steps/s (Sec. II-B's argument)."""
    def needed():
        simulated_seconds = 1.0e-4   # the 100 us goal
        dt = 2.0e-15
        wall_seconds = 86_400.0      # one day
        return simulated_seconds / dt / wall_seconds

    rate = benchmark(needed)
    assert rate == pytest.approx(5.8e5, rel=0.01)
    # no conventional platform in the table gets within 20x of this
    assert rate > 20 * SKYLAKE_LJ_MODEL.rate(N_SMALL, 36)
