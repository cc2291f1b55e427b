"""Quickstart: run wafer-scale MD on a tantalum slab and check physics.

One declarative ``RunSpec`` describes the workload (the paper's
benchmark geometry, scaled down); the runtime factory builds it on the
simulated WSE *and* the reference MD engine, both engines run 100
timesteps through the same ``Runner``, and the trajectories are
compared — then the modeled full-wafer timestep rate is reported.
Last, the Ta tables go out as a LAMMPS ``eam/alloy`` (setfl) file and
back in, and the reloaded potential must give the final slab the same
energy to within the resampling error.

Run:  python examples/quickstart.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core import CycleCostModel
from repro.md.simulation import Simulation
from repro.potentials.eam import EAMPotential
from repro.potentials.elements import ELEMENTS, make_element_tables
from repro.potentials.setfl import read_setfl, write_setfl
from repro.runtime import RunSpec, Runner
from repro.units import simulated_time_per_day_us

#: largest per-atom energy change a setfl round trip may make
SETFL_TOLERANCE_EV = 1e-8


def main() -> None:
    spec = RunSpec(
        element="Ta", reps=(10, 10, 3), temperature=290.0,
        engine="wse", steps=100, seed=0,
    )

    print(f"Building {spec.element} thin slab {spec.reps} and mapping it "
          "to the wafer...")
    wse_runner = Runner.from_spec(spec)
    ref_runner = Runner.from_spec(spec.with_engine("reference"))
    wse = wse_runner.engine.sim
    print(f"  atoms: {wse.n_atoms}")
    print(f"  core grid: {wse.grid.nx} x {wse.grid.ny} "
          f"({wse.n_atoms / wse.grid.n_tiles:.0%} occupied)")
    print(f"  assignment cost C(g): {wse.assignment_cost():.2f} A")
    print(f"  neighborhood half-width b: {wse.b} "
          f"({(2 * wse.b + 1) ** 2 - 1} candidates)")

    print(f"\nRunning {spec.steps} timesteps on both engines "
          f"(dt = {spec.dt_fs:.0f} fs, one Runner path)...")
    wse_runner.run()
    ref_runner.run()

    out = wse_runner.engine.state
    ref = ref_runner.engine.state
    err = np.abs(out.positions - ref.positions).max()
    print(f"  max |WSE - reference| position deviation: {err:.2e} A")
    print(f"  temperature: {out.temperature():.0f} K")

    mean_cand, mean_int = wse.mean_counts()
    print(f"\nPer-atom work: {mean_cand:.0f} candidates, "
          f"{mean_int:.1f} interactions")
    print(f"Modeled WSE-2 rate for this workload: "
          f"{wse.measured_rate():,.0f} timesteps/s")

    # the paper's full 801,792-atom benchmark, through the same model
    el = ELEMENTS[spec.element]
    model = CycleCostModel()
    rate = model.steps_per_second(el.candidates, el.interactions,
                                  el.neighborhood_b)
    per_day = simulated_time_per_day_us(rate, 2.0)
    print(f"\nFull Table-I workload ({el.n_atoms_table1:,} atoms, "
          f"{el.candidates}/{el.interactions} cand/int):")
    print(f"  predicted rate: {rate:,.0f} timesteps/s "
          f"(paper measured: 274,016)")
    print(f"  simulated time per wall-clock day: {per_day:.1f} us")

    # the same tables as a file LAMMPS reads (pair_style eam/alloy)
    tables = make_element_tables(spec.element)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, f"{spec.element}.eam.alloy")
        write_setfl(tables, path, names=[spec.element], masses=[el.mass])
        loaded = read_setfl(path)
    energies = [Simulation(ref.copy(), EAMPotential(t)).potential_energy()
                for t in (tables, loaded)]
    per_atom = abs(energies[1] - energies[0]) / ref.n_atoms
    print(f"\nsetfl round trip ({path.name}): slab energy "
          f"{energies[0]:.6f} eV, reloaded {energies[1]:.6f} eV "
          f"({per_atom:.1e} eV/atom apart)")
    # write_setfl resamples every spline on a 2000-point grid
    assert per_atom < SETFL_TOLERANCE_EV, per_atom


if __name__ == "__main__":
    main()
