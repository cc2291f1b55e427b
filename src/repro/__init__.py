"""repro: wafer-scale molecular dynamics, reproduced in simulation.

An open reproduction of "Breaking the Molecular Dynamics Timescale
Barrier Using a Wafer-Scale System" (SC 2024): Embedded Atom Method
molecular dynamics mapped one-atom-per-core onto a simulated Cerebras
Wafer-Scale Engine, with the paper's performance models, baselines and
every evaluation table/figure regenerated by the benchmark harness.

Quick start::

    from repro import quick_wse_simulation
    sim = quick_wse_simulation("Ta", reps=(8, 8, 3), temperature=290.0)
    sim.step(100)
    print(sim.measured_rate(), "timesteps/s (modeled on WSE-2)")

Subpackages
-----------
``repro.potentials``  EAM potentials (Rose-EOS built Cu/W/Ta, setfl I/O)
``repro.lattice``     crystals, thin slabs, grain boundaries
``repro.md``          reference MD engine (the "LAMMPS" of this repo)
``repro.wse``         wafer-scale fabric simulator (routers, multicast)
``repro.core``        the paper's contribution: mapping, exchange, swap,
                      cycle model, and the lockstep machine ``WseMd``
``repro.perfmodel``   Tables II-VI / Fig. 1 performance models
``repro.baselines``   Frontier/Quartz LAMMPS strong-scaling models
"""

from __future__ import annotations

from typing import TYPE_CHECKING

__version__ = "1.0.0"

from repro.md.boundary import Box
from repro.md.simulation import Simulation
from repro.md.state import AtomsState

if TYPE_CHECKING:
    from repro.core.wse_md import WseMd

__all__ = [
    "WseMd",
    "Simulation",
    "AtomsState",
    "Box",
    "ELEMENTS",
    "make_element_potential",
    "quick_wse_simulation",
    "quick_reference_simulation",
]


def __getattr__(name: str):
    # keep the package import light: the wafer and potentials load lazily
    if name == "WseMd":
        from repro.core.wse_md import WseMd

        return WseMd
    if name in ("ELEMENTS", "make_element_potential"):
        from repro.potentials import elements

        return getattr(elements, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _quick_spec(element, reps, temperature, seed, engine):
    from repro.runtime import RunSpec

    return RunSpec(
        element=element,
        reps=tuple(reps),
        temperature=temperature,
        engine=engine,
        seed=seed,
        steps=0,
    )


def quick_wse_simulation(
    element: str = "Ta",
    reps: tuple[int, int, int] = (8, 8, 3),
    temperature: float = 290.0,
    *,
    seed: int = 0,
    **kwargs,
) -> WseMd:
    """A ready-to-step :class:`WseMd` on a thin slab of Cu, W, or Ta.

    Built through the :mod:`repro.runtime` engine factory, so the seed
    determines the trajectory exactly as it does for a
    :class:`~repro.runtime.RunSpec` run of the same workload.
    """
    from repro.runtime import build_engine

    spec = _quick_spec(element, reps, temperature, seed, "wse")
    return build_engine(spec, **kwargs).sim


def quick_reference_simulation(
    element: str = "Ta",
    reps: tuple[int, int, int] = (8, 8, 3),
    temperature: float = 290.0,
    *,
    seed: int = 0,
    **kwargs,
) -> Simulation:
    """The same workload on the reference engine."""
    from repro.runtime import build_engine

    spec = _quick_spec(element, reps, temperature, seed, "reference")
    return build_engine(spec, **kwargs).sim
