"""The common ``Engine`` protocol and the spec-driven engine factory.

The paper's central claim — the same EAM physics on two very different
machines — is reflected here as one small surface both engines sit
behind:

* :meth:`Engine.step` advances timesteps,
* :attr:`Engine.state` is an id-ordered :class:`AtomsState` snapshot,
* :meth:`Engine.telemetry` reduces the engine's native accounting
  (wall-time phases or modeled cycles) to one :class:`Telemetry`.

:func:`build_engine` turns a :class:`RunSpec` into a running engine.
It owns all seeding: the spec's master seed is split into named streams
(:mod:`repro.runtime.rng`) and threaded explicitly through velocity
initialization, stochastic thermostats and the lockstep machine, so
identical specs give identical trajectories and a checkpoint can
capture every generator's state.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.constants import MVV2E, kinetic_energy_to_temperature
from repro.kernels import DEFAULT_BACKEND, set_backend
from repro.lattice.slab import make_slab
from repro.md.boundary import Box
from repro.md.langevin import LangevinThermostat
from repro.md.simulation import SimStats, Simulation
from repro.md.state import AtomsState
from repro.md.thermostat import (
    BerendsenThermostat,
    maxwell_boltzmann_velocities,
)
from repro.potentials.elements import ELEMENTS, make_element_potential
from repro.runtime.rng import get_rng_state, seed_streams, set_rng_state
from repro.runtime.spec import RunSpec, SpecError
from repro.runtime.telemetry import Telemetry

if TYPE_CHECKING:
    from repro.core.wse_md import WseMd
    from repro.runtime.checkpoint import Checkpoint

__all__ = [
    "Engine",
    "ReferenceEngine",
    "WseEngine",
    "build_state",
    "build_engine",
]


@runtime_checkable
class Engine(Protocol):
    """What the runner, CLI and bench harness require of an engine."""

    spec: RunSpec

    @property
    def name(self) -> str: ...

    @property
    def step_count(self) -> int: ...

    def step(self, n_steps: int = 1) -> None: ...

    @property
    def state(self) -> AtomsState: ...

    def telemetry(self) -> Telemetry: ...

    def close(self) -> None: ...


def build_state(
    spec: RunSpec,
    rng: np.random.Generator | None = None,
) -> tuple[AtomsState, object]:
    """The spec's thin-slab workload: initial state and potential.

    ``rng`` is the velocity stream; when omitted it is derived from
    ``spec.seed`` exactly as :func:`build_engine` derives it, so a
    state built here matches the one a factory-built engine starts
    from.  The only expensive part, the element's potential tables, is
    memoised per process by :func:`make_element_potential`.
    """
    el = ELEMENTS[spec.element]
    potential = make_element_potential(spec.element)
    slab = make_slab(el.cell, el.lattice_constant, spec.reps)
    state = AtomsState.from_positions(
        slab.positions, Box.open(slab.box + 4.0 * el.cutoff), mass=el.mass
    )
    if spec.temperature > 0:
        if rng is None:
            rng = seed_streams(spec.seed)["velocities"]
        maxwell_boltzmann_velocities(state, spec.temperature, rng)
    return state, potential


def _build_reference_thermostat(spec: RunSpec, rng: np.random.Generator):
    """Thermostat object for the reference engine, or ``None``.

    Returns ``(thermostat, uses_rng)`` — the runner checkpoints the
    thermostat stream only when the thermostat actually draws from it.
    """
    ts = spec.thermostat
    if ts is None:
        return None, False
    if ts.kind == "berendsen":
        return BerendsenThermostat(ts.temperature, ts.tau_fs), False
    return (
        LangevinThermostat(ts.temperature, damping_fs=ts.tau_fs, rng=rng),
        True,
    )


class ReferenceEngine:
    """:class:`~repro.md.simulation.Simulation` behind the Engine protocol."""

    name = "reference"

    def __init__(
        self,
        spec: RunSpec,
        sim: Simulation,
        *,
        thermostat_rng: np.random.Generator | None = None,
    ) -> None:
        self.spec = spec
        self.sim = sim
        self._thermostat_rng = thermostat_rng
        self._wall_s = 0.0

    @property
    def step_count(self) -> int:
        return self.sim.step_count

    @property
    def tracer(self):
        """The simulation's phase tracer (the null tracer if untraced)."""
        return self.sim.tracer

    def step(self, n_steps: int = 1) -> None:
        t0 = time.perf_counter()
        self.sim.run(n_steps)
        self._wall_s += time.perf_counter() - t0

    @property
    def state(self) -> AtomsState:
        """The live simulation state (already in stable id order)."""
        return self.sim.state

    def potential_energy(self) -> float:
        return self.sim.potential_energy()

    def total_energy(self) -> float:
        return self.sim.potential_energy() + self.sim.state.kinetic_energy()

    def telemetry(self) -> Telemetry:
        st = self.sim.stats
        tr = self.sim.tracer
        counters = {
            "n_atoms": self.sim.state.n_atoms,
            "pairs_per_step": st.pairs_per_step,
            "neighbor_rebuilds": st.neighbor_rebuilds,
            "raw_candidates": st.raw_candidates,
            "coarse_kept": st.coarse_kept,
            "exact_kept": st.exact_kept,
            "force_evaluations": st.force_evaluations,
        }
        pipeline = getattr(self.sim, "_pipeline", None)
        if pipeline is not None:
            counters["workers"] = pipeline.n_workers
            counters["topology"] = list(pipeline.topology)
            counters["transport"] = pipeline.transport_kind
            sent, recv = pipeline.halo_bytes
            counters["halo_bytes_sent"] = sent
            counters["halo_bytes_recv"] = recv
            counters["rounds"] = pipeline.rounds
            counters["ghost_atoms"] = pipeline.ghost_atoms
            counters["halo_seconds"] = round(pipeline.halo_seconds, 6)
            # rounds are synchronous (scatter, then compute): no rank
            # ever stalls on a pack in flight and nothing is hidden; the
            # frozen ledger still reads both keys
            counters["halo_wait_seconds"] = 0.0
            counters["overlap_efficiency"] = 0.0
            counters["shard_seconds"] = {
                stage: [round(s, 4) for s in secs]
                for stage, secs in pipeline.shard_seconds.items()
            }
        return Telemetry(
            engine=self.name,
            steps=st.steps,
            wall_time_s=self._wall_s,
            phase_seconds={
                "neighbor": st.time_neighbor_s,
                "force": st.time_force_s,
                "integrate": st.time_integrate_s,
            },
            counters=counters,
            trace_phases=tr.phase_totals() if tr.enabled else None,
        )

    def reset_telemetry(self) -> None:
        """Zero the accounting (keep state); for steady-state timing."""
        self.sim.stats = SimStats()
        self._wall_s = 0.0
        self.sim.tracer.reset()
        pipeline = getattr(self.sim, "_pipeline", None)
        if pipeline is not None:
            pipeline.reset_shard_stats()

    def close(self) -> None:
        """Release engine resources (the parallel worker pool)."""
        self.sim.close()

    # -- checkpoint hooks --------------------------------------------------

    def rng_states(self) -> dict[str, dict]:
        if self._thermostat_rng is None:
            return {}
        return {"thermostat": get_rng_state(self._thermostat_rng)}

    def checkpoint_extra(self) -> dict:
        return {}

    def restore(self, checkpoint: "Checkpoint") -> None:
        """Continue from a checkpoint (state was passed at construction)."""
        self.sim.step_count = checkpoint.step_count
        thermo = checkpoint.rng_states.get("thermostat")
        if thermo is not None and self._thermostat_rng is not None:
            set_rng_state(self._thermostat_rng, thermo)


class WseEngine:
    """:class:`~repro.core.wse_md.WseMd` behind the Engine protocol."""

    name = "wse"

    def __init__(self, spec: RunSpec, sim: WseMd) -> None:
        self.spec = spec
        self.sim = sim
        self._wall_s = 0.0
        ts = spec.thermostat
        self._berendsen = ts if ts is not None and ts.kind == "berendsen" else None

    @property
    def step_count(self) -> int:
        return self.sim.step_count

    @property
    def tracer(self):
        """The lockstep machine's phase tracer (null if untraced)."""
        return self.sim.tracer

    def step(self, n_steps: int = 1) -> None:
        t0 = time.perf_counter()
        if self._berendsen is None:
            self.sim.step(n_steps)
        else:
            # the lockstep loop has no thermostat hook; interleave the
            # (global, deterministic) Berendsen rescale per step.  The
            # rescale is part of the taxonomy's integrate phase.
            tr = self.sim.tracer
            for _ in range(n_steps):
                self.sim.step(1)
                with tr.phase("integrate"):
                    self._apply_berendsen()
        self._wall_s += time.perf_counter() - t0

    def _apply_berendsen(self) -> None:
        """Berendsen velocity rescale on the occupied tiles.

        Same lambda as :class:`BerendsenThermostat` — the temperature is
        a global reduction, so the grid layout does not change it.
        """
        sim = self.sim
        occ = sim.occ
        v = sim.vel[occ]
        m = sim.masses[sim.typ[occ]]
        ke = float(0.5 * MVV2E * np.sum(m * np.einsum("ij,ij->i", v, v)))
        current = kinetic_energy_to_temperature(ke, 3 * len(v))
        if current <= 0:
            return
        ts = self._berendsen
        lam2 = 1.0 + (sim.dt_fs / ts.tau_fs) * (ts.temperature / current - 1.0)
        sim.vel[occ] = v * np.sqrt(max(lam2, 0.0))

    @property
    def state(self) -> AtomsState:
        """Id-ordered snapshot gathered from the tile grid (a copy)."""
        return self.sim.gather_state()

    def potential_energy(self) -> float:
        return self.sim.compute_energy()

    def total_energy(self) -> float:
        return self.sim.compute_energy() + self.state.kinetic_energy()

    def telemetry(self) -> Telemetry:
        sim = self.sim
        counters: dict[str, float] = {
            "n_atoms": sim.n_atoms,
            "grid_nx": sim.grid.nx,
            "grid_ny": sim.grid.ny,
            "b": sim.b,
            "swap_count": sim.swap_count,
            # offsets per sweep call (one call sweeps them all); the
            # benchmark ledger reads this key as core.offset_chunk
            "offset_chunk": len(sim._offset_rows),
            "sweep_threads": sim.sweep_threads,
            "list_builds": sim.list_builds,
            "list_reuse_ratio": sim.list_reuses
            / max(sim.list_builds + sim.list_reuses, 1),
        }
        phase_seconds: dict[str, float] = {}
        n = sim.trace.n_steps  # since the last reset_telemetry
        if n > 0:
            cand, inter = sim.mean_counts()
            counters["candidates_per_atom"] = cand
            counters["interactions_per_atom"] = inter
            counters["modeled_steps_per_s"] = sim.measured_rate()
            # modeled per-phase machine time over the recorded steps
            model = sim.cost_model
            to_s = model.machine.cycles_to_seconds
            pbc = sim.pbc_inplane
            phase_seconds = {
                "exchange": to_s(n * model.exchange_cycles(sim.b, pbc=pbc)),
                "candidate": to_s(n * model.candidate_cycles(pbc=pbc) * cand),
                "interaction": to_s(n * model.interaction_cycles() * inter),
                "fixed": to_s(n * model.fixed_cycles()),
            }
        tr = self.sim.tracer
        return Telemetry(
            engine=self.name,
            steps=n,
            wall_time_s=self._wall_s,
            phase_seconds=phase_seconds,
            counters=counters,
            trace_phases=tr.phase_totals() if tr.enabled else None,
        )

    def reset_telemetry(self) -> None:
        """Zero the accounting (keep state); for steady-state timing."""
        from repro.wse.trace import CycleTrace

        self.sim.trace = CycleTrace(self.sim.grid.n_tiles)
        self.sim.list_builds = self.sim.list_reuses = 0
        self._wall_s = 0.0
        self.sim.tracer.reset()

    def close(self) -> None:
        """Nothing to release: the lockstep machine owns no processes."""

    # -- checkpoint hooks --------------------------------------------------

    def rng_states(self) -> dict[str, dict]:
        return {"engine": get_rng_state(self.sim.rng)}

    def checkpoint_extra(self) -> dict:
        return {"swap_count": int(self.sim.swap_count)}

    def restore(self, checkpoint: "Checkpoint") -> None:
        """Continue from a checkpoint (state was passed at construction)."""
        self.sim.step_count = checkpoint.step_count
        self.sim.swap_count = int(checkpoint.extra.get("swap_count", 0))
        engine_rng = checkpoint.rng_states.get("engine")
        if engine_rng is not None:
            set_rng_state(self.sim.rng, engine_rng)


def build_engine(
    spec: RunSpec,
    *,
    state: AtomsState | None = None,
    potential=None,
    **engine_kwargs,
) -> ReferenceEngine | WseEngine:
    """Construct the spec's engine, fully seeded and ready to step.

    ``state``/``potential`` override the spec's thin-slab workload (for
    custom geometries and alloys — the state is used as passed, no
    velocity redraw).  Extra keyword arguments are forwarded verbatim
    to the underlying engine constructor and win over spec-derived
    values.  ``backend="parallel"`` is read here only: the default
    kernel tier, and the spec's layout for the reference engine.
    """
    streams = seed_streams(spec.seed)
    sharded = spec.backend == "parallel"
    if spec.backend is not None:
        set_backend(DEFAULT_BACKEND if sharded else spec.backend)
    if state is None:
        state, default_potential = build_state(spec, streams["velocities"])
    else:
        default_potential = None
    if potential is None:
        if default_potential is None:
            default_potential = make_element_potential(spec.element)
        potential = default_potential

    if spec.engine == "reference":
        thermostat, uses_rng = _build_reference_thermostat(
            spec, streams["thermostat"]
        )
        kwargs = {
            "dt_fs": spec.dt_fs,
            "skin": spec.skin,
            "thermostat": thermostat,
        }
        if sharded:  # workers=0 shards too: one tile per usable CPU
            kwargs.update(workers=spec.workers, topology=spec.topology,
                          transport=spec.transport)
        kwargs.update(engine_kwargs)
        sim = Simulation(state, potential, **kwargs)
        return ReferenceEngine(
            spec,
            sim,
            thermostat_rng=streams["thermostat"] if uses_rng else None,
        )
    if spec.engine == "wse":
        # imported here: the reference and serve paths load no wafer module
        from repro.core.wse_md import WseMd

        kwargs = {
            "dt_fs": spec.dt_fs,
            "skin": spec.skin,
            "swap_interval": spec.swap_interval,
            "force_symmetry": spec.force_symmetry,
            "rng": streams["engine"],
        }
        kwargs.update(engine_kwargs)
        sim = WseMd(state, potential, **kwargs)
        return WseEngine(spec, sim)
    raise SpecError(f"unknown engine {spec.engine!r}")  # pragma: no cover
