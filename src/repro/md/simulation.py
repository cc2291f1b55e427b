"""Reference MD simulation driver.

Composes neighbor search, potential evaluation and leap-frog
integration into the Verlet loop the paper times ("Loop time" in the
LAMMPS log, Sec. IV-B).  A run's steps, Verlet-list rebuilds
included, are one call of the active kernel tier's ``md_step`` per
chunk, for every potential (Lennard-Jones is a set of EAM tables).
Sampling state at an interval is the job of
:class:`repro.runtime.runner.Runner`'s observers, which cut the run into
chunks; the loop itself has no callbacks.  The driver keeps per-phase
wall-time and neighbor-list statistics (:class:`SimStats`) — the
observability hook the ``repro bench`` harness reads.  Given a domain
layout (``workers``/``topology``) it is sharded over :mod:`repro.parallel`
— an option of this engine, not a kernel tier.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.kernels import active_backend
from repro.md.integrators import LeapfrogVerlet
from repro.md.neighbor_list import NeighborList
from repro.md.state import AtomsState
from repro.md.thermostat import BerendsenThermostat
from repro.obs import NULL_TRACER
from repro.potentials.base import Potential

__all__ = ["Simulation", "SimStats"]

#: The most steps one ``md_step`` call is asked for: its per-step rows
#: (six int64 a step) stay within 48 KiB however long a list is held.
CALL_STEPS = 1024


@dataclass
class SimStats:
    """Accumulated loop statistics since construction.

    Wall times split the Verlet loop into its three phases: neighbor
    search (cell-list rebuild + distance filter), force evaluation
    (the potential kernels), and integration (leap-frog + thermostat).
    ``raw_candidates`` / ``coarse_kept`` / ``exact_kept`` sum every
    list build's :attr:`~repro.md.neighbor_list.Candidates.funnel`
    (each rank's, when sharded).
    """

    steps: int = 0
    force_evaluations: int = 0
    neighbor_rebuilds: int = 0
    raw_candidates: int = 0
    coarse_kept: int = 0
    exact_kept: int = 0
    pairs_last: int = 0
    pairs_total: int = 0
    time_neighbor_s: float = 0.0
    time_force_s: float = 0.0
    time_integrate_s: float = 0.0

    def add_funnel(self, funnel: tuple[int, int, int]) -> None:
        """Add one build's (raw, coarse_kept, exact_kept) counts."""
        raw, coarse, exact = funnel
        self.raw_candidates += raw
        self.coarse_kept += coarse
        self.exact_kept += exact

    @property
    def wall_time_s(self) -> float:
        """Total accounted wall time across the three phases."""
        return self.time_neighbor_s + self.time_force_s + self.time_integrate_s

    @property
    def pairs_per_step(self) -> float:
        """Mean stored (half) pairs per force evaluation."""
        if self.force_evaluations == 0:
            return 0.0
        return self.pairs_total / self.force_evaluations

    @property
    def steps_per_s(self) -> float:
        """Throughput implied by the accounted wall time."""
        if self.steps == 0 or self.wall_time_s == 0.0:
            return 0.0
        return self.steps / self.wall_time_s


class Simulation:
    """Reference MD loop: neighbor search -> forces -> leap-frog.

    Parameters
    ----------
    state:
        Atom state (mutated in place by :meth:`run`).
    potential:
        Interatomic potential.
    dt_fs:
        Timestep in femtoseconds (the paper uses 2 fs).
    skin:
        Neighbor-list skin distance (A).
    thermostat:
        Optional Berendsen thermostat applied after each step.
    tracer:
        Optional :class:`repro.obs.Tracer`; phases are emitted through
        it in addition to the always-on :class:`SimStats` accounting.
    workers:
        Given a layout — an int here (0 = one per usable CPU), or a
        ``topology`` — the atoms are *stepped* by shard workers, not
        only their forces evaluated: each runs this serial engine on the
        rows of its tile and a ghost shell, on the kernel tier active
        when the pool forks (the first force evaluation), and :meth:`run`
        hands whole chunks to
        :meth:`~repro.parallel.pipeline.ShardedForcePipeline.advance`
        (``state`` is rewritten when a chunk returns; anything written
        into it between calls is pushed back, by value).  ``None`` with
        no ``topology`` is the serial loop.
    topology:
        ``(px, py)`` domain-grid shape (``None`` = the most nearly
        square factorization of ``workers``).  Layout, never physics.
    transport:
        How ghost rows reach the workers (``"shared"``/``"socket"``/
        ``"inline"``/``"auto"``; ``None`` means ``auto``).
    """

    def __init__(
        self,
        state: AtomsState,
        potential: Potential,
        *,
        dt_fs: float = 2.0,
        skin: float = 0.5,
        thermostat: BerendsenThermostat | None = None,
        tracer=None,
        workers: int | None = None,
        topology: tuple[int, int] | None = None,
        transport: str | None = None,
    ) -> None:
        self.state = state
        self.potential = potential
        self.dt_fs = float(dt_fs)
        self.skin = float(skin)
        self.integrator = LeapfrogVerlet(dt_fs)
        self.neighbors = NeighborList(state.box, potential.cutoff, skin=skin)
        self.thermostat = thermostat
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.step_count = 0
        self.stats = SimStats()
        self._pipeline = None
        # The tier resolves (and, given a layout, the package loads)
        # here; the pool forks, inheriting the tier, at the first force
        # evaluation, in the traced ``parallel.pool`` phase.
        active_backend()
        self._layout = None  # the pipeline's arguments until it spawns
        if workers is not None or topology is not None:
            import repro.parallel  # noqa: F401

            self._layout = {"workers": workers, "topology": topology,
                            "transport": transport}

    def close(self) -> None:
        """Release the parallel pipeline, if one was spawned (idempotent:
        a caller's cleanup path may run after an explicit close)."""
        self._layout = None
        pipeline, self._pipeline = self._pipeline, None
        if pipeline is not None:
            pipeline.close()

    def _init_pipeline(self) -> None:
        """First-use pipeline spawn, attributed to ``parallel.pool``."""
        from repro.parallel import (
            ShardedForcePipeline,
            unsupported_reason,
            warn_fallback,
        )

        layout, self._layout = self._layout, None
        reason = unsupported_reason(self.state.box, self.potential)
        if reason is not None:
            warn_fallback(reason)
            return
        with self.tracer.phase("parallel.pool", spawn=1):
            self._pipeline = ShardedForcePipeline(
                self.state, self.potential, skin=self.skin, **layout
            )

    def compute_forces(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-atom energies and forces at the current positions."""
        tr = self.tracer
        if self._layout is not None:
            self._init_pipeline()
        if self._pipeline is not None:
            energies, forces, delta = self._pipeline.compute(
                self.state.positions, tr
            )
            self._absorb(delta)
            return energies, forces
        builds_before = self.neighbors.n_builds
        t0 = time.perf_counter()
        with tr.phase("neighbor") as ph:
            pairs = self.neighbors.pairs(self.state.positions)
            ph.add(
                pairs=pairs.n_pairs,
                rebuilds=self.neighbors.n_builds - builds_before,
            )
        t1 = time.perf_counter()
        # the potential splits its work into the taxonomy's phases
        out = self.potential.compute(
            self.state.n_atoms, pairs, self.state.types, tracer=tr
        )
        t2 = time.perf_counter()
        st = self.stats
        st.force_evaluations += 1
        if self.neighbors.n_builds != builds_before:
            st.neighbor_rebuilds += 1
            st.add_funnel(self.neighbors.candidates.funnel)
        st.pairs_last = pairs.n_pairs
        st.pairs_total += pairs.n_pairs
        st.time_neighbor_s += t1 - t0
        st.time_force_s += t2 - t1
        return out

    def _absorb(self, delta: SimStats) -> None:
        """Add a pipeline call's accounting to :attr:`stats`."""
        for name, value in vars(delta).items():
            setattr(self.stats, name, getattr(self.stats, name) + value)
        self.stats.pairs_last = delta.pairs_last

    def potential_energy(self) -> float:
        """Total potential energy at the current positions (eV)."""
        e, _ = self.compute_forces()
        return float(np.sum(e))

    def run(self, n_steps: int) -> None:
        """Advance ``n_steps`` timesteps."""
        if n_steps < 0:
            raise ValueError(f"n_steps must be non-negative, got {n_steps}")
        tr = self.tracer
        if self._layout is not None:
            self._init_pipeline()
        if self._pipeline is not None:
            return self._run_sharded(n_steps)
        done = 0
        while done < n_steps:
            # a thermostat sees every step.  The "step" envelope's
            # self-time is the loop glue between phases (LAMMPS's
            # "Other" row), so traced time tiles the engine wall time.
            chunk = 1 if self.thermostat is not None else n_steps - done
            with tr.phase("step"):
                done += self._advance(min(chunk, CALL_STEPS))

    def _advance(self, n_steps: int) -> int:
        """``n_steps`` steps; returns how many ran (all, or a raise).

        The steps are one call of the registry's ``md_step`` over the
        potential's bank tables, its Verlet list included: the call takes
        the list :attr:`neighbors` holds, rebuilds it where the list test
        fires, and :meth:`NeighborList.take_over` holds the one it
        returns.
        """
        state = self.state
        tables = self.potential.bank_tables(state.n_atoms, state.types)
        kernels = active_backend()
        nl, box = self.neighbors, self.neighbors.box
        held, dead_bound = nl.hand_over(state.positions)
        step = kernels.md_step(
            state.positions, state.velocities, state.types, state.masses,
            held, box.origin, box.lengths, box.periodic, nl.cutoff, nl.skin,
            self.potential.cap.r_min, *tables, self.integrator.dt, n_steps,
            dead_bound=dead_bound, scratch=nl.md_scratch(kernels),
        )
        nl.take_over(held, step)
        self._account(step)
        if step.stop != "steps":
            # the public path raises this step's error, word for word
            self.compute_forces()
            raise FloatingPointError(
                f"non-finite pair distance at step {self.step_count + 1}"
            )
        return step.steps

    def _account(self, step) -> None:
        """Count an ``md_step`` call's builds and steps in
        :attr:`step_count` and :attr:`stats`, apply the thermostat (a
        call of one step) and, traced, record each step's phases (a
        build is in its step's neighbor phase)."""
        st = self.stats
        built = step.builds[:, 0].tolist()
        st.neighbor_rebuilds += len(built)
        for funnel in step.builds[:, 1:].tolist():
            st.add_funnel(funnel)
        n = step.steps
        if not n:
            return
        seconds = step.phase_ns * 1e-9
        if self.thermostat is not None:
            t0 = time.perf_counter()
            self.thermostat.apply(self.state, self.dt_fs)
            seconds[-1, -1] += time.perf_counter() - t0
        tr = self.tracer
        if tr.enabled:
            for k, ((neighbor, density, embedding, pair_force, integrate),
                    pairs) in enumerate(zip(seconds.tolist(),
                                            step.pairs.tolist())):
                tr.record("neighbor", neighbor,
                          {"pairs": pairs, "rebuilds": int(k in built)})
                tr.record("density", density, {"pairs": pairs})
                tr.record("embedding", embedding)
                tr.record("pair_force", pair_force)
                tr.record("integrate", integrate)
        neighbor, density, embedding, pair_force, integrate = seconds.sum(
            axis=0).tolist()
        self.step_count += n
        st.steps += n
        st.force_evaluations += n
        st.pairs_last = int(step.pairs[-1])
        st.pairs_total += int(step.pairs.sum())
        st.time_neighbor_s += neighbor
        st.time_force_s += density + embedding + pair_force
        st.time_integrate_s += integrate

    def _run_sharded(self, n_steps: int) -> None:
        """:meth:`run` with the ranks stepping their own atoms.

        The whole call is one chunk, unless a thermostat must see the
        state every step (which then costs a pull and, the velocities
        no longer comparing equal, a push).  ``step_count`` and the
        stats move only once a chunk's pull has completed.
        """
        done = 0
        while done < n_steps:
            chunk = 1 if self.thermostat is not None else n_steps - done
            self._absorb(self._pipeline.advance(
                self.state, chunk, self.integrator, self.tracer
            ))
            if self.thermostat is not None:
                t0 = time.perf_counter()
                with self.tracer.phase("integrate"):
                    self.thermostat.apply(self.state, self.dt_fs)
                self.stats.time_integrate_s += time.perf_counter() - t0
            self.step_count += chunk
            done += chunk

    def equilibrate(
        self, n_steps: int, temperature: float, tau_fs: float = 100.0
    ) -> None:
        """Run with a temporary Berendsen thermostat (paper Sec. IV-B prep)."""
        saved = self.thermostat
        self.thermostat = BerendsenThermostat(temperature, tau_fs)
        try:
            self.run(n_steps)
        finally:
            self.thermostat = saved
