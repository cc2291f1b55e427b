"""WseMd: the lockstep vectorized wafer-scale MD machine.

Executes every tile's worker program simultaneously on per-tile grid
arrays, following the five-step timestep of paper Sec. III-A:

1. **Candidate exchange** — one kernel call over all (2b+1)^2
   neighborhood offsets (:mod:`repro.core.streaming`), the functional
   equivalent of the marching multicast.  The wafer repeats it every
   step because it is free there; the host keeps its result — an
   index-only Verlet list at ``cutoff + skin`` — and repeats the
   exchange only when an atom has moved ``skin / 2`` or the occupancy
   changed.
2. **Neighbor list** — every step, the exact ``r < rc`` test over the
   listed pairs only; the survivors are kept as one compact record
   (candidates arrive in deterministic order; the record order *is*
   the ordinal list) until the force sweep of the same step has
   consumed it.
3. **Embedding calculation and exchange** — density accumulation, then
   ``F`` and ``F'`` per tile; the second exchange ships only ``F'``,
   gathered at the recorded tiles.
4. **Force calculation and integration** — Eq. 4 radial terms and the
   Verlet leap-frog update (Eq. 5).
5. **Atom swap** — every ``swap_interval`` steps, the greedy mutual
   remapping (:mod:`repro.core.swap`).

Cycle accounting: each step records per-tile cycle counts from the
calibrated :class:`~repro.core.cycle_model.CycleCostModel` using each
tile's actual candidate and interaction counts, into a
:class:`~repro.wse.trace.CycleTrace` — the machine's "hardware cycle
counter in a scratch buffer" (Sec. IV-B).

Everything per tile — list test and build, both sweeps, the leap-frog
and the cycle counter — is a kernel of the active registry tier
(:mod:`repro.kernels`); this class sequences them and owns the grids.
The physics is identical to the reference engine
(:mod:`repro.md.simulation`); tests assert trajectory equivalence.
"""

from __future__ import annotations

import numpy as np

from repro.core.cycle_model import CycleCostModel
from repro.core.mapping import Mapping, build_mapping
from repro.core.streaming import FAR as _FAR, StreamingSweeps, _flat
from repro.core.neighborhood import required_b
from repro.core.swap import SwapEngine
from repro.kernels import active_backend
from repro.md.state import AtomsState
from repro.obs import NULL_TRACER, metrics
from repro.potentials.eam import EAMPotential
from repro.wse.geometry import TileGrid
from repro.wse.trace import CycleTrace

__all__ = ["WseMd"]


class WseMd:
    """One-atom-per-core EAM MD on a simulated wafer.

    Parameters
    ----------
    state:
        Initial atom state (consumed; use :meth:`gather_state` to read
        results back in id order).
    potential:
        EAM potential (the per-tile spline tables).
    grid:
        Core grid; sized automatically from ``fill`` when omitted.
    b:
        Neighborhood half-width; chosen from the mapping cost and
        cutoff when omitted.
    b_margin:
        Physical slack (A) added when auto-choosing ``b`` — headroom
        for atom motion between swap rounds.
    dt_fs:
        Timestep (fs).
    cost_model:
        Cycle pricing; defaults to the calibrated baseline model.
    swap_interval:
        Apply a swap round every this many steps (0 disables).
    dtype:
        Storage/compute dtype for per-tile state; ``np.float32``
        matches the WSE's single-precision implementation.
    jitter_rel:
        Relative per-tile timing noise (models hardware effects like
        bank conflicts; the paper measures 0.11 %).  Deterministic via
        ``seed`` (or the passed ``rng``).
    rng:
        Pre-built generator for the timing noise (wins over ``seed``).
        The runtime passes its "engine" seed stream here so the noise
        sequence is checkpointable.
    force_symmetry:
        Enable the paper's "Force Symmetry" future optimization
        (Sec. VI-A): pair terms are computed once per undirected pair
        (half the neighborhood offsets) and the partner's share is
        returned by the reverse-multicast reduction — functionally a
        scatter through the opposite offset.  Physics is identical;
        pair work halves (price it with an
        :class:`~repro.core.cycle_model.OptimizationConfig` whose
        ``interaction_factor`` is 0.5).
    skin:
        Verlet skin (A) of the list the sweeps carry across steps; 0
        re-runs the exchange and filter every step (the paper's
        policy).  A speed / memory knob only: survivors are always
        chosen by the exact cutoff test, so any skin produces
        bitwise-identical trajectories.
    """

    def __init__(
        self,
        state: AtomsState,
        potential: EAMPotential,
        *,
        grid: TileGrid | None = None,
        b: int | None = None,
        b_margin: float = 1.0,
        fill: float = 0.94,
        dt_fs: float = 2.0,
        cost_model: CycleCostModel | None = None,
        swap_interval: int = 0,
        swap_engine: SwapEngine | None = None,
        mapping: Mapping | None = None,
        dtype=np.float64,
        jitter_rel: float = 0.0,
        seed: int = 0,
        rng: np.random.Generator | None = None,
        force_symmetry: bool = False,
        skin: float = 0.5,
        tracer=None,
    ) -> None:
        if not np.isfinite(state.positions).all():
            raise FloatingPointError(
                "non-finite positions in the state handed to the wafer"
            )
        self.potential = potential
        self.box = state.box
        self.masses = state.masses.copy()
        self.dt = dt_fs / 1000.0
        self.dt_fs = float(dt_fs)
        self.cost_model = cost_model or CycleCostModel()
        if swap_interval < 0:
            raise ValueError(f"swap interval must be >= 0, got {swap_interval}")
        self.swap_interval = swap_interval
        self.swap_engine = swap_engine or SwapEngine()
        self.dtype = np.dtype(dtype)
        self.jitter_rel = float(jitter_rel)
        self.force_symmetry = bool(force_symmetry)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._rng = rng if rng is not None else np.random.default_rng(seed)
        self.pbc_inplane = bool(state.box.periodic[0] or state.box.periodic[1])

        self.mapping = mapping or build_mapping(
            state.positions, state.box, grid=grid, fill=fill
        )
        self.grid = self.mapping.grid
        auto_sized = mapping is None and grid is None
        if b is None:
            b = required_b(self.mapping, state.positions, state.box,
                           potential.cutoff, margin=b_margin)
            # Tiny workloads can need a neighborhood wider than the
            # snug auto-sized grid.  Embed the mapping in a larger grid
            # with an empty border at the *same pitch* (the wafer always
            # has spare tiles around a small problem); b is unchanged
            # because worker separations are unchanged.
            if auto_sized and 2 * b + 1 > min(self.grid.nx, self.grid.ny):
                self.mapping = self.mapping.with_border(b)
                self.grid = self.mapping.grid
        if b < 1:
            raise ValueError(f"b must be >= 1, got {b}")
        self.b = int(b)

        nx, ny = self.grid.nx, self.grid.ny
        self.occ = np.zeros((nx, ny), dtype=bool)
        self.pos = np.full((nx, ny, 3), _FAR, dtype=self.dtype)
        self.vel = np.zeros((nx, ny, 3), dtype=self.dtype)
        self.aid = np.full((nx, ny), -1, dtype=np.int64)
        self.typ = np.zeros((nx, ny), dtype=np.int64)
        cx, cy = self.mapping.core_xy()
        self.occ[cx, cy] = True
        self.pos[cx, cy] = state.positions.astype(self.dtype)
        self.vel[cx, cy] = state.velocities.astype(self.dtype)
        self.aid[cx, cy] = state.ids
        self.typ[cx, cy] = state.types

        # precomputed per-tile nominal fabric coordinates
        gx = np.arange(nx)[:, None] * self.mapping.pitch[0]
        gy = np.arange(ny)[None, :] * self.mapping.pitch[1]
        self.core_centers = np.empty((nx, ny, 2))
        self.core_centers[:, :, 0] = self.mapping.origin[0] + gx
        self.core_centers[:, :, 1] = self.mapping.origin[1] + gy

        self.trace = CycleTrace(self.grid.n_tiles)
        self.step_count = 0
        self.swap_count = 0
        self.last_candidates = np.zeros((nx, ny), dtype=np.int64)
        self.last_interactions = np.zeros((nx, ny), dtype=np.int64)
        #: density sweeps that built the list / ran on the held one
        self.list_builds = 0
        self.list_reuses = 0
        self.last_reused = False
        if 2 * self.b + 1 > max(nx, ny):
            raise ValueError(f"neighborhood 2b+1={2 * self.b + 1} exceeds "
                             f"grid {nx}x{ny}")

        # Streaming-sweep state: the (2b+1)^2 - 1 neighborhood offsets
        # depend only on the (fixed) grid and b; with force symmetry a
        # worker processes only the "i < j" half (the multicast is
        # cropped, Sec. VI-A) and each pair's partner share travels
        # back via the reverse reduction.  The sweeper owns the survivor
        # record between the two sweeps of one step (O(interactions))
        # and across steps the index-only list it decides on its own
        # when to rebuild.
        self._offsets = [(int(dx), int(dy)) for dx, dy
                         in self.grid.neighborhood_offsets(self.b)]
        self._pass_offsets = [
            (dx, dy) for dx, dy in self._offsets
            if not self.force_symmetry or dy > 0 or (dy == 0 and dx > 0)
        ]
        self._sweeps = StreamingSweeps(
            nx=nx, ny=ny, dtype=self.dtype, lengths=self.box.lengths,
            periodic=self.box.periodic, cutoff=potential.cutoff,
            skin=skin, tables=potential.tables, offsets=self._pass_offsets,
            force_symmetry=self.force_symmetry,
        )
        self.skin = self._sweeps.skin

    # -- helpers ---------------------------------------------------------------

    @property
    def n_atoms(self) -> int:
        """Number of atoms on the machine."""
        return int(self.occ.sum())

    @property
    def rng(self) -> np.random.Generator:
        """The timing-noise generator (for checkpointing its state)."""
        return self._rng

    @property
    def sweep_threads(self) -> int:
        """The most threads a sweep kernel of the last step ran on."""
        return self._sweeps.threads

    # -- the five-step timestep ------------------------------------------------

    def _density_sweep(self):
        """Steps 1-3a: candidate exchange (on a list build), neighbor
        test, density sums.

        Returns the accumulated grids plus the seconds the streaming
        sweep spent building the list and testing the held one
        (recorded as the ``exchange`` / ``neighbor`` child spans of the
        ``density`` phase by :meth:`step`).
        """
        nx, ny = self.grid.nx, self.grid.ny
        rho_bar = np.zeros((nx, ny))
        n_cand = np.zeros((nx, ny), dtype=np.int64)
        n_int = np.zeros((nx, ny), dtype=np.int64)
        t_build, t_valid, reused = self._sweeps.density(
            self.pos, self.occ, self.typ, rho_bar, n_cand, n_int
        )
        self.last_candidates = n_cand
        self.last_interactions = n_int
        self.last_reused = reused
        if reused:
            self.list_reuses += 1
            metrics().counter("wse.list.reuses").inc()
        else:
            self.list_builds += 1
            metrics().counter("wse.list.builds").inc()
        return rho_bar, n_cand, n_int, t_build, t_valid

    def _embed(self, rho_bar: np.ndarray):
        """Step 3b: embedding energy and derivative per tile.

        Gathers and scatters through the occupancy mask: on a wafer this
        dense (~94% occupied) numpy's boolean indexing beats a
        ``flatnonzero`` index with ``take`` and ``put``.
        """
        f_val = np.zeros(self.occ.shape)
        f_der = np.zeros(self.occ.shape)
        occ = self.occ
        # a one-type table ignores types: gather none (the potential
        # would also keep each fresh vector alive in its seen-cache)
        typ = self.typ[occ] if self.potential.tables.n_types > 1 else None
        f_val[occ], f_der[occ] = self.potential.embed(rho_bar[occ], typ)
        return f_val, f_der

    def _force_sweep(self, f_der: np.ndarray, *, energy: bool = False):
        """Steps 3c-4a: F' exchange and Eq. 4 force accumulation.

        Consumes the survivor record the density sweep of this step
        left (positions are never exchanged or filtered a second time
        in a step); only ``F'`` travels here.  The pair energy is
        accumulated only when ``energy`` is set — a timestep never
        reads it.  Returns ``(force, e_pair or None, n_interactions)``.
        """
        nx, ny = self.grid.nx, self.grid.ny
        force = np.zeros((nx, ny, 3))
        e_pair = np.zeros((nx, ny)) if energy else None
        n_pts = self._sweeps.force(f_der, force, e_pair)
        return force, e_pair, n_pts

    def _integrate(self, force: np.ndarray) -> None:
        """Step 4b: leap-frog update, restricted to the occupied tiles.

        Empty tiles must never integrate: their sentinel positions and
        zero velocities are load-bearing for the exchange masks, and a
        stray force value on a vacated tile would silently corrupt the
        next atom swapped onto it.  A NaN coordinate fails every cutoff
        test, so the atom would silently stop interacting; a non-finite
        force or velocity lands here too, one step later at most.
        """
        non_finite = active_backend().wafer_integrate(
            _flat(self.pos, 3), _flat(self.vel, 3), _flat(force, 3),
            _flat(self.occ), _flat(self.typ), self.masses, self.dt,
        )
        if non_finite:
            raise FloatingPointError(
                f"non-finite positions on the wafer after step "
                f"{self.step_count + 1}"
            )

    def _record_cycles(self, n_cand: np.ndarray, n_int: np.ndarray) -> None:
        """Per-tile cycle counter: the model's price of each tile's
        counts (empty tiles still pay the exchange and fixed control
        costs, and did no candidate or interaction work)."""
        cost, pbc = self.cost_model, self.pbc_inplane
        exchange = cost.exchange_cycles(self.b, pbc=pbc)
        noise = None
        if self.jitter_rel > 0.0:
            noise = self._rng.standard_normal(self.occ.shape).ravel()
        cycles, cand, cnt_int = active_backend().wafer_cycles(
            _flat(self.occ), _flat(n_cand), _flat(n_int), exchange,
            cost.candidate_cycles(pbc=pbc), cost.interaction_cycles(),
            cost.fixed_cycles(), noise, self.jitter_rel,
        )
        moments = self.trace.record(cycles, cand, cnt_int)
        reg = metrics()
        reg.histogram("wse.cycles_per_tile").observe_moments(
            cycles.size, *moments)
        reg.counter("wse.multicast.cycles").inc(float(cycles.size) * exchange)

    def _swap_round(self) -> int:
        proj = self._project_grid(self.pos.copy())
        grids = {"pos": self.pos, "vel": self.vel, "aid": self.aid,
                 "typ": self.typ, "occ": self.occ}
        n = self.swap_engine.apply(
            grids, proj, self.occ, self.core_centers, self.mapping.pitch
        )
        # Re-assert the empty-tile invariants after the remap: a tile an
        # atom just left must look exactly like it never held one (far
        # sentinel position, zero velocity, id -1), or the exchange
        # masks and a later swap onto it would see stale state.
        vac = ~self.occ
        self.pos[vac] = _FAR
        self.vel[vac] = 0.0
        self.aid[vac] = -1
        self.typ[vac] = 0
        self.swap_count += n
        metrics().counter("swap.moves").inc(float(n))
        return n

    def _project_grid(self, pos3: np.ndarray) -> np.ndarray:
        """Fabric-plane projection of every tile's atom (empty -> far)."""
        nx, ny = self.grid.nx, self.grid.ny
        flat = pos3.reshape(-1, 3)
        proj = self.mapping.projection.project(flat).reshape(nx, ny, 2)
        proj[~self.occ] = _FAR
        return proj

    # -- public API --------------------------------------------------------------

    def step(self, n_steps: int = 1) -> None:
        """Advance ``n_steps`` timesteps (with swaps at the set interval)."""
        if n_steps < 0:
            raise ValueError(f"n_steps must be non-negative, got {n_steps}")
        tr = self.tracer
        n_offsets = len(self._pass_offsets)
        for _ in range(n_steps):
            # the "step" envelope's self-time is the loop glue between
            # phases (LAMMPS's "Other" row), so traced time tiles the
            # engine wall time.  The density phase reports two child
            # spans: "exchange", a list build (candidate shift and
            # coarse cut, one kernel; 0 on a reuse step), and "neighbor",
            # the test of the held list.  The per-step gathers and the
            # exact filter run fused inside the two sweep kernels and
            # are the density / pair_force phases' own time.
            with tr.phase("step"):
                with tr.phase("density") as ph:
                    rho_bar, n_cand, n_int, t_build, t_valid = (
                        self._density_sweep()
                    )
                    tr.record("exchange", t_build, {"offsets": n_offsets})
                    tr.record("neighbor", t_valid, {
                        "offsets": n_offsets, "reused": self.last_reused,
                    })
                    ph.add(candidates=int(n_cand.sum()),
                           interactions=int(n_int.sum()))
                with tr.phase("embedding"):
                    _, f_der = self._embed(rho_bar)
                with tr.phase("pair_force"):
                    force, _, _ = self._force_sweep(f_der)
                with tr.phase("integrate"):
                    self._integrate(force)
                with tr.phase("cycle_account"):
                    self._record_cycles(n_cand, n_int)
                self.step_count += 1
                if (self.swap_interval
                        and self.step_count % self.swap_interval == 0):
                    with tr.phase("swap") as ph:
                        moved = self._swap_round()
                        ph.add(moves=moved)

    def compute_energy(self) -> float:
        """Total potential energy at the current positions (eV)."""
        rho_bar, _, _, _, _ = self._density_sweep()
        f_val, f_der = self._embed(rho_bar)
        _, e_pair, _ = self._force_sweep(f_der, energy=True)
        return float(f_val[self.occ].sum() + e_pair[self.occ].sum())

    def compute_forces(self) -> np.ndarray:
        """Forces on the occupied tiles' atoms, id order, (N, 3)."""
        rho_bar, _, _, _, _ = self._density_sweep()
        _, f_der = self._embed(rho_bar)
        force, _, _ = self._force_sweep(f_der)
        order = np.argsort(self.aid[self.occ])
        return force[self.occ][order]

    def verify_coverage(self) -> int:
        """Check every interacting pair lies within the b-neighborhood.

        Returns the number of *uncovered* pairs (0 means the current
        ``b`` is safe).  The wafer algorithm's correctness rests on
        this invariant (Sec. III-A: "every (2b+1)-wide square
        neighborhood contains all interactions"); it can be violated if
        atoms drift or the mapping is perturbed beyond the margin ``b``
        was chosen for, in which case forces are silently wrong.
        """
        state = self.gather_state()
        from repro.md.neighbor_list import NeighborList

        nl = NeighborList(self.box, self.potential.cutoff, skin=0.0)
        pairs = nl.pairs(state.positions)
        order = np.argsort(self.aid[self.occ])
        fx, fy = np.nonzero(self.occ)
        cx, cy = fx[order], fy[order]
        dist = np.maximum(np.abs(cx[pairs.i] - cx[pairs.j]),
                          np.abs(cy[pairs.i] - cy[pairs.j]))
        return int(np.count_nonzero(dist > self.b))

    def assignment_cost(self) -> float:
        """Current C(g) in fabric-plane angstroms (Fig. 9's metric)."""
        proj = self._project_grid(self.pos)
        delta = np.abs(proj - self.core_centers).max(axis=2)
        return float(delta[self.occ].max())

    def gather_state(self) -> AtomsState:
        """Read atoms back into an :class:`AtomsState`, ordered by id."""
        occ = self.occ
        order = np.argsort(self.aid[occ])
        return AtomsState(
            positions=self.pos[occ][order].astype(np.float64),
            velocities=self.vel[occ][order].astype(np.float64),
            types=self.typ[occ][order],
            masses=self.masses.copy(),
            box=self.box,
            ids=self.aid[occ][order],
        )

    def mean_counts(self) -> tuple[float, float]:
        """Mean (candidates, interactions) per occupied tile, last step."""
        return (float(self.last_candidates[self.occ].mean()),
                float(self.last_interactions[self.occ].mean()))

    def measured_rate(self) -> float:
        """Timesteps/second implied by the recorded cycle trace."""
        if self.trace.n_steps == 0:
            raise RuntimeError("no steps recorded yet")
        total = self.trace.total_cycles()
        seconds = self.cost_model.machine.cycles_to_seconds(total)
        return self.trace.n_steps / seconds
