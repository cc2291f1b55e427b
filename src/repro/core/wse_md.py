"""WseMd: the lockstep vectorized wafer-scale MD machine.

Executes every tile's worker program simultaneously on per-tile grid
arrays, following the five-step timestep of paper Sec. III-A:

1. **Candidate exchange** — one list build over all (2b+1)^2
   neighborhood offsets, the functional equivalent of the
   marching multicast.  The wafer repeats it every step because it is
   free there; the kernel tier that built it keeps its result — an
   index-only Verlet list at ``cutoff + skin`` — and repeats the
   exchange only when an atom has moved ``skin / 2`` or the occupancy
   changed.
2. **Neighbor list** — every step, the exact ``r < rc`` test over the
   listed pairs only; the survivors form one record (candidates arrive
   in deterministic order; the record order *is* the ordinal list),
   which lives only inside the step's kernel call.
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

Everything per tile — list test and build, both sweeps, the
embedding, the leap-frog and the cycle counter — is one ``wafer_step``
call of the active registry tier (:mod:`repro.kernels`), on one team of
threads.  This class owns the grids and makes the call: the same call
serves :meth:`step` and, without the leap-frog and the counter, both
observables.  Between calls run the swap rounds and the trace's
moments.  Across steps the machine hands the tier one scratch dict, in
which the tier keeps its own list (as each core of the paper keeps the
list it built) and its working memory; the tier reuses its list when
the values say so (the same occupancy, every tile within ``skin / 2``
of its build-time position), so an atom swap, a restored checkpoint or
a caller writing into the grids needs no hook, and a NaN, which fails
that test, reaches a build that refuses it.  Survivors are always
chosen by the exact cutoff test, in list order, so trajectories do not
depend on the skin.  The physics is identical to the reference engine
(:mod:`repro.md.simulation`); tests assert trajectory equivalence.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.cycle_model import CycleCostModel
from repro.core.mapping import build_mapping
from repro.core.neighborhood import required_b
from repro.core.swap import SwapEngine
from repro.kernels import active_backend
from repro.kernels.numpy_backend import STEP_PHASES
from repro.md.state import AtomsState
from repro.obs import NULL_TRACER
from repro.potentials.eam import EAMPotential
from repro.wse.geometry import TileGrid
from repro.wse.trace import CycleTrace

__all__ = ["WseMd", "FAR"]

#: Sentinel coordinate of an empty tile's "atom at infinity": masked by
#: the occupancy bit, it only has to stay finite when squared.
FAR = 1.0e15


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
    fill:
        Target occupancy (atoms per tile) of an auto-sized grid.
    dt_fs:
        Timestep (fs).
    swap_interval:
        Apply a greedy mutual swap round every this many steps (0
        disables).
    jitter_rel:
        Relative per-tile timing noise (models hardware effects like
        bank conflicts; the paper measures 0.11 %).  Deterministic via
        ``seed`` (or the passed ``rng``).
    seed:
        Seed of the timing-noise generator when no ``rng`` is passed.
    rng:
        Pre-built generator for the timing noise (wins over ``seed``);
        the runtime passes its checkpointable "engine" seed stream.
    force_symmetry:
        Enable the paper's "Force Symmetry" future optimization
        (Sec. VI-A): pair terms are computed once per undirected pair
        (half the neighborhood offsets) and the partner's share is
        returned by the reverse-multicast reduction.  Physics is
        identical; pair work halves (price it with an
        :class:`~repro.core.cycle_model.OptimizationConfig` whose
        ``interaction_factor`` is 0.5).
    skin:
        Verlet skin (A) of the list the kernel tier keeps across steps,
        reused while every tile stays within ``skin / 2`` of its
        build-time position; 0 re-runs the exchange and filter every
        step (the paper's policy) and keeps no list.  A speed / memory
        knob only: any skin produces bitwise-identical trajectories.
    tracer:
        :mod:`repro.obs` tracer for :meth:`step`'s phase spans.
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
        swap_interval: int = 0,
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
        if not skin >= 0:
            raise ValueError(f"skin must be >= 0, got {skin}")
        self.potential = potential
        self.box = state.box
        self.masses = state.masses.copy()
        self.dt = dt_fs / 1000.0
        self.dt_fs = float(dt_fs)
        self.cost_model = CycleCostModel()
        if swap_interval < 0:
            raise ValueError(f"swap interval must be >= 0, got {swap_interval}")
        self.swap_interval = swap_interval
        self.jitter_rel = float(jitter_rel)
        self.force_symmetry = bool(force_symmetry)
        self.skin = float(skin)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._rng = rng if rng is not None else np.random.default_rng(seed)
        self.pbc_inplane = bool(state.box.periodic[0] or state.box.periodic[1])

        self.mapping = build_mapping(
            state.positions, state.box, grid=grid, fill=fill
        )
        self.grid = self.mapping.grid
        if b is None:
            b = required_b(self.mapping, state.positions, state.box,
                           potential.cutoff, margin=b_margin)
            # a tiny workload can need a neighborhood wider than the snug
            # auto-sized grid: add an empty border at the *same pitch*
            # (worker separations, and so b, are unchanged)
            if grid is None and 2 * b + 1 > min(self.grid.nx, self.grid.ny):
                self.mapping = self.mapping.with_border(b)
                self.grid = self.mapping.grid
        if b < 1:
            raise ValueError(f"b must be >= 1, got {b}")
        self.b = int(b)

        nx, ny = self.grid.nx, self.grid.ny
        self.occ = np.zeros((nx, ny), dtype=bool)
        self.pos = np.full((nx, ny, 3), FAR)
        self.vel = np.zeros((nx, ny, 3))
        self.aid = np.full((nx, ny), -1, dtype=np.int64)
        self.typ = np.zeros((nx, ny), dtype=np.int64)
        cx, cy = self.mapping.core_xy()
        self.occ[cx, cy] = True
        self.pos[cx, cy] = state.positions
        self.vel[cx, cy] = state.velocities
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
        #: the most threads a kernel call of the last evaluation ran on
        #: (1 on a tier without threads)
        self.sweep_threads = 1
        if 2 * self.b + 1 > max(nx, ny):
            raise ValueError(f"neighborhood 2b+1={2 * self.b + 1} exceeds "
                             f"grid {nx}x{ny}")

        # The sweeps' offsets; with force symmetry a worker processes
        # only the "i < j" half (the multicast is cropped, Sec. VI-A) and
        # each pair's partner share travels back by the reverse reduction.
        offsets = self.grid.neighborhood_offsets(self.b)
        if self.force_symmetry:
            dx, dy = offsets.T
            offsets = offsets[(dy > 0) | ((dy == 0) & (dx > 0))]
        self._offset_rows = np.ascontiguousarray(offsets, dtype=np.int64)
        self._lengths = tuple(float(v) for v in self.box.lengths)
        self._periodic = tuple(bool(v) for v in self.box.periodic)
        # the coarse and the exact cut are separate reductions: a few-ulp
        # pad keeps the list a superset of the survivors even at skin 0
        self._reach2 = (float(potential.cutoff) + self.skin) ** 2 * (
            1.0 + 8.0 * float(np.finfo(np.float64).eps)
        )
        #: what the kernel tier keeps from one call to the next, in its
        #: own slot (its list, the survivor record's columns, per-tile
        #: planes); the machine never reads it, and empties it when
        #: another tier takes over (the next call builds, bitwise)
        self._scratch: dict = {}
        self._tier = None  # the tier of the last call

    # -- helpers ---------------------------------------------------------------

    @property
    def n_atoms(self) -> int:
        """Number of atoms on the machine."""
        return int(self.occ.sum())

    @property
    def rng(self) -> np.random.Generator:
        """The timing-noise generator (for checkpointing its state)."""
        return self._rng

    # -- the five-step timestep ------------------------------------------------

    def _evaluate(self, tr, *, advance: bool = False, energy: bool = False):
        """Steps 1-4 at the current positions in one ``wafer_step`` call:
        the list test (or a build), density, embedding, force and, when
        ``advance`` is set, the leap-frog and the cycle counter.

        Keeps the step's counts and records the call's phases in
        ``tr``.  Returns the kernel's
        :class:`~repro.kernels.numpy_backend.WaferStep`.
        """
        kernels = active_backend()
        if kernels is not self._tier:
            self._scratch.clear()
            self._tier = kernels
        grouped = self.potential.tables.grouped()
        cost, pbc = self.cost_model, self.pbc_inplane
        step = kernels.wafer_step(
            self.pos, self.vel, self.occ, self.typ, self._offset_rows,
            self._lengths, self._periodic, self._reach2,
            (0.5 * self.skin) ** 2, float(self.potential.cutoff),
            (grouped.rho.bank(), grouped.embed.bank(), grouped.phi.bank()),
            grouped.phi_index, self.force_symmetry,
            masses=self.masses if advance else None, dt=self.dt,
            cost=(cost.exchange_cycles(self.b, pbc=pbc),
                  cost.candidate_cycles(pbc=pbc), cost.interaction_cycles(),
                  cost.fixed_cycles()) if advance else None,
            # the timing noise is drawn before the step, from the same
            # stream, in the order the counter always drew it
            noise=(self._rng.standard_normal(self.occ.shape).ravel()
                   if advance and self.jitter_rel > 0.0 else None),
            jitter=self.jitter_rel, energy=energy, scratch=self._scratch,
        )
        if not step.ran:
            # every NaN fails the list test; empty tiles hold a finite FAR
            raise FloatingPointError(
                f"non-finite positions on the wafer at step "
                f"{self.step_count + 1}"
            )
        self.last_candidates = step.n_cand.astype(np.int64)
        self.last_interactions = step.n_int
        self.sweep_threads = step.threads
        if step.reused:
            self.list_reuses += 1
        else:
            self.list_builds += 1
        if tr.enabled:
            n_offsets = len(self._offset_rows)
            spans = dict(zip(STEP_PHASES, step.phase_ns))
            spans.pop("cycle_account")  # priced once the trace has it
            counters = {
                "neighbor": {"offsets": n_offsets, "reused": step.reused},
                "exchange": {"offsets": n_offsets},
                "density": {"candidates": int(step.n_cand.sum()),
                            "interactions": int(step.n_int.sum())},
            }
            for name, ns in spans.items():
                tr.record(name, ns * 1e-9, counters.get(name))
        return step

    def _account(self, step) -> None:
        """The step's end: a non-finite coordinate the leap-frog wrote
        raises, naming the step; else the cycle counter's plane joins
        the trace.  Empty tiles never integrate: their sentinel
        positions and zero velocities are load-bearing for the exchange
        masks, and a stray force on a vacated tile would silently
        corrupt the next atom swapped onto it."""
        if step.non_finite:
            raise FloatingPointError(
                f"non-finite positions on the wafer after step "
                f"{self.step_count + 1}"
            )
        self.trace.record(*step.cycles)

    def _swap_round(self) -> int:
        proj = self._project_grid(self.pos.copy())
        grids = {"pos": self.pos, "vel": self.vel, "aid": self.aid,
                 "typ": self.typ, "occ": self.occ}
        n = SwapEngine().apply(
            grids, proj, self.occ, self.core_centers, self.mapping.pitch
        )
        # Re-assert the empty-tile invariants after the remap: a tile an
        # atom just left must look exactly like it never held one, or
        # the exchange masks and a later swap onto it see stale state.
        vac = ~self.occ
        self.pos[vac] = FAR
        self.vel[vac] = 0.0
        self.aid[vac] = -1
        self.typ[vac] = 0
        self.swap_count += n
        return n

    def _project_grid(self, pos3: np.ndarray) -> np.ndarray:
        """Fabric-plane projection of every tile's atom (empty -> far)."""
        nx, ny = self.grid.nx, self.grid.ny
        flat = pos3.reshape(-1, 3)
        proj = self.mapping.projection.project(flat).reshape(nx, ny, 2)
        proj[~self.occ] = FAR
        return proj

    # -- public API --------------------------------------------------------------

    def step(self, n_steps: int = 1) -> None:
        """Advance ``n_steps`` timesteps (with swaps at the set interval)."""
        if n_steps < 0:
            raise ValueError(f"n_steps must be non-negative, got {n_steps}")
        tr = self.tracer
        for _ in range(n_steps):
            # the "step" envelope's self-time is the glue around the
            # kernel call
            with tr.phase("step"):
                step = self._evaluate(tr, advance=True)
                t0 = time.perf_counter_ns()
                self._account(step)
                tr.record("cycle_account", 1e-9 * (
                    time.perf_counter_ns() - t0 + step.phase_ns[-1]))
                self.step_count += 1
                if (self.swap_interval
                        and self.step_count % self.swap_interval == 0):
                    with tr.phase("swap") as ph:
                        moved = self._swap_round()
                        ph.add(moves=moved)

    def compute_energy(self) -> float:
        """Total potential energy at the current positions (eV)."""
        step = self._evaluate(NULL_TRACER, energy=True)
        occ = self.occ
        return float(step.f_val[occ].sum() + step.e_pair[occ].sum())

    def compute_forces(self) -> np.ndarray:
        """Forces on the occupied tiles' atoms, id order, (N, 3)."""
        force = self._evaluate(NULL_TRACER).force
        order = np.argsort(self.aid[self.occ])
        return force[self.occ][order]

    def verify_coverage(self) -> int:
        """Check every interacting pair lies within the b-neighborhood.

        Returns the number of *uncovered* pairs (0 means the current
        ``b`` is safe).  The wafer algorithm's correctness rests on
        this invariant (Sec. III-A); atoms that drift beyond the margin
        ``b`` was chosen for silently lose interactions.  The check
        builds a reference list of every pair, so it first lets what
        the kernel tier keeps go, its list too (the next step rebuilds
        it, bitwise).
        """
        self._scratch.clear()
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
            positions=self.pos[occ][order],
            velocities=self.vel[occ][order],
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
