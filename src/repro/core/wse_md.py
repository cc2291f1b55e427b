"""WseMd: the lockstep vectorized wafer-scale MD machine.

Executes every tile's worker program simultaneously on per-tile grid
arrays, following the five-step timestep of paper Sec. III-A:

1. **Candidate exchange** — one ``wafer_list`` kernel call over all
   (2b+1)^2 neighborhood offsets, the functional equivalent of the
   marching multicast.  The wafer repeats it every step because it is
   free there; the host keeps its result — an index-only Verlet list at
   ``cutoff + skin`` — and repeats the exchange only when an atom has
   moved ``skin / 2`` or the occupancy changed.
2. **Neighbor list** — every step, the exact ``r < rc`` test over the
   listed pairs only; the survivors form one compact record
   (candidates arrive in deterministic order; the record order *is*
   the ordinal list), a value the density sweep returns and the force
   sweep of the same step takes.
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
(:mod:`repro.kernels`).  This class owns the grids and sequences the
kernels: one evaluation (list test or build, density, embedding,
force) serves :meth:`step` and both observables, and holds nothing
between its sweeps.  Across steps it holds the list, and decides when
that list is reused from values alone (the same occupancy, every tile
within ``skin / 2`` of its build-time position), so an atom swap, a
restored checkpoint or a caller writing into the
grids needs no hook, and a NaN, which fails that test, reaches a build
that refuses it.  Survivors are always chosen by the exact cutoff test,
in list order, so trajectories do not depend on the skin.  The physics
is identical to the reference engine (:mod:`repro.md.simulation`);
tests assert trajectory equivalence.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from repro.core.cycle_model import CycleCostModel
from repro.core.mapping import Mapping, build_mapping
from repro.core.neighborhood import required_b
from repro.core.swap import SwapEngine
from repro.kernels import active_backend
from repro.md.state import AtomsState
from repro.obs import NULL_TRACER, metrics
from repro.potentials.eam import EAMPotential
from repro.wse.geometry import TileGrid
from repro.wse.trace import CycleTrace

__all__ = ["WseMd", "FAR"]

#: Sentinel coordinate of an empty tile's "atom at infinity": masked by
#: the occupancy bit, it only has to stay finite when squared.
FAR = 1.0e15


class _SurvivorRecord(NamedTuple):
    """The step's surviving candidates, offset-major (exchange order):
    everything the force sweep needs.  ``starts[i]:starts[i + 1]`` are
    the rows of the ``i``-th offset, within which every center (and
    every source) tile appears at most once."""

    starts: np.ndarray
    ctr: np.ndarray  # flat center tile, int32
    src: np.ndarray  # flat source tile (the partner), int32
    r: np.ndarray  # distance, machine dtype
    unit: np.ndarray  # (n, 3) unit vector center -> source, machine dtype
    rho_d_src: np.ndarray  # rho' through the source's type
    rho_d_ctr: np.ndarray  # rho' through the center's type
    phi_member: np.ndarray | int  # phi table per row (0 = single type)

    @property
    def nbytes(self) -> int:
        """Bytes held, counting a shared single-type ``rho'`` once."""
        arrays = [self.starts, self.ctr, self.src, self.r, self.unit,
                  self.rho_d_src]
        if self.rho_d_ctr is not self.rho_d_src:
            arrays += [self.rho_d_ctr, self.phi_member]
        return sum(a.nbytes for a in arrays)


class _SkinList(NamedTuple):
    """The index-only Verlet list: every pair within ``cutoff + skin``
    at build time as int32 ``(starts, ctr, src)``, ordered like
    :class:`_SurvivorRecord`, and what its validity is judged by."""

    listed: tuple[np.ndarray, np.ndarray, np.ndarray]
    pos: np.ndarray  # build-time position plane (a copy)
    occ: np.ndarray  # build-time occupancy plane (a copy)
    n_cand: np.ndarray  # received candidates per tile, int32

    @property
    def nbytes(self) -> int:
        index = sum(a.nbytes for a in self.listed)
        return index + self.pos.nbytes + self.occ.nbytes + self.n_cand.nbytes


def _flat(grid: np.ndarray, *tail: int) -> np.ndarray:
    """A flat-tile *view* of an (nx, ny, ...) grid."""
    if not grid.flags.c_contiguous:
        raise ValueError("sweep accumulators must be C-contiguous")
    return grid.reshape(-1, *tail)


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
    cost_model:
        Cycle pricing; defaults to the calibrated baseline model.
    swap_interval:
        Apply a swap round every this many steps (0 disables).
    swap_engine:
        The remapping a swap round applies (default: greedy mutual).
    mapping:
        A pre-built atom-to-core mapping (wins over ``grid``/``fill``).
    dtype:
        Storage/compute dtype for per-tile state; ``np.float32``
        matches the WSE's single-precision implementation.
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
        Verlet skin (A) of the list carried across steps, reused while
        every tile stays within ``skin / 2`` of its build-time position;
        0 re-runs the exchange and filter every step (the paper's
        policy) and retains nothing.  A speed / memory knob only: any
        skin produces bitwise-identical trajectories.
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
        if not skin >= 0:
            raise ValueError(f"skin must be >= 0, got {skin}")
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
        self.skin = float(skin)
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
            # a tiny workload can need a neighborhood wider than the snug
            # auto-sized grid: add an empty border at the *same pitch*
            # (worker separations, and so b, are unchanged)
            if auto_sized and 2 * b + 1 > min(self.grid.nx, self.grid.ny):
                self.mapping = self.mapping.with_border(b)
                self.grid = self.mapping.grid
        if b < 1:
            raise ValueError(f"b must be >= 1, got {b}")
        self.b = int(b)

        nx, ny = self.grid.nx, self.grid.ny
        self.occ = np.zeros((nx, ny), dtype=bool)
        self.pos = np.full((nx, ny, 3), FAR, dtype=self.dtype)
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
            1.0 + 8.0 * float(np.finfo(self.dtype).eps)
        )
        #: the list held across steps (None: the next density builds)
        self._list: _SkinList | None = None

    # -- helpers ---------------------------------------------------------------

    @property
    def n_atoms(self) -> int:
        """Number of atoms on the machine."""
        return int(self.occ.sum())

    @property
    def rng(self) -> np.random.Generator:
        """The timing-noise generator (for checkpointing its state)."""
        return self._rng

    def list_bytes(self) -> int:
        """Bytes retained between steps: the index list plus the
        build-time planes (0 before the first build and at skin 0)."""
        return self._list.nbytes if self._list is not None else 0

    # -- the five-step timestep ------------------------------------------------

    def _density_sweep(self, tr=NULL_TRACER):
        """Steps 1-3a: candidate exchange (on a list build), neighbor
        test, density sums.

        Returns ``(rho_bar, n_cand, n_int, record, threads)``: the
        accumulated grids, the survivor record :meth:`_force_sweep`
        takes, and the most threads a kernel call here ran on.  The
        seconds the list build (0.0 on a reuse step) and the test of the
        held list (0.0 when none was held) took go to ``tr`` as the
        ``exchange`` / ``neighbor`` child spans of the ``density`` phase.
        """
        kernels = active_backend()
        nx, ny = self.grid.nx, self.grid.ny
        rho_bar = np.zeros((nx, ny))
        n_int = np.zeros((nx, ny), dtype=np.int64)
        grouped = self.potential.tables.grouped()
        held = self._list
        t0 = time.perf_counter()
        reused = held is not None and kernels.list_valid(
            self.pos, self.occ, held.pos, held.occ, (0.5 * self.skin) ** 2
        )
        t_valid = time.perf_counter() - t0 if held is not None else 0.0
        threads, t_build = 1, 0.0
        if reused:
            listed, cand = held.listed, held.n_cand
        else:
            self._list = None  # a build that raises leaves no list
            # every NaN fails the list test; empty tiles hold a finite FAR
            if not np.isfinite(self.pos).all():
                raise FloatingPointError(
                    f"non-finite positions on the wafer at step "
                    f"{self.step_count + 1}"
                )
            cand = np.zeros((nx, ny), dtype=np.int32)
            t0 = time.perf_counter()
            listed = kernels.wafer_list(
                self.pos, self.occ, self._offset_rows, self._lengths,
                self._periodic, self._reach2, cand,
            )
            t_build = time.perf_counter() - t0
            threads = getattr(kernels, "threads", 1)
        record = _SurvivorRecord(*kernels.wafer_density(
            _flat(self.pos, 3), listed, self._lengths, self._periodic,
            float(self.potential.cutoff), _flat(self.typ),
            grouped.rho.bank(), grouped.phi_index, self.force_symmetry,
            _flat(rho_bar), _flat(n_int),
        ))
        threads = max(threads, getattr(kernels, "threads", 1))
        metrics().counter("kernels.wafer_density.calls").inc()
        n_cand = cand.astype(np.int64)
        if not reused and self.skin > 0.0:
            self._list = _SkinList(listed, self.pos.copy(), self.occ.copy(),
                                   cand)
        self.last_candidates, self.last_interactions = n_cand, n_int
        if reused:
            self.list_reuses += 1
            metrics().counter("wse.list.reuses").inc()
        else:
            self.list_builds += 1
            metrics().counter("wse.list.builds").inc()
        n_offsets = len(self._offset_rows)
        tr.record("exchange", t_build, {"offsets": n_offsets})
        tr.record("neighbor", t_valid, {"offsets": n_offsets,
                                        "reused": reused})
        return rho_bar, n_cand, n_int, record, threads

    def _embed(self, rho_bar: np.ndarray):
        """Step 3b: embedding energy and derivative per tile, through the
        occupancy mask (at ~94% occupancy boolean indexing beats a
        ``flatnonzero`` index with ``take`` and ``put``)."""
        f_val = np.zeros(self.occ.shape)
        f_der = np.zeros(self.occ.shape)
        occ = self.occ
        # a one-type table ignores types: gather none (the potential
        # would also keep each fresh vector alive in its seen-cache)
        typ = self.typ[occ] if self.potential.tables.n_types > 1 else None
        f_val[occ], f_der[occ] = self.potential.embed(rho_bar[occ], typ)
        return f_val, f_der

    def _force_sweep(self, record: _SurvivorRecord, f_der: np.ndarray, *,
                     energy: bool = False):
        """Steps 3c-4a: F' exchange and Eq. 4 force accumulation over
        the density sweep's survivor ``record`` (only ``F'`` travels,
        gathered at the recorded tiles; the pair energy only when
        ``energy`` is set).  Returns ``(force, e_pair or None)``.
        """
        nx, ny = self.grid.nx, self.grid.ny
        force = np.zeros((nx, ny, 3))
        e_pair = np.zeros((nx, ny)) if energy else None
        active_backend().wafer_force(
            record, _flat(f_der), self.potential.tables.grouped().phi.bank(),
            self.force_symmetry, _flat(force, 3),
            _flat(e_pair) if e_pair is not None else None,
        )
        metrics().counter("kernels.wafer_force.calls").inc()
        return force, e_pair

    def _evaluate(self, tr, *, energy: bool = False):
        """Steps 1-4a at the current positions, each in its ``tr``
        phase: list test or build, density, embedding, force.

        Returns ``(force, e_pot or None, n_cand, n_int)``, the potential
        energy (eV) only when ``energy`` is set.
        """
        with tr.phase("density") as ph:
            rho_bar, n_cand, n_int, record, threads = self._density_sweep(tr)
            ph.add(candidates=int(n_cand.sum()),
                   interactions=int(n_int.sum()))
        with tr.phase("embedding"):
            f_val, f_der = self._embed(rho_bar)
        with tr.phase("pair_force"):
            force, e_pair = self._force_sweep(record, f_der, energy=energy)
        self.sweep_threads = max(threads,
                                 getattr(active_backend(), "threads", 1))
        e_pot = (float(f_val[self.occ].sum() + e_pair[self.occ].sum())
                 if energy else None)
        return force, e_pot, n_cand, n_int

    def _integrate(self, force: np.ndarray) -> None:
        """Step 4b: leap-frog update, restricted to the occupied tiles.

        Empty tiles must never integrate: their sentinel positions and
        zero velocities are load-bearing for the exchange masks, and a
        stray force value on a vacated tile would silently corrupt the
        next atom swapped onto it.  A non-finite force or velocity
        raises here, naming the step.
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
        noise = (self._rng.standard_normal(self.occ.shape).ravel()
                 if self.jitter_rel > 0.0 else None)
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
        # atom just left must look exactly like it never held one, or
        # the exchange masks and a later swap onto it see stale state.
        vac = ~self.occ
        self.pos[vac] = FAR
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
        proj[~self.occ] = FAR
        return proj

    # -- public API --------------------------------------------------------------

    def step(self, n_steps: int = 1) -> None:
        """Advance ``n_steps`` timesteps (with swaps at the set interval)."""
        if n_steps < 0:
            raise ValueError(f"n_steps must be non-negative, got {n_steps}")
        tr = self.tracer
        for _ in range(n_steps):
            # the "step" envelope's self-time is the loop glue between
            # phases
            with tr.phase("step"):
                force, _, n_cand, n_int = self._evaluate(tr)
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
        return self._evaluate(NULL_TRACER, energy=True)[1]

    def compute_forces(self) -> np.ndarray:
        """Forces on the occupied tiles' atoms, id order, (N, 3)."""
        force = self._evaluate(NULL_TRACER)[0]
        order = np.argsort(self.aid[self.occ])
        return force[self.occ][order]

    def verify_coverage(self) -> int:
        """Check every interacting pair lies within the b-neighborhood.

        Returns the number of *uncovered* pairs (0 means the current
        ``b`` is safe).  The wafer algorithm's correctness rests on
        this invariant (Sec. III-A); atoms that drift beyond the margin
        ``b`` was chosen for silently lose interactions.
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
