"""WseMd: the lockstep vectorized wafer-scale MD machine.

Executes every tile's worker program simultaneously on per-tile grid
arrays, following the five-step timestep of paper Sec. III-A:

1. **Candidate exchange** — streamed over the (2b+1)^2 neighborhood
   offsets in fixed-size chunks (:mod:`repro.core.streaming`), the
   functional equivalent of the marching multicast.  The wafer repeats
   it every step because it is free there; the host keeps its result —
   an index-only Verlet list at ``cutoff + skin`` — and repeats the
   exchange only when an atom has moved ``skin / 2`` or the occupancy
   changed.  A build shifts and filters one chunk at a time, so the
   dense working set is O(chunk x grid), never O(offsets x grid).
2. **Neighbor list** — every step, the exact ``r < rc`` test over the
   listed pairs only; the survivors per offset are kept as compact
   per-chunk records (candidates arrive in deterministic order; the
   record order *is* the ordinal list) until the force sweep of the
   same step has consumed them.
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

The physics is identical to the reference engine
(:mod:`repro.md.simulation`); tests assert trajectory equivalence.
"""

from __future__ import annotations

import numpy as np

from repro.constants import MVV2E
from repro.core.cycle_model import CycleCostModel
from repro.core.mapping import Mapping, build_mapping
from repro.core.streaming import FAR as _FAR, StreamingSweeps, _flat
from repro.core.neighborhood import required_b
from repro.core.swap import SwapEngine
from repro.md.state import AtomsState
from repro.obs import NULL_TRACER, metrics
from repro.potentials.eam import EAMPotential
from repro.wse.geometry import TileGrid
from repro.wse.trace import CycleTrace

__all__ = ["WseMd"]


def _embed_with_border(mapping: Mapping, b: int) -> Mapping:
    """Re-host a mapping on a grid at least (2b+2) wide, same pitch.

    Atoms keep their relative core positions; an empty border of tiles
    is added symmetrically so the (2b+1)-square neighborhood always fits
    on the fabric.
    """
    side_x = max(mapping.grid.nx, 2 * b + 2)
    side_y = max(mapping.grid.ny, 2 * b + 2)
    border_x = (side_x - mapping.grid.nx) // 2
    border_y = (side_y - mapping.grid.ny) // 2
    large = TileGrid(side_x, side_y)
    cx, cy = mapping.core_xy()
    return Mapping(
        grid=large,
        projection=mapping.projection,
        pitch=mapping.pitch,
        origin=mapping.origin - np.array([border_x, border_y]) * mapping.pitch,
        atom_core=large.flatten(cx + border_x, cy + border_y),
    )


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
        policy).  A speed / memory knob only — survivors are always
        chosen by the exact cutoff test, so any skin produces
        bitwise-identical trajectories.  Between steps the machine
        holds at most 8 B per listed pair plus three grid planes; the
        survivors' geometry never outlives a step.
    offset_chunk:
        Offsets stacked per streaming batch (0 auto-sizes from the
        grid; see :func:`repro.core.streaming.auto_chunk`).  A speed /
        memory knob only — any chunking produces bitwise-identical
        trajectories.
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
        offset_chunk: int = 0,
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
            b = required_b(
                self.mapping,
                state.positions,
                state.box,
                potential.cutoff,
                margin=b_margin,
            )
            # Tiny workloads can need a neighborhood wider than the
            # snug auto-sized grid.  Embed the mapping in a larger grid
            # with an empty border at the *same pitch* (the wafer always
            # has spare tiles around a small problem); b is unchanged
            # because worker separations are unchanged.
            if auto_sized and 2 * b + 1 > min(self.grid.nx, self.grid.ny):
                self.mapping = _embed_with_border(self.mapping, b)
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
        self._check_b_coverage_possible()

        # Streaming-sweep state: the (2b+1)^2 - 1 neighborhood offsets
        # depend only on the (fixed) grid and b; with force symmetry a
        # worker processes only the "i < j" half (the multicast is
        # cropped, Sec. VI-A) and each pair's partner share travels
        # back via the reverse reduction.  The sweeper owns the
        # chunk-stacked exchange buffers (O(chunk x nx x ny), never
        # O(offsets x nx x ny)), between the two sweeps of one step
        # the survivor records (O(interactions)), and across steps the
        # index-only list it decides on its own when to rebuild.
        if not skin >= 0:
            raise ValueError(f"skin must be >= 0, got {skin}")
        self.skin = float(skin)
        if offset_chunk < 0:
            raise ValueError(
                f"offset_chunk must be >= 0, got {offset_chunk}"
            )
        self.offset_chunk = int(offset_chunk)
        self._offsets = [
            (int(dx), int(dy))
            for dx, dy in self.grid.neighborhood_offsets(self.b)
        ]
        self._pass_offsets = [
            (dx, dy)
            for dx, dy in self._offsets
            if not self.force_symmetry or dy > 0 or (dy == 0 and dx > 0)
        ]
        self._sweeps = StreamingSweeps(
            nx=nx,
            ny=ny,
            dtype=self.dtype,
            lengths=self.box.lengths,
            periodic=self.box.periodic,
            cutoff=potential.cutoff,
            skin=self.skin,
            tables=potential.tables,
            offsets=self._pass_offsets,
            chunk=self.offset_chunk,
            force_symmetry=self.force_symmetry,
        )

    # -- helpers ---------------------------------------------------------------

    def _check_b_coverage_possible(self) -> None:
        if 2 * self.b + 1 > max(self.grid.nx, self.grid.ny):
            raise ValueError(
                f"neighborhood 2b+1={2 * self.b + 1} exceeds grid "
                f"{self.grid.nx}x{self.grid.ny}"
            )

    @property
    def n_atoms(self) -> int:
        """Number of atoms on the machine."""
        return int(self.occ.sum())

    @property
    def rng(self) -> np.random.Generator:
        """The timing-noise generator (for checkpointing its state)."""
        return self._rng

    @property
    def effective_offset_chunk(self) -> int:
        """The resolved streaming chunk (auto-sized when 0 was passed)."""
        return self._sweeps.chunk

    # -- the five-step timestep ------------------------------------------------

    def _density_sweep(self):
        """Steps 1-3a: candidate exchange (on a list build), neighbor
        test, density sums.

        Returns the accumulated grids plus the exchange / neighbor
        wall-time split the streaming sweep measured (recorded as child
        spans of the ``density`` phase by :meth:`step`).
        """
        nx, ny = self.grid.nx, self.grid.ny
        rho_bar = np.zeros((nx, ny))
        n_cand = np.zeros((nx, ny), dtype=np.int64)
        n_int = np.zeros((nx, ny), dtype=np.int64)
        t_ex, t_nb, reused = self._sweeps.density(
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
        return rho_bar, n_cand, n_int, t_ex, t_nb

    def _embed(self, rho_bar: np.ndarray):
        """Step 3b: embedding energy and derivative per tile."""
        nx, ny = self.grid.nx, self.grid.ny
        f_val = np.zeros((nx, ny))
        f_der = np.zeros((nx, ny))
        occ = self.occ
        # a one-type table ignores types: gather none (the potential
        # would also keep each fresh vector alive in its seen-cache)
        typ = self.typ[occ] if self.potential.tables.n_types > 1 else None
        f_val[occ], f_der[occ] = self.potential.embed(rho_bar[occ], typ)
        return f_val, f_der

    def _force_sweep(self, f_der: np.ndarray, *, energy: bool = False):
        """Steps 3c-4a: F' exchange and Eq. 4 force accumulation.

        Consumes the survivor records the density sweep of this step
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
        next atom swapped onto it.
        """
        # flat occupied-tile indices into row views of the grids: one
        # index array, ``take`` gathers, integer-indexed row scatters
        tiles = np.flatnonzero(self.occ)
        vel_rows = _flat(self.vel, 3)
        pos_rows = _flat(self.pos, 3)
        mass = self.masses.take(_flat(self.typ).take(tiles))
        accel = _flat(force, 3).take(tiles, axis=0) / (mass[:, None] * MVV2E)
        vel = vel_rows.take(tiles, axis=0)
        vel += (accel * self.dt).astype(self.dtype)
        vel_rows[tiles] = vel
        pos = pos_rows.take(tiles, axis=0)
        pos += (vel * self.dt).astype(self.dtype)
        pos_rows[tiles] = pos
        # A NaN coordinate fails every cutoff test, so the atom would
        # silently stop interacting; a non-finite force or velocity
        # lands here too, one step later at most.
        if not np.isfinite(pos).all():
            raise FloatingPointError(
                f"non-finite positions on the wafer after step "
                f"{self.step_count + 1}"
            )

    def _record_cycles(self, n_cand: np.ndarray, n_int: np.ndarray) -> None:
        cycles = self.cost_model.step_cycles(
            n_cand.astype(np.float64),
            n_int.astype(np.float64),
            self.b,
            pbc=self.pbc_inplane,
        )
        # empty tiles still pay the exchange and fixed control costs
        empty_cost = self.cost_model.exchange_cycles(
            self.b, pbc=self.pbc_inplane
        ) + self.cost_model.fixed_cycles()
        cycles = np.where(self.occ, cycles, empty_cost)
        if self.jitter_rel > 0.0:
            noise = self._rng.standard_normal(cycles.shape)
            cycles = cycles * (1.0 + self.jitter_rel * noise)
        # empty tiles did no candidate/interaction work this step
        cand = np.where(self.occ, n_cand, 0)
        cnt_int = np.where(self.occ, n_int, 0)
        self.trace.record(cycles.ravel(), cand.ravel(), cnt_int.ravel())
        reg = metrics()
        reg.histogram("wse.cycles_per_tile").observe_many(cycles.ravel())
        reg.counter("wse.multicast.cycles").inc(
            float(self.grid.n_tiles)
            * self.cost_model.exchange_cycles(self.b, pbc=self.pbc_inplane)
        )

    def _swap_round(self) -> int:
        proj3 = self.pos.copy()
        proj = self._project_grid(proj3)
        grids = {
            "pos": self.pos,
            "vel": self.vel,
            "aid": self.aid,
            "typ": self.typ,
            "occ": self.occ,
        }
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
            # engine wall time.  A list build reports its exchange /
            # neighbor split (candidate shift, coarse filter) as child
            # spans of the density phase; the per-step gathers and the
            # exact filter run fused inside the two sweep kernels and
            # are the density / pair_force phases' own time.
            with tr.phase("step"):
                with tr.phase("density") as ph:
                    rho_bar, n_cand, n_int, t_ex, t_nb = (
                        self._density_sweep()
                    )
                    tr.record("exchange", t_ex, {"offsets": n_offsets})
                    tr.record(
                        "neighbor",
                        t_nb,
                        {"offsets": n_offsets, "reused": self.last_reused},
                    )
                    ph.add(
                        candidates=int(n_cand.sum()),
                        interactions=int(n_int.sum()),
                    )
                with tr.phase("embedding"):
                    _, f_der = self._embed(rho_bar)
                with tr.phase("pair_force"):
                    force, _, _ = self._force_sweep(f_der)
                with tr.phase("integrate"):
                    self._integrate(force)
                with tr.phase("cycle_account"):
                    self._record_cycles(n_cand, n_int)
                self.step_count += 1
                if (
                    self.swap_interval
                    and self.step_count % self.swap_interval == 0
                ):
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

        pairs = NeighborList(self.box, self.potential.cutoff, skin=0.0).pairs(
            state.positions
        )
        occ = self.occ
        order = np.argsort(self.aid[occ])
        fx, fy = np.nonzero(occ)
        cx = fx[order]
        cy = fy[order]
        dist = np.maximum(
            np.abs(cx[pairs.i] - cx[pairs.j]),
            np.abs(cy[pairs.i] - cy[pairs.j]),
        )
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
        occ = self.occ
        return (
            float(self.last_candidates[occ].mean()),
            float(self.last_interactions[occ].mean()),
        )

    def measured_rate(self) -> float:
        """Timesteps/second implied by the recorded cycle trace."""
        if self.trace.n_steps == 0:
            raise RuntimeError("no steps recorded yet")
        total = self.trace.total_cycles()
        seconds = self.cost_model.machine.cycles_to_seconds(total)
        return self.trace.n_steps / seconds
