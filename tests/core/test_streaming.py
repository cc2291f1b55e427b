"""Streaming-sweep equivalence and memory-scaling tests.

The streaming, offset-fused sweeps (:mod:`repro.core.streaming`)
replaced the record-based lockstep passes that kept one full-grid
record per neighborhood offset.  The contract is **bitwise** identity:
per candidate, the arithmetic and the per-tile accumulation order are
exactly those of the old passes.  This module pins that contract
against a reference implementation of the record-based passes embedded
below (the pre-streaming ``_collect_pairs`` / ``_density_pass`` /
``_force_pass`` logic, verbatim in structure), across dtypes, chunk
sizes, b values, non-square grids and the force-symmetry path — a fixed
matrix plus a Hypothesis sweep over vacancies, alloys and periodic
boxes.  The record tests pin the lifetime contract of the per-chunk
survivor records that carry the one filter's result from the density
sweep to the force sweep.  The list tests pin the index-only Verlet list
the sweeps carry across steps: a machine with a skin is bitwise the
machine that filters every step (``skin=0``), whatever is done to its
grids between steps, and it builds exactly when an independent reading
of the rule says it must.

The memory tests assert the whole point of the restructuring: peak
memory is O(chunk x grid), so paper-scale grids fit.  The expensive
scale tiers are opt-in via ``REPRO_SCALE_TESTS`` (any value enables the
~50k-atom smoke the CI scaling leg runs; ``paper`` additionally runs
the 801,792-atom paper grid).
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.exchange import iter_neighborhood, shift2d_into
from repro.core.streaming import (
    FAR,
    StreamingSweeps,
    SweepRecordError,
    auto_chunk,
)
from repro.core.wse_md import WseMd
from repro.lattice.cells import BCC
from repro.lattice.crystals import replicate
from repro.md.boundary import Box
from repro.md.state import AtomsState
from repro.obs import metrics
from repro.potentials.alloy import mix_tables
from repro.potentials.eam import EAMPotential
from repro.potentials.elements import ELEMENTS, make_element_tables
from repro.potentials.spline import SplineGroup, UniformCubicSpline
from tests.conftest import bulk_state, small_slab_state

SCALE_TESTS = os.environ.get("REPRO_SCALE_TESTS", "")


# -- the reference (record-based) passes -------------------------------------
#
# A faithful transcription of the pre-streaming WseMd pass logic: one
# full-grid record per offset, per-type spline loops, identical offset
# and accumulation order.  Deliberately kept independent of
# repro.core.streaming so the equivalence test has a second opinion.


def reference_density_force(sim: WseMd):
    """Record-based density + force passes on ``sim``'s current grids."""
    nx, ny = sim.grid.nx, sim.grid.ny
    tables = sim.potential.tables
    rc2 = sim.potential.cutoff ** 2

    def rho_values(r, src_types, deriv=False):
        idx = 1 if deriv else 0
        if tables.n_types == 1:
            return tables.rho[0].evaluate(r)[idx]
        vals = np.zeros(len(r))
        for t in range(tables.n_types):
            m = src_types == t
            if np.any(m):
                vals[m] = tables.rho[t].evaluate(r[m])[idx]
        return vals

    records = []
    for dx, dy, fabric in iter_neighborhood(sim.grid, sim.b):
        if sim.force_symmetry and not (dy > 0 or (dy == 0 and dx > 0)):
            continue
        opos = shift2d_into(
            np.empty_like(sim.pos), sim.pos, dx, dy, fill=FAR
        )
        oocc = shift2d_into(
            np.empty_like(sim.occ), sim.occ, dx, dy, fill=False
        )
        d = opos - sim.pos
        both = sim.occ & oocc
        np.copyto(d, 0.0, where=~both[:, :, None])
        for dim in range(3):
            if sim.box.periodic[dim]:
                # a Python float, so a float32 machine wraps in float32
                ld = float(sim.box.lengths[dim])
                d[..., dim] -= ld * np.floor(d[..., dim] / ld + 0.5)
        r2 = np.einsum("xyk,xyk->xy", d, d)
        within = both & (r2 < rc2) & (r2 > 0.0)
        if np.any(within):
            r = np.sqrt(r2[within])
            unit = d[within] / r[:, None]
        else:
            r = np.empty(0)
            unit = np.empty((0, 3))
        records.append((dx, dy, fabric, within, r, unit))

    rho_bar = np.zeros((nx, ny))
    n_cand = np.zeros((nx, ny), dtype=np.int64)
    n_int = np.zeros((nx, ny), dtype=np.int64)
    for dx, dy, fabric, within, r, _unit in records:
        n_cand += fabric & sim.occ
        n_int += within
        if len(r) == 0:
            continue
        if tables.n_types == 1:
            src_t = ctr_t = np.zeros(len(r), dtype=np.int64)
        else:
            otyp = shift2d_into(
                np.empty_like(sim.typ), sim.typ, dx, dy, fill=0
            )
            src_t = otyp[within]
            ctr_t = sim.typ[within]
        rho_bar[within] += rho_values(r, src_t)
        if sim.force_symmetry:
            contrib = np.zeros((nx, ny))
            contrib[within] = rho_values(r, ctr_t)
            rho_bar += shift2d_into(
                np.empty((nx, ny)), contrib, -dx, -dy, fill=0.0
            )

    _, f_der = sim._embed(rho_bar)
    force = np.zeros((nx, ny, 3))
    e_pair = np.zeros((nx, ny))
    for dx, dy, _fabric, within, r, unit in records:
        if len(r) == 0:
            continue
        ofder = shift2d_into(
            np.empty((nx, ny)), f_der, dx, dy, fill=0.0
        )
        if tables.n_types == 1:
            rho_d = tables.rho[0].evaluate(r)[1]
            rho_d_src = rho_d_ctr = rho_d
            phi_v, phi_d = tables.phi_for(0, 0).evaluate(r)
        else:
            otyp = shift2d_into(
                np.empty_like(sim.typ), sim.typ, dx, dy, fill=0
            )
            t_src = otyp[within]
            t_ctr = sim.typ[within]
            rho_d_src = rho_values(r, t_src, deriv=True)
            rho_d_ctr = rho_values(r, t_ctr, deriv=True)
            phi_v = np.zeros(len(r))
            phi_d = np.zeros(len(r))
            for t1 in range(tables.n_types):
                for t2 in range(tables.n_types):
                    m = (t_ctr == t1) & (t_src == t2)
                    if np.any(m):
                        v, dv = tables.phi_for(t1, t2).evaluate(r[m])
                        phi_v[m] = v
                        phi_d[m] = dv
        s = f_der[within] * rho_d_src + ofder[within] * rho_d_ctr + phi_d
        if sim.force_symmetry:
            fvec = np.zeros((nx, ny, 3))
            fvec[within] = s[:, None] * unit
            force += fvec
            force -= shift2d_into(
                np.empty((nx, ny, 3)), fvec, -dx, -dy, fill=0.0
            )
            e_half = np.zeros((nx, ny))
            e_half[within] = 0.5 * phi_v
            e_pair += e_half + shift2d_into(
                np.empty((nx, ny)), e_half, -dx, -dy, fill=0.0
            )
        else:
            force[within] += s[:, None] * unit
            e_pair[within] += 0.5 * phi_v
    return rho_bar, n_cand, n_int, force, e_pair


# -- bitwise equivalence ------------------------------------------------------


@pytest.mark.parametrize("force_symmetry", [False, True])
@pytest.mark.parametrize(
    "reps,dtype,chunk,b",
    [
        ((4, 4, 2), np.float64, 0, None),
        ((4, 4, 2), np.float32, 1, None),
        ((5, 3, 2), np.float64, 7, None),  # non-square grid
        ((3, 5, 2), np.float64, 3, None),  # non-square, other axis
        ((6, 6, 2), np.float64, 0, 5),  # wider-than-needed b
        ((4, 4, 2), np.float64, 10_000, 4),  # chunk > n_offsets
    ],
)
def test_sweeps_match_record_passes_bitwise(
    ta_potential, reps, dtype, chunk, b, force_symmetry
):
    kw = {"b": b} if b is not None else {}
    sim = WseMd(
        small_slab_state(reps=reps),
        ta_potential,
        dtype=dtype,
        offset_chunk=chunk,
        force_symmetry=force_symmetry,
        **kw,
    )
    sim.step(3)  # off-lattice positions exercise the minimum image
    rho_ref, cand_ref, int_ref, force_ref, epair_ref = (
        reference_density_force(sim)
    )
    rho, n_cand, n_int, _, _ = sim._density_sweep()
    _, f_der = sim._embed(rho)
    force, e_pair, _ = sim._force_sweep(f_der, energy=True)
    # bitwise: the streaming sweeps ARE the record passes, reordered
    # only where reordering is exact
    assert np.array_equal(rho, rho_ref)
    assert np.array_equal(n_cand, cand_ref)
    assert np.array_equal(n_int, int_ref)
    assert np.array_equal(force, force_ref)
    assert np.array_equal(e_pair, epair_ref)


def test_periodic_box_matches_record_passes(ta_potential):
    sim = WseMd(
        bulk_state(reps=(3, 3, 3), temperature=400.0),
        ta_potential,
        offset_chunk=5,
    )
    sim.step(2)
    rho_ref, _, _, force_ref, _ = reference_density_force(sim)
    rho, *_ = sim._density_sweep()
    _, f_der = sim._embed(rho)
    force, _, _ = sim._force_sweep(f_der)
    assert np.array_equal(rho, rho_ref)
    assert np.array_equal(force, force_ref)


@pytest.mark.parametrize("force_symmetry", [False, True])
def test_trajectory_chunk_invariant(ta_potential, force_symmetry):
    """Any chunking is a pure memory knob: trajectories are identical."""
    outs = []
    for chunk in (1, 7, 0):
        sim = WseMd(
            small_slab_state(reps=(4, 4, 2)),
            ta_potential,
            offset_chunk=chunk,
            force_symmetry=force_symmetry,
            swap_interval=4,
        )
        sim.step(10)
        outs.append(sim.gather_state())
    for other in outs[1:]:
        assert np.array_equal(outs[0].positions, other.positions)
        assert np.array_equal(outs[0].velocities, other.velocities)


# -- property sweep: the one-filter sweeps vs the record passes ---------------


@pytest.fixture(scope="module")
def wta_potential():
    return EAMPotential(
        mix_tables(make_element_tables("W"), make_element_tables("Ta"))
    )


@st.composite
def sweep_case(draw):
    return dict(
        reps=(draw(st.integers(4, 6)), draw(st.integers(4, 6)), 2),
        alloy=draw(st.booleans()),
        inplane_periodic=draw(st.booleans()),
        vacancy=draw(st.sampled_from([0.0, 0.15, 0.4])),
        fill=draw(st.sampled_from([0.94, 0.6])),
        dtype=draw(st.sampled_from([np.float32, np.float64])),
        chunk=draw(st.sampled_from([1, 3, 0])),
        force_symmetry=draw(st.booleans()),
        seed=draw(st.integers(0, 10_000)),
    )


def _sweep_machine(case, ta_potential, wta_potential, speed=0.0, **machine):
    """A jittered, vacancy-riddled W/Ta (or Ta) slab on the wafer, at
    rest or with normal velocity components of ``speed`` A/ps."""
    rng = np.random.default_rng(case["seed"])
    a = ELEMENTS["Ta"].lattice_constant
    if case["alloy"]:
        a = 0.5 * (a + ELEMENTS["W"].lattice_constant)
    crystal = replicate(BCC, a, case["reps"])
    keep = rng.random(crystal.n_atoms) >= case["vacancy"]
    pos = crystal.positions[keep] + rng.uniform(-0.12, 0.12, (keep.sum(), 3))
    if case["inplane_periodic"]:
        box = Box(
            crystal.box + [0.0, 0.0, 25.0],
            periodic=[True, True, False],
            origin=[0.0, 0.0, -12.5],
        )
    else:
        box = Box(crystal.box + 25.0, origin=np.full(3, -12.5))
    if case["alloy"]:
        types = (rng.random(len(pos)) < 0.5).astype(np.int64)
        masses = np.array([ELEMENTS["W"].mass, ELEMENTS["Ta"].mass])
    else:
        types = np.zeros(len(pos), dtype=np.int64)
        masses = np.array([ELEMENTS["Ta"].mass])
    state = AtomsState(
        positions=pos, velocities=rng.normal(0.0, 1.0, pos.shape) * speed,
        types=types, masses=masses, box=box,
    )
    return WseMd(
        state,
        wta_potential if case["alloy"] else ta_potential,
        dtype=case["dtype"],
        offset_chunk=case["chunk"],
        force_symmetry=case["force_symmetry"],
        fill=case["fill"],
        **machine,
    )


@given(case=sweep_case())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
    ],
)
def test_sweeps_match_record_passes_property(
    case, ta_potential, wta_potential
):
    sim = _sweep_machine(case, ta_potential, wta_potential)
    rho_ref, cand_ref, int_ref, force_ref, epair_ref = (
        reference_density_force(sim)
    )
    rho, n_cand, n_int, _, _ = sim._density_sweep()
    _, f_der = sim._embed(rho)
    force, e_pair, _ = sim._force_sweep(f_der, energy=True)
    assert int_ref.sum() > 0, case
    assert np.array_equal(rho, rho_ref), case
    assert np.array_equal(n_cand, cand_ref), case
    assert np.array_equal(n_int, int_ref), case
    assert np.array_equal(force, force_ref), case
    assert np.array_equal(e_pair, epair_ref), case
    # a timestep skips the pair energy; the forces must not notice
    sim._density_sweep()
    force_only, none, _ = sim._force_sweep(f_der)
    assert none is None
    assert np.array_equal(force_only, force_ref), case


# -- survivor records: one filter per step, nothing left behind --------------


def _kernel_calls():
    reg = metrics()
    return tuple(
        reg.counter(f"kernels.{name}.calls").value
        for name in ("density_chunk", "force_chunk", "spline_eval")
    )


@pytest.mark.parametrize("force_symmetry", [False, True])
def test_one_rho_and_one_phi_call_per_chunk(ta_potential, force_symmetry):
    """Each chunk costs one ``density_chunk`` call per step, each
    non-empty chunk one ``force_chunk`` call (no second filter, no
    duplicate partner pass); the only spline call the engine itself
    makes is the step's one embedding evaluation."""
    sim = WseMd(
        small_slab_state(reps=(5, 5, 2)), ta_potential,
        offset_chunk=3, force_symmetry=force_symmetry,
    )
    sim._density_sweep()
    chunks = len(sim._sweeps._chunks)
    records = len(sim._sweeps._records)
    assert 1 < records <= chunks
    sim._force_sweep(np.zeros(sim.occ.shape))
    before = _kernel_calls()
    sim.step(3)
    spent = tuple(b - a for a, b in zip(before, _kernel_calls()))
    assert spent == (3 * chunks, 3 * records, 3)


@pytest.mark.parametrize("alloy,per_row", [(False, 48), (True, 64)])
def test_record_bytes_accounting(ta_potential, wta_potential, alloy, per_row):
    """48 B per interaction (float64, one type), 64 B for an alloy."""
    case = dict(
        reps=(5, 5, 2), alloy=alloy, inplane_periodic=False, vacancy=0.0,
        fill=0.94, dtype=np.float64, chunk=4, force_symmetry=True, seed=1,
    )
    sim = _sweep_machine(case, ta_potential, wta_potential)
    sweeps = sim._sweeps
    assert sweeps.record_bytes() == 0
    _, _, n_int, _, _ = sim._density_sweep()
    bounds = sum(rec.starts.nbytes for rec in sweeps._records)
    assert sweeps.record_bytes() == per_row * int(n_int.sum()) + bounds


def test_force_needs_a_fresh_density_sweep(ta_potential):
    sim = WseMd(small_slab_state(reps=(4, 4, 2)), ta_potential)
    f_der = np.zeros(sim.occ.shape)
    with pytest.raises(SweepRecordError, match="fresh density"):
        sim._force_sweep(f_der)
    sim._density_sweep()
    sim._force_sweep(f_der)
    with pytest.raises(SweepRecordError, match="fresh density"):
        sim._force_sweep(f_der)  # records are consumed, not replayed


def test_no_record_outlives_a_public_call(ta_potential):
    sim = WseMd(
        small_slab_state(reps=(4, 4, 2)), ta_potential, force_symmetry=True
    )
    for call in (
        lambda: sim.step(2), sim.compute_forces, sim.compute_energy
    ):
        call()
        assert sim._sweeps.record_bytes() == 0
        assert sim._sweeps._records is None


@pytest.mark.parametrize("force_symmetry", [False, True])
def test_swap_every_step_matches_record_passes(ta_potential, force_symmetry):
    """A swap round between every two steps re-homes atoms; records
    never span it (none exist between steps), so a machine stepped with
    the embedded record-based passes stays bitwise in step."""
    kw = dict(swap_interval=1, b_margin=2.0, force_symmetry=force_symmetry)
    state = small_slab_state(reps=(5, 5, 2), temperature=900.0, seed=4)
    sim = WseMd(state.copy(), ta_potential, **kw)
    twin = WseMd(state.copy(), ta_potential, **kw)
    for _ in range(12):
        sim.step(1)
        twin._integrate(reference_density_force(twin)[3])
        twin.step_count += 1
        twin._swap_round()
        assert sim._sweeps.record_bytes() == 0
        assert np.array_equal(sim.aid, twin.aid)
        assert np.array_equal(sim.pos, twin.pos)
        assert np.array_equal(sim.vel, twin.vel)
    assert sim.swap_count == twin.swap_count > 0


# -- the list carried across steps: any skin is the skin-0 machine -----------


class _BuildOracle:
    """An independent reading of the rebuild rule: a density sweep must
    build when there is no list yet, when the occupancy differs from the
    last build's, or when a tile sits ``skin / 2`` or more from where it
    was at the last build — and must not build otherwise."""

    def __init__(self, skin):
        self.bound2 = (0.5 * skin) ** 2
        self.pos = self.occ = None
        self.builds = 0

    def observe(self, sim) -> bool:
        """Call before each density sweep of ``sim``."""
        build = self.pos is None or not np.array_equal(sim.occ, self.occ)
        if not build:
            moved2 = ((sim.pos - self.pos) ** 2).sum(axis=2)
            build = not moved2.max() < self.bound2
        if build:
            self.pos, self.occ = sim.pos.copy(), sim.occ.copy()
            self.builds += 1
        return build


def _assert_same_machine(sim, twin):
    for name in ("pos", "vel", "aid", "occ", "typ",
                 "last_candidates", "last_interactions"):
        assert np.array_equal(getattr(sim, name), getattr(twin, name)), name


def _step_twins(sim, twin, oracle, n_steps=1):
    """Step a skinned machine and its ``skin=0`` twin in lockstep:
    bitwise equal after every step, builds exactly where the oracle
    says, and the twin never reuses."""
    for _ in range(n_steps):
        must_build = oracle.observe(sim)
        sim.step(1)
        twin.step(1)
        assert sim.last_reused == (not must_build)
        assert not twin.last_reused
        _assert_same_machine(sim, twin)
    assert sim.list_builds == oracle.builds


def _assert_same_observables(sim, twin, oracle):
    oracle.observe(sim)
    assert np.array_equal(sim.compute_forces(), twin.compute_forces())
    oracle.observe(sim)
    assert sim.compute_energy() == twin.compute_energy()
    assert sim.list_builds == oracle.builds
    assert twin.list_reuses == 0


@given(case=sweep_case())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
    ],
)
def test_default_skin_matches_skin_zero_property(
    case, ta_potential, wta_potential
):
    """Hot enough (and a long enough timestep) that every case rebuilds
    at least twice after its first build and reuses in between."""
    hot = dict(speed=6.0, dt_fs=4.0)
    sim = _sweep_machine(case, ta_potential, wta_potential, **hot)
    twin = _sweep_machine(case, ta_potential, wta_potential, skin=0.0, **hot)
    assert sim.skin == 0.5 and twin.skin == 0.0
    oracle = _BuildOracle(sim.skin)
    _step_twins(sim, twin, oracle, 16)
    assert sim.list_builds >= 3, case
    assert sim.list_reuses >= 8, case
    assert twin.list_builds == 16
    _assert_same_observables(sim, twin, oracle)


def _listed_pairs(sweeps) -> int:
    return sum(len(ctr) for _, ctr, _ in sweeps._list.chunks)


def _twins(state, potential, **machine):
    sim = WseMd(state.copy(), potential, **machine)
    twin = WseMd(state.copy(), potential, skin=0.0, **machine)
    return sim, twin, _BuildOracle(sim.skin)


def test_fast_atom_builds_every_step(ta_potential):
    """One atom crossing skin/2 in a single step is enough."""
    state = small_slab_state(reps=(5, 5, 2), temperature=0.0)
    top = int(np.argmax(state.positions[:, 2]))
    state.velocities[top, 2] = 0.3 / 0.002  # 0.3 A per 2 fs step, outward
    sim, twin, oracle = _twins(state, ta_potential, force_symmetry=True)
    _step_twins(sim, twin, oracle, 6)
    assert (sim.list_builds, sim.list_reuses) == (6, 0)
    _assert_same_observables(sim, twin, oracle)


@pytest.mark.parametrize("force_symmetry", [False, True])
def test_swap_every_step_with_a_list(ta_potential, force_symmetry):
    """Nothing tells the sweeps a swap round ran; the re-homed tiles do."""
    state = small_slab_state(reps=(5, 5, 2), temperature=900.0, seed=4)
    sim, twin, oracle = _twins(
        state, ta_potential, swap_interval=1, b_margin=2.0,
        force_symmetry=force_symmetry,
    )
    last_round_moved = False
    for _ in range(12):
        moved_before = sim.swap_count
        built_before = sim.list_builds
        _step_twins(sim, twin, oracle)
        if last_round_moved:  # the round that closed the previous step
            assert sim.list_builds == built_before + 1
        last_round_moved = sim.swap_count > moved_before
    assert sim.swap_count == twin.swap_count > 0
    assert 1 < sim.list_builds < 12 and sim.list_reuses > 0
    _assert_same_observables(sim, twin, oracle)


def test_atom_removed_then_added_between_steps(ta_potential):
    """Only the occupancy bit is flipped — the tile keeps its position,
    so no displacement gives the edit away."""
    sim, twin, oracle = _twins(
        small_slab_state(reps=(5, 5, 2), temperature=100.0), ta_potential
    )
    _step_twins(sim, twin, oracle, 3)
    assert (sim.list_builds, sim.list_reuses) == (1, 2)
    x, y = np.argwhere(sim.occ)[sim.n_atoms // 2]
    for present, builds in ((False, 2), (True, 3)):
        for m in (sim, twin):
            m.occ[x, y] = present
        _step_twins(sim, twin, oracle, 2)
        assert sim.list_builds == builds
    assert sim.list_reuses == 4
    _assert_same_observables(sim, twin, oracle)


def test_positions_overwritten_between_steps(ta_potential):
    sim, twin, oracle = _twins(
        small_slab_state(reps=(5, 5, 2), temperature=100.0), ta_potential,
        force_symmetry=True,
    )
    _step_twins(sim, twin, oracle)
    (ax, ay), (bx, by) = np.argwhere(sim.occ)[[0, -1]]
    # a nudge inside skin/2: the list still covers it
    for m in (sim, twin):
        m.pos[ax, ay, 0] += m.dtype.type(0.1)
    _step_twins(sim, twin, oracle)
    assert (sim.list_builds, sim.list_reuses) == (1, 1)
    # a rigid shift moves every tile a full angstrom
    for m in (sim, twin):
        m.pos[m.occ] += m.dtype.type(1.0)
    _step_twins(sim, twin, oracle)
    assert (sim.list_builds, sim.list_reuses) == (2, 1)
    # two atoms trade tiles by hand: same occupancy, different geometry
    for m in (sim, twin):
        for grid in (m.pos, m.vel, m.aid, m.typ):
            grid[[ax, bx], [ay, by]] = grid[[bx, ax], [by, ay]]
    _step_twins(sim, twin, oracle, 2)
    assert (sim.list_builds, sim.list_reuses) == (3, 2)
    _assert_same_observables(sim, twin, oracle)


def test_list_bytes_accounting(ta_potential):
    """Between steps: 8 B per listed pair (two int32 tiles), the chunk
    bounds, and three planes — the build-time positions and occupancy
    and the int32 candidate counts.  Nothing at skin 0."""
    sim, twin, _ = _twins(
        small_slab_state(reps=(5, 5, 2)), ta_potential,
        offset_chunk=4, force_symmetry=True,
    )
    sweeps = sim._sweeps
    assert sweeps.list_bytes() == 0 and sweeps._list is None
    sim.step(1)
    twin.step(1)
    pairs = _listed_pairs(sweeps)
    assert pairs >= int(sim.last_interactions.sum()) > 0
    bounds = sum(starts.nbytes for starts, _, _ in sweeps._list.chunks)
    assert bounds == 4 * (len(sim._pass_offsets) + len(sweeps._chunks))
    planes = sim.pos.nbytes + sim.occ.nbytes + 4 * sim.occ.size
    assert sweeps.list_bytes() == 8 * pairs + bounds + planes
    assert sweeps.record_bytes() == 0
    assert twin._sweeps.list_bytes() == 0 and twin._sweeps._list is None


def test_negative_skin_rejected(ta_potential):
    with pytest.raises(ValueError, match="skin"):
        WseMd(small_slab_state(reps=(4, 4, 2)), ta_potential, skin=-0.1)
    with pytest.raises(ValueError, match="skin"):
        WseMd(small_slab_state(reps=(4, 4, 2)), ta_potential,
              skin=float("nan"))


def test_auto_chunk_bounds():
    assert auto_chunk(10, 10) == 16  # small grids cap at the max depth
    assert auto_chunk(2000, 2000) == 1  # huge grids degrade to 1
    nx = ny = 924  # ~the paper grid
    chunk = auto_chunk(nx, ny)
    assert 1 <= chunk <= 16
    assert chunk * nx * ny <= 4_000_000


def test_invalid_chunk_rejected(ta_potential):
    with pytest.raises(ValueError, match="offset_chunk"):
        WseMd(small_slab_state(reps=(4, 4, 2)), ta_potential,
              offset_chunk=-1)


# -- grouped spline evaluation ------------------------------------------------


class TestSplineGroup:
    def test_matches_member_evaluation_bitwise(self, ta_potential):
        tables = ta_potential.tables
        group = tables.grouped()
        r = np.linspace(0.5, tables.rho[0].x_max * 1.1, 400)
        v_ref, d_ref = tables.rho[0].evaluate(r)
        v, d = group.rho.evaluate(r, 0)
        assert np.array_equal(v, v_ref)
        assert np.array_equal(d, d_ref)

    def test_mixed_members_route_per_point(self):
        a = UniformCubicSpline.from_function(np.sin, 0.0, 3.0, 20)
        b = UniformCubicSpline.from_function(np.cos, 0.5, 4.0, 30)
        group = a.group_with(b)
        assert group.n_members == 2
        x = np.linspace(0.6, 2.9, 57)
        member = np.arange(len(x)) % 2
        v, d = group.evaluate(x, member)
        va, da = a.evaluate(x)
        vb, db = b.evaluate(x)
        assert np.array_equal(v[member == 0], va[member == 0])
        assert np.array_equal(d[member == 0], da[member == 0])
        assert np.array_equal(v[member == 1], vb[member == 1])
        assert np.array_equal(d[member == 1], db[member == 1])

    def test_mismatched_boundary_flags_rejected(self):
        a = UniformCubicSpline.from_function(np.sin, 0.0, 3.0, 20)
        b = UniformCubicSpline.from_function(
            np.cos, 0.0, 3.0, 20, zero_above=False
        )
        with pytest.raises(ValueError, match="boundary handling"):
            SplineGroup([a, b])

    def test_grouped_tables_cached(self, ta_potential):
        tables = ta_potential.tables
        assert tables.grouped() is tables.grouped()


# -- memory scaling -----------------------------------------------------------


def _peak_rss_run(reps, steps=2):
    """Peak RSS (bytes) of constructing + stepping a WseMd at ``reps``."""
    from repro.bench import peak_rss_bytes, reset_peak_rss
    from repro.potentials.elements import make_element_potential

    state = small_slab_state(reps=reps, temperature=80.0)
    if not reset_peak_rss():  # pragma: no cover - non-Linux
        pytest.skip("peak-RSS reset unsupported on this platform")
    sim = WseMd(state, make_element_potential("Ta"), force_symmetry=True)
    sim.step(steps)
    peak = peak_rss_bytes()
    assert peak is not None
    return peak, sim


@pytest.mark.parametrize("force_symmetry", [False, True])
def test_streaming_buffers_are_chunk_sized(ta_potential, force_symmetry):
    """The sweeper's grid-proportional buffers obey the chunk budget."""
    sweeps = StreamingSweeps(
        nx=500, ny=500, dtype=np.float64,
        lengths=(1e3, 1e3, 1e3), periodic=(False,) * 3,
        cutoff=ta_potential.cutoff, skin=0.5, tables=ta_potential.tables,
        offsets=[(dx, dy) for dx in range(-5, 6) for dy in range(-5, 6)
                 if (dx, dy) != (0, 0)],
        chunk=0,
        force_symmetry=force_symmetry,
    )
    depth = min(auto_chunk(500, 500), 120)
    # d-stack + mask per stacked tile, one r2 + one compare plane for
    # the coarse cut; never O(offsets), and the reverse reduction owns
    # no full-grid scratch of its own
    assert sweeps.buffer_bytes() == 500 * 500 * (depth * (3 * 8 + 1) + 8 + 1)


@pytest.mark.skipif(not SCALE_TESTS, reason="set REPRO_SCALE_TESTS to run")
def test_memory_smoke_50k_atoms():
    """~50k-atom lockstep run stays under a 2 GB ceiling (CI leg)."""
    peak, sim = _peak_rss_run((91, 92, 3))  # 50,232 atoms
    assert sim.n_atoms == 50_232
    assert peak < 2 * 1024**3, f"peak RSS {peak / 1e9:.2f} GB >= 2 GB"


#: Survivor-record budget: 48 B per interaction in flight (float64, one
#: type) plus chunk bookkeeping.
_RECORD_BYTES_PER_INTERACTION = 56

#: Retained-list budget: two int32 tile indices per listed pair.
_LIST_BYTES_PER_PAIR = 8


@pytest.mark.skipif(not SCALE_TESTS, reason="set REPRO_SCALE_TESTS to run")
def test_record_budget_50k_atoms():
    """Records in flight at ~50k atoms stay within the per-interaction
    budget and none survives the step; the list that does stays within
    its per-pair budget."""
    from repro.potentials.elements import make_element_potential

    sim = WseMd(
        small_slab_state(reps=(91, 92, 3), temperature=80.0),
        make_element_potential("Ta"),
        force_symmetry=True,
    )
    _, _, n_int, _, _ = sim._density_sweep()
    rows = int(n_int.sum())
    held = sim._sweeps.record_bytes()
    assert 0 < held <= _RECORD_BYTES_PER_INTERACTION * rows
    sim._force_sweep(np.zeros(sim.occ.shape))
    sim.step(1)
    assert sim._sweeps.record_bytes() == 0
    # what does stay between steps: the index list at cutoff + skin
    # (a thin shell more than the survivors in a crystal), chunk
    # bounds, and three grid planes
    pairs = _listed_pairs(sim._sweeps)
    assert rows <= pairs <= 1.25 * rows
    planes = sim.pos.nbytes + sim.occ.nbytes + 4 * sim.occ.size
    assert sim.list_reuses == 1
    assert sim._sweeps.list_bytes() <= (
        _LIST_BYTES_PER_PAIR * pairs + planes + 4096
    )


@pytest.mark.skipif(
    SCALE_TESTS != "paper", reason="set REPRO_SCALE_TESTS=paper to run"
)
def test_memory_paper_grid_under_8gb():
    """The paper's 801,792-atom slab runs 2 steps under 8 GB peak RSS."""
    peak, sim = _peak_rss_run((256, 261, 6))
    assert sim.n_atoms == 801_792
    assert peak < 8 * 1024**3, f"peak RSS {peak / 1e9:.2f} GB >= 8 GB"
