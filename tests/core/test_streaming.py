"""Wafer-sweep equivalence and memory-scaling tests.

The lockstep machine's two sweeps (inside one ``wafer_step`` registry
call, :meth:`WseMd._evaluate`, over every neighborhood offset) replaced
the record-based passes that kept one full-grid record per offset.  The contract is **bitwise** identity:
per candidate, the arithmetic and the per-tile accumulation order are
exactly those of the old passes.  This module pins that contract
against a reference implementation of the record-based passes embedded
below (the pre-streaming ``_collect_pairs`` / ``_density_pass`` /
``_force_pass`` logic, verbatim in structure), across b values,
non-square grids and the force-symmetry path — a fixed matrix plus a
Hypothesis sweep over vacancies, alloys and periodic boxes.  The record
tests pin the survivor record that carries the one filter's result
from the density sweep to the force sweep: its size, and that it is a
value the machine never keeps.  The list tests pin the index-only Verlet
list the kernel tier keeps across steps in its slot of the machine's
scratch (:func:`_held`): a machine with a skin is bitwise the
machine that filters every step (``skin=0``), whatever is done to its
grids between steps, and it builds exactly when an independent reading
of the rule says it must.

The memory tests assert the whole point of the restructuring: a list
build's scratch is O(grid) for any number of offsets, and the records,
and what the kernel tier keeps resident for them between steps, are
O(listed pairs), so paper-scale grids fit.  The expensive
scale tiers are opt-in via ``REPRO_SCALE_TESTS`` (any value enables the
~50k-atom smoke the CI scaling leg runs; ``paper`` additionally runs
the 801,792-atom paper grid).
"""

import ctypes
import mmap
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.exchange import shift2d_into
from repro.core.wse_md import FAR, WseMd
import repro.kernels as kernels
from repro.kernels import numpy_backend
from repro.lattice.cells import BCC
from repro.lattice.crystals import replicate
from repro.md.boundary import Box
from repro.md.state import AtomsState
from repro.obs import NULL_TRACER
from repro.potentials.alloy import mix_tables
from repro.potentials.eam import EAMPotential
from repro.potentials.elements import ELEMENTS, make_element_tables
from repro.potentials.spline import SplineGroup, UniformCubicSpline
from tests.conftest import bulk_state, small_slab_state, spline_from_function
from tests.oracles import iter_neighborhood

SCALE_TESTS = os.environ.get("REPRO_SCALE_TESTS", "")


# -- the reference (record-based) passes -------------------------------------
#
# A faithful transcription of the pre-streaming WseMd pass logic: one
# full-grid record per offset, per-type spline loops, identical offset
# and accumulation order.  Deliberately kept independent of
# the machine's sweeps so the equivalence test has a second opinion.


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

    _, f_der = _embed(sim, rho_bar)
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


def _embed(sim: WseMd, rho_bar: np.ndarray):
    """``F`` and ``F'`` per tile through the potential, occupied tiles
    only."""
    f_val, f_der = np.zeros(sim.occ.shape), np.zeros(sim.occ.shape)
    occ = sim.occ
    typ = sim.typ[occ] if sim.potential.tables.n_types > 1 else None
    f_val[occ], f_der[occ] = sim.potential.embed(rho_bar[occ], typ)
    return f_val, f_der


def _held(sim: WseMd):
    """The list the machine's kernel tier holds in its slot of the
    scratch, ``(listed, pos, occ, n_cand)``, or None."""
    lists = [store["list"] for store in sim._scratch.values()
             if "list" in store]
    assert len(lists) <= 1
    return lists[0] if lists else None


def _list_bytes(sim: WseMd) -> int:
    """Bytes of the list held between steps: the index rows plus the
    build-time planes (0 when none is held)."""
    held = _held(sim)
    if held is None:
        return 0
    listed, *planes = held
    return sum(a.nbytes for a in (*listed, *planes))


def _sweeps(sim: WseMd, energy: bool = True):
    """The machine's evaluation at its positions (one ``wafer_step``
    call, no integration), and the density the numpy tier's density
    sweep sums over the list that call held."""
    step = sim._evaluate(NULL_TRACER, energy=energy)
    rho = np.zeros(sim.occ.shape)
    grouped = sim.potential.tables.grouped()
    numpy_backend._wafer_density(
        sim.pos.reshape(-1, 3), _held(sim)[0], sim._lengths,
        sim._periodic, float(sim.potential.cutoff), sim.typ.reshape(-1),
        grouped.rho.bank(), grouped.phi_index, sim.force_symmetry,
        rho.reshape(-1), np.zeros(sim.occ.size, dtype=np.int64),
    )
    return rho, step


def _assert_same_sweeps(sim, rho, step, reference):
    rho_ref, cand_ref, int_ref, force_ref, epair_ref = reference
    assert np.array_equal(rho, rho_ref)
    assert np.array_equal(step.f_val, _embed(sim, rho_ref)[0])
    assert np.array_equal(step.n_cand, cand_ref)
    assert np.array_equal(step.n_int, int_ref)
    assert np.array_equal(step.force, force_ref)
    assert np.array_equal(step.e_pair, epair_ref)


# -- bitwise equivalence ------------------------------------------------------


@pytest.mark.parametrize("force_symmetry", [False, True])
@pytest.mark.parametrize(
    "reps,b",
    [
        ((4, 4, 2), None),
        ((5, 3, 2), None),  # non-square grid
        ((3, 5, 2), None),  # non-square, other axis
        ((6, 6, 2), 5),  # wider-than-needed b
        ((4, 4, 2), 4),  # b as wide as the grid allows
    ],
)
def test_sweeps_match_record_passes_bitwise(
    ta_potential, reps, b, force_symmetry
):
    kw = {"b": b} if b is not None else {}
    sim = WseMd(
        small_slab_state(reps=reps),
        ta_potential,
        force_symmetry=force_symmetry,
        **kw,
    )
    sim.step(3)  # off-lattice positions exercise the minimum image
    reference = reference_density_force(sim)
    # bitwise: the streaming sweeps ARE the record passes, reordered
    # only where reordering is exact
    _assert_same_sweeps(sim, *_sweeps(sim), reference)


def test_periodic_box_matches_record_passes(ta_potential):
    sim = WseMd(
        bulk_state(reps=(3, 3, 3), temperature=400.0),
        ta_potential,
    )
    sim.step(2)
    rho_ref, _, _, force_ref, _ = reference_density_force(sim)
    rho, step = _sweeps(sim, energy=False)
    assert np.array_equal(rho, rho_ref)
    assert np.array_equal(step.force, force_ref)


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
    reference = reference_density_force(sim)
    assert reference[2].sum() > 0, case
    _assert_same_sweeps(sim, *_sweeps(sim), reference)
    # a timestep skips the pair energy; the forces must not notice
    force_only = sim._evaluate(NULL_TRACER)
    assert force_only.e_pair is None and force_only.f_val is None
    assert np.array_equal(force_only.force, reference[3]), case


# -- survivor records: one filter per step, nothing left behind --------------


def _count_kernel_calls(monkeypatch):
    """Put the active tier behind a proxy that counts its ``wafer_step``
    and ``grouped_spline_eval`` calls (calls inside the tier's own
    module are not the engine's, and are not counted)."""
    backend = kernels.active_backend()
    calls = dict.fromkeys(("wafer_step", "grouped_spline_eval"), 0)

    def counted(name):
        fn = getattr(backend, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    proxy = SimpleNamespace(**{
        **{name: getattr(backend, name) for name in kernels.KERNEL_FUNCTIONS},
        **{name: counted(name) for name in calls},
    })
    monkeypatch.setattr(kernels, "_active", proxy)
    return calls


@pytest.mark.parametrize("force_symmetry", [False, True])
def test_one_call_per_step(ta_potential, force_symmetry, monkeypatch):
    """A step costs one ``wafer_step`` call over all of its offsets
    (no second filter, no duplicate partner pass), and the engine
    makes no spline call of its own: the embedding is in the step."""
    sim = WseMd(
        small_slab_state(reps=(5, 5, 2)), ta_potential,
        force_symmetry=force_symmetry,
    )
    assert len(sim._offset_rows) > 1
    calls = _count_kernel_calls(monkeypatch)
    sim.step(3)
    assert calls == {"wafer_step": 3, "grouped_spline_eval": 0}


@pytest.mark.parametrize("alloy,per_row", [(False, 48), (True, 64)])
def test_record_bytes_accounting(ta_potential, wta_potential, alloy, per_row):
    """48 B per interaction (float64, one type), 64 B for an alloy."""
    case = dict(
        reps=(5, 5, 2), alloy=alloy, inplane_periodic=False, vacancy=0.0,
        fill=0.94, force_symmetry=True, seed=1,
    )
    sim = _sweep_machine(case, ta_potential, wta_potential)
    step = sim._evaluate(NULL_TRACER)
    assert step.record_nbytes == per_row * int(step.n_int.sum()) > 0


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


def _resident(arrays) -> int:
    """Bytes of the pages of ``arrays`` (each on its own mapping, as the
    native tier's scratch is) that are resident in this process."""
    libc = ctypes.CDLL(None, use_errno=True)
    if not hasattr(libc, "mincore"):  # pragma: no cover - non-Linux
        pytest.skip("mincore unavailable on this platform")
    libc.mincore.argtypes = (ctypes.c_void_p, ctypes.c_size_t,
                             ctypes.POINTER(ctypes.c_ubyte))
    page, total = mmap.PAGESIZE, 0
    for a in arrays:
        start = a.ctypes.data // page * page
        length = a.ctypes.data + max(a.nbytes, 1) - start
        pages = (ctypes.c_ubyte * -(-length // page))()
        assert libc.mincore(start, length, pages) == 0, ctypes.get_errno()
        total += page * sum(p & 1 for p in pages)
    return total


#: What the native tier keeps resident between one machine's calls:
#: the record's columns, at most a row per listed pair (48 B, 64 B for
#: an alloy) ...
_SCRATCH_BYTES_PER_PAIR = {False: 48, True: 64}
#: ... plus per tile: partner values and force vectors of the members'
#: blocks (32 B with one member, 8 B with several) and three planes.
_SCRATCH_BYTES_PER_TILE = 56


def _working_memory(sim) -> list:
    """What the kernel tier keeps between calls beside its list."""
    return [a for store in sim._scratch.values()
            for key, a in store.items() if key != "list"]


def _scratch_budget(sim, alloy) -> int:
    pages = mmap.PAGESIZE * len(_working_memory(sim))  # a part-written page
    return (_SCRATCH_BYTES_PER_PAIR[alloy] * _listed_pairs(sim)
            + _SCRATCH_BYTES_PER_TILE * sim.occ.size + pages)


@pytest.mark.parametrize("alloy", [False, True])
def test_the_kernel_scratch_is_resident_within_its_budget(
    ta_potential, wta_potential, alloy
):
    """The native tier keeps the record's columns between steps, mapped
    at the rows a call can list: resident are only the pages density
    wrote, a record row per listed pair at most.  Its list, in the same
    slot, stays within the list's own budget."""
    _tier("native")
    case = dict(
        reps=(8, 8, 2), alloy=alloy, inplane_periodic=False, vacancy=0.02,
        fill=0.94, force_symmetry=True, seed=2,
    )
    sim = _sweep_machine(case, ta_potential, wta_potential, speed=0.05)
    sim.step(4)
    mapped = sum(a.nbytes for a in _working_memory(sim))
    held = _resident(_working_memory(sim))
    assert 0 < held <= _scratch_budget(sim, alloy) < mapped
    planes = sim.pos.nbytes + sim.occ.nbytes + 4 * sim.occ.size
    assert 0 < _list_bytes(sim) <= (
        _LIST_BYTES_PER_PAIR * _listed_pairs(sim) + planes + 4096)
    sim.verify_coverage()
    assert not sim._scratch


def _holds_no_record(sim) -> bool:
    """Nothing the machine holds has a row per interaction of its last
    evaluation: the survivor record lives only in the kernel call.
    (``_scratch`` is the kernel tier's list and working memory, which
    the machine never reads.)"""
    rows = int(sim.last_interactions.sum())
    return not any(
        a.ndim and len(a) == rows
        for name, v in vars(sim).items() if name != "_scratch"
        for a in _arrays(v)
    )


def test_no_record_outlives_a_public_call(ta_potential):
    sim = WseMd(
        small_slab_state(reps=(4, 4, 2)), ta_potential, force_symmetry=True
    )
    assert _holds_no_record(sim)
    for call in (
        lambda: sim.step(2), sim.compute_forces, sim.compute_energy
    ):
        call()
        assert _holds_no_record(sim)


def _leapfrog(sim, force):
    """The leap-frog of the numpy tier over ``sim``'s occupied tiles."""
    numpy_backend._leapfrog(
        sim.pos.reshape(-1, 3), sim.vel.reshape(-1, 3), force.reshape(-1, 3),
        sim.occ.reshape(-1), sim.typ.reshape(-1), sim.masses, sim.dt,
    )


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
        _leapfrog(twin, reference_density_force(twin)[3])
        twin.step_count += 1
        twin._swap_round()
        assert _holds_no_record(sim)
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
        reuses = sim.list_reuses
        sim.step(1)
        twin.step(1)
        assert sim.list_reuses - reuses == (not must_build)
        assert twin.list_reuses == 0
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


def _listed_pairs(sim) -> int:
    return len(_held(sim)[0][1])


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
        m.pos[ax, ay, 0] += 0.1
    _step_twins(sim, twin, oracle)
    assert (sim.list_builds, sim.list_reuses) == (1, 1)
    # a rigid shift moves every tile a full angstrom
    for m in (sim, twin):
        m.pos[m.occ] += 1.0
    _step_twins(sim, twin, oracle)
    assert (sim.list_builds, sim.list_reuses) == (2, 1)
    # two atoms trade tiles by hand: same occupancy, different geometry
    for m in (sim, twin):
        for grid in (m.pos, m.vel, m.aid, m.typ):
            grid[[ax, bx], [ay, by]] = grid[[bx, ax], [by, ay]]
    _step_twins(sim, twin, oracle, 2)
    assert (sim.list_builds, sim.list_reuses) == (3, 2)
    _assert_same_observables(sim, twin, oracle)


@pytest.mark.parametrize("between", ["tier switch", "coverage check"])
def test_a_dropped_list_costs_one_build_and_no_bit(ta_potential, between):
    """The list belongs to the tier that built it: a switch of tier
    (numpy -> native -> numpy), or a coverage check, between steps
    lets it go, and the next step rebuilds.  The machine ends bitwise on
    its uninterrupted twin -- state, counts, cycle trace, timing noise
    and modeled rate -- with one build more per interruption."""
    if between == "tier switch":
        _tier("native")
    kw = dict(force_symmetry=True, jitter_rel=0.01, seed=3)
    state = small_slab_state(reps=(6, 6, 2), temperature=100.0)
    sim = WseMd(state.copy(), ta_potential, **kw)
    twin = WseMd(state.copy(), ta_potential, **kw)
    try:
        for i, tier in enumerate(("numpy", "native", "numpy")):
            if between == "coverage check" and i:
                assert sim.verify_coverage() == 0
            kernels.set_backend(tier if between == "tier switch" else "numpy")
            sim.step(4)
            kernels.set_backend("numpy")
            twin.step(4)
    finally:
        kernels.set_backend(kernels.DEFAULT_BACKEND)
    _assert_same_machine(sim, twin)
    for got, want in zip(sim.trace.count_samples(),
                         twin.trace.count_samples()):
        assert np.array_equal(got, want)
    assert sim.measured_rate() == twin.measured_rate()
    assert sim.rng.random() == twin.rng.random()
    assert (twin.list_builds, twin.list_reuses) == (1, 11)
    assert (sim.list_builds, sim.list_reuses) == (3, 9)


def test_list_bytes_accounting(ta_potential):
    """Between steps: 8 B per listed pair (two int32 tiles), the offset
    bounds, and three planes — the build-time positions and occupancy
    and the int32 candidate counts.  Nothing at skin 0."""
    sim, twin, _ = _twins(
        small_slab_state(reps=(5, 5, 2)), ta_potential, force_symmetry=True,
    )
    assert _list_bytes(sim) == 0 and _held(sim) is None
    sim.step(1)
    twin.step(1)
    pairs = _listed_pairs(sim)
    assert pairs >= int(sim.last_interactions.sum()) > 0
    bounds = _held(sim)[0][0].nbytes
    assert bounds == 4 * (len(sim._offset_rows) + 1)
    planes = sim.pos.nbytes + sim.occ.nbytes + 4 * sim.occ.size
    assert _list_bytes(sim) == 8 * pairs + bounds + planes
    assert _holds_no_record(sim)
    assert _list_bytes(twin) == 0 and _held(twin) is None


def test_negative_skin_rejected(ta_potential):
    with pytest.raises(ValueError, match="skin"):
        WseMd(small_slab_state(reps=(4, 4, 2)), ta_potential, skin=-0.1)
    with pytest.raises(ValueError, match="skin"):
        WseMd(small_slab_state(reps=(4, 4, 2)), ta_potential,
              skin=float("nan"))


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
        a = spline_from_function(np.sin, 0.0, 3.0, 20)
        b = spline_from_function(np.cos, 0.5, 4.0, 30)
        group = SplineGroup([a, b])
        assert len(group.members) == 2
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
        a = spline_from_function(np.sin, 0.0, 3.0, 20)
        b = spline_from_function(
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


def _tier(backend):
    """The kernel module of ``backend`` (skips when native cannot load)."""
    if backend == "numpy":
        return numpy_backend
    if kernels.backend_status()["native"] != "ok":
        pytest.skip("native tier unavailable on this host")
    from repro.kernels import native_backend

    return native_backend


def _build(tier, pos, occ, offsets, lengths, periodic, reach2):
    """``(starts, ctr, src, n_cand)`` of the list ``tier`` builds: the
    numpy body's list build itself, or the list a native ``wafer_step``
    from no list that integrates nothing holds."""
    if tier is numpy_backend:
        n_cand = np.zeros(occ.shape, dtype=np.int32)
        return (*tier._wafer_list(pos, occ, offsets, lengths, periodic,
                                  reach2, n_cand), n_cand)
    bank = SplineGroup([UniformCubicSpline(0.0, 1.0, np.zeros(8))]).bank()
    scratch = {}
    tier.wafer_step(
        pos, np.zeros(pos.shape), occ, np.zeros(occ.shape, dtype=np.int64),
        offsets, lengths, periodic, reach2, 1.0, 1.0, (bank,) * 3,
        np.zeros((1, 1), dtype=np.int64), True, scratch=scratch)
    listed, *_, n_cand = scratch[tier.name]["list"]
    return (*listed, n_cand)


def _list_build_peak(backend, b, nx=48, ny=48):
    """Peak bytes traced while ``backend`` lists the half neighbourhood
    of width ``b`` (force symmetry's offsets) on a full ``nx x ny``
    slab, the bytes its result holds, and the offset count."""
    import tracemalloc

    offsets = np.array([(dx, dy) for dx in range(-b, b + 1)
                        for dy in range(-b, b + 1)
                        if dy > 0 or (dy == 0 and dx > 0)])
    grid = np.stack(np.meshgrid(np.arange(nx), np.arange(ny),
                                indexing="ij"), axis=-1) * 1.6
    pos = np.concatenate([grid, np.zeros((nx, ny, 1))], axis=2)
    occ = np.ones((nx, ny), dtype=bool)
    lengths, periodic = (1.6 * nx, 1.6 * ny, 1e3), (True, True, False)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        *listed, _ = _build(backend, pos, occ, offsets, lengths, periodic,
                            4.0**2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, sum(a.nbytes for a in listed), len(offsets)


@pytest.mark.parametrize("backend", ["numpy", "native"])
def test_list_build_scratch_is_grid_sized(backend):
    """A list build's scratch belongs to the tier and to the call, and
    does not grow with the offsets: the numpy body walks them through
    one reused (nx, ny, 3) displacement plane and one mask plane; the
    native step walks pair by pair, writes its rows to mappings (not
    traced here) and takes from the heap only its per-tile outputs."""
    nx = ny = 48
    plane = nx * ny * 3 * 8
    tier = _tier(backend)
    peak, held, n_off = _list_build_peak(tier, 5, nx, ny)
    small_peak, small_held, small_n = _list_build_peak(tier, 1, nx, ny)
    assert n_off == 60 and small_n == 4 and held > 0
    if tier is numpy_backend:
        # beside its outputs: a few planes (and numpy's fixed ufunc
        # buffers) for 4 offsets and for 60 alike, where one stack of
        # the 60 offsets' differences alone would be 60 planes
        assert peak - held <= 6 * plane
        assert small_peak - small_held <= 6 * plane
    else:
        assert held == _list_build_peak(numpy_backend, 5, nx, ny)[1]
        assert peak <= 6 * plane and small_peak <= 6 * plane


@pytest.mark.parametrize("backend", ["numpy", "native"])
def test_one_list_call_is_its_offsets_one_by_one(backend):
    """The list is offset-major: listing every offset in one call gives
    the rows, bounds and candidate counts of listing them one call each
    and concatenating — what splitting the offsets into chunks relied
    on, and what one call per sweep now relies on."""
    tier = _tier(backend)
    rng = np.random.default_rng(8)
    nx, ny = 17, 13
    occ = rng.random((nx, ny)) < 0.9
    pos = np.full((nx, ny, 3), FAR)
    gx, gy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    pos[occ] = (np.stack([gx, gy, 0 * gx], axis=-1)[occ] * 1.6
                + rng.uniform(-0.3, 0.3, (occ.sum(), 3)))
    offsets = np.array([(dx, dy) for dx in range(-3, 4)
                        for dy in range(-3, 4) if (dx, dy) != (0, 0)])
    box = ((1.6 * nx, 1.6 * ny, 1e3), (True, False, False), 3.5**2)
    starts, ctr, src, whole = _build(tier, pos, occ, offsets, *box)
    parts = [_build(tier, pos, occ, offsets[i:i + 1], *box)
             for i in range(len(offsets))]
    assert np.array_equal(starts, np.cumsum(
        [0] + [len(c) for _, c, _, _ in parts]).astype(np.int32))
    assert np.array_equal(ctr, np.concatenate([c for _, c, _, _ in parts]))
    assert np.array_equal(src, np.concatenate([s for _, _, s, _ in parts]))
    assert np.array_equal(whole, sum(n for *_, n in parts)) and len(ctr) > 0


@pytest.mark.skipif(not SCALE_TESTS, reason="set REPRO_SCALE_TESTS to run")
def test_memory_smoke_50k_atoms():
    """~50k-atom lockstep run stays under a 2 GB ceiling (CI leg)."""
    peak, sim = _peak_rss_run((91, 92, 3))  # 50,232 atoms
    assert sim.n_atoms == 50_232
    assert peak < 2 * 1024**3, f"peak RSS {peak / 1e9:.2f} GB >= 2 GB"


#: Survivor-record budget: 48 B per interaction in flight (float64, one
#: type) plus the offset bounds.
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
    step = sim._evaluate(NULL_TRACER)
    rows = int(step.n_int.sum())
    assert 0 < step.record_nbytes <= _RECORD_BYTES_PER_INTERACTION * rows
    sim.step(1)
    assert _holds_no_record(sim)
    if _working_memory(sim):  # what the native tier keeps for the record
        assert _resident(_working_memory(sim)) <= _scratch_budget(sim, False)
    # what does stay between steps: the index list at cutoff + skin
    # (a thin shell more than the survivors in a crystal), offset
    # bounds, and three grid planes
    pairs = _listed_pairs(sim)
    assert rows <= pairs <= 1.25 * rows
    planes = sim.pos.nbytes + sim.occ.nbytes + 4 * sim.occ.size
    assert sim.list_reuses == 1
    assert _list_bytes(sim) <= (
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
