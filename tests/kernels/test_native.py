"""The native tier: bitwise against the numpy bodies, and its build path.

The equivalence proof is the Hypothesis harness of
``test_numpy_floor.py`` pointed at native-vs-numpy for the pair kernels
it already sweeps, plus the same treatment for the wafer's one kernel
(the whole step -- list test, list build on holed grids in open and
periodic boxes, both sweeps, embedding, leap-frog and cycle counter --
on every team size): every output ``np.array_equal`` with equal dtype
and shape,
and the same exception *type* where numpy raises (out-of-range index
-> ``IndexError``, coincident atoms -> ``FloatingPointError``).  Then
whole trajectories: reference and wafer runs end on the same SHA-256
under ``native`` and ``numpy``.

The build-path tests run against a private cache directory
(``XDG_CACHE_HOME``), in a child interpreter wherever the registry's
process state would otherwise leak between cases.
"""

import contextlib
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as kernels
from repro import obs
from repro.core.wse_md import FAR
from repro.kernels import numpy_backend
from tests.kernels import test_numpy_floor as floor

_NATIVE_STATUS = kernels.backend_status()["native"]
needs_native = pytest.mark.skipif(
    _NATIVE_STATUS != "ok", reason=f"native tier unavailable: {_NATIVE_STATUS}"
)
if _NATIVE_STATUS == "ok":
    from repro.kernels import native_backend
else:  # the fall-back tests below still run
    native_backend = None


@pytest.fixture(autouse=True)
def restore_backend():
    yield
    kernels.set_backend(kernels.DEFAULT_BACKEND)


@pytest.fixture()
def no_declines():
    """The sweep must exercise C, not the decline path, on clean input."""
    before = native_backend.declined
    yield
    assert native_backend.declined == before


# -- the pair kernels: PR 17's sweep, native vs numpy -------------------------


TestNativeAgainstNumpy = needs_native(
    floor.bitwise_sweep((native_backend, numpy_backend))
)


@needs_native
class TestPairKernels:
    sides = (native_backend, numpy_backend)

    def test_clean_input_runs_in_c(self, no_declines):
        # 400 candidates keep 154 pairs, under one chunk of native.c's
        # passes (256 rows); 800 keep 322, past it
        for n_pairs in (400, 800):
            positions, lengths, i, j, rho, phi, types, rng = (
                floor._pair_inputs(n_pairs=n_pairs))
            periodic = np.array([True, False, True])
            ki, kj, rij, r = native_backend.neighbor_prefilter(
                positions, i, j, lengths, periodic, 4.0, inclusive=False,
            )
            assert (len(ki) > 256) == (n_pairs == 800)
            _, d_ji, d_ij = native_backend.fused_density_pass(
                ki, kj, r, types[ki], types[kj], rho.bank(), len(positions)
            )
            native_backend.fused_force_pass(
                ki, kj, rij, r, rng.normal(size=len(positions)), d_ji, d_ij,
                phi.bank(), rng.integers(0, 3, len(r)), len(positions),
            )

    def test_declined_per_call(self):
        """float32 geometry and non-int64 pair indices go to numpy."""
        positions, lengths, i, j, *_ = floor._pair_inputs()
        periodic = np.zeros(3, dtype=bool)
        before = native_backend.declined
        for pos, a, b in (
            (positions.astype(np.float32), i, j),
            (positions, i.astype(np.int32), j.astype(np.int32)),
            (positions[:, ::-1], i, j),  # not C-contiguous
        ):
            floor.assert_same_outcome(
                "neighbor_prefilter", pos, a, b, lengths, periodic, 3.0,
                inclusive=True, sides=self.sides,
            )
        assert native_backend.declined == before + 3


# -- the wafer's list build, and its whole step ------------------------------


def _wafer_grid(seed, nx, ny, holes, box):
    """A jittered one-atom-per-tile slab on an ``nx x ny`` grid with
    ``holes`` of its tiles empty (far sentinel), in an open or periodic
    box whose in-plane edges the slab just fills."""
    rng = np.random.default_rng(seed)
    pitch = rng.uniform(1.2, 1.8)
    occ = rng.random((nx, ny)) >= holes
    gx, gy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    pos = np.stack([gx, gy, rng.integers(0, 3, (nx, ny))], axis=-1) * pitch
    pos = pos + rng.uniform(-0.4, 0.4, pos.shape)
    pos[~occ] = FAR
    lengths = np.array([nx * pitch, ny * pitch, 60.0])
    return rng, pos, occ, lengths, np.array(floor.BOXES[box])


def _outcome(fn, *args):
    """Every output and every array argument after the call, or the type
    of what was raised."""
    try:
        out = fn(*args)
    except Exception as exc:
        return type(exc)
    out = out if isinstance(out, tuple) else (out,)
    return [*out, *(a for a in args if isinstance(a, np.ndarray))]


def _assert_same(got, want):
    if isinstance(want, type):
        assert got is want
        return
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f")


_GRIDS = dict(
    seed=st.integers(0, 10_000),
    nx=st.integers(1, 14),
    ny=st.integers(1, 14),
    holes=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    box=st.sampled_from(sorted(floor.BOXES)),
)


def _built_list(backend, pos, occ, offsets, lengths, periodic, reach2):
    """The list one ``wafer_step`` of ``backend`` builds from no list
    (whole neighbourhood, no symmetry, nothing integrated) and holds:
    its rows, candidate counts and what the sweeps over it found."""
    rng = np.random.default_rng(occ.size)
    bank = floor._group(rng, 1, "linear", True).bank()
    scratch = {}
    step = backend.wafer_step(
        pos, np.zeros(pos.shape), occ, np.zeros(occ.shape, dtype=np.int64),
        offsets, lengths, periodic, reach2, 1.0,
        0.5 * float(np.sqrt(reach2)), (bank, bank, bank),
        np.zeros((1, 1), dtype=np.int64), False, scratch=scratch)
    listed, *_, n_cand = scratch[backend.name]["list"]
    return (*listed, n_cand, step.n_int, step.force)


@needs_native
class TestWaferStepKernels:
    """Native == numpy, bitwise, on random holed grids."""

    @given(**_GRIDS, reach=st.sampled_from([0.0, 2.0, 3.6, 40.0]),
           b=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_list_build(self, seed, nx, ny, holes, box, reach, b):
        _, pos, occ, lengths, periodic = _wafer_grid(seed, nx, ny, holes, box)
        offsets = np.array([(dx, dy) for dx in range(-b, b + 1)
                            for dy in range(-b, b + 1) if (dx, dy) != (0, 0)])
        want, got = (
            _outcome(_built_list, side, pos, occ, offsets, lengths, periodic,
                     reach * reach)
            for side in (numpy_backend, native_backend)
        )
        _assert_same(got, want)

    def test_clean_input_runs_in_c(self, no_declines):
        case = _threaded_case(3, 12, 9, 0.1, "mixed", 2, True, 2, 0.0)
        _step(native_backend, case, 2.6, 0.4, "step", noise=True)

    def test_probe_covers_every_kernel(self):
        assert set(native_backend._expected()) == set(kernels.KERNEL_FUNCTIONS)

    def test_type_outside_the_mass_table_writes_nothing(self):
        """The team checks every occupied tile's type before anything is
        written, so the numpy body that raises starts from the untouched
        grids."""
        case = list(_threaded_case(4, 6, 6, 0.0, "open", 1, True, 1, 0.0))
        typ = case[6].reshape(6, 6).copy()
        typ[-1, -1] = 2
        case[6] = typ.ravel()
        pos, vel = case[1].copy(), np.ones(case[1].shape)
        before = native_backend.declined
        got, _ = _step(native_backend, case, 2.6, 0.0, "step",
                       grids=(pos, vel), masses=np.array([180.9, 50.0]))
        assert got is IndexError
        assert native_backend.declined == before + 1
        assert np.array_equal(pos, case[1]) and (vel == 1.0).all()


# -- the list build and both sweeps on several threads -----------------------


THREADS = (1, 2, 3, 7)


@contextlib.contextmanager
def forced_threads(n):
    """The native wrapper's thread count forced to ``n``: the test seam
    of a derived value, not an option."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native_backend, "_sweep_threads", lambda rows: n)
        yield


def _threaded_case(seed, nx, ny, holes, box, b, symmetry, n_members, jitter):
    """A holed grid whose list is built at ``held`` and swept at ``pos``
    (``jitter`` moves the occupied tiles, so some listed rows miss the
    exact cut and their segments leave gaps), with the engine's
    offsets: the whole neighbourhood, or its half under symmetry
    (negative dx included either way)."""
    rng, held, occ, lengths, periodic = _wafer_grid(seed, nx, ny, holes, box)
    pos = held + np.where(occ[..., None],
                          rng.normal(0.0, jitter, held.shape), 0.0)
    offsets = np.array([
        (dx, dy) for dx in range(-b, b + 1) for dy in range(-b, b + 1)
        if (dx, dy) != (0, 0)
        and (not symmetry or dy > 0 or (dy == 0 and dx > 0))
    ])
    rho = floor._group(rng, n_members, "linear", True)
    n_phi = n_members * (n_members + 1) // 2
    phi = floor._group(rng, n_phi, "linear", True)
    phi_index = np.zeros((n_members, n_members), dtype=np.int64)
    phi_index[np.triu_indices(n_members)] = np.arange(n_phi)
    phi_index = np.maximum(phi_index, phi_index.T)
    typ = rng.integers(0, n_members, occ.size)
    f_der = rng.normal(size=occ.size)
    return (held, pos, occ, lengths, periodic, offsets, typ, rho, phi,
            phi_index, f_der)


def _build_then_sweep(backend, case, cutoff, skin, symmetry, energy):
    """Two ``wafer_step`` calls of ``backend`` in one scratch that
    integrate nothing: a list built at ``held``, then both sweeps over
    it at ``pos`` (an infinite ``bound2`` reuses it, so the rows the
    jitter moved past the exact cut leave gaps in the record's
    segments).  Every output and held list, and the two steps."""
    (held, pos, occ, lengths, periodic, offsets, typ, rho, phi, phi_index,
     _) = case
    nx, ny = occ.shape
    embed = floor._group(np.random.default_rng(nx * ny), len(rho.members),
                         "clamp", False)
    grid = (offsets, lengths, periodic, (cutoff + skin) ** 2, np.inf, cutoff,
            (rho.bank(), embed.bank(), phi.bank()), phi_index, symmetry)
    typ, vel, scratch = typ.reshape(nx, ny), np.zeros(pos.shape), {}
    built = backend.wafer_step(held.copy(), vel, occ, typ, *grid,
                               scratch=scratch)
    outs = list(native_backend.step_outputs(built, scratch))
    swept = backend.wafer_step(pos.copy(), vel, occ, typ, *grid,
                               energy=energy, scratch=scratch)
    outs += native_backend.step_outputs(swept, scratch)
    return outs, (built, swept)


def _tasks() -> int:
    return len(os.listdir("/proc/self/task"))


@needs_native
class TestSweepThreads:
    """Every thread count is bitwise the numpy body: each tile is owned
    by one thread at a time and sees its additions in the same order."""

    @given(**_GRIDS, b=st.integers(1, 3), symmetry=st.booleans(),
           n_members=st.sampled_from([1, 2]),
           skin=st.sampled_from([0.0, 0.4]),
           jitter=st.sampled_from([0.0, 0.15]), energy=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_every_thread_count_is_the_numpy_body(
        self, seed, nx, ny, holes, box, b, symmetry, n_members, skin,
        jitter, energy,
    ):
        case = _threaded_case(seed, nx, ny, holes, box, b, symmetry,
                              n_members, jitter)
        want, _ = _build_then_sweep(numpy_backend, case, 2.6, skin, symmetry,
                                    energy)
        for n in THREADS:
            with forced_threads(n):
                got, steps = _build_then_sweep(native_backend, case, 2.6,
                                               skin, symmetry, energy)
            assert [step.threads for step in steps] == [n, n]
            _assert_same(got, want)

    def test_segments_with_gaps_are_walked_on_every_thread_count(self):
        """A jittered 40 x 40 slab: rows the exact cut drops leave gaps
        between the record's segments (more listed than kept), which the
        force phase walks as they lie, bitwise."""
        case = _threaded_case(9, 40, 40, 0.05, "periodic", 2, True, 2, 0.15)
        want, (_, swept) = _build_then_sweep(numpy_backend, case, 2.6, 0.4,
                                             True, True)
        held, _, occ, lengths, periodic, offsets = case[:6]
        _, listed, _ = numpy_backend._wafer_list(
            held, occ, offsets, lengths, periodic, 3.0**2,
            np.zeros(occ.shape, dtype=np.int32))
        assert swept.reused
        assert 0 < swept.n_int.sum() < len(listed)
        for n in THREADS:
            with forced_threads(n):
                got, _ = _build_then_sweep(native_backend, case, 2.6, 0.4,
                                           True, True)
            _assert_same(got, want)

    def test_more_threads_than_a_team_holds_run_on_a_full_team(self):
        """A count above native.c's MAX_THREADS runs on MAX_THREADS
        members, whose owner blocks fit its tables, bitwise."""
        case = _threaded_case(9, 40, 40, 0.05, "periodic", 2, True, 2, 0.15)
        want, _ = _build_then_sweep(numpy_backend, case, 2.6, 0.4, True, True)
        most = native_backend.MAX_THREADS
        with forced_threads(most + 36):
            got, steps = _build_then_sweep(native_backend, case, 2.6, 0.4,
                                           True, True)
        assert [step.threads for step in steps] == [most, most]
        _assert_same(got, want)

    def test_more_blocks_than_native_holds_decline(self, monkeypatch):
        """A call of more owner blocks than native.c's tables hold
        declines to the numpy body before anything is written."""
        case = _threaded_case(4, 30, 30, 0.1, "mixed", 2, True, 1, 0.1)
        want, _ = _build_then_sweep(numpy_backend, case, 2.6, 0.4, True, True)
        monkeypatch.setattr(native_backend, "BLOCKS_PER_THREAD", 5)
        before = native_backend.declined
        with forced_threads(native_backend.MAX_THREADS):
            got, steps = _build_then_sweep(native_backend, case, 2.6, 0.4,
                                           True, True)
        assert native_backend.declined == before + 2
        assert [step.threads for step in steps] == [1, 1]
        _assert_same(got, want)

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_bad_last_type_declines_before_any_write(self, n):
        """The last tile is checked by the last member, and no member
        writes until every member's check has passed, on a team that
        holds its list."""
        case = list(_threaded_case(7, 20, 20, 0.0, "open", 2, True, 1, 0.0))
        case[6] = case[6].copy()
        case[6][-1] = 1  # past the one-entry mass table
        pos, vel = case[1].copy(), np.ones(case[1].shape)
        before = native_backend.declined
        with forced_threads(n):
            got, _ = _step(native_backend, case, 2.6, 0.4, "step",
                           grids=(pos, vel), masses=np.array([180.9]))
        assert got is IndexError
        assert native_backend.declined == before + 1
        assert np.array_equal(pos, case[1]) and (vel == 1.0).all()

    def test_nan_geometry_refuses_as_numpy_refuses(self):
        """A NaN fails the list test (it moved no finite distance), and
        the build it calls for refuses the step, on every team."""
        case = list(_threaded_case(3, 30, 30, 0.0, "mixed", 2, True, 1, 0.1))
        x, y = np.argwhere(case[2])[len(case[2]) // 2]
        case[1] = case[1].copy()
        case[1][x, y, 1] = np.nan
        want, _ = _build_then_sweep(numpy_backend, case, 2.6, 0.4, True, True)
        with forced_threads(2):
            got, steps = _build_then_sweep(native_backend, case, 2.6, 0.4,
                                           True, True)
        assert [step.threads for step in steps] == [2, 2]
        assert not steps[1].ran
        _assert_same(got, want)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="counts threads through /proc")
    def test_no_thread_outlives_a_call(self):
        case = _threaded_case(1, 30, 30, 0.1, "periodic", 2, True, 1, 0.1)
        before = _tasks()
        with forced_threads(3):
            _, steps = _build_then_sweep(native_backend, case, 2.6, 0.4,
                                         True, False)
        assert [step.threads for step in steps] == [3, 3]
        assert _tasks() == before

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="forks a child")
    def test_the_working_memory_is_private_to_the_process(self):
        """The scratch a machine keeps between calls is a private
        mapping: a child forked while it is alive writes its own copy."""
        scratch = native_backend._mapped((1024,), np.float64)
        scratch[:] = 1.0
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child
            scratch[:] = 2.0
            os._exit(0)
        os.waitpid(pid, 0)
        assert (scratch == 1.0).all()

    def test_thread_count_is_derived_from_cpus_and_rows(self, monkeypatch):
        rows = native_backend.ROWS_PER_THREAD
        monkeypatch.setenv("OMP_NUM_THREADS", "1")  # not read
        monkeypatch.setattr(native_backend, "usable_cpus", lambda: 4)
        threads = native_backend._sweep_threads
        assert [threads(0), threads(rows - 1), threads(2 * rows),
                threads(3 * rows + 1), threads(100 * rows)] == [1, 1, 2, 3, 4]
        monkeypatch.setattr(native_backend, "usable_cpus", lambda: 1)
        assert threads(100 * rows) == 1


def _step(backend, case, cutoff, skin, mode, *, symmetry=True, grids=None,
          masses=None, noise=False, poison=None, flip=False):
    """One ``wafer_step`` of ``backend`` at the case's ``pos``: from the
    list a step of ``backend`` built at ``held`` and holds in the
    scratch of both calls (skin > 0; ``flip`` then turns one occupancy
    bit since) or from none (skin 0, nothing kept).
    ``mode`` "step" integrates and counts cycles (with a timing-noise
    plane when ``noise``), "observe" does neither, "energy" adds the
    energy planes; ``poison`` puts a NaN into "pos" or "vel" first.
    Returns every output, the list held after and the grids after, or
    the type of what was raised, and the step."""
    (held_pos, pos, occ, lengths, periodic, offsets, typ, rho, phi,
     phi_index, _) = case
    nx, ny = occ.shape
    rng = np.random.default_rng(nx * ny)
    embed = floor._group(rng, len(rho.members), "clamp", False)
    typ = typ.reshape(nx, ny)
    pos, vel = grids or (pos.copy(), rng.normal(size=pos.shape) * occ[..., None])
    grid = (offsets, lengths, periodic, (cutoff + skin) ** 2,
            (0.5 * skin) ** 2, cutoff, (rho.bank(), embed.bank(), phi.bank()),
            phi_index, symmetry)
    scratch = {}
    if skin > 0.0:
        backend.wafer_step(held_pos.copy(), vel.copy(), occ, typ, *grid,
                           scratch=scratch)
    if flip:
        occ = occ.copy()
        occ[rng.integers(nx), rng.integers(ny)] ^= True
    if poison is not None:
        x, y = np.argwhere(occ)[0] if occ.any() else (0, 0)
        (pos if poison == "pos" else vel)[x, y, 1] = np.nan
    kw = dict(energy=mode == "energy", scratch=scratch)
    if mode == "step":
        kw.update(
            masses=(rng.uniform(10.0, 200.0, len(rho.members))
                    if masses is None else masses),
            dt=0.002, cost=(412.0, 24.18, 64.91, 521.8),
            noise=rng.normal(size=occ.size) if noise else None,
            jitter=1e-3 if noise else 0.0,
        )
    try:
        step = backend.wafer_step(pos, vel, occ, typ, *grid, **kw)
    except Exception as exc:
        return type(exc), None
    return [*native_backend.step_outputs(step, scratch), pos, vel], step


@needs_native
class TestWaferStep:
    """``wafer_step`` on every forced team size is bitwise its numpy
    body: one team runs the list test, the build, density with the
    embedding, and force with the leap-frog and the cycle counter, each
    block adding only into its own tiles."""

    @given(**_GRIDS, b=st.integers(1, 3), symmetry=st.booleans(),
           n_members=st.sampled_from([1, 2]),
           skin=st.sampled_from([0.0, 0.4]),
           jitter=st.sampled_from([0.0, 0.15]),
           mode=st.sampled_from(["step", "observe", "energy"]),
           noise=st.booleans(), poison=st.sampled_from([None, "pos", "vel"]),
           flip=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_every_team_size_is_the_numpy_body(
        self, seed, nx, ny, holes, box, b, symmetry, n_members, skin, jitter,
        mode, noise, poison, flip,
    ):
        case = _threaded_case(seed, nx, ny, holes, box, b, symmetry,
                              n_members, jitter)
        kw = dict(symmetry=symmetry, noise=noise, poison=poison, flip=flip)
        want, _ = _step(numpy_backend, case, 2.6, skin, mode, **kw)
        for n in THREADS:
            with forced_threads(n):
                got, step = _step(native_backend, case, 2.6, skin, mode, **kw)
            _assert_same(got, want)
            assert step is None or step.threads == n

    def test_the_list_test_reuses_exactly_when_the_list_covers(self):
        case = _threaded_case(2, 20, 20, 0.1, "periodic", 2, True, 1, 0.0)
        for flip, poison, reused in ((False, None, True), (True, None, False),
                                     (False, "pos", None)):
            want, _ = _step(numpy_backend, case, 2.6, 0.4, "observe",
                            flip=flip, poison=poison)
            with forced_threads(2):
                got, step = _step(native_backend, case, 2.6, 0.4, "observe",
                                  flip=flip, poison=poison)
            _assert_same(got, want)
            # a NaN fails the test, and the build it calls for refuses
            assert step.ran is (reused is not None)
            assert step.phases[0] == "neighbor"
            if reused is not None:
                assert step.reused is reused

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="counts threads through /proc")
    @pytest.mark.parametrize("n", THREADS)
    def test_no_thread_outlives_a_step(self, n):
        from repro.core.wse_md import WseMd
        from repro.potentials.elements import make_element_potential
        from tests.conftest import small_slab_state

        kernels.set_backend("native")
        sim = WseMd(small_slab_state(reps=(8, 8, 2), temperature=300.0),
                    make_element_potential("Ta"), force_symmetry=True,
                    swap_interval=1)
        before = _tasks()
        with forced_threads(n):
            sim.step(2)
        assert sim.sweep_threads == n
        assert _tasks() == before

    @pytest.mark.parametrize("n_members", [1, 2])
    def test_the_record_is_sized_alike_on_both_tiers(self, n_members):
        """48 B per survivor with one table, 64 B with a table per type,
        counted by the numpy body from the record it returned and by the
        team from the segments it wrote."""
        case = _threaded_case(5, 18, 18, 0.1, "mixed", 2, True, n_members,
                              0.1)
        _, want = _step(numpy_backend, case, 2.6, 0.4, "observe")
        with forced_threads(2):
            _, got = _step(native_backend, case, 2.6, 0.4, "observe")
        per_row = 48 if n_members == 1 else 64
        assert got.record_nbytes == want.record_nbytes
        assert want.record_nbytes == per_row * int(want.n_int.sum()) > 0

    @pytest.mark.parametrize("symmetry", [False, True])
    def test_the_timing_noise_keeps_its_stream(self, symmetry):
        """With jitter on, the noise plane is drawn before each call from
        the machine's generator: every tier records the same cycle
        planes and leaves the generator in the same state."""
        from repro.core.wse_md import WseMd
        from repro.potentials.elements import make_element_potential
        from tests.conftest import small_slab_state

        runs = []
        for backend in ("numpy", "native"):
            kernels.set_backend(backend)
            sim = WseMd(small_slab_state(reps=(6, 6, 2)),
                        make_element_potential("Ta"), jitter_rel=0.01,
                        seed=5, force_symmetry=symmetry, swap_interval=3)
            sim.step(7)
            runs.append((sim.trace.count_samples(), sim.rng.random()))
        (cycles, cand, inter), draw = runs[0]
        assert np.array_equal(runs[1][0][0], cycles) and cycles.std() > 0
        assert np.array_equal(runs[1][0][1], cand)
        assert np.array_equal(runs[1][0][2], inter)
        assert runs[1][1] == draw


def _chunk_rows() -> int:
    """native.c's CHUNK: the rows a chunked pass takes at a time."""
    source = native_backend.SOURCE.read_text()
    return int(re.search(r"#define CHUNK (\d+)", source).group(1))


def _edge_slab(count, blocks, tables, jitter):
    """A slab on which every owner block is one x row of ``count + 2``
    tiles, the first ``count + 1`` occupied at a pitch under the cutoff
    (the rest empty), so each (offset, block) segment of the list holds
    ``count`` rows for the offsets (0, +-1) and (1, +-1) (none where
    x + 1 is off the grid), and so does the record unless ``jitter``
    moves a pair past the cutoff.  ``tables``: the Ta table or the
    W/Ta bank with random types."""
    from repro.potentials.alloy import mix_tables
    from repro.potentials.eam import EAMPotential
    from repro.potentials.elements import make_element_tables

    rng = np.random.default_rng(count * 31 + blocks)
    parts = [make_element_tables(e) for e in tables.split("/")]
    potential = EAMPotential(parts[0] if len(parts) == 1 else
                             mix_tables(*parts))
    cut = float(potential.cutoff)
    nx, ny = blocks, count + 2
    occ = np.zeros((nx, ny), dtype=bool)
    occ[:, :count + 1] = True
    gx, gy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    held = np.stack([0.3 * gx, 0.92 * gy, np.zeros((nx, ny))], -1) * cut
    held[~occ] = FAR
    pos = held + np.where(occ[..., None],
                          rng.normal(0.0, jitter * cut, held.shape), 0.0)
    typ = rng.integers(0, len(parts), (nx, ny)) * occ
    lengths = np.array([0.3 * cut * nx, 0.92 * cut * ny, 60.0])
    return potential, held, pos, occ, typ, lengths


def _edge_steps(backend, slab, offsets, symmetry, energy):
    """A build at the slab's lattice, then a step at its jittered
    positions over the held list: every output and held list."""
    potential, held, pos, occ, typ, lengths = slab
    grouped = potential.tables.grouped()
    cut = float(potential.cutoff)
    grid = (offsets, lengths, np.array([True, False, False]),
            (1.1 * cut) ** 2, np.inf, cut,
            (grouped.rho.bank(), grouped.embed.bank(), grouped.phi.bank()),
            grouped.phi_index, symmetry)
    vel, scratch = np.zeros(pos.shape), {}
    built = backend.wafer_step(held.copy(), vel, occ, typ, *grid,
                               scratch=scratch)
    outs = [*native_backend.step_outputs(built, scratch)]
    swept = backend.wafer_step(pos.copy(), vel, occ, typ, *grid,
                               energy=energy, scratch=scratch)
    outs += native_backend.step_outputs(swept, scratch)
    return outs, scratch[backend.name]["list"][0][0]


@needs_native
class TestChunkEdges:
    """The chunked passes are bitwise the numpy body where an (offset,
    block) segment holds 0, 1, CHUNK - 1, CHUNK and CHUNK + 1 rows: a
    chunk boundary that dropped or repeated a row would move a sum."""

    @pytest.mark.parametrize("threads", THREADS)
    @pytest.mark.parametrize("tables", ["Ta", "W/Ta"])
    @pytest.mark.parametrize("symmetry", [True, False])
    def test_segments_around_a_chunk(self, threads, tables, symmetry):
        chunk = _chunk_rows()
        blocks = 1 if threads == 1 else (native_backend.BLOCKS_PER_THREAD
                                         * threads)
        half = [(0, 1), (1, 1), (1, -1)]
        offsets = np.array(half + ([] if symmetry else
                                   [(-dx, -dy) for dx, dy in half]))
        for count in (0, 1, chunk - 1, chunk, chunk + 1):
            for jitter, energy in ((0.0, False), (0.02, True)):
                slab = _edge_slab(count, blocks, tables, jitter)
                want, starts = _edge_steps(numpy_backend, slab, offsets,
                                           symmetry, energy)
                # every x row is a block; dx = +-1 has one row fewer
                rows = [count * (blocks - abs(dx)) for dx, _ in offsets]
                assert np.diff(starts).tolist() == rows
                with forced_threads(threads):
                    got, _ = _edge_steps(native_backend, slab, offsets,
                                         symmetry, energy)
                _assert_same(got, want)


def _wafer_engine(backend, **spec):
    from repro.runtime import RunSpec, build_engine

    return build_engine(RunSpec(
        element="Ta", reps=(6, 6, 2), engine="wse", seed=3, backend=backend,
        **spec,
    ))


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_non_finite_leap_frog_raises_naming_the_step(backend):
    engine = _wafer_engine(backend)
    engine.step(3)
    engine.sim.masses[:] = 0.0  # every acceleration is infinite
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(FloatingPointError, match="after step 4"):
        engine.step(1)


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_the_list_test_fails_on_nan_and_on_an_occupancy_flip(backend):
    sim = _wafer_engine(backend).sim  # the spec's backend is now active
    sim.compute_forces()  # builds the list it holds
    sim.compute_forces()
    assert (sim.list_builds, sim.list_reuses) == (1, 1)
    x, y = np.argwhere(sim.occ)[0]
    held = sim.pos[x, y, 0]
    sim.pos[x, y, 0] = np.nan
    # a held list would still cover every other tile; only a failed
    # test reaches the build that refuses the NaN
    with pytest.raises(FloatingPointError, match="non-finite"):
        sim.compute_forces()
    sim.pos[x, y, 0] = held
    sim.compute_forces()
    assert (sim.list_builds, sim.list_reuses) == (2, 1)
    sim.occ[x, y] = False
    sim.compute_forces()
    assert (sim.list_builds, sim.list_reuses) == (3, 1)


# -- whole trajectories ---------------------------------------------------------


def _sha(engine) -> str:
    state = engine.state
    return hashlib.sha256(
        state.positions.tobytes() + state.velocities.tobytes()
    ).hexdigest()


def _run(spec_kwargs, backend, steps):
    from repro.runtime import RunSpec, build_engine

    engine = build_engine(RunSpec(backend=backend, seed=11, **spec_kwargs))
    try:
        engine.step(steps)
        return _sha(engine)
    finally:
        engine.close()


@needs_native
@pytest.mark.parametrize("element", ["Ta", "Cu", "W"])
def test_reference_trajectory_same_sha(element):
    spec = dict(element=element, reps=(4, 4, 3), engine="reference")
    assert _run(spec, "native", 200) == _run(spec, "numpy", 200)


@needs_native
@pytest.mark.parametrize("element", ["Ta", "Cu", "W"])
@pytest.mark.parametrize("symmetry,skin", [(True, 0.5), (False, 0.0)])
def test_wafer_trajectory_same_sha(element, symmetry, skin):
    spec = dict(element=element, reps=(5, 5, 2), engine="wse", skin=skin,
                force_symmetry=symmetry, swap_interval=7,
                temperature=600.0)
    assert _run(spec, "native", 60) == _run(spec, "numpy", 60)


# -- the build path --------------------------------------------------------------

_CHILD = """
import sys, warnings
import repro.kernels as k
with warnings.catch_warnings(record=True) as w:
    warnings.simplefilter("always")
    name = k.set_backend("native")
    k.set_backend("native")
from repro.runtime import RunSpec, build_engine
import hashlib
e = build_engine(RunSpec(element="Ta", reps=(3, 3, 2), engine="wse", seed=2))
e.step(4)
sha = hashlib.sha256(e.state.positions.tobytes()).hexdigest()
import json
print(json.dumps([name, len(w), sha, "|".join(str(x.message) for x in w)]))
"""


def _child(cache, *, path=None, wait=True):
    env = dict(os.environ, XDG_CACHE_HOME=str(cache),
               PYTHONPATH=os.pathsep.join(sys.path))
    if path is not None:
        env["PATH"] = path
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    return _reap(proc) if wait else proc


def _reap(proc):
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return tuple(json.loads(out.strip().splitlines()[-1]))


def _artefacts(cache):
    return sorted((cache / "repro" / "kernels").glob("*.so"))


@needs_native
class TestBuildPath:
    def test_racing_cold_start_leaves_one_artefact(self, tmp_path):
        procs = [_child(tmp_path, wait=False) for _ in range(2)]
        results = [_reap(p) for p in procs]
        assert [r[:2] for r in results] == [("native", 0)] * 2
        assert results[0][2] == results[1][2]
        assert len(_artefacts(tmp_path)) == 1
        leftovers = [p.name for p in (tmp_path / "repro" / "kernels").iterdir()
                     if p.name.endswith(".tmp")]
        assert leftovers == []

    def test_truncated_artefact_is_rebuilt(self, tmp_path):
        first = _child(tmp_path)
        (so,) = _artefacts(tmp_path)
        size = so.stat().st_size
        so.write_bytes(so.read_bytes()[:100])
        again = _child(tmp_path)
        assert again[:3] == ("native", 0, first[2])
        assert _artefacts(tmp_path) == [so] and so.stat().st_size == size

    def test_no_compiler_warns_once_and_runs_on_numpy(self, tmp_path):
        with_cc = _child(tmp_path / "a")
        name, n_warned, sha, text = _child(tmp_path / "b", path="")
        assert (name, n_warned) == ("numpy", 1)
        assert "no C compiler" in text and "falling back" in text
        assert sha == with_cc[2]  # identical digests on the fall-back

    def test_unwritable_cache_warns_once_and_runs_on_numpy(self, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        name, n_warned, _, text = _child(blocker)
        assert (name, n_warned) == ("numpy", 1)
        assert "cannot build native.c" in text

    def test_warm_start_spawns_no_process(self, tmp_path, monkeypatch):
        """RUSAGE_CHILDREN charges a child its parent's resident set, so
        a warm load must read the cache and nothing else."""
        _child(tmp_path)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(native_backend, "_lib", None)
        monkeypatch.setattr(native_backend, "compile_s", 0.0)
        monkeypatch.setattr(
            subprocess, "run",
            lambda *a, **k: pytest.fail(f"spawned {a[0]}"),
        )
        native_backend.load()
        assert native_backend._lib is not None
        assert native_backend.compile_s == 0.0

    def test_each_cpu_gets_its_own_artefact(self, tmp_path, monkeypatch):
        """The flags build for the host's CPU, so a cache two CPUs share
        holds an artefact per CPU: each load builds its own, and the
        first CPU's next load finds its first one, without compiling."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(native_backend, "compile_s", 0.0)
        loaded = []
        for cpu in ("vendor_id: A\nflags: x", "vendor_id: B\nflags: x",
                    "vendor_id: A\nflags: x"):
            monkeypatch.setattr(native_backend, "_cpu_identity", lambda: cpu)
            monkeypatch.setattr(native_backend, "_lib", None)
            native_backend.compile_s = 0.0
            native_backend.load()
            loaded.append((native_backend._lib._name,
                           native_backend.compile_s > 0.0))
        (a, built_a), (b, built_b), (again, built_again) = loaded
        assert a != b and again == a
        assert (built_a, built_b, built_again) == (True, True, False)
        assert [str(p) for p in _artefacts(tmp_path)] == sorted([a, b])


@pytest.fixture()
def fresh_registry(monkeypatch, tmp_path):
    """The native entry as a new process would find it, on a private
    cache; everything put back afterwards."""
    from repro.kernels import native_backend as nb

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    for attr in ("_resolved", "_failures"):
        monkeypatch.setattr(kernels, attr, {
            k: v for k, v in getattr(kernels, attr).items() if k != "native"
        })
    monkeypatch.setattr(obs, "_warned", set())
    monkeypatch.setattr(nb, "_lib", None)
    monkeypatch.setattr(nb, "compile_s", 0.0)
    return nb


@needs_native
class TestLoadFailures:
    def test_probe_mismatch_falls_back_naming_the_kernel(
        self, fresh_registry
    ):
        nb = fresh_registry
        honest = nb._expected

        def one_bit_off():
            want = honest()
            e_pair, forces = want["fused_force_pass"]
            forces = forces.copy()
            forces[0, 0] = np.nextafter(forces[0, 0], np.inf)
            want["fused_force_pass"] = (e_pair, forces)
            return want

        nb._expected = one_bit_off
        try:
            with pytest.warns(RuntimeWarning, match="fused_force_pass"):
                assert kernels.set_backend("native") == "numpy"
        finally:
            nb._expected = honest
        assert "fused_force_pass" in kernels.backend_status()["native"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # once per process, not per call
            assert kernels.set_backend("native") == "numpy"

    def test_failed_compile_falls_back_with_the_compiler_text(
        self, fresh_registry, tmp_path, monkeypatch
    ):
        broken = tmp_path / "native.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(fresh_registry, "SOURCE", broken)
        with pytest.warns(RuntimeWarning, match="failed on native.c"):
            assert kernels.set_backend("native") == "numpy"
        assert kernels.active_backend() is numpy_backend

    def test_compile_seconds_are_exported(self, fresh_registry):
        assert kernels.set_backend("native") == "native"
        assert fresh_registry.compile_s > 0.0  # private cache: cold
