"""The native tier: bitwise against the numpy bodies, and its build path.

The equivalence proof is PR 17's Hypothesis harness
(``test_numpy_floor.py``) pointed at native-vs-numpy for the pair
kernels it already sweeps, plus the same treatment for the six kernels
of a wafer step (list test and build on holed grids in open and
periodic boxes, the two sweeps, the leap-frog, the cycle
counter): every output ``np.array_equal`` with equal dtype and shape,
and the same exception *type* where numpy raises (out-of-range index
-> ``IndexError``, coincident atoms -> ``FloatingPointError``).  Then
whole trajectories: reference and wafer runs end on the same SHA-256
under ``native`` and ``numpy``, and a float32 wafer declines to numpy.

The build-path tests run against a private cache directory
(``XDG_CACHE_HOME``), in a child interpreter wherever the registry's
process state would otherwise leak between cases.
"""

import contextlib
import hashlib
import json
import os
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
        positions, lengths, i, j, rho, phi, types, rng = floor._pair_inputs()
        periodic = np.array([True, False, True])
        ki, kj, rij, r = native_backend.neighbor_prefilter(
            positions, i, j, lengths, periodic, 4.0, inclusive=False,
        )
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


# -- the wafer's two sweeps ---------------------------------------------------


def _wafer_case(seed, *, n_tiles, n_off, n_members, box, bad_index=False,
                coincident=False):
    """A wafer list on a random cloud: per offset, unique center tiles
    and unique source tiles, as the list build guarantees."""
    rng = np.random.default_rng(seed)
    lengths = rng.uniform(4.0, 7.0, 3)
    pos = rng.uniform(0.0, 1.0, (n_tiles, 3)) * lengths
    parts_c = [np.empty(0, dtype=np.int64)]  # n_off == 0 concatenates too
    parts_s = [np.empty(0, dtype=np.int64)]
    for _ in range(n_off):
        rows = int(rng.integers(0, n_tiles + 1))
        parts_c.append(np.sort(rng.permutation(n_tiles)[:rows]))
        parts_s.append(rng.permutation(n_tiles)[:rows])
    ctr = np.concatenate(parts_c).astype(np.int32)
    src = np.concatenate(parts_s).astype(np.int32)
    starts = np.cumsum([len(p) for p in parts_c]).astype(np.int32)
    if coincident and len(ctr):
        pos[src[0]] = pos[ctr[0]]  # r2 == 0: cut, never divided by
    if bad_index and len(ctr):
        src[len(src) // 2] = n_tiles + 3
    rho = floor._group(rng, n_members, "linear", True)
    n_phi = n_members * (n_members + 1) // 2
    phi = floor._group(rng, n_phi, "linear", True)
    phi_index = np.zeros((n_members, n_members), dtype=np.int64)
    phi_index[np.triu_indices(n_members)] = np.arange(n_phi)
    phi_index = np.maximum(phi_index, phi_index.T)
    typ = rng.integers(0, n_members, n_tiles)
    f_der = rng.normal(size=n_tiles)
    return (pos, (starts, ctr, src), lengths, np.array(floor.BOXES[box]),
            typ, rho, phi, phi_index, f_der)


def _both_sweeps(backend, case, cutoff, symmetry, energy):
    """Density then force sweep through ``backend``; every output and
    accumulator, or the type of what was raised."""
    pos, listed, lengths, periodic, typ, rho, phi, phi_index, f_der = case
    n = len(pos)
    rho_flat, int_flat = np.zeros(n), np.zeros(n, dtype=np.int64)
    force = np.zeros((n, 3))
    e_flat = np.zeros(n) if energy else None
    try:
        record = backend.wafer_density(
            pos, listed, lengths, periodic, cutoff, typ, rho.bank(),
            phi_index, symmetry, rho_flat, int_flat,
        )
        backend.wafer_force(
            record, f_der, phi.bank(), symmetry, force, e_flat
        )
    except Exception as exc:
        return type(exc)
    out = [*record, rho_flat, int_flat, force]
    return out + [e_flat] if energy else out


@needs_native
class TestWaferSweeps:
    @given(
        seed=st.integers(0, 10_000),
        n_tiles=st.sampled_from([1, 2, 9, 60]),
        n_off=st.sampled_from([0, 1, 3, 6]),
        n_members=st.sampled_from([1, 2, 3]),
        box=st.sampled_from(sorted(floor.BOXES)),
        cutoff=st.sampled_from([0.0, 1.5, 3.0, 50.0]),
        symmetry=st.booleans(),
        energy=st.booleans(),
        bad_index=st.booleans(),
        coincident=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_density_then_force(self, seed, n_tiles, n_off, n_members, box,
                                cutoff, symmetry, energy, bad_index,
                                coincident):
        case = _wafer_case(
            seed, n_tiles=n_tiles, n_off=n_off, n_members=n_members,
            box=box, bad_index=bad_index, coincident=coincident,
        )
        want = _both_sweeps(numpy_backend, case, cutoff, symmetry, energy)
        got = _both_sweeps(native_backend, case, cutoff, symmetry, energy)
        if isinstance(want, type):
            assert got is want
            assert bad_index and want is IndexError
            return
        assert len(got) == len(want)
        for a, b in zip(got, want):
            a, b = np.asarray(a), np.asarray(b)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)

    def test_clean_input_runs_in_c(self, no_declines):
        case = _wafer_case(5, n_tiles=60, n_off=4, n_members=2, box="mixed")
        assert not isinstance(
            _both_sweeps(native_backend, case, 3.0, True, True), type
        )

    def test_out_of_range_index_leaves_accumulators_untouched(self):
        """The C loop scatters only after the indices passed, so the
        numpy body that raises starts from clean accumulators."""
        pos, listed, lengths, periodic, typ, rho, _, phi_index, _ = (
            _wafer_case(7, n_tiles=40, n_off=3, n_members=1, box="open",
                        bad_index=True)
        )
        rho_flat, int_flat = np.zeros(40), np.zeros(40, dtype=np.int64)
        with pytest.raises(IndexError):
            native_backend.wafer_density(
                pos, listed, lengths, periodic, 3.0, typ, rho.bank(),
                phi_index, True, rho_flat, int_flat,
            )
        assert not rho_flat.any() and not int_flat.any()

    def test_float32_wafer_is_declined(self):
        case = list(_wafer_case(3, n_tiles=30, n_off=2, n_members=1,
                                box="open"))
        case[0] = case[0].astype(np.float32)
        before = native_backend.declined
        want = _both_sweeps(numpy_backend, case, 3.0, True, False)
        got = _both_sweeps(native_backend, case, 3.0, True, False)
        assert native_backend.declined == before + 2
        for a, b in zip(got, want):
            assert np.asarray(a).dtype == np.asarray(b).dtype
            assert np.array_equal(a, b)


# -- the rest of the wafer step: list test and build, leap-frog, cycles ------


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


@needs_native
class TestWaferStepKernels:
    """Native == numpy, bitwise, on random holed grids."""

    @given(**_GRIDS, skin=st.sampled_from([0.0, 0.2, 1.0]),
           flip=st.booleans(), nan=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_list_valid(self, seed, nx, ny, holes, box, skin, flip, nan):
        rng, held, occ, _, _ = _wafer_grid(seed, nx, ny, holes, box)
        pos = held + np.where(occ[..., None],
                              rng.normal(0.0, 0.2, held.shape), 0.0)
        now = occ.copy()
        if flip:
            now[rng.integers(nx), rng.integers(ny)] ^= True
        if nan:
            pos[rng.integers(nx), rng.integers(ny), rng.integers(3)] = np.nan
        args = (pos, now, held, occ, (0.5 * skin) ** 2)
        want = numpy_backend.list_valid(*args)
        assert native_backend.list_valid(*args) is want
        if flip or nan:
            assert want is False

    @given(**_GRIDS, reach=st.sampled_from([0.0, 2.0, 3.6, 40.0]),
           b=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_wafer_list(self, seed, nx, ny, holes, box, reach, b):
        _, pos, occ, lengths, periodic = _wafer_grid(seed, nx, ny, holes, box)
        offsets = np.array([(dx, dy) for dx in range(-b, b + 1)
                            for dy in range(-b, b + 1) if (dx, dy) != (0, 0)])
        want, got = (
            _outcome(side.wafer_list, pos, occ, offsets, lengths, periodic,
                     reach * reach, np.zeros((nx, ny), dtype=np.int32))
            for side in (numpy_backend, native_backend)
        )
        _assert_same(got, want)

    @given(**_GRIDS, n_types=st.integers(1, 3),
           dt=st.sampled_from([0.002, 0.01]),
           poison=st.sampled_from([None, np.nan, np.inf]))
    @settings(max_examples=200, deadline=None)
    def test_wafer_integrate(self, seed, nx, ny, holes, box, n_types, dt,
                             poison):
        rng, pos, occ, _, _ = _wafer_grid(seed, nx, ny, holes, box)
        rows, occ = pos.reshape(-1, 3), occ.ravel()
        vel = rng.normal(size=rows.shape) * occ[:, None]
        force = rng.normal(size=rows.shape) * 5.0
        if poison is not None:
            force[rng.integers(len(force)), rng.integers(3)] = poison
        typ = rng.integers(0, n_types, len(occ)) * occ
        masses = rng.uniform(10.0, 200.0, n_types)
        want, got = (
            _outcome(side.wafer_integrate, rows.copy(), vel.copy(), force,
                     occ, typ, masses, dt)
            for side in (numpy_backend, native_backend)
        )
        _assert_same(got, want)

    @given(**_GRIDS, jitter=st.sampled_from([None, 1e-3, 0.3]))
    @settings(max_examples=200, deadline=None)
    def test_wafer_cycles(self, seed, nx, ny, holes, box, jitter):
        rng, _, occ, _, _ = _wafer_grid(seed, nx, ny, holes, box)
        occ = occ.ravel()
        n_cand, n_int = rng.integers(0, 400, (2, len(occ)))
        extra = () if jitter is None else (rng.normal(size=len(occ)), jitter)
        args = (occ, n_cand, n_int, 412.0, 24.18, 64.91, 521.8, *extra)
        _assert_same(_outcome(native_backend.wafer_cycles, *args),
                     _outcome(numpy_backend.wafer_cycles, *args))

    def test_clean_input_runs_in_c(self, no_declines):
        rng, pos, occ, lengths, periodic = _wafer_grid(3, 12, 9, 0.1, "mixed")
        offsets = np.array([[1, 0], [0, 1], [2, -1]])
        native_backend.list_valid(pos, occ, pos.copy(), occ.copy(), 0.01)
        native_backend.wafer_list(pos, occ, offsets, lengths, periodic, 9.0,
                                  np.zeros(occ.shape, dtype=np.int32))
        rows, flat = pos.reshape(-1, 3), occ.ravel()
        native_backend.wafer_integrate(
            rows, np.zeros_like(rows), rng.normal(size=rows.shape), flat,
            np.zeros(len(flat), dtype=np.int64), np.array([180.9]), 0.002,
        )
        counts = np.ones((2, len(flat)), dtype=np.int64)
        native_backend.wafer_cycles(flat, *counts, 1.0, 2.0, 3.0, 4.0)

    def test_probe_covers_every_kernel(self):
        assert set(native_backend._expected()) == set(kernels.KERNEL_FUNCTIONS)

    def test_type_outside_the_mass_table_writes_nothing(self):
        """The C loop checks every occupied tile's type first, so the
        numpy body that raises starts from the untouched grids."""
        rng, pos, occ, _, _ = _wafer_grid(4, 6, 6, 0.0, "open")
        rows, vel = pos.reshape(-1, 3).copy(), np.ones((36, 3))
        typ = np.zeros(36, dtype=np.int64)
        typ[-1] = 2
        before = rows.copy()
        with pytest.raises(IndexError):
            native_backend.wafer_integrate(rows, vel, np.ones((36, 3)),
                                           occ.ravel(), typ,
                                           np.array([180.9, 50.0]), 0.002)
        assert np.array_equal(rows, before) and (vel == 1.0).all()


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


def _list_and_sweeps(backend, case, cutoff, skin, symmetry, energy):
    """Build the list, then both sweeps over it, through ``backend``:
    every output and accumulator, and the threads each native call ran
    on."""
    (held, pos, occ, lengths, periodic, offsets, typ, rho, phi, phi_index,
     f_der) = case
    n = occ.size
    n_cand = np.zeros(occ.shape, dtype=np.int32)
    rho_flat, int_flat = np.zeros(n), np.zeros(n, dtype=np.int64)
    force, e_flat = np.zeros((n, 3)), np.zeros(n) if energy else None
    threads = []
    listed = backend.wafer_list(held, occ, offsets, lengths, periodic,
                                (cutoff + skin) ** 2, n_cand)
    threads.append(getattr(backend, "threads", 1))
    record = backend.wafer_density(
        pos.reshape(-1, 3), listed, lengths, periodic, cutoff, typ,
        rho.bank(), phi_index, symmetry, rho_flat, int_flat,
    )
    threads.append(getattr(backend, "threads", 1))
    backend.wafer_force(record, f_der, phi.bank(), symmetry, force, e_flat)
    threads.append(getattr(backend, "threads", 1))
    out = [*listed, *record, n_cand, rho_flat, int_flat, force]
    return out + ([e_flat] if energy else []), threads


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
        want, _ = _list_and_sweeps(numpy_backend, case, 2.6, skin, symmetry,
                                   energy)
        for n in THREADS:
            with forced_threads(n):
                got, threads = _list_and_sweeps(native_backend, case, 2.6,
                                                skin, symmetry, energy)
            assert threads == [n] * len(threads)
            _assert_same(got, want)

    def test_segments_with_gaps_close_on_every_thread_count(self):
        """A jittered 40 x 40 slab: rows the exact cut drops leave gaps
        the fix-up closes (more listed than kept), bitwise."""
        case = _threaded_case(9, 40, 40, 0.05, "periodic", 2, True, 2, 0.15)
        want, _ = _list_and_sweeps(numpy_backend, case, 2.6, 0.4, True, True)
        starts, kept = want[3], want[4]  # the record's bounds and centres
        assert len(kept) < len(want[1])
        assert starts[-1] == len(kept)
        for n in THREADS:
            with forced_threads(n):
                got, _ = _list_and_sweeps(native_backend, case, 2.6, 0.4,
                                          True, True)
            _assert_same(got, want)

    def test_rows_out_of_order_run_on_one_thread(self):
        case = _wafer_case(5, n_tiles=60, n_off=4, n_members=2, box="mixed")
        want = _both_sweeps(numpy_backend, case, 3.0, True, True)
        with forced_threads(2):
            got = _both_sweeps(native_backend, case, 3.0, True, True)
        assert native_backend.threads == 1
        _assert_same(got, want)

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_bad_index_declines_before_any_write(self, n):
        """The last row is checked by the last thread, and no thread
        writes until every thread's check has passed."""
        pos, (starts, ctr, src), lengths, periodic, typ, rho, phi, \
            phi_index, f_der = _wafer_case(7, n_tiles=40, n_off=3,
                                           n_members=1, box="open")
        rho_flat, int_flat = np.zeros(40), np.zeros(40, dtype=np.int64)
        record = numpy_backend.wafer_density(
            pos, (starts, ctr, src), lengths, periodic, 50.0, typ,
            rho.bank(), phi_index, True, rho_flat, int_flat,
        )
        rho_flat[:], int_flat[:] = 0.0, 0
        src = src.copy()
        src[-1] = ctr[-1] = 40 + 3
        record[1][-1] = 40 + 3  # the record's last centre tile
        force = np.zeros((40, 3))
        before = native_backend.declined
        with forced_threads(n), pytest.raises(IndexError):
            native_backend.wafer_density(
                pos, (starts, ctr, src), lengths, periodic, 3.0, typ,
                rho.bank(), phi_index, True, rho_flat, int_flat,
            )
        with forced_threads(n), pytest.raises(IndexError):
            native_backend.wafer_force(record, f_der, phi.bank(), True, force)
        assert native_backend.declined == before + 2
        assert not rho_flat.any() and not int_flat.any() and not force.any()

    def test_nan_geometry_is_cut_as_numpy_cuts_it(self):
        case = list(_threaded_case(3, 30, 30, 0.0, "mixed", 2, True, 1, 0.1))
        x, y = np.argwhere(case[2])[len(case[2]) // 2]
        case[1] = case[1].copy()
        case[1][x, y, 1] = np.nan
        want, _ = _list_and_sweeps(numpy_backend, case, 2.6, 0.4, True, True)
        with forced_threads(2):
            got, threads = _list_and_sweeps(native_backend, case, 2.6, 0.4,
                                            True, True)
        assert set(threads) == {2}
        _assert_same(got, want)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="counts threads through /proc")
    def test_no_thread_outlives_a_call(self):
        case = _threaded_case(1, 30, 30, 0.1, "periodic", 2, True, 1, 0.1)
        before = _tasks()
        with forced_threads(3):
            _, threads = _list_and_sweeps(native_backend, case, 2.6, 0.4,
                                          True, False)
        assert set(threads) == {3}
        assert _tasks() == before

    def test_thread_count_is_derived_from_cpus_and_rows(self, monkeypatch):
        rows = native_backend.ROWS_PER_THREAD
        monkeypatch.setenv("OMP_NUM_THREADS", "1")  # not read
        monkeypatch.setattr(native_backend, "usable_cpus", lambda: 4)
        threads = native_backend._sweep_threads
        assert [threads(0), threads(rows - 1), threads(2 * rows),
                threads(3 * rows + 1), threads(100 * rows)] == [1, 1, 2, 3, 4]
        monkeypatch.setattr(native_backend, "usable_cpus", lambda: 1)
        assert threads(100 * rows) == 1


def _wafer_engine(backend, **spec):
    from repro.runtime import RunSpec, build_engine

    return build_engine(RunSpec(
        element="Ta", reps=(6, 6, 2), engine="wse", seed=3, backend=backend,
        **spec,
    ))


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_nan_force_raises_naming_the_step(backend, monkeypatch):
    engine = _wafer_engine(backend)
    engine.step(3)
    sim = engine.sim
    honest = sim._force_sweep

    def poisoned(record, f_der, **kw):
        force, e_pair = honest(record, f_der, **kw)
        x, y = np.argwhere(sim.occ)[0]
        force[x, y, 2] = np.nan
        return force, e_pair

    monkeypatch.setattr(sim, "_force_sweep", poisoned)
    with pytest.raises(FloatingPointError, match="after step 4"):
        engine.step(1)


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_list_valid_false_on_nan_and_on_an_occupancy_flip(backend):
    sim = _wafer_engine(backend).sim  # the spec's backend is now active
    tier = kernels.active_backend()
    held = sim.pos.copy(), sim.occ.copy()
    assert tier.list_valid(sim.pos, sim.occ, *held, 0.0625)
    x, y = np.argwhere(sim.occ)[0]
    sim.pos[x, y, 0] = np.nan
    assert tier.list_valid(sim.pos, sim.occ, *held, 0.0625) is False
    sim.pos[x, y, 0] = held[0][x, y, 0]
    sim.occ[x, y] = False
    assert tier.list_valid(sim.pos, sim.occ, *held, 0.0625) is False


@needs_native
def test_float32_wafer_declines_with_unchanged_digests():
    """Every wafer kernel native.c cannot read in float32 goes to numpy:
    the run ends on the numpy tier's digests.  (A RunSpec has no dtype,
    so the machines are built directly.)"""
    from repro.core.wse_md import WseMd
    from repro.potentials.elements import make_element_potential
    from tests.conftest import small_slab_state

    shas = []
    for backend in ("numpy", "native"):
        kernels.set_backend(backend)
        before = native_backend.declined
        sim = WseMd(small_slab_state(reps=(6, 6, 2), temperature=600.0),
                    make_element_potential("Ta"), dtype=np.float32,
                    swap_interval=4, force_symmetry=True)
        sim.step(12)
        state = sim.gather_state()
        shas.append(hashlib.sha256(state.positions.tobytes()
                                   + state.velocities.tobytes()).hexdigest())
        if backend == "native":
            # per step at least: the density sweep, the force sweep and
            # the leap-frog (the list kernels on top)
            assert native_backend.declined - before >= 12 * 3
    assert shas[0] == shas[1]


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
        from repro.obs import metrics

        assert kernels.set_backend("native") == "native"
        assert fresh_registry.compile_s > 0.0  # private cache: cold
        gauge = metrics().gauge("kernels.native.compile_s")
        assert gauge.value == fresh_registry.compile_s
