"""The native tier: bitwise against the numpy bodies, and its build path.

The equivalence proof is PR 17's Hypothesis harness
(``test_numpy_floor.py``) pointed at native-vs-numpy for the seven
kernels it already sweeps, plus the same treatment for the wafer's two
chunk kernels: every output ``np.array_equal`` with equal dtype and
shape, and the same exception *type* where numpy raises (out-of-range
index -> ``IndexError``, coincident atoms -> ``FloatingPointError``).
Then whole trajectories: reference and wafer runs end on the same
SHA-256 under ``native`` and ``numpy``.

The build-path tests run against a private cache directory
(``XDG_CACHE_HOME``), in a child interpreter wherever the registry's
process state would otherwise leak between cases.
"""

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


# -- the seven pair kernels: PR 17's sweep, native vs numpy -------------------


TestNativeAgainstNumpy = needs_native(
    floor.bitwise_sweep((native_backend, numpy_backend))
)


@needs_native
class TestPairKernels:
    sides = (native_backend, numpy_backend)

    @given(seed=st.integers(0, 10_000), n=floor.SIZES,
           negative=st.booleans(), n_bins=st.sampled_from([1, 5, 40]))
    @settings(max_examples=60, deadline=None)
    def test_accumulators(self, seed, n, negative, n_bins):
        rng = np.random.default_rng(seed)
        idx, _ = floor._indices(rng, n_bins, n, negative=negative)
        floor.assert_same_outcome(
            "accumulate_scalar", idx, rng.normal(size=n), n_bins,
            sides=self.sides,
        )
        floor.assert_same_outcome(
            "accumulate_vec3", idx, rng.normal(size=(n, 3)), n_bins,
            sides=self.sides,
        )

    def test_clean_input_runs_in_c(self, no_declines):
        positions, lengths, i, j, rho, phi, types, rng = floor._pair_inputs()
        periodic = np.array([True, False, True])
        ki, kj, rij, r = native_backend.neighbor_prefilter(
            positions, i, j, lengths, periodic, 4.0, inclusive=False,
            compute_r=True,
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
                inclusive=True, compute_r=True, sides=self.sides,
            )
        assert native_backend.declined == before + 3


# -- the wafer's chunk kernels -------------------------------------------------


def _wafer_case(seed, *, n_tiles, n_off, n_members, box, bad_index=False,
                coincident=False):
    """One chunk of listed pairs on a random cloud: per offset, unique
    center tiles and unique source tiles, as the list build guarantees."""
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
        record = backend.density_chunk(
            pos, listed, lengths, periodic, cutoff, typ, rho.bank(),
            phi_index, symmetry, rho_flat, int_flat,
        )
        backend.force_chunk(
            record, f_der, phi.bank(), symmetry, force, e_flat
        )
    except Exception as exc:
        return type(exc)
    out = [*record, rho_flat, int_flat, force]
    return out + [e_flat] if energy else out


@needs_native
class TestChunkKernels:
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
            native_backend.density_chunk(
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
    monkeypatch.setattr(kernels, "_warned_fallbacks", set())
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
