"""Backend registry + numpy kernel correctness tests."""

import os

import numpy as np
import pytest

import repro.kernels as kernels
from repro import obs
from repro.kernels import (
    DEFAULT_BACKEND,
    FALLBACK_BACKEND,
    KERNEL_FUNCTIONS,
    active_backend,
    active_backend_name,
    available_backends,
    backend_status,
    register_backend,
    set_backend,
)
from repro.kernels import numpy_backend


@pytest.fixture(autouse=True)
def restore_backend():
    """Every test leaves the process-wide registry on the default tier."""
    yield
    set_backend(DEFAULT_BACKEND)


class TestRegistry:
    def test_numpy_always_available(self):
        assert "numpy" in available_backends()

    def test_default_active(self):
        """``native`` where it loads, ``numpy`` (the explicit control,
        always loadable) otherwise."""
        assert (DEFAULT_BACKEND, FALLBACK_BACKEND) == ("native", "numpy")
        status = backend_status()["native"]
        name = set_backend(DEFAULT_BACKEND)
        assert name == ("native" if status == "ok" else "numpy")
        assert active_backend_name() == name
        assert set_backend("numpy") == "numpy"
        assert active_backend() is numpy_backend

    def test_unknown_backend_falls_back_with_warning(self):
        with pytest.warns(RuntimeWarning, match="falling back"):
            name = set_backend("no-such-backend")
        assert name == "numpy"
        assert active_backend_name() == "numpy"

    def test_native_loads_or_degrades_gracefully(self):
        # with or without a C compiler this must activate *some*
        # working backend without raising, and say which
        obs.reset_warnings()
        if "native" in available_backends():
            assert set_backend("native") == "native"
            assert backend_status()["native"] == "ok"
        else:
            with pytest.warns(RuntimeWarning, match="falling back"):
                assert set_backend("native") == "numpy"
            assert backend_status()["native"] != "ok"

    def test_numpy_never_loads_or_compiles_anything(self):
        """``backend="numpy"`` is the ledger's baseline: selecting it
        must not touch the native tier (child interpreter: this one
        has long since loaded it)."""
        import subprocess
        import sys

        code = (
            "import sys, repro.runtime.runner, repro.kernels as k\n"
            "from repro.runtime import RunSpec, build_engine\n"
            "e = build_engine(RunSpec(element='Ta', reps=(3, 3, 2),"
            " engine='wse', backend='numpy')); e.step(1)\n"
            "assert k.active_backend_name() == 'numpy'\n"
            "assert 'repro.kernels.native_backend' not in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={"PYTHONPATH": ":".join(sys.path), "PATH": ""})

    def test_first_use_resolves_the_default_tier(self, monkeypatch):
        """No environment variable picks a tier: ``set_backend`` (or a
        spec's ``backend``) is the only selector, else the default."""
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        monkeypatch.setattr(kernels, "_active", None)
        monkeypatch.setattr(kernels, "_active_name", None)
        expected = "native" if backend_status()["native"] == "ok" else "numpy"
        assert active_backend_name() == expected

    def test_cpu_count_lives_with_the_kernels(self):
        """The native sweeps and the sharded engine size themselves by
        one ``usable_cpus``, which the kernels layer owns: loading a
        tier never imports ``repro.parallel``, which re-exports it."""
        import subprocess
        import sys

        code = (
            "import sys, repro.kernels as k\n"
            "k.active_backend()\n"
            "assert not [m for m in sys.modules\n"
            "            if m.startswith('repro.parallel')]\n"
            "import repro.parallel as p, repro.parallel.transport as t\n"
            "assert p.usable_cpus is t.usable_cpus is k.usable_cpus\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": ":".join(sys.path)})

    def test_registry_holds_kernel_tiers_only(self):
        """Sharding is an engine option (``Simulation(workers=...)``,
        ``RunSpec(backend="parallel")``), not a registered backend."""
        assert set(available_backends()) <= {"numpy", "native"}
        assert "parallel" not in backend_status()
        assert not hasattr(kernels, "default_tier")

    def test_incomplete_backend_rejected(self):
        class Partial:
            def grouped_spline_eval(self):  # pragma: no cover - never called
                pass

        register_backend("partial", lambda: Partial())
        try:
            with pytest.raises(TypeError, match="missing kernels"):
                set_backend("partial")
        finally:
            kernels._loaders.pop("partial", None)

    def test_status_reports_ok_for_numpy(self):
        assert backend_status()["numpy"] == "ok"

    def test_interface_is_one_tuple_every_name_on_numpy(self):
        """No CORE/FUSED split: one list, and the numpy tier (what the
        ledger builds its traced backend from) provides all of it."""
        assert len(set(KERNEL_FUNCTIONS)) == len(KERNEL_FUNCTIONS) == 7
        assert "spline_eval" not in KERNEL_FUNCTIONS  # one spline evaluator
        # the reference engine's cell sweep is a kernel too
        assert "cell_pairs" in KERNEL_FUNCTIONS
        # the whole wafer step is in the registry, as one kernel, and
        # so are the reference engine's steps on a held list
        assert "wafer_step" in KERNEL_FUNCTIONS
        assert "md_step" in KERNEL_FUNCTIONS
        assert not {"wafer_list", "wafer_density", "wafer_force",
                    "list_valid", "wafer_integrate",
                    "wafer_cycles"} & set(KERNEL_FUNCTIONS)
        for fn in KERNEL_FUNCTIONS:
            assert callable(getattr(numpy_backend, fn))
        assert not hasattr(kernels, "CORE_KERNEL_FUNCTIONS")
        assert not hasattr(kernels, "FUSED_KERNEL_FUNCTIONS")

    def test_partial_backend_is_rejected_not_negotiated(self):
        """A backend with only some kernels used to be filled in from
        numpy per function; with one tier list it is malformed."""

        class SplinesOnly:
            grouped_spline_eval = staticmethod(
                numpy_backend.grouped_spline_eval)

        register_backend("splines-only-probe", lambda: SplinesOnly())
        try:
            with pytest.raises(TypeError, match="fused_density_pass"):
                set_backend("splines-only-probe")
        finally:
            kernels._loaders.pop("splines-only-probe", None)

    def test_load_failure_is_paid_for_once(self):
        """A backend whose loader raises ImportError (failed compile,
        failed probe) is not retried on every ``set_backend``."""
        calls = []

        def loader():
            calls.append(1)
            raise ImportError("probe says no")

        register_backend("flaky-probe", loader)
        try:
            with pytest.warns(RuntimeWarning, match="probe says no"):
                assert set_backend("flaky-probe") == "numpy"
            assert set_backend("flaky-probe") == "numpy"
            assert backend_status()["flaky-probe"] == "probe says no"
            assert calls == [1]
        finally:
            kernels._loaders.pop("flaky-probe", None)
            kernels._failures.pop("flaky-probe", None)
            obs._warned.discard("flaky-probe")

    def test_fallback_warns_once_per_name(self):
        # a campaign calling set_backend per run must not spam warnings;
        # the name here is unique to this test so the first call is
        # guaranteed to be this process's first warning for it
        import warnings as _warnings

        with pytest.warns(RuntimeWarning, match="falling back"):
            assert set_backend("warn-dedupe-probe") == "numpy"
        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always")
            assert set_backend("warn-dedupe-probe") == "numpy"
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] \
            == []


def _one_member_bank_inputs(seed, n_points=200, n_knots=18):
    """A single spline's bank and points inside it, with the segment
    and offset each point lands on."""
    from repro.potentials.spline import SplineGroup, UniformCubicSpline

    rng = np.random.default_rng(seed)
    spline = UniformCubicSpline(0.0, 0.5, rng.normal(size=n_knots),
                                zero_above=False)
    k = rng.integers(0, n_knots - 1, size=n_points)
    dx = rng.uniform(0.0, 0.5, size=n_points)
    return SplineGroup([spline]).bank(), spline.coeffs, k, dx


class TestKernelContracts:
    """Every available backend must agree with the literal definition."""

    @pytest.fixture(params=sorted(set(available_backends())))
    def backend(self, request):
        return set_backend(request.param) and active_backend()

    def test_interface_complete(self, backend):
        for fn in KERNEL_FUNCTIONS:
            assert callable(getattr(backend, fn))

    def test_one_member_bank_matches_horner(self, backend):
        bank, coeffs, k, dx = _one_member_bank_inputs(0)
        val, der = backend.grouped_spline_eval(bank, k * 0.5 + dx, 0)
        c = coeffs[k]
        expect_v = c[:, 0] + dx * (c[:, 1] + dx * (c[:, 2] + dx * c[:, 3]))
        expect_d = c[:, 1] + 2.0 * c[:, 2] * dx + 3.0 * c[:, 3] * dx * dx
        assert np.allclose(val, expect_v, rtol=1e-14, atol=1e-14)
        assert np.allclose(der, expect_d, rtol=1e-13, atol=1e-13)

    def test_one_member_bank_empty(self, backend):
        bank, *_ = _one_member_bank_inputs(1)
        val, der = backend.grouped_spline_eval(bank, np.array([]), 0)
        assert len(val) == 0 and len(der) == 0

    def _prefilter_inputs(self, seed=5):
        rng = np.random.default_rng(seed)
        n = 40
        positions = rng.uniform(0.0, 6.0, size=(n, 3))
        i, j = np.triu_indices(n, k=1)
        sel = rng.random(len(i)) < 0.5
        lengths = np.ones(3)
        periodic = np.zeros(3, dtype=bool)
        return positions, i[sel], j[sel], lengths, periodic

    def test_neighbor_prefilter_assume_inside_is_bitwise(self, backend):
        """When the caller's all-inside proof holds, the fast path is
        a pure work cut: identical indices, geometry and distances,
        bit for bit."""
        positions, i, j, lengths, periodic = self._prefilter_inputs()
        d = positions[j] - positions[i]
        rmax = float(np.sqrt((d * d).sum(axis=1)).max()) * 1.001
        plain = backend.neighbor_prefilter(
            positions, i, j, lengths, periodic, rmax, inclusive=False,
        )
        fast = backend.neighbor_prefilter(
            positions, i, j, lengths, periodic, rmax, inclusive=False,
            assume_inside=True,
        )
        for a, b in zip(plain, fast):
            assert np.array_equal(a, b)

    def test_neighbor_prefilter_assume_inside_trusts_the_caller(
        self, backend
    ):
        """The proof is load-bearing: with the flag set the predicate
        is never evaluated, so a candidate beyond rmax is emitted
        anyway.  Pins the contract so no backend quietly re-filters."""
        positions, i, j, lengths, periodic = self._prefilter_inputs()
        d = positions[j] - positions[i]
        r = np.sqrt((d * d).sum(axis=1))
        rmax = float(np.median(r))  # half the candidates are outside
        out = backend.neighbor_prefilter(
            positions, i, j, lengths, periodic, rmax,
            inclusive=False, assume_inside=True,
        )
        assert len(out[0]) == len(i)
        assert np.any(out[3] >= rmax)

    # The scatter-add the two fused passes share: every pair's value
    # lands on both of its atoms, an atom in no pair stays exactly 0.

    def _pair_inputs(self, seed, n_atoms=10, n_pairs=300):
        from repro.potentials.spline import SplineGroup, UniformCubicSpline

        rng = np.random.default_rng(seed)
        i = rng.integers(0, n_atoms, size=n_pairs)
        j = rng.integers(0, n_atoms, size=n_pairs)
        rij = rng.normal(size=(n_pairs, 3))
        r = np.sqrt(np.einsum("ij,ij->i", rij, rij))
        bank = SplineGroup([UniformCubicSpline(
            0.0, 0.25, rng.normal(size=12), zero_above=True,
        )]).bank()
        types = np.zeros(n_atoms, dtype=np.int64)
        return rng, i, j, rij, r, bank, types

    def test_fused_density_pass_is_scatter_add(self, backend):
        _, i, j, _, r, bank, types = self._pair_inputs(1)
        rho_bar, _, _ = backend.fused_density_pass(
            i, j, r, types[i], types[j], bank, 10)
        v, _ = backend.grouped_spline_eval(bank, r, 0)
        expect = np.zeros(10)
        np.add.at(expect, i, v)
        np.add.at(expect, j, v)
        assert rho_bar.shape == (10,)
        assert np.allclose(rho_bar, expect, atol=1e-12)

    def test_fused_density_pass_leaves_untouched_atoms_zero(self, backend):
        _, _, _, _, _, bank, types = self._pair_inputs(2)
        i, j, r = np.array([2]), np.array([4]), np.array([1.0])
        rho_bar, _, _ = backend.fused_density_pass(
            i, j, r, types[i], types[j], bank, 6)
        v, _ = backend.grouped_spline_eval(bank, r, 0)
        assert v[0] != 0.0
        assert rho_bar.tolist() == [0.0, 0.0, v[0], 0.0, v[0], 0.0]

    def test_fused_force_pass_is_scatter_add(self, backend):
        rng, i, j, rij, r, bank, _ = self._pair_inputs(3)
        f_der = rng.normal(size=10)
        d_ji, d_ij = rng.normal(size=len(r)), rng.normal(size=len(r))
        e_pair, forces = backend.fused_force_pass(
            i, j, rij, r, f_der, d_ji, d_ij, bank, 0, 10)
        phi_v, phi_d = backend.grouped_spline_eval(bank, r, 0)
        s = f_der[i] * d_ji + f_der[j] * d_ij + phi_d
        pull = s[:, None] * rij / r[:, None]
        expect_f = np.zeros((10, 3))
        np.add.at(expect_f, i, pull)
        np.subtract.at(expect_f, j, pull)
        expect_e = np.zeros(10)
        np.add.at(expect_e, i, 0.5 * phi_v)
        np.add.at(expect_e, j, 0.5 * phi_v)
        assert (e_pair.shape, forces.shape) == ((10,), (10, 3))
        assert np.allclose(e_pair, expect_e, atol=1e-12)
        assert np.allclose(forces, expect_f, atol=1e-12)

    def test_fused_passes_empty(self, backend):
        _, _, _, _, _, bank, types = self._pair_inputs(4)
        empty_i = np.array([], dtype=np.int64)
        empty_r = np.array([])
        rho_bar, d_ji, d_ij = backend.fused_density_pass(
            empty_i, empty_i, empty_r, empty_i, empty_i, bank, 4)
        assert rho_bar.shape == (4,) and np.all(rho_bar == 0.0)
        e_pair, forces = backend.fused_force_pass(
            empty_i, empty_i, np.zeros((0, 3)), empty_r, np.zeros(4),
            d_ji, d_ij, bank, 0, 4)
        assert e_pair.shape == (4,) and np.all(e_pair == 0.0)
        assert forces.shape == (4, 3) and np.all(forces == 0.0)
