"""Cross-backend kernel equivalence: every backend vs the numpy oracle.

Property-style random inputs, parametrized over every backend the host
can import x every function of the widened kernel interface.  The gate
is 1e-9 relative everywhere; the scatter-add accumulators are
additionally asserted **bitwise**, because their scalar operation
sequence provably matches across backends (no reassociation, no FMA
contraction — see the numba module docstring).

On hosts without numba the suite still runs over numpy + parallel (the
parallel module re-exports the numpy kernels, so it doubles as a check
that the re-export list stays complete); CI's numba leg runs the same
file with the JIT tier installed.
"""

import numpy as np
import pytest

from repro.kernels import (
    DEFAULT_BACKEND,
    KERNEL_FUNCTIONS,
    active_backend,
    available_backends,
    set_backend,
    warmup_backend,
)
from repro.potentials.spline import SplineGroup, UniformCubicSpline

#: Functions whose outputs must match numpy bit for bit.
BITWISE = ("accumulate_scalar", "accumulate_vec3")

SEEDS = (0, 1, 2, 3)


@pytest.fixture(autouse=True)
def restore_backend():
    yield
    set_backend(DEFAULT_BACKEND)


def _bank(rng, n_members, *, clamp_low=False, zero_above=True):
    """A packed spline bank with randomized knots per member."""
    members = []
    for m in range(n_members):
        y = rng.normal(size=int(rng.integers(6, 14)))
        members.append(
            UniformCubicSpline(
                0.4 + 0.05 * m,
                0.25 + 0.05 * m,
                y,
                extrapolate_low="clamp" if clamp_low else "linear",
                zero_above=zero_above,
            )
        )
    return SplineGroup(members).bank()


def _spline_eval_inputs(rng):
    n_seg = 11
    coeffs = rng.normal(size=(n_seg, 4))
    k = rng.integers(0, n_seg, size=150)
    dx = rng.uniform(0.0, 0.4, size=150)
    return (coeffs, k, dx), {}


def _accumulate_scalar_inputs(rng):
    idx = rng.integers(0, 12, size=400)
    w = rng.normal(size=400)
    return (idx, w, 12), {}


def _accumulate_vec3_inputs(rng):
    idx = rng.integers(0, 9, size=250)
    vec = rng.normal(size=(250, 3))
    return (idx, vec, 9), {}


def _grouped_spline_eval_inputs(rng):
    n_members = int(rng.integers(1, 4))
    bank = _bank(
        rng,
        n_members,
        clamp_low=bool(rng.integers(0, 2)),
        zero_above=bool(rng.integers(0, 2)),
    )
    # below the first knot, interior and beyond the last knot all in
    # one batch, so every boundary branch is exercised
    x = rng.uniform(0.0, 5.0, size=300)
    member = rng.integers(0, n_members, size=300)
    return (bank, x, member), {}


def _neighbor_prefilter_inputs(rng):
    n = 30
    lengths = rng.uniform(4.0, 8.0, size=3)
    positions = rng.uniform(-1.0, 1.0, size=(n, 3)) * lengths * 0.8
    i, j = np.triu_indices(n, k=1)
    sel = rng.random(len(i)) < 0.6
    periodic = rng.integers(0, 2, size=3).astype(bool)
    return (
        positions,
        i[sel],
        j[sel],
        lengths,
        periodic,
        float(rng.uniform(2.0, 4.0)),
    ), {
        "inclusive": bool(rng.integers(0, 2)),
        "compute_r": bool(rng.integers(0, 2)),
    }


def _half_pairs(rng, n_atoms, p):
    i = rng.integers(0, n_atoms - 1, size=p)
    j = (i + 1 + rng.integers(0, n_atoms - 1, size=p)) % n_atoms
    lo = np.minimum(i, j)
    hi = np.maximum(i, j)
    return lo, hi


def _fused_density_pass_inputs(rng):
    n_atoms = 25
    p = 180
    n_members = int(rng.integers(1, 4))
    bank = _bank(rng, n_members)
    i, j = _half_pairs(rng, n_atoms, p)
    r = rng.uniform(0.2, 4.5, size=p)
    if n_members == 1:
        ti = tj = np.empty(0, dtype=np.int64)  # ignored by contract
    else:
        types = rng.integers(0, n_members, size=n_atoms)
        ti, tj = types[i], types[j]
    return (i, j, r, ti, tj, bank, n_atoms), {}


def _fused_force_pass_inputs(rng):
    n_atoms = 25
    p = 180
    n_members = int(rng.integers(1, 4))
    bank = _bank(rng, n_members)
    i, j = _half_pairs(rng, n_atoms, p)
    rij = rng.normal(size=(p, 3)) + 0.5  # bounded away from zero length
    r = np.sqrt(np.einsum("ij,ij->i", rij, rij))
    f_der = rng.normal(size=n_atoms)
    d_ji = rng.normal(size=p)
    d_ij = rng.normal(size=p)
    member = rng.integers(0, n_members, size=p)
    return (i, j, rij, r, f_der, d_ji, d_ij, bank, member, n_atoms), {}


_INPUTS = {
    "spline_eval": _spline_eval_inputs,
    "accumulate_scalar": _accumulate_scalar_inputs,
    "accumulate_vec3": _accumulate_vec3_inputs,
    "grouped_spline_eval": _grouped_spline_eval_inputs,
    "neighbor_prefilter": _neighbor_prefilter_inputs,
    "fused_density_pass": _fused_density_pass_inputs,
    "fused_force_pass": _fused_force_pass_inputs,
}


def _call(fn_name, args, kwargs):
    """Invoke on the active backend; normalize output to a tuple."""
    fn = getattr(active_backend(), fn_name)
    out = fn(*args, **kwargs)
    return out if isinstance(out, tuple) else (out,)


def test_generators_cover_interface():
    assert set(_INPUTS) == set(KERNEL_FUNCTIONS)


class TestKernelEquivalence:
    @pytest.fixture(params=sorted(set(available_backends())))
    def backend_name(self, request):
        return request.param

    @pytest.mark.parametrize("fn_name", sorted(KERNEL_FUNCTIONS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_numpy(self, backend_name, fn_name, seed):
        args, kwargs = _INPUTS[fn_name](np.random.default_rng(seed))
        set_backend("numpy")
        expect = _call(fn_name, args, kwargs)
        set_backend(backend_name)
        warmup_backend()
        got = _call(fn_name, args, kwargs)
        assert len(got) == len(expect)
        for g, e in zip(got, expect):
            g = np.asarray(g)
            e = np.asarray(e)
            assert g.shape == e.shape
            assert g.dtype == e.dtype
            if fn_name in BITWISE:
                assert np.array_equal(g, e), (
                    f"{backend_name}.{fn_name} not bitwise vs numpy"
                )
            else:
                assert np.allclose(g, e, rtol=1e-9, atol=1e-12), (
                    f"{backend_name}.{fn_name} off by "
                    f"{np.max(np.abs(g - e))}"
                )

    def test_fused_force_pass_raises_on_coincident_atoms(self, backend_name):
        """Every backend surfaces r=0 as FloatingPointError, like the
        serial numpy pass (the pair-distance cap depends on it)."""
        rng = np.random.default_rng(7)
        args, kwargs = _fused_force_pass_inputs(rng)
        i, j, rij, r, *rest = args
        r = r.copy()
        r[3] = 0.0
        set_backend(backend_name)
        warmup_backend()
        with np.errstate(invalid="raise", divide="raise"):
            with pytest.raises(FloatingPointError):
                _call(
                    "fused_force_pass", (i, j, rij, r, *rest), kwargs
                )


class TestEamEquivalence:
    """Whole-potential agreement on the paper's Ta/Cu/W tables."""

    @pytest.fixture(params=sorted(set(available_backends())))
    def backend_name(self, request):
        return request.param

    @pytest.mark.parametrize("element", ["Ta", "Cu", "W"])
    def test_forces_and_energy_match_numpy(self, backend_name, element):
        from repro.runtime import RunSpec, build_engine

        def _run(backend):
            set_backend(backend)
            warmup_backend()
            engine = build_engine(
                RunSpec(
                    element=element,
                    reps=(3, 3, 2),
                    steps=3,
                    temperature=120.0,
                    engine="reference",
                )
            )
            try:
                engine.step(3)
                return engine.total_energy(), engine.state.positions.copy()
            finally:
                engine.close()

        e_ref, pos_ref = _run("numpy")
        e_got, pos_got = _run(backend_name)
        rel = abs(e_got - e_ref) / max(abs(e_ref), 1e-300)
        assert rel <= 1e-9
        assert np.allclose(pos_got, pos_ref, rtol=1e-9, atol=1e-9)
