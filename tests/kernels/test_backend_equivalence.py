"""Cross-backend kernel equivalence: every backend vs the numpy oracle.

Property-style random inputs, parametrized over every backend the host
can load x every function of the kernel interface.  The gate is
**bitwise** everywhere: the native tier performs numpy's IEEE
operations in numpy's order (see ``native.c``).  ``test_native.py`` is
the deep sweep (edge abscissae, malformed input, exception parity);
this file is the flat matrix over whatever ``available_backends()``
reports.  Sharded == serial is ``tests/parallel``'s, not a tier's.
"""

import numpy as np
import pytest

from repro.core.wse_md import FAR
from repro.kernels import (
    DEFAULT_BACKEND,
    KERNEL_FUNCTIONS,
    active_backend,
    available_backends,
    set_backend,
)
from repro.potentials.spline import SplineGroup, UniformCubicSpline

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


def _wafer_listed(rng, n_members):
    """Three offsets of listed wafer pairs, tiles unique per offset."""
    n_tiles = 40
    lengths = rng.uniform(4.0, 7.0, size=3)
    pos = rng.uniform(0.0, 1.0, size=(n_tiles, 3)) * lengths
    ctr = np.concatenate(
        [np.sort(rng.permutation(n_tiles)[:25]) for _ in range(3)]
    ).astype(np.int32)
    src = np.concatenate(
        [rng.permutation(n_tiles)[:25] for _ in range(3)]
    ).astype(np.int32)
    starts = np.array([0, 25, 50, 75], dtype=np.int32)
    typ = rng.integers(0, n_members, size=n_tiles)
    phi_index = np.zeros((n_members, n_members), dtype=np.int64)
    phi_index[np.triu_indices(n_members)] = np.arange(
        n_members * (n_members + 1) // 2
    )
    phi_index = np.maximum(phi_index, phi_index.T)
    periodic = rng.integers(0, 2, size=3).astype(bool)
    return pos, (starts, ctr, src), lengths, periodic, typ, phi_index


def _wafer_density_inputs(rng):
    n_members = int(rng.integers(1, 3))
    pos, listed, lengths, periodic, typ, phi_index = _wafer_listed(
        rng, n_members
    )
    rho_flat = np.zeros(len(pos))
    int_flat = np.zeros(len(pos), dtype=np.int64)
    return (
        pos, listed, lengths, periodic, 3.0, typ, _bank(rng, n_members),
        phi_index, bool(rng.integers(0, 2)), rho_flat, int_flat,
    ), {}, (rho_flat, int_flat)


def _wafer_force_inputs(rng):
    from repro.kernels import numpy_backend

    n_members = int(rng.integers(1, 3))
    pos, listed, lengths, periodic, typ, phi_index = _wafer_listed(
        rng, n_members
    )
    symmetry = bool(rng.integers(0, 2))
    record = numpy_backend.wafer_density(
        pos, listed, lengths, periodic, 3.0, typ, _bank(rng, n_members),
        phi_index, symmetry, np.zeros(len(pos)),
        np.zeros(len(pos), dtype=np.int64),
    )
    force, e_flat = np.zeros((len(pos), 3)), np.zeros(len(pos))
    phi = _bank(rng, n_members * (n_members + 1) // 2)
    return (
        record, rng.normal(size=len(pos)), phi, symmetry, force, e_flat,
    ), {}, (force, e_flat)


def _wafer_grid(rng):
    """A holed wafer: ``(nx, ny, 3)`` positions, empty tiles at the far
    sentinel, and the occupancy plane."""
    nx, ny = rng.integers(3, 10, size=2)
    occ = rng.random((nx, ny)) < 0.8
    pos = np.full((nx, ny, 3), FAR)
    pos[occ] = rng.uniform(0.0, 6.0, size=(occ.sum(), 3))
    return pos, occ


def _list_valid_inputs(rng):
    pos, occ = _wafer_grid(rng)
    step = np.where(occ[..., None], rng.normal(0.0, 0.1, pos.shape), 0.0)
    bound2 = float(rng.uniform(0.0, 0.12))
    return (pos + step, occ, pos, occ.copy(), bound2), {}


def _wafer_list_inputs(rng):
    pos, occ = _wafer_grid(rng)
    offsets = rng.integers(-4, 5, size=(int(rng.integers(1, 6)), 2))
    periodic = rng.integers(0, 2, size=3).astype(bool)
    n_cand = np.zeros(occ.shape, dtype=np.int32)
    return (
        pos, occ, offsets, np.full(3, 6.0), periodic,
        float(rng.uniform(1.0, 12.0)), n_cand,
    ), {}, (n_cand,)


def _wafer_integrate_inputs(rng):
    pos, occ = _wafer_grid(rng)
    pos, occ = pos.reshape(-1, 3), occ.ravel()
    vel = rng.normal(size=pos.shape) * occ[:, None]
    typ = rng.integers(0, 2, size=len(occ)) * occ
    return (
        pos, vel, rng.normal(size=pos.shape), occ, typ,
        np.array([180.9, 183.8]), 0.002,
    ), {}, (pos, vel)


def _wafer_cycles_inputs(rng):
    occ = rng.random(60) < 0.8
    n_cand, n_int = rng.integers(0, 300, size=(2, 60))
    jitter = (rng.normal(size=60), 1e-3) if rng.integers(0, 2) else ()
    return (occ, n_cand, n_int, 301.5, 24.2, 64.9, 521.8, *jitter), {}


_INPUTS = {
    "grouped_spline_eval": _grouped_spline_eval_inputs,
    "neighbor_prefilter": _neighbor_prefilter_inputs,
    "fused_density_pass": _fused_density_pass_inputs,
    "fused_force_pass": _fused_force_pass_inputs,
    "list_valid": _list_valid_inputs,
    "wafer_list": _wafer_list_inputs,
    "wafer_density": _wafer_density_inputs,
    "wafer_force": _wafer_force_inputs,
    "wafer_integrate": _wafer_integrate_inputs,
    "wafer_cycles": _wafer_cycles_inputs,
}


def _call(fn_name, seed):
    """Invoke on the active backend with freshly generated inputs (the
    wafer kernels accumulate into or update their arguments); the
    outputs plus whatever was written into, as one tuple."""
    args, kwargs, *inplace = _INPUTS[fn_name](np.random.default_rng(seed))
    out = getattr(active_backend(), fn_name)(*args, **kwargs)
    if out is None:
        out = ()
    out = out if isinstance(out, tuple) else (out,)
    return (*out, *(inplace[0] if inplace else ()))


def test_generators_cover_interface():
    assert set(_INPUTS) == set(KERNEL_FUNCTIONS)


class TestKernelEquivalence:
    @pytest.fixture(params=sorted(set(available_backends())))
    def backend_name(self, request):
        return request.param

    @pytest.mark.parametrize("fn_name", sorted(KERNEL_FUNCTIONS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_numpy(self, backend_name, fn_name, seed):
        set_backend("numpy")
        expect = _call(fn_name, seed)
        set_backend(backend_name)
        got = _call(fn_name, seed)
        assert len(got) == len(expect)
        for g, e in zip(got, expect):
            g = np.asarray(g)
            e = np.asarray(e)
            assert g.shape == e.shape
            assert g.dtype == e.dtype
            assert np.array_equal(g, e), (
                f"{backend_name}.{fn_name} not bitwise vs numpy"
            )

    def test_fused_force_pass_raises_on_coincident_atoms(self, backend_name):
        """Every backend surfaces r=0 as FloatingPointError, like the
        serial numpy pass (the pair-distance cap depends on it)."""
        rng = np.random.default_rng(7)
        (i, j, rij, r, *rest), kwargs = _fused_force_pass_inputs(rng)
        r = r.copy()
        r[3] = 0.0
        set_backend(backend_name)
        with np.errstate(invalid="raise", divide="raise"):
            with pytest.raises(FloatingPointError):
                active_backend().fused_force_pass(i, j, rij, r, *rest, **kwargs)


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
        assert e_got == e_ref
        assert np.array_equal(pos_got, pos_ref)
