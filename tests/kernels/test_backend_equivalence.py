"""Cross-backend kernel equivalence: every backend vs the numpy oracle.

Property-style random inputs, parametrized over every backend the host
can load x every function of the kernel interface.  The gate is
**bitwise** everywhere: the native tier performs numpy's IEEE
operations in numpy's order (see ``native.c``).  ``test_native.py`` is
the deep sweep (edge abscissae, malformed input, exception parity);
this file is the flat matrix over whatever ``available_backends()``
reports.  Sharded == serial is ``tests/parallel``'s, not a tier's.
"""

import functools

import numpy as np
import pytest

from repro.core.wse_md import FAR
from repro.kernels.native_backend import md_outputs, step_outputs
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


def _prefilter_chunk_inputs(rng, p, form, box):
    """``p`` candidate rows (a chunk of native.c's passes is 256) in a
    periodic or open box, cut strictly or inclusively at the ``r`` of a
    middle row, or under ``assume_inside`` past every row (as its
    caller must prove)."""
    from repro.kernels.numpy_backend import minimum_image

    n = 60
    lengths = rng.uniform(5.0, 8.0, size=3)
    positions = rng.uniform(0.0, 1.0, size=(n, 3)) * lengths
    i = rng.integers(0, n - 1, size=p)
    j = i + 1 + rng.integers(0, n - 1 - i)
    periodic = np.full(3, box == "periodic")
    rij = positions[j] - positions[i]
    minimum_image(rij, lengths, periodic)
    r = np.sort(np.sqrt(np.einsum("ij,ij->i", rij, rij)))
    rmax = float(r[p // 2] if form != "assume_inside" else r[-1] + 1.0)
    return (positions, i, j, lengths, periodic, rmax), {
        "inclusive": form == "inclusive",
        "assume_inside": form == "assume_inside",
    }


def _cell_pairs_inputs(rng):
    """A built cell list's sweep over a cloud in a random box, partly
    outside it along periodic dims."""
    from repro.md.boundary import Box
    from repro.md.cell_list import CellList

    n, reach = 120, float(rng.uniform(1.5, 3.0))
    periodic = rng.integers(0, 2, size=3).astype(bool)
    lengths = reach * rng.uniform(3.2, 6.0, size=3)
    positions = rng.uniform(0.0, 1.0, size=(n, 3)) * lengths
    positions += rng.integers(-1, 2, size=(n, 3)) * lengths * periodic
    cells = CellList(Box(lengths, periodic=periodic, origin=np.zeros(3)), reach)
    cells.build(positions)
    return cells._sweep_args(reach), {}


def _half_pairs(rng, n_atoms, p):
    i = rng.integers(0, n_atoms - 1, size=p)
    j = (i + 1 + rng.integers(0, n_atoms - 1, size=p)) % n_atoms
    lo = np.minimum(i, j)
    hi = np.maximum(i, j)
    return lo, hi


def _fused_density_pass_inputs(rng, p=180, n_members=None):
    n_atoms = 25
    if n_members is None:
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


def _fused_force_pass_inputs(rng, p=180, n_members=None, member="rows"):
    n_atoms = 25
    if n_members is None:
        n_members = int(rng.integers(1, 4))
    bank = _bank(rng, n_members)
    i, j = _half_pairs(rng, n_atoms, p)
    rij = rng.normal(size=(p, 3)) + 0.5  # bounded away from zero length
    r = np.sqrt(np.einsum("ij,ij->i", rij, rij))
    f_der = rng.normal(size=n_atoms)
    d_ji = rng.normal(size=p)
    d_ij = rng.normal(size=p)
    member = (rng.integers(0, n_members, size=p) if member == "rows"
              else int(rng.integers(0, n_members)))
    return (i, j, rij, r, f_der, d_ji, d_ij, bank, member, n_atoms), {}


def _wafer_grid(rng):
    """A holed wafer: ``(nx, ny, 3)`` positions, empty tiles at the far
    sentinel, and the occupancy plane."""
    nx, ny = rng.integers(3, 10, size=2)
    occ = rng.random((nx, ny)) < 0.8
    pos = np.full((nx, ny, 3), FAR)
    pos[occ] = rng.uniform(0.0, 6.0, size=(occ.sum(), 3))
    return pos, occ


def _wafer_banks(rng, n_types):
    """``(rho, embed, phi)`` banks for ``n_types`` atom types, and the
    pair-table index."""
    n_phi = n_types * (n_types + 1) // 2
    banks = (_bank(rng, n_types, clamp_low=True),
             _bank(rng, n_types, clamp_low=True), _bank(rng, n_phi))
    phi_index = np.zeros((n_types, n_types), dtype=np.int64)
    phi_index[np.triu_indices(n_types)] = np.arange(n_phi)
    return banks, np.maximum(phi_index, phi_index.T)


def _offsets(symmetry):
    """The engine's offsets of half-width 2: the whole neighbourhood, or
    its half under force symmetry."""
    return np.array([(dx, dy) for dx in range(-2, 3) for dy in range(-2, 3)
                     if (dx, dy) != (0, 0)
                     and (not symmetry or dy > 0 or (dy == 0 and dx > 0))])


def _wafer_step_inputs(rng):
    """A holed grid stepped with the leap-frog, the cycle counter and the
    energy: from no list, or (every other draw) from the list one step of
    the active tier holds in the scratch the step is handed."""
    pos, occ = _wafer_grid(rng)
    n_types = int(rng.integers(1, 3))
    banks, phi_index = _wafer_banks(rng, n_types)
    typ = rng.integers(0, n_types, size=occ.shape) * occ
    vel = rng.normal(size=pos.shape) * occ[..., None]
    grid = (_offsets(True), np.full(3, 6.0),
            rng.integers(0, 2, size=3).astype(bool), 3.2**2, 0.04, 2.9,
            banks, phi_index, True)
    scratch = {}
    if rng.integers(0, 2):
        active_backend().wafer_step(pos.copy(), vel.copy(), occ, typ, *grid,
                                    scratch=scratch)
    kwargs = dict(masses=rng.uniform(10.0, 200.0, n_types), dt=0.002,
                  cost=(301.5, 24.2, 64.9, 521.8),
                  noise=rng.normal(size=occ.size), jitter=1e-3, energy=True,
                  scratch=scratch)
    return (pos, vel, occ, typ, *grid), kwargs, (pos, vel)


def _wafer_build_inputs(rng):
    """The list build as a step runs it: from no list, over random
    offsets at a random reach, nothing integrated; the list it holds
    is compared too."""
    pos, occ = _wafer_grid(rng)
    offsets = rng.integers(-4, 5, size=(int(rng.integers(1, 6)), 2))
    offsets = offsets[(offsets != 0).any(axis=1)]
    banks, phi_index = _wafer_banks(rng, 1)
    reach2 = float(rng.uniform(1.0, 12.0))
    return (
        pos, np.zeros(pos.shape), occ, np.zeros(occ.shape, dtype=np.int64),
        offsets, np.full(3, 6.0),
        rng.integers(0, 2, size=3).astype(bool), reach2, 0.04,
        0.9 * np.sqrt(reach2), banks, phi_index, False,
    ), dict(scratch={}), (pos,)


def _wafer_held_inputs(rng, bound2):
    """Positions moved since the active tier built the list it holds
    (symmetry drawn): reused when ``bound2`` covers the moves, else
    rebuilt; with the energy, without the leap-frog."""
    pos, occ = _wafer_grid(rng)
    n_types = int(rng.integers(1, 3))
    banks, phi_index = _wafer_banks(rng, n_types)
    typ = rng.integers(0, n_types, size=occ.shape) * occ
    symmetry = bool(rng.integers(0, 2))
    grid = (_offsets(symmetry), np.full(3, 6.0),
            rng.integers(0, 2, size=3).astype(bool), 3.2**2, bound2, 2.9,
            banks, phi_index, symmetry)
    vel, scratch = np.zeros(pos.shape), {}
    active_backend().wafer_step(pos.copy(), vel, occ, typ, *grid,
                                scratch=scratch)
    pos = pos + rng.normal(0.0, 0.2, pos.shape) * occ[..., None]
    return ((pos, vel, occ, typ, *grid), dict(energy=True, scratch=scratch),
            (pos,))


def _md_step_inputs(rng):
    """Steps of a random cloud of one or two types in a random box (cells
    or, with a periodic side under three reaches, the brute-force
    stream): from no list, or (every other draw) from a held list of
    every pair within the reach after random moves that the skin/2 test
    may or may not keep; the list the call holds is an output too."""
    from repro.kernels import numpy_backend

    n, cutoff, skin = 40, 2.4, 0.4
    lengths = rng.uniform(6.0, 9.0, size=3)
    periodic = rng.integers(0, 2, size=3).astype(bool)
    pos = rng.uniform(0.0, 1.0, size=(n, 3)) * lengths
    n_types = int(rng.integers(1, 3))
    banks, phi_index = _wafer_banks(rng, n_types)
    types = rng.integers(0, n_types, size=n)
    vel = rng.normal(size=(n, 3))
    held = []
    if rng.integers(0, 2):
        i, j = np.triu_indices(n, k=1)
        ci, cj, _, r_build = numpy_backend.neighbor_prefilter(
            pos, i, j, lengths, periodic, cutoff + skin, inclusive=True)
        held = [pos.copy(), ci, cj, r_build, float(r_build.max(initial=0.0))]
        pos += rng.normal(0.0, float(rng.choice([0.01, 0.2])), pos.shape)
    args = (pos, vel, types, rng.uniform(10.0, 200.0, n_types), held,
            np.zeros(3), lengths, periodic, cutoff, skin, 0.05, banks,
            phi_index, 0.002, int(rng.integers(1, 6)))
    return args, dict(scratch={}), (pos, vel, held)


_INPUTS = {
    "grouped_spline_eval": _grouped_spline_eval_inputs,
    "neighbor_prefilter": _neighbor_prefilter_inputs,
    "cell_pairs": _cell_pairs_inputs,
    "fused_density_pass": _fused_density_pass_inputs,
    "fused_force_pass": _fused_force_pass_inputs,
    "wafer_step": _wafer_step_inputs,
    # the step's parts: the list build, and both sweeps over a held list
    # that covers the positions (reused) or does not (rebuilt)
    "wafer_step/build": _wafer_build_inputs,
    "wafer_step/reused": lambda rng: _wafer_held_inputs(rng, 1e6),
    "wafer_step/rebuilt": lambda rng: _wafer_held_inputs(rng, 1e-4),
    "md_step": _md_step_inputs,
}

#: Pair counts around native.c's chunk of 256 rows: one row, a partial
#: chunk, exactly one, one past it, and two full chunks plus one.
CHUNK_EDGES = (1, 255, 256, 257, 513)
for _p in CHUNK_EDGES:
    for _m in (1, 3):
        _INPUTS[f"fused_density_pass/{_p}x{_m}"] = functools.partial(
            _fused_density_pass_inputs, p=_p, n_members=_m)
        for _member in ("scalar", "rows"):
            _INPUTS[f"fused_force_pass/{_p}x{_m}/{_member}"] = (
                functools.partial(_fused_force_pass_inputs, p=_p,
                                  n_members=_m, member=_member))
    for _form in ("strict", "inclusive", "assume_inside"):
        for _box in ("periodic", "open"):
            _INPUTS[f"neighbor_prefilter/{_p}/{_form}/{_box}"] = (
                functools.partial(_prefilter_chunk_inputs, p=_p, form=_form,
                                  box=_box))


def _call(fn_name, seed):
    """Invoke on the active backend with freshly generated inputs (the
    wafer kernels accumulate into or update their arguments); the
    outputs plus whatever was written into, as one tuple."""
    args, kwargs, *inplace = _INPUTS[fn_name](np.random.default_rng(seed))
    fn_name = fn_name.split("/")[0]  # a case of the kernel before the "/"
    out = getattr(active_backend(), fn_name)(*args, **kwargs)
    if fn_name == "wafer_step":  # its timings and team are not outputs
        out = step_outputs(out, kwargs["scratch"])
    if fn_name == "md_step":  # nor are its timings
        out = md_outputs(out)
    if out is None:
        out = ()
    out = out if isinstance(out, tuple) else (out,)
    written = inplace[0] if inplace else ()
    if fn_name == "md_step":  # the list it holds, flat
        written = (*written[:-1], *written[-1])
    return (*out, *written)


def test_generators_cover_interface():
    assert {name.split("/")[0] for name in _INPUTS} == set(KERNEL_FUNCTIONS)


class TestKernelEquivalence:
    @pytest.fixture(params=sorted(set(available_backends())))
    def backend_name(self, request):
        return request.param

    @pytest.mark.parametrize("fn_name", sorted(_INPUTS))
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
