"""The rewritten numpy kernels against their frozen PR-6 bodies, bitwise.

``repro.kernels.numpy_backend`` moved its gathers to ``take``, its
filters to one ``flatnonzero`` index array, its spline to one gather
and in-place Horner passes, and its force scatter to contiguous
per-axis columns.  Every replacement is the same IEEE operation on the
same operands in the same order, so the outputs — values, dtypes,
shapes, and the exceptions malformed input raises — must equal what
``tests.legacy_kernels`` (the old bodies, frozen) returns, bit for bit.

Also pinned here: the kernels write to no argument, hold no buffer
between calls, and keep no state two threads could trade.
"""

import functools
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import numpy_backend as new
from repro.potentials.spline import SplineGroup, UniformCubicSpline
from tests import legacy_kernels as old
from tests.conftest import knots


def _outcome(fn, *args, **kwargs):
    """What a call did: its outputs, or the type of what it raised."""
    try:
        return "returned", fn(*args, **kwargs)
    except Exception as exc:  # parity of failures is part of the contract
        return "raised", type(exc)


def assert_same_outcome(name, *args, sides=(new, old), **kwargs):
    """``new.<name>`` and ``old.<name>`` (``sides``) agree bit for bit
    on ``args``."""
    kind_new, got = _outcome(getattr(sides[0], name), *args, **kwargs)
    kind_old, want = _outcome(getattr(sides[1], name), *args, **kwargs)
    assert kind_new == kind_old, (name, got, want)
    if kind_new == "raised":
        assert got is want, (name, got, want)
        return None
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    return got


# -- inputs ------------------------------------------------------------------


def _group(rng, n_members, low, zero_above):
    members = [
        UniformCubicSpline(
            0.4 + 0.3 * rng.random(),
            0.05 + 0.3 * rng.random(),
            rng.normal(size=int(rng.integers(2, 14))),
            extrapolate_low=low,
            zero_above=zero_above,
        )
        for _ in range(n_members)
    ]
    return SplineGroup(members)


def _abscissae(rng, group, member, n):
    """``n`` points per the issue's list: inside, below ``x0``, exactly
    on knots, at ``x_max`` and one ulp either side, and above it."""
    g = np.broadcast_to(np.asarray(member, dtype=np.int64), (n,))
    x = np.empty(n)
    for p in range(n):
        s = group.members[g[p]]
        kind = rng.integers(0, 7)
        if kind == 0:
            x[p] = s.x0 - rng.random() * 2.0 * s.h
        elif kind == 1:
            x[p] = knots(s)[rng.integers(0, s.n)]
        elif kind == 2:
            x[p] = s.x_max
        elif kind == 3:
            x[p] = np.nextafter(s.x_max, rng.choice([-np.inf, np.inf]))
        elif kind == 4:
            x[p] = s.x_max + rng.random() * 2.0 * s.h
        else:
            x[p] = s.x0 + rng.random() * (s.x_max - s.x0)
    return x


def _indices(rng, n_atoms, n_pairs, *, negative):
    """Index pairs with duplicates (and wrapped negatives when asked)."""
    lo = -n_atoms if negative else 0
    i = rng.integers(lo, n_atoms, n_pairs)
    j = rng.integers(lo, n_atoms, n_pairs)
    if n_pairs > 2:  # a guaranteed duplicate pair
        i[-1], j[-1] = i[0], j[0]
    return i.astype(np.int64), j.astype(np.int64)


BOXES = {
    "open": (False, False, False),
    "mixed": (True, False, True),
    "periodic": (True, True, True),
}
SIZES = st.sampled_from([0, 1, 2, 7, 64, 300])


# -- the sweep ---------------------------------------------------------------


def bitwise_sweep(sides):
    """The sweep as a test class over ``sides`` = (implementation under
    test, its oracle).  A factory, not a base class: Hypothesis wants
    each ``@given`` function run from one class only, and the native
    tier (``test_native.py``) runs the same sweep with (native, numpy)."""

    class _Sweep:
        @given(
            seed=st.integers(0, 10_000),
            n=SIZES,
            n_members=st.sampled_from([1, 2, 4]),
            low=st.sampled_from(["linear", "clamp"]),
            zero_above=st.booleans(),
            scalar_member=st.booleans(),
        )
        @settings(max_examples=200, deadline=None)
        def test_grouped_spline_eval(
            self, seed, n, n_members, low, zero_above, scalar_member
        ):
            rng = np.random.default_rng(seed)
            group = _group(rng, n_members, low, zero_above)
            if scalar_member:
                member = int(rng.integers(-n_members, n_members))
            else:
                member = rng.integers(-n_members, n_members, n).astype(np.int64)
            x = _abscissae(rng, group, member, n)
            assert_same_outcome(
                "grouped_spline_eval", group.bank(), x, member, sides=self.sides
            )

        @given(
            seed=st.integers(0, 10_000),
            n_pairs=SIZES,
            box=st.sampled_from(sorted(BOXES)),
            inclusive=st.booleans(),
            assume_inside=st.booleans(),
            negative=st.booleans(),
        )
        @settings(max_examples=200, deadline=None)
        def test_neighbor_prefilter(
            self, seed, n_pairs, box, inclusive, assume_inside, negative,
        ):
            rng = np.random.default_rng(seed)
            n_atoms = 40
            lengths = rng.uniform(4.0, 9.0, 3)
            positions = rng.uniform(0.0, 1.0, (n_atoms, 3)) * lengths
            i, j = _indices(rng, n_atoms, n_pairs, negative=negative)
            if n_pairs:  # a pair sitting exactly on the predicate's edge
                d = positions[j[0]] - positions[i[0]]
                per = np.array(BOXES[box])
                d -= per * lengths * np.floor(d / lengths + 0.5)
                rmax = float(np.sqrt(np.einsum("k,k->", d, d)))
            else:
                rmax = 3.0
            assert_same_outcome(
                "neighbor_prefilter", positions, i, j, lengths,
                np.array(BOXES[box]), rmax, inclusive=inclusive,
                assume_inside=assume_inside, sides=self.sides,
            )

        @given(
            seed=st.integers(0, 10_000),
            n_pairs=SIZES,
            n_members=st.sampled_from([1, 2, 3]),
            negative=st.booleans(),
            coincident=st.booleans(),
        )
        @settings(max_examples=200, deadline=None)
        def test_fused_passes(
            self, seed, n_pairs, n_members, negative, coincident
        ):
            rng = np.random.default_rng(seed)
            n_atoms = 30
            rho = _group(rng, n_members, "linear", True)
            n_phi = n_members * (n_members + 1) // 2
            phi = _group(rng, n_phi, "linear", True)
            i, j = _indices(rng, n_atoms, n_pairs, negative=negative)
            rij = rng.normal(size=(n_pairs, 3))
            r = np.sqrt(np.einsum("ij,ij->i", rij, rij))
            if coincident and n_pairs:
                rij[n_pairs // 2] = 0.0
                r[n_pairs // 2] = 0.0
            types = rng.integers(0, n_members, n_atoms)
            ti, tj = types[i], types[j]
            dens = assert_same_outcome(
                "fused_density_pass", i, j, r, ti, tj, rho.bank(), n_atoms,
                sides=self.sides,
            )
            if dens is None:  # negative scatter index: both raised alike
                d_ji = d_ij = rng.normal(size=n_pairs)
            else:
                _, d_ji, d_ij = dens
            f_der = rng.normal(size=n_atoms)
            member = 0 if n_members == 1 else rng.integers(0, n_phi, n_pairs)
            got = assert_same_outcome(
                "fused_force_pass", i, j, rij, r, f_der, d_ji, d_ij,
                phi.bank(), member, n_atoms, sides=self.sides,
            )
            if coincident and n_pairs and not negative:
                assert got is None  # FloatingPointError on both sides

        def test_coincident_atoms_raise_floating_point_error(self):
            rng = np.random.default_rng(3)
            phi = _group(rng, 1, "linear", True)
            i = np.array([0, 1], dtype=np.int64)
            j = np.array([1, 2], dtype=np.int64)
            rij = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
            r = np.array([1.0, 0.0])
            z = np.zeros(2)
            for mod in self.sides:
                with pytest.raises(FloatingPointError):
                    mod.fused_force_pass(
                        i, j, rij, r, np.zeros(3), z, z, phi.bank(), 0, 3
                    )

    _Sweep.sides = sides
    return _Sweep


#: the frozen bodies as today's signatures call them: the prefilter's
#: ``compute_r`` flag is gone, every caller materialized the geometry
frozen = SimpleNamespace(
    grouped_spline_eval=old.grouped_spline_eval,
    neighbor_prefilter=functools.partial(old.neighbor_prefilter,
                                         compute_r=True),
    fused_density_pass=old.fused_density_pass,
    fused_force_pass=old.fused_force_pass,
)

TestBitwiseAgainstFrozenBodies = bitwise_sweep((new, frozen))


# -- checks every rewrite kept -----------------------------------------------


def _pair_inputs(seed=11, n_atoms=50, n_pairs=400, n_members=2):
    rng = np.random.default_rng(seed)
    lengths = np.array([7.0, 8.0, 9.0])
    positions = rng.uniform(0.0, 1.0, (n_atoms, 3)) * lengths
    i, j = _indices(rng, n_atoms, n_pairs, negative=False)
    keep = i != j
    i, j = i[keep], j[keep]
    rho = _group(rng, n_members, "linear", True)
    phi = _group(rng, n_members * (n_members + 1) // 2, "linear", True)
    types = rng.integers(0, n_members, n_atoms)
    return positions, lengths, i, j, rho, phi, types, rng


class TestKeptChecks:
    @pytest.mark.parametrize("bad", [50, 10_000, -51])
    def test_out_of_range_candidate_raises_index_error(self, bad):
        positions, lengths, i, j, *_ = _pair_inputs()
        j = j.copy()
        j[3] = bad
        with pytest.raises(IndexError):
            new.neighbor_prefilter(
                positions, i, j, lengths, np.array([True, False, True]),
                3.0, inclusive=False,
            )

    def test_out_of_range_gathers_raise_index_error(self):
        rng = np.random.default_rng(0)
        group = _group(rng, 2, "linear", True)
        with pytest.raises(IndexError):
            new.grouped_spline_eval(
                group.bank(), np.array([0.5, 0.6]), np.array([0, 2])
            )
        with pytest.raises(IndexError):
            new.fused_force_pass(
                np.array([0, 9]), np.array([1, 2]), np.ones((2, 3)),
                np.ones(2), np.zeros(3), np.zeros(2), np.zeros(2),
                group.bank(), 0, 3,
            )

    def test_no_kernel_writes_to_an_argument(self):
        positions, lengths, i, j, rho, phi, types, rng = _pair_inputs()
        periodic = np.array([True, True, False])
        n = len(positions)
        # every array a step hands the kernels, made by the frozen bodies
        _, _, rij, r = old.neighbor_prefilter(
            positions, i, j, lengths, periodic, 4.0, inclusive=True,
            compute_r=True, assume_inside=True,
        )
        ti, tj = types[i], types[j]
        _, d_ji, d_ij = old.fused_density_pass(
            i, j, r, ti, tj, rho.bank(), n
        )
        watched = {
            "positions": positions, "i": i, "j": j, "rij": rij, "r": r,
            "ti": ti, "tj": tj, "d_ji": d_ji, "d_ij": d_ij,
            "f_der": rng.normal(size=n),
            "member": rng.integers(0, 3, len(r)),
            "rho_coeffs": rho.bank()[0], "phi_coeffs": phi.bank()[0],
        }
        before = {key: a.tobytes() for key, a in watched.items()}
        for assume_inside in (False, True):
            new.neighbor_prefilter(
                positions, i, j, lengths, periodic, 4.0, inclusive=True,
                assume_inside=assume_inside,
            )
        new.fused_density_pass(i, j, r, ti, tj, rho.bank(), n)
        new.fused_force_pass(
            i, j, rij, r, watched["f_der"], d_ji, d_ij, phi.bank(),
            watched["member"], n,
        )
        new.grouped_spline_eval(phi.bank(), r, watched["member"])
        assert {key: a.tobytes() for key, a in watched.items()} == before

    def test_second_call_leaves_first_outputs_untouched(self):
        """No buffer outlives a call: outputs of one call are not the
        scratch of the next."""

        def one_step(seed):
            positions, lengths, i, j, rho, phi, types, rng = _pair_inputs(
                seed, n_members=1
            )
            ki, kj, rij, r = new.neighbor_prefilter(
                positions, i, j, lengths, np.array([True, True, True]),
                4.0, inclusive=False,
            )
            rho_bar, d_ji, d_ij = new.fused_density_pass(
                ki, kj, r, types, types, rho.bank(), len(positions)
            )
            e_pair, forces = new.fused_force_pass(
                ki, kj, rij, r, rng.normal(size=len(positions)), d_ji, d_ij,
                phi.bank(), 0, len(positions),
            )
            return ki, kj, rij, r, rho_bar, d_ji, e_pair, forces

        first = one_step(1)
        snapshot = [a.tobytes() for a in first]
        second = one_step(2)
        assert [a.tobytes() for a in first] == snapshot
        for a in first:
            for b in second:
                assert not np.shares_memory(a, b)


def _end_state(engine):
    state = engine.state
    return state.positions.tobytes(), state.velocities.tobytes()


def test_two_engines_stepped_from_two_threads_match_solo_runs():
    """Kernel temporaries are per call, so engines sharing the process
    (the serve scheduler's slots) cannot trade them: each threaded run
    ends on the state it reaches alone, bit for bit."""
    from repro.runtime.engines import build_engine
    from repro.runtime.spec import RunSpec

    steps = 25
    specs = [
        RunSpec(element="Ta", reps=(5, 5, 3), engine="reference",
                backend="numpy", seed=seed, steps=steps)
        for seed in (5, 6)
    ]
    solo = []
    for spec in specs:
        engine = build_engine(spec)
        engine.step(steps)
        solo.append(_end_state(engine))
    assert solo[0] != solo[1]

    engines = [build_engine(spec) for spec in specs]
    errors = []

    def advance(engine):
        try:
            for _ in range(steps):
                engine.step(1)
        except BaseException as exc:  # surfaced by the assert below
            errors.append(exc)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=advance, args=(e,)) for e in engines
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert [_end_state(e) for e in engines] == solo
