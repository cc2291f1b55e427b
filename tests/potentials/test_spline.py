"""Spline table unit + property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.potentials.spline import (
    SplineGroup,
    UniformCubicSpline,
    natural_cubic_second_derivatives,
)


class TestConstruction:
    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            UniformCubicSpline(0.0, 0.0, np.array([1.0, 2.0]))

    def test_rejects_single_knot(self):
        with pytest.raises(ValueError):
            UniformCubicSpline(0.0, 1.0, np.array([1.0]))

    def test_rejects_unknown_extrapolation(self):
        with pytest.raises(ValueError):
            UniformCubicSpline(0.0, 1.0, np.zeros(4), extrapolate_low="nope")

    def test_x_max(self):
        s = UniformCubicSpline(1.0, 0.5, np.zeros(5))
        assert s.x_max == pytest.approx(3.0)
        assert np.allclose(s.knots(), [1.0, 1.5, 2.0, 2.5, 3.0])


class TestExactness:
    def test_interpolates_knots_exactly(self):
        xs = np.linspace(0, 5, 11)
        ys = np.sin(xs)
        s = UniformCubicSpline(0.0, 0.5, ys, zero_above=False)
        vals, _ = s.evaluate(xs)
        assert np.allclose(vals, ys, atol=1e-12)

    def test_linear_function_reproduced_exactly(self):
        # natural cubic splines are exact on linear data
        xs = np.linspace(0, 4, 9)
        s = UniformCubicSpline(0.0, 0.5, 3.0 * xs + 1.0, zero_above=False)
        q = np.linspace(0.0, 4.0, 57)
        vals, ders = s.evaluate(q)
        assert np.allclose(vals, 3.0 * q + 1.0, atol=1e-10)
        assert np.allclose(ders, 3.0, atol=1e-10)

    def test_smooth_function_accuracy(self):
        s = UniformCubicSpline.from_function(
            np.exp, 0.0, 2.0, 200, zero_above=False
        )
        q = np.linspace(0.0, 2.0, 501)
        vals, ders = s.evaluate(q)
        # natural-BC end error dominates both bounds
        assert np.max(np.abs(vals - np.exp(q))) < 1e-4
        assert np.max(np.abs(ders - np.exp(q))) < 5e-2
        # interior accuracy is much tighter
        interior = (q > 0.2) & (q < 1.8)
        assert np.max(np.abs(vals[interior] - np.exp(q[interior]))) < 1e-7

    def test_derivative_consistent_with_finite_difference(self):
        s = UniformCubicSpline.from_function(
            lambda x: np.cos(2 * x), 0.0, 3.0, 100, zero_above=False
        )
        q = np.linspace(0.1, 2.9, 37)
        _, der = s.evaluate(q)
        eps = 1e-6
        fd = (s(q + eps) - s(q - eps)) / (2 * eps)
        assert np.allclose(der, fd, atol=1e-5)


class TestBoundaries:
    def test_zero_above_cutoff(self):
        s = UniformCubicSpline.from_function(np.exp, 0.0, 1.0, 10, zero_above=True)
        v, d = s.evaluate(np.array([1.0, 1.5, 100.0]))
        assert np.all(v == 0.0)
        assert np.all(d == 0.0)

    def test_clamp_above_keeps_last_value(self):
        s = UniformCubicSpline(0.0, 1.0, np.array([1.0, 2.0, 5.0]), zero_above=False)
        v, d = s.evaluate(np.array([7.0]))
        assert v[0] == pytest.approx(5.0)
        assert d[0] == 0.0

    def test_linear_extrapolation_below(self):
        s = UniformCubicSpline(
            1.0, 0.5, np.array([2.0, 3.0, 4.0]), extrapolate_low="linear",
            zero_above=False,
        )
        v0, d0 = s.evaluate(np.array([1.0]))
        v, d = s.evaluate(np.array([0.5]))
        # continues with the boundary polynomial's slope
        assert v[0] == pytest.approx(v0[0] - 0.5 * d0[0], rel=0.2)

    def test_error_below_raises(self):
        s = UniformCubicSpline(
            1.0, 0.5, np.zeros(3), extrapolate_low="error"
        )
        with pytest.raises(ValueError, match="below first knot"):
            s.evaluate(np.array([0.0]))

    def test_scalar_evaluation(self):
        s = UniformCubicSpline(0.0, 1.0, np.array([0.0, 1.0, 0.0]),
                               zero_above=False)
        v, d = s.evaluate(1.0)
        assert np.isscalar(v) or v.ndim == 0
        assert v == pytest.approx(1.0)


class TestEdgeCases:
    """Knot boundaries, x_max, scalars — across extrapolation modes."""

    @pytest.mark.parametrize("low", ["clamp", "linear"])
    def test_exact_knot_hits_are_interpolated(self, low):
        ys = np.array([1.0, 4.0, 2.0, 7.0, 3.0])
        s = UniformCubicSpline(2.0, 0.5, ys, extrapolate_low=low,
                               zero_above=False)
        v, _ = s.evaluate(s.knots())
        assert np.allclose(v, ys, atol=1e-12)

    def test_x_max_exactly_returns_last_knot(self):
        ys = np.array([0.0, 1.0, 4.0])
        s = UniformCubicSpline(0.0, 1.0, ys, zero_above=False)
        v, _ = s.evaluate(np.array([s.x_max]))
        assert v[0] == pytest.approx(4.0, abs=1e-12)

    def test_x_max_exactly_with_zero_above(self):
        # zero_above cuts at >= x_max (the cutoff itself contributes 0)
        s = UniformCubicSpline(0.0, 1.0, np.array([0.0, 1.0, 4.0]),
                               zero_above=True)
        v, d = s.evaluate(np.array([s.x_max]))
        assert v[0] == 0.0
        assert d[0] == 0.0

    def test_first_knot_clamp_derivative_is_boundary_slope(self):
        # clamp mode at x0 must report the boundary polynomial's slope,
        # not zero: forces at the inner table edge stay continuous
        s = UniformCubicSpline(1.0, 0.5, np.array([5.0, 3.0, 2.0, 1.5]),
                               extrapolate_low="clamp", zero_above=False)
        _, d_at = s.evaluate(np.array([1.0]))
        eps = 1e-7
        _, d_in = s.evaluate(np.array([1.0 + eps]))
        assert d_at[0] == pytest.approx(d_in[0], abs=1e-5)
        assert d_at[0] != 0.0

    def test_below_first_knot_clamp_freezes_value(self):
        s = UniformCubicSpline(1.0, 0.5, np.array([5.0, 3.0, 2.0]),
                               extrapolate_low="clamp", zero_above=False)
        v, _ = s.evaluate(np.array([0.2, 0.9]))
        assert np.allclose(v, 5.0)

    def test_linear_mode_continues_boundary_polynomial(self):
        # "linear" continues the first segment's cubic below x0 (negative
        # local offset) — value and derivative stay C1 through the knot
        s = UniformCubicSpline(1.0, 0.5, np.array([2.0, 3.0, 4.5]),
                               extrapolate_low="linear", zero_above=False)
        xs = np.array([0.2, 0.5, 0.8])
        v, d = s.evaluate(xs)
        dx = xs - 1.0
        c0, c1, c2, c3 = s.coeffs[0]
        assert np.allclose(v, c0 + dx * (c1 + dx * (c2 + dx * c3)),
                           atol=1e-12)
        assert np.allclose(d, c1 + 2 * c2 * dx + 3 * c3 * dx * dx,
                           atol=1e-12)

    @pytest.mark.parametrize("x,mode", [(0.0, "clamp"), (0.0, "linear"),
                                        (1.0, "clamp"), (2.0, "clamp"),
                                        (9.0, "clamp")])
    def test_scalar_input_returns_scalar_everywhere(self, x, mode):
        s = UniformCubicSpline(1.0, 0.5, np.arange(5, dtype=float),
                               extrapolate_low=mode)
        v, d = s.evaluate(x)
        assert np.ndim(v) == 0
        assert np.ndim(d) == 0

    def test_scalar_error_mode_raises_below(self):
        s = UniformCubicSpline(1.0, 0.5, np.zeros(3),
                               extrapolate_low="error")
        with pytest.raises(ValueError, match="below first knot"):
            s.evaluate(0.5)

    def test_packed_coefficients_shape_and_layout(self):
        # the kernel layer consumes coeffs[(nseg, 4)] = (c0, c1, c2, c3);
        # row k evaluated at dx=0 must give the knot value and slope
        ys = np.sin(np.linspace(0, 3, 12))
        s = UniformCubicSpline(0.0, 3 / 11, ys, zero_above=False)
        assert s.coeffs.shape == (11, 4)
        assert s.coeffs.flags["C_CONTIGUOUS"]
        assert np.allclose(s.coeffs[:, 0], ys[:-1], atol=1e-12)
        v, d = s.evaluate(s.knots()[:-1])
        assert np.allclose(s.coeffs[:, 1], d, atol=1e-12)


class TestShapes:
    """``evaluate`` takes any shape (the kernels take a 1-D batch): the
    grouped path used to raise "too many indices" for a 0-d or N-d
    ``x``, and the single spline mis-gathered an ``(n, 4)`` one."""

    MODES = [("linear", True), ("clamp", False)]

    @staticmethod
    def _pair(low, zero_above):
        kw = {"extrapolate_low": low, "zero_above": zero_above}
        a = UniformCubicSpline.from_function(np.sin, 0.0, 3.0, 20, **kw)
        b = UniformCubicSpline.from_function(np.cos, 0.5, 4.0, 30, **kw)
        return a, b

    @staticmethod
    def _pointwise(splines, x, member):
        """Each point through its member's own scalar ``evaluate``."""
        x = np.asarray(x, dtype=np.float64)
        xb, gb = np.broadcast_arrays(x, np.asarray(member))
        val = np.empty(xb.shape)
        der = np.empty(xb.shape)
        for at in np.ndindex(xb.shape):
            val[at], der[at] = splines[gb[at]].evaluate(float(xb[at]))
        return val, der

    @pytest.mark.parametrize("low,zero_above", MODES)
    @pytest.mark.parametrize(
        "shape", [(), (0,), (1,), (9,), (3, 4), (2, 0), (2, 3, 2)]
    )
    @pytest.mark.parametrize("array_member", [False, True])
    def test_group_matches_members_pointwise(
        self, shape, array_member, low, zero_above
    ):
        splines = self._pair(low, zero_above)
        group = SplineGroup(list(splines))
        rng = np.random.default_rng(len(shape) + 7 * sum(shape))
        # inside, below both first knots, on a knot, above both last knots
        pool = np.array([1.3, -0.4, splines[1].knots()[4], 2.2, 4.5, 3.0])
        x = rng.choice(pool, size=shape)
        member = rng.integers(0, 2, size=shape) if array_member else 1
        val, der = group.evaluate(x, member)
        want_v, want_d = self._pointwise(splines, x, member)
        assert np.shape(val) == np.shape(der) == shape
        assert np.asarray(val).tobytes() == want_v.tobytes()
        assert np.asarray(der).tobytes() == want_d.tobytes()
        if shape == ():
            assert isinstance(val, np.float64)
            assert isinstance(der, np.float64)

    def test_group_member_broadcasts_against_x(self):
        splines = self._pair("linear", True)
        group = SplineGroup(list(splines))
        x = np.linspace(0.6, 2.9, 12).reshape(3, 4)
        member = np.array([0, 1, 1, 0])
        val, der = group.evaluate(x, member)
        want_v, want_d = self._pointwise(splines, x, member)
        assert val.tobytes() == want_v.tobytes()
        assert der.tobytes() == want_d.tobytes()
        # a 0-d x takes the shape of its members
        val, der = group.evaluate(1.25, member)
        want_v, want_d = self._pointwise(splines, 1.25, member)
        assert val.shape == (4,)
        assert val.tobytes() == want_v.tobytes()
        assert der.tobytes() == want_d.tobytes()

    @pytest.mark.parametrize("shape", [(0,), (5, 4), (2, 3, 2)])
    def test_single_spline_keeps_the_shape_of_x(self, shape):
        (a, _) = self._pair("linear", True)
        x = np.random.default_rng(1).uniform(-0.5, 3.5, size=shape)
        val, der = a.evaluate(x)
        want_v, want_d = self._pointwise([a], x, 0)
        assert val.shape == der.shape == shape
        assert val.tobytes() == want_v.tobytes()
        assert der.tobytes() == want_d.tobytes()


class TestSecondDerivatives:
    def test_natural_boundary_conditions(self):
        m = natural_cubic_second_derivatives(np.sin(np.linspace(0, 3, 20)), 3 / 19)
        assert m[0] == 0.0
        assert m[-1] == 0.0

    def test_two_knots_all_zero(self):
        assert np.all(natural_cubic_second_derivatives(np.array([1.0, 5.0]), 1.0) == 0)

    def test_rejects_single_knot(self):
        with pytest.raises(ValueError):
            natural_cubic_second_derivatives(np.array([1.0]), 1.0)


class TestProperties:
    @given(
        coeffs=st.tuples(
            st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)
        ),
        n=st.integers(8, 60),
    )
    @settings(max_examples=40, deadline=None)
    def test_quadratics_interpolated_within_tolerance(self, coeffs, n):
        a, b, c = coeffs
        fn = lambda x: a * x * x + b * x + c
        s = UniformCubicSpline.from_function(fn, 0.0, 2.0, n, zero_above=False)
        q = np.linspace(0.0, 2.0, 101)
        vals, _ = s.evaluate(q)
        scale = max(1.0, abs(a), abs(b), abs(c))
        # natural BCs perturb quadratics near the ends only
        interior = (q > 0.3) & (q < 1.7)
        assert np.max(np.abs(vals[interior] - fn(q[interior]))) < 0.05 * scale

    @given(n=st.integers(4, 50), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_c1_continuity_at_knots(self, n, seed):
        rng = np.random.default_rng(seed)
        ys = rng.normal(size=n)
        s = UniformCubicSpline(0.0, 1.0, ys, zero_above=False)
        eps = 1e-8
        interior_knots = np.arange(1, n - 1, dtype=np.float64)
        if len(interior_knots) == 0:
            return
        _, d_left = s.evaluate(interior_knots - eps)
        _, d_right = s.evaluate(interior_knots + eps)
        assert np.allclose(d_left, d_right, atol=1e-5)

    @given(n=st.integers(4, 40))
    @settings(max_examples=20, deadline=None)
    def test_segment_indices_in_range(self, n):
        s = UniformCubicSpline(0.0, 0.25, np.zeros(n))
        x = np.linspace(-1.0, n, 200)
        k, dx = s.segment(x)
        assert k.min() >= 0
        assert k.max() <= n - 2


class TestSram:
    def test_nbytes(self):
        s = UniformCubicSpline(0.0, 1.0, np.zeros(65))
        # 64 segments x 4 coefficients x 4 bytes
        assert s.nbytes() == 64 * 4 * 4
