"""Box / boundary-condition tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md.boundary import Box


class TestConstruction:
    def test_default_origin_centers_box(self):
        b = Box(np.array([10.0, 20.0, 30.0]))
        assert np.allclose(b.origin, [-5, -10, -15])

    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(ValueError):
            Box(np.array([1.0, 0.0, 1.0]))

    def test_open_factory(self):
        b = Box.open([5, 5, 5])
        assert not np.any(b.periodic)

    def test_cube_periodic_factory(self):
        b = Box.cube_periodic(7.0)
        assert np.all(b.periodic)
        assert b.volume == pytest.approx(343.0)


class TestWrap:
    def test_open_box_never_wraps(self):
        b = Box.open([10, 10, 10])
        pos = np.array([[100.0, -50.0, 3.0]])
        assert np.allclose(b.wrap(pos), pos)

    def test_periodic_wrap_into_primary_cell(self):
        b = Box(np.array([10.0, 10.0, 10.0]), periodic=[True] * 3,
                origin=np.zeros(3))
        pos = np.array([[12.0, -3.0, 5.0]])
        assert np.allclose(b.wrap(pos), [[2.0, 7.0, 5.0]])

    def test_mixed_periodicity(self):
        b = Box(np.array([10.0, 10.0, 10.0]), periodic=[True, False, False],
                origin=np.zeros(3))
        out = b.wrap(np.array([[12.0, 12.0, 12.0]]))
        assert np.allclose(out, [[2.0, 12.0, 12.0]])


class TestMinimumImage:
    def test_short_vector_unchanged(self):
        b = Box.cube_periodic(10.0)
        d = np.array([[1.0, -2.0, 3.0]])
        assert np.allclose(b.minimum_image(d), d)

    def test_long_vector_folded(self):
        b = Box.cube_periodic(10.0)
        d = np.array([[7.0, -8.0, 0.0]])
        assert np.allclose(b.minimum_image(d), [[-3.0, 2.0, 0.0]])

    def test_open_dims_untouched(self):
        b = Box(np.array([10.0, 10.0, 10.0]), periodic=[False, True, False])
        d = np.array([[9.0, 9.0, 9.0]])
        assert np.allclose(b.minimum_image(d), [[9.0, -1.0, 9.0]])

    @given(
        x=st.floats(-50, 50), y=st.floats(-50, 50), z=st.floats(-50, 50)
    )
    @settings(max_examples=50, deadline=None)
    def test_minimum_image_bounded_by_half_box(self, x, y, z):
        b = Box.cube_periodic(10.0)
        d = b.minimum_image(np.array([[x, y, z]]))
        assert np.all(np.abs(d) <= 5.0 + 1e-9)

    def test_half_box_ties_fold_deterministically(self):
        # at exactly +-L/2 both images are equidistant; np.round's
        # banker's rounding used to map +5 and +15 to different signs.
        # The floor-based fold always picks -L/2: result is in [-L/2, L/2).
        b = Box.cube_periodic(10.0)
        ties = np.array(
            [[5.0, -5.0, 15.0], [-15.0, 25.0, -25.0]]
        )
        out = b.minimum_image(ties)
        assert np.all(out == -5.0)

    def test_half_box_ties_consistent_across_offsets(self):
        # every odd multiple of L/2 is the same physical separation;
        # all of them must fold to the identical representative
        b = Box.cube_periodic(10.0)
        offsets = np.array([5.0 + 10.0 * k for k in range(-3, 4)])
        d = np.zeros((len(offsets), 3))
        d[:, 0] = offsets
        out = b.minimum_image(d)
        assert np.all(out[:, 0] == -5.0)

    def test_wse_engine_minimum_image_matches_box(self):
        from repro.kernels.numpy_backend import minimum_image

        # the kernels' fold (the wrap the lockstep sweeps and the pair
        # prefilter run) must break half-box ties the same way, or the
        # engines drift apart at exactly +-L/2
        b = Box.cube_periodic(10.0)
        d = np.array([[5.0, -5.0, 15.0], [1.0, -8.0, 7.0]])
        got = d.copy()
        minimum_image(got, b.lengths, b.periodic)
        np.testing.assert_array_equal(got, b.minimum_image(d))


class TestValidation:
    def test_minimum_image_validity_check(self):
        b = Box.cube_periodic(10.0)
        b.check_minimum_image_valid(4.9)  # fine
        with pytest.raises(ValueError, match="minimum image"):
            b.check_minimum_image_valid(5.1)

    def test_open_box_any_cutoff_ok(self):
        Box.open([2.0, 2.0, 2.0]).check_minimum_image_valid(100.0)

    def test_contains(self):
        b = Box(np.array([10.0, 10.0, 10.0]), origin=np.zeros(3))
        inside = b.contains(np.array([[5.0, 5.0, 5.0], [11.0, 5.0, 5.0]]))
        assert inside.tolist() == [True, False]
