"""Analysis utilities: displacement tracking."""

import numpy as np
import pytest

from repro.analysis.displacement import DisplacementTracker


class TestDisplacementTracker:
    def test_max_xy_ignores_z(self):
        ref = np.zeros((3, 3))
        t = DisplacementTracker(ref)
        moved = ref.copy()
        moved[1] = [0.5, -2.0, 100.0]
        assert t.max_xy_norm(moved) == pytest.approx(2.0)

    def test_series_accumulates(self):
        ref = np.zeros((2, 3))
        t = DisplacementTracker(ref)
        t.record(0.0, ref)
        t.record(1.0, ref + [1.0, 0, 0])
        times, vals = t.series()
        assert times.tolist() == [0.0, 1.0]
        assert vals.tolist() == [0.0, 1.0]

    def test_shape_mismatch_rejected(self):
        t = DisplacementTracker(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            t.max_xy_norm(np.zeros((4, 3)))

    def test_rejects_bad_reference(self):
        with pytest.raises(ValueError):
            DisplacementTracker(np.zeros((3, 2)))
