"""Cell-list pair search vs brute force (property-based).

``candidate_pairs`` is a *half* list: each undirected pair appears
exactly once.  The brute-force ``all_pairs`` oracle stays directed, so
comparisons normalize both sides to unordered pair sets and separately
assert the half list carries no duplicates.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import numpy_backend
from repro.md.boundary import Box
from repro.md.cell_list import CellList, all_pairs, concatenated_ranges
from repro.potentials.elements import ELEMENTS
from tests.conftest import legacy_candidates, small_slab_state


def undirected_set(i, j):
    return {(min(a, b), max(a, b)) for a, b in zip(i.tolist(), j.tolist())}


def cell_list_pairs(positions, cutoff, box):
    cl = CellList(box, cutoff)
    cl.build(positions)
    i, j = cl.candidate_pairs()
    d = positions[j] - positions[i]
    d = box.minimum_image(d)
    r2 = np.einsum("ij,ij->i", d, d)
    keep = r2 < cutoff * cutoff
    return i[keep], j[keep]


def assert_half_matches_brute(positions, cutoff, box):
    bi, bj, _, _ = all_pairs(positions, cutoff, box)
    ci, cj = cell_list_pairs(positions, cutoff, box)
    # every undirected pair present, and present exactly once
    assert undirected_set(bi, bj) == undirected_set(ci, cj)
    assert len(ci) == len(undirected_set(ci, cj))


class TestConcatenatedRanges:
    def test_basic(self):
        out = concatenated_ranges(np.array([0, 10]), np.array([3, 2]))
        assert out.tolist() == [0, 1, 2, 10, 11]

    def test_empty(self):
        assert len(concatenated_ranges(np.array([], dtype=int),
                                       np.array([], dtype=int))) == 0

    def test_zero_counts_skipped(self):
        out = concatenated_ranges(np.array([5, 7, 9]), np.array([0, 2, 0]))
        assert out.tolist() == [7, 8]


class TestAgainstBruteForce:
    @given(
        n=st.integers(2, 40),
        seed=st.integers(0, 1000),
        cutoff=st.floats(0.5, 3.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_open_box_matches_brute_force(self, n, seed, cutoff):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 10.0, size=(n, 3))
        box = Box.open([20.0, 20.0, 20.0])
        assert_half_matches_brute(pos, cutoff, box)

    @given(n=st.integers(2, 30), seed=st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_periodic_box_matches_brute_force(self, n, seed):
        rng = np.random.default_rng(seed)
        box = Box(np.array([9.0, 9.0, 9.0]), periodic=[True] * 3,
                  origin=np.zeros(3))
        pos = rng.uniform(0, 9.0, size=(n, 3))
        assert_half_matches_brute(pos, 2.5, box)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_small_periodic_falls_back_to_brute(self, seed):
        # box of 2 cells per dim: the stencil would alias; must still be correct
        rng = np.random.default_rng(seed)
        box = Box(np.array([6.0, 6.0, 6.0]), periodic=[True] * 3,
                  origin=np.zeros(3))
        pos = rng.uniform(0, 6.0, size=(12, 3))
        assert_half_matches_brute(pos, 2.5, box)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_three_cell_periodic_wrap_no_duplicates(self, seed):
        # exactly 3 cells per periodic dim: +1 and -1 stencil neighbors
        # are distinct but adjacent both ways — the duplication trap
        rng = np.random.default_rng(seed)
        box = Box(np.array([7.5, 7.5, 7.5]), periodic=[True] * 3,
                  origin=np.zeros(3))
        pos = rng.uniform(0, 7.5, size=(20, 3))
        assert_half_matches_brute(pos, 2.5, box)

    def test_mixed_boundaries(self):
        rng = np.random.default_rng(3)
        box = Box(np.array([12.0, 30.0, 30.0]), periodic=[True, False, False],
                  origin=np.zeros(3))
        pos = rng.uniform(0, 12.0, size=(40, 3)) * [1.0, 2.0, 2.0]
        assert_half_matches_brute(pos, 3.0, box)


class TestStructure:
    def test_pairs_are_half_and_unique(self):
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, 8, size=(25, 3))
        box = Box.open([20, 20, 20])
        i, j = cell_list_pairs(pos, 3.0, box)
        seen = set(zip(i.tolist(), j.tolist()))
        assert len(seen) == len(i)
        # each unordered pair once: never both (a, b) and (b, a)
        assert all((b, a) not in seen for a, b in seen)
        assert all(a != b for a, b in seen)

    def test_directed_view_doubles(self):
        rng = np.random.default_rng(1)
        pos = rng.uniform(0, 8, size=(20, 3))
        box = Box.open([20, 20, 20])
        cl = CellList(box, 3.0)
        cl.build(pos)
        hi, hj = cl.candidate_pairs()
        di, dj = cl.directed_candidate_pairs()
        assert len(di) == 2 * len(hi)
        s = set(zip(di.tolist(), dj.tolist()))
        assert all((b, a) in s for a, b in s)

    def test_no_self_pairs_with_duplicated_positions(self):
        # two atoms at identical positions: pair appears, but no (i, i)
        pos = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [5.0, 5.0, 5.0]])
        box = Box.open([20, 20, 20])
        cl = CellList(box, 2.0)
        cl.build(pos)
        i, j = cl.candidate_pairs()
        assert np.all(i != j)
        assert (0, 1) in undirected_set(i, j)

    def test_rejects_nonfinite_positions(self):
        box = Box.open([10, 10, 10])
        cl = CellList(box, 2.0)
        with pytest.raises(FloatingPointError):
            cl.build(np.array([[0.0, 0.0, np.nan]]))

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            CellList(Box.open([10, 10, 10]), -1.0)

    def test_candidate_pairs_before_build_raises(self):
        cl = CellList(Box.open([10, 10, 10]), 2.0)
        with pytest.raises(RuntimeError):
            cl.candidate_pairs()


BOX_KINDS = {
    "open": (False, False, False),
    "periodic": (True, True, True),
    "mixed-x": (True, False, False),
    "mixed-xy": (True, True, False),
    "mixed-z": (False, False, True),
}


@st.composite
def sweep_cases(draw):
    """A random cloud in a random box, hostile on purpose.

    Box edges run from just over two cutoffs (periodic dims that thin
    cannot afford a subdivided — or any — stencil: k falls back 2 -> 1
    -> brute force) to seven; atoms may sit unwrapped several box
    lengths outside along periodic dims; the whole cloud may be
    translated by 1e6 A, where one ulp is ~1e-10 A.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 90))
    cutoff = draw(st.floats(1.0, 3.0))
    periodic = np.array(BOX_KINDS[draw(st.sampled_from(sorted(BOX_KINDS)))])
    lengths = cutoff * np.array(
        [draw(st.floats(2.05, 7.0)) for _ in range(3)]
    )
    positions = rng.uniform(0.0, 1.0, size=(n, 3)) * lengths
    if draw(st.booleans()):
        positions += rng.integers(-3, 4, size=(n, 3)) * lengths * periodic
    if draw(st.booleans()):
        positions += 1e6
    live = rng.random(n) < 0.4 if draw(st.booleans()) else None
    box = Box(lengths, periodic=periodic, origin=np.zeros(3))
    return positions, box, cutoff, draw(st.sampled_from([1, 2])), live


class TestStreamingSweep:
    """``pairs_within`` against the staged composition it replaced."""

    @given(sweep_cases())
    @settings(max_examples=150, deadline=None)
    def test_stream_equals_legacy_composition_in_order(self, case):
        positions, box, cutoff, subdivide, live = case
        cells = CellList(box, cutoff, subdivide=subdivide)
        cells.build(positions)
        legacy, (ri, rj) = legacy_candidates(
            cells, positions, cutoff, live=live
        )
        ci, cj, n_raw = cells.pairs_within(cutoff, live=live)
        assert n_raw == len(ri)
        stream = numpy_backend.neighbor_prefilter(
            positions, ci, cj, box.lengths, box.periodic, cutoff,
            inclusive=True, compute_r=True,
        )
        # element for element, in order: indices, vectors, distances
        for got, want in zip(stream, legacy):
            assert np.array_equal(got, want)
        # the coarse cut is a sub-stream of the raw stream (each
        # undirected pair is enumerated once, so keys are unique) ...
        n = len(positions)
        raw_keys = ri * n + rj
        coarse_keys = ci * n + cj
        assert np.array_equal(
            raw_keys[np.isin(raw_keys, coarse_keys)], coarse_keys
        )
        # ... and only ever over-includes
        assert np.all(np.isin(legacy[0] * n + legacy[1], coarse_keys))

    def test_pairs_within_before_build_raises(self):
        cells = CellList(Box.open([10, 10, 10]), 2.0)
        with pytest.raises(RuntimeError):
            cells.pairs_within(2.0)

    def test_brute_fallback_returns_raw_stream_whole(self):
        rng = np.random.default_rng(3)
        box = Box.cube_periodic(7.0)  # < 3 cells at cutoff 3
        cells = CellList(box, 3.0)
        cells.build(rng.uniform(0, 7.0, size=(12, 3)))
        i, j, n_raw = cells.pairs_within(3.0)
        ri, rj = cells.candidate_pairs()
        assert n_raw == len(ri) == 12 * 11 // 2
        assert np.array_equal(i, ri) and np.array_equal(j, rj)

    def test_exact_kernel_is_not_doing_the_coarse_job_on_ta(self):
        # thermalised Ta slab: the coarse cut may over-include only by
        # rounding slack, so it must hand the exact kernel (almost)
        # nothing to drop
        state = small_slab_state("Ta", (6, 6, 3))
        rng = np.random.default_rng(5)
        positions = state.positions + rng.normal(0.0, 0.08, (state.n_atoms, 3))
        reach = ELEMENTS["Ta"].cutoff + 0.5
        cells = CellList(state.box, reach)
        cells.build(positions)
        ci, cj, n_raw = cells.pairs_within(reach)
        exact, _ = legacy_candidates(cells, positions, reach)
        assert n_raw > 4 * len(ci)  # the cut did its job ...
        assert len(ci) - len(exact[0]) <= 0.001 * len(exact[0])
