"""The cell sweep kernel, ``cell_pairs``: native against numpy, bitwise.

``CellList`` plans a rebuild's sweep (binning, the stable sort, the
stencil, the over-inclusive cut) and the active
tier's ``cell_pairs`` walks it.  The native body must emit the numpy
body's ``(i, j, n_raw)`` exactly -- the same pairs in the same order,
the same dtype -- on every plan a build can make, and both must be the
staged oracle ``TestStreamingSweep`` holds the sweep to.  A plan the C
loop does not take runs the numpy body instead.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as kernels
from repro.kernels import numpy_backend
from repro.md.boundary import Box
from repro.md.cell_list import CellList
from repro.md.neighbor_list import build_candidates
from repro.potentials.elements import ELEMENTS
from tests.md.test_cell_list import BOX_KINDS, assert_sweep_is_the_staged_oracle

_NATIVE_STATUS = kernels.backend_status()["native"]
needs_native = pytest.mark.skipif(
    _NATIVE_STATUS != "ok", reason=f"native tier unavailable: {_NATIVE_STATUS}"
)
if _NATIVE_STATUS == "ok":
    from repro.kernels import native_backend
else:
    native_backend = None


@pytest.fixture(autouse=True)
def restore_backend():
    yield
    kernels.set_backend(kernels.DEFAULT_BACKEND)


def _same(got, want):
    """Two ``(i, j, n_raw)`` results, equal in values, dtypes and shapes."""
    assert got[2] == want[2]
    for a, b in zip(got[:2], want[:2]):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


@st.composite
def hostile_sweeps(draw):
    """A cloud and a cell list built on it, hostile on purpose.

    Open, periodic and mixed boxes; edges from just over two reaches
    (periodic dims that thin fall back to brute force) up, or
    exactly three cells along every periodic dim; atoms several box
    lengths outside along periodic dims; duplicated positions.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 90))
    reach = draw(st.floats(1.0, 3.0))
    periodic = np.array(BOX_KINDS[draw(st.sampled_from(sorted(BOX_KINDS)))])
    if draw(st.booleans()):
        edges = [draw(st.floats(3.0, 3.95)) for _ in range(3)]
    else:
        edges = [draw(st.floats(2.05, 7.0)) for _ in range(3)]
    lengths = reach * np.array(edges)
    positions = rng.uniform(0.0, 1.0, size=(n, 3)) * lengths
    if draw(st.booleans()):
        positions += rng.integers(-3, 4, size=(n, 3)) * lengths * periodic
    if draw(st.booleans()):  # some atoms share a position
        twins = rng.integers(0, n, size=n // 3)
        positions[rng.integers(0, n, size=n // 3)] = positions[twins]
    box = Box(lengths, periodic=periodic, origin=np.zeros(3))
    cells = CellList(box, reach)
    cells.build(positions)
    return cells, positions, reach


@needs_native
class TestCellPairsEquivalence:
    @given(hostile_sweeps())
    @settings(max_examples=120, deadline=None)
    def test_native_is_the_numpy_body_and_the_oracle(self, case):
        cells, positions, reach = case
        if cells._use_brute:  # no plan, no kernel: both tiers alike
            want = cells.pairs_within(reach)
            kernels.set_backend("numpy")
            _same(cells.pairs_within(reach), want)
            return
        args = cells._sweep_args(reach)
        before = native_backend.declined
        got = native_backend.cell_pairs(*args)
        assert native_backend.declined == before  # the C loop ran
        _same(got, numpy_backend.cell_pairs(*args))
        assert_sweep_is_the_staged_oracle(cells, positions, reach, got)

    def test_pairs_within_runs_the_active_tier(self, monkeypatch):
        rng = np.random.default_rng(2)
        cells = CellList(Box.cube_periodic(12.0), 3.0)
        cells.build(rng.uniform(0.0, 12.0, size=(200, 3)))
        seen = []
        for tier in (native_backend, numpy_backend):
            body = tier.cell_pairs
            monkeypatch.setattr(tier, "cell_pairs",
                                lambda *a, _b=body, _t=tier: seen.append(_t)
                                or _b(*a))
        kernels.set_backend("native")
        want = cells.pairs_within(3.0)
        kernels.set_backend("numpy")
        _same(cells.pairs_within(3.0), want)
        assert seen == [native_backend, numpy_backend]

    def test_a_plan_that_is_not_one_declines_to_numpy(self):
        """coords no longer the unravelled cell id: numpy walks what it
        is given, the C loop declines and hands it the same call."""
        rng = np.random.default_rng(4)
        cells = CellList(Box.open([14.0, 14.0, 14.0]), 3.0)
        cells.build(rng.uniform(0.0, 12.0, size=(150, 3)))
        cols, order, cid, coords, *rest = cells._sweep_args(3.0)
        coords = coords.copy()
        coords[0] = (coords[0] + 1) % cells._ncell
        args = (cols, order, cid, coords, *rest)
        before = native_backend.declined
        got = native_backend.cell_pairs(*args)
        assert native_backend.declined == before + 1
        _same(got, numpy_backend.cell_pairs(*args))

    def test_more_survivors_than_the_bound_declines_to_numpy(self):
        """A stencil repeating one offset emits every pair of two cells
        once per copy: past the bound an alias-free plan keeps to, so
        the C loop declines rather than write past its outputs."""
        pos = np.array([[0.5, 0.5, 0.5]] * 5 + [[2.6, 0.5, 0.5]] * 5)
        cells = CellList(Box.open([3.0, 1.0, 1.0]), 1.0)
        cells.build(pos)
        cols, order, cid, coords, starts, counts, ncell, periodic, _, \
            lengths, r2 = cells._sweep_args(1.0)
        stencil = np.array([[1, 0, 0]] * 4)
        args = (cols, order, cid, coords, starts, counts, ncell, periodic,
                stencil, lengths, 10.0)
        before = native_backend.declined
        got = native_backend.cell_pairs(*args)
        assert native_backend.declined == before + 1
        _same(got, numpy_backend.cell_pairs(*args))
        assert len(got[0]) == 4 * 25 + 2 * 10 > 10 * 9 // 2

    def test_the_probe_covers_the_sweep(self, monkeypatch):
        assert "cell_pairs" in native_backend._expected()
        honest = native_backend.cell_pairs

        def one_pair_short(*args):
            i, j, n_raw = honest(*args)
            return i[:-1], j[:-1], n_raw

        monkeypatch.setattr(native_backend, "cell_pairs", one_pair_short)
        with pytest.raises(ImportError, match="cell_pairs"):
            native_backend._probe()

    def test_the_16k_slab_funnel_is_equal_on_both_tiers(self):
        """The ledger's slab at skin 0.5: the rebuild's candidates and
        its three funnel counts (raw, coarse, exact) alike."""
        from repro.runtime import RunSpec
        from repro.runtime.engines import build_state, seed_streams

        spec = RunSpec(element="Ta", reps=(20, 20, 20), engine="reference")
        state, _ = build_state(spec, seed_streams(7)["velocities"])
        reach = ELEMENTS["Ta"].cutoff + 0.5
        built = {}
        for tier in ("native", "numpy"):
            kernels.set_backend(tier)
            cand, rij = build_candidates(CellList(state.box, reach),
                                         state.positions)
            built[tier] = cand, rij
        (a, rij_a), (b, rij_b) = built["native"], built["numpy"]
        assert a.funnel == b.funnel and a.funnel[0] > 10**6
        for x, y in ((a.i, b.i), (a.j, b.j), (a.r_build, b.r_build),
                     (rij_a, rij_b)):
            assert np.array_equal(x, y)
