"""2D domain-grid invariants: axis planning, tiling, seam ownership.

Property-based in spirit: the seam suite sweeps random point clouds and
several topologies and asserts the two decomposition theorems the
pipeline's correctness rests on — every undirected candidate pair is
kept by *exactly one* tile, and the union over tiles is the serial
:class:`~repro.md.neighbor_list.NeighborList` candidate set.  All
single-process, like ``test_domains.py``.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md.boundary import Box
from repro.md.cell_list import CellList
from repro.md.neighbor_list import NeighborList, build_candidates
from repro.obs import reset_warnings
from repro.parallel import domains
from repro.parallel.domains import DomainGrid, plan_axis, plan_grid
from tests.conftest import (
    legacy_candidates,
    small_slab_state,
    tile_candidates,
)

TOPOLOGIES = [(1, 1), (2, 1), (1, 3), (2, 2), (3, 2), (4, 4)]


def _pair_set(i, j):
    lo = np.minimum(i, j)
    hi = np.maximum(i, j)
    return set(zip(lo.tolist(), hi.tolist()))


def _random_cloud(seed, n=300, span=(18.0, 12.0, 6.0)):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, 1.0, size=(n, 3)) * np.asarray(span)
    box = Box.open(np.asarray(span) + 10.0)
    return positions, box


def _serial_candidates(positions, box, reach):
    nl = NeighborList(box, reach - 0.5, 0.5)
    nl.rebuild(positions)
    return _pair_set(nl.candidates.i, nl.candidates.j)


class TestPlanAxisDegenerate:
    """Satellite regression: n_parts > available cell columns."""

    def setup_method(self):
        reset_warnings()

    def test_caps_and_warns_once(self):
        x = np.full(50, 2.5)  # one cell column, however wide the cells
        with pytest.warns(RuntimeWarning, match="x-axis.*capping"):
            edges = plan_axis(x, 4, cell_width=3.0)
        # warned once per (axis, requested, available) shape
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            edges2 = plan_axis(x, 4, cell_width=3.0)
        np.testing.assert_array_equal(edges, edges2)
        # a different shape warns again
        with pytest.warns(RuntimeWarning):
            plan_axis(x, 5, cell_width=3.0)

    def test_capped_edges_still_partition(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 4.0, size=200)  # ~2 columns at width 2
        with pytest.warns(RuntimeWarning):
            edges = plan_axis(x, 8, cell_width=2.0)
        assert edges.shape == (9,)
        assert np.all(edges[:-1] <= edges[1:])  # inf-safe monotonicity
        owner = np.searchsorted(edges, x, side="right") - 1
        counts = np.bincount(owner, minlength=8)
        assert counts.sum() == len(x)
        # trailing shards beyond the cap are empty, earlier ones are not
        assert counts[0] > 0 and np.all(counts[2:] == 0)

    def test_adequate_columns_do_not_warn(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, 40.0, size=500)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan_axis(x, 4, cell_width=2.0)


class TestDomainGrid:
    def test_tiles_partition_every_atom(self):
        positions, _ = _random_cloud(5)
        for px, py in TOPOLOGIES:
            grid = plan_grid(positions, px, py, cell_width=3.0)
            # the ownership test the parent and every rank share puts
            # each atom in exactly one tile's rectangle
            owners = sum(
                domains.owned_mask_local(
                    positions, grid.tile_bounds(tile)
                ).astype(int)
                for tile in range(grid.px * grid.py)
            )
            assert np.all(owners == 1)

    def test_tile_coords_round_trip(self):
        positions, _ = _random_cloud(6)
        grid = plan_grid(positions, 3, 2, cell_width=3.0)
        seen = set()
        for tile in range(grid.px * grid.py):
            ix, iy = grid.tile_coords(tile)
            assert 0 <= ix < 3 and 0 <= iy < 2
            seen.add((ix, iy))
        assert len(seen) == grid.px * grid.py

    def test_balanced_counts_on_uniform_cloud(self):
        positions, _ = _random_cloud(7, n=4000, span=(40.0, 40.0, 4.0))
        grid = plan_grid(positions, 2, 2, cell_width=2.0)
        counts = [
            np.count_nonzero(
                domains.owned_mask_local(positions, grid.tile_bounds(t))
            )
            for t in range(4)
        ]
        assert max(counts) <= 1.5 * len(positions) / 4

    def test_rejects_bad_shapes(self):
        inf = np.array([-np.inf, np.inf])
        with pytest.raises(ValueError, match="1x1"):
            DomainGrid(px=0, py=1, x_edges=inf, y_edges=inf)
        with pytest.raises(ValueError, match="px"):
            DomainGrid(px=2, py=1, x_edges=inf, y_edges=inf)


class TestSeamRule:
    """The decomposition theorems, swept over random configurations."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_each_pair_kept_exactly_once_and_union_is_serial(
        self, seed, topology
    ):
        positions, box = _random_cloud(seed)
        reach = 3.0
        px, py = topology
        grid = plan_grid(positions, px, py, cell_width=reach)
        serial = _serial_candidates(positions, box, reach)
        union: set = set()
        total = 0
        for tile in range(grid.px * grid.py):
            local, _, cand = tile_candidates(
                positions, grid, tile, box, reach
            )
            total += len(cand)
            union |= _pair_set(local[cand.i], local[cand.j])
        assert total == len(union)  # no tile overlap
        assert union == serial

    @pytest.mark.parametrize("topology", [(2, 2), (3, 2)])
    def test_owned_counts_partition_atoms(self, topology):
        positions, box = _random_cloud(9)
        px, py = topology
        grid = plan_grid(positions, px, py, cell_width=3.0)
        owned = [
            np.count_nonzero(tile_candidates(positions, grid, t, box, 3.0)[1])
            for t in range(grid.px * grid.py)
        ]
        assert sum(owned) == len(positions)

    def test_physical_slab_2x2_matches_serial(self, ta_potential):
        state = small_slab_state("Ta", (5, 5, 2), temperature=400.0)
        reach = ta_potential.cutoff + 0.5
        grid = plan_grid(state.positions, 2, 2, reach)
        nl = NeighborList(state.box, ta_potential.cutoff, 0.5)
        nl.rebuild(state.positions)
        serial = _pair_set(nl.candidates.i, nl.candidates.j)
        union: set = set()
        for tile in range(4):
            local, _, cand = tile_candidates(
                state.positions, grid, tile, state.box, reach
            )
            union |= _pair_set(local[cand.i], local[cand.j])
        assert union == serial

    def test_seam_rule_survives_unbalanced_edges(self):
        # the ownership theorem must not depend on balanced planning:
        # hand the tiles a deliberately lopsided grid
        positions, box = _random_cloud(12)
        grid = DomainGrid(
            px=2, py=2,
            x_edges=np.array([-np.inf, 2.0, np.inf]),
            y_edges=np.array([-np.inf, 9.5, np.inf]),
        )
        serial = _serial_candidates(positions, box, 3.0)
        union: set = set()
        total = 0
        for tile in range(4):
            local, _, cand = tile_candidates(positions, grid, tile, box, 3.0)
            total += len(cand)
            union |= _pair_set(local[cand.i], local[cand.j])
        assert total == len(union)
        assert union == serial


@st.composite
def tile_cases(draw):
    """A random open-box cloud with a random owned mask.

    The mask is deliberately *not* a rectangle: the seam rule and the
    dead-cell pruning are statements about an arbitrary owned subset,
    and ragged subsets stress them harder than any tiling would.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 120))
    reach = draw(st.floats(1.5, 3.5))
    span = reach * np.array([draw(st.floats(0.5, 6.0)) for _ in range(3)])
    positions = rng.uniform(0.0, 1.0, size=(n, 3)) * span
    if draw(st.booleans()):
        positions += 1e6
    owned = rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))
    return positions, Box.open(span + 10.0), reach, owned


class TestShardSweep:
    """An owned subset rides the serial rebuild's streaming sweep."""

    @given(tile_cases())
    @settings(max_examples=120, deadline=None)
    def test_equals_legacy_composition_in_order(self, case):
        positions, box, reach, owned = case
        cells = CellList(box, reach)
        sp, rij_build = build_candidates(cells, positions, owned=owned)
        (li, lj, rij, r), (ri, _) = legacy_candidates(
            cells, positions, reach, live=owned, seam=True
        )
        assert np.array_equal(sp.i, li)
        assert np.array_equal(sp.j, lj)
        assert np.array_equal(sp.r_build, r)
        assert np.array_equal(rij_build, rij)
        n_raw, n_coarse, n_exact = sp.funnel
        assert n_raw == len(ri)
        assert n_raw >= n_coarse >= n_exact == len(li)

    def test_tile_funnels_sum_to_the_serial_funnel_on_ta(self, ta_potential):
        state = small_slab_state("Ta", (6, 6, 3), temperature=400.0)
        reach = ta_potential.cutoff + 0.5
        serial_list = NeighborList(state.box, ta_potential.cutoff, 0.5)
        serial_list.rebuild(state.positions)
        serial = dict(zip(("raw_candidates", "coarse_kept", "exact_kept"),
                          serial_list.candidates.funnel))
        grid = plan_grid(state.positions, 2, 2, reach)
        funnels = np.array([
            tile_candidates(state.positions, grid, t, state.box, reach)[2]
            .funnel
            for t in range(4)
        ])
        raw, coarse, exact = funnels.sum(axis=0)
        assert exact == serial["exact_kept"]
        # on a crystal nothing sits in the rounding sliver past the reach
        assert coarse == serial["coarse_kept"]
        assert coarse - exact <= 0.001 * exact
        # halo rings are enumerated twice, dead ring-ring blocks never
        assert raw != serial["raw_candidates"]


class _PackChannel:
    """The two channel calls ``ShardWorker._reduce`` / ``_stage`` make."""

    def __init__(self):
        self.staged = {}
        self.routed = {}

    def put(self, name, data):
        self.staged[name] = np.array(data)

    def get(self, name, n):
        assert len(self.routed[name]) == n
        return self.routed[name]


class TestSeamPlan:
    """The seam plan and the holder-side reduction it feeds: what every
    holder ends up with is, bit for bit, the parent-side ``bincount``
    over the rank-concatenated ids that it replaced."""

    def _tiles(self, seed, topology, reach=3.0):
        positions, box = _random_cloud(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            grid = plan_grid(positions, *topology, cell_width=reach)
        ids = [
            domains.tile_local_ids(positions, grid, t, reach)
            for t in range(grid.px * grid.py)
        ]
        return positions, box, ids

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_seam_rows_are_the_rows_with_several_holders(self, topology):
        positions, _, ids = self._tiles(11, topology)
        seam, take, segs = domains.seam_plan(ids, len(positions))
        holders = np.bincount(np.concatenate(ids), minlength=len(positions))
        for k, local in enumerate(ids):
            assert np.array_equal(local[seam[k]], local[holders[local] > 1])
            assert segs[k][k] is None
            # one routed row per (seam row, other holder)
            assert len(take[k]) == int(np.sum(holders[local[seam[k]]] - 1))

    @pytest.mark.parametrize("columns", [(), (3,)])
    @pytest.mark.parametrize("topology", [(2, 1), (2, 2), (3, 2), (4, 4)])
    def test_every_holder_lands_on_the_bincount_bits(
        self, topology, columns, ta_potential
    ):
        from repro.parallel.transport import ShardWorker

        positions, box, ids = self._tiles(12, topology)
        n = len(positions)
        seam, take, segs = domains.seam_plan(ids, n)
        rng = np.random.default_rng(13)
        # partials of wildly different magnitude, exact zeros included:
        # any other addition order shows up in the low bits
        parts = [
            rng.normal(size=(len(i), *columns))
            * 10.0 ** rng.integers(-8, 8, size=(len(i), *columns))
            * (rng.random(size=(len(i), *columns)) > 0.2)
            for i in ids
        ]
        flat = np.concatenate(ids)
        stacked = np.concatenate(parts).reshape(len(flat), -1)
        expected = np.stack([
            np.bincount(flat, weights=column, minlength=n)
            for column in stacked.T
        ], axis=1).reshape(n, *columns)
        cfg = {
            "potential": ta_potential, "cutoff": ta_potential.cutoff,
            "masses": np.array([1.0]), "box": box, "reach": 3.0,
        }
        workers = []
        for k in range(len(ids)):
            worker = ShardWorker(_PackChannel(), cfg)
            worker.seam, worker.segs = seam[k], segs[k]
            workers.append(worker)
        mine = [w._stage("x", part) for w, part in zip(workers, parts)]
        staged = np.concatenate([w.channel.staged["x"] for w in workers])
        for k, worker in enumerate(workers):
            worker.channel.routed["x_in"] = staged[take[k]]
            worker._reduce(parts[k], mine[k], "x_in")
            assert np.array_equal(parts[k], expected[ids[k]]), k
            # idempotent: a repeated force round reads the staged copy
            worker._reduce(parts[k], mine[k], "x_in")
            assert np.array_equal(parts[k], expected[ids[k]]), k
