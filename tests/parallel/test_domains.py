"""Decomposition invariants: column planning and shard pair ownership.

All single-process — the worker processes call the exact same array
logic (``tile_local_ids`` / ``owned_mask_local`` feeding the serial
list's ``build_candidates``, composed by ``conftest.tile_candidates``),
so pinning it here covers the sharded pipeline's correctness core
without any multiprocessing in the loop.  Columns are ``px x 1`` grids.
"""

import numpy as np
import pytest

from repro.md.neighbor_list import NeighborList
from repro.parallel.domains import plan_axis, plan_grid
from tests.conftest import small_slab_state, tile_candidates


def _pair_set(i, j):
    lo = np.minimum(i, j)
    hi = np.maximum(i, j)
    return set(zip(lo.tolist(), hi.tolist()))


class TestPlanColumns:
    def test_edges_partition_the_line(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-5.0, 20.0, size=400)
        for w in (1, 2, 4, 7):
            edges = plan_axis(x, w, cell_width=2.0)
            assert edges.shape == (w + 1,)
            assert edges[0] == -np.inf and edges[-1] == np.inf
            assert np.all(np.diff(edges) >= 0)
            owner = np.searchsorted(edges, x, side="right") - 1
            assert owner.min() >= 0 and owner.max() <= w - 1

    def test_counts_roughly_balanced_on_uniform_data(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0.0, 40.0, size=2000)
        edges = plan_axis(x, 4, cell_width=1.0)
        counts = np.histogram(x, bins=edges)[0]
        assert counts.sum() == len(x)
        # column granularity limits balance; uniform data stays close
        assert counts.max() <= 1.5 * len(x) / 4

    def test_single_shard_owns_everything(self):
        edges = plan_axis(np.array([0.0, 1.0, 2.0]), 1, cell_width=1.0)
        assert list(edges) == [-np.inf, np.inf]

    def test_empty_input(self):
        edges = plan_axis(np.empty(0), 3, cell_width=1.0)
        assert edges[0] == -np.inf and np.all(np.isinf(edges[1:]))

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            plan_axis(np.array([0.0]), 0, cell_width=1.0)

    def test_crowded_column_duplicates_edge_not_atoms(self):
        # all atoms in one cell column: interior edges collapse, shards
        # beyond the first go empty, nothing is double-owned
        x = np.full(100, 3.14)
        edges = plan_axis(x, 4, cell_width=1.0)
        owner = np.searchsorted(edges, x, side="right") - 1
        assert len(np.unique(owner)) == 1


class TestBuildShardPairs:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_shard_union_is_the_serial_candidate_set(
        self, ta_potential, n_shards
    ):
        state = small_slab_state("Ta", (5, 5, 2), temperature=400.0)
        cutoff, skin = ta_potential.cutoff, 0.5
        nl = NeighborList(state.box, cutoff, skin)
        nl.rebuild(state.positions)
        serial = _pair_set(nl.candidates.i, nl.candidates.j)

        grid = plan_grid(state.positions, n_shards, 1, cutoff + skin)
        sharded: set = set()
        total = 0
        for k in range(n_shards):
            local, _, cand = tile_candidates(
                state.positions, grid, k, state.box, cutoff + skin
            )
            total += len(cand)
            sharded |= _pair_set(local[cand.i], local[cand.j])
        # exactly-once: no shard overlap (union size == summed sizes)
        assert total == len(sharded)
        assert sharded == serial

    def test_owned_counts_partition_atoms(self, ta_potential):
        state = small_slab_state("Ta", (4, 4, 2), temperature=300.0)
        reach = ta_potential.cutoff + 0.5
        grid = plan_grid(state.positions, 3, 1, reach)
        owned = [
            np.count_nonzero(
                tile_candidates(state.positions, grid, k, state.box, reach)[1]
            )
            for k in range(3)
        ]
        assert sum(owned) == state.n_atoms

    def test_pairs_filters_to_cutoff(self, ta_potential):
        state = small_slab_state("Ta", (4, 4, 2), temperature=300.0)
        cutoff = ta_potential.cutoff
        reach = cutoff + 0.5
        grid = plan_grid(state.positions, 2, 1, reach)
        for k in range(2):
            local, _, cand = tile_candidates(
                state.positions, grid, k, state.box, reach
            )
            pack = state.positions[local]
            table = cand.pairs(pack, state.box, cutoff)
            assert table.half
            assert np.all(table.r < cutoff)
            np.testing.assert_allclose(
                table.r,
                np.linalg.norm(pack[table.j] - pack[table.i], axis=1),
            )


class TestCrossStepCuts:
    """The displacement-bound filter cuts are invisible in the output.

    ``pairs(positions, box, cutoff, max_disp)`` may skip the strict mask
    entirely (all-inside) or pre-mask provably out-of-range candidates
    — both must emit the bit-identical PairTable of the plain strict
    filter, for any valid bound.
    """

    def _shard(self, ta_potential, reps=(5, 5, 2)):
        state = small_slab_state("Ta", reps, temperature=400.0)
        reach = ta_potential.cutoff + 0.5
        grid = plan_grid(state.positions, 1, 1, reach)
        _, _, cand = tile_candidates(
            state.positions, grid, 0, state.box, reach
        )
        return state, cand  # one tile: pack-local ids are global ids

    def _assert_tables_equal(self, a, b):
        assert np.array_equal(a.i, b.i)
        assert np.array_equal(a.j, b.j)
        assert np.array_equal(a.rij, b.rij)
        assert np.array_equal(a.r, b.r)

    def test_all_inside_bound_emits_identical_bits(self, ta_potential):
        state, sp = self._shard(ta_potential)
        cutoff = ta_potential.cutoff
        # a crystalline slab's populated shells all sit inside the
        # cutoff, so a sub-threshold bound proves all-inside
        margin = cutoff - sp.r_build_max()
        assert margin > 0  # the workload the fast path was built for
        bound = 0.49 * margin
        plain = sp.pairs(state.positions, state.box, cutoff)
        fast = sp.pairs(state.positions, state.box, cutoff, max_disp=bound)
        assert len(fast.i) == len(sp)  # the mask was skipped
        self._assert_tables_equal(plain, fast)

    def test_premask_bound_emits_identical_bits(self, ta_potential):
        state, sp = self._shard(ta_potential)
        # shrink the effective cutoff below the candidate shells so
        # the pre-mask arm (not all-inside) engages and actually cuts
        cutoff = 0.8 * float(np.median(sp.r_build))
        assert sp.premask_can_cut(cutoff)
        plain = sp.pairs(state.positions, state.box, cutoff)
        masked = sp.pairs(state.positions, state.box, cutoff, max_disp=0.0)
        self._assert_tables_equal(plain, masked)

    def test_bound_none_is_the_plain_filter(self, ta_potential):
        state, sp = self._shard(ta_potential)
        cutoff = ta_potential.cutoff
        a = sp.pairs(state.positions, state.box, cutoff)
        b = sp.pairs(state.positions, state.box, cutoff, max_disp=None)
        self._assert_tables_equal(a, b)


class TestInteriorBoundarySplit:
    """The interior/boundary pair partition behind the overlap protocol.

    Interior pairs touch only owned atoms (computable before any halo
    data arrives); boundary pairs touch at least one ghost.  The split
    must be exact and lossless — every candidate lands in exactly one
    class, with its ``r_build`` record riding along — because the
    worker sums the two passes back together and the result must match
    the unsplit pass bit for bit.
    """

    def _shard_with_ghosts(self, ta_potential, reps=(5, 5, 2)):
        state = small_slab_state("Ta", reps, temperature=400.0)
        reach = ta_potential.cutoff + 0.5
        grid = plan_grid(state.positions, 2, 1, reach)
        _, owned, sp = tile_candidates(
            state.positions, grid, 0, state.box, reach
        )
        return sp, owned

    @staticmethod
    def _interior(sp, owned):
        """The mask ``ShardWorker`` splits at: both endpoints owned."""
        return owned[sp.i] & owned[sp.j]

    def test_split_is_an_exact_partition(self, ta_potential):
        sp, owned = self._shard_with_ghosts(ta_potential)
        inside, seam = sp.split(self._interior(sp, owned))
        assert len(inside) + len(seam) == len(sp)
        assert len(seam) > 0  # a 2-column shard has a seam
        assert len(inside) > 0
        split = _pair_set(
            np.concatenate([inside.i, seam.i]),
            np.concatenate([inside.j, seam.j]),
        )
        assert split == _pair_set(sp.i, sp.j)

    def test_classes_honor_the_ownership_rule(self, ta_potential):
        sp, owned = self._shard_with_ghosts(ta_potential)
        inside, seam = sp.split(self._interior(sp, owned))
        assert np.all(owned[inside.i] & owned[inside.j])
        assert not np.any(owned[seam.i] & owned[seam.j])

    def test_r_build_rides_the_split(self, ta_potential):
        sp, owned = self._shard_with_ghosts(ta_potential)
        mask = self._interior(sp, owned)
        inside, seam = sp.split(mask)
        assert np.array_equal(inside.r_build, sp.r_build[mask])
        assert np.array_equal(seam.r_build, sp.r_build[~mask])

    def test_all_owned_yields_empty_boundary(self, ta_potential):
        sp, owned = self._shard_with_ghosts(ta_potential)
        everything = np.ones_like(owned)
        inside, seam = sp.split(self._interior(sp, everything))
        assert len(inside) == len(sp)
        assert len(seam) == 0
        assert np.array_equal(inside.i, sp.i)
        assert np.array_equal(inside.j, sp.j)
