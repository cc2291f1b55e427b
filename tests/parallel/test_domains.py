"""Decomposition invariants: column planning and shard pair lists.

All single-process — the worker processes call the exact same array
logic (``tile_local_ids`` / ``owned_mask_local`` cutting the pack the
serial list's ``build_candidates`` builds on, composed by
``conftest.tile_candidates``), so pinning it here covers the sharded
pipeline's correctness core without any multiprocessing in the loop.
Columns are ``px x 1`` grids.  The ranks themselves are checked
against that same composition over the ``inline`` mover, which runs
them in this process.
"""

import numpy as np
import pytest

from repro.md.integrators import LeapfrogVerlet
from repro.md.neighbor_list import Candidates, NeighborList
from repro.parallel import ShardedForcePipeline
from repro.parallel.domains import plan_axis, plan_grid
from repro.potentials.elements import make_element_potential
from tests.conftest import small_slab_state, tile_candidates

TOPOLOGIES = ((1, 2), (2, 2), (4, 1))


def _layout_id(topology):
    return f"{topology[0]}x{topology[1]}"


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
                state.positions, grid, k, state.box, cutoff + skin,
                2 * cutoff + skin,
            )
            total += len(cand)
            sharded |= _pair_set(local[cand.i], local[cand.j])
        # the ghost shells overlap: a pair near a seam is listed by
        # every tile that holds both members
        assert (total == len(sharded)) == (n_shards == 1)
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
        assert sp.r_build_max() > cutoff + 1e-9  # a candidate to cut
        plain = sp.pairs(state.positions, state.box, cutoff)
        masked = sp.pairs(state.positions, state.box, cutoff, max_disp=0.0)
        self._assert_tables_equal(plain, masked)

    def test_bound_none_is_the_plain_filter(self, ta_potential):
        state, sp = self._shard(ta_potential)
        cutoff = ta_potential.cutoff
        a = sp.pairs(state.positions, state.box, cutoff)
        b = sp.pairs(state.positions, state.box, cutoff, max_disp=None)
        self._assert_tables_equal(a, b)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # halo-dominated
class TestOneClassRank:
    """A rank is the serial engine on its pack.

    Its candidates are one :class:`~repro.md.neighbor_list.Candidates`,
    the serial builder's own output on the rank's pack (owned rows plus
    the ghost shell), and a steady step is one ``md_step`` call of one
    step.  Driven through the ``inline`` mover, whose ranks are
    :class:`~repro.parallel.transport.ShardWorker` objects in this
    process.
    """

    @staticmethod
    def _pipeline(topology):
        state = small_slab_state("Ta", (6, 6, 2), temperature=350.0)
        pipe = ShardedForcePipeline(
            state, make_element_potential("Ta"),
            topology=topology, transport="inline",
        )
        return state, pipe

    @pytest.mark.parametrize("topology", TOPOLOGIES, ids=_layout_id)
    def test_rank_candidates_are_the_serial_build_on_its_pack(
        self, topology
    ):
        state, pipe = self._pipeline(topology)
        try:
            pipe.compute(state.positions)  # the first plan
            grid = plan_grid(state.positions, *topology, pipe.reach)
            ranks = pipe.transport.mover._workers
            assert len(ranks) == topology[0] * topology[1]
            for tile, rank in enumerate(ranks):
                local, _, want = tile_candidates(
                    state.positions, grid, tile, state.box, pipe.reach,
                    pipe.depth,
                )
                assert np.array_equal(local, pipe._ids[tile])
                got = rank.sim.neighbors.candidates
                assert isinstance(got, Candidates)
                for name in ("i", "j", "r_build"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert np.array_equal(a, b), name
                assert got.funnel == want.funnel
        finally:
            pipe.close()

    @pytest.mark.parametrize("topology", ((1, 1), *TOPOLOGIES),
                             ids=_layout_id)
    def test_steady_step_is_one_md_step_call_per_rank(
        self, topology, monkeypatch
    ):
        from repro.kernels import (
            active_backend_name,
            numpy_backend,
            set_backend,
        )

        base = active_backend_name()
        set_backend("numpy")
        state, pipe = self._pipeline(topology)
        try:
            pipe.advance(state, 1, LeapfrogVerlet(2.0))  # plan + step
            calls = []
            md_step = numpy_backend.md_step

            def counted(*args, **kwargs):
                calls.append(args[-1])  # n_steps
                return md_step(*args, **kwargs)

            monkeypatch.setattr(numpy_backend, "md_step", counted)
            pipe.advance(state, 3, LeapfrogVerlet(2.0))
            assert pipe.n_builds == 1  # the counted steps were steady
            assert calls == [1] * 3 * pipe.n_workers
        finally:
            pipe.close()
            set_backend(base)
