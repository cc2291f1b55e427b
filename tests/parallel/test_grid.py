"""2D domain-grid invariants: axis planning, tiling, the ghost shell.

Property-based in spirit: the shell suite sweeps random point clouds and
several topologies and asserts the decomposition theorems the
pipeline's correctness rests on — while no atom has moved skin/2 since
the plan, every partner of every owned row's partners is local to the
owner's tile (so a rank steps its owned rows as the serial engine
does), the union over tiles is the serial
:class:`~repro.md.neighbor_list.NeighborList` candidate set, and every
ghost row has exactly one source, its owner.  All single-process, like
``test_domains.py``.
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


class TestShellRule:
    """The decomposition theorems, swept over random configurations."""

    CUTOFF, SKIN = 2.5, 0.5
    REACH = CUTOFF + SKIN
    DEPTH = 2 * CUTOFF + SKIN

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_union_is_serial_and_owned_pairs_stay_home(
        self, seed, topology
    ):
        """Every serial candidate pair with an owned member is in its
        owner's tile list, and the tiles list nothing else."""
        positions, box = _random_cloud(seed)
        px, py = topology
        grid = plan_grid(positions, px, py, cell_width=self.REACH)
        serial = _serial_candidates(positions, box, self.REACH)
        union: set = set()
        for tile in range(grid.px * grid.py):
            local, owned, cand = tile_candidates(
                positions, grid, tile, box, self.REACH, self.DEPTH
            )
            pairs = _pair_set(local[cand.i], local[cand.j])
            mine = set(local[owned].tolist())
            assert {p for p in serial if mine & set(p)} <= pairs
            union |= pairs
        assert union == serial

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_shell_holds_every_partner_of_every_partner(
        self, seed, topology
    ):
        """Plan, then move every atom by up to skin/2: each owned row's
        density partners and *their* partners (within the cutoff, now)
        are still local to the owner's tile."""
        positions, _ = _random_cloud(seed)
        px, py = topology
        grid = plan_grid(positions, px, py, cell_width=self.REACH)
        rng = np.random.default_rng(seed)
        step = rng.normal(size=positions.shape)
        step *= (0.4999 * self.SKIN * rng.random((len(positions), 1))
                 / np.linalg.norm(step, axis=1, keepdims=True))
        moved = positions + step
        d = np.linalg.norm(moved[:, None] - moved[None, :], axis=-1)
        near = (d < self.CUTOFF) & ~np.eye(len(moved), dtype=bool)
        for tile in range(grid.px * grid.py):
            local = domains.tile_local_ids(positions, grid, tile, self.DEPTH)
            owned = local[domains.owned_mask_local(
                positions[local], grid.tile_bounds(tile))]
            partners = near[owned].any(axis=0)
            second = near[partners].any(axis=0) | partners
            assert np.isin(np.flatnonzero(second), local).all()

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
        depth = 2 * ta_potential.cutoff + 0.5
        grid = plan_grid(state.positions, 2, 2, reach)
        nl = NeighborList(state.box, ta_potential.cutoff, 0.5)
        nl.rebuild(state.positions)
        serial = _pair_set(nl.candidates.i, nl.candidates.j)
        union: set = set()
        for tile in range(4):
            local, _, cand = tile_candidates(
                state.positions, grid, tile, state.box, reach, depth
            )
            union |= _pair_set(local[cand.i], local[cand.j])
        assert union == serial

    def test_shell_survives_unbalanced_edges(self):
        # the theorems must not depend on balanced planning: hand the
        # tiles a deliberately lopsided grid
        positions, box = _random_cloud(12)
        grid = DomainGrid(
            px=2, py=2,
            x_edges=np.array([-np.inf, 2.0, np.inf]),
            y_edges=np.array([-np.inf, 9.5, np.inf]),
        )
        serial = _serial_candidates(positions, box, self.REACH)
        union: set = set()
        for tile in range(4):
            local, owned, cand = tile_candidates(
                positions, grid, tile, box, self.REACH, self.DEPTH
            )
            pairs = _pair_set(local[cand.i], local[cand.j])
            mine = set(local[owned].tolist())
            assert {p for p in serial if mine & set(p)} <= pairs
            union |= pairs
        assert union == serial


@st.composite
def tile_cases(draw):
    """A random open-box cloud, offset far from the origin or not."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 120))
    reach = draw(st.floats(1.5, 3.5))
    span = reach * np.array([draw(st.floats(0.5, 6.0)) for _ in range(3)])
    positions = rng.uniform(0.0, 1.0, size=(n, 3)) * span
    if draw(st.booleans()):
        positions += 1e6
    return positions, Box.open(span + 10.0), reach


class TestShardSweep:
    """A tile's pack rides the serial rebuild's streaming sweep."""

    @given(tile_cases())
    @settings(max_examples=120, deadline=None)
    def test_equals_legacy_composition_in_order(self, case):
        positions, box, reach = case
        cells = CellList(box, reach)
        sp, rij_build = build_candidates(cells, positions)
        (li, lj, rij, r), (ri, _) = legacy_candidates(
            cells, positions, reach
        )
        assert np.array_equal(sp.i, li)
        assert np.array_equal(sp.j, lj)
        assert np.array_equal(sp.r_build, r)
        assert np.array_equal(rij_build, rij)
        n_raw, n_coarse, n_exact = sp.funnel
        assert n_raw == len(ri)
        assert n_raw >= n_coarse >= n_exact == len(li)

    def test_tile_funnels_count_the_serial_pairs_they_hold_on_ta(
        self, ta_potential
    ):
        """Each tile keeps exactly the serial candidates both of whose
        members it holds; the shells overlap, so the tiles together
        keep more than the serial build."""
        state = small_slab_state("Ta", (6, 6, 3), temperature=400.0)
        reach = ta_potential.cutoff + 0.5
        depth = 2 * ta_potential.cutoff + 0.5
        serial_list = NeighborList(state.box, ta_potential.cutoff, 0.5)
        serial_list.rebuild(state.positions)
        cand = serial_list.candidates
        grid = plan_grid(state.positions, 2, 2, reach)
        exact = 0
        for t in range(4):
            local, _, tile = tile_candidates(
                state.positions, grid, t, state.box, reach, depth
            )
            held = np.isin(cand.i, local) & np.isin(cand.j, local)
            assert tile.funnel[2] == len(tile) == np.count_nonzero(held)
            exact += tile.funnel[2]
        assert exact > cand.funnel[2]


class TestExportPlan:
    """The export plan: which owned rows each rank stages, and where
    every holder's ghosts come from."""

    def _tiles(self, seed, topology, depth=5.5):
        positions, box = _random_cloud(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            grid = plan_grid(positions, *topology, cell_width=3.0)
        ids = [
            domains.tile_local_ids(positions, grid, t, depth)
            for t in range(grid.px * grid.py)
        ]
        owned = [
            domains.owned_mask_local(positions[i], grid.tile_bounds(t))
            for t, i in enumerate(ids)
        ]
        return positions, ids, owned

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_each_ghost_row_has_one_source_its_owner(self, topology):
        positions, ids, owned = self._tiles(11, topology)
        ghosts, exports, take = domains.export_plan(
            ids, owned, len(positions)
        )
        staged = np.concatenate([i[e] for i, e in zip(ids, exports)])
        source = np.repeat(np.arange(len(ids)), [len(e) for e in exports])
        owner = np.full(len(positions), -1)
        for k, (i, mask) in enumerate(zip(ids, owned)):
            owner[i[mask]] = k
        for k, local in enumerate(ids):
            assert np.array_equal(ghosts[k], np.flatnonzero(~owned[k]))
            rows = local[ghosts[k]]
            assert np.array_equal(staged[take[k]], rows)
            assert np.array_equal(source[take[k]], owner[rows])
            assert np.all(source[take[k]] != k)

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_exports_are_owned_rows_another_tile_holds_once(self, topology):
        positions, ids, owned = self._tiles(12, topology)
        ghosts, exports, _ = domains.export_plan(ids, owned, len(positions))
        held = [set(i[g].tolist()) for i, g in zip(ids, ghosts)]
        staged = np.concatenate([i[e] for i, e in zip(ids, exports)])
        assert len(np.unique(staged)) == len(staged)  # staged once each
        assert set(staged.tolist()) == set().union(*held)
        for k, (local, rows) in enumerate(zip(ids, exports)):
            assert np.all(owned[k][rows])
            assert np.all(np.diff(rows) > 0)  # ascending: pack order

    def test_a_single_tile_exports_nothing(self):
        positions, ids, owned = self._tiles(13, (1, 1))
        ghosts, exports, take = domains.export_plan(
            ids, owned, len(positions)
        )
        assert [len(g) for g in ghosts] == [len(e) for e in exports] == [0]
        assert len(take[0]) == 0
