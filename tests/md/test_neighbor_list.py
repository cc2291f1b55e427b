"""Verlet-list skin/rebuild policy tests."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import active_backend, active_backend_name, set_backend
from repro.md.boundary import Box
from repro.md.cell_list import CellList, all_pairs
from repro.md.neighbor_list import Candidates, NeighborList
from repro.potentials.base import PairTable
from repro.runtime import RunSpec
from repro.runtime.engines import build_engine


@pytest.fixture(autouse=True)
def _restore_backend():
    # building an engine from a spec that names a backend switches the
    # process-wide registry; this file must leave it as it found it
    base = active_backend_name()
    yield
    set_backend(base)


@pytest.fixture()
def cluster():
    rng = np.random.default_rng(4)
    return rng.uniform(0, 10.0, size=(30, 3))


def undirected_set(i, j):
    return {(min(a, b), max(a, b)) for a, b in zip(i.tolist(), j.tolist())}


class TestCorrectness:
    def test_pairs_match_brute_force(self, cluster):
        box = Box.open([25, 25, 25])
        nl = NeighborList(box, 3.0, skin=0.5)
        pairs = nl.pairs(cluster)
        bi, bj, _, _ = all_pairs(cluster, 3.0, box)
        assert pairs.half
        assert pairs.n_pairs == len(bi) // 2
        assert undirected_set(pairs.i, pairs.j) == undirected_set(bi, bj)

    def test_directed_view_matches_brute_force(self, cluster):
        box = Box.open([25, 25, 25])
        pairs = NeighborList(box, 3.0, skin=0.5).pairs(cluster).directed()
        bi, bj, _, _ = all_pairs(cluster, 3.0, box)
        assert not pairs.half
        assert set(zip(pairs.i.tolist(), pairs.j.tolist())) == set(
            zip(bi.tolist(), bj.tolist())
        )

    def test_pairs_correct_after_motion_within_skin(self, cluster):
        box = Box.open([25, 25, 25])
        nl = NeighborList(box, 3.0, skin=1.0)
        nl.pairs(cluster)
        builds = nl.n_builds
        moved = cluster + 0.2  # uniform shift < skin/2
        pairs = nl.pairs(moved)
        assert nl.n_builds == builds  # reused
        bi, bj, _, _ = all_pairs(moved, 3.0, box)
        assert undirected_set(pairs.i, pairs.j) == undirected_set(bi, bj)

    def test_distances_always_current(self, cluster):
        box = Box.open([25, 25, 25])
        nl = NeighborList(box, 3.0, skin=1.0)
        nl.pairs(cluster)
        moved = cluster.copy()
        moved[0] += 0.3
        pairs = nl.pairs(moved)
        expect = np.linalg.norm(moved[pairs.j] - moved[pairs.i], axis=1)
        assert np.allclose(pairs.r, expect)


class TestRebuildPolicy:
    def test_first_call_builds(self, cluster):
        nl = NeighborList(Box.open([25, 25, 25]), 3.0)
        assert nl.rebuild_reason(cluster) == "first"
        nl.pairs(cluster)
        assert nl.n_builds == 1

    def test_rebuild_when_atom_exceeds_half_skin(self, cluster):
        nl = NeighborList(Box.open([25, 25, 25]), 3.0, skin=1.0)
        nl.pairs(cluster)
        moved = cluster.copy()
        moved[5] += np.array([0.6, 0.0, 0.0])  # > skin/2
        assert nl.rebuild_reason(moved) == "displacement"
        nl.pairs(moved)
        assert nl.n_builds == 2

    def test_no_rebuild_below_half_skin(self, cluster):
        nl = NeighborList(Box.open([25, 25, 25]), 3.0, skin=1.0)
        nl.pairs(cluster)
        moved = cluster + 0.1
        assert nl.rebuild_reason(moved) is None

    def test_zero_skin_always_rebuilds(self, cluster):
        nl = NeighborList(Box.open([25, 25, 25]), 3.0, skin=0.0)
        nl.pairs(cluster)
        nl.pairs(cluster)
        assert nl.n_builds == 2

    def test_atom_count_change_forces_rebuild(self, cluster):
        nl = NeighborList(Box.open([25, 25, 25]), 3.0, skin=1.0)
        nl.pairs(cluster)
        assert nl.rebuild_reason(cluster[:-1]) == "size"

    def test_rejects_negative_skin(self):
        with pytest.raises(ValueError):
            NeighborList(Box.open([10, 10, 10]), 3.0, skin=-0.5)


class TestRebuildReasons:
    def test_reason_progression(self, cluster):
        nl = NeighborList(Box.open([25, 25, 25]), 3.0, skin=1.0)
        assert nl.rebuild_reason(cluster) == "first"
        nl.pairs(cluster)
        assert nl.rebuild_reason(cluster) is None
        assert nl.rebuild_reason(cluster[:-1]) == "size"
        moved = cluster.copy()
        moved[3] += np.array([0.7, 0.0, 0.0])
        assert nl.rebuild_reason(moved) == "displacement"

    def test_zero_skin_reason(self, cluster):
        nl = NeighborList(Box.open([25, 25, 25]), 3.0, skin=0.0)
        nl.pairs(cluster)
        assert nl.rebuild_reason(cluster) == "skin_zero"

    def test_stale_guard_catches_tampered_reference(self, cluster):
        # if the cached reference positions are replaced behind the
        # list's back, indexing cached candidates into a smaller array
        # must trigger a rebuild rather than an IndexError (or silently
        # wrong physics)
        nl = NeighborList(Box.open([25, 25, 25]), 3.0, skin=1.0)
        nl.pairs(cluster)
        nl._ref_positions = cluster[:-1].copy()
        builds = nl.n_builds
        pairs = nl.pairs(cluster[:-1])
        assert nl.n_builds == builds + 1
        bi, bj, _, _ = all_pairs(cluster[:-1], 3.0, nl.box)
        assert undirected_set(pairs.i, pairs.j) == undirected_set(bi, bj)

    def test_metrics_count_rebuilds_and_reuses(self, cluster):
        nl = NeighborList(Box.open([25, 25, 25]), 3.0, skin=1.0)
        reasons = []
        for positions in (cluster, cluster + 0.1, cluster + 5.0):
            reasons.append(nl.rebuild_reason(positions))
            nl.pairs(positions)
        # first build, reuse, displacement rebuild
        assert reasons == ["first", None, "displacement"]
        assert nl.n_builds == 2


class TestSkinProperty:
    @given(seed=st.integers(0, 2**16), skin=st.floats(0.2, 2.0))
    @settings(max_examples=20, deadline=None)
    def test_skin_never_changes_the_pair_set(self, seed, skin):
        # a skinned list queried along a random walk must report the
        # same interacting pairs as a skinless (always-rebuilt) list
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 8.0, size=(20, 3))
        box = Box.open([25, 25, 25])
        skinned = NeighborList(box, 3.0, skin=skin)
        skinless = NeighborList(box, 3.0, skin=0.0)
        for _ in range(4):
            a = skinned.pairs(pos)
            b = skinless.pairs(pos)
            assert undirected_set(a.i, a.j) == undirected_set(b.i, b.j)
            np.testing.assert_allclose(
                np.sort(a.r), np.sort(b.r), rtol=1e-12
            )
            pos = pos + rng.uniform(-0.3, 0.3, size=pos.shape)


def kernel_table(nl, positions):
    """What the strict kernel says about the current candidates.

    The *active* backend's kernel: geometry reuse must be bit-neutral
    against whichever exact stage the list itself runs (by default, and
    on CI's native leg, the compiled kernel).
    """
    return active_backend().neighbor_prefilter(
        positions, nl.candidates.i, nl.candidates.j,
        nl.box.lengths, nl.box.periodic,
        nl.cutoff, inclusive=False,
    )


def assert_table_is(table, expect):
    for name, want in zip(("i", "j", "rij", "r"), expect):
        assert np.array_equal(getattr(table, name), want), name


class StagedNeighborList(NeighborList):
    """The two-stage rebuild this list used before the sweep: raw
    stencil stream -> kernel at the reach (indices only) -> kernel at
    the cutoff, every query.  Kept here as the trajectory oracle."""

    def pairs(self, positions):
        if self.rebuild_reason(positions) is not None:
            self._cells.build(positions)
            ci, cj = self._cells.candidate_pairs()
            i, j, _, r = active_backend().neighbor_prefilter(
                positions, ci, cj, self.box.lengths, self.box.periodic,
                self.cutoff + self.skin, inclusive=True,
            )
            self.candidates = Candidates(i, j, r)
            self._ref_positions = positions.copy()
            self._built_n_atoms = len(positions)
            self.n_builds += 1
        i, j, rij, r = kernel_table(self, positions)
        return PairTable(i=i, j=j, rij=rij, r=r, half=True)


class TestBuildGeometryReuse:
    """The rebuild's own geometry serves the query that triggered it —
    bit for bit what the kernel would have re-measured, and never any
    other query."""

    @pytest.mark.parametrize("skin", [0.0, 0.5])
    @pytest.mark.parametrize("periodic", [False, True])
    def test_rebuild_query_equals_a_fresh_kernel_query(
        self, cluster, skin, periodic
    ):
        box = Box.cube_periodic(10.0) if periodic else Box.open([25, 25, 25])
        nl = NeighborList(box, 3.0, skin=skin)
        table = nl.pairs(cluster)
        assert nl.n_builds == 1
        assert_table_is(table, kernel_table(nl, cluster))

    def test_direct_rebuild_then_query_elsewhere_remeasures(self, cluster):
        nl = NeighborList(Box.open([25, 25, 25]), 3.0, skin=1.0)
        nl.rebuild(cluster)
        moved = cluster + np.random.default_rng(1).uniform(
            -0.2, 0.2, size=cluster.shape
        )
        table = nl.pairs(moved)
        assert nl.n_builds == 1  # inside skin/2: reused, not rebuilt
        assert_table_is(table, kernel_table(nl, moved))
        expect = np.linalg.norm(moved[table.j] - moved[table.i], axis=1)
        assert np.allclose(table.r, expect, rtol=1e-14)

    def test_shell_exactly_on_the_cutoff_goes_through_the_kernel(self):
        # simple-cubic spacing 1.5, cutoff 3.0: the (2, 0, 0) shell has
        # r == cutoff to the bit, where sqrt(r2) cannot tell < from ==
        g = np.arange(5) * 1.5
        lattice = np.array(np.meshgrid(g, g, g)).reshape(3, -1).T.copy()
        for skin in (0.0, 0.5):
            nl = NeighborList(Box.open([30, 30, 30]), 3.0, skin=skin)
            table = nl.pairs(lattice)
            assert_table_is(table, kernel_table(nl, lattice))
            assert np.all(table.r < 3.0)
            on_shell = np.linalg.norm(
                lattice[nl.candidates.j] - lattice[nl.candidates.i], axis=1
            ) == 3.0
            assert np.any(on_shell)  # candidates, but not interacting

    @pytest.mark.parametrize("skin", [0.0, 0.5])
    def test_returned_arrays_survive_the_next_call(self, cluster, skin):
        nl = NeighborList(Box.open([25, 25, 25]), 3.0, skin=skin)
        first = nl.pairs(cluster)
        snapshot = [a.copy() for a in (first.i, first.j, first.rij, first.r)]
        nl.pairs(cluster + 0.2)   # reuse (skin 0.5) or rebuild (skin 0)
        nl.pairs(cluster[::-1] * 1.3)  # certainly a rebuild
        assert_table_is(first, snapshot)

    @pytest.mark.parametrize(
        "skin, builds, digest",
        [
            (0.0, 20, "0dde3af443857460d06033ff35fd4360"
                      "d4b179011e96324714fd7f63f494ffac"),
            (0.5, 3, "6889f68a3e404d6c8062097ff858ce9f"
                     "ef3ac96a4310c43991a3dec7c816b5fe"),
        ],
    )
    def test_trajectory_is_bitwise_the_staged_rebuilds(
        self, skin, builds, digest
    ):
        # Digests of a hot 6x6x3 Ta slab after 20 steps, computed at the
        # last commit that rebuilt in two stages (candidate_pairs ->
        # prefilter at the reach -> prefilter at the cutoff).  They pin
        # x86-64 numpy arithmetic; the live comparison below does not.
        spec = RunSpec(element="Ta", reps=(6, 6, 3), engine="reference",
                       backend="numpy", skin=skin, seed=3,
                       temperature=3000.0)
        engine = build_engine(spec)
        staged = build_engine(spec)
        staged.sim.neighbors = StagedNeighborList(
            staged.state.box, staged.sim.neighbors.cutoff, skin
        )
        try:
            engine.step(20)
            staged.step(20)
            got = engine.state.positions
            assert engine.sim.neighbors.n_builds == builds
            assert staged.sim.neighbors.n_builds == builds
            assert np.array_equal(got, staged.state.positions)
            assert hashlib.sha256(got.tobytes()).hexdigest() == digest
        finally:
            engine.close()
            staged.close()


class TestNonFinitePositions:
    """A NaN on a *reuse* step must not pass as 'nobody moved'."""

    def test_nan_after_build_raises_instead_of_dropping_pairs(self, cluster):
        nl = NeighborList(Box.open([25, 25, 25]), 3.0, skin=1.0)
        nl.pairs(cluster)
        poisoned = cluster.copy()
        poisoned[7, 1] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite"):
            nl.pairs(poisoned)
        poisoned[7, 1] = np.inf
        with pytest.raises(FloatingPointError, match="non-finite"):
            nl.rebuild_reason(poisoned)

    def test_engine_step_fails_at_the_step_the_nan_appears(self):
        engine = build_engine(RunSpec(
            element="Ta", reps=(4, 4, 2), engine="reference",
        ))
        try:
            engine.step(2)
            engine.state.positions[5, 0] = np.nan
            with pytest.raises(FloatingPointError, match="non-finite"):
                engine.step(3)
        finally:
            engine.close()


class TestFunnelCounters:
    def test_counts_are_exact_ordered_and_repeatable(self, cluster):
        box = Box.open([25, 25, 25])
        seen = []
        for _ in range(2):
            nl = NeighborList(box, 3.0, skin=1.0)
            total = np.zeros(3, dtype=np.int64)
            # build, reuse (no funnel of its own), rebuild
            for positions in (cluster, cluster + 0.1, cluster * 1.5):
                builds = nl.n_builds
                nl.pairs(positions)
                if nl.n_builds > builds:
                    total += nl.candidates.funnel
            assert nl.n_builds == 2
            seen.append(total.tolist())
        raw, coarse, exact = seen[0]
        assert seen[0] == seen[1]
        assert raw > coarse >= exact > 0
        cells = CellList(box, 4.0)
        total = 0
        for positions in (cluster, cluster * 1.5):
            cells.build(positions)
            total += len(cells.candidate_pairs()[0])
        assert raw == total
        assert nl.n_candidates <= exact  # the last build is part of it


# lattice constants at cutoff 3.0, skin 0.5: "on_cutoff" puts the
# simple-cubic (2, 0, 0) shell at r == cutoff to the bit and the next
# one (3.354) inside the reach; "gap" has every shell within the reach
# inside the cutoff (2.04, 2.885 | 3.533), the all-inside workload
LATTICES = {"on_cutoff": 1.5, "gap": 2.04}
PERIODICITY = {
    "open": (False, False, False),
    "mixed": (True, False, True),
    "periodic": (True, True, True),
}


def moving_cloud(kind, periodicity, seed):
    """Start positions and a box whose periodic edges fit the lattice."""
    rng = np.random.default_rng(seed)
    if kind == "cloud":
        length, positions = 12.0, rng.uniform(0.0, 12.0, size=(200, 3))
    else:
        a = LATTICES[kind]
        n = round(12.0 / a)
        g = np.arange(n) * a
        length = n * a
        positions = np.array(np.meshgrid(g, g, g)).reshape(3, -1).T.copy()
    periodic = np.array(PERIODICITY[periodicity])
    lengths = np.where(periodic, length, length + 10.0)
    return positions, Box(lengths, periodic, origin=np.zeros(3)), rng


def walk(nl, positions, rng, amp, n_queries, calls=None):
    """Query ``nl`` along a drift (fixed per-atom directions, so the
    displacement bound grows by ``amp`` a step until a rebuild), each
    answer checked against the frozen strict filter run on the list's
    own candidates."""
    from tests import legacy_kernels

    heading = rng.normal(size=positions.shape)
    heading /= np.linalg.norm(heading, axis=1, keepdims=True)
    for _ in range(n_queries):
        builds = nl.n_builds
        table = nl.pairs(positions)
        cand = nl.candidates
        assert_table_is(table, legacy_kernels.neighbor_prefilter(
            positions, cand.i, cand.j, nl.box.lengths, nl.box.periodic,
            nl.cutoff, inclusive=False, compute_r=True,
        ))
        if calls is not None:
            calls.append(nl.n_builds != builds)
        positions = positions + amp * heading


class TestCutsAreBitNeutral:
    """The all-inside and pre-mask cuts never show in ``pairs``: along
    any walk the list emits, bitwise and in order, what the plain
    strict filter makes of its candidates — under minimum image too."""

    @given(
        kind=st.sampled_from(["on_cutoff", "gap", "cloud"]),
        periodicity=st.sampled_from(sorted(PERIODICITY)),
        skin=st.sampled_from([0.0, 0.5]),
        amp=st.sampled_from([0.0, 0.02, 0.05, 0.13]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_pairs_equal_the_strict_filter_on_own_candidates(
        self, kind, periodicity, skin, amp, seed
    ):
        positions, box, rng = moving_cloud(kind, periodicity, seed)
        walk(NeighborList(box, 3.0, skin=skin), positions, rng, amp, 16)

    def test_one_walk_crosses_every_arm(self, monkeypatch):
        # gap lattice, drift 0.05 a step: all-inside while twice the
        # drift fits under cutoff - 2.885, then the plain filter (no
        # candidate sits past the cutoff to pre-mask); the first rebuild
        # finds a jumbled lattice with candidates past the cutoff, so
        # the next window pre-masks until that stops paying
        positions, box, rng = moving_cloud("gap", "periodic", 5)
        nl = NeighborList(box, 3.0, skin=0.5)
        backend = active_backend()
        arms = []

        def spy(positions, i, j, *args, assume_inside=False, **kwargs):
            if kwargs["inclusive"]:
                arms.append("build")
            elif assume_inside:
                arms.append("all_inside")
            else:
                full = len(i) == len(nl.candidates)
                arms.append("plain" if full else "premask")
            return backend.neighbor_prefilter(
                positions, i, j, *args, assume_inside=assume_inside, **kwargs
            )

        monkeypatch.setattr(
            "repro.md.neighbor_list.active_backend",
            lambda: type("Spy", (), {"neighbor_prefilter": staticmethod(spy)}),
        )
        rebuilt = []
        walk(nl, positions, rng, 0.05, 16, calls=rebuilt)
        assert arms[:3] == ["build", "all_inside", "plain"]
        window = arms[arms.index("build", 1) + 1:]
        assert window[0] == "premask" and "plain" in window
        assert sum(rebuilt) == arms.count("build") == nl.n_builds >= 3
