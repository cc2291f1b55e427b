"""Offset-dispatch pool tests: reproducibility contract + lifecycle."""

import numpy as np
import pytest

from repro.core.wse_md import WseMd
from repro.parallel.offsets import WseOffsetPool, split_offsets
from repro.parallel.pool import fork_available
from tests.conftest import small_slab_state

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


class TestSplitOffsets:
    def test_order_preserved_and_contiguous(self):
        offsets = [(i, i + 1) for i in range(7)]
        parts = split_offsets(offsets, 3)
        assert [len(p) for p in parts] == [3, 2, 2]
        assert sum(parts, []) == offsets

    def test_single_worker_owns_everything(self):
        offsets = [(0, 1), (1, 0)]
        assert split_offsets(offsets, 1) == [offsets]

    def test_more_workers_than_offsets(self):
        parts = split_offsets([(0, 1)], 3)
        assert parts == [[(0, 1)], [], []]

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError, match="worker"):
            split_offsets([(0, 1)], 0)


def _run(ta_potential, workers, *, force_symmetry=False, steps=6):
    sim = WseMd(
        small_slab_state(reps=(4, 4, 2)),
        ta_potential,
        dt_fs=2.0,
        swap_interval=3,
        workers=workers,
        force_symmetry=force_symmetry,
    )
    try:
        energy = sim.compute_energy()
        sim.step(steps)
        return energy, sim.gather_state()
    finally:
        sim.close()


@needs_fork
class TestOffsetPool:
    @pytest.mark.parametrize("force_symmetry", [False, True])
    def test_one_worker_matches_serial_bitwise(
        self, ta_potential, force_symmetry
    ):
        e_ser, s_ser = _run(ta_potential, 0, force_symmetry=force_symmetry)
        e_w1, s_w1 = _run(ta_potential, 1, force_symmetry=force_symmetry)
        assert e_w1 == e_ser
        assert np.array_equal(s_w1.positions, s_ser.positions)
        assert np.array_equal(s_w1.velocities, s_ser.velocities)
        assert np.array_equal(s_w1.ids, s_ser.ids)

    def test_two_workers_reproducible_and_accurate(self, ta_potential):
        e_a, s_a = _run(ta_potential, 2)
        e_b, s_b = _run(ta_potential, 2)
        # bitwise-reproducible per worker count...
        assert e_a == e_b
        assert np.array_equal(s_a.positions, s_b.positions)
        assert np.array_equal(s_a.velocities, s_b.velocities)
        # ...and physically the serial trajectory (reduction order is
        # the only difference, so agreement is to roundoff)
        e_ser, s_ser = _run(ta_potential, 0)
        assert e_a == pytest.approx(e_ser, rel=1e-12)
        np.testing.assert_allclose(
            s_a.positions, s_ser.positions, atol=1e-12
        )

    def test_pool_spawned_lazily_and_closed(self, ta_potential):
        sim = WseMd(
            small_slab_state(reps=(4, 4, 2)), ta_potential, workers=2
        )
        assert sim._pool is None  # nothing forked until the first sweep
        sim.step(1)
        assert sim._pool is not None
        assert sim._pool.n_workers == 2
        sim.close()
        assert sim._pool is None
        sim.close()  # idempotent

    def test_direct_pool_density_matches_serial(self, ta_potential):
        from repro.core.streaming import StreamingSweeps

        sim = WseMd(small_slab_state(reps=(4, 4, 2)), ta_potential)
        offsets = sim._pass_offsets
        kw = dict(
            nx=sim.grid.nx, ny=sim.grid.ny, dtype=sim.dtype,
            lengths=sim.box.lengths, periodic=sim.box.periodic,
            cutoff=sim.potential.cutoff, skin=sim.skin,
            tables=sim.potential.tables,
            offsets=offsets,
        )
        serial = StreamingSweeps(**kw)
        pool = WseOffsetPool(n_workers=3, **kw)
        try:
            shape = (sim.grid.nx, sim.grid.ny)
            rho_s = np.zeros(shape)
            rho_p = np.zeros(shape)
            cand_s = np.zeros(shape, dtype=np.int64)
            cand_p = np.zeros(shape, dtype=np.int64)
            int_s = np.zeros(shape, dtype=np.int64)
            int_p = np.zeros(shape, dtype=np.int64)
            serial.density(sim.pos, sim.occ, sim.typ, rho_s, cand_s, int_s)
            pool.density(sim.pos, sim.occ, sim.typ, rho_p, cand_p, int_p)
            # integer work counts are order-independent -> exactly equal
            assert np.array_equal(cand_p, cand_s)
            assert np.array_equal(int_p, int_s)
            np.testing.assert_allclose(rho_p, rho_s, rtol=1e-14)
        finally:
            pool.close()

    def test_worker_records_live_between_density_and_force(
        self, ta_potential
    ):
        """Each worker keeps its slice's survivor records from the
        ``density`` command to the ``force`` command, and nothing after;
        a ``force`` with no fresh ``density`` is an error reply."""
        sim = WseMd(small_slab_state(reps=(4, 4, 2)), ta_potential)
        shape = (sim.grid.nx, sim.grid.ny)
        pool = WseOffsetPool(
            n_workers=2, nx=shape[0], ny=shape[1], dtype=sim.dtype,
            lengths=sim.box.lengths, periodic=sim.box.periodic,
            cutoff=sim.potential.cutoff, skin=sim.skin,
            tables=sim.potential.tables,
            offsets=sim._pass_offsets,
        )
        try:
            f_der = np.zeros(shape)
            with pytest.raises(RuntimeError, match="SweepRecordError"):
                pool.force(f_der, np.zeros(shape + (3,)))
            assert pool.record_bytes() == 0
            n_int = np.zeros(shape, dtype=np.int64)
            pool.density(
                sim.pos, sim.occ, sim.typ, np.zeros(shape),
                np.zeros(shape, dtype=np.int64), n_int,
            )
            assert pool.record_bytes() >= 48 * int(n_int.sum())
            pool.force(f_der, np.zeros(shape + (3,)))
            assert pool.record_bytes() == 0
            with pytest.raises(RuntimeError, match="fresh density"):
                pool.force(f_der, np.zeros(shape + (3,)))
            # the pool is still serviceable after the error replies
            pool.density(
                sim.pos, sim.occ, sim.typ, np.zeros(shape),
                np.zeros(shape, dtype=np.int64), n_int,
            )
            pool.force(f_der, np.zeros(shape + (3,)), np.zeros(shape))
        finally:
            pool.close()

    def test_no_worker_record_outlives_a_public_call(self, ta_potential):
        sim = WseMd(
            small_slab_state(reps=(4, 4, 2)), ta_potential,
            workers=2, swap_interval=1, force_symmetry=True,
        )
        try:
            for call in (
                lambda: sim.step(2), sim.compute_forces, sim.compute_energy
            ):
                call()
                assert sim._pool.record_bytes() == 0
        finally:
            sim.close()


@needs_fork
def test_two_workers_with_a_list_match_their_every_step_twin(ta_potential):
    """Every rank judges the same shared planes, so the pool builds on
    the serial machine's steps and stays bitwise its own ``skin=0``
    twin; the ranks' lists are reported by the ``record_bytes`` reply."""
    state = small_slab_state(reps=(5, 5, 2), temperature=900.0, seed=4)
    kw = dict(swap_interval=3, b_margin=2.0, force_symmetry=True)
    sim = WseMd(state.copy(), ta_potential, workers=2, **kw)
    twin = WseMd(state.copy(), ta_potential, workers=2, skin=0.0, **kw)
    serial = WseMd(state.copy(), ta_potential, **kw)
    try:
        for _ in range(12):
            for m in (sim, twin, serial):
                m.step(1)
            assert sim.last_reused == serial.last_reused
            assert np.array_equal(sim.pos, twin.pos)
            assert np.array_equal(sim.vel, twin.vel)
            assert np.array_equal(sim.aid, twin.aid)
            assert np.array_equal(sim.last_interactions,
                                  twin.last_interactions)
        assert 1 < sim.list_builds == serial.list_builds < 12
        assert sim.compute_energy() == twin.compute_energy()
        assert twin.list_reuses == 0
        # each rank holds its own copy of the three planes
        assert sim._pool.list_bytes() > serial._sweeps.list_bytes() > 0
        assert twin._pool.list_bytes() == 0
        assert sim._pool.record_bytes() == 0
    finally:
        sim.close()
        twin.close()


def test_fork_unavailable_falls_back_serial(ta_potential, monkeypatch):
    import repro.parallel.pool as pool_mod

    monkeypatch.setattr(pool_mod, "fork_available", lambda: False)
    sim = WseMd(
        small_slab_state(reps=(4, 4, 2)), ta_potential, workers=2
    )
    with pytest.warns(RuntimeWarning, match="fork"):
        sim.step(1)
    assert sim._pool is None  # serial sweeps carried the step
    sim.step(1)  # warns once, then stays silently serial
    sim.close()
