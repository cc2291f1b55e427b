"""The round driver, driven through a fake in-memory byte mover.

Everything parent-side that is protocol rather than byte movement —
pack staging and byte accounting, per-rank message assembly, the
drain-then-raise failure scan, the gather length check — lives once in
:class:`repro.parallel.transport.Transport`.  These tests script a
mover's failures (an error reply, a death on send, a death on receive,
a short output pack) and pin the driver's behaviour once, instead of
once per transport.
"""

from collections import deque

import numpy as np
import pytest

from repro.parallel import Transport, WorkerLost

OK = ("ok", 0, 7, 0.5, 0.25)


class FakeMover:
    """Three scripted ranks; records what reached them and in what order."""

    kind = "fake"

    def __init__(self, n_workers: int = 3) -> None:
        self.inputs = [
            {"x": np.zeros((8, 3)), "t": np.zeros(8, dtype=np.int64)}
            for _ in range(n_workers)
        ]
        self.inbox = [deque() for _ in range(n_workers)]
        self.delivered: list[tuple] = []  # (rank, msg, {name: pack copy})
        self.drained: list[int] = []
        self.dead_on_send: set[int] = set()
        self.dead_on_recv: set[int] = set()
        self.errors: dict[int, tuple[str, str]] = {}
        self.outputs = [{} for _ in range(n_workers)]
        self.closed = False

    def send(self, rank, msg, packs):
        if rank in self.dead_on_send:
            raise BrokenPipeError(f"rank {rank} is gone")
        self.inbox[rank].append(msg)
        self.delivered.append(
            (rank, msg, {name: pack.copy() for name, pack in packs.items()})
        )

    def recv(self, rank):
        if rank in self.dead_on_recv:
            raise EOFError
        self.inbox[rank].popleft()
        self.drained.append(rank)
        if rank in self.errors:
            return ("error", *self.errors[rank])
        return OK

    def fetch(self, rank, name, n):
        return self.outputs[rank][name]

    def close(self):
        self.closed = True


@pytest.fixture
def mover():
    return FakeMover()


@pytest.fixture
def driver(mover):
    return Transport(mover)


class TestHealthyRound:
    def test_driver_takes_shape_and_kind_from_the_mover(self, driver):
        assert driver.n_workers == 3
        assert driver.kind == "fake"

    def test_scatter_stages_each_ranks_rows_into_the_movers_buffers(
        self, driver, mover
    ):
        source = np.arange(30.0).reshape(10, 3)
        ids = [np.array([0, 2]), np.array([9]), np.array([], dtype=np.int64)]
        driver.scatter("x", source, ids)
        assert driver.bytes_sent == 3 * 24  # three rows of three float64
        driver.post(("go",))
        for rank, idx in enumerate(ids):
            _, msg, packs = mover.delivered[rank]
            assert msg == ("go",)
            assert np.array_equal(packs["x"], source[idx])
            # staged in place: the mover's own buffer holds the rows
            assert np.array_equal(mover.inputs[rank]["x"][: len(idx)],
                                  source[idx])
        driver.collect()

    def test_packs_ride_one_message_only(self, driver, mover):
        driver.scatter("t", np.arange(10), [np.array([1])] * 3)
        driver.command(("first",))
        driver.command(("second",))
        second = [d for d in mover.delivered if d[1] == ("second",)]
        assert len(second) == 3
        assert all(packs == {} for _, _, packs in second)

    def test_parts_extend_the_message_per_rank(self, driver, mover):
        driver.command(("rebuild",), parts=[(1, "a"), (2, "b"), (3, "c")])
        assert [msg for _, msg, _ in mover.delivered] == [
            ("rebuild", 1, "a"), ("rebuild", 2, "b"), ("rebuild", 3, "c"),
        ]

    def test_replies_come_back_in_rank_order_without_the_tag(self, driver):
        assert driver.command(("ping",)) == [OK[1:]] * 3

    def test_gather_returns_counted_prefixes_and_charges_them(
        self, driver, mover
    ):
        for rank, n in enumerate((2, 0, 3)):
            mover.outputs[rank]["rho"] = np.full(n, float(rank))
        packs = driver.gather("rho", [2, 0, 3])
        assert [len(p) for p in packs] == [2, 0, 3]
        assert driver.bytes_recv == 5 * 8

    def test_close_closes_the_mover(self, driver, mover):
        driver.close()
        assert mover.closed


class TestFailures:
    def test_error_reply_is_raised_after_every_rank_is_drained(
        self, driver, mover
    ):
        mover.errors = {1: ("ValueError", "bad pack"),
                        2: ("FloatingPointError", "overlap")}
        with pytest.raises(ValueError, match="shard worker 1: bad pack"):
            driver.command(("dens", 0.0))
        # rank 2 replied after the failing rank and was still drained,
        # and its own error lost to the lower rank's
        assert mover.drained == [0, 1, 2]
        mover.errors = {}
        assert driver.command(("ping",)) == [OK[1:]] * 3

    def test_unknown_error_kind_keeps_its_name(self, driver, mover):
        mover.errors = {2: ("SweepRecordError", "no fresh density")}
        with pytest.raises(RuntimeError) as info:
            driver.command(("force",))
        assert type(info.value) is RuntimeError
        assert str(info.value) == (
            "shard worker 2: SweepRecordError: no fresh density"
        )

    def test_death_on_send_still_posts_and_drains_the_other_ranks(
        self, driver, mover
    ):
        mover.dead_on_send = {1}
        with pytest.raises(WorkerLost, match="shard worker 1 died") as info:
            driver.command(("dens", 0.0))
        assert isinstance(info.value.__cause__, BrokenPipeError)
        assert [rank for rank, _, _ in mover.delivered] == [0, 2]
        assert mover.drained == [0, 2]
        assert all(not box for box in mover.inbox)  # nothing left unread

    def test_death_on_receive_drains_the_later_ranks(self, driver, mover):
        mover.dead_on_recv = {0}
        with pytest.raises(WorkerLost, match="shard worker 0 died") as info:
            driver.command(("force",))
        assert isinstance(info.value.__cause__, EOFError)
        assert mover.drained == [1, 2]

    def test_worker_lost_is_a_runtime_error(self):
        assert issubclass(WorkerLost, RuntimeError)

    def test_lowest_failing_rank_wins_across_failure_kinds(
        self, driver, mover
    ):
        mover.errors = {0: ("ValueError", "reported")}
        mover.dead_on_recv = {1}
        with pytest.raises(ValueError, match="shard worker 0"):
            driver.command(("ping",))
        mover.errors = {2: ("ValueError", "reported")}
        with pytest.raises(WorkerLost, match="shard worker 1"):
            driver.command(("ping",))

    def test_a_send_failure_does_not_leak_into_the_next_round(
        self, driver, mover
    ):
        mover.dead_on_send = {2}
        with pytest.raises(WorkerLost):
            driver.command(("ping",))
        mover.dead_on_send = set()  # (a fake can come back; a process cannot)
        assert driver.command(("ping",)) == [OK[1:]] * 3

    def test_short_pack_on_gather_is_rejected(self, driver, mover):
        for rank in range(3):
            mover.outputs[rank]["rho"] = np.zeros(2)
        mover.outputs[1]["rho"] = np.zeros(1)
        with pytest.raises(
            RuntimeError, match=r"rank 1 staged 1 rows of 'rho', expected 2"
        ):
            driver.gather("rho", [2, 2, 2])
