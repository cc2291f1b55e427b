"""Tile program (thread/vector-move) model tests."""

import pytest

from repro.wse.program import StreamKind, TileProgram, VectorMove


def exchange_program(b: int, vector_len: int) -> TileProgram:
    """The four-thread neighborhood-exchange program of Fig. 4c.

    Two virtual channels per stage (positive / negative direction),
    one send and one receive thread each.  Send vectors carry this
    tile's record; receive vectors accumulate ``b`` neighbors' records.
    """
    if b < 1 or vector_len < 1:
        raise ValueError(f"bad exchange geometry: b={b}, L={vector_len}")
    return TileProgram([
        VectorMove("send_pos", StreamKind.MEMORY, StreamKind.FABRIC_TX,
                   vector_len),
        VectorMove("send_neg", StreamKind.MEMORY, StreamKind.FABRIC_TX,
                   vector_len),
        VectorMove("recv_pos", StreamKind.FABRIC_RX, StreamKind.MEMORY,
                   b * vector_len),
        VectorMove("recv_neg", StreamKind.FABRIC_RX, StreamKind.MEMORY,
                   b * vector_len),
    ])


class TestVectorMove:
    def test_send_receive_classification(self):
        s = VectorMove("s", StreamKind.MEMORY, StreamKind.FABRIC_TX, 3)
        r = VectorMove("r", StreamKind.FABRIC_RX, StreamKind.MEMORY, 3)
        assert s.is_send and not r.is_send

    def test_fabric_to_fabric_rejected(self):
        with pytest.raises(ValueError, match="memory"):
            VectorMove("bad", StreamKind.FABRIC_RX, StreamKind.FABRIC_TX, 3)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            VectorMove("bad", StreamKind.MEMORY, StreamKind.FABRIC_TX, -1)


class TestScheduler:
    def test_single_send_takes_length_cycles(self):
        prog = TileProgram([
            VectorMove("s", StreamKind.MEMORY, StreamKind.FABRIC_TX, 10)
        ])
        result = prog.run()
        assert result.cycles == 10
        assert result.per_thread_active["s"] == 10

    def test_duplicate_thread_names_rejected(self):
        mv = VectorMove("s", StreamKind.MEMORY, StreamKind.FABRIC_TX, 1)
        mv2 = VectorMove("s", StreamKind.MEMORY, StreamKind.FABRIC_TX, 1)
        with pytest.raises(ValueError, match="duplicate"):
            TileProgram([mv, mv2])

    def test_threads_overlap(self):
        """Four threads of equal length finish together, not serially."""
        prog = exchange_program(b=4, vector_len=3)
        result = prog.run()
        # wall time is set by the longest thread (the 12-word receives),
        # not the 30-word total
        assert result.cycles == 12
        assert result.overlap_factor > 2.0

    def test_receive_limited_by_arrival_rate(self):
        prog = TileProgram([
            VectorMove("r", StreamKind.FABRIC_RX, StreamKind.MEMORY, 10)
        ])
        result = prog.run(rx_rate=0.5)
        assert result.cycles == pytest.approx(20, abs=2)

    def test_short_receive_terminates(self):
        """Edge tiles receive fewer records; the thread ends early."""
        prog = TileProgram([
            VectorMove("r", StreamKind.FABRIC_RX, StreamKind.MEMORY, 12)
        ])
        result = prog.run(rx_words={"r": 6})
        assert result.per_thread_active["r"] == 6

    def test_stuck_program_detected(self):
        prog = TileProgram([
            VectorMove("r", StreamKind.FABRIC_RX, StreamKind.MEMORY, 5)
        ])
        with pytest.raises(RuntimeError, match="stuck"):
            prog.run(rx_rate=0.0, max_cycles=100)


class TestExchangeProgram:
    def test_thread_structure_matches_paper(self):
        """Sec. III-B: four threads, one send/receive per channel."""
        prog = exchange_program(b=7, vector_len=3)
        sends = [m for m in prog.moves if m.is_send]
        recvs = [m for m in prog.moves if not m.is_send]
        assert len(sends) == 2 and len(recvs) == 2
        assert all(m.length == 3 for m in sends)
        assert all(m.length == 21 for m in recvs)

    def test_exchange_occupancy_below_schedule_budget(self):
        """Per-tile thread work fits inside the marching schedule time."""
        from repro.wse.multicast import stage_cycles
        for b in (2, 4, 7):
            prog = exchange_program(b, 3)
            result = prog.run(rx_rate=1.0)
            assert result.cycles <= stage_cycles(3, b)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            exchange_program(0, 3)
