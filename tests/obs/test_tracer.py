"""Tracer unit tests: nesting, self-time, sinks, JSONL round trip."""

import pytest

from repro.obs import (
    ENGINE_PHASES,
    NULL_TRACER,
    PHASES,
    JsonlSink,
    NullTracer,
    Tracer,
    read_trace,
    render_phase_table,
    required_phases,
)
from tests.conftest import ListSink


class FakeClock:
    """Deterministic clock: each call advances by the queued deltas."""

    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


class TestSpanAccounting:
    def test_flat_span_self_time_equals_duration(self):
        tr = Tracer(clock=FakeClock([0.0, 2.0]))
        with tr.phase("neighbor"):
            pass
        assert tr.phase_totals() == {"neighbor": 2.0}
        assert tr.total_s() == 2.0

    def test_nested_child_time_subtracted_from_parent(self):
        # parent opens at 0, child runs [1, 4], parent closes at 10
        tr = Tracer(clock=FakeClock([0.0, 1.0, 4.0, 10.0]))
        with tr.phase("exchange"):
            with tr.phase("neighbor"):
                pass
        totals = tr.phase_totals()
        assert totals["neighbor"] == 3.0
        assert totals["exchange"] == 7.0  # 10 - child's 3
        # phase totals tile the traced wall exactly
        assert sum(totals.values()) == tr.total_s() == 10.0

    def test_record_credits_child_time_of_open_span(self):
        # span opens at 0, record() observes "now"=5, span closes at 8
        tr = Tracer(clock=FakeClock([0.0, 5.0, 8.0]))
        with tr.phase("exchange"):
            tr.record("neighbor", 2.0, {"offsets": 9})
        totals = tr.phase_totals()
        assert totals["neighbor"] == 2.0
        assert totals["exchange"] == 6.0
        assert sum(totals.values()) == tr.total_s() == 8.0

    def test_totals_accumulate_across_steps(self):
        tr = Tracer(clock=FakeClock([0.0, 1.0, 5.0, 7.0]))
        with tr.phase("density"):
            pass
        with tr.phase("density"):
            pass
        assert tr.phase_totals() == {"density": 3.0}
        assert tr.span_count == 2

    def test_reset_zeroes_totals_and_rejects_open_spans(self):
        tr = Tracer()
        with tr.phase("density"):
            with pytest.raises(RuntimeError, match="open spans"):
                tr.reset()
        tr.reset()
        assert tr.phase_totals() == {}
        assert tr.total_s() == 0.0


class TestSinks:
    def test_list_sink_sees_paths_and_counters(self):
        sink = ListSink()
        tr = Tracer(sinks=[sink])
        with tr.phase("exchange") as ph:
            ph.add(offsets=9)
            with tr.phase("neighbor", pairs=4):
                pass
        names = [s.name for s in sink.spans]
        assert names == ["neighbor", "exchange"]  # children close first
        assert sink.spans[0].path == "exchange/neighbor"
        assert sink.spans[0].depth == 1
        assert sink.spans[0].counters == {"pairs": 4}
        assert sink.spans[1].counters == {"offsets": 9}

    def test_jsonl_round_trip_with_static_fields(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path, static={"engine": "wse"})
        sink.write_meta(spec={"element": "Ta"})
        tr = Tracer(sinks=[sink])
        with tr.phase("density", candidates=12):
            pass
        sink.close()
        records = read_trace(path)
        assert records[0]["type"] == "meta"
        assert records[0]["engine"] == "wse"
        span = records[1]
        assert span["type"] == "span"
        assert span["name"] == "density"
        assert span["engine"] == "wse"
        assert span["counters"] == {"candidates": 12}

    def test_jsonl_spans_are_written_at_close(self, tmp_path):
        """No span is serialized inside the traced run: the file holds
        the meta line until the sink closes."""
        path = tmp_path / "late.jsonl"
        with open(path, "w") as fh:
            sink = JsonlSink(fh, static={"engine": "wse"})
            sink.write_meta(spec={})
            tr = Tracer(sinks=[sink])
            with tr.phase("density"):
                pass
            fh.flush()
            assert [r["type"] for r in read_trace(path)] == ["meta"]
            sink.close()
        assert [r["type"] for r in read_trace(path)] == ["meta", "span"]

    def test_read_trace_rejects_bad_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span"}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            read_trace(path)

    def test_shared_filehandle_not_closed_by_sink(self, tmp_path):
        path = tmp_path / "shared.jsonl"
        with open(path, "w") as fh:
            JsonlSink(fh, static={"engine": "reference"}).close()
            assert not fh.closed

    def test_render_phase_table_has_total_row(self):
        text = render_phase_table("t", {"neighbor": 0.75, "density": 0.25},
                                  wall_s=1.0)
        assert "neighbor" in text
        assert "(total)" in text
        assert "100.0%" in text


class TestNullTracer:
    def test_null_tracer_is_inert(self):
        tr = NULL_TRACER
        assert isinstance(tr, NullTracer)
        assert not tr.enabled
        with tr.phase("density", pairs=1) as ph:
            ph.add(more=2)
        tr.record("neighbor", 1.0)
        assert tr.phase_totals() == {}
        assert tr.total_s() == 0.0
        tr.reset()

    def test_null_tracer_rejects_sinks(self):
        with pytest.raises(RuntimeError):
            NULL_TRACER.add_sink(ListSink())


class TestTaxonomy:
    def test_engine_phases_subset_of_taxonomy(self):
        for phases in ENGINE_PHASES.values():
            assert set(phases) <= set(PHASES)

    def test_swap_required_only_when_enabled(self):
        assert "swap" not in required_phases("wse", swap_interval=0)
        assert "swap" in required_phases("wse", swap_interval=10)
        assert "swap" not in required_phases("reference", swap_interval=10)
