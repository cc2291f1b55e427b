"""The ledger's own span recorder and the small statistics it reports with.

Spans are recorded from the benchmark's side of every layer boundary
(around calls into ``repro``'s public functions); spans inside
``src/repro`` are a later issue.  A span is ``(id, name, start, end,
parent, thread)``; all spans of one run share the recorder's run id.
They stay in memory and are written once, as JSONL, when the run ends.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from pathlib import Path

# Highest first: `top_percentile` returns the first one the sample supports.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 85.0, 75.0, 50.0)
MIN_SAMPLES_BEYOND = 10


class _Span:
    __slots__ = ("rec", "name", "row")

    def __init__(self, rec: "SpanRecorder", name: str) -> None:
        self.rec = rec
        self.name = name
        self.row = None

    def __enter__(self):
        rec = self.rec
        stack = rec._stack()
        parent = stack[-1][0] if stack else None
        # next() on a count is atomic, so ids are unique across threads
        self.row = [next(rec._ids), self.name, 0.0, 0.0, parent,
                    threading.get_ident()]
        rec.spans.append(self.row)
        stack.append(self.row)
        self.row[2] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.row[3] = time.perf_counter()
        self.rec._stack().pop()
        return False


class SpanRecorder:
    """In-memory span list with one open-span stack per thread."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, thread in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": sid, "name": name,
                    "start": start, "end": end, "parent": parent,
                    "thread": thread,
                }) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    edge = lo
    for start, end in sorted(intervals):
        start = max(start, edge)
        end = min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def layer_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy time, and self time.

    A span's self time is its duration minus the part of that interval
    its child spans cover (children on other threads may overlap each
    other, so the cover is a union, not a sum).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _name, start, end, parent, _thread in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict[str, float]] = {}
    for sid, name, start, end, _parent, _thread in spans:
        row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += end - start
        row["self_s"] += (end - start) - _covered(
            children.get(sid, []), start, end
        )
    return out


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (a ladder value) of two or more samples."""
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return cuts[round(p * 10) - 1]


def top_percentile(n_samples: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in PERCENTILE_LADDER:
        # 1e-9: 100.0 - 99.9 is not exactly 0.1
        if n_samples * (100.0 - p) / 100.0 >= MIN_SAMPLES_BEYOND - 1e-9:
            return p
    return 50.0


def timed_ms(fn, repeats: int) -> float:
    """Median wall time of ``fn()`` over ``repeats`` calls, in milliseconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def pct_more(value: float, base: float) -> float:
    """How much larger ``value`` is than ``base``, in percent of ``base``."""
    return (value - base) / base * 100.0 if base else 0.0
