"""Phase-span tracing: nested wall-time spans with counter payloads.

A :class:`Tracer` produces :class:`Span` records for the engine phases
of one run (the taxonomy in :mod:`repro.obs`).  Spans nest; each span
carries its *inclusive* duration and its *self* time (inclusive minus
the time attributed to child spans), so per-phase totals never double
count and their sum equals the total traced wall time — the property
the ``repro profile`` 95 %-coverage check rests on.

Two recording styles:

* :meth:`Tracer.phase` — a context manager wrapping a code region;
  counters can be attached up front or via :meth:`SpanHandle.add`
  once the phase has computed them.
* :meth:`Tracer.record` — a pre-measured leaf span (for costs timed
  inside another phase, e.g. the lockstep machine's list build and
  list test inside its density sweep).  The duration is credited as
  child time of the currently open span.

The module-level :data:`NULL_TRACER` is a no-op with the same surface;
engines default to it so untraced runs pay (almost) nothing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["Span", "SpanHandle", "Tracer", "NullTracer", "NULL_TRACER"]


@dataclass(frozen=True)
class Span:
    """One closed phase span.

    Attributes
    ----------
    name:
        Phase name (taxonomy name or an engine-specific extra).
    path:
        ``/``-joined names from the outermost open span down to this
        one (``"exchange/neighbor"``).
    t_start_s:
        Start time on the tracer's clock (``time.perf_counter``).
    duration_s:
        Inclusive wall time.
    self_s:
        ``duration_s`` minus the time covered by child spans.
    depth:
        Nesting depth (0 = top level).
    counters:
        Phase-supplied payload (candidate counts, pair counts, ...).
    """

    name: str
    path: str
    t_start_s: float
    duration_s: float
    self_s: float
    depth: int
    counters: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-ready record (the JSONL sink line, minus sink statics)."""
        out = {
            "type": "span",
            "name": self.name,
            "path": self.path,
            "t0": round(self.t_start_s, 9),
            "dur": round(self.duration_s, 9),
            "self": round(self.self_s, 9),
            "depth": self.depth,
        }
        if self.counters:
            out["counters"] = self.counters
        return out


class SpanHandle:
    """What :meth:`Tracer.phase` yields: attach counters mid-phase."""

    __slots__ = ("name", "t0", "child_s", "counters")

    def __init__(self, name: str, t0: float, counters: dict) -> None:
        self.name = name
        self.t0 = t0
        self.child_s = 0.0
        self.counters = counters

    def add(self, **counters) -> None:
        """Attach counters computed inside the phase."""
        self.counters.update(counters)


class Tracer:
    """Collects spans, keeps per-phase self-time totals, feeds sinks."""

    enabled = True

    def __init__(self, sinks=(), clock=time.perf_counter) -> None:
        self._sinks = list(sinks)
        self._clock = clock
        self._stack: list[SpanHandle] = []
        self._totals: dict[str, float] = {}
        self.span_count = 0
        self.root_time_s = 0.0

    def add_sink(self, sink) -> None:
        self._sinks.append(sink)

    @contextmanager
    def phase(self, name: str, **counters):
        """Trace a code region as one span named ``name``."""
        handle = SpanHandle(name, self._clock(), dict(counters))
        self._stack.append(handle)
        try:
            yield handle
        finally:
            now = self._clock()
            self._stack.pop()
            self._close(handle, now)

    def record(
        self, name: str, duration_s: float, counters: dict | None = None
    ) -> None:
        """Record a pre-measured leaf span ending now.

        The duration counts as child time of the currently open span
        (so that span's self time excludes it) and as self time of
        ``name``.
        """
        now = self._clock()
        span = Span(
            name=name,
            path=self._path(name),
            t_start_s=now - duration_s,
            duration_s=duration_s,
            self_s=duration_s,
            depth=len(self._stack),
            counters=dict(counters) if counters else {},
        )
        self._account(span)

    def _close(self, handle: SpanHandle, now: float) -> None:
        duration = now - handle.t0
        span = Span(
            name=handle.name,
            path=self._path(handle.name),
            t_start_s=handle.t0,
            duration_s=duration,
            self_s=max(duration - handle.child_s, 0.0),
            depth=len(self._stack),
            counters=handle.counters,
        )
        self._account(span)

    def _account(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].child_s += span.duration_s
        else:
            self.root_time_s += span.duration_s
        self._totals[span.name] = (
            self._totals.get(span.name, 0.0) + span.self_s
        )
        self.span_count += 1
        for sink in self._sinks:
            sink.emit(span)

    def _path(self, name: str) -> str:
        if not self._stack:
            return name
        return "/".join([h.name for h in self._stack] + [name])

    def phase_totals(self) -> dict[str, float]:
        """Self-time seconds per phase name (sums to the traced total)."""
        return dict(self._totals)

    def total_s(self) -> float:
        """Total traced wall time (sum of top-level span durations)."""
        return self.root_time_s

    def reset(self) -> None:
        """Zero totals and counts (sinks keep whatever they already got)."""
        if self._stack:
            raise RuntimeError("cannot reset a tracer with open spans")
        self._totals.clear()
        self.span_count = 0
        self.root_time_s = 0.0


class _NullSpanHandle:
    __slots__ = ()

    def add(self, **counters) -> None:
        pass


class _NullPhase:
    """Reusable no-op context manager (no per-call allocation)."""

    __slots__ = ()
    _handle = _NullSpanHandle()

    def __enter__(self):
        return self._handle

    def __exit__(self, *exc):
        return False


class NullTracer:
    """No-op tracer with the :class:`Tracer` surface."""

    enabled = False
    span_count = 0
    root_time_s = 0.0
    _phase = _NullPhase()

    def add_sink(self, sink) -> None:
        raise RuntimeError("cannot attach sinks to the null tracer")

    def phase(self, name: str, **counters):
        return self._phase

    def record(self, name, duration_s, counters=None) -> None:
        pass

    def phase_totals(self) -> dict[str, float]:
        return {}

    def total_s(self) -> float:
        return 0.0

    def reset(self) -> None:
        pass


#: Shared no-op tracer; engines without a tracer default to this.
NULL_TRACER = NullTracer()
