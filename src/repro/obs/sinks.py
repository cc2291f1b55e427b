"""Trace sinks: where closed spans go.

* :class:`JsonlSink` — one JSON object per line, written at
  ``close()``: spans are kept while the run is timed.  A ``static``
  dict (engine name, run id, ...) is merged into every record, so
  several tracers can share one file and stay distinguishable.  Meta
  lines (``{"type": "meta", ...}``) describe the producing run.
* :func:`read_trace` — parse a JSONL trace back into dicts (the CI
  smoke check and tests use it).
* :func:`render_phase_table` — the end-of-run summary table.
"""

from __future__ import annotations

import json

from repro.io.table_io import Table
from repro.obs.tracer import Span

__all__ = ["JsonlSink", "read_trace", "render_phase_table"]


class JsonlSink:
    """Writes one JSON line per span (plus optional meta lines).

    :meth:`emit` only keeps the span; :meth:`close` serializes and
    writes every kept span after the meta lines, so no ``json.dumps``
    or write runs inside a traced step.

    Parameters
    ----------
    target:
        A path (opened in write mode) or an already-open text file
        object (shared by several sinks; not closed by this sink).
    static:
        Key/value pairs merged into every emitted record.
    """

    def __init__(self, target, static: dict | None = None) -> None:
        if hasattr(target, "write"):
            self._fh = target
            self._owns = False
        else:
            self._fh = open(target, "w")
            self._owns = True
        self.static = dict(static) if static else {}
        self._spans: list[Span] = []

    def write_meta(self, **fields) -> None:
        """Emit a ``{"type": "meta", ...}`` header line."""
        record = {"type": "meta", **self.static, **fields}
        self._fh.write(json.dumps(record) + "\n")

    def emit(self, span: Span) -> None:
        self._spans.append(span)

    def close(self) -> None:
        """Write the kept spans, flush, and close a file this sink
        opened."""
        for span in self._spans:
            record = {**span.as_dict(), **self.static}
            self._fh.write(json.dumps(record) + "\n")
        self._spans = []
        self._fh.flush()
        if self._owns:
            self._fh.close()


def read_trace(path) -> list[dict]:
    """Parse a JSONL trace file into a list of record dicts.

    Raises ``ValueError`` with the offending line number if any line is
    not valid JSON — the trace either parses completely or loudly not.
    """
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}: line {lineno} is not valid JSON: {exc}"
                ) from exc
    return records


def render_phase_table(
    title: str, phase_seconds: dict[str, float], wall_s: float
) -> str:
    """Aligned per-phase breakdown (time, share of wall) plus coverage."""
    table = Table(title, ["phase", "time (s)", "share"])
    accounted = 0.0
    for name, seconds in sorted(
        phase_seconds.items(), key=lambda kv: -kv[1]
    ):
        share = seconds / wall_s if wall_s > 0 else 0.0
        table.add_row(name, f"{seconds:.4f}", f"{100.0 * share:.1f}%")
        accounted += seconds
    coverage = accounted / wall_s if wall_s > 0 else 0.0
    table.add_row("(total)", f"{accounted:.4f}", f"{100.0 * coverage:.1f}%")
    return table.render()
