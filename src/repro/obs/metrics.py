"""Process-wide metrics registry: counters, gauges, histograms.

The registry is the numeric side of the observability layer
(:mod:`repro.obs`): long-lived, name-keyed instruments that any module
may increment without threading an object through every call site —
``neighbor.rebuilds``, ``swap.moves``,
``kernels.grouped_spline_eval.calls`` (every spline evaluation, one
per batch), per-phase cycle histograms across tiles, and so on.

Instruments are created on first use and live for the process (tests
call :meth:`MetricsRegistry.reset`, which empties the registry *in
place* so module-held references stay valid).  Histograms keep
streaming moments (count / sum / sum-of-squares / min / max) rather
than raw samples, so observing a full 920x920 tile grid every timestep
costs O(1) memory.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "label",
    "metrics",
]


def label(name: str, **labels) -> str:
    """Canonical labelled-metric name: ``name{k=v,...}``, keys sorted.

    The registry is name-keyed, so labels are encoded into the name
    (Prometheus exposition style).  Sorting makes the encoding
    deterministic — ``label("serve.job.steps", job="a1")`` always maps
    to the same instrument.  Label values are stringified; ``{``/``}``
    and commas in values are replaced to keep the name parseable.
    """
    if not labels:
        return name
    parts = []
    for key in sorted(labels):
        value = str(labels[key])
        for ch in "{},=":
            value = value.replace(ch, "_")
        parts.append(f"{key}={value}")
    return f"{name}{{{','.join(parts)}}}"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        """Add ``n`` (must be non-negative) to the count."""
        if n < 0:
            raise ValueError(f"counter {self.name}: increment must be >= 0")
        self.value += n


class Gauge:
    """Last-written value (a level, not a rate)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming distribution summary (no raw samples kept)."""

    __slots__ = ("name", "count", "total", "sum_sq", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.sum_sq = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        self.count += 1
        self.total += value
        self.sum_sq += value * value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def observe_many(self, values) -> None:
        """Record a whole array of samples (e.g. one value per tile)."""
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size == 0:
            return
        self.observe_moments(
            arr.size, float(arr.sum()), float(np.einsum("i,i", arr, arr)),
            float(arr.min()), float(arr.max()),
        )

    def observe_moments(
        self, count: int, total: float, sum_sq: float, lo: float, hi: float
    ) -> None:
        """Record ``count`` samples already reduced to their sum, sum of
        squares, min and max (bitwise :meth:`observe_many` of them when
        the reductions are numpy's)."""
        self.count += int(count)
        self.total += total
        self.sum_sq += sum_sq
        self.min = min(self.min, lo)
        self.max = max(self.max, hi)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        if self.count == 0:
            return 0.0
        var = self.sum_sq / self.count - self.mean**2
        return float(np.sqrt(max(var, 0.0)))

    def summary(self) -> dict:
        """JSON-ready distribution summary."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Name-keyed instrument store; instruments create on first access."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        self._check_unique(name, self._counters)
        return self._counters.setdefault(name, Counter(name))

    def gauge(self, name: str) -> Gauge:
        self._check_unique(name, self._gauges)
        return self._gauges.setdefault(name, Gauge(name))

    def histogram(self, name: str) -> Histogram:
        self._check_unique(name, self._histograms)
        return self._histograms.setdefault(name, Histogram(name))

    def _check_unique(self, name: str, own: dict) -> None:
        for kind in (self._counters, self._gauges, self._histograms):
            if kind is not own and name in kind:
                raise ValueError(
                    f"metric {name!r} already registered as a different kind"
                )

    def as_dict(self) -> dict:
        """JSON-ready snapshot of every instrument."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        """Drop every instrument (in place; the registry object survives)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


#: The process-wide registry every instrumented module shares.
REGISTRY = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-wide :data:`REGISTRY`."""
    return REGISTRY
