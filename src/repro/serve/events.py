"""Event streaming: job lifecycle and telemetry to live subscribers.

The scheduler publishes :class:`JobEvent` records — state transitions,
per-interval progress samples (fed by the runner's existing observer
bus), and log lines.  Subscribers attach an :class:`asyncio.Queue`
through :meth:`EventBus.subscribe`, optionally filtered to one job; the
API layer turns a subscription into a stream of JSON lines for
``repro submit --watch``.

Publishing is loop-confined: only the scheduler's event loop calls
:meth:`EventBus.publish` — progress samples taken in a slot process
reach it as pipe messages the loop reads.  Slow subscribers never
block the scheduler — a full queue drops the oldest event and counts
the drop.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.obs import metrics

__all__ = ["JobEvent", "Subscription", "EventBus"]


@dataclass(frozen=True)
class JobEvent:
    """One thing that happened to a job."""

    seq: int
    job_id: str
    #: ``"state"`` (payload: state, cache, ...), ``"progress"``
    #: (payload: step, temperature, ...), or ``"log"`` (payload: line).
    kind: str
    payload: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "job_id": self.job_id,
            "kind": self.kind,
            "payload": self.payload,
        }


class Subscription:
    """One subscriber's queue plus its filter; detach when done."""

    def __init__(self, bus: "EventBus", job_id: str | None, maxsize: int) -> None:
        self._bus = bus
        self.job_id = job_id
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=maxsize)

    def wants(self, event: JobEvent) -> bool:
        return self.job_id is None or event.job_id == self.job_id

    async def get(self) -> JobEvent:
        return await self.queue.get()

    def close(self) -> None:
        self._bus._detach(self)


class EventBus:
    """Fan-out of job events to any number of live subscribers."""

    def __init__(self, *, maxsize: int = 1024) -> None:
        self._subs: list[Subscription] = []
        self._seq = 0
        self._maxsize = maxsize

    def subscribe(self, job_id: str | None = None) -> Subscription:
        """Attach a queue receiving every event (or one job's)."""
        sub = Subscription(self, job_id, self._maxsize)
        self._subs.append(sub)
        return sub

    def _detach(self, sub: Subscription) -> None:
        try:
            self._subs.remove(sub)
        except ValueError:
            pass

    def publish(self, job_id: str, kind: str, payload: dict | None = None) -> JobEvent:
        """Emit one event to every matching subscriber (loop thread only)."""
        self._seq += 1
        event = JobEvent(self._seq, job_id, kind, payload or {})
        for sub in self._subs:
            if not sub.wants(event):
                continue
            try:
                sub.queue.put_nowait(event)
            except asyncio.QueueFull:
                # drop the oldest rather than stall the scheduler
                try:
                    sub.queue.get_nowait()
                except asyncio.QueueEmpty:  # pragma: no cover - race-free
                    pass
                sub.queue.put_nowait(event)
                metrics().counter("serve.events.dropped").inc()
        metrics().counter("serve.events.published").inc()
        return event
