"""Per-tile program model: threads, vector moves, task activation.

The paper's neighborhood exchange runs as *four parallel threads* per
core — one send and one receive thread per virtual channel (positive
and negative direction), each programmed with a single vector move
instruction (Sec. III-B, Fig. 4c).  Hardware schedules threads
cycle-by-cycle: a thread advances when its stream has data/credit, and
the datapath is granted to one ready thread per cycle.

This module models that execution: :class:`VectorMove` operations over
memory/fabric streams, :class:`TileProgram` holding the thread set, and
a cooperative cycle-level scheduler.  It validates two properties the
cycle model assumes:

* the four exchange threads *overlap*: total exchange occupancy is set
  by link availability, not by the sum of thread lengths;
* send threads emit one word per cycle while the outgoing link has
  credit, and receive threads never lose data.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "StreamKind",
    "VectorMove",
    "TileProgram",
    "ProgramRunResult",
]


class StreamKind(enum.Enum):
    """Where a vector move's operand lives."""

    MEMORY = "memory"
    FABRIC_TX = "fabric_tx"
    FABRIC_RX = "fabric_rx"


@dataclass
class VectorMove:
    """One vector move instruction: N words between two streams.

    The hardware expresses sends as memory->fabric moves and receives
    as fabric->memory moves, with the stream descriptor carrying the
    length and access pattern (Sec. IV-A).
    """

    name: str
    src: StreamKind
    dst: StreamKind
    length: int
    moved: int = 0

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError(f"{self.name}: negative vector length")
        if (self.src is StreamKind.FABRIC_RX) == (
            self.dst is StreamKind.FABRIC_TX
        ) and self.src is not StreamKind.MEMORY:
            raise ValueError(
                f"{self.name}: moves must touch memory on one side"
            )

    @property
    def done(self) -> bool:
        """All words moved."""
        return self.moved >= self.length

    @property
    def is_send(self) -> bool:
        """Memory -> fabric."""
        return self.dst is StreamKind.FABRIC_TX


@dataclass
class ProgramRunResult:
    """Outcome of running a tile program to completion.

    Attributes
    ----------
    cycles:
        Total cycles until every thread finished.
    busy_cycles:
        Cycles in which at least one thread advanced.
    per_thread_active:
        Cycles each thread spent moving data.
    """

    cycles: int
    busy_cycles: int
    per_thread_active: dict[str, int]

    @property
    def overlap_factor(self) -> float:
        """Sum of thread activity over wall cycles (1.0 = no overlap)."""
        total = sum(self.per_thread_active.values())
        return total / self.cycles if self.cycles else 0.0


class TileProgram:
    """A set of vector-move threads executed by the hardware scheduler.

    The model grants every *ready* thread one word per cycle — matching
    the WSE, where each of the router's five ports moves a word per
    cycle independently and the core's datapath services stream moves
    without software arbitration.  Readiness:

    * send threads need link credit (``tx_credit`` per cycle per VC);
    * receive threads need an arrived word (fed by ``rx_arrivals``).
    """

    def __init__(self, moves: list[VectorMove]) -> None:
        names = [m.name for m in moves]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate thread names: {names}")
        self.moves = moves

    def run(
        self,
        *,
        rx_words: dict[str, int] | None = None,
        rx_rate: float = 1.0,
        max_cycles: int = 1_000_000,
    ) -> ProgramRunResult:
        """Execute to completion.

        ``rx_words`` caps how many words will ever arrive for each
        receive thread (defaults to the thread's full length);
        ``rx_rate`` is the average arrival rate in words/cycle.
        """
        rx_words = rx_words or {}
        arrivals: dict[str, float] = {m.name: 0.0 for m in self.moves}
        active = {m.name: 0 for m in self.moves}
        cycles = 0
        busy = 0
        while not all(m.done for m in self.moves):
            if cycles >= max_cycles:
                raise RuntimeError(
                    f"tile program stuck after {max_cycles} cycles: "
                    f"{[(m.name, m.moved, m.length) for m in self.moves]}"
                )
            progressed = False
            for m in self.moves:
                if m.done:
                    continue
                if m.is_send:
                    m.moved += 1  # link credit modeled as always granted
                    active[m.name] += 1
                    progressed = True
                else:
                    limit = rx_words.get(m.name, m.length)
                    arrivals[m.name] = min(
                        arrivals[m.name] + rx_rate, float(limit)
                    )
                    if arrivals[m.name] >= m.moved + 1:
                        m.moved += 1
                        active[m.name] += 1
                        progressed = True
                    elif m.moved >= limit:
                        # nothing more will ever arrive: terminate short
                        m.length = m.moved
            cycles += 1
            if progressed:
                busy += 1
        return ProgramRunResult(
            cycles=cycles, busy_cycles=busy, per_thread_active=active
        )
