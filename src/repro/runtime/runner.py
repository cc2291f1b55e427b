"""The Runner: one orchestration loop for every engine.

The runner owns what used to be duplicated per command: the stepping
loop, an observer bus, and checkpointing.  It drives anything
satisfying the :class:`~repro.runtime.engines.Engine` protocol, so the
CLI, the bench harness and the validators all stop caring which
machine executes the physics.

Observers fire on absolute step numbers (every ``interval`` steps),
and the loop advances in chunks cut at the next observer or checkpoint
boundary — between boundaries the engine steps at full speed with no
per-step Python dispatch.

Checkpointing (:mod:`repro.runtime.checkpoint`) is enabled by giving a
prefix; ``spec.checkpoint_interval`` adds periodic snapshots and a
final one is always written.  :meth:`Runner.resume` rebuilds the
engine from the snapshot state, restores step count and every RNG
stream, and continues the interrupted trajectory.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.md.state import AtomsState
from repro.obs import NULL_TRACER
from repro.runtime.checkpoint import (
    read_checkpoint,
    sweep_orphan_tmp,
    write_checkpoint,
)
from repro.runtime.engines import build_engine
from repro.runtime.spec import RunSpec
from repro.runtime.telemetry import Telemetry

__all__ = ["RunEvent", "Runner"]


@dataclass(frozen=True)
class RunEvent:
    """What an observer sees: the step just completed and the engine."""

    step: int
    engine: object

    @property
    def state(self) -> AtomsState:
        """Current atom state (gathers from the grid on the WSE engine)."""
        return self.engine.state


class Runner:
    """Drive an engine through a run, with observers and checkpoints.

    Parameters
    ----------
    engine:
        Any :class:`~repro.runtime.engines.Engine`; usually built via
        :meth:`from_spec` or :meth:`resume`.
    checkpoint_prefix:
        Path prefix for checkpoint files; ``None`` disables
        checkpointing entirely.
    """

    def __init__(
        self,
        engine,
        *,
        checkpoint_prefix: str | Path | None = None,
    ) -> None:
        self.engine = engine
        self.spec: RunSpec = engine.spec
        self.checkpoint_prefix = (
            Path(checkpoint_prefix) if checkpoint_prefix is not None else None
        )
        self._observers: list[tuple[int, Callable[[RunEvent], None]]] = []
        self._stop = threading.Event()
        self._close_lock = threading.Lock()
        self._closed = False

    # -- construction ------------------------------------------------------

    @classmethod
    def from_spec(
        cls,
        spec: RunSpec,
        *,
        checkpoint_prefix: str | Path | None = None,
        **engine_kwargs,
    ) -> "Runner":
        """Fresh runner for a spec (engine built via the factory)."""
        engine = build_engine(spec, **engine_kwargs)
        return cls(engine, checkpoint_prefix=checkpoint_prefix)

    @classmethod
    def resume(
        cls,
        spec: RunSpec,
        prefix: str | Path,
        *,
        checkpoint_prefix: str | Path | None = None,
        **engine_kwargs,
    ) -> "Runner":
        """Continue an interrupted run from its checkpoint.

        The checkpoint's ``spec_hash`` must match ``spec`` (physics
        fields only — a longer ``steps`` or different ``backend`` is
        fine).  The engine is rebuilt around the snapshot state, then
        its step count and RNG streams are restored, so the continued
        trajectory matches the uninterrupted one to FP tolerance.

        New checkpoints go to ``checkpoint_prefix``, defaulting to the
        prefix being resumed from.
        """
        sweep_orphan_tmp(prefix)
        checkpoint = read_checkpoint(
            prefix, expected_spec_hash=spec.spec_hash()
        )
        engine = build_engine(spec, state=checkpoint.state, **engine_kwargs)
        engine.restore(checkpoint)
        if checkpoint_prefix is None:
            checkpoint_prefix = prefix
        return cls(engine, checkpoint_prefix=checkpoint_prefix)

    # -- observer bus ------------------------------------------------------

    def add_observer(
        self, interval: int, fn: Callable[[RunEvent], None]
    ) -> None:
        """Call ``fn(event)`` after every ``interval``-th absolute step."""
        if interval < 1:
            raise ValueError(f"observer interval must be >= 1, got {interval}")
        self._observers.append((int(interval), fn))

    # -- the loop ----------------------------------------------------------

    def run(self, n_steps: int | None = None) -> Telemetry:
        """Advance ``n_steps`` (default: the spec's remaining steps).

        Returns the engine's telemetry after the run.  A final
        checkpoint is written whenever a prefix is configured; periodic
        ones additionally every ``spec.checkpoint_interval`` steps.
        A :meth:`request_stop` from any thread makes the loop break at
        the next chunk boundary — the final checkpoint is still
        written, so a cancelled run stays resumable.
        """
        engine = self.engine
        if n_steps is None:
            n_steps = max(0, self.spec.steps - engine.step_count)
        if n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {n_steps}")
        target = engine.step_count + n_steps
        ckpt_interval = (
            self.spec.checkpoint_interval if self.checkpoint_prefix else 0
        )
        tracer = getattr(engine, "tracer", NULL_TRACER)
        while engine.step_count < target and not self._stop.is_set():
            chunk = target - engine.step_count
            step = engine.step_count
            for interval, _ in self._observers:
                chunk = min(chunk, interval - step % interval)
            if ckpt_interval:
                chunk = min(chunk, ckpt_interval - step % ckpt_interval)
            engine.step(chunk)
            step = engine.step_count
            due = [fn for iv, fn in self._observers if step % iv == 0]
            if due:
                with tracer.phase("observer", step=step):
                    for fn in due:
                        fn(RunEvent(step=step, engine=engine))
            if ckpt_interval and step % ckpt_interval == 0 and step < target:
                self.write_checkpoint()
        if self.checkpoint_prefix is not None:
            self.write_checkpoint()
        return engine.telemetry()

    def request_stop(self) -> None:
        """Ask a :meth:`run` in progress to break at the next chunk.

        Safe from any thread, and from an observer of the loop itself
        — which is how a serve slot cancels its job when a ``stop``
        message is waiting on its pipe.  The loop still writes its
        final checkpoint, so the partial trajectory remains resumable.
        """
        self._stop.set()

    def close(self) -> None:
        """Release engine resources (e.g. the parallel worker pool).

        Idempotent and thread-safe: a caller may close from a cleanup
        path and from another thread, possibly concurrently.  Also
        stops any loop still running.
        """
        self._stop.set()
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self.engine.close()

    # -- checkpointing -----------------------------------------------------

    def write_checkpoint(self, prefix: str | Path | None = None):
        """Snapshot the engine now (default prefix: the configured one)."""
        if prefix is None:
            prefix = self.checkpoint_prefix
        if prefix is None:
            raise ValueError("no checkpoint prefix configured")
        return write_checkpoint(
            prefix,
            self.engine.state,
            step_count=self.engine.step_count,
            spec_hash=self.spec.spec_hash(),
            engine=self.engine.name,
            rng_states=self.engine.rng_states(),
            extra=self.engine.checkpoint_extra(),
        )
