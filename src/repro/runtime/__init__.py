"""Unified engine runtime: one declarative way to run either engine.

The layers, bottom to top:

:mod:`repro.runtime.rng`
    Named deterministic RNG streams split from one run seed.
:mod:`repro.runtime.telemetry`
    The :class:`Telemetry` record both engines reduce their accounting
    to.
:mod:`repro.runtime.spec`
    :class:`RunSpec` — everything that determines a run, loadable from
    TOML/JSON, hashed for checkpoint compatibility.
:mod:`repro.runtime.engines`
    The :class:`Engine` protocol, the two adapters, and the
    :func:`build_engine` factory.
:mod:`repro.runtime.checkpoint`
    Full-precision one-file ``.npz`` snapshots (state + JSON ``meta``).
:mod:`repro.runtime.runner`
    The :class:`Runner` loop: observers, checkpoints, resume.

Typical use::

    from repro.runtime import RunSpec, Runner

    spec = RunSpec.from_file("run.toml")
    runner = Runner.from_spec(spec, checkpoint_prefix="out/run")
    telemetry = runner.run()
"""

from repro.runtime.checkpoint import (
    CHECKPOINT_SCHEMA,
    Checkpoint,
    CheckpointError,
    check_checkpoint,
    checkpoint_paths,
    read_checkpoint,
    sweep_orphan_tmp,
    write_checkpoint,
)
from repro.runtime.engines import (
    Engine,
    ReferenceEngine,
    WseEngine,
    build_engine,
    build_state,
)
from repro.runtime.rng import (
    STREAM_NAMES,
    get_rng_state,
    seed_streams,
    set_rng_state,
)
from repro.runtime.runner import RunEvent, Runner
from repro.runtime.spec import RunSpec, SpecError, ThermostatSpec
from repro.runtime.telemetry import Telemetry

__all__ = [
    "CHECKPOINT_SCHEMA",
    "Checkpoint",
    "CheckpointError",
    "Engine",
    "ReferenceEngine",
    "RunEvent",
    "RunSpec",
    "Runner",
    "STREAM_NAMES",
    "SpecError",
    "Telemetry",
    "ThermostatSpec",
    "WseEngine",
    "build_engine",
    "build_state",
    "checkpoint_paths",
    "get_rng_state",
    "read_checkpoint",
    "check_checkpoint",
    "seed_streams",
    "set_rng_state",
    "sweep_orphan_tmp",
    "write_checkpoint",
]
