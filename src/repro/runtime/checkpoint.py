"""Checkpoint/restart: full-precision snapshots a run can resume from.

A checkpoint is three sibling files sharing one prefix:

``<prefix>.npz``
    The numeric payload at full float64 precision — positions,
    velocities (leap-frog half-step staggered, stored as-is), types,
    per-type masses, stable atom ids, and the box.
``<prefix>.json``
    The sidecar: schema tag, step count, the spec's physics hash,
    engine name, every named RNG stream's bit-generator state, and
    engine-specific extras (e.g. the WSE swap counter).
``<prefix>.xyz``
    A human-readable extended-XYZ frame of the same state (``%.10f`` —
    inspection and interop, *not* the resume source; resume always
    reads the lossless ``.npz``).

Resume refuses a checkpoint whose ``spec_hash`` disagrees with the
resuming spec's physics (:class:`CheckpointError`): continuing a
trajectory under different physics is silent corruption, not a run.

Durability: every file is written to a ``*.tmp`` sibling, fsynced, and
renamed into place, so a crash mid-write never leaves a truncated file
under the final name — at worst an orphaned ``*.tmp``, which
:func:`sweep_orphan_tmp` removes on resume or cache load.  The step
count is stored in *both* the sidecar and the ``.npz`` payload;
:func:`read_checkpoint` rejects a trio whose two counts disagree (a
torn write that replaced one file but not the other).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.io.xyz import write_xyz
from repro.md.boundary import Box
from repro.md.state import AtomsState

__all__ = [
    "CHECKPOINT_SCHEMA",
    "Checkpoint",
    "CheckpointError",
    "checkpoint_paths",
    "write_checkpoint",
    "read_checkpoint",
    "replace_synced",
    "sweep_orphan_tmp",
]

#: Sidecar schema tag; bump on any incompatible layout change.
CHECKPOINT_SCHEMA = "repro-checkpoint/1"


class CheckpointError(RuntimeError):
    """A checkpoint is missing, malformed, or physics-incompatible."""


@dataclass(frozen=True)
class Checkpoint:
    """One snapshot read back from disk (see module docs for layout)."""

    state: AtomsState
    step_count: int
    spec_hash: str
    engine: str
    rng_states: dict[str, dict] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def checkpoint_paths(prefix: str | Path) -> tuple[Path, Path, Path]:
    """The ``(.npz, .json, .xyz)`` file trio for a checkpoint prefix."""
    prefix = Path(prefix)
    return (
        prefix.with_suffix(".npz"),
        prefix.with_suffix(".json"),
        prefix.with_suffix(".xyz"),
    )


def replace_synced(tmp: Path, final: Path) -> None:
    """Fsync ``tmp`` then rename it over ``final`` (durable publish).

    Without the fsync, ``os.replace`` can publish a name whose blocks
    are still in the page cache — a crash then leaves a *complete-
    looking* but torn file under the final name, which a result cache
    would happily index.  Every checkpoint file and every file of the
    serve cache (:mod:`repro.serve.cache`) is published through here.
    """
    fd = os.open(tmp, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, final)


def sweep_orphan_tmp(prefix: str | Path) -> list[Path]:
    """Remove ``*.tmp`` siblings an interrupted write left behind.

    Returns the paths removed.  Call on resume or cache load: the
    published trio is authoritative, so any surviving temporary is
    garbage from a write that never completed.
    """
    removed = []
    for path in checkpoint_paths(prefix):
        tmp = path.with_name(path.name + ".tmp")
        try:
            tmp.unlink()
        except FileNotFoundError:
            continue
        except OSError:  # pragma: no cover - unreadable directory
            continue
        removed.append(tmp)
    return removed


def write_checkpoint(
    prefix: str | Path,
    state: AtomsState,
    *,
    step_count: int,
    spec_hash: str,
    engine: str,
    rng_states: dict[str, dict] | None = None,
    extra: dict | None = None,
    symbols: list[str] | None = None,
) -> tuple[Path, Path, Path]:
    """Write the checkpoint trio; returns the paths written.

    Each file is written to a temporary sibling, fsynced, and renamed
    into place, so a crash mid-write never leaves a truncated or torn
    checkpoint under the final name.
    """
    npz_path, json_path, xyz_path = checkpoint_paths(prefix)
    npz_path.parent.mkdir(parents=True, exist_ok=True)

    tmp = npz_path.with_name(npz_path.name + ".tmp")
    with open(tmp, "wb") as fh:
        np.savez(
            fh,
            positions=state.positions,
            velocities=state.velocities,
            types=state.types,
            masses=state.masses,
            ids=state.ids,
            box_lengths=state.box.lengths,
            box_periodic=state.box.periodic,
            box_origin=state.box.origin,
            # duplicated from the sidecar so a torn trio (one file
            # replaced, the other not) is detectable on read
            step_count=np.int64(step_count),
        )
    replace_synced(tmp, npz_path)

    sidecar = {
        "schema": CHECKPOINT_SCHEMA,
        "step_count": int(step_count),
        "spec_hash": spec_hash,
        "engine": engine,
        "rng_states": rng_states or {},
        "extra": extra or {},
    }
    tmp = json_path.with_name(json_path.name + ".tmp")
    tmp.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    replace_synced(tmp, json_path)

    tmp = xyz_path.with_name(xyz_path.name + ".tmp")
    write_xyz(state, tmp, symbols=symbols, comment=f"step={int(step_count)}")
    replace_synced(tmp, xyz_path)

    return npz_path, json_path, xyz_path


def read_checkpoint(
    prefix: str | Path, *, expected_spec_hash: str | None = None
) -> Checkpoint:
    """Read a checkpoint trio back (the ``.xyz`` is not consulted).

    With ``expected_spec_hash`` the sidecar's hash must match —
    resuming under different physics raises :class:`CheckpointError`.
    """
    npz_path, json_path, _ = checkpoint_paths(prefix)
    try:
        sidecar = json.loads(json_path.read_text())
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint sidecar {json_path}: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"corrupt checkpoint sidecar {json_path}: {exc}"
        ) from exc
    schema = sidecar.get("schema")
    if schema != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"unsupported checkpoint schema {schema!r} in {json_path}; "
            f"expected {CHECKPOINT_SCHEMA!r}"
        )
    spec_hash = sidecar.get("spec_hash", "")
    if expected_spec_hash is not None and spec_hash != expected_spec_hash:
        raise CheckpointError(
            f"checkpoint {json_path} was written for spec hash "
            f"{spec_hash!r} but the resuming spec hashes to "
            f"{expected_spec_hash!r}; refusing to continue a trajectory "
            "under different physics"
        )

    try:
        with np.load(npz_path) as data:
            state = AtomsState(
                positions=data["positions"],
                velocities=data["velocities"],
                types=data["types"],
                masses=data["masses"],
                box=Box(
                    lengths=data["box_lengths"],
                    periodic=data["box_periodic"],
                    origin=data["box_origin"],
                ),
                ids=data["ids"],
            )
            # schema/1 checkpoints predate the duplicated count
            payload_step = (
                int(data["step_count"]) if "step_count" in data else None
            )
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint payload {npz_path}: {exc}"
        ) from exc
    except (KeyError, ValueError) as exc:
        raise CheckpointError(
            f"corrupt checkpoint payload {npz_path}: {exc}"
        ) from exc

    sidecar_step = int(sidecar.get("step_count", 0))
    if payload_step is not None and payload_step != sidecar_step:
        raise CheckpointError(
            f"torn checkpoint {npz_path}: payload records step "
            f"{payload_step} but sidecar {json_path} records step "
            f"{sidecar_step}; one file was replaced without the other"
        )

    return Checkpoint(
        state=state,
        step_count=int(sidecar.get("step_count", 0)),
        spec_hash=spec_hash,
        engine=sidecar.get("engine", ""),
        rng_states=sidecar.get("rng_states", {}),
        extra=sidecar.get("extra", {}),
    )
