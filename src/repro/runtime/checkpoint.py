"""Checkpoint/restart: full-precision snapshots a run can resume from.

A checkpoint is one file, ``<prefix>.npz``, holding the state at full
float64 precision — positions, velocities (leap-frog half-step
staggered, stored as-is), types, per-type masses, stable atom ids, and
the box — plus a ``meta`` member: a 0-d unicode array with the JSON
record of the schema tag, step count, the spec's physics hash, engine
name, every named RNG stream's bit-generator state, and
engine-specific extras (e.g. the WSE swap counter).  For a
human-readable frame, ``write_xyz(read_checkpoint(p).state, "f.xyz")``.

Resume refuses a checkpoint whose ``spec_hash`` disagrees with the
resuming spec's physics (:class:`CheckpointError`): continuing a
trajectory under different physics is silent corruption, not a run.

Durability: the file is written to a ``*.tmp`` sibling, fsynced, and
renamed into place, so a crash mid-write never leaves a truncated file
under the final name — at worst an orphaned ``*.tmp``, which
:func:`sweep_orphan_tmp` removes on resume or cache load.  State and
metadata share that one rename, so no crash can publish one without
the other.  A file torn or bit-flipped by anything else is caught by
the zip members' CRC-32 and reads as a :class:`CheckpointError`.
"""

from __future__ import annotations

import io
import json
import os
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.md.boundary import Box
from repro.md.state import AtomsState

__all__ = [
    "CHECKPOINT_SCHEMA",
    "Checkpoint",
    "CheckpointError",
    "check_checkpoint",
    "checkpoint_paths",
    "write_checkpoint",
    "read_checkpoint",
    "replace_synced",
    "sweep_orphan_tmp",
]

#: Schema tag in the ``meta`` member; bump on any incompatible layout change.
CHECKPOINT_SCHEMA = "repro-checkpoint/2"

#: What numpy's npz reader and :mod:`zipfile` raise on a torn or
#: bit-flipped file: a bad CRC or header is ``BadZipFile``, a cut
#: member ``EOFError``, a flipped compression method
#: ``NotImplementedError`` or ``zlib.error``, a set encryption flag
#: ``RuntimeError``.
_CORRUPT = (
    KeyError, ValueError, EOFError, NotImplementedError, RuntimeError,
    zipfile.BadZipFile, zlib.error,
)


#: The arrays of a checkpoint, beside its ``meta`` member, by member
#: name: the :class:`AtomsState` field of that name, ``box_<x>`` its
#: box's ``x``.  The one list the writer, the reader and the check use.
_ARRAYS = ("positions", "velocities", "types", "masses", "ids",
           "box_lengths", "box_periodic", "box_origin")
_BOX = "box_"


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


def checkpoint_paths(prefix: str | Path) -> tuple[Path]:
    """The files of a checkpoint: ``(<prefix>.npz,)``."""
    return (Path(prefix).with_suffix(".npz"),)


def replace_synced(tmp: Path, final: Path) -> None:
    """Fsync ``tmp`` then rename it over ``final`` (durable publish).

    Without the fsync, ``os.replace`` can publish a name whose blocks
    are still in the page cache — a crash then leaves a *complete-
    looking* but torn file under the final name, which a result cache
    would happily index.  Every checkpoint and every file of the
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
    published file is authoritative, so any surviving temporary is
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
) -> tuple[Path]:
    """Write the checkpoint; returns the paths written (one).

    The file is written to a temporary sibling, fsynced, and renamed
    into place, so a crash mid-write never leaves a truncated or torn
    checkpoint under the final name.
    """
    (npz_path,) = checkpoint_paths(prefix)
    npz_path.parent.mkdir(parents=True, exist_ok=True)
    meta = {
        "schema": CHECKPOINT_SCHEMA,
        "step_count": int(step_count),
        "spec_hash": spec_hash,
        "engine": engine,
        "rng_states": rng_states or {},
        "extra": extra or {},
    }
    tmp = npz_path.with_name(npz_path.name + ".tmp")
    with open(tmp, "wb") as fh:
        arrays = {
            name: (getattr(state.box, name[len(_BOX):])
                   if name.startswith(_BOX) else getattr(state, name))
            for name in _ARRAYS
        }
        np.savez(fh, **arrays,
                 meta=np.array(json.dumps(meta, sort_keys=True)))
    replace_synced(tmp, npz_path)
    return (npz_path,)


def read_checkpoint(
    prefix: str | Path, *, expected_spec_hash: str | None = None
) -> Checkpoint:
    """Read a checkpoint back.

    With ``expected_spec_hash`` the recorded hash must match —
    resuming under different physics raises :class:`CheckpointError`.
    """
    (npz_path,) = checkpoint_paths(prefix)
    try:
        with np.load(npz_path) as data:
            meta = json.loads(str(data["meta"])) if "meta" in data else {}
            fields = {name: data[name] for name in _ARRAYS}
        box = Box(**{name[len(_BOX):]: fields.pop(name)
                     for name in _ARRAYS if name.startswith(_BOX)})
        state = AtomsState(box=box, **fields)
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint {npz_path}: {exc}"
        ) from exc
    except _CORRUPT as exc:
        raise CheckpointError(
            f"corrupt checkpoint {npz_path}: {exc}"
        ) from exc

    spec_hash = _checked_meta(meta, npz_path, expected_spec_hash)
    return Checkpoint(
        state=state,
        step_count=int(meta.get("step_count", 0)),
        spec_hash=spec_hash,
        engine=meta.get("engine", ""),
        rng_states=meta.get("rng_states", {}),
        extra=meta.get("extra", {}),
    )


def check_checkpoint(
    prefix: str | Path, *, expected_spec_hash: str | None = None
) -> int:
    """The step count of a checkpoint, checked without building its
    state.

    Every zip member is read to its end, so the CRC-32 of each is
    checked; only ``meta`` is decoded.  A member missing, torn or
    bit-flipped, a bad schema or (with ``expected_spec_hash``) a
    physics mismatch raises :class:`CheckpointError`, as
    :func:`read_checkpoint` does.  The arrays' shapes and dtypes, which
    :class:`AtomsState` checks when :func:`read_checkpoint` builds one,
    are not checked here.
    """
    (npz_path,) = checkpoint_paths(prefix)
    try:
        with zipfile.ZipFile(npz_path) as archive:
            meta, names = {}, set()
            for info in archive.infolist():
                with archive.open(info) as member:
                    raw = member.read()  # to its end: the CRC is checked
                names.add(info.filename)
                if info.filename == "meta.npy":
                    meta = json.loads(str(np.lib.format.read_array(
                        io.BytesIO(raw), allow_pickle=False)))
            missing = [a for a in _ARRAYS if f"{a}.npy" not in names]
            if missing:
                raise KeyError(f"{missing[0]} is not a file in the archive")
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint {npz_path}: {exc}"
        ) from exc
    except _CORRUPT as exc:
        raise CheckpointError(
            f"corrupt checkpoint {npz_path}: {exc}"
        ) from exc
    _checked_meta(meta, npz_path, expected_spec_hash)
    return int(meta.get("step_count", 0))


def _checked_meta(meta, npz_path: Path, expected_spec_hash: str | None) -> str:
    """The spec hash of a decoded ``meta`` record, once its schema (and
    the hash, when one is expected) passed."""
    schema = meta.get("schema") if isinstance(meta, dict) else None
    if schema != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"unsupported checkpoint schema {schema!r} in {npz_path}; "
            f"expected {CHECKPOINT_SCHEMA!r}"
        )
    spec_hash = meta.get("spec_hash", "")
    if expected_spec_hash is not None and spec_hash != expected_spec_hash:
        raise CheckpointError(
            f"checkpoint {npz_path} was written for spec hash "
            f"{spec_hash!r} but the resuming spec hashes to "
            f"{expected_spec_hash!r}; refusing to continue a trajectory "
            "under different physics"
        )
    return spec_hash
