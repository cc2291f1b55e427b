"""Spec-hash result cache over the atomic checkpoint store.

The cache directory holds one entry per ``(spec_hash, n_steps)`` key:
the checkpoint trio (``<hash>-<steps>.npz/.json/.xyz`` — the same
atomic, fsynced files :mod:`repro.runtime.checkpoint` writes) plus the
run's telemetry (``<hash>-<steps>.telemetry.json``), indexed by
``index.json``.

Because ``spec_hash`` digests only the physics-determining fields
(those declared ``physics=True`` in :class:`~repro.runtime.spec.RunSpec`'s
field metadata), a request that differs solely in the others — the
speed knobs ``backend``, ``workers``, ``topology``, ``transport`` and
``offset_chunk`` — maps to the same key and hits.  A request for *more* steps of a cached spec
finds the deepest shallower entry via :meth:`best_resume` and continues
from its checkpoint instead of restarting.

Durability and corruption tolerance:

* entries are registered in the index only after their files are fully
  published, so a crash mid-run never indexes a partial result;
* loading sweeps orphaned ``*.tmp`` files an interrupted write left
  behind and drops index entries whose files are missing;
* every lookup re-validates the checkpoint through
  :func:`~repro.runtime.checkpoint.read_checkpoint` — a torn or
  physics-mismatched trio (including a sidecar step count disagreeing
  with the npz payload) evicts the entry and reports a miss instead of
  serving garbage;
* an LRU byte cap bounds the directory; eviction order is a persisted
  logical clock, not wall time, so it is deterministic under test.

One process owns a cache directory.  Under ``repro serve`` that is the
server: slot processes write checkpoint trios under prefixes it hands
them, but every call below is made on its event loop, so the index
needs no cross-process locking.  The reentrant lock keeps an instance
shareable between threads — concurrent ``put`` calls must not race the
``index.json.tmp`` -> ``index.json`` rename.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.obs import metrics
from repro.runtime.checkpoint import (
    CheckpointError,
    checkpoint_paths,
    read_checkpoint,
    sweep_orphan_tmp,
)

__all__ = ["CacheEntry", "ResultCache"]

INDEX_NAME = "index.json"
#: Index schema tag; bump on incompatible layout changes.
INDEX_SCHEMA = "repro-serve-cache/1"


@dataclass(frozen=True)
class CacheEntry:
    """One validated cache row."""

    spec_hash: str
    steps: int
    nbytes: int

    @property
    def key(self) -> tuple:
        return (self.spec_hash, self.steps)


def _key_name(spec_hash: str, steps: int) -> str:
    return f"{spec_hash}-{int(steps)}"


class ResultCache:
    """On-disk ``(spec_hash, n_steps)`` result store with LRU cap."""

    def __init__(
        self, root: str | Path, *, max_bytes: int = 2 * 1024**3
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = int(max_bytes)
        self.hits = 0
        self.misses = 0
        self.resumes = 0
        self.evictions = 0
        self._clock = 0
        #: key -> {"bytes": int, "used": int}
        self._entries: dict[tuple, dict] = {}
        # reentrant: evict() runs inside locked lookup()/best_resume()
        self._lock = threading.RLock()
        self._load_index()

    # -- paths -------------------------------------------------------------

    def prefix(self, spec_hash: str, steps: int) -> Path:
        """Checkpoint path prefix for a key (also the staging prefix)."""
        return self.root / _key_name(spec_hash, steps)

    def _telemetry_path(self, spec_hash: str, steps: int) -> Path:
        return self.root / (_key_name(spec_hash, steps) + ".telemetry.json")

    def _entry_files(self, spec_hash: str, steps: int) -> list[Path]:
        return [
            *checkpoint_paths(self.prefix(spec_hash, steps)),
            self._telemetry_path(spec_hash, steps),
        ]

    # -- index persistence -------------------------------------------------

    def _load_index(self) -> None:
        """Read the index tolerantly; sweep crash leftovers.

        A corrupt or missing index is an empty cache, never an error —
        unreferenced entry files are garbage-collected, and orphaned
        ``*.tmp`` siblings from interrupted writes are removed.
        """
        for tmp in self.root.glob("*.tmp"):
            try:
                tmp.unlink()
            except OSError:  # pragma: no cover - unreadable dir
                pass
        index_path = self.root / INDEX_NAME
        raw = {}
        try:
            raw = json.loads(index_path.read_text())
        except (OSError, json.JSONDecodeError):
            raw = {}
        if raw.get("schema") != INDEX_SCHEMA:
            raw = {}
        self._clock = int(raw.get("clock", 0))
        kept_names = {INDEX_NAME}
        for row in raw.get("entries", []):
            try:
                spec_hash = str(row["spec_hash"])
                steps = int(row["steps"])
                nbytes = int(row["bytes"])
                used = int(row["used"])
            except (KeyError, TypeError, ValueError):
                continue
            files = self._entry_files(spec_hash, steps)
            if not all(p.exists() for p in files):
                continue  # torn entry: files gone, drop the row
            self._entries[(spec_hash, steps)] = {
                "bytes": nbytes, "used": used,
            }
            kept_names.update(p.name for p in files)
        # files no index row references are leftovers from a crash
        # between publish and index write (or from an evicted entry)
        for path in self.root.iterdir():
            if path.name not in kept_names and path.is_file():
                try:
                    path.unlink()
                except OSError:  # pragma: no cover
                    pass
        self._persist()

    def _persist(self) -> None:
        index_path = self.root / INDEX_NAME
        payload = {
            "schema": INDEX_SCHEMA,
            "clock": self._clock,
            "entries": [
                {
                    "spec_hash": key[0],
                    "steps": key[1],
                    "bytes": row["bytes"],
                    "used": row["used"],
                }
                for key, row in sorted(self._entries.items())
            ],
        }
        tmp = index_path.with_name(index_path.name + ".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, index_path)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return sum(row["bytes"] for row in self._entries.values())

    def stats(self) -> dict:
        """JSON-ready counters for the API's stats op."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self.total_bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "resumes": self.resumes,
                "evictions": self.evictions,
            }

    def _touch(self, key: tuple) -> None:
        self._clock += 1
        self._entries[key]["used"] = self._clock

    def _validate(self, spec_hash: str, steps: int) -> bool:
        """Re-check an entry's checkpoint before serving it.

        Corruption-tolerant: any :class:`CheckpointError` (torn npz,
        bad sidecar, step-count disagreement, physics mismatch) — or a
        checkpoint whose recorded step count is not the key's — evicts
        the entry and reports it unusable.
        """
        prefix = self.prefix(spec_hash, steps)
        sweep_orphan_tmp(prefix)
        try:
            checkpoint = read_checkpoint(prefix, expected_spec_hash=spec_hash)
        except CheckpointError:
            self.evict(spec_hash, steps)
            metrics().counter("serve.cache.corrupt").inc()
            return False
        if checkpoint.step_count != steps:
            self.evict(spec_hash, steps)
            metrics().counter("serve.cache.corrupt").inc()
            return False
        return True

    def lookup(self, spec_hash: str, steps: int) -> CacheEntry | None:
        """Exact hit for ``(spec_hash, steps)``, or ``None``."""
        with self._lock:
            key = (spec_hash, int(steps))
            row = self._entries.get(key)
            if row is None or not self._validate(*key):
                self.misses += 1
                metrics().counter("serve.cache.miss").inc()
                return None
            self._touch(key)
            self._persist()
            self.hits += 1
            metrics().counter("serve.cache.hit").inc()
            return CacheEntry(key[0], key[1], row["bytes"])

    def best_resume(self, spec_hash: str, steps: int) -> CacheEntry | None:
        """Deepest valid entry of this spec strictly shallower than
        ``steps`` — the checkpoint a longer run resumes from."""
        with self._lock:
            candidates = sorted(
                (
                    key
                    for key in self._entries
                    if key[0] == spec_hash and key[1] < int(steps)
                ),
                key=lambda key: key[1],
                reverse=True,
            )
            for key in candidates:
                if self._validate(*key):
                    self._touch(key)
                    self._persist()
                    self.resumes += 1
                    metrics().counter("serve.cache.resume").inc()
                    return CacheEntry(
                        key[0], key[1], self._entries[key]["bytes"]
                    )
            return None

    def telemetry(self, spec_hash: str, steps: int) -> dict | None:
        """The stored telemetry for a key (``None`` if unreadable)."""
        try:
            return json.loads(
                self._telemetry_path(spec_hash, steps).read_text()
            )
        except (OSError, json.JSONDecodeError):
            return None

    # -- mutation ----------------------------------------------------------

    def put(
        self,
        spec_hash: str,
        steps: int,
        telemetry: dict,
        *,
        src_prefix: str | Path | None = None,
    ) -> CacheEntry:
        """Publish a finished run under ``(spec_hash, steps)``.

        The checkpoint trio is expected at :meth:`prefix` (the
        scheduler points the runner's checkpoint prefix there), or at
        ``src_prefix`` — e.g. when a cancelled run stopped short of its
        target and the files carry the target's name — in which case
        the trio is renamed onto the key it actually computed.
        """
        with self._lock:
            steps = int(steps)
            dst = self.prefix(spec_hash, steps)
            if src_prefix is not None and Path(src_prefix) != dst:
                for src, final in zip(
                    checkpoint_paths(src_prefix), checkpoint_paths(dst)
                ):
                    os.replace(src, final)
            tele_path = self._telemetry_path(spec_hash, steps)
            tmp = tele_path.with_name(tele_path.name + ".tmp")
            tmp.write_text(
                json.dumps(telemetry, indent=2, sort_keys=True) + "\n"
            )
            os.replace(tmp, tele_path)
            nbytes = sum(
                p.stat().st_size for p in self._entry_files(spec_hash, steps)
            )
            key = (spec_hash, steps)
            self._clock += 1
            self._entries[key] = {"bytes": nbytes, "used": self._clock}
            self._evict_over_cap(keep=key)
            self._persist()
            metrics().counter("serve.cache.put").inc()
            return CacheEntry(spec_hash, steps, nbytes)

    def evict(self, spec_hash: str, steps: int) -> None:
        """Drop one entry and its files (missing files are fine)."""
        with self._lock:
            self._entries.pop((spec_hash, int(steps)), None)
            for path in self._entry_files(spec_hash, steps):
                try:
                    path.unlink()
                except OSError:
                    pass
            self._persist()

    def _evict_over_cap(self, *, keep: tuple) -> None:
        """LRU-evict until under the byte cap (never the ``keep`` key)."""
        while self.total_bytes > self.max_bytes and len(self._entries) > 1:
            victim = min(
                (key for key in self._entries if key != keep),
                key=lambda key: self._entries[key]["used"],
                default=None,
            )
            if victim is None:
                break
            self._entries.pop(victim)
            for path in self._entry_files(*victim):
                try:
                    path.unlink()
                except OSError:
                    pass
            self.evictions += 1
            metrics().counter("serve.cache.evicted").inc()

    def clear(self) -> None:
        """Drop everything (directory survives, empty and indexed)."""
        with self._lock:
            for key in list(self._entries):
                self.evict(*key)
            shutil.rmtree(self.root, ignore_errors=True)
            self.root.mkdir(parents=True, exist_ok=True)
            self._persist()
