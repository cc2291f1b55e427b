"""Spec-hash result cache over the atomic checkpoint store.

The cache directory holds one entry per ``(spec_hash, n_steps)`` key:
the checkpoint (``<hash>-<steps>.npz`` — the same atomic, fsynced file
:mod:`repro.runtime.checkpoint` writes) plus the run's telemetry
(``<hash>-<steps>.telemetry.json``), indexed by ``index.json`` and its
journal, ``index.journal``.

Because ``spec_hash`` digests only the physics-determining fields
(those declared ``physics=True`` in :class:`~repro.runtime.spec.RunSpec`'s
field metadata), a request that differs solely in the others — the
speed knobs ``backend``, ``workers``, ``topology`` and ``transport`` —
maps to the same key and hits.  A request for *more* steps of a cached
spec finds the deepest shallower entry via :meth:`best_resume` and
continues from its checkpoint instead of restarting.

The index is a snapshot plus an append-only journal, so each operation
writes O(1) bytes however many entries the cache holds:

* ``index.json``, the snapshot, is the whole index (schema, logical
  clock, generation, every row).  It is written whole only on load, on
  compaction and when the files on disk are not the ones this instance
  last wrote;
* ``index.journal`` starts with a header naming the snapshot's
  generation, then holds one compact JSON line per ``put`` (with the
  keys it evicted over the cap), per touch (a :meth:`lookup` or
  :meth:`best_resume` hit) and per :meth:`evict`.  Each line is
  fsynced before the call returns;
* before each append the ``(inode, size, mtime)`` of both files is
  checked against what this instance wrote: a file torn, truncated or
  replaced under a live owner makes the append a whole rewrite of the
  snapshot and a fresh journal, because the in-memory index is
  authoritative;
* loading replays the journal onto the snapshot it extends (same
  generation) and stops at the first line that is torn (no newline) or
  unparsable.  A corrupt snapshot is an empty cache and its journal is
  ignored.  Then the index is compacted;
* compaction — a new snapshot, one generation on, and a fresh journal —
  also runs once the journal holds more lines than twice the entry
  count (at least ``JOURNAL_FLOOR``), so its O(entries) cost is spread
  over at least as many O(1) appends.

An operation costs two ``stat`` calls, one line and one ``fsync``;
running byte totals, a per-spec sorted step list and an LRU-ordered
entry table keep :meth:`best_resume`, the byte cap and :meth:`stats`
free of scans over the entries.

Durability and corruption tolerance:

* entries are registered in the index only after their files are fully
  published, so a crash mid-run never indexes a partial result;
* the snapshot, the fresh journal and each telemetry file are published
  like the checkpoint (:func:`~repro.runtime.checkpoint.replace_synced`:
  fsync, then rename), so a power loss cannot leave an empty or torn
  snapshot — which loading would read as an empty cache, unlinking
  every entry's files as unreferenced;
* loading sweeps orphaned ``*.tmp`` files an interrupted write left
  behind and drops index entries whose files are missing;
* every lookup re-validates the checkpoint through
  :func:`~repro.runtime.checkpoint.check_checkpoint` (every member's
  CRC, the ``meta`` record; no state is built) — a torn, bit-flipped
  or physics-mismatched file evicts the entry and reports a miss instead
  of serving garbage;
* an LRU byte cap bounds the directory; eviction order is a persisted
  logical clock, not wall time, so it is deterministic under test.

One process owns a cache directory.  Under ``repro serve`` that is the
server: slot processes write checkpoints under prefixes it hands
them, but every call below is made on its event loop, so the index
needs no cross-process locking.  The reentrant lock keeps an instance
shareable between threads — concurrent ``put`` calls must not
interleave their journal lines or race a compaction's renames.
"""

from __future__ import annotations

import bisect
import errno
import json
import os
import shutil
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.runtime.checkpoint import (
    CheckpointError,
    check_checkpoint,
    checkpoint_paths,
    replace_synced,
    sweep_orphan_tmp,
)

__all__ = ["CacheEntry", "ResultCache"]

INDEX_NAME = "index.json"
JOURNAL_NAME = "index.journal"
#: Index schema tag; bump on incompatible layout changes.
INDEX_SCHEMA = "repro-serve-cache/1"
#: the journal is compacted once it holds more lines than twice the
#: entry count, and never below this many
JOURNAL_FLOOR = 16


@dataclass(frozen=True)
class CacheEntry:
    """One validated cache row."""

    spec_hash: str
    steps: int
    nbytes: int


def _key_name(spec_hash: str, steps: int) -> str:
    return f"{spec_hash}-{int(steps)}"


def _fingerprint(st: os.stat_result) -> tuple:
    return (st.st_ino, st.st_size, st.st_mtime_ns)


def _compact(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _replay(rows: dict, record) -> int:
    """Apply one journal record to ``rows`` (key -> [bytes, used]);
    the logical clock it carries (0 for an eviction).

    A record of the wrong shape raises ``ValueError`` or ``TypeError``
    before it changes ``rows``, which ends the replay there.
    """
    op, spec_hash, steps, *rest = record
    key = (str(spec_hash), int(steps))
    if op == "p":
        nbytes, used, victims = rest
        victims = [(str(h), int(s)) for h, s in victims]
        rows[key] = [int(nbytes), int(used)]
        for victim in victims:
            rows.pop(victim, None)
        return int(used)
    if op == "t":
        (used,) = rest
        if key in rows:
            rows[key][1] = int(used)
        return int(used)
    if op == "e" and not rest:
        rows.pop(key, None)
        return 0
    raise ValueError(f"not a journal record: {record!r}")


class ResultCache:
    """On-disk ``(spec_hash, n_steps)`` result store with LRU cap."""

    def __init__(
        self, root: str | Path, *, max_bytes: int = 2 * 1024**3
    ) -> None:
        if max_bytes < 0:
            raise ValueError(f"cache cap must be >= 0 bytes, got {max_bytes}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = int(max_bytes)
        self.hits = 0
        self.misses = 0
        self.resumes = 0
        self.evictions = 0
        self._clock = 0
        #: key -> {"bytes": int, "used": int}, least recently used first
        self._entries: dict[tuple, dict] = {}
        self._bytes = 0
        #: spec_hash -> the steps it holds, ascending
        self._steps: dict[str, list[int]] = {}
        self._generation = 0
        #: journal records since the snapshot
        self._lines = 0
        #: file name -> fingerprint of what this instance last wrote
        self._written: dict[str, tuple] = {}
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

    # -- the in-memory index -----------------------------------------------

    def _add(self, key: tuple, nbytes: int, used: int) -> None:
        """Insert or replace a row as the most recently used."""
        self._drop(key)
        self._entries[key] = {"bytes": nbytes, "used": used}
        self._bytes += nbytes
        bisect.insort(self._steps.setdefault(key[0], []), key[1])

    def _drop(self, key: tuple) -> dict | None:
        row = self._entries.pop(key, None)
        if row is not None:
            self._bytes -= row["bytes"]
            steps = self._steps[key[0]]
            del steps[bisect.bisect_left(steps, key[1])]
            if not steps:
                del self._steps[key[0]]
        return row

    def _unlink_files(self, spec_hash: str, steps: int) -> None:
        for path in self._entry_files(spec_hash, steps):
            try:
                path.unlink()
            except OSError:
                pass

    # -- index persistence -------------------------------------------------

    def _load_index(self) -> None:
        """Read snapshot + journal tolerantly; sweep crash leftovers.

        A corrupt or missing snapshot is an empty cache, never an error
        — unreferenced entry files are garbage-collected, and orphaned
        ``*.tmp`` siblings from interrupted writes are removed.
        """
        for tmp in self.root.glob("*.tmp"):
            try:
                tmp.unlink()
            except OSError:  # pragma: no cover - unreadable dir
                pass
        generation, clock, rows = self._read_snapshot()
        header, records = self._read_journal()
        journal_generation = header.get("generation")
        if rows is not None and journal_generation == generation:
            for record in records:
                try:
                    clock = max(clock, _replay(rows, record))
                except (ValueError, TypeError):
                    break
        rows = rows or {}
        # never reuse a generation a stray journal already carries
        if type(journal_generation) is int:
            generation = max(generation, journal_generation)
        self._generation = generation
        self._clock = clock
        kept_names = {INDEX_NAME, JOURNAL_NAME}
        for key, (nbytes, used) in sorted(
            rows.items(), key=lambda item: item[1][1]
        ):
            files = self._entry_files(*key)
            if not all(p.exists() for p in files):
                continue  # torn entry: files gone, drop the row
            self._add(key, nbytes, used)
            kept_names.update(p.name for p in files)
        # files no index row references are leftovers from a crash
        # between publish and index write (or from an evicted entry)
        for path in self.root.iterdir():
            if path.name not in kept_names and path.is_file():
                try:
                    path.unlink()
                except OSError:  # pragma: no cover
                    pass
        self._write_snapshot()

    def _read_snapshot(self) -> tuple[int, int, dict | None]:
        """``(generation, clock, rows)``; rows ``None`` if unusable."""
        try:
            raw = json.loads((self.root / INDEX_NAME).read_text())
            if raw.get("schema") != INDEX_SCHEMA:
                return 0, 0, None
            generation = int(raw.get("generation", 0))
            clock = int(raw.get("clock", 0))
            entries = list(raw.get("entries", []))
        except (OSError, ValueError, TypeError, AttributeError):
            return 0, 0, None
        rows = {}
        for row in entries:
            try:
                key = (str(row["spec_hash"]), int(row["steps"]))
                rows[key] = [int(row["bytes"]), int(row["used"])]
            except (KeyError, TypeError, ValueError):
                continue
        return generation, clock, rows

    def _read_journal(self) -> tuple[dict, list]:
        """The journal's header and its records up to the first torn
        or unparsable line."""
        try:
            lines = (self.root / JOURNAL_NAME).read_bytes().split(b"\n")
        except OSError:
            return {}, []
        # the last piece has no newline: empty, or a torn append
        header, *body = lines[:-1] or [b""]
        try:
            header = json.loads(header)
        except ValueError:
            return {}, []
        if not isinstance(header, dict) or header.get("schema") != INDEX_SCHEMA:
            return {}, []
        records = []
        for line in body:
            try:
                records.append(json.loads(line))
            except ValueError:
                break
        return header, records

    def _publish(self, name: str, text: str) -> None:
        path = self.root / name
        tmp = path.with_name(name + ".tmp")
        tmp.write_text(text)
        replace_synced(tmp, path)
        self._written[name] = _fingerprint(path.stat())

    def _write_snapshot(self) -> None:
        """Compact: the whole index as a new snapshot, a fresh journal."""
        self._written = {}  # a failure below leaves the guard tripped
        self._generation += 1
        self._publish(INDEX_NAME, _compact({
            "schema": INDEX_SCHEMA,
            "generation": self._generation,
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
        }))
        self._publish(JOURNAL_NAME, _compact(
            {"schema": INDEX_SCHEMA, "generation": self._generation}
        ))
        self._lines = 0

    def _on_disk_is_ours(self) -> bool:
        """Both index files are the ones this instance last wrote."""
        try:
            return len(self._written) == 2 and all(
                _fingerprint(os.stat(self.root / name)) == fingerprint
                for name, fingerprint in self._written.items()
            )
        except OSError:
            return False

    def _append(self, record: list) -> None:
        """Journal one operation (already applied in memory), fsynced.

        Files changed under this instance get the whole index instead.
        """
        if not self._on_disk_is_ours():
            self._write_snapshot()
            return
        line = _compact(record).encode()
        fd = os.open(self.root / JOURNAL_NAME, os.O_WRONLY | os.O_APPEND)
        try:
            if os.write(fd, line) != len(line):
                raise OSError(errno.ENOSPC, "short write to the cache journal")
            os.fsync(fd)
            self._written[JOURNAL_NAME] = _fingerprint(os.fstat(fd))
        finally:
            os.close(fd)
        self._lines += 1
        if self._lines > max(2 * len(self._entries), JOURNAL_FLOOR):
            self._write_snapshot()

    # -- queries -----------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        return self._bytes

    def stats(self) -> dict:
        """JSON-ready counters for the API's stats op."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "resumes": self.resumes,
                "evictions": self.evictions,
            }

    def _touch(self, key: tuple) -> dict:
        self._clock += 1
        row = self._entries.pop(key)
        row["used"] = self._clock
        self._entries[key] = row
        self._append(["t", key[0], key[1], self._clock])
        return row

    def _validate(self, spec_hash: str, steps: int) -> bool:
        """Re-check an entry's checkpoint before serving it.

        Corruption-tolerant: any :class:`CheckpointError` (torn or
        bit-flipped file, bad schema, physics mismatch) — or a
        checkpoint whose recorded step count is not the key's — evicts
        the entry and reports it unusable.
        """
        prefix = self.prefix(spec_hash, steps)
        sweep_orphan_tmp(prefix)
        try:
            step_count = check_checkpoint(prefix, expected_spec_hash=spec_hash)
        except CheckpointError:
            self.evict(spec_hash, steps)
            return False
        if step_count != steps:
            self.evict(spec_hash, steps)
            return False
        return True

    def lookup(self, spec_hash: str, steps: int) -> CacheEntry | None:
        """Exact hit for ``(spec_hash, steps)``, or ``None``."""
        with self._lock:
            key = (spec_hash, int(steps))
            if key not in self._entries or not self._validate(*key):
                self.misses += 1
                return None
            row = self._touch(key)
            self.hits += 1
            return CacheEntry(key[0], key[1], row["bytes"])

    def best_resume(self, spec_hash: str, steps: int) -> CacheEntry | None:
        """Deepest valid entry of this spec strictly shallower than
        ``steps`` — the checkpoint a longer run resumes from."""
        with self._lock:
            while True:
                held = self._steps.get(spec_hash, [])
                below = bisect.bisect_left(held, int(steps))
                if below == 0:
                    return None
                key = (spec_hash, held[below - 1])
                # an invalid candidate is evicted, so the next pass
                # finds the one beneath it
                if self._validate(*key):
                    row = self._touch(key)
                    self.resumes += 1
                    return CacheEntry(key[0], key[1], row["bytes"])

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

        The checkpoint is expected at :meth:`prefix` (the
        scheduler points the runner's checkpoint prefix there), or at
        ``src_prefix`` — e.g. when a cancelled run stopped short of its
        target and the file carries the target's name — in which case
        the file is renamed onto the key it actually computed.
        """
        with self._lock:
            steps = int(steps)
            key = (spec_hash, steps)
            dst = self.prefix(spec_hash, steps)
            tele_path = self._telemetry_path(spec_hash, steps)
            tmp = tele_path.with_name(tele_path.name + ".tmp")
            try:
                if src_prefix is not None and Path(src_prefix) != dst:
                    for src, final in zip(
                        checkpoint_paths(src_prefix), checkpoint_paths(dst)
                    ):
                        os.replace(src, final)
                tmp.write_text(
                    json.dumps(telemetry, indent=2, sort_keys=True) + "\n"
                )
                replace_synced(tmp, tele_path)
                nbytes = sum(
                    p.stat().st_size
                    for p in self._entry_files(spec_hash, steps)
                )
            except BaseException:
                # e.g. a full disk: what was written for a key no index
                # row holds would be referenced by nothing
                stray = [tmp]
                if key not in self._entries:
                    stray += self._entry_files(spec_hash, steps)
                for path in stray:
                    path.unlink(missing_ok=True)
                raise
            self._clock += 1
            self._add(key, nbytes, self._clock)
            victims = self._evict_over_cap(keep=key)
            # one line, so a torn tail loses the put and its evictions
            # together
            self._append(
                ["p", spec_hash, steps, nbytes, self._clock,
                 [list(victim) for victim in victims]]
            )
            return CacheEntry(spec_hash, steps, nbytes)

    def evict(self, spec_hash: str, steps: int) -> None:
        """Drop one entry and its files (missing files are fine)."""
        with self._lock:
            key = (spec_hash, int(steps))
            self._unlink_files(*key)
            if self._drop(key) is not None:
                self._append(["e", key[0], key[1]])

    def _evict_over_cap(self, *, keep: tuple) -> list[tuple]:
        """LRU-evict until under the byte cap (never the ``keep`` key);
        the keys evicted."""
        victims = []
        while self._bytes > self.max_bytes and len(self._entries) > 1:
            # the table is in LRU order and ``keep`` is its newest row
            victim = next(key for key in self._entries if key != keep)
            self._drop(victim)
            self._unlink_files(*victim)
            self.evictions += 1
            victims.append(victim)
        return victims

    def clear(self) -> None:
        """Drop everything (directory survives, empty and indexed)."""
        with self._lock:
            for key in list(self._entries):
                self._drop(key)
            shutil.rmtree(self.root, ignore_errors=True)
            self.root.mkdir(parents=True, exist_ok=True)
            self._write_snapshot()
