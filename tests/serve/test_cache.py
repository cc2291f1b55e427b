"""ResultCache: hits, resume depth, corruption tolerance, LRU cap."""

import errno
import json
import os

import numpy as np
import pytest

from repro.runtime import RunSpec, Runner, checkpoint_paths
from repro.serve import ResultCache

SPEC = RunSpec(
    element="Ta", reps=(3, 3, 2), temperature=120.0, seed=3,
    engine="reference", steps=4,
)


def _populate(cache: ResultCache, spec: RunSpec = SPEC, steps: int = 4):
    """Run the spec to ``steps`` and publish it into the cache."""
    spec_hash = spec.spec_hash()
    runner = Runner.from_spec(
        spec, checkpoint_prefix=cache.prefix(spec_hash, steps)
    )
    telemetry = runner.run(steps - runner.engine.step_count)
    runner.close()
    return cache.put(spec_hash, steps, telemetry.as_dict())


class TestLookup:
    def test_miss_on_empty(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.lookup(SPEC.spec_hash(), 4) is None
        assert cache.misses == 1

    def test_put_then_exact_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        entry = _populate(cache)
        hit = cache.lookup(SPEC.spec_hash(), 4)
        assert hit is not None
        assert (hit.spec_hash, hit.steps) == (entry.spec_hash, entry.steps)
        assert cache.hits == 1

    def test_telemetry_roundtrip_is_bitwise(self, tmp_path):
        cache = ResultCache(tmp_path)
        _populate(cache)
        runner = Runner.from_spec(SPEC)
        expected = runner.run().as_dict()
        runner.close()
        stored = cache.telemetry(SPEC.spec_hash(), 4)
        # everything but wall-clock fields must round-trip exactly
        for key in ("engine", "steps", "counters"):
            assert stored[key] == expected[key]

    def test_different_steps_is_a_different_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        _populate(cache, steps=4)
        assert cache.lookup(SPEC.spec_hash(), 6) is None

    def test_survives_reload(self, tmp_path):
        _populate(ResultCache(tmp_path))
        reloaded = ResultCache(tmp_path)
        assert reloaded.stats()["entries"] == 1
        assert reloaded.lookup(SPEC.spec_hash(), 4) is not None


class TestBestResume:
    def test_picks_deepest_shallower_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        _populate(cache, steps=2)
        _populate(cache, steps=4)
        entry = cache.best_resume(SPEC.spec_hash(), 10)
        assert entry.steps == 4
        assert cache.resumes == 1

    def test_never_returns_equal_or_deeper(self, tmp_path):
        cache = ResultCache(tmp_path)
        _populate(cache, steps=4)
        assert cache.best_resume(SPEC.spec_hash(), 4) is None
        assert cache.best_resume(SPEC.spec_hash(), 3) is None

    def test_other_spec_never_matches(self, tmp_path):
        cache = ResultCache(tmp_path)
        _populate(cache, steps=2)
        other = RunSpec(
            element="Ta", reps=(3, 3, 2), temperature=120.0, seed=99,
            engine="reference", steps=4,
        )
        assert cache.best_resume(other.spec_hash(), 10) is None


class TestCorruptionTolerance:
    def test_torn_npz_evicts_and_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        _populate(cache)
        npz = checkpoint_paths(cache.prefix(SPEC.spec_hash(), 4))[0]
        npz.write_bytes(b"not a zipfile")
        assert cache.lookup(SPEC.spec_hash(), 4) is None
        assert cache.stats()["entries"] == 0  # evicted, not retried forever

    def test_half_truncated_npz_evicts_and_misses(self, tmp_path):
        """A zip cut mid-member (BadZipFile, not the no-header
        ValueError above) is a miss that evicts, not an escape."""
        cache = ResultCache(tmp_path)
        _populate(cache)
        npz = checkpoint_paths(cache.prefix(SPEC.spec_hash(), 4))[0]
        npz.write_bytes(npz.read_bytes()[: npz.stat().st_size // 2])
        assert cache.lookup(SPEC.spec_hash(), 4) is None
        assert cache.stats()["entries"] == 0
        assert not npz.exists()

    def test_corrupt_sidecar_evicts_on_resume_path(self, tmp_path):
        """Unparseable ``meta`` in the entry's npz evicts it."""
        cache = ResultCache(tmp_path)
        _populate(cache, steps=2)
        npz = checkpoint_paths(cache.prefix(SPEC.spec_hash(), 2))[0]
        data = dict(np.load(npz))
        data["meta"] = np.array("{torn")
        np.savez(npz, **data)
        assert cache.best_resume(SPEC.spec_hash(), 10) is None
        assert cache.stats()["entries"] == 0

    def test_corrupt_index_is_an_empty_cache(self, tmp_path):
        _populate(ResultCache(tmp_path))
        (tmp_path / "index.json").write_text("}{ garbage")
        cache = ResultCache(tmp_path)
        assert cache.stats()["entries"] == 0

    def test_missing_entry_files_drop_the_row(self, tmp_path):
        cache = ResultCache(tmp_path)
        _populate(cache)
        checkpoint_paths(cache.prefix(SPEC.spec_hash(), 4))[0].unlink()
        reloaded = ResultCache(tmp_path)
        assert reloaded.stats()["entries"] == 0

    def test_orphan_tmp_swept_on_load(self, tmp_path):
        orphan = tmp_path / "deadbeef-4.npz.tmp"
        tmp_path.mkdir(exist_ok=True)
        orphan.write_bytes(b"partial")
        ResultCache(tmp_path)
        assert not orphan.exists()

    def test_unreferenced_files_garbage_collected(self, tmp_path):
        stray = tmp_path / "cafecafe-9.telemetry.json"
        tmp_path.mkdir(exist_ok=True)
        stray.write_text("{}")
        ResultCache(tmp_path)
        assert not stray.exists()


class TestDurability:
    def test_every_published_file_is_fsynced(
        self, tmp_path, monkeypatch
    ):
        """The index and the telemetry are fsynced like the checkpoint
        trio (the inode a published name points at was synced): an
        index left empty or torn by a power loss would load as an empty
        cache and unlink every entry's files as unreferenced."""
        synced = set()
        fsync = os.fsync

        def recording_fsync(fd):
            st = os.fstat(fd)
            synced.add((st.st_dev, st.st_ino))
            fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        _populate(ResultCache(tmp_path))
        published = sorted(p for p in tmp_path.iterdir() if p.is_file())
        assert {p.name for p in published} >= {
            "index.json", f"{SPEC.spec_hash()}-4.telemetry.json",
        }
        for path in published:
            st = path.stat()
            assert (st.st_dev, st.st_ino) in synced, path.name


    def test_a_full_disk_in_put_leaves_no_stray_file(
        self, tmp_path, monkeypatch
    ):
        """The trio renamed onto a key the index does not hold yet, and
        the telemetry's tmp, go again when the telemetry cannot be
        published; the index and the files of what it holds stay."""
        root = tmp_path / "cache"
        cache = ResultCache(root)
        _populate(cache)
        spec = RunSpec.from_dict({**SPEC.to_dict(), "seed": 4})
        runner = Runner.from_spec(spec, checkpoint_prefix=tmp_path / "run")
        telemetry = runner.run(4)
        runner.close()
        before = sorted(p.name for p in root.iterdir())
        index = (root / "index.json").read_text()

        def full_disk(fd):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "fsync", full_disk)
        with pytest.raises(OSError) as raised:
            cache.put(spec.spec_hash(), 4, telemetry.as_dict(),
                      src_prefix=tmp_path / "run")
        monkeypatch.undo()
        assert raised.value.errno == errno.ENOSPC
        assert sorted(p.name for p in root.iterdir()) == before
        assert (root / "index.json").read_text() == index
        assert cache.lookup(spec.spec_hash(), 4) is None
        assert cache.lookup(SPEC.spec_hash(), 4) is not None


    def test_a_full_disk_in_a_re_put_keeps_the_indexed_entry(
        self, tmp_path, monkeypatch
    ):
        """A key the index already holds keeps its files: only the
        telemetry's tmp goes."""
        cache = ResultCache(tmp_path)
        entry = _populate(cache)
        telemetry = cache.telemetry(SPEC.spec_hash(), 4)
        before = sorted(p.name for p in tmp_path.iterdir())

        def full_disk(fd):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "fsync", full_disk)
        with pytest.raises(OSError):
            cache.put(SPEC.spec_hash(), 4, telemetry)
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert cache.lookup(SPEC.spec_hash(), 4) == entry


class TestLRU:
    def test_byte_cap_evicts_least_recently_used(self, tmp_path):
        probe = ResultCache(tmp_path / "probe")
        entry = _populate(probe, steps=2)
        # cap sized to hold two entries but not three
        cache = ResultCache(tmp_path / "real", max_bytes=entry.nbytes * 2 + 64)
        _populate(cache, steps=2)
        _populate(cache, steps=3)
        cache.lookup(SPEC.spec_hash(), 2)  # make steps=2 the fresher one
        _populate(cache, steps=5)
        keys = {key for key in cache._entries}
        assert (SPEC.spec_hash(), 3) not in keys  # LRU victim
        assert (SPEC.spec_hash(), 2) in keys
        assert (SPEC.spec_hash(), 5) in keys
        assert cache.evictions >= 1

    def test_never_evicts_the_entry_just_added(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=1)  # everything oversized
        entry = _populate(cache, steps=2)
        assert (entry.spec_hash, entry.steps) in cache._entries

    def test_eviction_order_survives_reload(self, tmp_path):
        cache = ResultCache(tmp_path)
        _populate(cache, steps=2)
        _populate(cache, steps=3)
        cache.lookup(SPEC.spec_hash(), 2)
        clock = cache._clock
        reloaded = ResultCache(tmp_path)
        assert reloaded._clock == clock
        used = {
            key[1]: row["used"] for key, row in reloaded._entries.items()
        }
        assert used[2] > used[3]  # the touched entry stays fresher


def test_stats_are_json_ready(tmp_path):
    cache = ResultCache(tmp_path)
    _populate(cache)
    cache.lookup(SPEC.spec_hash(), 4)
    cache.lookup(SPEC.spec_hash(), 5)
    stats = json.loads(json.dumps(cache.stats()))
    assert stats["entries"] == 1
    assert stats["hits"] == 1
    assert stats["misses"] == 1


def test_clear_empties_directory_but_keeps_it(tmp_path):
    cache = ResultCache(tmp_path)
    _populate(cache)
    cache.clear()
    assert cache.stats()["entries"] == 0
    assert (tmp_path / "index.json").exists()
    assert cache.lookup(SPEC.spec_hash(), 4) is None


def test_concurrent_puts_from_worker_threads(tmp_path):
    # Every runner slot publishes through the same cache: racing puts
    # must not trip over each other's index.json.tmp -> index.json
    # rename (the pre-lock failure mode was FileNotFoundError there).
    import concurrent.futures
    import shutil

    cache = ResultCache(tmp_path)
    seeded = _populate(cache, steps=2)
    spec_hash = SPEC.spec_hash()
    tele = cache.telemetry(spec_hash, 2)
    keys = list(range(3, 19))
    for steps in keys:
        for src, dst in zip(
            checkpoint_paths(cache.prefix(spec_hash, 2)),
            checkpoint_paths(cache.prefix(spec_hash, steps)),
        ):
            shutil.copy(src, dst)

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        entries = list(
            pool.map(lambda s: cache.put(spec_hash, s, tele), keys)
        )

    assert all(entry.nbytes == seeded.nbytes for entry in entries)
    assert cache.stats()["entries"] == len(keys) + 1
    reloaded = ResultCache(tmp_path)
    assert reloaded.stats()["entries"] == len(keys) + 1
