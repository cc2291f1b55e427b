"""ResultCache's index: a snapshot plus an fsynced append-only journal.

A model test drives random operation sequences against a plain LRU
model and reloads copies of the directory (whole, with a torn journal
tail, with a garbage snapshot); the rest pin the O(1) write per hit,
the guard against files changed under a live instance, and the
running totals that replace scans over the entries.
"""

import json
import os
import shutil
import tempfile
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime import RunSpec, Runner, checkpoint_paths
from repro.serve import ResultCache
from repro.serve.cache import INDEX_NAME, JOURNAL_NAME

SPECS = [
    RunSpec(element="Ta", reps=(3, 3, 2), temperature=120.0, seed=seed,
            engine="reference", steps=3)
    for seed in (3, 4)
]
HASHES = [spec.spec_hash() for spec in SPECS]
#: the model's keys: (spec index, steps)
KEYS = [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2)]


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """One published checkpoint + telemetry per key in ``KEYS``."""
    root = tmp_path_factory.mktemp("sources")
    out = {}
    for spec_index, steps in KEYS:
        prefix = root / f"{spec_index}-{steps}"
        runner = Runner.from_spec(SPECS[spec_index], checkpoint_prefix=prefix)
        telemetry = runner.run(steps).as_dict()
        runner.close()
        out[(spec_index, steps)] = (checkpoint_paths(prefix), telemetry)
    return out


def _put(cache: ResultCache, sources, key):
    paths, telemetry = sources[key]
    spec_hash = HASHES[key[0]]
    for src, dst in zip(paths, checkpoint_paths(cache.prefix(spec_hash, key[1]))):
        shutil.copy(src, dst)
    return cache.put(spec_hash, key[1], telemetry)


def _index(cache: ResultCache) -> dict:
    return {key: (row["bytes"], row["used"])
            for key, row in cache._entries.items()}


def _reload_copy(root: Path, copy: Path, edit=None) -> ResultCache:
    """Load a copy of ``root`` (after ``edit(copy)``); ``root`` is left
    as the live instance wrote it."""
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(root, copy)
    if edit is not None:
        edit(copy)
    return ResultCache(copy)


def _rows_have_files(cache: ResultCache) -> bool:
    return all(
        path.exists()
        for key in cache._entries
        for path in cache._entry_files(*key)
    )


def _journal_fingerprint(root: Path) -> tuple[int, int]:
    st = (root / JOURNAL_NAME).stat()
    return st.st_ino, st.st_size


key_st = st.sampled_from(KEYS)
op_st = st.one_of(
    st.tuples(st.just("put"), key_st),
    st.tuples(st.just("lookup"), key_st),
    st.tuples(st.just("best_resume"), st.sampled_from([0, 1]),
              st.integers(1, 4)),
    st.tuples(st.just("evict"), key_st),
    st.tuples(st.just("reload")),
    st.tuples(st.just("tear"), st.sampled_from([INDEX_NAME, JOURNAL_NAME]),
              key_st),
)


class TestModel:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=st.lists(op_st, min_size=1, max_size=16),
           cut=st.floats(0.0, 1.0))
    def test_random_sequences_against_an_lru_model(self, sources, ops, cut):
        one = sum(p.stat().st_size for p in sources[(0, 1)][0])
        cap = int(3.5 * one)  # three or four entries: the cap evicts
        with tempfile.TemporaryDirectory() as tmp:
            root, copy = Path(tmp, "cache"), Path(tmp, "copy")
            cache = ResultCache(root, max_bytes=cap)
            model: OrderedDict = OrderedDict()  # key -> bytes, LRU first
            for op in ops:
                before = _index(cache), cache._clock
                journal_before = _journal_fingerprint(root)
                name = op[0]
                if name in ("put", "tear"):
                    if name == "tear":
                        # a file torn under the live instance: the next
                        # write rewrites the index whole
                        path = root / op[1]
                        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
                    key = op[-1]
                    entry = _put(cache, sources, key)
                    model.pop((HASHES[key[0]], key[1]), None)
                    model[(HASHES[key[0]], key[1])] = entry.nbytes
                    while sum(model.values()) > cap and len(model) > 1:
                        model.popitem(last=False)
                elif name == "lookup":
                    key = (HASHES[op[1][0]], op[1][1])
                    hit = cache.lookup(*key)
                    assert (hit is not None) == (key in model)
                    if hit is not None:
                        model.move_to_end(key)
                elif name == "best_resume":
                    spec_hash = HASHES[op[1]]
                    held = [s for h, s in model if h == spec_hash and s < op[2]]
                    entry = cache.best_resume(spec_hash, op[2])
                    assert (entry and entry.steps) == (max(held) if held else None)
                    if held:
                        model.move_to_end((spec_hash, max(held)))
                elif name == "evict":
                    key = (HASHES[op[1][0]], op[1][1])
                    cache.evict(*key)
                    model.pop(key, None)
                else:
                    cache = ResultCache(root, max_bytes=cap)
                assert list(cache._entries) == list(model)
                assert cache.total_bytes == sum(model.values())
                assert _rows_have_files(cache)
                reloaded = _reload_copy(root, copy)
                assert _index(reloaded) == _index(cache)
                assert reloaded._clock == cache._clock

            # the last operation's journal tail, torn at a random byte
            # (a rewritten journal holds no operation: cut it anywhere)
            ino, size = _journal_fingerprint(root)
            same_journal = ino == journal_before[0]
            start = journal_before[1] if same_journal else 0
            at = start + int(cut * (size - start))

            def tear_tail(path):
                with open(path / JOURNAL_NAME, "r+b") as f:
                    f.truncate(at)

            torn = _reload_copy(root, copy, tear_tail)
            assert _rows_have_files(torn)
            if at == size or not same_journal:
                assert _index(torn) == _index(cache)
                assert torn._clock == cache._clock
            else:
                # the state before the last operation, less the rows
                # whose files that operation deleted
                index, clock = before
                assert _index(torn) == {
                    key: row for key, row in index.items()
                    if all(p.exists() for p in torn._entry_files(*key))
                }
                assert torn._clock == clock

            def garbage_snapshot(path):
                (path / INDEX_NAME).write_text("}{ garbage")

            assert _reload_copy(root, copy, garbage_snapshot).stats()["entries"] == 0


class TestJournal:
    def test_a_hit_appends_one_line_and_keeps_the_snapshot(
        self, tmp_path, sources
    ):
        cache = ResultCache(tmp_path)
        for key in KEYS:
            _put(cache, sources, key)
        snapshot = (tmp_path / INDEX_NAME).stat()
        journal = (tmp_path / JOURNAL_NAME).read_bytes()
        assert cache.lookup(HASHES[0], 2) is not None
        after = (tmp_path / INDEX_NAME).stat()
        assert (after.st_ino, after.st_mtime_ns) == (
            snapshot.st_ino, snapshot.st_mtime_ns)
        grown = (tmp_path / JOURNAL_NAME).read_bytes()
        assert grown.startswith(journal)
        assert json.loads(grown[len(journal):]) == [
            "t", HASHES[0], 2, cache._clock]

    def test_reload_replays_the_journal(self, tmp_path, sources):
        cache = ResultCache(tmp_path)
        for key in KEYS:
            _put(cache, sources, key)
        cache.lookup(HASHES[0], 1)
        cache.evict(HASHES[1], 1)
        reloaded = ResultCache(tmp_path)
        assert _index(reloaded) == _index(cache)
        assert reloaded._clock == cache._clock
        assert list(reloaded._entries) == list(cache._entries)

    def test_an_evicted_key_stays_evicted_when_its_files_return(
        self, tmp_path, sources
    ):
        """A run republishing the key's files, then a crash before its
        put: the journalled eviction keeps the row out."""
        cache = ResultCache(tmp_path)
        _put(cache, sources, (0, 1))
        cache.evict(HASHES[0], 1)
        paths, _ = sources[(0, 1)]
        for src, dst in zip(paths, cache._entry_files(HASHES[0], 1)):
            shutil.copy(src, dst)
        cache._telemetry_path(HASHES[0], 1).write_text("{}")
        assert ResultCache(tmp_path).stats()["entries"] == 0

    def test_a_torn_line_ends_the_replay(self, tmp_path, sources):
        cache = ResultCache(tmp_path)
        _put(cache, sources, (0, 1))
        index = _index(cache)
        with open(tmp_path / JOURNAL_NAME, "ab") as f:
            f.write(b'["t","' + HASHES[0].encode() + b'",1,9')  # no newline
        assert _index(ResultCache(tmp_path)) == index

    def test_a_bad_line_ends_the_replay(self, tmp_path, sources):
        cache = ResultCache(tmp_path)
        _put(cache, sources, (0, 1))
        index = _index(cache)
        with open(tmp_path / JOURNAL_NAME, "ab") as f:
            f.write(b'["x"]\n')
            f.write(json.dumps(["e", HASHES[0], 1]).encode() + b"\n")
        assert _index(ResultCache(tmp_path)) == index

    def test_a_journal_of_another_generation_is_ignored(
        self, tmp_path, sources
    ):
        """A crash between a compaction's two renames leaves the new
        snapshot beside the old journal, whose lines it already holds."""
        _put(ResultCache(tmp_path), sources, (0, 1))
        generation = ResultCache(tmp_path)._generation  # compacted: 1 row
        stale = {"schema": "repro-serve-cache/1", "generation": generation - 1}
        (tmp_path / JOURNAL_NAME).write_text(
            json.dumps(stale) + "\n" + json.dumps(["e", HASHES[0], 1]) + "\n")
        reloaded = ResultCache(tmp_path)
        assert reloaded.stats()["entries"] == 1
        assert reloaded._generation == generation + 1

    def test_a_garbage_snapshot_with_a_valid_journal_is_empty(
        self, tmp_path, sources
    ):
        cache = ResultCache(tmp_path)
        for key in KEYS:
            _put(cache, sources, key)
        (tmp_path / INDEX_NAME).write_text("}{ garbage")
        reloaded = ResultCache(tmp_path)
        assert reloaded.stats()["entries"] == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            JOURNAL_NAME, INDEX_NAME]

    def test_the_journal_is_compacted_past_twice_the_entries(
        self, tmp_path, sources
    ):
        cache = ResultCache(tmp_path)
        for key in KEYS:
            _put(cache, sources, key)
        generation = cache._generation
        lines = []
        for _ in range(20):
            cache.lookup(HASHES[0], 1)
            lines.append(cache._lines)
        assert cache._generation == generation + 1
        # 5 puts + 11 hits fill the 16-line floor; the 12th compacts
        assert lines[10:13] == [16, 0, 1]


def _index_files(root: Path) -> dict:
    return {p.name: (p.stat().st_ino, p.stat().st_size)
            for p in root.iterdir() if p.name.startswith("index")}


def _bytes_written(before: dict, after: dict) -> int:
    """Bytes a call wrote to the index files: a file with a new inode
    was written whole, an old one grew by its appends."""
    total = 0
    for name, (ino, size) in after.items():
        old = before.get(name)
        total += size if old is None or old[0] != ino else size - old[1]
    return total


def _mean_bytes_per_hit(root: Path, sources, entries: int) -> float:
    cache = ResultCache(root)
    _put(cache, sources, (0, 1))
    paths, telemetry = sources[(0, 1)]
    for steps in range(2, entries + 1):  # rows only a hit's index carries
        for src, dst in zip(paths, checkpoint_paths(cache.prefix("f" * 16, steps))):
            shutil.copy(src, dst)
        cache.put("f" * 16, steps, telemetry)
    assert cache.stats()["entries"] == entries
    written = []
    for _ in range(2 * entries):
        before = _index_files(root)
        assert cache.lookup(HASHES[0], 1) is not None
        written.append(_bytes_written(before, _index_files(root)))
    return sum(written) / len(written)


def test_bytes_written_per_hit_do_not_grow_with_the_entries(
    tmp_path, sources
):
    """2N hits, compaction included: the mean write per hit at 300
    entries is within 2x of that at 10 (a whole-file rewrite grows ~30x)."""
    small = _mean_bytes_per_hit(tmp_path / "small", sources, 10)
    large = _mean_bytes_per_hit(tmp_path / "large", sources, 300)
    assert 0.5 <= large / small <= 2.0, (small, large)


def test_running_totals_match_the_rows(tmp_path, sources):
    one = _put(ResultCache(tmp_path / "probe"), sources, (0, 1)).nbytes
    cache = ResultCache(tmp_path / "real", max_bytes=int(2.5 * one))
    for key in KEYS:
        _put(cache, sources, key)
    cache.evict(HASHES[1], 2)
    assert cache.evictions == 3
    assert cache.total_bytes == sum(r["bytes"] for r in cache._entries.values())
    assert cache.stats()["bytes"] == cache.total_bytes
    held = {}
    for spec_hash, steps in cache._entries:
        held.setdefault(spec_hash, []).append(steps)
    assert cache._steps == {h: sorted(s) for h, s in held.items()}


def test_best_resume_falls_through_an_invalid_candidate(tmp_path, sources):
    cache = ResultCache(tmp_path)
    for key in [(0, 1), (0, 2), (0, 3)]:
        _put(cache, sources, key)
    npz = checkpoint_paths(cache.prefix(HASHES[0], 3))[0]
    npz.write_bytes(b"not a zipfile")
    entry = cache.best_resume(HASHES[0], 10)
    assert entry.steps == 2
    assert (HASHES[0], 3) not in cache._entries
    assert os.listdir(tmp_path).count(npz.name) == 0


def test_racing_threads_lose_no_update(tmp_path, sources):
    """Eight threads on fewer CPUs, a short switch interval: puts, hits
    and evictions leave the running totals, the step lists and the
    journal in agreement with the rows."""
    import concurrent.futures
    import sys

    cache = ResultCache(tmp_path / "cache")
    _put(cache, sources, (0, 1))
    paths, telemetry = sources[(0, 1)]

    def work(thread):
        spec_hash = f"{thread:016x}"
        for steps in range(1, 9):
            for src, dst in zip(paths, checkpoint_paths(cache.prefix(spec_hash, steps))):
                shutil.copy(src, dst)
            cache.put(spec_hash, steps, telemetry)
            assert cache.lookup(HASHES[0], 1) is not None
            if steps % 2 == 0:
                cache.evict(spec_hash, steps - 1)
        return thread

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(work, t) for t in range(8)]
            assert [f.result(timeout=120) for f in futures] == list(range(8))
    finally:
        sys.setswitchinterval(interval)
    assert cache.stats()["entries"] == 1 + 8 * 4
    assert cache.total_bytes == sum(r["bytes"] for r in cache._entries.values())
    assert sum(len(s) for s in cache._steps.values()) == len(cache._entries)
    reloaded = _reload_copy(cache.root, tmp_path / "copy")
    assert _index(reloaded) == _index(cache)
    assert reloaded._clock == cache._clock
