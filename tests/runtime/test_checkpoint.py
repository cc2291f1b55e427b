"""Checkpoint write/read round-trips and the resume-refusal guards."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.runtime import (
    CHECKPOINT_SCHEMA,
    CheckpointError,
    RunSpec,
    build_state,
    check_checkpoint,
    checkpoint_paths,
    get_rng_state,
    read_checkpoint,
    seed_streams,
    set_rng_state,
    sweep_orphan_tmp,
    write_checkpoint,
)

SPEC = RunSpec(element="Ta", reps=(3, 3, 2), temperature=200.0, seed=4)


@pytest.fixture
def state():
    return build_state(SPEC)[0]


def test_round_trip_is_lossless(tmp_path, state):
    prefix = tmp_path / "run" / "ckpt"  # parent dir is created on demand
    rng = seed_streams(4)["thermostat"]
    rng.random(17)  # advance so the saved state is non-trivial
    write_checkpoint(
        prefix,
        state,
        step_count=42,
        spec_hash=SPEC.spec_hash(),
        engine="reference",
        rng_states={"thermostat": get_rng_state(rng)},
        extra={"swap_count": 3},
    )
    ckpt = read_checkpoint(prefix, expected_spec_hash=SPEC.spec_hash())

    np.testing.assert_array_equal(ckpt.state.positions, state.positions)
    np.testing.assert_array_equal(ckpt.state.velocities, state.velocities)
    np.testing.assert_array_equal(ckpt.state.types, state.types)
    np.testing.assert_array_equal(ckpt.state.ids, state.ids)
    np.testing.assert_array_equal(ckpt.state.masses, state.masses)
    np.testing.assert_array_equal(
        ckpt.state.box.lengths, state.box.lengths
    )
    assert ckpt.step_count == 42
    assert ckpt.engine == "reference"
    assert ckpt.extra == {"swap_count": 3}

    # the restored generator continues the exact stream
    restored = seed_streams(0)["thermostat"]
    set_rng_state(restored, ckpt.rng_states["thermostat"])
    np.testing.assert_array_equal(restored.random(5), rng.random(5))


def _rewrite_meta(prefix, text):
    """Re-save a checkpoint with its ``meta`` member replaced."""
    (path,) = checkpoint_paths(prefix)
    data = dict(np.load(path))
    data["meta"] = np.array(text)
    np.savez(path, **data)


def _same_checkpoint(a, b):
    """Bitwise equal arrays (and dtypes), step, hash, engine, RNG, extra."""
    x, y = a.state, b.state
    arrays = [
        (x.positions, y.positions), (x.velocities, y.velocities),
        (x.types, y.types), (x.masses, y.masses), (x.ids, y.ids),
        (x.box.lengths, y.box.lengths), (x.box.periodic, y.box.periodic),
        (x.box.origin, y.box.origin),
    ]
    return all(
        u.dtype == v.dtype and np.array_equal(u, v) for u, v in arrays
    ) and (a.step_count, a.spec_hash, a.engine, a.rng_states, a.extra) == (
        b.step_count, b.spec_hash, b.engine, b.rng_states, b.extra
    )


def test_one_file_through_one_fsync_and_rename(tmp_path, state, monkeypatch):
    synced, renamed = [], []
    real_fsync, real_replace = os.fsync, os.replace
    monkeypatch.setattr(
        os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
    )
    monkeypatch.setattr(
        os, "replace",
        lambda src, dst: (renamed.append(Path(dst)), real_replace(src, dst))[1],
    )
    prefix = tmp_path / "c"
    paths = write_checkpoint(
        prefix, state, step_count=0, spec_hash="x", engine="wse"
    )
    assert paths == checkpoint_paths(prefix) == (tmp_path / "c.npz",)
    assert len(synced) == 1
    assert renamed == [tmp_path / "c.npz"]
    # nothing but the published file: no sidecar, no frame, no temps
    assert sorted(tmp_path.iterdir()) == [tmp_path / "c.npz"]


def test_sidecar_is_plain_json(tmp_path, state):
    """The metadata is plain JSON in the npz's ``meta`` member."""
    prefix = tmp_path / "c"
    write_checkpoint(
        prefix,
        state,
        step_count=7,
        spec_hash=SPEC.spec_hash(),
        engine="reference",
        rng_states={"thermostat": get_rng_state(seed_streams(1)["thermostat"])},
    )
    with np.load(checkpoint_paths(prefix)[0]) as data:
        assert data["meta"].shape == ()
        meta = json.loads(str(data["meta"]))
    assert meta["schema"] == CHECKPOINT_SCHEMA
    assert meta["step_count"] == 7
    assert meta["spec_hash"] == SPEC.spec_hash()


def test_spec_hash_mismatch_refused(tmp_path, state):
    prefix = tmp_path / "c"
    write_checkpoint(
        prefix, state, step_count=0, spec_hash=SPEC.spec_hash(),
        engine="reference",
    )
    other = RunSpec(element="Ta", reps=(3, 3, 2), temperature=200.0, seed=5)
    with pytest.raises(CheckpointError, match="different physics"):
        read_checkpoint(prefix, expected_spec_hash=other.spec_hash())
    # without the expectation the same checkpoint reads fine
    assert read_checkpoint(prefix).step_count == 0


def test_missing_checkpoint_raises(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        read_checkpoint(tmp_path / "nope")


def test_missing_checkpoint_raises(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        read_checkpoint(tmp_path / "nope")


def test_corrupt_sidecar_raises(tmp_path, state):
    """Unparseable metadata in the one file is a corrupt checkpoint."""
    prefix = tmp_path / "c"
    write_checkpoint(
        prefix, state, step_count=0, spec_hash="x", engine="reference"
    )
    _rewrite_meta(prefix, "{broken")
    with pytest.raises(CheckpointError, match="corrupt"):
        read_checkpoint(prefix)


def test_wrong_schema_raises(tmp_path, state):
    prefix = tmp_path / "c"
    write_checkpoint(
        prefix, state, step_count=0, spec_hash="x", engine="reference"
    )
    with np.load(checkpoint_paths(prefix)[0]) as data:
        meta = json.loads(str(data["meta"]))
    meta["schema"] = "repro-checkpoint/99"
    _rewrite_meta(prefix, json.dumps(meta))
    with pytest.raises(CheckpointError, match="schema"):
        read_checkpoint(prefix)


def _flip_fixture(tmp_path, state):
    prefix = tmp_path / "c"
    rng = seed_streams(4)["thermostat"]
    rng.random(3)
    write_checkpoint(
        prefix, state, step_count=42, spec_hash=SPEC.spec_hash(),
        engine="reference", rng_states={"thermostat": get_rng_state(rng)},
        extra={"swap_count": 3},
    )
    return prefix, checkpoint_paths(prefix)[0]


#: Offsets stride: 7 is coprime to the 8-byte words, so the sweep
#: lands on every byte position of a float and (via ``offset % 8``)
#: flips every bit position; about 850 reads of a 36-atom file, ~1 s.
_FLIP_STRIDE = 7


def test_every_byte_flip_is_refused_or_harmless(tmp_path, state):
    """A flipped byte raises CheckpointError or changes nothing read.

    The zip members' CRC-32 catches flips in the data; flips in
    headers either fail to decode (mapped to "corrupt") or land in a
    field the reader ignores (timestamps, version bytes).
    """
    prefix, path = _flip_fixture(tmp_path, state)
    good = path.read_bytes()
    want = read_checkpoint(prefix)
    for offset in range(0, len(good), _FLIP_STRIDE):
        flipped = bytearray(good)
        flipped[offset] ^= 1 << (offset % 8)
        path.write_bytes(flipped)
        try:
            got = read_checkpoint(prefix)
        except CheckpointError:
            continue
        assert _same_checkpoint(got, want), f"flip at byte {offset}"


def test_every_byte_flip_the_check_accepts_reads_unchanged(tmp_path, state):
    """``check_checkpoint`` (the cache's re-validation) accepts a flipped
    file only where ``read_checkpoint`` reads it back unchanged: a flip
    it misses is one the reader ignores too."""
    prefix, path = _flip_fixture(tmp_path, state)
    good = path.read_bytes()
    want = read_checkpoint(prefix)
    assert check_checkpoint(prefix, expected_spec_hash=SPEC.spec_hash()) == 42
    accepted = 0
    for offset in range(0, len(good), _FLIP_STRIDE):
        flipped = bytearray(good)
        flipped[offset] ^= 1 << (offset % 8)
        path.write_bytes(flipped)
        try:
            steps = check_checkpoint(prefix,
                                     expected_spec_hash=SPEC.spec_hash())
        except CheckpointError:
            continue
        accepted += 1
        assert steps == 42, f"flip at byte {offset}"
        assert _same_checkpoint(read_checkpoint(prefix), want), (
            f"flip at byte {offset}")
    assert 0 < accepted < len(good) // _FLIP_STRIDE


def test_the_check_refuses_what_the_reader_refuses(tmp_path, state):
    """Every truncation, a wrong hash and a missing array or ``meta``
    raise :class:`CheckpointError` from the check as from the reader."""
    prefix, path = _flip_fixture(tmp_path, state)
    good = path.read_bytes()
    with pytest.raises(CheckpointError, match="physics"):
        check_checkpoint(prefix, expected_spec_hash="other")
    for size in range(0, len(good), _FLIP_STRIDE):
        path.write_bytes(good[:size])
        with pytest.raises(CheckpointError, match="corrupt"):
            check_checkpoint(prefix)
    path.write_bytes(good)
    for member, match in (("ids", "corrupt"), ("meta", "schema")):
        data = dict(np.load(path))
        del data[member]
        np.savez(path, **data)
        for check in (read_checkpoint, check_checkpoint):
            with pytest.raises(CheckpointError, match=match):
                check(prefix)
        path.write_bytes(good)


def test_every_truncation_is_refused(tmp_path, state):
    prefix, path = _flip_fixture(tmp_path, state)
    good = path.read_bytes()
    for size in range(0, len(good), _FLIP_STRIDE):
        path.write_bytes(good[:size])
        with pytest.raises(CheckpointError, match="corrupt"):
            read_checkpoint(prefix)


def test_pre_meta_checkpoint_is_a_schema_error(tmp_path, state):
    """An npz with the arrays but no ``meta`` (the old three-file
    layout's payload) is refused by schema, not read as step 0."""
    prefix = tmp_path / "c"
    write_checkpoint(
        prefix, state, step_count=5, spec_hash="x", engine="reference"
    )
    (path,) = checkpoint_paths(prefix)
    data = dict(np.load(path))
    del data["meta"]
    np.savez(path, **data)
    with pytest.raises(CheckpointError, match="schema"):
        read_checkpoint(prefix)


def test_sweep_orphan_tmp_removes_only_tmp_siblings(tmp_path, state):
    prefix = tmp_path / "c"
    write_checkpoint(
        prefix, state, step_count=3, spec_hash="x", engine="reference"
    )
    # simulate a crash mid-write: a staged temp next to the live file
    orphans = [
        p.with_name(p.name + ".tmp") for p in checkpoint_paths(prefix)
    ]
    for orphan in orphans:
        orphan.write_bytes(b"partial")
    bystander = tmp_path / "other.npz"
    bystander.write_bytes(b"keep me")
    removed = sweep_orphan_tmp(prefix)
    assert sorted(removed) == sorted(orphans)
    assert not any(p.exists() for p in orphans)
    assert bystander.exists()
    # the live file is untouched and still reads back
    assert read_checkpoint(prefix).step_count == 3


def test_sweep_orphan_tmp_empty_dir_is_noop(tmp_path):
    assert sweep_orphan_tmp(tmp_path / "never-written") == []
