"""I/O round trips: xyz, table rendering."""

import io
import json

import numpy as np
import pytest

from repro.io.table_io import Table
from repro.io.xyz import read_xyz_frames, write_xyz
from repro.md.boundary import Box
from repro.md.state import AtomsState


@pytest.fixture()
def state():
    rng = np.random.default_rng(0)
    return AtomsState(
        positions=rng.uniform(-5, 5, (8, 3)),
        velocities=rng.normal(size=(8, 3)),
        types=np.array([0, 0, 1, 1, 0, 1, 0, 0]),
        masses=np.array([63.5, 180.9]),
        box=Box(np.array([20.0, 20.0, 10.0]), periodic=[True, False, True]),
    )


class TestXyz:
    def test_roundtrip_positions_velocities(self, state):
        buf = io.StringIO()
        write_xyz(state, buf, symbols=["Cu", "Ta"])
        buf.seek(0)
        loaded = read_xyz_frames(buf, masses=state.masses)[0]
        assert np.allclose(loaded.positions, state.positions)
        assert np.allclose(loaded.velocities, state.velocities)
        assert np.array_equal(loaded.ids, state.ids)

    def test_roundtrip_periodicity(self, state):
        buf = io.StringIO()
        write_xyz(state, buf)
        buf.seek(0)
        loaded = read_xyz_frames(buf)[0]
        assert loaded.box.periodic.tolist() == [True, False, True]
        assert np.allclose(loaded.box.lengths, state.box.lengths)

    def test_roundtrip_types(self, state):
        buf = io.StringIO()
        write_xyz(state, buf, symbols=["Cu", "Ta"])
        buf.seek(0)
        loaded = read_xyz_frames(buf)[0]
        # species sorted alphabetically: Cu=0, Ta=1 (happens to match)
        assert np.array_equal(loaded.types, state.types)

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            read_xyz_frames(io.StringIO("5\n"))

    def test_file_roundtrip(self, state, tmp_path):
        path = tmp_path / "frame.xyz"
        write_xyz(state, path)
        loaded = read_xyz_frames(path)[0]
        assert loaded.n_atoms == 8


class TestTable:
    def test_render_alignment(self):
        t = Table("demo", ["a", "bbbb"])
        t.add_row(1, 2.5)
        t.add_row(100000, 0.001)
        text = t.render()
        assert "demo" in text
        lines = text.splitlines()
        assert len(lines) == 5

    def test_row_width_checked(self):
        t = Table("demo", ["a", "b"])
        with pytest.raises(ValueError, match="cells"):
            t.add_row(1)

    def test_json_serialization(self, tmp_path):
        t = Table("demo", ["x"])
        t.add_row(3.14)
        p = tmp_path / "t.json"
        t.to_json(p)
        data = json.loads(p.read_text())
        assert data["title"] == "demo"
        assert data["rows"] == [[3.14]]

    def test_thousands_formatting(self):
        t = Table("demo", ["rate"])
        t.add_row(274016.0)
        assert "274,016" in t.render()
