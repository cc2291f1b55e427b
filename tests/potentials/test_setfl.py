"""setfl round-trip: our potentials survive serialization."""

import io

import numpy as np
import pytest

from repro.potentials.eam import EAMPotential
from repro.potentials.elements import ELEMENTS, make_element_tables
from repro.potentials.setfl import read_setfl, write_setfl
from tests.conftest import total_energy


@pytest.fixture(scope="module")
def roundtripped():
    tables = make_element_tables("Ta")
    buf = io.StringIO()
    write_setfl(tables, buf, names=["Ta"], masses=[ELEMENTS["Ta"].mass],
                atomic_numbers=[73], n_rho=3000, n_r=3000)
    buf.seek(0)
    return tables, read_setfl(buf)


class TestRoundTrip:
    def test_cutoff_preserved(self, roundtripped):
        orig, loaded = roundtripped
        assert loaded.cutoff == pytest.approx(orig.cutoff, rel=1e-9)

    def test_metadata(self, roundtripped):
        _, loaded = roundtripped
        assert loaded.meta["names"] == ["Ta"]
        assert loaded.meta["elements"][0]["mass"] == pytest.approx(180.9479)

    def test_density_tables_agree(self, roundtripped):
        orig, loaded = roundtripped
        r = np.linspace(1.5, orig.cutoff * 0.98, 200)
        assert np.allclose(orig.rho[0](r), loaded.rho[0](r), atol=1e-5)

    def test_embedding_tables_agree(self, roundtripped):
        orig, loaded = roundtripped
        rho = np.linspace(0.1, orig.embed[0].x_max * 0.9, 200)
        assert np.allclose(orig.embed[0](rho), loaded.embed[0](rho), atol=1e-3)

    def test_pair_tables_agree(self, roundtripped):
        orig, loaded = roundtripped
        r = np.linspace(1.5, orig.cutoff * 0.98, 200)
        assert np.allclose(
            orig.phi[(0, 0)](r), loaded.phi[(0, 0)](r), atol=1e-4
        )

    def test_dimer_energy_agrees(self, roundtripped):
        orig, loaded = roundtripped
        from repro.md.boundary import Box
        from repro.md.cell_list import all_pairs
        from repro.potentials.base import PairTable
        pos = np.array([[0.0, 0.0, 0.0], [2.9, 0.0, 0.0]])
        box = Box.open(np.array([50.0, 50.0, 50.0]))
        for tables in (orig, loaded):
            pot = EAMPotential(tables)
            i, j, rij, r = all_pairs(pos, tables.cutoff, box)
            e = total_energy(pot, 2, PairTable(i=i, j=j, rij=rij, r=r))
            if tables is orig:
                e_orig = e
        assert e == pytest.approx(e_orig, abs=1e-4)


class TestFormatErrors:
    def test_truncated_file_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            read_setfl(io.StringIO("one\ntwo\n"))

    def test_wrong_element_count_rejected(self):
        text = "c\nc\nc\n2 OnlyOne\n100 0.1 100 0.01 5.0\n0 0\n"
        with pytest.raises(ValueError, match="declares"):
            read_setfl(io.StringIO(text))

    def test_short_data_rejected(self):
        text = "c\nc\nc\n1 X\n10 0.1 10 0.01 5.0\n1 1.0 3.0 fcc\n1.0 2.0\n"
        with pytest.raises(ValueError, match="ran out of data"):
            read_setfl(io.StringIO(text))

    @pytest.mark.parametrize("text", [
        "c\nc\nc\n1 X\n10 0.1 10 0.01\n1 1.0 3.0 fcc\n",   # grid line short
        "c\nc\nc\n\n10 0.1 10 0.01 5.0\n1 1.0 3.0 fcc\n",  # no element count
        "c\nc\nc\n1 X\n2 0.1 2 0.01 5.0\n1 1.0 3.0 fcc\n"  # Nr = 2
        "1.0 2.0\n1.0 2.0\n1.0 2.0\n",
    ], ids=["short-grid-line", "empty-element-line", "two-r-points"])
    def test_malformed_header_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="^<stream>: "):
            read_setfl(io.StringIO(text))

    def test_mismatched_writer_args_rejected(self):
        tables = make_element_tables("Ta")
        with pytest.raises(ValueError, match="must match"):
            write_setfl(tables, io.StringIO(), names=["A", "B"])
