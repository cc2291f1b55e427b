"""Wavelet-level 2-D exchange vs the shift-based functional exchange."""

import pytest

from repro.wse.fabric2d import ExchangeFabric2D
from repro.wse.geometry import TileGrid
from repro.wse.multicast import exchange_cycle_model
from tests.oracles import neighborhood_sources


class TestExchange2D:
    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_full_neighborhood_delivered(self, b):
        g = TileGrid(4 * (b + 1) + 1, 3 * (b + 1) + 2)
        result = ExchangeFabric2D(g, b, vector_len=3).run()
        for x in range(g.nx):
            for y in range(g.ny):
                flat = int(g.flatten(x, y))
                expect = neighborhood_sources(g, b, x, y)
                assert result.neighborhoods[flat] == expect, (x, y)

    def test_cycles_match_closed_form(self):
        g = TileGrid(13, 13)
        sim = ExchangeFabric2D(g, 3, vector_len=3)
        result = sim.run()
        assert result.total_cycles == sim.expected_cycles()
        assert result.total_cycles == exchange_cycle_model(3, 3)

    def test_vertical_stage_dominates(self):
        # the vertical stage carries (2b+1)x the data
        result = ExchangeFabric2D(TileGrid(12, 12), 2, vector_len=3).run()
        assert result.vertical_cycles > 2 * result.horizontal_cycles

    def test_embedding_exchange_cheaper_than_positions(self):
        g = TileGrid(12, 12)
        pos = ExchangeFabric2D(g, 2, vector_len=3).run()
        emb = ExchangeFabric2D(g, 2, vector_len=1).run()
        assert emb.total_cycles < pos.total_cycles

    def test_rejects_oversized_neighborhood(self):
        with pytest.raises(ValueError):
            ExchangeFabric2D(TileGrid(5, 5), 3)
