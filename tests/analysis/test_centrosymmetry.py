"""Centro-symmetry classification (Fig. 2's grain-boundary coloring)."""

import numpy as np
import pytest

from repro.analysis.centrosymmetry import centrosymmetry
from repro.lattice.cells import BCC, FCC
from repro.lattice.crystals import replicate
from repro.lattice.grain_boundary import make_grain_boundary_slab
from repro.md.boundary import Box


class TestBulkCrystals:
    def test_perfect_bcc_is_centrosymmetric(self):
        crystal = replicate(BCC, 3.3, (4, 4, 4))
        box = Box(crystal.box, periodic=[True] * 3, origin=np.zeros(3))
        csp = centrosymmetry(crystal.positions, box, n_neighbors=8,
                             cutoff=3.2)
        assert np.max(csp) < 1e-9

    def test_perfect_fcc_is_centrosymmetric(self):
        crystal = replicate(FCC, 3.615, (4, 4, 4))
        box = Box(crystal.box, periodic=[True] * 3, origin=np.zeros(3))
        csp = centrosymmetry(crystal.positions, box, n_neighbors=12,
                             cutoff=3.0)
        assert np.max(csp) < 1e-9

    def test_thermal_noise_stays_below_threshold(self):
        rng = np.random.default_rng(0)
        crystal = replicate(BCC, 3.3, (4, 4, 4))
        pos = crystal.positions + rng.normal(scale=0.05, size=crystal.positions.shape)
        box = Box(crystal.box, periodic=[True] * 3, origin=np.zeros(3))
        csp = centrosymmetry(pos, box, n_neighbors=8, cutoff=3.2)
        assert np.median(csp) < 1.0

    def test_surface_atoms_flagged(self):
        crystal = replicate(BCC, 3.3, (4, 4, 2))
        box = Box.open(crystal.box + 20.0)
        pos = crystal.positions - crystal.box / 2
        flags = centrosymmetry(pos, box, n_neighbors=8, cutoff=3.2) > 1.0
        # top/bottom layers are surfaces: many flagged atoms
        assert flags.mean() > 0.3

    def test_odd_neighbor_count_rejected(self):
        with pytest.raises(ValueError):
            centrosymmetry(np.zeros((4, 3)), Box.open([5, 5, 5]),
                           n_neighbors=7)


class TestGrainBoundary:
    def test_boundary_atoms_identified(self):
        gb = make_grain_boundary_slab(
            BCC, 3.3, extent_xy=(40.0, 40.0), thickness_z=10.0,
            misorientation_deg=22.6,
        )
        box = Box.open(gb.box + 20.0)
        flags = centrosymmetry(gb.positions, box, n_neighbors=8,
                               cutoff=3.2) > 1.0
        y = gb.positions[:, 1]
        z = gb.positions[:, 2]
        mid_plane = np.abs(z) < 2.0  # avoid the slab's free z surfaces
        near = mid_plane & (np.abs(y) < 3.0)
        far = mid_plane & (np.abs(y) > 12.0)
        # the boundary band is far richer in defective atoms than the
        # grain interiors (Fig. 2's white coloring)
        assert flags[near].mean() > flags[far].mean() + 0.3
