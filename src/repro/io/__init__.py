"""I/O: extended-XYZ trajectories and benchmark tables."""

from repro.io.xyz import write_xyz, read_xyz_frames
from repro.io.table_io import Table

__all__ = ["write_xyz", "read_xyz_frames", "Table"]
