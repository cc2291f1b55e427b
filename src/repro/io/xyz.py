"""Extended-XYZ read/write for atom configurations."""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from repro.md.boundary import Box
from repro.md.state import AtomsState

__all__ = ["write_xyz", "read_xyz_frames"]


def write_xyz(
    state: AtomsState,
    path: str | Path | io.TextIOBase,
    *,
    symbols: list[str] | None = None,
    comment: str = "",
    append: bool = False,
) -> None:
    """Write one frame in extended-XYZ format (positions + velocities)."""
    symbols = symbols or [f"T{t}" for t in range(len(state.masses))]
    lengths = state.box.lengths
    pbc = "".join("T" if p else "F" for p in state.box.periodic)
    header = (
        f'Lattice="{lengths[0]} 0 0 0 {lengths[1]} 0 0 0 {lengths[2]}" '
        f'pbc="{pbc}" Properties=species:S:1:pos:R:3:vel:R:3:id:I:1'
    )
    if comment:
        header += f" comment={comment!r}"
    out = io.StringIO()
    out.write(f"{state.n_atoms}\n{header}\n")
    for k in range(state.n_atoms):
        s = symbols[state.types[k]]
        p = state.positions[k]
        v = state.velocities[k]
        out.write(
            f"{s} {p[0]:.10f} {p[1]:.10f} {p[2]:.10f} "
            f"{v[0]:.10f} {v[1]:.10f} {v[2]:.10f} {state.ids[k]}\n"
        )
    text = out.getvalue()
    if isinstance(path, io.TextIOBase):
        path.write(text)
    else:
        mode = "a" if append else "w"
        with open(path, mode) as fh:
            fh.write(text)


def read_xyz_frames(
    path: str | Path | io.TextIOBase,
    *,
    masses: np.ndarray | None = None,
) -> list[AtomsState]:
    """Read every frame of a (possibly multi-frame) extended-XYZ file."""
    if isinstance(path, io.TextIOBase):
        lines = path.read().splitlines()
    else:
        lines = Path(path).read_text().splitlines()
    frames: list[AtomsState] = []
    k = 0
    while k < len(lines):
        if not lines[k].strip():
            k += 1
            continue
        n = int(lines[k])
        if k + 2 + n > len(lines):
            raise ValueError(
                f"frame at line {k + 1} declares {n} atoms but the file ends"
            )
        frames.append(_parse_frame(lines[k:k + 2 + n], masses))
        k += 2 + n
    if not frames:
        raise ValueError("no frames in xyz file")
    return frames


def _parse_frame(lines: list[str], masses: np.ndarray | None) -> AtomsState:
    n = int(lines[0])
    header = lines[1]
    lat = header.split('Lattice="')[1].split('"')[0].split()
    lengths = np.array([float(lat[0]), float(lat[4]), float(lat[8])])
    pbc_str = header.split('pbc="')[1].split('"')[0]
    periodic = np.array([c == "T" for c in pbc_str])
    species: list[str] = []
    pos = np.empty((n, 3))
    vel = np.empty((n, 3))
    ids = np.empty(n, dtype=np.int64)
    for k in range(n):
        parts = lines[2 + k].split()
        species.append(parts[0])
        pos[k] = [float(x) for x in parts[1:4]]
        vel[k] = [float(x) for x in parts[4:7]]
        ids[k] = int(parts[7])
    uniq = sorted(set(species))
    types = np.array([uniq.index(s) for s in species], dtype=np.int64)
    if masses is None:
        masses = np.ones(len(uniq))
    box = Box(lengths, periodic, origin=pos.min(axis=0))
    return AtomsState(
        positions=pos, velocities=vel, types=types, masses=masses,
        box=box, ids=ids,
    )
