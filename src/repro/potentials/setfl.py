"""DYNAMO *setfl* (LAMMPS ``eam/alloy``) file reader and writer.

The paper's reference runs use published tabulated potentials
distributed as setfl files (Adams Cu, Zhou W, Li Ta).  We cannot ship
those files, but supporting the format means any of them can be dropped
in: ``read_setfl`` produces the same :class:`~repro.potentials.eam.EAMTables`
the Rose-EOS builder does, and ``write_setfl`` lets our constructed
potentials be loaded into LAMMPS for cross-validation.

Format summary (all values free-format whitespace separated)::

    line 1-3: comments
    line 4:   Nelements  name1 name2 ...
    line 5:   Nrho drho Nr dr cutoff
    per element:
        atomic-number mass lattice-constant lattice-type
        F(rho)   -- Nrho values
        rho(r)   -- Nr values
    per pair (i >= j, row-major over the lower triangle):
        r * phi(r) -- Nr values

Note the pair block stores ``r * phi(r)``, not ``phi(r)``.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from repro.potentials.eam import EAMTables
from repro.potentials.spline import UniformCubicSpline

__all__ = ["read_setfl", "write_setfl"]


def read_setfl(path: str | Path | io.TextIOBase) -> EAMTables:
    """Parse a setfl file into spline tables."""
    if isinstance(path, io.TextIOBase):
        text = path.read()
        source = "<stream>"
    else:
        text = Path(path).read_text()
        source = str(path)
    lines = text.splitlines()
    if len(lines) < 6:
        raise ValueError(f"{source}: truncated setfl file ({len(lines)} lines)")
    comments = lines[:3]
    header = lines[3].split()
    if not header:
        raise ValueError(f"{source}: line 4 has no element count")
    n_elem = int(header[0])
    names = header[1 : 1 + n_elem]
    if len(names) != n_elem:
        raise ValueError(
            f"{source}: header declares {n_elem} elements but lists {names}"
        )
    grid = lines[4].split()
    if len(grid) < 5:
        raise ValueError(
            f"{source}: line 5 needs Nrho drho Nr dr cutoff, got {grid}"
        )
    n_rho, d_rho, n_r, d_r, cutoff = (
        int(grid[0]),
        float(grid[1]),
        int(grid[2]),
        float(grid[3]),
        float(grid[4]),
    )
    if n_r < 3:
        # phi(0) is continued from the samples at r = dr and 2 dr
        raise ValueError(f"{source}: Nr = {n_r}, need at least 3 r points")

    # Flatten everything after line 5 into one token stream (the
    # per-element header line contains the lattice-type *string*, so
    # tokens are converted lazily).
    tokens = " ".join(lines[5:]).split()
    pos = 0

    def take_tokens(n: int) -> list[str]:
        nonlocal pos
        if pos + n > len(tokens):
            raise ValueError(
                f"{source}: ran out of data (need {n} more values at {pos})"
            )
        out = tokens[pos : pos + n]
        pos += n
        return out

    def take(n: int) -> np.ndarray:
        try:
            return np.array(take_tokens(n), dtype=np.float64)
        except ValueError as err:
            raise ValueError(f"{source}: non-numeric table data: {err}") from None

    embed: list[UniformCubicSpline] = []
    rho: list[UniformCubicSpline] = []
    elem_meta = []
    for _ in range(n_elem):
        hdr = take_tokens(4)
        z, mass, alat = int(hdr[0]), float(hdr[1]), float(hdr[2])
        lat_code = hdr[3]
        elem_meta.append({"z": z, "mass": mass, "lattice_constant": alat,
                          "lattice": lat_code})
        f_vals = take(n_rho)
        rho_vals = take(n_r)
        embed.append(
            UniformCubicSpline(0.0, d_rho, f_vals, extrapolate_low="clamp",
                               zero_above=False)
        )
        rho.append(
            UniformCubicSpline(0.0, d_r, rho_vals, extrapolate_low="clamp",
                               zero_above=True)
        )

    phi: dict[tuple[int, int], UniformCubicSpline] = {}
    r_grid = d_r * np.arange(n_r)
    for i in range(n_elem):
        for j in range(i + 1):
            rphi = take(n_r)
            phi_vals = np.empty(n_r)
            phi_vals[1:] = rphi[1:] / r_grid[1:]
            # r=0 point: continue the slope from the next two samples
            phi_vals[0] = 2.0 * phi_vals[1] - phi_vals[2]
            phi[(j, i)] = UniformCubicSpline(
                0.0, d_r, phi_vals, extrapolate_low="clamp", zero_above=True
            )
    if pos != len(tokens):
        raise ValueError(
            f"{source}: {len(tokens) - pos} trailing values after pair block"
        )
    return EAMTables(
        rho=rho,
        embed=embed,
        phi=phi,
        cutoff=cutoff,
        meta={"source": source, "names": names, "comments": comments,
              "elements": elem_meta},
    )


def write_setfl(
    tables: EAMTables,
    path: str | Path | io.TextIOBase,
    *,
    names: list[str] | None = None,
    masses: list[float] | None = None,
    atomic_numbers: list[int] | None = None,
    n_rho: int = 2000,
    n_r: int = 2000,
    comment: str = "generated by repro (Rose-EOS EAM)",
) -> None:
    """Serialize spline tables to setfl by resampling on uniform grids."""
    nt = tables.n_types
    names = names or [f"E{i}" for i in range(nt)]
    masses = masses or [1.0] * nt
    atomic_numbers = atomic_numbers or [0] * nt
    if not (len(names) == len(masses) == len(atomic_numbers) == nt):
        raise ValueError("names/masses/atomic_numbers must match n_types")

    rho_max = max(s.x_max for s in tables.embed)
    d_rho = rho_max / (n_rho - 1)
    d_r = tables.cutoff / (n_r - 1)
    rho_grid = d_rho * np.arange(n_rho)
    r_grid = d_r * np.arange(n_r)

    out = io.StringIO()
    out.write(f"{comment}\n")
    out.write(f"structure: {tables.meta.get('structure', 'unknown')}\n")
    out.write("units: metal (eV, A)\n")
    out.write(f"{nt} " + " ".join(names) + "\n")
    out.write(f"{n_rho} {d_rho:.16e} {n_r} {d_r:.16e} {tables.cutoff:.10f}\n")

    def dump(arr: np.ndarray) -> None:
        for k in range(0, len(arr), 5):
            out.write(" ".join(f"{v:.16e}" for v in arr[k : k + 5]) + "\n")

    for t in range(nt):
        alat = tables.meta.get("lattice_constant", 0.0)
        lat = tables.meta.get("structure", "fcc")
        out.write(f"{atomic_numbers[t]} {masses[t]:.6f} {alat:.6f} {lat}\n")
        dump(tables.embed[t](rho_grid))
        dump(tables.rho[t](r_grid))
    for i in range(nt):
        for j in range(i + 1):
            phi = tables.phi_for(j, i)(r_grid)
            dump(r_grid * phi)

    text = out.getvalue()
    if isinstance(path, io.TextIOBase):
        path.write(text)
    else:
        Path(path).write_text(text)
