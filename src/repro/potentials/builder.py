"""Construct EAM potentials from material data via the Rose EOS.

This is the Foiles-style "effective medium" normalization: pick simple
analytic forms for the electron density ``f(r)`` and the (repulsive)
pair interaction ``phi(r)``, then *define* the embedding function so
that the energy of the uniformly expanded/compressed perfect crystal
exactly follows the Rose universal equation of state:

    F(rho_bar(s)) = E_rose(s) - E_pair(s)      for every scale s.

The resulting potential reproduces the target lattice constant,
cohesive energy and bulk modulus by construction, which is what matters
for the paper's workloads (room-temperature crystals of Cu, W, Ta with
the paper's cutoffs).  See DESIGN.md, "Substitutions".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.lattice.cells import BravaisCell
from repro.lattice.neighbors_ideal import lattice_sum
from repro.potentials.eam import EAMTables
from repro.potentials.rose import RoseEOS
from repro.potentials.spline import UniformCubicSpline

__all__ = ["RoseEAMSpec", "build_rose_eam", "smootherstep_cut"]


def smootherstep_cut(r: np.ndarray, r_start: float, r_cut: float) -> np.ndarray:
    """C2 cutoff taper: 1 below ``r_start``, 0 at/above ``r_cut``.

    Uses the quintic smootherstep so value, first and second derivatives
    vanish at the cutoff — forces stay continuous as atoms cross it.
    """
    r = np.asarray(r, dtype=np.float64)
    if r_cut <= r_start:
        raise ValueError(f"r_cut {r_cut} must exceed r_start {r_start}")
    t = np.clip((r - r_start) / (r_cut - r_start), 0.0, 1.0)
    s = t * t * t * (t * (t * 6.0 - 15.0) + 10.0)
    return 1.0 - s


def _pchip(
    x: np.ndarray, y: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Monotone cubic (PCHIP) through ``(x, y)``: its coefficients, its
    values at ``v`` and its slope at ``x[-1]``.

    Fritsch-Butland knot slopes with one-sided three-point ends, Hermite
    coefficients ``c`` (highest power first, one column per interval);
    a ``v`` outside the knots is evaluated on the nearer end interval's
    cubic.  Every sum runs in SciPy 1.17's ``PchipInterpolator`` order, so
    the table is bitwise the one that class gives.  ``x`` strictly
    increasing, at least 3 knots.
    """
    if len(x) < 3 or len(x) != len(y):
        raise ValueError(
            f"PCHIP needs >= 3 knots and one y per x: {len(x)} x, {len(y)} y"
        )
    h = x[1:] - x[:-1]
    m = (y[1:] - y[:-1]) / h
    sm = np.sign(m)
    flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    d = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
    ends = ((0, h[0], h[1], m[0], m[1]), (-1, h[-1], h[-2], m[-1], m[-2]))
    for k, h0, h1, m0, m1 in ends:
        d[k] = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(d[k]) != np.sign(m0):
            d[k] = 0.0
        elif np.sign(m0) != np.sign(m1) and abs(d[k]) > 3.0 * abs(m0):
            d[k] = 3.0 * m0
    t = (d[:-1] + d[1:] - 2 * m) / h
    c = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))
    i = np.clip(np.searchsorted(x, v, "right") - 1, 0, len(x) - 2)
    s = v - x[i]
    values = (c[3, i] + c[2, i] * s + c[1, i] * (s * s)) + c[0, i] * ((s * s) * s)
    s = h[-1]
    end_slope = c[2, -1] + (c[1, -1] * 2.0) * s + (c[0, -1] * 3.0) * (s * s)
    return c, values, end_slope


@dataclass(frozen=True)
class RoseEAMSpec:
    """Inputs for :func:`build_rose_eam`.

    Parameters
    ----------
    cell:
        Crystal structure (FCC for Cu, BCC for W/Ta).
    lattice_constant:
        Equilibrium conventional-cell lattice constant ``a0`` (A).
    cohesive_energy:
        ``Ec`` (eV/atom, positive).
    bulk_modulus:
        ``B`` (eV/A^3) — use :data:`repro.constants.GPA_TO_EV_PER_A3`.
    cutoff:
        Interaction cutoff radius (A).
    beta:
        Decay rate of the electron density, per ``r/re``.
    alpha:
        Decay rate of the repulsive pair term, per ``r/re``.
    pair_amplitude:
        ``phi(re)`` before tapering (eV); sets the pair/embedding split.
    taper_width:
        Width of the smooth cutoff taper, as a fraction of the cutoff.
    """

    cell: BravaisCell
    lattice_constant: float
    cohesive_energy: float
    bulk_modulus: float
    cutoff: float
    beta: float = 5.0
    alpha: float = 7.5
    pair_amplitude: float = 0.5
    taper_width: float = 0.15

    def __post_init__(self) -> None:
        nn = self.cell.nn_distance(self.lattice_constant)
        if self.cutoff <= nn:
            raise ValueError(
                f"cutoff {self.cutoff} A does not reach the nearest "
                f"neighbor shell at {nn:.3f} A"
            )


def build_rose_eam(
    spec: RoseEAMSpec,
    *,
    n_r_knots: int = 2000,
    n_rho_knots: int = 2000,
    n_scales: int = 400,
    r_table_min: float = 0.5,
) -> EAMTables:
    """Build single-element EAM spline tables satisfying the Rose EOS."""
    cell = spec.cell
    a0 = spec.lattice_constant
    re = cell.nn_distance(a0)
    rc = spec.cutoff
    r_start = rc * (1.0 - spec.taper_width)

    def density_fn(r: float) -> float:
        return float(
            math.exp(-spec.beta * (r / re - 1.0))
            * smootherstep_cut(np.asarray(r), r_start, rc)
        )

    def pair_fn(r: float) -> float:
        return float(
            spec.pair_amplitude
            * math.exp(-spec.alpha * (r / re - 1.0))
            * smootherstep_cut(np.asarray(r), r_start, rc)
        )

    eos = RoseEOS(
        cohesive_energy=spec.cohesive_energy,
        bulk_modulus=spec.bulk_modulus,
        atomic_volume=cell.atomic_volume(a0),
    )

    # --- sample the EOS path -------------------------------------------------
    # Scales run from strong compression to where the last shell leaves
    # the cutoff (rho_bar -> 0).
    s_min = 0.70
    s_max = rc / re  # nearest shell exits the cutoff here
    scales = np.linspace(s_min, s_max, n_scales)
    rho_path = np.array(
        [lattice_sum(cell, density_fn, rc, a0, scale=s) for s in scales]
    )
    pair_path = 0.5 * np.array(
        [lattice_sum(cell, pair_fn, rc, a0, scale=s) for s in scales]
    )
    embed_path = eos.energy(scales) - pair_path

    # rho_bar decreases monotonically with expansion; make it the x axis.
    order = np.argsort(rho_path)
    rho_sorted = rho_path[order]
    f_sorted = embed_path[order]
    if np.any(np.diff(rho_sorted) <= 0):
        raise RuntimeError(
            "density along the EOS path is not strictly monotone; "
            "increase beta or reduce the scale range"
        )

    # Anchor F(0) = 0 so isolated atoms carry zero energy.  The path's
    # smallest sampled density is ~0 (last shell tapered out), so the
    # extension is a short smooth segment.
    rho_lo = float(rho_sorted[0])
    f_lo = float(f_sorted[0])
    if rho_lo > 1e-12:
        rho_sorted = np.concatenate([[0.0], rho_sorted])
        # continue toward zero proportionally (PCHIP keeps it smooth)
        f_sorted = np.concatenate([[0.0], f_sorted])
    else:
        f_sorted[0] = 0.0
    del rho_lo, f_lo

    rho_max_table = float(rho_sorted[-1]) * 1.05
    rho_grid = np.linspace(0.0, rho_max_table, n_rho_knots)
    _, f_inside, end_slope = _pchip(
        rho_sorted, f_sorted, np.minimum(rho_grid, rho_sorted[-1])
    )
    f_grid = np.where(
        rho_grid <= rho_sorted[-1],
        f_inside,
        # linear continuation beyond the sampled compression range
        f_sorted[-1] + end_slope * (rho_grid - rho_sorted[-1]),
    )
    embed_spline = UniformCubicSpline(
        0.0,
        rho_grid[1] - rho_grid[0],
        f_grid,
        extrapolate_low="clamp",
        zero_above=False,
    )

    # --- r-space tables -------------------------------------------------------
    r_grid = np.linspace(r_table_min, rc, n_r_knots)
    h_r = r_grid[1] - r_grid[0]
    rho_table = np.array([density_fn(r) for r in r_grid])
    phi_table = np.array([pair_fn(r) for r in r_grid])
    rho_spline = UniformCubicSpline(
        r_table_min, h_r, rho_table, extrapolate_low="linear", zero_above=True
    )
    phi_spline = UniformCubicSpline(
        r_table_min, h_r, phi_table, extrapolate_low="linear", zero_above=True
    )

    return EAMTables(
        rho=[rho_spline],
        embed=[embed_spline],
        phi={(0, 0): phi_spline},
        cutoff=rc,
        meta={
            "construction": "rose-eos",
            "structure": cell.name,
            "lattice_constant": a0,
            "cohesive_energy": spec.cohesive_energy,
            "bulk_modulus": spec.bulk_modulus,
            "beta": spec.beta,
            "alpha": spec.alpha,
            "pair_amplitude": spec.pair_amplitude,
            "taper_width": spec.taper_width,
        },
    )
