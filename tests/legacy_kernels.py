"""The PR-6 numpy kernel bodies, frozen: the oracle of the kernel sweep.

These are the registry's numpy kernels exactly as they stood before
their bodies were rewritten around ``take`` gathers, one-index-array
compaction and contiguous ``bincount`` columns
(:mod:`repro.kernels.numpy_backend`).  The rewrite performs the same
IEEE operations on the same operands in the same order, so every output
must stay **bitwise** equal to what these functions return —
``tests/kernels/test_numpy_floor.py`` sweeps that.  Nothing under
``src/`` imports this module; do not "tidy" it — its value is that it
does not change.
"""

from __future__ import annotations

import numpy as np


def spline_eval(
    coeffs: np.ndarray, k: np.ndarray, dx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cubic value and derivative from packed per-segment coefficients.

    ``coeffs`` is the C-contiguous ``(nseg, 4)`` array of
    ``(c0, c1, c2, c3)`` rows; ``k`` the segment index per point and
    ``dx`` the local offset from the segment's left knot.
    """
    rows = coeffs[k]  # single fused gather of all four coefficients
    c1 = rows[:, 1]
    c2 = rows[:, 2]
    c3 = rows[:, 3]
    val = rows[:, 0] + dx * (c1 + dx * (c2 + dx * c3))
    der = c1 + dx * (2.0 * c2 + dx * 3.0 * c3)
    return val, der


def accumulate_scalar(idx: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Scatter-add scalar weights: ``out[idx[p]] += weights[p]``."""
    return np.bincount(idx, weights=weights, minlength=n)


def accumulate_vec3(idx: np.ndarray, vectors: np.ndarray, n: int) -> np.ndarray:
    """Scatter-add (P, 3) vectors into an (n, 3) accumulator."""
    out = np.empty((n, 3), dtype=np.float64)
    for axis in range(3):
        out[:, axis] = np.bincount(idx, weights=vectors[:, axis], minlength=n)
    return out


# -- whole-pass fused kernels ---------------------------------------------


def grouped_spline_eval(
    bank: tuple, x: np.ndarray, member: np.ndarray | int
) -> tuple[np.ndarray, np.ndarray]:
    """Batched multi-member spline evaluation through a packed bank.

    Point ``p`` is evaluated through member spline ``member[p]``
    (``member`` broadcasts; a scalar evaluates the whole batch through
    one member).  Per point the arithmetic is exactly
    :meth:`repro.potentials.spline.UniformCubicSpline.evaluate`, so the
    batch is bitwise identical to looping the member splines.
    """
    coeffs, row0, x0, h, nseg, x_max, y_last, clamp_low, zero_above = bank
    g = np.asarray(member, dtype=np.int64)
    x0g = x0[g]
    hg = h[g]
    t = (x - x0g) / hg
    k = np.clip(np.floor(t).astype(np.int64), 0, nseg[g] - 1)
    dx = x - (x0g + k * hg)
    if clamp_low:
        dx = np.where(x < x0g, 0.0, dx)
    val, der = spline_eval(coeffs, row0[g] + k, dx)
    xmg = x_max[g]
    if zero_above:
        above = x >= xmg
        val = np.where(above, 0.0, val)
        der = np.where(above, 0.0, der)
    else:
        above = x > xmg
        if np.any(above):
            val = np.where(above, y_last[g], val)
            der = np.where(above, 0.0, der)
    return val, der


def neighbor_prefilter(
    positions: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
    lengths: np.ndarray,
    periodic: np.ndarray,
    rmax: float,
    *,
    inclusive: bool,
    compute_r: bool,
    assume_inside: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Distance-filter candidate pairs at ``rmax``.

    Computes minimum-image separations along the periodic dimensions
    (deterministic half-box tie-break, exactly
    :meth:`repro.md.boundary.Box.minimum_image`), keeps pairs with
    ``r2 <= rmax**2`` (``inclusive``, the Verlet prefilter at build
    time) or ``r2 < rmax**2`` (the strict cutoff query), and returns
    the compacted ``(i, j, rij, r)``.  With ``compute_r=False`` the
    kept geometry is not materialized (rebuilds only need indices) and
    the last two outputs are empty.

    ``assume_inside=True`` asserts the caller has *proved* every
    candidate passes the predicate (e.g. a build-time separation bound
    plus a displacement bound — the shard tier's all-inside guarantee):
    the mask would be all-True, so the comparison and the four
    compaction copies are skipped.  Values are bitwise-identical to the
    masked path — compacting by an all-True mask copies elementwise and
    ``sqrt`` is elementwise — the flag only removes work, never changes
    bits.  The caller's proof is load-bearing: a candidate that would
    have failed the predicate is emitted anyway.
    """
    rij = positions[j] - positions[i]
    for d in range(3):
        if periodic[d]:
            ld = lengths[d]
            rij[:, d] -= ld * np.floor(rij[:, d] / ld + 0.5)
    r2 = np.einsum("ij,ij->i", rij, rij)
    if assume_inside:
        if not compute_r:
            return (
                i,
                j,
                np.empty((0, 3), dtype=np.float64),
                np.empty(0, dtype=np.float64),
            )
        return i, j, rij, np.sqrt(r2)
    if inclusive:
        keep = r2 <= rmax * rmax
    else:
        keep = r2 < rmax * rmax
    if not compute_r:
        return (
            i[keep],
            j[keep],
            np.empty((0, 3), dtype=np.float64),
            np.empty(0, dtype=np.float64),
        )
    return i[keep], j[keep], rij[keep], np.sqrt(r2[keep])


def fused_density_pass(
    i: np.ndarray,
    j: np.ndarray,
    r: np.ndarray,
    ti: np.ndarray,
    tj: np.ndarray,
    rho_bank: tuple,
    n_atoms: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """EAM stage 1 over a half pair list: densities in one pass.

    Evaluates ``rho_{type(j)}(r)`` (j's density at i) and
    ``rho_{type(i)}(r)`` (i's density at j) through the rho bank and
    scatter-adds both directions.  Single-type tables evaluate **once**
    per pair and share the value between directions — the common
    elemental-metal case does one spline pass, not two.  Returns
    ``(rho_bar, d_ji, d_ij)`` where the ``d`` arrays are the per-pair
    density derivatives :func:`fused_force_pass` needs.
    """
    n_members = len(rho_bank[2])
    if n_members == 1:
        v, d = grouped_spline_eval(rho_bank, r, 0)
        rho_bar = accumulate_scalar(i, v, n_atoms)
        rho_bar += accumulate_scalar(j, v, n_atoms)
        return rho_bar, d, d
    v_ji, d_ji = grouped_spline_eval(rho_bank, r, tj)
    v_ij, d_ij = grouped_spline_eval(rho_bank, r, ti)
    rho_bar = accumulate_scalar(i, v_ji, n_atoms)
    rho_bar += accumulate_scalar(j, v_ij, n_atoms)
    return rho_bar, d_ji, d_ij


def fused_force_pass(
    i: np.ndarray,
    j: np.ndarray,
    rij: np.ndarray,
    r: np.ndarray,
    f_der: np.ndarray,
    d_ji: np.ndarray,
    d_ij: np.ndarray,
    phi_bank: tuple,
    phi_member: np.ndarray | int,
    n_atoms: int,
) -> tuple[np.ndarray, np.ndarray]:
    """EAM stage 2 over a half pair list: pair energies and forces.

    ``f_der`` is the globally reduced embedding derivative per atom;
    ``d_ji``/``d_ij`` come from :func:`fused_density_pass` over the
    same pairs; ``phi_member`` maps each pair to its ``phi`` bank slot.
    The Eq. 4 radial scalar feeds both scatter halves, and a pair
    energy of ``phi/2`` is credited to each member atom.

    Degenerate geometry (two atoms at one point) raises
    :class:`FloatingPointError` out of the unit-vector division rather
    than silently propagating NaNs.
    """
    phi_v, phi_d = grouped_spline_eval(phi_bank, r, phi_member)
    s = f_der[i] * d_ji + f_der[j] * d_ij + phi_d
    with np.errstate(invalid="raise", divide="raise"):
        unit = rij / r[:, None]
    fvec = s[:, None] * unit
    forces = accumulate_vec3(i, fvec, n_atoms)
    forces -= accumulate_vec3(j, fvec, n_atoms)
    w = 0.5 * phi_v
    e_pair = accumulate_scalar(i, w, n_atoms)
    e_pair += accumulate_scalar(j, w, n_atoms)
    return e_pair, forces
