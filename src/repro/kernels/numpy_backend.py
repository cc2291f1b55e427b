"""Baseline NumPy kernels: always available, and the *definition* every
other tier must equal bit for bit.

The fused spline evaluation is the hot loop of the whole EAM stack: one
segment computation, one gather of the packed coefficient table, then a
Horner polynomial for value and derivative from the same four
coefficients (the uniformly binned table lookup of the FPGA pipelines
in PAPERS.md, and of a WSE tile's per-segment SRAM rows).

The whole-pass kernels are the numpy ports of the loops that used to
live inline in :mod:`repro.md.neighbor_list`, :mod:`repro.potentials.eam`
and (``density_chunk``, ``force_chunk``) :mod:`repro.core.streaming`.
Per element they perform the *identical* IEEE operations, on the same
operands in the same order, as those call sites did (the pair kernels'
first port is frozen as ``tests.legacy_kernels``).  What the bodies are
free to choose is how memory moves, and at these sizes (10^5 pairs)
that, not arithmetic, is the cost.  Three rules:

* **Gather with ``take``.**  ``a.take(idx, axis=0)`` is 4-8x faster
  than ``a[idx]`` (numpy's advanced-indexing machinery) and copies the
  same elements; in the default ``mode="raise"`` an out-of-range index
  still raises ``IndexError`` and a negative one still wraps.  Do not
  pass ``out=``: under ``mode="raise"`` numpy buffers ``out`` and the
  call gets *slower* than a fresh ``take``; ``mode="clip"`` avoids the
  buffer but drops the bounds check, so it is only legal on an index
  the same function has just clipped.
* **Compact through one index array.**  A filter computes
  ``np.flatnonzero(mask)`` once and ``take``s every output through it,
  instead of one boolean-mask copy per output.
* **Feed ``bincount`` contiguous weights.**  A strided weight column is
  copied inside ``bincount``; build the column contiguous (it is needed
  by both scatter halves anyway) and no ``(P, 3)`` temporary exists.

Temporaries are reused in place where the operand order allows
(``np.add(c, val, out=val)`` is ``c + val`` written into ``val``); no
buffer outlives a call and no kernel writes to an argument.

Spline *banks* are the packed-group tuples built by
:meth:`repro.potentials.spline.SplineGroup.bank`::

    (coeffs, row0, x0, h, nseg, x_max, y_last, clamp_low, zero_above)

with per-member arrays indexed by the point's member id.  ``clamp_low``
covers the ``extrapolate_low="clamp"`` boundary; ``"linear"`` needs no
special-casing (the boundary polynomial continues naturally), and a
bank cannot raise: ``"error"`` is honoured by the spline classes'
``evaluate``, not by the whole-pass kernels.
"""

from __future__ import annotations

import numpy as np

name = "numpy"


def spline_eval(
    coeffs: np.ndarray, k: np.ndarray, dx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cubic value and derivative from packed per-segment coefficients.

    ``coeffs`` is the C-contiguous ``(nseg, 4)`` array of
    ``(c0, c1, c2, c3)`` rows; ``k`` the segment index per point and
    ``dx`` the local offset from the segment's left knot.
    """
    # One gather: ``take`` on the transposed view copies the small
    # table column-major and fetches four contiguous coefficient
    # columns, so the Horner passes below stream instead of striding.
    c0, c1, c2, c3 = coeffs.T.take(k, axis=1)
    # in place, operands in the order of the expression on the right:
    # val = c0 + dx * (c1 + dx * (c2 + dx * c3))
    val = dx * c3
    np.add(c2, val, out=val)
    np.multiply(dx, val, out=val)
    np.add(c1, val, out=val)
    np.multiply(dx, val, out=val)
    np.add(c0, val, out=val)
    # der = c1 + dx * (2.0 * c2 + dx * 3.0 * c3)
    der = dx * 3.0 * c3
    np.add(2.0 * c2, der, out=der)
    np.multiply(dx, der, out=der)
    np.add(c1, der, out=der)
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

    Point ``p`` of the 1-D batch ``x`` is evaluated through member
    spline ``member[p]`` (a scalar ``member`` evaluates the whole batch
    through one member, whose constants then stay scalars — no
    per-point gathers).  Per point the arithmetic is exactly
    :meth:`repro.potentials.spline.UniformCubicSpline.evaluate`, so the
    batch is bitwise identical to looping the member splines: one
    segment computation in one buffer, one row gather, and boundary
    fix-ups that cost a comparison unless a point is out of range.
    """
    coeffs, row0, x0, h, nseg, x_max, y_last, clamp_low, zero_above = bank
    g = np.asarray(member, dtype=np.int64)
    # ``take`` of a 0-d member returns scalars, of a 1-D one per-point rows
    x0g = x0.take(g)
    hg = h.take(g)
    last = nseg.take(g) - 1
    xmg = x_max.take(g)
    # k = clip(floor((x - x0) / h), 0, nseg - 1);  dx = x - (x0 + k * h)
    t = x - x0g
    np.divide(t, hg, out=t)
    np.floor(t, out=t)
    k = t.astype(np.int64)
    np.clip(k, 0, last, out=k)
    dx = np.multiply(k, hg, out=t)
    np.add(x0g, dx, out=dx)
    np.subtract(x, dx, out=dx)
    if clamp_low:
        low = x < x0g
        if low.any():
            dx[low] = 0.0
    k += row0.take(g)
    val, der = spline_eval(coeffs, k, dx)
    above = x >= xmg if zero_above else x > xmg
    if above.any():
        if zero_above:
            val[above] = 0.0
        else:
            val[above] = np.broadcast_to(y_last.take(g), above.shape)[above]
        der[above] = 0.0
    return val, der


def minimum_image(rij: np.ndarray, lengths, periodic) -> None:
    """Minimum image of (P, 3) separations, in place.

    ``floor(x/L + 0.5)``, not ``round(x/L)``: ``np.round`` sends
    half-box ties (exactly +-L/2) to the nearest *even* multiple, so the
    wrapped sign would depend on which image the separation came from.
    ``floor`` maps both ties to -L/2, matching ``Box.minimum_image``, so
    every engine wraps alike.  The edge is a Python float, so a float32
    wafer wraps in float32.
    """
    for d in range(3):
        if periodic[d]:
            ld = float(lengths[d])
            col = rij[:, d]
            # col -= ld * floor(col / ld + 0.5), one buffer
            wrap = col / ld
            wrap += 0.5
            np.floor(wrap, out=wrap)
            np.multiply(ld, wrap, out=wrap)
            col -= wrap


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
    every row would be kept, so the comparison and the four compaction
    copies are skipped.  Values are bitwise-identical to the filtered
    path — compacting by every row copies elementwise and ``sqrt`` is
    elementwise — the flag only removes work, never changes bits.  The
    caller's proof is load-bearing: a candidate that would have failed
    the predicate is emitted anyway.
    """
    rij = positions.take(j, axis=0)
    rij -= positions.take(i, axis=0)
    minimum_image(rij, lengths, periodic)
    r2 = np.einsum("ij,ij->i", rij, rij)
    no_geometry = (
        np.empty((0, 3), dtype=np.float64),
        np.empty(0, dtype=np.float64),
    )
    if assume_inside:
        if not compute_r:
            return (i, j, *no_geometry)
        return i, j, rij, np.sqrt(r2, out=r2)
    # one index array compacts all four outputs
    rmax2 = rmax * rmax
    keep = np.flatnonzero(r2 <= rmax2 if inclusive else r2 < rmax2)
    if not compute_r:
        return (i.take(keep), j.take(keep), *no_geometry)
    r = r2.take(keep)
    return i.take(keep), j.take(keep), rij.take(keep, axis=0), np.sqrt(r, out=r)


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
    # s = f_der[i] * d_ji + f_der[j] * d_ij + phi_d
    s = f_der.take(i) * d_ji
    s += f_der.take(j) * d_ij
    s += phi_d
    forces = np.empty((n_atoms, 3), dtype=np.float64)
    for axis in range(3):
        # s * (rij / r) one contiguous column at a time: the column
        # feeds both scatter halves and no (P, 3) temporary exists
        with np.errstate(invalid="raise", divide="raise"):
            w = rij[:, axis] / r
        np.multiply(s, w, out=w)
        col = np.bincount(i, weights=w, minlength=n_atoms)
        col -= np.bincount(j, weights=w, minlength=n_atoms)
        forces[:, axis] = col
    half_phi = np.multiply(0.5, phi_v, out=phi_v)
    e_pair = accumulate_scalar(i, half_phi, n_atoms)
    e_pair += accumulate_scalar(j, half_phi, n_atoms)
    return e_pair, forces



# -- the lockstep wafer's two sweeps, one chunk of offsets at a time ------


def density_chunk(
    pos_rows: np.ndarray,
    listed: tuple[np.ndarray, np.ndarray, np.ndarray],
    lengths,
    periodic,
    cutoff: float,
    typ_flat: np.ndarray,
    rho_bank: tuple,
    phi_index: np.ndarray,
    symmetry: bool,
    rho_flat: np.ndarray,
    int_flat: np.ndarray,
) -> tuple:
    """The wafer's density sweep over one chunk of listed pairs.

    ``listed`` is the chunk's ``(starts, ctr, src)`` index rows (int32;
    ``starts[i]:starts[i + 1]`` are the rows of its ``i``-th offset, in
    which every center and every source tile appears at most once).
    The one place a pair is admitted: gather ``pos[src] - pos[ctr]``,
    minimum image, keep ``0 < r^2 < cutoff^2``.  The survivors' ``rho``
    is added to the flat ``rho_flat`` one offset at a time, in exchange
    order — with ``symmetry`` every center share of the offset, then
    every partner share (the reverse reduction) — and their count to
    ``int_flat``.  Returns the survivor record ``(starts, ctr, src, r,
    unit, rho_d_src, rho_d_ctr, phi_member)`` for :func:`force_chunk`;
    with one table ``rho_d_ctr is rho_d_src`` and ``phi_member`` is 0.
    """
    starts, ctr, src = listed
    d = pos_rows.take(src, axis=0)
    d -= pos_rows.take(ctr, axis=0)
    minimum_image(d, lengths, periodic)
    r2 = np.einsum("pk,pk->p", d, d)
    keep = np.flatnonzero((r2 < cutoff**2) & (r2 > 0.0))
    r = np.sqrt(r2.take(keep))
    unit = d.take(keep, axis=0) / r[:, None]
    starts = np.searchsorted(keep, starts)
    ctr = ctr.take(keep)
    src = src.take(keep)
    # within one offset a center tile appears at most once, so this is
    # the per-tile count of offsets that interact
    int_flat += np.bincount(ctr, minlength=len(int_flat))
    x = np.asarray(r, dtype=np.float64)
    if len(rho_bank[2]) == 1:
        # one table: the partner's share is the same value
        vals, rho_d = grouped_spline_eval(rho_bank, x, 0)
        vals_ctr, rho_d_ctr, phi_member = vals, rho_d, 0
    else:
        src_t = typ_flat.take(src)
        ctr_t = typ_flat.take(ctr)
        vals, rho_d = grouped_spline_eval(rho_bank, x, src_t)
        vals_ctr, rho_d_ctr = grouped_spline_eval(rho_bank, x, ctr_t)
        phi_member = phi_index[ctr_t, src_t]
    for i in range(len(starts) - 1):
        s0, s1 = starts[i], starts[i + 1]
        if s0 == s1:
            continue
        rho_flat[ctr[s0:s1]] += vals[s0:s1]
        if symmetry:
            rho_flat[src[s0:s1]] += vals_ctr[s0:s1]
    return starts, ctr, src, r, unit, rho_d, rho_d_ctr, phi_member


def force_chunk(
    record: tuple,
    f_der: np.ndarray,
    phi_bank: tuple,
    symmetry: bool,
    force_rows: np.ndarray,
    e_flat: np.ndarray | None = None,
) -> None:
    """The wafer's force sweep over one :func:`density_chunk` record.

    Gathers the flat ``f_der`` (``F'``, the second exchange) at the
    recorded tiles, evaluates only ``phi`` and adds the Eq. 4 force to
    the ``(n_tiles, 3)`` ``force_rows`` one offset at a time; with
    ``symmetry`` the partner takes the negated share after every center
    of the offset has its own.  ``e_flat`` (optional) receives half the
    pair energy per member tile.
    """
    starts, ctr, src, r, unit, rho_d_src, rho_d_ctr, member = record
    phi_v, phi_d = grouped_spline_eval(
        phi_bank, np.asarray(r, dtype=np.float64), member
    )
    s = f_der.take(ctr) * rho_d_src + f_der.take(src) * rho_d_ctr + phi_d
    fvec = s[:, None] * unit
    if e_flat is not None and symmetry:
        # center + partner halves meet on one plane before they join
        # the accumulator (one rounding per tile per offset)
        e_both = np.zeros(len(e_flat))
    for i in range(len(starts) - 1):
        s0, s1 = starts[i], starts[i + 1]
        if s0 == s1:
            continue
        at, partner = ctr[s0:s1], src[s0:s1]
        force_rows[at] += fvec[s0:s1]
        if symmetry:
            force_rows[partner] -= fvec[s0:s1]
        if e_flat is None:
            continue
        e_half = 0.5 * phi_v[s0:s1]
        if symmetry:
            e_both[at] = e_half
            e_both[partner] += e_half
            e_flat += e_both
            e_both[at] = 0.0
            e_both[partner] = 0.0
        else:
            e_flat[at] += e_half
