"""Baseline NumPy kernels: always available, and the *definition* every
other tier must equal bit for bit.

Spline evaluation is the hot loop of the whole EAM stack, and there is
one evaluator, ``grouped_spline_eval``: one segment computation, one
gather of the packed coefficient bank, then a Horner polynomial for
value and derivative from the same four coefficients (the uniformly
binned table lookup of the FPGA pipelines in PAPERS.md, and of a WSE
tile's per-segment SRAM rows).  A single spline is a one-member bank.

The whole-pass kernels are the numpy ports of the loops that used to
live inline in :mod:`repro.md.neighbor_list`, :mod:`repro.md.cell_list`
(``cell_pairs``, a rebuild's cell sweep), :mod:`repro.potentials.eam`
and the lockstep machine, :mod:`repro.core.wse_md` (``wafer_step``, the
machine's whole step: the list test and build, the two sweeps with the
embedding between them, the leap-frog and the cycle counter, each a
private helper here).  ``md_step`` is the reference engine's step
sequence -- the list test, the list build or the filter of the held
list, the fused EAM passes and the leap-frog -- moved here whole and run
for as many steps as it is asked; the build is the one ``CellList`` and
``NeighborList`` make (:func:`cell_plan`, :func:`cell_pairs`,
:func:`cut_built` are theirs too).  Per element they perform the
*identical* IEEE operations, on the same operands in the same order, as
those call sites did (the pair kernels' first port is frozen as
``tests.legacy_kernels``).  What the bodies are
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
buffer outlives a call but the list ``wafer_step`` keeps in its
caller's scratch and the binning buffers ``md_step`` keeps there, and a
kernel writes only to the arguments its docstring names as accumulators
or state.

Spline *banks* are the packed-group tuples built by
:meth:`repro.potentials.spline.SplineGroup.bank`::

    (coeffs, row0, x0, h, nseg, x_max, y_last, clamp_low, zero_above)

with per-member arrays indexed by the point's member id.  ``clamp_low``
covers the ``extrapolate_low="clamp"`` boundary; ``"linear"`` needs no
special-casing (the boundary polynomial continues naturally).
"""

from __future__ import annotations

import itertools
import math
import time
from typing import NamedTuple

import numpy as np

from repro.constants import MVV2E

name = "numpy"


def _horner(
    coeffs: np.ndarray, k: np.ndarray, dx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cubic value and derivative of row ``k`` of the ``(rows, 4)``
    coefficient bank at local offset ``dx``, point by point (native.c's
    ``horner`` issues the same operations)."""
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


def _scatter(idx: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Scatter-add scalar weights: ``out[idx[p]] += weights[p]``."""
    return np.bincount(idx, weights=weights, minlength=n)


# -- whole-pass fused kernels ---------------------------------------------


def grouped_spline_eval(
    bank: tuple, x: np.ndarray, member: np.ndarray | int
) -> tuple[np.ndarray, np.ndarray]:
    """Batched multi-member spline evaluation through a packed bank.

    Point ``p`` of the 1-D batch ``x`` is evaluated through member
    spline ``member[p]`` (a scalar ``member`` evaluates the whole batch
    through one member, whose constants then stay scalars — no
    per-point gathers).  This is the only spline evaluator: a single
    spline is a one-member bank.  Per point the arithmetic does not
    depend on the other members, so a batch is bitwise identical to
    looping the member splines: one segment computation in one buffer,
    one row gather, and boundary fix-ups that cost a comparison unless
    a point is out of range.
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
    val, der = _horner(coeffs, k, dx)
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
    every engine wraps alike.
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
    assume_inside: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Distance-filter candidate pairs at ``rmax``.

    Computes minimum-image separations along the periodic dimensions
    (deterministic half-box tie-break, exactly
    :meth:`repro.md.boundary.Box.minimum_image`), keeps pairs with
    ``r2 <= rmax**2`` (``inclusive``, the Verlet prefilter at build
    time) or ``r2 < rmax**2`` (the strict cutoff query), and returns
    the compacted ``(i, j, rij, r)``.

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
    if assume_inside:
        return i, j, rij, np.sqrt(r2, out=r2)
    # one index array compacts all four outputs
    rmax2 = rmax * rmax
    keep = np.flatnonzero(r2 <= rmax2 if inclusive else r2 < rmax2)
    r = r2.take(keep)
    return i.take(keep), j.take(keep), rij.take(keep, axis=0), np.sqrt(r, out=r)


# -- the reference engine's cell sweep ---------------------------------------

_EMPTY = np.empty(0, dtype=np.int64)

#: Half stencil: one offset per unordered offset pair (+o covers -o).
#: (0, 0, 0) is excluded — same-cell pairs are generated with i < j.
HALF_STENCIL = np.array([
    (dx, dy, dz)
    for dx, dy, dz in itertools.product((-1, 0, 1), repeat=3)
    if dz > 0 or (dz == 0 and dy > 0) or (dz == 0 and dy == 0 and dx > 0)
], dtype=np.int64)


class CellPlan(NamedTuple):
    """One binning of a configuration (:func:`cell_plan`).

    ``brute`` plans have no cells: a periodic dim spans fewer than three
    (the half stencil would alias), and the stream is
    :func:`brute_pairs`.  Otherwise the fields are the sweep's plan over
    *slots*, positions in cell-sorted order (``order[slot]`` is the atom
    id), as :func:`cell_blocks` and :func:`cell_pairs` take it.
    """

    brute: bool
    ncell: np.ndarray
    cid: np.ndarray | None = None  # per atom
    order: np.ndarray | None = None
    cid_sorted: np.ndarray | None = None
    coords_sorted: np.ndarray | None = None
    starts: np.ndarray | None = None
    counts: np.ndarray | None = None
    cols: np.ndarray | None = None  # (3, n) cell-sorted coordinate columns


def cell_plan(positions: np.ndarray, origin, lengths, periodic,
              reach: float, buffers: dict) -> CellPlan | None:
    """Bin ``positions`` into cells of edge >= ``reach`` (``None``: a
    position is not finite).

    Periodic dims span the box from ``origin``; open dims the positions'
    extent padded by 1e-9, at least ``reach``.  Each dim holds
    ``max(1, floor(span / reach))`` cells; an atom's cell is
    ``floor((x - lo) / size)``, wrapped along periodic dims and clamped
    along open ones, and the flat id is ``(cx * ny + cy) * nz + cz``.
    Slots are atoms stably sorted by flat id, so within a cell slot
    order is id order.  ``buffers`` (the caller's dict) keeps the
    per-atom and per-cell arrays between builds of the same sizes, so a
    rebuild costs no fresh large allocations.
    """
    if not np.all(np.isfinite(positions)):
        return None
    eps = 1e-9
    lo, span = np.empty(3), np.empty(3)
    for d in range(3):
        if periodic[d]:
            span[d] = lengths[d]
            lo[d] = origin[d]
        else:
            low = float(positions[:, d].min()) - eps
            high = float(positions[:, d].max()) + eps
            span[d] = max(high - low, reach)
            lo[d] = low
    ncell = np.maximum(1, np.floor(span / reach).astype(np.int64))
    # Alias-free stencil needs >= 3 cells along periodic dims: with
    # fewer, +o and -o could wrap onto the same neighbor cell.
    if np.any(periodic & (ncell < 3)):
        return CellPlan(True, ncell)
    n = len(positions)
    if buffers.get("n") != n:
        buffers.update(
            n=n, rel=np.empty((n, 3)), coords=np.empty((n, 3), np.int64),
            coords_sorted=np.empty((n, 3), np.int64),
            cid=np.empty(n, np.int64), cols=np.empty((3, n)),
        )
    rel, coords, cid = buffers["rel"], buffers["coords"], buffers["cid"]
    np.subtract(positions, lo, out=rel)
    np.divide(rel, span / ncell, out=rel)
    np.floor(rel, out=rel)
    np.copyto(coords, rel, casting="unsafe")
    for d in range(3):
        col = coords[:, d]
        if periodic[d]:
            np.mod(col, ncell[d], out=col)
        else:
            np.clip(col, 0, ncell[d] - 1, out=col)
    nx, ny, nz = ncell
    np.multiply(coords[:, 0], ny, out=cid)
    cid += coords[:, 1]
    cid *= nz
    cid += coords[:, 2]
    ntot = int(np.prod(ncell))
    if buffers.get("ntot") != ntot:
        buffers.update(ntot=ntot, counts=np.empty(ntot, np.int64),
                       starts=np.empty(ntot, np.int64))
    counts, starts = buffers["counts"], buffers["starts"]
    counts[:] = np.bincount(cid, minlength=ntot)
    starts[0] = 0
    np.cumsum(counts[:-1], out=starts[1:])
    order = np.argsort(cid, kind="stable")
    # cell-sorted coords and flat ids, so candidate generation walks
    # atoms in bin order and its gathers touch memory near-sequentially;
    # the sweep measures pair blocks in cell-sorted coordinate columns
    coords_sorted, cols = buffers["coords_sorted"], buffers["cols"]
    np.take(coords, order, axis=0, out=coords_sorted)
    np.take(positions.T, order, axis=1, out=cols)
    return CellPlan(False, ncell, cid, order, cid[order], coords_sorted,
                    starts, counts, cols)


def sweep_cut(cols: np.ndarray, lengths, periodic, reach: float) -> float:
    """The over-inclusive ``r2`` bound a sweep at ``reach`` cuts at
    (``CellList.pairs_within`` derives it): ``reach**2 * (1 + 16 eps)``
    plus ``8 * reach`` times a slack of ``4 * eps * (S + L)`` per
    periodic dim, ``S`` the columns' span."""
    eps = np.finfo(np.float64).eps
    slack = sum(
        4.0 * eps * (np.ptp(cols[d]) + lengths[d])
        for d in range(3) if periodic[d]
    )
    return reach * reach * (1.0 + 16.0 * eps) + 8.0 * reach * slack


def brute_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The brute-force stream of ``n`` atoms: every ``i < j``, row-major."""
    ii, jj = np.triu_indices(n, k=1)
    return ii.astype(np.int64), jj.astype(np.int64)


def cut_built(i, j, rij, r, cutoff: float) -> tuple | None:
    """The strict ``r2 < cutoff**2`` table ``(i, j, rij, r)`` of a build
    from its own geometry (``r`` and ``rij`` at the build positions).

    The kernel hands back ``r = sqrt(r2)``, not ``r2``.  ``sqrt`` is
    correctly rounded, hence monotone: with ``rc = sqrt(cutoff *
    cutoff)``, ``r < rc`` implies ``r2 < cutoff**2`` and ``r > rc``
    implies ``r2 > cutoff**2``, for any backend.  Only ``r == rc``
    leaves the kernel's decision open (a lattice shell sitting exactly
    on the cutoff); then ``None`` sends the query through
    :func:`neighbor_prefilter` as usual.
    """
    rc = math.sqrt(cutoff * cutoff)
    if np.any(r == rc):
        return None
    keep = r < rc
    if int(np.count_nonzero(keep)) == len(r):
        # skin 0: every candidate interacts
        return i, j, rij, r
    return i[keep], j[keep], rij[keep], r[keep]


def concatenated_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + c)`` for each (s, c) pair."""
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # arange(total) restarts at each range when the range's own offset
    # into the output is subtracted from its start
    out = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    out += np.arange(total, dtype=np.int64)
    return out


def cell_blocks(cid, coords, starts, counts, ncell, periodic, stencil):
    """The half-stencil pair stream of a cell plan, one block per offset.

    The plan (:class:`repro.md.cell_list.CellList` makes it) is over
    *slots*, positions in the cell-sorted order: ``cid`` / ``coords``
    are each slot's flat cell id and ``(n, 3)`` cell coordinates,
    ascending; cell ``c`` holds the ``counts[c]`` slots from
    ``starts[c]``; ``ncell`` is the grid's shape and ``stencil`` the
    ``(n_off, 3)`` nonzero offsets.

    Yields ``(src, start, count)`` int64 triples: slot ``src[k]`` pairs
    with the ``count[k] > 0`` consecutive slots from ``start[k]``.
    Walking the blocks in order, rows in order, partners in order is
    the one enumeration order every consumer of the stream emits
    (:func:`cell_pairs` on each tier, ``CellList.candidate_pairs``).
    The first block is the same-cell pairs, each slot with the rest of
    its cell after it; then one block per offset, from the slots whose
    cell has a neighbor cell there (wrapped along periodic dims), each
    with all of that cell.
    """
    nx, ny, nz = ncell
    n = len(cid)
    # Same-cell pairs, i < j: the sort is stable, so within a cell
    # slot order is id order and each atom pairs with the rest of
    # its cell's slot range after itself.
    slots = np.arange(n)
    start = slots + 1
    count = starts[cid] + counts[cid] - start
    keep = count > 0
    yield slots[keep], start[keep], count[keep]
    # Cross-cell pairs: each unordered cell pair visited from one
    # side only (the plan keeps +o and -o from wrapping onto the same
    # neighbor: CellList.build falls back to brute force below 3
    # cells along a periodic dim).  Per-(axis, shift) validity masks
    # are shared across the offsets of one enumeration (the 13-offset
    # half stencil reuses one shift mask up to 9 times).
    shift_masks: dict = {}
    nb = np.empty((n, 3), dtype=np.int64)
    for offset in np.asarray(stencil, dtype=np.int64).tolist():
        if not any(delta and periodic[d] for d, delta in enumerate(offset)):
            # No wrap on this offset: the neighbor cell's flat id is
            # the atom's flat id plus a constant, and validity is a
            # one-sided range test per shifted axis — exact integer
            # identities of the generic path below, at a fraction of
            # its per-offset cost.
            valid = None
            for d, delta in enumerate(offset):
                if not delta:
                    continue
                m = shift_masks.get((d, delta))
                if m is None:
                    col = coords[:, d]
                    if delta > 0:
                        m = col < ncell[d] - delta
                    else:
                        m = col >= -delta
                    shift_masks[(d, delta)] = m
                valid = m if valid is None else valid & m
            src = np.nonzero(valid)[0]
            ncid = cid.take(src)
            ncid += (offset[0] * ny + offset[1]) * nz + offset[2]
        else:
            np.add(coords, np.asarray(offset, dtype=np.int64), out=nb)
            valid = np.ones(n, dtype=bool)
            for d in range(3):
                if periodic[d]:
                    nb[:, d] = np.mod(nb[:, d], ncell[d])
                else:
                    valid &= (nb[:, d] >= 0) & (nb[:, d] < ncell[d])
            src = np.nonzero(valid)[0]
            cell = nb.take(src, axis=0)
            ncid = (cell[:, 0] * ny + cell[:, 1]) * nz + cell[:, 2]
        count = counts.take(ncid)
        keep = count > 0
        if not keep.all():
            src, ncid, count = src[keep], ncid[keep], count[keep]
        if len(src):
            yield src, starts.take(ncid), count


def cell_pairs(
    cols: np.ndarray,
    order: np.ndarray,
    cid: np.ndarray,
    coords: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    ncell: np.ndarray,
    periodic: np.ndarray,
    stencil: np.ndarray,
    lengths: np.ndarray,
    r2_max: float,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The :func:`cell_blocks` stream of a cell plan, coarsely cut.

    ``cols`` are the ``(3, n)`` cell-sorted coordinate columns and
    ``order[slot]`` the atom id of a slot, then come the plan of
    :func:`cell_blocks` and the box ``lengths``.  Each block is measured where it is
    enumerated: separation ``cols[:, t] - cols[:, s]``, the nearest-image
    formula along periodic dims, ``r2 = (dx*dx + dy*dy) + dz*dz``, kept
    at ``r2 <= r2_max``.  Only the survivors are mapped through
    ``order`` to atom ids; the raw ``(i, j)`` arrays never exist.

    Returns ``(i, j, n_raw)``: the surviving pairs in stream order and
    the length of the raw stream they were cut from.
    """
    n_raw = 0
    out_i = [_EMPTY]
    out_j = [_EMPTY]
    for src, start, count in cell_blocks(cid, coords, starts, counts, ncell,
                                         periodic, stencil):
        n_raw += int(count.sum())
        islot = np.repeat(src, count)
        jslot = concatenated_ranges(start, count)
        r2 = None
        for d in range(3):
            col = cols[d]
            dd = col.take(jslot)
            dd -= col.take(islot)
            if periodic[d]:
                ld = lengths[d]
                dd -= ld * np.floor(dd / ld + 0.5)
            np.multiply(dd, dd, out=dd)
            r2 = dd if r2 is None else np.add(r2, dd, out=r2)
        keep = np.nonzero(r2 <= r2_max)[0]
        out_i.append(order.take(islot.take(keep)))
        out_j.append(order.take(jslot.take(keep)))
    return np.concatenate(out_i), np.concatenate(out_j), n_raw


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
        rho_bar = _scatter(i, v, n_atoms)
        rho_bar += _scatter(j, v, n_atoms)
        return rho_bar, d, d
    v_ji, d_ji = grouped_spline_eval(rho_bank, r, tj)
    v_ij, d_ij = grouped_spline_eval(rho_bank, r, ti)
    rho_bar = _scatter(i, v_ji, n_atoms)
    rho_bar += _scatter(j, v_ij, n_atoms)
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
        col = _scatter(i, w, n_atoms)
        col -= _scatter(j, w, n_atoms)
        forces[:, axis] = col
    half_phi = np.multiply(0.5, phi_v, out=phi_v)
    e_pair = _scatter(i, half_phi, n_atoms)
    e_pair += _scatter(j, half_phi, n_atoms)
    return e_pair, forces


# -- the reference engine's whole step -----------------------------------


#: The phases an :func:`md_step` times, in the order of
#: :attr:`MdStep.phase_ns` (the reference engine's span names).
MD_PHASES = ("neighbor", "density", "embedding", "pair_force", "integrate")
#: Why an :func:`md_step` call returned: it ran the steps it was asked
#: for, a position or displacement was not finite, or a pair fell under
#: the distance cap (or sits at r = 0, or is not a number).
MD_STOPS = ("steps", "non_finite", "cap")


class MdStep(NamedTuple):
    """What one :func:`md_step` call ran."""

    #: steps completed; the state is at the last of them
    steps: int
    #: one of :data:`MD_STOPS`
    stop: str
    #: int64 ``(steps,)``: interacting pairs of each completed step
    pairs: np.ndarray
    #: int64 ``(steps, len(MD_PHASES))``: each completed step's phases, ns
    phase_ns: np.ndarray
    #: int64 ``(builds, 4)``: each list build's step (0 = the call's
    #: first) and funnel, raw, coarse_kept and exact_kept, in order
    builds: np.ndarray
    #: the pre-mask's dead bound when the call returned
    dead_bound: float


def md_step(
    positions: np.ndarray,
    velocities: np.ndarray,
    types: np.ndarray,
    masses: np.ndarray,
    held: list,
    origin,
    lengths,
    periodic,
    cutoff: float,
    skin: float,
    r_min: float,
    banks: tuple,
    phi_index: np.ndarray,
    dt: float,
    n_steps: int,
    *,
    dead_bound: float = np.inf,
    scratch: dict | None = None,
) -> MdStep:
    """Up to ``n_steps`` steps of the reference engine, its Verlet list
    included; ``positions`` and ``velocities`` advance in place.

    ``held`` is the list the call starts from and, when it returns, the
    one it holds: ``[ref, cand_i, cand_j, r_build, r_build_max]``, the
    half candidate pairs with their separations at the build positions
    ``ref`` (largest ``r_build_max``), or ``[]`` for none.  The call
    rewrites it in place: the old list ends when a build replaces it, as
    it did in ``NeighborList.rebuild`` (freed before the build, its
    pages go back to the system and the steps after fault theirs in
    again).  Each step is, in order, what
    :class:`~repro.md.neighbor_list.NeighborList`,
    :class:`~repro.potentials.eam.EAMPotential` and
    :class:`~repro.md.integrators.LeapfrogVerlet` do one call at a time:

    * the list test (:func:`~repro.md.neighbor_list.skin_trigger`): a
      displacement that is not finite stops the call, the step not run;
      no list for these atoms, skin 0 or a displacement over
      ``skin / 2`` builds one, and the build's table is the step's;
    * a build (``NeighborList.build``): :func:`cell_plan` at the reach
      ``cutoff + skin`` in the box from ``origin``, the
      :func:`cell_pairs` sweep at :func:`sweep_cut` along
      :data:`HALF_STENCIL` (or the :func:`brute_pairs` stream of a plan
      with no cells), the inclusive :func:`neighbor_prefilter` at the
      reach, then :func:`cut_built`; a position that is not finite stops
      the call with no list held;
    * else the strict ``r < cutoff`` table through
      :func:`neighbor_prefilter` under ``Candidates.pairs``'s all-inside
      and pre-mask cuts (``dead_bound`` is the pre-mask's state, reset
      by a build, returned updated);
    * the distance cap: a pair under ``r_min`` (or at 0, or NaN) stops
      the call before anything is written;
    * :func:`fused_density_pass` with the rho bank of ``banks = (rho,
      embed, phi)``, the embedding ``F'`` through each atom's type (when
      the bank has a member per type), :func:`fused_force_pass`;
    * the leap-frog with per-type ``masses`` and step ``dt`` (ps).

    ``scratch`` is the caller's dict, in which a tier keeps what it
    holds between that caller's calls in its own slot: this body keeps
    the binning's buffers, as ``CellList`` does between builds.  The
    list a call leaves in ``held`` is the caller's on every tier: no
    later call writes to its arrays.
    """
    store = {} if scratch is None else scratch.setdefault(name, {})
    geometry = (origin, lengths, periodic, cutoff, skin)
    rows, builds = [], []  # each completed step's phase ns and pairs
    stop = "steps"
    while len(rows) < n_steps and stop == "steps":
        # a step's temporaries end with its call, before the next step's
        stop, row, funnel, dead_bound = _md_one(
            positions, velocities, types, masses, held, geometry, r_min,
            banks, phi_index, dt, dead_bound, store)
        if funnel is not None:
            builds.append((len(rows), *funnel))
        if stop == "steps":
            rows.append(row)
    rows = np.array(rows, dtype=np.int64).reshape(-1, len(MD_PHASES) + 1)
    builds = np.array(builds, dtype=np.int64).reshape(-1, 4)
    return MdStep(len(rows), stop, rows[:, -1], rows[:, :-1], builds,
                  dead_bound)


def _md_one(positions, velocities, types, masses, held, geometry, r_min,
            banks, phi_index, dt, dead_bound, store) -> tuple:
    """One :func:`md_step` step: ``(stop, (phase ns..., pairs), the
    funnel of its build or None, dead bound)``; nothing is written to
    the state unless the stop is ``"steps"``.  Each part's temporaries
    end with its call, as they did when the parts were separate calls."""
    clock = time.perf_counter_ns
    t0 = clock()
    funnel = None
    stop, max_d2 = _md_test(positions, held, geometry[-1])
    if stop == "non_finite":
        return stop, None, None, dead_bound
    if stop == "build":
        built = _md_build(positions, held, geometry, store)
        if built is None:
            held.clear()
            return "non_finite", None, None, dead_bound
        table, funnel = built
        dead_bound = np.inf
    else:
        _, i, j, r_build, r_build_max = held
        table, dead_bound = held_table(
            neighbor_prefilter, positions, i, j, r_build, r_build_max,
            *geometry[1:4], math.sqrt(max_d2), dead_bound)
    t1 = clock()
    p = len(table[0])
    forces, ns = _md_forces(len(positions), types, table, r_min, banks,
                            phi_index)
    if forces is None:
        return "cap", None, funnel, dead_bound
    del table
    t4 = clock()
    accel = forces / (masses.take(types)[:, None] * MVV2E)
    velocities += accel * dt
    positions += velocities * dt
    t5 = clock()
    return "steps", (t1 - t0, *ns, t5 - t4, p), funnel, dead_bound


def _md_test(positions, held, skin: float) -> tuple[str, float]:
    """The list test (``skin_trigger``): ``(stop, largest squared
    displacement)``, the stop ``"build"`` when no list is held for these
    atoms, at skin 0 or past ``skin / 2``."""
    if not held or len(held[0]) != len(positions) or skin == 0.0:
        return "build", 0.0
    delta = positions - held[0]
    max_d2 = float(np.max(np.einsum("ij,ij->i", delta, delta), initial=0.0))
    if not math.isfinite(max_d2):
        return "non_finite", max_d2
    return ("build" if max_d2 > (skin / 2.0) ** 2 else "steps"), max_d2


def _md_build(positions, held, geometry, store) -> tuple | None:
    """``NeighborList.build`` at the current positions into ``held``:
    ``(the build's table, its funnel)``, or None when a position is not
    finite.  The sweep's pairs and the build's ``rij`` end with this
    call, as they ended with ``NeighborList.build``."""
    origin, lengths, periodic, cutoff, skin = geometry
    reach = cutoff + skin
    n = len(positions)
    if n == 0:
        ci = cj = _EMPTY
        n_raw = 0
    else:
        plan = cell_plan(positions, origin, lengths, periodic, reach, store)
        if plan is None:
            return None
        if plan.brute:
            ci, cj = brute_pairs(n)
            n_raw = len(ci)
        else:
            ci, cj, n_raw = cell_pairs(
                plan.cols, plan.order, plan.cid_sorted, plan.coords_sorted,
                plan.starts, plan.counts, plan.ncell, periodic, HALF_STENCIL,
                lengths, sweep_cut(plan.cols, lengths, periodic, reach))
    i, j, rij, r = neighbor_prefilter(positions, ci, cj, lengths, periodic,
                                      reach, inclusive=True)
    funnel = (n_raw, len(ci), len(i))
    del ci, cj
    held[:] = [np.array(positions, copy=True), i, j, r,
               float(r.max()) if len(r) else 0.0]
    table = cut_built(i, j, rij, r, cutoff)
    if table is None:
        table = neighbor_prefilter(positions, i, j, lengths, periodic, cutoff,
                                   inclusive=False)
    return table, funnel


def held_table(prefilter, positions, i, j, r_build, r_build_max: float,
               lengths, periodic, cutoff: float, max_disp: float | None,
               dead_bound: float) -> tuple:
    """The strict ``r < cutoff`` table ``(i, j, rij, r)`` of a held
    candidate list ``(i, j)`` with build separations ``r_build`` (largest
    ``r_build_max``), through ``prefilter`` (a tier's
    :func:`neighbor_prefilter`), and the pre-mask's dead bound:
    ``(table, dead_bound)``.

    ``max_disp`` bounds the displacement of every atom since the build
    (None: unknown, no cut).  With ``bound = 2 * max_disp + 1e-9`` (the
    epsilon absorbs the rounding in ``r_build`` and ``max_disp``), two
    cuts remove work and never change a bit of the table:

    * **all-inside**: ``r_build_max + bound < cutoff`` proves every
      candidate still inside, so the prefilter skips its predicate and
      compaction (``assume_inside``);
    * **pre-mask**: otherwise, when some candidate sat past
      ``cutoff + 1e-9`` at the build, the candidates with ``r_build >
      cutoff + bound`` cannot have closed inside the cutoff and are not
      measured -- applied only when it removes at least a tenth of
      them.  When it fails to pay at a bound it fails at every larger
      one, and the bound only grows until the next build, so
      ``dead_bound`` (the smallest such bound, ``inf`` after a build)
      skips the probe for the rest of the window.

    Both proofs hold under minimum image: the nearest-image separation
    moves by at most ``2 * max_disp`` too.
    """
    all_inside = False
    if max_disp is not None:
        bound = 2.0 * max_disp + 1e-9
        all_inside = r_build_max + bound < cutoff
        if (not all_inside and r_build_max > cutoff + 1e-9
                and bound < dead_bound):
            sel = r_build <= cutoff + bound
            if np.count_nonzero(sel) <= 0.9 * len(sel):
                i = i[sel]
                j = j[sel]
            else:
                dead_bound = bound
    table = prefilter(positions, i, j, lengths, periodic, cutoff,
                      inclusive=False, assume_inside=all_inside)
    return table, dead_bound


def _md_forces(n: int, types, table, r_min: float, banks,
               phi_index) -> tuple:
    """``EAMPotential.compute``'s fused path over the half ``table``:
    the forces (None: a pair under the cap, at 0 or NaN), and the ns of
    the density, embedding and pair_force phases."""
    clock = time.perf_counter_ns
    t1 = clock()
    i, j, rij, r = table
    rho_bank, embed_bank, phi_bank = banks
    typed = len(rho_bank[2]) > 1
    p = len(i)
    if p:
        r_lo = np.min(r)  # NaN if any is
        if not (r_lo >= r_min and r_lo > 0.0):
            return None, ()
        ti = types.take(i) if typed else 0
        tj = types.take(j) if typed else 0
        rho_bar, d_ji, d_ij = fused_density_pass(i, j, r, ti, tj, rho_bank, n)
    else:
        rho_bar = np.zeros(n, dtype=np.float64)
    t2 = clock()
    _, f_der = grouped_spline_eval(embed_bank, rho_bar, types if typed else 0)
    t3 = clock()
    if p:
        member = phi_index[ti, tj] if typed else 0
        _, forces = fused_force_pass(i, j, rij, r, f_der, d_ji, d_ij,
                                     phi_bank, member, n)
    else:
        forces = np.zeros((n, 3), dtype=np.float64)
    return forces, (t2 - t1, t3 - t2, clock() - t3)


# -- the lockstep wafer's list and its two sweeps --------------------------


def shift_rects(nx: int, ny: int, dx: int, dy: int):
    """``(dst, src)`` slice pairs of one offset's aligned shift.

    ``grid[src]`` lands on ``out[dst]`` (``out[x, y] = grid[x + dx,
    y + dy]``); tiles of ``out`` outside ``dst`` have no neighbor at
    this offset on the fabric.  ``None`` when the offset leaves the
    fabric entirely.
    """
    xs0, xs1 = max(dx, 0), nx + min(dx, 0)
    ys0, ys1 = max(dy, 0), ny + min(dy, 0)
    if xs0 >= xs1 or ys0 >= ys1:
        return None
    dst = (slice(xs0 - dx, xs1 - dx), slice(ys0 - dy, ys1 - dy))
    return dst, (slice(xs0, xs1), slice(ys0, ys1))


def _covers(
    pos: np.ndarray,
    occ: np.ndarray,
    held_pos: np.ndarray,
    held_occ: np.ndarray,
    bound2: float,
) -> bool:
    """Does a list built at ``(held_pos, held_occ)`` still cover
    ``(pos, occ)``?  The same occupancy plane, and every tile of the
    ``(nx, ny, 3)`` grid within ``sqrt(bound2)`` of its build-time
    position (empty tiles hold the same sentinel on both).  A NaN
    displacement compares False."""
    if not np.array_equal(occ, held_occ):
        return False
    moved = pos - held_pos
    moved2 = np.einsum("xyk,xyk->xy", moved, moved)
    return bool(moved2.max() < bound2)


def _wafer_list(
    pos: np.ndarray,
    occ: np.ndarray,
    offsets: np.ndarray,
    lengths,
    periodic,
    reach2: float,
    n_cand: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The wafer's list build: shift, then a coarse cut, per offset.

    For each ``(dx, dy)`` row of ``offsets`` every occupied tile of the
    ``(nx, ny)`` grid whose neighbor at the offset exists on the fabric
    receives one candidate, counted into the int32 ``n_cand`` plane;
    a pair of occupied tiles whose minimum-image ``r^2`` is under
    ``reach2`` is listed.  Returns int32 ``(starts, ctr, src)`` flat-tile
    rows, offset-major and tile-minor; ``starts[i]:starts[i + 1]`` are
    the rows of offset ``i``.

    The offsets pass one at a time through one reused contiguous
    ``(nx, ny, 3)`` displacement plane (the layout whose ``einsum``
    reduction order native.c's ``R2`` mirrors) and one ``(nx, ny)`` mask
    plane, so the scratch beside the outputs is O(grid) for any number
    of offsets.
    """
    nx, ny = occ.shape
    pairs = np.asarray(offsets).tolist()
    # The plane starts zeroed and is only ever written with finite
    # differences, so the tiles an offset does not reach hold finite
    # values (masked, never read).
    d = np.zeros((nx, ny, 3))
    within = np.empty((nx, ny), dtype=bool)
    cmp = np.empty((nx, ny), dtype=bool)
    r2 = np.empty((nx, ny))
    counts = np.zeros(len(pairs) + 1, dtype=np.int64)
    hits = [np.empty(0, dtype=np.int32)]
    for i, (dx, dy) in enumerate(pairs):
        rect = shift_rects(nx, ny, dx, dy)
        if rect is None:
            continue
        dst, src = rect
        within.fill(False)
        np.subtract(pos[src], pos[dst], out=d[dst])
        np.logical_and(occ[dst], occ[src], out=within[dst])
        n_cand[dst] += occ[dst]
        minimum_image(d.reshape(-1, 3), lengths, periodic)
        np.einsum("xyk,xyk->xy", d, d, out=r2)
        np.less(r2, reach2, out=cmp)
        within &= cmp
        hit = np.flatnonzero(within)
        counts[i + 1] = len(hit)
        hits.append(hit.astype(np.int32))
    ctr = np.concatenate(hits)
    del hits  # the per-offset pieces go before src is built
    shift = np.array([dx * ny + dy for dx, dy in pairs], dtype=np.int32)
    src = np.repeat(shift, counts[1:])
    src += ctr
    return np.cumsum(counts).astype(np.int32), ctr, src


def _wafer_density(
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
    """The wafer's density sweep over its listed pairs.

    ``listed`` is the :func:`_wafer_list` ``(starts, ctr, src)`` index
    rows (int32; ``starts[i]:starts[i + 1]`` are the rows of offset
    ``i``, in which every center and every source tile appears at most
    once).
    The one place a pair is admitted: gather ``pos[src] - pos[ctr]``,
    minimum image, keep ``0 < r^2 < cutoff^2``.  The survivors' ``rho``
    is added to the flat ``rho_flat`` one offset at a time, in exchange
    order — with ``symmetry`` every center share of the offset, then
    every partner share (the reverse reduction) — and their count to
    ``int_flat``.  Returns the survivor record ``(starts, ctr, src, r,
    unit, rho_d_src, rho_d_ctr, phi_member)`` for :func:`_wafer_force`;
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
    if len(rho_bank[2]) == 1:
        # one table: the partner's share is the same value
        vals, rho_d = grouped_spline_eval(rho_bank, r, 0)
        vals_ctr, rho_d_ctr, phi_member = vals, rho_d, 0
    else:
        src_t = typ_flat.take(src)
        ctr_t = typ_flat.take(ctr)
        vals, rho_d = grouped_spline_eval(rho_bank, r, src_t)
        vals_ctr, rho_d_ctr = grouped_spline_eval(rho_bank, r, ctr_t)
        phi_member = phi_index[ctr_t, src_t]
    for i in range(len(starts) - 1):
        s0, s1 = starts[i], starts[i + 1]
        if s0 == s1:
            continue
        rho_flat[ctr[s0:s1]] += vals[s0:s1]
        if symmetry:
            rho_flat[src[s0:s1]] += vals_ctr[s0:s1]
    return starts, ctr, src, r, unit, rho_d, rho_d_ctr, phi_member


def _wafer_force(
    record: tuple,
    f_der: np.ndarray,
    phi_bank: tuple,
    symmetry: bool,
    force_rows: np.ndarray,
    e_flat: np.ndarray | None = None,
) -> None:
    """The wafer's force sweep over the :func:`_wafer_density` record.

    Gathers the flat ``f_der`` (``F'``, the second exchange) at the
    recorded tiles, evaluates only ``phi`` and adds the Eq. 4 force to
    the ``(n_tiles, 3)`` ``force_rows`` one offset at a time; with
    ``symmetry`` the partner takes the negated share after every center
    of the offset has its own.  ``e_flat`` (optional) receives half the
    pair energy per member tile.
    """
    starts, ctr, src, r, unit, rho_d_src, rho_d_ctr, member = record
    phi_v, phi_d = grouped_spline_eval(phi_bank, r, member)
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


# -- the rest of the wafer's timestep -------------------------------------


def _leapfrog(
    pos_rows: np.ndarray,
    vel_rows: np.ndarray,
    force_rows: np.ndarray,
    occ_flat: np.ndarray,
    typ_flat: np.ndarray,
    masses: np.ndarray,
    dt: float,
) -> int:
    """The wafer's leap-frog update (Eq. 5) over the occupied tiles.

    ``accel = f / (m * MVV2E)``, ``v += accel * dt``, ``p += v * dt``
    into the ``(n_tiles, 3)`` ``pos_rows`` / ``vel_rows``, which are
    updated in place; empty tiles are never touched.  Returns how many
    of the coordinates written are not finite (the caller decides what
    that means).
    """
    # flat occupied-tile indices: one index array, ``take`` gathers,
    # integer-indexed row scatters
    tiles = np.flatnonzero(occ_flat)
    mass = masses.take(typ_flat.take(tiles))
    accel = force_rows.take(tiles, axis=0) / (mass[:, None] * MVV2E)
    vel = vel_rows.take(tiles, axis=0)
    vel += accel * dt
    vel_rows[tiles] = vel
    pos = pos_rows.take(tiles, axis=0)
    pos += vel * dt
    pos_rows[tiles] = pos
    return int(pos.size - np.count_nonzero(np.isfinite(pos)))


def _cycle_counts(
    occ_flat: np.ndarray,
    n_cand: np.ndarray,
    n_int: np.ndarray,
    exchange: float,
    c_cand: float,
    c_int: float,
    c_fixed: float,
    noise: np.ndarray | None = None,
    jitter: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One step's per-tile cycle counts from the tiles' work counts.

    An occupied tile costs ``((exchange + c_cand * n_cand) + c_int *
    n_int) + c_fixed`` (:meth:`~repro.core.cycle_model.CycleCostModel.
    step_cycles`), an empty one ``exchange + c_fixed``; with a ``noise``
    plane every tile is scaled by ``1 + jitter * noise``.  Returns the
    float64 cycles plane and the int32 candidate and interaction counts
    with the empty tiles zeroed.
    """
    cycles = exchange + c_cand * n_cand.astype(np.float64)
    cycles = cycles + c_int * n_int.astype(np.float64)
    cycles = np.where(occ_flat, cycles + c_fixed, exchange + c_fixed)
    if noise is not None:
        cycles = cycles * (1.0 + jitter * noise)
    cand = np.where(occ_flat, n_cand, 0).astype(np.int32)
    inter = np.where(occ_flat, n_int, 0).astype(np.int32)
    return cycles, cand, inter


#: The phases a :func:`wafer_step` times, in the order of
#: :attr:`WaferStep.phase_ns` (the lockstep machine's span names).
STEP_PHASES = ("neighbor", "exchange", "density", "embedding", "pair_force",
               "integrate", "cycle_account")


class WaferStep(NamedTuple):
    """What one :func:`wafer_step` call found and computed."""

    #: False: the list needed a build and a position is not finite;
    #: nothing else ran and every other field is empty
    ran: bool
    #: the step swept the list the tier held (else it built one)
    reused: bool
    n_cand: np.ndarray | None  # int32 (nx, ny): candidates per tile
    n_int: np.ndarray | None  # int64 (nx, ny): interactions per tile
    force: np.ndarray | None  # (nx, ny, 3)
    f_val: np.ndarray | None  # (nx, ny) embedding energy, with ``energy``
    e_pair: np.ndarray | None  # (nx, ny) pair energy, with ``energy``
    #: flat ``(cycles, cand, inter)`` of the cycle counter, with ``cost``
    cycles: tuple | None
    #: coordinates the leap-frog wrote that are not finite
    non_finite: int
    #: bytes of the survivor record's rows (it lives only in the call)
    record_nbytes: int
    #: the :data:`STEP_PHASES` that ran, in order
    phases: tuple
    #: nanoseconds per :data:`STEP_PHASES` entry (0 for one that did not run)
    phase_ns: tuple
    #: the threads the step ran on
    threads: int


def _phases(tested: bool, built: bool, integrated: bool,
            counted: bool) -> tuple:
    """The :data:`STEP_PHASES` a step with these parts runs."""
    ran = (tested, built, True, True, True, integrated, counted)
    return tuple(p for p, on in zip(STEP_PHASES, ran) if on)


def _refused(tested: bool, ns, threads: int = 1) -> WaferStep:
    return WaferStep(False, False, None, None, None, None, None, None, 0, 0,
                     ("neighbor",) if tested else (), tuple(ns), threads)


def _tiles(grid: np.ndarray, *tail: int) -> np.ndarray:
    """A flat-tile *view* of an (nx, ny, ...) grid."""
    if not grid.flags.c_contiguous:
        raise ValueError("wafer grids must be C-contiguous")
    return grid.reshape(-1, *tail)


def wafer_step(
    pos: np.ndarray,
    vel: np.ndarray,
    occ: np.ndarray,
    typ: np.ndarray,
    offsets: np.ndarray,
    lengths,
    periodic,
    reach2: float,
    bound2: float,
    cutoff: float,
    banks: tuple,
    phi_index: np.ndarray,
    symmetry: bool,
    *,
    masses: np.ndarray | None = None,
    dt: float = 0.0,
    cost: tuple | None = None,
    noise: np.ndarray | None = None,
    jitter: float = 0.0,
    energy: bool = False,
    scratch: dict | None = None,
) -> WaferStep:
    """One lockstep step of the ``(nx, ny)`` wafer, list test to cycle
    counter.

    ``scratch`` is a dict one caller hands every call (one grid, one
    set of ``offsets``, ``lengths``, ``periodic`` and ``reach2``); each
    tier keeps what it holds between that caller's calls in its own
    slot, ``scratch[name]``, and None keeps nothing.  This body holds
    only its list there, ``"list": (listed, pos, occ, n_cand)``.  The
    list is reused when it still covers the grids (:func:`_covers`: the
    same ``occ``, every tile within ``sqrt(bound2)`` of the ``pos`` it
    was built at) and dropped when it does not; then, unless a position
    is not finite, :func:`_wafer_list` builds one at ``reach2`` over
    ``offsets``, held only when ``bound2 > 0``.  Then
    :func:`_wafer_density` over the list with ``cutoff`` and the rho
    bank of ``banks = (rho, embed, phi)``, the embedding ``F`` and
    ``F'`` of every occupied tile (through its type when the bank has a
    member per type), and :func:`_wafer_force` with the phi bank.  With
    ``masses`` the occupied tiles' ``pos`` and ``vel`` take the
    leap-frog of step ``dt`` in place (:func:`_leapfrog`); with ``cost
    = (exchange, candidate, interaction, fixed)`` cycles, every tile is
    priced (:func:`_cycle_counts`, ``noise`` and ``jitter`` its timing
    noise); with ``energy`` the per-tile ``F`` and pair energy come back
    too.  The survivor record lives only in the call.
    """
    clock = time.perf_counter_ns
    ns = [0] * len(STEP_PHASES)
    t0 = clock()
    store = {} if scratch is None else scratch.setdefault(name, {})
    held = store.pop("list", None)  # back at the end: a raise holds none
    tested = held is not None
    reused = tested and _covers(pos, occ, held[1], held[2], bound2)
    t1 = clock()
    if tested:
        ns[0] = t1 - t0
    if reused:
        listed, n_cand = held[0], held[3]
    else:
        if not np.isfinite(pos).all():
            return _refused(tested, ns)
        n_cand = np.zeros(occ.shape, dtype=np.int32)
        listed = _wafer_list(pos, occ, offsets, lengths, periodic, reach2,
                            n_cand)
        held = ((listed, pos.copy(), occ.copy(), n_cand) if bound2 > 0.0
                else None)
        t0, t1 = t1, clock()
        ns[1] = t1 - t0
    rho_bank, embed_bank, phi_bank = banks
    rho = np.zeros(occ.shape)
    n_int = np.zeros(occ.shape, dtype=np.int64)
    record = _wafer_density(
        _tiles(pos, 3), listed, lengths, periodic, cutoff, _tiles(typ),
        rho_bank, phi_index, symmetry, _tiles(rho), _tiles(n_int),
    )
    t0, t1 = t1, clock()
    ns[2] = t1 - t0
    # at ~94% occupancy boolean indexing beats a ``flatnonzero`` index
    # with ``take`` and ``put``
    f_val = np.zeros(occ.shape)
    f_der = np.zeros(occ.shape)
    member = typ[occ] if len(embed_bank[2]) > 1 else 0
    f_val[occ], f_der[occ] = grouped_spline_eval(embed_bank, rho[occ], member)
    t0, t1 = t1, clock()
    ns[3] = t1 - t0
    force = np.zeros((*occ.shape, 3))
    e_pair = np.zeros(occ.shape) if energy else None
    _wafer_force(record, _tiles(f_der), phi_bank, symmetry, _tiles(force, 3),
                _tiles(e_pair) if energy else None)
    t0, t1 = t1, clock()
    ns[4] = t1 - t0
    non_finite = 0
    if masses is not None:
        non_finite = _leapfrog(_tiles(pos, 3), _tiles(vel, 3),
                               _tiles(force, 3), _tiles(occ), _tiles(typ),
                               masses, dt)
    t0, t1 = t1, clock()
    ns[5] = t1 - t0
    cycles = None
    if cost is not None:
        cycles = _cycle_counts(_tiles(occ), _tiles(n_cand), _tiles(n_int),
                               *cost, noise, jitter)
    ns[6] = clock() - t1
    if held is not None:
        store["list"] = held
    rows = record[1:6] if record[6] is record[5] else record[1:]
    return WaferStep(
        True, reused, n_cand, n_int, force, f_val if energy else None,
        e_pair, cycles, non_finite, sum(a.nbytes for a in rows),
        _phases(tested, not reused, masses is not None, cost is not None),
        tuple(ns), 1,
    )
