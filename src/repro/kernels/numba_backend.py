"""Optional numba-JIT kernels.

Importing this module raises :class:`ImportError` when :mod:`numba` is
not installed; the registry catches that and falls back to the numpy
backend.  The kernels are numerically identical to the numpy ones —
same Horner ordering, same accumulation order, no ``fastmath`` (so no
FMA contraction or reassociation) — and in practice agree bitwise on
the core primitives.  The equivalence suite gates every function at
1e-9 relative against numpy; bitwise identity is asserted only where
the scalar operation sequence provably matches (the scatter-add
accumulators).

The whole-pass kernels are what make this tier fast: one compiled loop
over the pair list with the packed-spline Horner evaluation inlined —
no boolean masks, no ``(P,)`` temporaries, no per-stage Python — the
software shape of the fully pipelined force datapaths in the FPGA MD
engines the roadmap references.

Call :func:`warmup` (via :func:`repro.kernels.warmup_backend`) to
compile everything up front; with ``NUMBA_CACHE_DIR`` set the compiled
artifacts persist across processes and the warm-up collapses to a
cache load.
"""

from __future__ import annotations

import numpy as np

import numba  # noqa: F401  (ImportError here triggers the registry fallback)
from numba import njit

name = "numba"


@njit(cache=True)
def _spline_eval(coeffs, k, dx):
    p = k.shape[0]
    val = np.empty(p, dtype=np.float64)
    der = np.empty(p, dtype=np.float64)
    for idx in range(p):
        row = coeffs[k[idx]]
        c1 = row[1]
        c2 = row[2]
        c3 = row[3]
        d = dx[idx]
        val[idx] = row[0] + d * (c1 + d * (c2 + d * c3))
        der[idx] = c1 + d * (2.0 * c2 + d * 3.0 * c3)
    return val, der


def spline_eval(coeffs, k, dx):
    """Cubic value and derivative from packed per-segment coefficients."""
    return _spline_eval(
        np.ascontiguousarray(coeffs),
        np.ascontiguousarray(k),
        np.ascontiguousarray(dx),
    )


@njit(cache=True)
def _accumulate_scalar(idx, weights, n):
    out = np.zeros(n, dtype=np.float64)
    for p in range(idx.shape[0]):
        out[idx[p]] += weights[p]
    return out


def accumulate_scalar(idx, weights, n):
    """Scatter-add scalar weights: ``out[idx[p]] += weights[p]``."""
    return _accumulate_scalar(
        np.ascontiguousarray(idx), np.ascontiguousarray(weights), n
    )


@njit(cache=True)
def _accumulate_vec3(idx, vectors, n):
    out = np.zeros((n, 3), dtype=np.float64)
    for p in range(idx.shape[0]):
        tgt = idx[p]
        out[tgt, 0] += vectors[p, 0]
        out[tgt, 1] += vectors[p, 1]
        out[tgt, 2] += vectors[p, 2]
    return out


def accumulate_vec3(idx, vectors, n):
    """Scatter-add (P, 3) vectors into an (n, 3) accumulator."""
    return _accumulate_vec3(
        np.ascontiguousarray(idx), np.ascontiguousarray(vectors), n
    )


# -- whole-pass fused kernels ---------------------------------------------


@njit(cache=True)
def _eval_point(coeffs, row0, x0, h, nseg, x_max, y_last,
                clamp_low, zero_above, xv, m):
    """One point through member spline ``m`` of a packed bank.

    The scalar twin of the numpy grouped evaluation: segment lookup,
    clamp/zero boundary handling, Horner value + derivative.
    """
    if zero_above and xv >= x_max[m]:
        return 0.0, 0.0
    if (not zero_above) and xv > x_max[m]:
        return y_last[m], 0.0
    x0m = x0[m]
    hm = h[m]
    k = int(np.floor((xv - x0m) / hm))
    if k < 0:
        k = 0
    last = nseg[m] - 1
    if k > last:
        k = last
    d = xv - (x0m + k * hm)
    if clamp_low and xv < x0m:
        d = 0.0
    row = coeffs[row0[m] + k]
    c1 = row[1]
    c2 = row[2]
    c3 = row[3]
    val = row[0] + d * (c1 + d * (c2 + d * c3))
    der = c1 + d * (2.0 * c2 + d * 3.0 * c3)
    return val, der


@njit(cache=True)
def _grouped_spline_eval(coeffs, row0, x0, h, nseg, x_max, y_last,
                         clamp_low, zero_above, x, g):
    p = x.shape[0]
    val = np.empty(p, dtype=np.float64)
    der = np.empty(p, dtype=np.float64)
    for q in range(p):
        v, d = _eval_point(coeffs, row0, x0, h, nseg, x_max, y_last,
                           clamp_low, zero_above, x[q], g[q])
        val[q] = v
        der[q] = d
    return val, der


def grouped_spline_eval(bank, x, member):
    """Batched multi-member spline evaluation through a packed bank."""
    coeffs, row0, x0, h, nseg, x_max, y_last, clamp_low, zero_above = bank
    x = np.ascontiguousarray(x, dtype=np.float64)
    g = np.ascontiguousarray(
        np.broadcast_to(np.asarray(member, dtype=np.int64), x.shape)
    )
    return _grouped_spline_eval(
        np.ascontiguousarray(coeffs), row0, x0, h, nseg, x_max, y_last,
        bool(clamp_low), bool(zero_above), x, g,
    )


@njit(cache=True)
def _neighbor_prefilter(positions, i, j, lengths, periodic, rmax,
                        inclusive, compute_r):
    p = i.shape[0]
    d = np.empty((p, 3), dtype=np.float64)
    r2 = np.empty(p, dtype=np.float64)
    keep = np.empty(p, dtype=np.bool_)
    rmax2 = rmax * rmax
    n_keep = 0
    for q in range(p):
        s = 0.0
        for ax in range(3):
            dd = positions[j[q], ax] - positions[i[q], ax]
            if periodic[ax]:
                ld = lengths[ax]
                dd -= ld * np.floor(dd / ld + 0.5)
            d[q, ax] = dd
            s += dd * dd
        r2[q] = s
        k = s <= rmax2 if inclusive else s < rmax2
        keep[q] = k
        if k:
            n_keep += 1
    oi = np.empty(n_keep, dtype=np.int64)
    oj = np.empty(n_keep, dtype=np.int64)
    n_geo = n_keep if compute_r else 0
    orij = np.empty((n_geo, 3), dtype=np.float64)
    orr = np.empty(n_geo, dtype=np.float64)
    w = 0
    for q in range(p):
        if keep[q]:
            oi[w] = i[q]
            oj[w] = j[q]
            if compute_r:
                orij[w, 0] = d[q, 0]
                orij[w, 1] = d[q, 1]
                orij[w, 2] = d[q, 2]
                orr[w] = np.sqrt(r2[q])
            w += 1
    return oi, oj, orij, orr


@njit(cache=True)
def _neighbor_geometry(positions, i, j, lengths, periodic):
    # the all-inside fast path: same per-pair arithmetic as
    # _neighbor_prefilter, no predicate and no compaction
    p = i.shape[0]
    orij = np.empty((p, 3), dtype=np.float64)
    orr = np.empty(p, dtype=np.float64)
    for q in range(p):
        s = 0.0
        for ax in range(3):
            dd = positions[j[q], ax] - positions[i[q], ax]
            if periodic[ax]:
                ld = lengths[ax]
                dd -= ld * np.floor(dd / ld + 0.5)
            orij[q, ax] = dd
            s += dd * dd
        orr[q] = np.sqrt(s)
    return orij, orr


def neighbor_prefilter(positions, i, j, lengths, periodic, rmax,
                       *, inclusive, compute_r, assume_inside=False):
    """Distance-filter candidate pairs at ``rmax`` (compiled loop).

    ``assume_inside=True`` trusts the caller's proof that every
    candidate passes (see the numpy backend's docstring): the compiled
    fast path computes the identical per-pair geometry and skips the
    predicate and compaction, emitting bitwise-identical values.
    """
    if assume_inside:
        i = np.ascontiguousarray(i, dtype=np.int64)
        j = np.ascontiguousarray(j, dtype=np.int64)
        if not compute_r:
            return (
                i, j,
                np.empty((0, 3), dtype=np.float64),
                np.empty(0, dtype=np.float64),
            )
        rij, r = _neighbor_geometry(
            np.ascontiguousarray(positions, dtype=np.float64),
            i, j,
            np.ascontiguousarray(lengths, dtype=np.float64),
            np.ascontiguousarray(periodic, dtype=np.bool_),
        )
        return i, j, rij, r
    return _neighbor_prefilter(
        np.ascontiguousarray(positions, dtype=np.float64),
        np.ascontiguousarray(i, dtype=np.int64),
        np.ascontiguousarray(j, dtype=np.int64),
        np.ascontiguousarray(lengths, dtype=np.float64),
        np.ascontiguousarray(periodic, dtype=np.bool_),
        float(rmax), bool(inclusive), bool(compute_r),
    )


@njit(cache=True)
def _fused_density_pass(i, j, r, ti, tj, coeffs, row0, x0, h, nseg,
                        x_max, y_last, clamp_low, zero_above, single,
                        n_atoms):
    p = i.shape[0]
    # Two accumulators filled in pair order, then summed elementwise:
    # exactly ``bincount(i, .) + bincount(j, .)`` — bitwise parity with
    # the numpy pass given identical per-pair values.
    acc_i = np.zeros(n_atoms, dtype=np.float64)
    acc_j = np.zeros(n_atoms, dtype=np.float64)
    d_ji = np.empty(p, dtype=np.float64)
    d_ij = np.empty(p, dtype=np.float64)
    for q in range(p):
        if single:
            v, d = _eval_point(coeffs, row0, x0, h, nseg, x_max, y_last,
                               clamp_low, zero_above, r[q], 0)
            acc_i[i[q]] += v
            acc_j[j[q]] += v
            d_ji[q] = d
            d_ij[q] = d
        else:
            v1, d1 = _eval_point(coeffs, row0, x0, h, nseg, x_max, y_last,
                                 clamp_low, zero_above, r[q], tj[q])
            v2, d2 = _eval_point(coeffs, row0, x0, h, nseg, x_max, y_last,
                                 clamp_low, zero_above, r[q], ti[q])
            acc_i[i[q]] += v1
            acc_j[j[q]] += v2
            d_ji[q] = d1
            d_ij[q] = d2
    return acc_i + acc_j, d_ji, d_ij


def fused_density_pass(i, j, r, ti, tj, rho_bank, n_atoms):
    """EAM stage 1 over a half pair list: one compiled density loop."""
    coeffs, row0, x0, h, nseg, x_max, y_last, clamp_low, zero_above = rho_bank
    return _fused_density_pass(
        np.ascontiguousarray(i, dtype=np.int64),
        np.ascontiguousarray(j, dtype=np.int64),
        np.ascontiguousarray(r, dtype=np.float64),
        np.ascontiguousarray(ti, dtype=np.int64),
        np.ascontiguousarray(tj, dtype=np.int64),
        np.ascontiguousarray(coeffs), row0, x0, h, nseg, x_max, y_last,
        bool(clamp_low), bool(zero_above), len(x0) == 1, n_atoms,
    )


@njit(cache=True)
def _fused_force_pass(i, j, rij, r, f_der, d_ji, d_ij, coeffs, row0,
                      x0, h, nseg, x_max, y_last, clamp_low, zero_above,
                      pm, n_atoms):
    p = i.shape[0]
    facc_i = np.zeros((n_atoms, 3), dtype=np.float64)
    facc_j = np.zeros((n_atoms, 3), dtype=np.float64)
    eacc_i = np.zeros(n_atoms, dtype=np.float64)
    eacc_j = np.zeros(n_atoms, dtype=np.float64)
    for q in range(p):
        phi_v, phi_d = _eval_point(coeffs, row0, x0, h, nseg, x_max,
                                   y_last, clamp_low, zero_above,
                                   r[q], pm[q])
        ia = i[q]
        ja = j[q]
        s = f_der[ia] * d_ji[q] + f_der[ja] * d_ij[q] + phi_d
        rq = r[q]
        for ax in range(3):
            f = s * (rij[q, ax] / rq)
            facc_i[ia, ax] += f
            facc_j[ja, ax] += f
        w = 0.5 * phi_v
        eacc_i[ia] += w
        eacc_j[ja] += w
    return eacc_i + eacc_j, facc_i - facc_j


def fused_force_pass(i, j, rij, r, f_der, d_ji, d_ij, phi_bank,
                     phi_member, n_atoms):
    """EAM stage 2 over a half pair list: one compiled force loop."""
    r = np.ascontiguousarray(r, dtype=np.float64)
    if np.any(r == 0.0):
        # the numpy pass raises out of its guarded unit-vector division;
        # a compiled loop would silently emit inf/nan instead
        raise FloatingPointError(
            "zero pair distance in fused_force_pass (coincident atoms)"
        )
    coeffs, row0, x0, h, nseg, x_max, y_last, clamp_low, zero_above = phi_bank
    pm = np.ascontiguousarray(
        np.broadcast_to(np.asarray(phi_member, dtype=np.int64), r.shape)
    )
    return _fused_force_pass(
        np.ascontiguousarray(i, dtype=np.int64),
        np.ascontiguousarray(j, dtype=np.int64),
        np.ascontiguousarray(rij, dtype=np.float64), r,
        np.ascontiguousarray(f_der, dtype=np.float64),
        np.ascontiguousarray(d_ji, dtype=np.float64),
        np.ascontiguousarray(d_ij, dtype=np.float64),
        np.ascontiguousarray(coeffs), row0, x0, h, nseg, x_max, y_last,
        bool(clamp_low), bool(zero_above), pm, n_atoms,
    )


def warmup() -> None:
    """Compile every kernel against tiny representative inputs.

    Invoked once per process via
    :func:`repro.kernels.warmup_backend`; with ``NUMBA_CACHE_DIR`` set
    the compiled artifacts persist and this collapses to a cache load.
    """
    coeffs = np.array(
        [[0.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.1, 0.01]], dtype=np.float64
    )
    k = np.array([0, 1], dtype=np.int64)
    dx = np.array([0.1, 0.2], dtype=np.float64)
    spline_eval(coeffs, k, dx)
    idx = np.array([0, 1], dtype=np.int64)
    accumulate_scalar(idx, dx, 2)
    accumulate_vec3(idx, np.ones((2, 3)), 2)
    bank = (
        coeffs,
        np.array([0, 1], dtype=np.int64),       # row0
        np.array([0.0, 0.0], dtype=np.float64),  # x0
        np.array([0.5, 0.5], dtype=np.float64),  # h
        np.array([1, 1], dtype=np.int64),        # nseg
        np.array([0.5, 0.5], dtype=np.float64),  # x_max
        np.array([1.0, 1.0], dtype=np.float64),  # y_last
        False, True,
    )
    x = np.array([0.1, 0.3], dtype=np.float64)
    grouped_spline_eval(bank, x, np.array([0, 1], dtype=np.int64))
    pos = np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0]], dtype=np.float64)
    ci = np.array([0], dtype=np.int64)
    cj = np.array([1], dtype=np.int64)
    lengths = np.ones(3, dtype=np.float64)
    periodic = np.zeros(3, dtype=np.bool_)
    neighbor_prefilter(pos, ci, cj, lengths, periodic, 1.0,
                       inclusive=True, compute_r=True)
    types = np.zeros(2, dtype=np.int64)
    _, d_ji, d_ij = fused_density_pass(
        ci, cj, np.array([0.3]), types[ci], types[cj], bank, 2
    )
    fused_force_pass(
        ci, cj, np.array([[0.3, 0.0, 0.0]]), np.array([0.3]),
        np.zeros(2), d_ji, d_ij, bank, 0, 2,
    )
