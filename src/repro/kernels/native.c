/* Native kernels: the registry's nine kernels as C99 loops.
 *
 * Built by native_backend.py with
 *   cc -O2 -fno-fast-math -ffp-contract=off -shared -fPIC
 * and called through ctypes.  Every function performs, per element, the
 * IEEE operations of its numpy body (numpy_backend.py) on the same
 * operands in the same order, so outputs are bitwise equal:
 *
 *  - r^2 is (x*x + z*z) + y*y: numpy's einsum reduces a length-3 axis
 *    in 128-bit lanes plus a tail, not left to right (R2 below);
 *  - a half-pair scatter is two accumulators added at the end, as
 *    bincount(i) + bincount(j) is -- never one fused accumulator;
 *  - within one wafer offset all centre shares land before all partner
 *    shares (with force symmetry a tile can be both in one offset);
 *  - no FMA contraction, no reassociation: floor, sqrt and divide are
 *    issued exactly where numpy issues them.
 *
 * A function returns >= 0 on success and -1 to *decline*: an index
 * outside [0, n), or geometry on which numpy would raise.  The caller
 * then runs the numpy body on the same arguments, which wraps, raises
 * IndexError or raises FloatingPointError exactly as it always has.
 * Caller-owned accumulators are only written after the indices passed.
 */
#include <math.h>
#include <stdint.h>

#define R2(x, y, z) (((x) * (x) + (z) * (z)) + (y) * (y))

/* A packed spline bank (SplineGroup.bank()); mirrors native_backend.Bank. */
typedef struct {
    const double *coeffs;  /* (n_rows, 4) */
    const int64_t *row0;
    const double *x0, *h;
    const int64_t *nseg;
    const double *x_max, *y_last;
    int64_t n_members, n_rows;
    int32_t clamp_low, zero_above;
} bank_t;

/* astype(int64) of a floored double; NaN and out-of-range go to
 * INT64_MIN as the x86 conversion numpy uses does. */
static inline int64_t to_i64(double t)
{
    if (t >= -9223372036854775808.0 && t < 9223372036854775808.0)
        return (int64_t)t;
    return INT64_MIN;
}

/* One cubic row: value and derivative in numpy_backend.spline_eval's order. */
static inline void horner(const double *c, double dx, double *val, double *der)
{
    *val = c[0] + dx * (c[1] + dx * (c[2] + dx * c[3]));
    *der = c[1] + dx * (2.0 * c[2] + dx * 3.0 * c[3]);
}

/* One point through member g (numpy_backend.grouped_spline_eval);
 * the wrapper has checked row0[g] + nseg[g] <= n_rows for every g. */
static inline void eval_point(const bank_t *b, double x, int64_t g,
                              double *val, double *der)
{
    double x0 = b->x0[g], h = b->h[g], xm = b->x_max[g];
    int64_t last = b->nseg[g] - 1;
    int64_t k = to_i64(floor((x - x0) / h));
    if (k < 0) k = 0;
    if (k > last) k = last;
    double dx = x - (x0 + (double)k * h);
    if (b->clamp_low && x < x0) dx = 0.0;
    horner(b->coeffs + 4 * (k + b->row0[g]), dx, val, der);
    if (b->zero_above ? x >= xm : x > xm) {
        *val = b->zero_above ? 0.0 : b->y_last[g];
        *der = 0.0;
    }
}

static inline int bad(int64_t idx, int64_t n) { return idx < 0 || idx >= n; }

static int bad_any(const int64_t *idx, int64_t p, int64_t n)
{
    for (int64_t q = 0; q < p; q++)
        if (bad(idx[q], n)) return 1;
    return 0;
}

/* Minimum image of one separation, Box.minimum_image's floor rule. */
static inline void min_image(double *d, const double *lengths,
                             const uint8_t *periodic)
{
    for (int k = 0; k < 3; k++)
        if (periodic[k]) {
            double ld = lengths[k];
            d[k] -= ld * floor(d[k] / ld + 0.5);
        }
}

/* Minimum-image separation of atoms (tiles) a -> c into d; returns r^2. */
static inline double separation(const double *pos, int64_t at, int64_t from,
                                const double *lengths,
                                const uint8_t *periodic, double *d)
{
    const double *a = pos + 3 * at, *c = pos + 3 * from;
    for (int k = 0; k < 3; k++) d[k] = c[k] - a[k];
    min_image(d, lengths, periodic);
    return R2(d[0], d[1], d[2]);
}

int64_t spline_eval(const double *coeffs, int64_t n_rows, const int64_t *k,
                    const double *dx, int64_t p, double *val, double *der)
{
    for (int64_t q = 0; q < p; q++) {
        if (bad(k[q], n_rows)) return -1;
        horner(coeffs + 4 * k[q], dx[q], val + q, der + q);
    }
    return 0;
}

/* (An empty scatter is declined: numpy's bincount of nothing is int64
 * zeros, weights or not, and that is numpy's to say.) */
int64_t accumulate_scalar(const int64_t *idx, const double *w, int64_t p,
                          int64_t n, double *out)
{
    if (p == 0 || bad_any(idx, p, n)) return -1;
    for (int64_t q = 0; q < p; q++) out[idx[q]] += w[q];
    return 0;
}

int64_t accumulate_vec3(const int64_t *idx, const double *v, int64_t p,
                        int64_t n, double *out)
{
    if (bad_any(idx, p, n)) return -1;
    for (int64_t q = 0; q < p; q++) {
        double *o = out + 3 * idx[q];
        o[0] += v[3 * q];
        o[1] += v[3 * q + 1];
        o[2] += v[3 * q + 2];
    }
    return 0;
}

/* member == NULL evaluates the batch through member g0. */
int64_t grouped_spline_eval(const bank_t *b, const double *x,
                            const int64_t *member, int64_t g0, int64_t p,
                            double *val, double *der)
{
    if (member ? bad_any(member, p, b->n_members) : bad(g0, b->n_members))
        return -1;
    for (int64_t q = 0; q < p; q++)
        eval_point(b, x[q], member ? member[q] : g0, val + q, der + q);
    return 0;
}

/* Returns the number of rows kept (compacted into the outputs). */
int64_t neighbor_prefilter(const double *pos, int64_t n_atoms,
                           const int64_t *i, const int64_t *j, int64_t p,
                           const double *lengths, const uint8_t *periodic,
                           double rmax2, int64_t inclusive, int64_t compute_r,
                           int64_t assume_inside, int64_t *oi, int64_t *oj,
                           double *orij, double *orr)
{
    int64_t w = 0;
    for (int64_t q = 0; q < p; q++) {
        if (bad(i[q], n_atoms) || bad(j[q], n_atoms)) return -1;
        double d[3];
        double r2 = separation(pos, i[q], j[q], lengths, periodic, d);
        if (!assume_inside) {
            if (!(inclusive ? r2 <= rmax2 : r2 < rmax2)) continue;
            oi[w] = i[q];
            oj[w] = j[q];
        }
        if (compute_r) {
            orij[3 * w] = d[0];
            orij[3 * w + 1] = d[1];
            orij[3 * w + 2] = d[2];
            orr[w] = sqrt(r2);
        }
        w++;
    }
    return w;
}

/* ti == NULL: one table, both directions share the value.  acc_i
 * (returned as rho_bar) and acc_j arrive zeroed. */
int64_t fused_density_pass(const int64_t *i, const int64_t *j,
                           const double *r, int64_t p, const int64_t *ti,
                           const int64_t *tj, const bank_t *b,
                           int64_t n_atoms, double *acc_i, double *acc_j,
                           double *d_ji, double *d_ij)
{
    if (p == 0 || bad_any(i, p, n_atoms) || bad_any(j, p, n_atoms)) return -1;
    if (ti && (bad_any(ti, p, b->n_members) || bad_any(tj, p, b->n_members)))
        return -1;
    for (int64_t q = 0; q < p; q++) {
        double v_ji, v_ij;
        eval_point(b, r[q], ti ? tj[q] : 0, &v_ji, d_ji + q);
        if (ti)
            eval_point(b, r[q], ti[q], &v_ij, d_ij + q);
        else
            v_ij = v_ji;
        acc_i[i[q]] += v_ji;
        acc_j[j[q]] += v_ij;
    }
    for (int64_t a = 0; a < n_atoms; a++) acc_i[a] += acc_j[a];
    return 0;
}

/* f_i (returned as the forces) / f_j and e_i (returned as e_pair) /
 * e_j arrive zeroed.  Declines where the numpy unit-vector division
 * could raise (r == 0) or on non-finite geometry. */
int64_t fused_force_pass(const int64_t *i, const int64_t *j,
                         const double *rij, const double *r, int64_t p,
                         const double *f_der, const double *d_ji,
                         const double *d_ij, const bank_t *phi,
                         const int64_t *member, int64_t g0, int64_t n_atoms,
                         double *f_i, double *f_j, double *e_i, double *e_j)
{
    if (p == 0 || bad_any(i, p, n_atoms) || bad_any(j, p, n_atoms)) return -1;
    if (member ? bad_any(member, p, phi->n_members) : bad(g0, phi->n_members))
        return -1;
    for (int64_t q = 0; q < p; q++) {
        const double *d = rij + 3 * q;
        if (r[q] == 0.0 || !isfinite(r[q]) || !isfinite(d[0] + d[1] + d[2]))
            return -1;
    }
    for (int64_t q = 0; q < p; q++) {
        double phi_v, phi_d;
        eval_point(phi, r[q], member ? member[q] : g0, &phi_v, &phi_d);
        int64_t a = i[q], c = j[q];
        double s = f_der[a] * d_ji[q] + f_der[c] * d_ij[q] + phi_d;
        for (int k = 0; k < 3; k++) {
            double w = s * (rij[3 * q + k] / r[q]);
            f_i[3 * a + k] += w;
            f_j[3 * c + k] += w;
        }
        double half = 0.5 * phi_v;
        e_i[a] += half;
        e_j[c] += half;
    }
    for (int64_t a = 0; a < 3 * n_atoms; a++) f_i[a] -= f_j[a];
    for (int64_t a = 0; a < n_atoms; a++) e_i[a] += e_j[a];
    return 0;
}

/* How many of a chunk's n listed pairs survive 0 < r^2 < cutoff2: sizes
 * density_chunk's record, and checks the indices it will trust. */
int64_t density_count(const double *pos, int64_t n_tiles, const int32_t *ctr,
                      const int32_t *src, int64_t n, const double *lengths,
                      const uint8_t *periodic, double cutoff2)
{
    int64_t kept = 0;
    double d[3];
    for (int64_t q = 0; q < n; q++) {
        if (bad(ctr[q], n_tiles) || bad(src[q], n_tiles)) return -1;
        double r2 = separation(pos, ctr[q], src[q], lengths, periodic, d);
        kept += r2 < cutoff2 && r2 > 0.0;
    }
    return kept;
}

/* The wafer's density sweep over one chunk of listed pairs
 * (numpy_backend.density_chunk), after density_count has passed its
 * indices.  Rows starts[i]:starts[i+1] belong to the chunk's i-th
 * offset.  Survivors are written, compacted, to the o_* record arrays;
 * o_starts gets their per-offset bounds.  typ == NULL means one table.
 * share is scratch for one offset's partner values.  Returns the
 * survivor count. */
int64_t density_chunk(const double *pos, int64_t n_tiles,
                      const int32_t *starts, int64_t n_off,
                      const int32_t *ctr, const int32_t *src,
                      const double *lengths, const uint8_t *periodic,
                      double cutoff2, const int64_t *typ, const bank_t *rho,
                      const int64_t *phi_index, int64_t symmetry,
                      double *rho_flat, int64_t *int_flat, int64_t *o_starts,
                      int32_t *o_ctr, int32_t *o_src, double *o_r,
                      double *o_unit, double *o_d_src, double *o_d_ctr,
                      int64_t *o_member, double *share)
{
    int64_t nt = rho->n_members, w = 0;
    if (typ && bad_any(typ, n_tiles, nt)) return -1;
    for (int64_t o = 0; o < n_off; o++) {
        int64_t w0 = w;
        o_starts[o] = w;
        for (int64_t q = starts[o]; q < starts[o + 1]; q++) {
            int64_t at = ctr[q], from = src[q];
            double d[3], val;
            double r2 = separation(pos, at, from, lengths, periodic, d);
            if (!(r2 < cutoff2 && r2 > 0.0)) continue;
            double r = sqrt(r2);
            o_ctr[w] = (int32_t)at;
            o_src[w] = (int32_t)from;
            o_r[w] = r;
            for (int k = 0; k < 3; k++) o_unit[3 * w + k] = d[k] / r;
            eval_point(rho, r, typ ? typ[from] : 0, &val, o_d_src + w);
            if (typ) {
                eval_point(rho, r, typ[at], share + (w - w0), o_d_ctr + w);
                o_member[w] = phi_index[typ[at] * nt + typ[from]];
            } else if (symmetry) {
                share[w - w0] = val;
            }
            int_flat[at] += 1;
            rho_flat[at] += val;
            w++;
        }
        if (symmetry)  /* reverse reduction: the partner's density share */
            for (int64_t q = w0; q < w; q++) rho_flat[o_src[q]] += share[q - w0];
    }
    o_starts[n_off] = w;
    return w;
}

/* The wafer's force sweep over one survivor record
 * (numpy_backend.force_chunk).  d_ctr == d_src and member == NULL
 * (every row through table g0) for one table.  e_flat == NULL skips the pair energy; with symmetry
 * e_both is a zeroed n_tiles plane on which an offset's centre and
 * partner halves meet before they join e_flat (one rounding per tile
 * per offset, the whole plane added as numpy adds it).  fvec is
 * scratch for one offset's (rows, 3) force vectors. */
int64_t force_chunk(const int64_t *starts, int64_t n_off, const int32_t *ctr,
                    const int32_t *src, const double *r, const double *unit,
                    const double *d_src, const double *d_ctr,
                    const int64_t *member, int64_t g0, const bank_t *phi,
                    const double *f_der, int64_t n_tiles, int64_t symmetry,
                    double *force, double *e_flat, double *e_both,
                    double *fvec)
{
    int64_t n = starts[n_off];
    for (int64_t q = 0; q < n; q++)
        if (bad(ctr[q], n_tiles) || bad(src[q], n_tiles)) return -1;
    if (member ? bad_any(member, n, phi->n_members) : bad(g0, phi->n_members))
        return -1;
    for (int64_t o = 0; o < n_off; o++) {
        int64_t s0 = starts[o], s1 = starts[o + 1];
        if (s0 == s1) continue;
        for (int64_t q = s0; q < s1; q++) {
            int64_t at = ctr[q], partner = src[q];
            double phi_v, phi_d;
            eval_point(phi, r[q], member ? member[q] : g0, &phi_v, &phi_d);
            double s = f_der[at] * d_src[q] + f_der[partner] * d_ctr[q] + phi_d;
            double *f = fvec + 3 * (q - s0);
            for (int k = 0; k < 3; k++) {
                f[k] = s * unit[3 * q + k];
                force[3 * at + k] += f[k];
            }
            if (!e_flat) continue;
            if (symmetry)
                e_both[at] = 0.5 * phi_v;
            else
                e_flat[at] += 0.5 * phi_v;
        }
        if (!symmetry) continue;
        for (int64_t q = s0; q < s1; q++) {  /* the partner's negated share */
            double *f = fvec + 3 * (q - s0);
            for (int k = 0; k < 3; k++) force[3 * src[q] + k] -= f[k];
        }
        if (!e_flat) continue;
        for (int64_t q = s0; q < s1; q++) {
            double phi_v, phi_d;
            eval_point(phi, r[q], member ? member[q] : g0, &phi_v, &phi_d);
            e_both[src[q]] += 0.5 * phi_v;
        }
        for (int64_t t = 0; t < n_tiles; t++) e_flat[t] += e_both[t];
        for (int64_t q = s0; q < s1; q++) e_both[ctr[q]] = e_both[src[q]] = 0.0;
    }
    return n;
}
