/* Native kernels: the registry's seven kernels as C99 loops -- the cell
 * sweep of a reference-engine list rebuild (cell_pairs), the four pair
 * kernels of the reference engine, its steps with their Verlet list
 * (md_step: list test, list build or prefilter, density, embedding,
 * force and leap-frog, in one call), and the lockstep wafer's whole step
 * (wafer_step: list test, list build, both sweeps with the embedding
 * between them, leap-frog and cycle counter, in one call).
 *
 * Built by native_backend.py with its FLAGS,
 *   cc -O3 -march=native -fno-fast-math -ffp-contract=off
 *      -fno-math-errno -fno-trapping-math -pthread -shared -fPIC
 * for the CPU it runs on, and called through ctypes.  Every function
 * performs, per element, the IEEE operations of its numpy body
 * (numpy_backend.py) on the same operands in the same order, so outputs
 * are bitwise equal:
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
 * Caller-owned accumulators and state are only written after the
 * indices passed.  No function allocates: outputs of unknown length
 * arrive at their upper bound and the caller shrinks them, and scratch
 * comes from the caller.
 *
 * wafer_step runs on a team of threads in owner blocks (see "owner
 * blocks" below); every other function runs on the calling thread.
 * Every pair kernel's loops, md_step's and wafer_step's are chunked
 * passes (see "chunked passes" below); the cell sweep (sweep_cells)
 * walks its blocks a row at a time.
 */
#define _GNU_SOURCE  /* sched_getcpu, the sweep threads' CPU affinity */
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

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
    int in = t >= -9223372036854775808.0 && t < 9223372036854775808.0;
    int64_t k = (int64_t)(in ? t : 0.0);
    return in ? k : INT64_MIN;
}

/* The cubic whose four coefficients start at c[r]: value and
 * derivative in numpy_backend._horner's order. */
static inline void horner(const double *c, int64_t r, double dx, double *val,
                          double *der)
{
    double c0 = c[r], c1 = c[r + 1], c2 = c[r + 2], c3 = c[r + 3];
    *val = c0 + dx * (c1 + dx * (c2 + dx * c3));
    *der = c1 + dx * (2.0 * c2 + dx * 3.0 * c3);
}

/* One point through member g (numpy_backend.grouped_spline_eval), the
 * only spline evaluator; one table is member 0.  Branch free: every
 * load is made, the segment clamp and the boundary fix-ups are
 * selects, so a pass of evaluations has no control flow and
 * vectorises.  The wrapper has checked row0[g] + nseg[g] <= n_rows
 * for every g. */
static inline void eval_point(const bank_t *b, double x, int64_t g,
                              double *val, double *der)
{
    double x0 = b->x0[g], h = b->h[g], xm = b->x_max[g], top = b->y_last[g];
    int64_t last = b->nseg[g] - 1, row = b->row0[g], k;
    double v, d;
    k = to_i64(floor((x - x0) / h));
    k = k < 0 ? 0 : k;
    k = k > last ? last : k;
    double dx = x - (x0 + (double)k * h);
    dx = b->clamp_low & (x < x0) ? 0.0 : dx;
    horner(b->coeffs, 4 * (k + row), dx, &v, &d);
    /* above: x >= x_max with zero_above, else x > x_max */
    int above = (x > xm) | (b->zero_above & (x == xm));
    top = b->zero_above ? 0.0 : top;
    *val = above ? top : v;
    *der = above ? 0.0 : d;
}

static inline int bad(int64_t idx, int64_t n) { return idx < 0 || idx >= n; }

static int bad_any(const int64_t *idx, int64_t p, int64_t n)
{
    for (int64_t q = 0; q < p; q++)
        if (bad(idx[q], n)) return 1;
    return 0;
}

/* -- chunked passes -----------------------------------------------------
 *
 * A chunked pass takes CHUNK rows at a time through passes without
 * control flow in their bodies (separations and r^2, a branch-free
 * compaction of the rows that pass a cut, spline evaluations, force
 * terms), then makes the chunk's additions into the per-atom (per-tile)
 * accumulators in row order.  Each row's operations and each
 * accumulator's additions are a one-loop walk's, in its order, so a
 * chunk changes no bit; but a pass's rows are independent, so the CPU
 * overlaps them and the compiler vectorises the arithmetic.  A chunk's
 * buffers stay in L1.  The reference engine's passes (spline_pass,
 * prefilter, density_pass, force_pass) are one body each, which the
 * per-call kernels and md_step both run, with one member helper
 * (members); separations are md_step's columns (cols > 0: three
 * columns cols apart) or the per-call kernels' (p, 3) rows (cols == 0),
 * which force_pass copies into L1 columns before its arithmetic.
 */
#define CHUNK 256

/* eval_point over n points x[i] through members g[i]; out of line, so
 * the compiler sees its restrict arguments and vectorises the loop. */
__attribute__((noinline))
static void eval_rows(const bank_t *b, int64_t n, const double *restrict x,
                      const int64_t *restrict g, double *restrict val,
                      double *restrict der)
{
    for (int64_t i = 0; i < n; i++)
        eval_point(b, x[i], g[i], val + i, der + i);
}

/* The bank member of a pass's row q with atoms a and b: row[q], else
 * pair[typ[a] * nt + typ[b]], else typ[a], else g0. */
typedef struct {
    const int64_t *row, *typ, *pair;
    int64_t nt, g0;
} member_t;

/* g[s] of the n rows from row q0, whose atoms are a[s] and b[s]. */
static void members(int64_t *restrict g, const member_t *src, int64_t q0,
                    const int64_t *restrict a, const int64_t *restrict b,
                    int64_t n)
{
    if (src->row)
        memcpy(g, src->row + q0, 8 * (size_t)n);
    else if (src->pair)
        for (int64_t s = 0; s < n; s++)
            g[s] = src->pair[src->typ[a[s]] * src->nt + src->typ[b[s]]];
    else if (src->typ)
        for (int64_t s = 0; s < n; s++) g[s] = src->typ[a[s]];
    else
        for (int64_t s = 0; s < n; s++) g[s] = src->g0;
}

/* numpy_backend.grouped_spline_eval of the p points x, point q through
 * src's row q; val == NULL keeps no values. */
static void spline_pass(const bank_t *b, member_t src, const double *x,
                        int64_t p, double *val, double *der)
{
    int64_t g[CHUNK];
    double v[CHUNK];
    for (int64_t q0 = 0; q0 < p; q0 += CHUNK) {
        int64_t n = p - q0 < CHUNK ? p - q0 : CHUNK;
        members(g, &src, q0, NULL, NULL, n);
        eval_rows(b, n, x + q0, g, val ? val + q0 : v, der + q0);
    }
}

/* numpy_backend.neighbor_prefilter of the candidate rows (i, j): a
 * measured row's minimum-image separation (Box.minimum_image's floor
 * rule) and r^2, kept at r^2 < rmax2, at r^2 <= rmax2 (inclusive) or
 * always (inside: the caller proved every row passes).  With r_build,
 * a row whose r_build is over lim is not measured (the pre-mask).  Every
 * measured row is written at the next output row, which only a kept
 * one advances: oi/oj (when not NULL), the separations d (cols) and r.
 * Returns the rows kept. */
static int64_t prefilter(const double *pos, const int64_t *i,
                         const int64_t *j, int64_t p, const double *lengths,
                         const uint8_t *periodic, const double *r_build,
                         double lim, double rmax2, int64_t inclusive,
                         int64_t inside, int64_t *oi, int64_t *oj, double *d,
                         int64_t cols, double *r)
{
    int64_t rows[CHUNK], w = 0;
    const int64_t sq = cols ? 1 : 3, sk = cols ? cols : 1;
    for (int64_t q0 = 0; q0 < p; q0 += CHUNK) {
        int64_t n = p - q0 < CHUNK ? p - q0 : CHUNK, m = r_build ? 0 : n;
        for (int64_t q = q0; r_build && q < q0 + n; q++) {
            rows[m] = q;
            m += r_build[q] <= lim;
        }
        for (int64_t s = 0; s < m; s++) {
            int64_t q = r_build ? rows[s] : q0 + s, a = i[q], b = j[q];
            double dc[3];
            for (int k = 0; k < 3; k++) {
                dc[k] = pos[3 * b + k] - pos[3 * a + k];
                if (periodic[k])
                    dc[k] -= lengths[k] * floor(dc[k] / lengths[k] + 0.5);
            }
            double r2 = R2(dc[0], dc[1], dc[2]);
            if (oi) {
                oi[w] = a;
                oj[w] = b;
            }
            for (int k = 0; k < 3; k++) d[w * sq + k * sk] = dc[k];
            r[w] = sqrt(r2);
            w += inside | (r2 < rmax2) | (inclusive & (r2 == rmax2));
        }
    }
    return w;
}

/* numpy_backend.fused_density_pass of p rows: rho_bar into acc_i (acc_j
 * is scratch), through ji's member for j's density at i and ij's for
 * i's at j; ij == NULL (one table) evaluates once and both directions
 * share the value (d_ij unwritten). */
static void density_pass(const int64_t *i, const int64_t *j, const double *r,
                         int64_t p, const member_t *ji, const member_t *ij,
                         const bank_t *rho, int64_t n, double *acc_i,
                         double *acc_j, double *d_ji, double *d_ij)
{
    int64_t g[CHUNK];
    double v_ji[CHUNK], v_ij[CHUNK];
    const double *v = ij ? v_ij : v_ji;
    memset(acc_i, 0, 8 * (size_t)n);
    memset(acc_j, 0, 8 * (size_t)n);
    for (int64_t q0 = 0; q0 < p; q0 += CHUNK) {
        int64_t c = p - q0 < CHUNK ? p - q0 : CHUNK;
        members(g, ji, q0, j + q0, NULL, c);
        eval_rows(rho, c, r + q0, g, v_ji, d_ji + q0);
        if (ij) {
            members(g, ij, q0, i + q0, NULL, c);
            eval_rows(rho, c, r + q0, g, v_ij, d_ij + q0);
        }
        for (int64_t s = 0; s < c; s++) {
            acc_i[i[q0 + s]] += v_ji[s];
            acc_j[j[q0 + s]] += v[s];
        }
    }
    for (int64_t a = 0; a < n; a++) acc_i[a] += acc_j[a];
}

/* numpy_backend.fused_force_pass of p rows with separations d (cols):
 * the forces into f_i (f_j is scratch) and e_pair into e_i (e_j is
 * scratch; e_i == NULL skips the pair energy). */
static void force_pass(const int64_t *i, const int64_t *j, const double *d,
                       int64_t cols, const double *r, int64_t p,
                       const double *f_der, const double *d_ji,
                       const double *d_ij, const bank_t *phi,
                       const member_t *member, int64_t n, double *f_i,
                       double *f_j, double *e_i, double *e_j)
{
    int64_t g[CHUNK];
    double phi_v[CHUNK], phi_d[CHUNK], w[3][CHUNK], dc[3][CHUNK];
    memset(f_i, 0, 24 * (size_t)n);
    memset(f_j, 0, 24 * (size_t)n);
    for (int64_t a = 0; e_i && a < n; a++) e_i[a] = e_j[a] = 0.0;
    for (int64_t q0 = 0; q0 < p; q0 += CHUNK) {
        int64_t c = p - q0 < CHUNK ? p - q0 : CHUNK;
        const int64_t *a = i + q0, *b = j + q0;
        const double *dk[3];
        members(g, member, q0, a, b, c);
        eval_rows(phi, c, r + q0, g, phi_v, phi_d);
        for (int k = 0; k < 3; k++) {
            dk[k] = cols ? d + k * cols + q0 : dc[k];
            for (int64_t s = 0; !cols && s < c; s++)
                dc[k][s] = d[3 * (q0 + s) + k];
        }
        for (int64_t s = 0; s < c; s++) {
            double sc = f_der[a[s]] * d_ji[q0 + s] + f_der[b[s]] * d_ij[q0 + s]
                        + phi_d[s];
            for (int k = 0; k < 3; k++)
                w[k][s] = sc * (dk[k][s] / r[q0 + s]);
        }
        for (int64_t s = 0; s < c; s++)
            for (int k = 0; k < 3; k++) {
                f_i[3 * a[s] + k] += w[k][s];
                f_j[3 * b[s] + k] += w[k][s];
            }
        for (int64_t s = 0; e_i && s < c; s++) {
            e_i[a[s]] += 0.5 * phi_v[s];
            e_j[b[s]] += 0.5 * phi_v[s];
        }
    }
    for (int64_t c = 0; c < 3 * n; c++) f_i[c] -= f_j[c];
    for (int64_t a = 0; e_i && a < n; a++) e_i[a] += e_j[a];
}

/* -- the per-call pair kernels: each declines what its numpy body
 * would refuse, before it writes anything, then runs its pass.  (The
 * density and force kernels decline an empty list: numpy's bincount of
 * nothing is int64 zeros, weights or not, and that is numpy's to say.) */

/* member == NULL evaluates the batch through member g0. */
int64_t grouped_spline_eval(const bank_t *b, const double *x,
                            const int64_t *member, int64_t g0, int64_t p,
                            double *val, double *der)
{
    if (member ? bad_any(member, p, b->n_members) : bad(g0, b->n_members))
        return -1;
    spline_pass(b, (member_t){.row = member, .g0 = g0}, x, p, val, der);
    return 0;
}

/* Returns the number of rows kept (with assume_inside every row, and
 * oi/oj are not written). */
int64_t neighbor_prefilter(const double *pos, int64_t n_atoms,
                           const int64_t *i, const int64_t *j, int64_t p,
                           const double *lengths, const uint8_t *periodic,
                           double rmax2, int64_t inclusive,
                           int64_t assume_inside, int64_t *oi, int64_t *oj,
                           double *orij, double *orr)
{
    if (bad_any(i, p, n_atoms) || bad_any(j, p, n_atoms)) return -1;
    return prefilter(pos, i, j, p, lengths, periodic, NULL, 0.0, rmax2,
                     inclusive, assume_inside, oi, oj, orij, 0, orr);
}

/* ti == NULL: one table.  rho_bar is returned in acc_i. */
int64_t fused_density_pass(const int64_t *i, const int64_t *j,
                           const double *r, int64_t p, const int64_t *ti,
                           const int64_t *tj, const bank_t *b,
                           int64_t n_atoms, double *acc_i, double *acc_j,
                           double *d_ji, double *d_ij)
{
    if (p == 0 || bad_any(i, p, n_atoms) || bad_any(j, p, n_atoms)) return -1;
    if (ti && (bad_any(ti, p, b->n_members) || bad_any(tj, p, b->n_members)))
        return -1;
    density_pass(i, j, r, p, &(member_t){.row = tj},
                 ti ? &(member_t){.row = ti} : NULL, b, n_atoms, acc_i,
                 acc_j, d_ji, d_ij);
    return 0;
}

/* The forces are returned in f_i and e_pair in e_i.  Declines where the
 * numpy unit-vector division could raise (r == 0) or on non-finite
 * geometry. */
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
    force_pass(i, j, rij, 0, r, p, f_der, d_ji, d_ij, phi,
               &(member_t){.row = member, .g0 = g0}, n_atoms, f_i, f_j, e_i,
               e_j);
    return 0;
}

/* -- the cell sweep -------------------------------------------------------
 *
 * cell_pairs is numpy_backend.cell_pairs: a cell plan's half-stencil
 * stream (numpy_backend.cell_blocks) cut at r2 <= r2_max, the same pairs
 * in the same order.  The numpy body walks offsets, then slots; slots
 * ascend by cell, so offsets, then cells, then each cell's slots is the
 * same walk, and the partners of a (slot, neighbour cell) block are that
 * cell's contiguous slots.  The walk relies on the plan being a plan
 * (slots ascending by cell, starts the prefix sums of counts, coords the
 * cell id unravelled), so it checks that first and declines otherwise.
 */

/* d - L*floor(d/L + 0.5) is exactly d when |d| <= L/4: floor is 0 there
 * and d - L*0.0 is d, so a row that does not wrap skips the division.
 * q = L/4 along a periodic dim and +inf along an open one, which has no
 * wrap in the numpy body either. */
static inline double nearest(double d, double L, double q)
{
    return fabs(d) > q ? d - L * floor(d / L + 0.5) : d;
}

/* Cell v + delta along an axis of n cells: wrapped, or -1 off an open
 * edge. */
static inline int64_t shifted(int64_t v, int64_t n, int wraps)
{
    if (wraps) {
        v %= n;
        return v < 0 ? v + n : v;
    }
    return v >= 0 && v < n ? v : -1;
}

typedef struct {
    const double *x, *y, *z;  /* the cell-sorted coordinate columns */
    const int64_t *order;     /* slot -> atom id */
    double L[3], q[3], r2_max;
    int64_t cap, w;           /* output rows: bound, kept (may pass cap) */
    int64_t *oi, *oj;
} sweep_t;

/* A sweep of the n slots of cols at r2_max into (oi, oj) at cap rows;
 * 0, or -1 for a periodic length numpy's formula would not treat as a
 * length. */
static int sweep_init(sweep_t *S, const double *cols, int64_t n,
                      const int64_t *order, const uint8_t *periodic,
                      const double *lengths, double r2_max, int64_t cap,
                      int64_t *oi, int64_t *oj)
{
    *S = (sweep_t){cols, cols + n, cols + 2 * n, order, {1.0, 1.0, 1.0},
                   {INFINITY, INFINITY, INFINITY}, r2_max, cap, 0, oi, oj};
    for (int k = 0; k < 3; k++)
        if (periodic[k]) {
            if (!(lengths[k] > 0.0 && isfinite(lengths[k]))) return -1;
            S->L[k] = lengths[k];
            S->q[k] = 0.25 * lengths[k];
        }
    return 0;
}

/* Slot a against slots [t0, t1): the survivors are counted, and written
 * while the outputs have room. */
static void sweep_block(sweep_t *S, int64_t a, int64_t t0, int64_t t1)
{
    const double xa = S->x[a], ya = S->y[a], za = S->z[a];
    const int64_t ia = S->order[a];
    for (int64_t t = t0; t < t1; t++) {
        double dx = nearest(S->x[t] - xa, S->L[0], S->q[0]);
        double dy = nearest(S->y[t] - ya, S->L[1], S->q[1]);
        double dz = nearest(S->z[t] - za, S->L[2], S->q[2]);
        if ((dx * dx + dy * dy) + dz * dz <= S->r2_max) {
            if (S->w < S->cap) {
                S->oi[S->w] = ia;
                S->oj[S->w] = S->order[t];
            }
            S->w++;
        }
    }
}

/* The half-stencil stream of a cell plan (ncell cells, starts/counts
 * over slots ascending by cell, the stencil's n_off offsets) through
 * sweep_block; returns the raw stream's length. */
static int64_t sweep_cells(sweep_t *S, const int64_t *starts,
                           const int64_t *counts, const int64_t *ncell,
                           const uint8_t *periodic, const int64_t *stencil,
                           int64_t n_off)
{
    const int64_t nx = ncell[0], ny = ncell[1], nz = ncell[2];
    const int64_t ntot = nx * ny * nz;
    int64_t raw = 0;
    /* same-cell pairs: each slot with the rest of its cell after it */
    for (int64_t c = 0; c < ntot; c++) {
        const int64_t e = starts[c] + counts[c];
        for (int64_t a = starts[c]; a < e - 1; a++) {
            raw += e - a - 1;
            sweep_block(S, a, a + 1, e);
        }
    }
    for (int64_t o = 0; o < n_off; o++) {
        const int64_t *off = stencil + 3 * o;
        for (int64_t x = 0; x < nx; x++) {
            const int64_t bx = shifted(x + off[0], nx, periodic[0]);
            if (bx < 0) continue;
            for (int64_t y = 0; y < ny; y++) {
                const int64_t by = shifted(y + off[1], ny, periodic[1]);
                if (by < 0) continue;
                for (int64_t z = 0; z < nz; z++) {
                    const int64_t c = (x * ny + y) * nz + z;
                    const int64_t bz = shifted(z + off[2], nz, periodic[2]);
                    if (!counts[c] || bz < 0) continue;
                    const int64_t nc = (bx * ny + by) * nz + bz;
                    const int64_t m = counts[nc], t0 = starts[nc];
                    if (!m) continue;
                    raw += counts[c] * m;
                    for (int64_t a = starts[c]; a < starts[c] + counts[c]; a++)
                        sweep_block(S, a, t0, t0 + m);
                }
            }
        }
    }
    return raw;
}

/* Returns the number of pairs kept (written to oi/oj, at most cap) and
 * the raw stream's length in *n_raw; declines a plan that is not one,
 * a periodic length numpy's formula would not treat as a length, an
 * offset far off any grid, and more survivors than cap. */
int64_t cell_pairs(const double *cols, int64_t n, const int64_t *order,
                   const int64_t *cid, const int64_t *coords,
                   const int64_t *starts, const int64_t *counts,
                   const int64_t *ncell, const uint8_t *periodic,
                   const int64_t *stencil, int64_t n_off,
                   const double *lengths, double r2_max,
                   int64_t cap, int64_t *oi, int64_t *oj, int64_t *n_raw)
{
    const int64_t nx = ncell[0], ny = ncell[1], nz = ncell[2];
    sweep_t S;
    if (sweep_init(&S, cols, n, order, periodic, lengths, r2_max, cap, oi,
                   oj))
        return -1;
    for (int64_t q = 0; q < 3 * n_off; q++)
        if (stencil[q] < -(INT64_C(1) << 40) || stencil[q] > INT64_C(1) << 40)
            return -1;
    int64_t s = 0, c = 0;
    for (int64_t x = 0; x < nx; x++)
        for (int64_t y = 0; y < ny; y++)
            for (int64_t z = 0; z < nz; z++, c++) {
                if (starts[c] != s || counts[c] < 0 || counts[c] > n - s)
                    return -1;
                for (const int64_t e = s + counts[c]; s < e; s++)
                    if (cid[s] != c || coords[3 * s] != x
                        || coords[3 * s + 1] != y || coords[3 * s + 2] != z)
                        return -1;
            }
    if (s != n) return -1;
    int64_t raw = sweep_cells(&S, starts, counts, ncell, periodic, stencil,
                              n_off);
    if (S.w > cap) return -1;
    *n_raw = raw;
    return S.w;
}

/* -- owner blocks -------------------------------------------------------
 *
 * wafer_step splits the flat tile range [0, n_tiles) into `blocks`
 * contiguous owner blocks; a team member claims blocks one at a time
 * and makes only the additions whose target tile lies in the block it
 * holds -- the paper's one owner per atom.  Per offset, in exchange
 * order, a block takes the centre shares of the rows whose ctr it owns,
 * then the partner shares of the rows whose src it owns, recomputing
 * with the same operations the share of a row whose centre another
 * block owns.  So every tile sees the same additions in the same order
 * for any block count and whichever member holds it, and no two members
 * ever write the same word.  Blocks are claimed, not dealt: a CPU that
 * runs slower (a busy host) simply claims fewer.
 *
 * A block's rows in one offset are found by binary search, which needs
 * ctr and src ascending within each offset, as the list build leaves
 * them (the list a step sweeps is always one this kernel built).  Each
 * (offset, block) segment writes its rows compacted from the first row
 * it could own.  The caller's thread is member 0, and every thread is
 * joined before the call returns: none outlives it, so a fork between
 * calls is safe.
 */
#define MAX_THREADS 64
#define MAX_BLOCKS (4 * MAX_THREADS)

/* What a member's checks found; NO_ROOM: the caller's scratch is too
 * small for the list (the call declines). */
enum { BAD_INDEX = 1, STALE = 2, NOT_FINITE = 4, NO_ROOM = 8 };

/* A team: the calling thread (member 0) and up to threads - 1 more run
 * body(team, k) once each.  Members meet at barriers and claim owner
 * blocks from one counter per phase; `flags` collects what their checks
 * found. */
typedef struct team {
    void (*body)(struct team *t, int64_t k);
    void *args;
    int64_t threads;  /* asked for; the members once `ready` is set */
    atomic_int ready, arrived, generation, flags;
    atomic_llong ids, next[4];
} team_t;

/* Every member waits here until all have arrived.  A waiting member
 * yields its CPU, which more threads than CPUs need. */
static void barrier(team_t *t)
{
    int gen = atomic_load(&t->generation);
    if (atomic_fetch_add(&t->arrived, 1) == t->threads - 1) {
        atomic_store(&t->arrived, 0);
        atomic_fetch_add(&t->generation, 1);
    } else {
        while (atomic_load(&t->generation) == gen)
            sched_yield();
    }
}

/* The next unclaimed block of `phase`. */
static int64_t claim(team_t *t, int phase)
{
    return atomic_fetch_add(&t->next[phase], 1);
}

static void *member_main(void *team)
{
    team_t *t = team;
    while (!atomic_load(&t->ready))
        sched_yield();
    t->body(t, atomic_fetch_add(&t->ids, 1));
    return NULL;
}

/* Places thread k on the k-th CPU after the caller's in the caller's
 * mask.  Left to itself, Linux starts a new thread on its creator's CPU
 * and lets it time-share that CPU for a timeslice or more (3-5 ms on a
 * 2-vCPU host), longer than a whole sweep. */
#ifdef __linux__
static void place(pthread_attr_t *attr, int64_t k)
{
    cpu_set_t mask;
    int here = sched_getcpu(), at = 0, seen = 0;
    if (here < 0 || sched_getaffinity(0, sizeof mask, &mask) != 0) return;
    int n = CPU_COUNT(&mask);
    for (int c = 0; c < here && c < CPU_SETSIZE; c++)
        at += CPU_ISSET(c, &mask);
    for (int c = 0; c < CPU_SETSIZE && n > 1; c++)
        if (CPU_ISSET(c, &mask) && seen++ == (at + k) % n) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(c, &one);
            pthread_attr_setaffinity_np(attr, sizeof one, &one);
            return;
        }
}
#else
static void place(pthread_attr_t *attr, int64_t k) { (void)attr, (void)k; }
#endif

/* Runs the team: creates its threads pinned, fixes its size at the
 * threads that could be created (a member takes its id only then, so
 * ids stay 0..threads-1), runs member 0 here and joins every thread
 * before it returns.  Returns the team's size. */
static int64_t run_team(team_t *t)
{
    pthread_t tid[MAX_THREADS];
    int64_t started = 0;
    atomic_store(&t->ids, 1);
    for (int64_t k = 1; k < t->threads; k++) {
        pthread_attr_t attr;
        if (pthread_attr_init(&attr) != 0) continue;
        place(&attr, k);
        started += pthread_create(tid + started, &attr, member_main, t) == 0;
        pthread_attr_destroy(&attr);
    }
    t->threads = started + 1;
    atomic_store(&t->ready, 1);
    t->body(t, 0);
    for (int64_t k = 0; k < started; k++)
        pthread_join(tid[k], NULL);
    return t->threads;
}

static int64_t clamp_threads(int64_t threads)
{
    return threads < 1 ? 1 : threads > MAX_THREADS ? MAX_THREADS : threads;
}

/* First tile (or row) of part k of n split into `parts`. */
static inline int64_t edge(int64_t n, int64_t k, int64_t parts)
{
    return n * k / parts;
}

/* First row of [lo, hi) whose key is >= v, keys ascending. */
static int64_t lower(const int32_t *key, int64_t lo, int64_t hi, int64_t v)
{
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (key[mid] < v)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* The rows [*a, *b) of [s0, s1) whose key lies in the tile range
 * [lo, hi). */
static void block_rows(const int32_t *key, int64_t s0, int64_t s1, int64_t lo,
                       int64_t hi, int64_t *a, int64_t *b)
{
    *a = lower(key, s0, s1, lo);
    *b = lower(key, *a, s1, hi);
}

typedef struct {
    char *base;
    int64_t size;  /* bytes per row */
} column_t;

typedef struct {
    const int64_t *seg;
    int64_t n_segs;
    const column_t *cols;
} gaps_args;

/* Column c of a built list: every segment moves left, in order, over
 * the gaps before it. */
static void close_column(const gaps_args *G, int64_t c)
{
    char *base = G->cols[c].base;
    int64_t size = G->cols[c].size, w = 0;
    for (int64_t s = 0; s < G->n_segs; w += G->seg[2 * s + 1], s++)
        if (G->seg[2 * s] != w)
            memmove(base + w * size, base + G->seg[2 * s] * size,
                    (size_t)(G->seg[2 * s + 1] * size));
}

/* Segment s = o * blocks + b holds seg[2s + 1] rows from row seg[2s].
 * Offset o's first row once the segments are closed goes to starts[o]
 * (when starts is not NULL); *gaps tells whether any segment must move.
 * Returns the rows kept. */
static int64_t segment_starts(const int64_t *seg, int64_t n_off,
                              int64_t blocks, int32_t *starts, int *gaps)
{
    int64_t w = 0;
    *gaps = 0;
    for (int64_t o = 0; o <= n_off; o++) {
        if (starts) starts[o] = (int32_t)w;
        for (int64_t s = o * blocks; o < n_off && s < (o + 1) * blocks; s++) {
            *gaps |= seg[2 * s] != w;
            w += seg[2 * s + 1];
        }
    }
    return w;
}

/* -- the wafer's chunked passes -------------------------------------------
 *
 * wafer_step's row loops (the list build's candidates, density's listed
 * rows and its partner shares, force's own and partner rows) are
 * chunked passes over int32 tile ids: the separations, minimum image
 * and r^2 of every row (chunk_r2); a compaction that packs the rows
 * that pass the cut to the front (chunk_pack); the evaluation of the
 * survivors (r, unit vectors, splines, record columns; eval_rows); and
 * last the in-order additions into the tiles.  A chunk's buffers
 * (20 KiB, and 6 KiB of partner force vectors) stay in L1.
 */
typedef struct {
    double d[3][CHUNK], r2[CHUNK];  /* separation axes and r^2 per row */
    int32_t at[CHUNK], from[CHUNK];  /* the rows' tiles */
    int64_t g[2][CHUNK];  /* spline members per row */
    double r[CHUNK], val[CHUNK], der[CHUNK];  /* r, a spline's values */
} chunk_t;

/* Pass 1 over the n rows at[i] -> from[i]: minimum-image separations
 * (Box.minimum_image's floor rule, a periodic axis at a time) and r^2. */
static void chunk_r2(chunk_t *restrict c, const double *restrict pos,
                     const int32_t *at, const int32_t *from, int64_t n,
                     const double *lengths, const uint8_t *periodic)
{
    for (int64_t i = 0; i < n; i++) {
        const double *a = pos + 3 * (int64_t)at[i];
        const double *e = pos + 3 * (int64_t)from[i];
        c->d[0][i] = e[0] - a[0];
        c->d[1][i] = e[1] - a[1];
        c->d[2][i] = e[2] - a[2];
    }
    for (int k = 0; k < 3; k++) {
        if (!periodic[k]) continue;
        double ld = lengths[k], *d = c->d[k];
        for (int64_t i = 0; i < n; i++) d[i] -= ld * floor(d[i] / ld + 0.5);
    }
    for (int64_t i = 0; i < n; i++)
        c->r2[i] = R2(c->d[0][i], c->d[1][i], c->d[2][i]);
}

/* Pass 2 of a sweep: the rows with 0 < r^2 < cutoff2 (the exact cut),
 * their separations, r^2 and tiles packed to the front in row order;
 * returns how many.  Every row is written, and kept or overwritten. */
static int64_t chunk_pack(chunk_t *restrict c, const int32_t *at,
                          const int32_t *from, int64_t n, double cutoff2)
{
    int64_t m = 0;
    for (int64_t i = 0; i < n; i++) {
        double r2 = c->r2[i];
        c->at[m] = at[i];
        c->from[m] = from[i];
        c->r2[m] = r2;
        for (int k = 0; k < 3; k++) c->d[k][m] = c->d[k][i];
        m += (r2 < cutoff2) & (r2 > 0.0);
    }
    return m;
}

/* g[i] = typ[tile[i]] for n rows, or member 0 (typ == NULL). */
static void row_members(int64_t *restrict g, const int64_t *typ,
                        const int32_t *restrict tile, int64_t n)
{
    for (int64_t i = 0; i < n; i++) g[i] = typ ? typ[tile[i]] : 0;
}

typedef struct {
    const double *pos;
    const uint8_t *occ;
    int64_t nx, ny;
    const int64_t *offsets;
    int64_t n_off;
    const double *lengths;
    const uint8_t *periodic;
    double reach2;
    int32_t *n_cand, *o_ctr, *o_src;
    int64_t blocks, *seg;
} list_args;

/* Tiles of the rectangle [x0, x1) x [y0, y1) of an ny-wide grid whose
 * flat index is below t. */
static int64_t rect_before(int64_t x0, int64_t x1, int64_t y0, int64_t y1,
                           int64_t ny, int64_t t)
{
    int64_t n = 0;
    for (int64_t x = x0; x < x1; x++) {
        int64_t top = t - x * ny < y1 ? t - x * ny : y1;
        n += top > y0 ? top - y0 : 0;
    }
    return n;
}

/* Block b of the list build (numpy_backend._wafer_list), one pair at a
 * time: per offset (dx, dy), every occupied tile the block owns whose
 * neighbour exists on the nx x ny fabric counts a candidate, and a pair
 * of occupied tiles under reach2 is listed, offset-major and
 * tile-minor -- written from the block's first possible output row (the
 * outputs are allocated at the sum of the offsets' rectangles). */
static void list_block(const list_args *A, int64_t b)
{
    int64_t nx = A->nx, ny = A->ny, base = 0;
    int64_t lo = edge(nx * ny, b, A->blocks);
    int64_t hi = edge(nx * ny, b + 1, A->blocks);
    const uint8_t *occ = A->occ;
    chunk_t c;
    for (int64_t o = 0; o < A->n_off; o++) {
        int64_t dx = A->offsets[2 * o], dy = A->offsets[2 * o + 1];
        int64_t x0 = dx < 0 ? -dx : 0, x1 = nx - (dx > 0 ? dx : 0);
        int64_t y0 = dy < 0 ? -dy : 0, y1 = ny - (dy > 0 ? dy : 0);
        int64_t w0 = base + rect_before(x0, x1, y0, y1, ny, lo), w = w0;
        for (int64_t x = x0; x < x1; x++) {
            int64_t ya = lo - x * ny > y0 ? lo - x * ny : y0;
            int64_t yb = hi - x * ny < y1 ? hi - x * ny : y1;
            for (int64_t y = ya; y < yb; y += CHUNK) {
                /* a run of tiles and the run dx * ny + dy past it */
                int64_t n = yb - y < CHUNK ? yb - y : CHUNK;
                int32_t at = (int32_t)(x * ny + y);
                int32_t from = (int32_t)(at + dx * ny + dy);
                for (int32_t i = 0; i < n; i++) {
                    c.at[i] = at + i;
                    c.from[i] = from + i;
                    A->n_cand[at + i] += occ[at + i];
                }
                chunk_r2(&c, A->pos, c.at, c.from, n, A->lengths,
                         A->periodic);
                /* compacted in place: the block's output rows hold one
                 * per candidate, so a row written and not kept is still
                 * its own */
                for (int32_t i = 0; i < n; i++) {
                    A->o_ctr[w] = at + i;
                    A->o_src[w] = from + i;
                    w += occ[at + i] & occ[from + i] & (c.r2[i] < A->reach2);
                }
            }
        }
        A->seg[2 * (o * A->blocks + b)] = w0;
        A->seg[2 * (o * A->blocks + b) + 1] = w - w0;
        if (x1 > x0 && y1 > y0) base += (x1 - x0) * (y1 - y0);
    }
}

typedef struct {
    const double *pos;
    int64_t n_tiles;
    const int32_t *starts;
    int64_t n_off;
    const int32_t *ctr, *src;
    const double *lengths;
    const uint8_t *periodic;
    double cutoff2;
    const int64_t *typ;
    const bank_t *rho;
    const int64_t *phi_index;
    int64_t symmetry;
    double *rho_flat;
    int64_t *int_flat;
    int32_t *o_ctr, *o_src;
    double *o_r, *o_unit, *o_d_src, *o_d_ctr;
    int64_t *o_member;
    double *share;
    int64_t stride, blocks, *seg;
} density_args;

/* The partner shares of the listed rows [q0, q1) as the blocks owning
 * their centres compute them, added to their partners in row order;
 * rows the exact cut drops add nothing. */
static void partner_shares(const density_args *A, int64_t q0, int64_t q1,
                           chunk_t *c)
{
    for (; q0 < q1; q0 += CHUNK) {
        int64_t n = q1 - q0 < CHUNK ? q1 - q0 : CHUNK;
        chunk_r2(c, A->pos, A->ctr + q0, A->src + q0, n, A->lengths,
                 A->periodic);
        int64_t m = chunk_pack(c, A->ctr + q0, A->src + q0, n, A->cutoff2);
        for (int64_t s = 0; s < m; s++) c->r[s] = sqrt(c->r2[s]);
        row_members(c->g[0], A->typ, c->at, m);
        eval_rows(A->rho, m, c->r, c->g[0], c->val, c->der);
        for (int64_t s = 0; s < m; s++)
            A->rho_flat[c->from[s]] += c->val[s];
    }
}

/* Density of the chunk's m packed survivors, record row v on: their
 * record rows, rho values (into c->val) and partner shares (into
 * share). */
static void density_survivors(const density_args *A, chunk_t *restrict c,
                              int64_t m, int64_t v, double *restrict share)
{
    int32_t *restrict o_ctr = A->o_ctr + v, *restrict o_src = A->o_src + v;
    double *restrict o_r = A->o_r + v, *restrict o_unit = A->o_unit + 3 * v;
    for (int64_t s = 0; s < m; s++) {
        double r = sqrt(c->r2[s]);
        o_ctr[s] = c->at[s];
        o_src[s] = c->from[s];
        o_r[s] = c->r[s] = r;
        for (int j = 0; j < 3; j++) o_unit[3 * s + j] = c->d[j][s] / r;
    }
    row_members(c->g[0], A->typ, c->from, m);
    eval_rows(A->rho, m, c->r, c->g[0], c->val, A->o_d_src + v);
    if (!A->typ) {
        memcpy(share, c->val, 8 * (size_t)m);
        return;
    }
    row_members(c->g[1], A->typ, c->at, m);
    eval_rows(A->rho, m, c->r, c->g[1], share, A->o_d_ctr + v);
    int64_t nt = A->rho->n_members, *restrict member = A->o_member + v;
    for (int64_t s = 0; s < m; s++)
        member[s] = A->phi_index[c->g[1][s] * nt + c->g[0][s]];
}

/* Density block bl (numpy_backend._wafer_density) on member k, whose
 * stride-long share scratch holds the partner values of the block's
 * rows in one offset.  The survivors of the rows starts[i]:starts[i+1]
 * of offset i are written to the o_* record columns, one segment per
 * (offset, block) from the segment's first listed row; typ == NULL
 * means one table (member 0 on every row, whose partner share is the
 * centre's value). */
static void density_block(const density_args *A, int64_t k, int64_t bl)
{
    int64_t lo = edge(A->n_tiles, bl, A->blocks);
    int64_t hi = edge(A->n_tiles, bl + 1, A->blocks);
    double *share = A->share + k * A->stride;
    chunk_t c;
    for (int64_t o = 0; o < A->n_off; o++) {
        int64_t s0 = A->starts[o], s1 = A->starts[o + 1], a, b, e0, e1;
        block_rows(A->ctr, s0, s1, lo, hi, &a, &b);
        int64_t w0 = a, w = w0;
        for (int64_t q0 = a; q0 < b; q0 += CHUNK) {
            int64_t n = b - q0 < CHUNK ? b - q0 : CHUNK;
            chunk_r2(&c, A->pos, A->ctr + q0, A->src + q0, n, A->lengths,
                     A->periodic);
            int64_t m = chunk_pack(&c, A->ctr + q0, A->src + q0, n,
                                   A->cutoff2);
            density_survivors(A, &c, m, w, share + (w - w0));
            /* the centre shares, in row order */
            for (int64_t s = 0; s < m; s++) {
                A->int_flat[c.at[s]] += 1;
                A->rho_flat[c.at[s]] += c.val[s];
            }
            w += m;
        }
        A->seg[2 * (o * A->blocks + bl)] = w0;
        A->seg[2 * (o * A->blocks + bl) + 1] = w - w0;
        if (!A->symmetry) continue;
        /* reverse reduction: the partner shares this block owns -- its
         * own rows' from the scratch, its neighbours' recomputed */
        for (int64_t q = w0; q < w; q++)
            if (A->o_src[q] >= lo && A->o_src[q] < hi)
                A->rho_flat[A->o_src[q]] += share[q - w0];
        block_rows(A->src, s0, s1, lo, hi, &e0, &e1);
        partner_shares(A, e0, e1 < a ? e1 : a, &c);
        partner_shares(A, e0 > b ? e0 : b, e1, &c);
    }
}

typedef struct {
    int64_t n_off;
    const int32_t *ctr, *src;
    const double *r, *unit, *d_src, *d_ctr;
    const int64_t *member;
    int64_t g0;
    const bank_t *phi;
    const double *f_der;
    int64_t n_tiles, symmetry;
    double *force, *e_flat, *e_both, *fvec;
    int64_t stride, blocks;
    const int64_t *seg;  /* the record's (offset, block) segments */
    int64_t reach;  /* ... of which a block reads those within reach */
} force_args;

/* The phi values and derivatives (into c->val, c->der) of the n record
 * rows from q0. */
static void phi_rows(const force_args *A, chunk_t *restrict c, int64_t q0,
                     int64_t n)
{
    members(c->g[0], &(member_t){.row = A->member, .g0 = A->g0}, q0, NULL,
            NULL, n);
    eval_rows(A->phi, n, A->r + q0, c->g[0], c->val, c->der);
}

/* The phi values (into c->val) and Eq. 4 force vectors f of the n
 * record rows from q0, a pass at a time. */
static void force_terms(const force_args *A, chunk_t *restrict c, int64_t q0,
                        int64_t n, double *restrict f)
{
    const int32_t *restrict ctr = A->ctr + q0, *restrict src = A->src + q0;
    const double *restrict d_src = A->d_src + q0;
    const double *restrict d_ctr = A->d_ctr + q0;
    const double *restrict unit = A->unit + 3 * q0, *restrict f_der = A->f_der;
    phi_rows(A, c, q0, n);
    for (int64_t i = 0; i < n; i++) {
        double s = f_der[ctr[i]] * d_src[i] + f_der[src[i]] * d_ctr[i]
                   + c->der[i];
        for (int j = 0; j < 3; j++) f[3 * i + j] = s * unit[3 * i + j];
    }
}

/* The record rows of offset o whose `key` tile lies in [lo, hi), as up
 * to `blocks` ranges part[2i]..part[2i + 1]; returns how many.  Each
 * (offset, block) segment is ascending, and only the blocks within
 * reach of [lo, hi) can hold such a row. */
static int64_t record_rows(const force_args *A, const int32_t *key, int64_t o,
                           int64_t lo, int64_t hi, int64_t *part)
{
    int64_t n = 0;
    for (int64_t i = 0; i < A->blocks; i++) {
        const int64_t *s = A->seg + 2 * (o * A->blocks + i);
        if (s[1] == 0 || edge(A->n_tiles, i + 1, A->blocks) <= lo - A->reach
            || edge(A->n_tiles, i, A->blocks) >= hi + A->reach)
            continue;
        block_rows(key, s[0], s[0] + s[1], lo, hi, part + 2 * n,
                   part + 2 * n + 1);
        n += part[2 * n] < part[2 * n + 1];
    }
    return n;
}

/* Force block bl (numpy_backend._wafer_force) on member k, whose
 * (stride, 3) fvec scratch holds the force vectors of the block's
 * centres in one offset.  d_ctr == d_src and member == NULL (every row
 * through table g0) for one table.  e_flat == NULL skips the pair
 * energy; with symmetry e_both is a zeroed n_tiles plane on which an
 * offset's centre and partner halves meet before they join e_flat (one
 * rounding per tile per offset, the whole plane added as numpy adds
 * it). */
static void force_block(const force_args *A, int64_t k, int64_t bl)
{
    int64_t lo = edge(A->n_tiles, bl, A->blocks);
    int64_t hi = edge(A->n_tiles, bl + 1, A->blocks);
    double *fvec = A->fvec + 3 * k * A->stride;
    chunk_t c;
    double g[3 * CHUNK];  /* the force vectors of a chunk of partners */
    int64_t own[2 * MAX_BLOCKS], part[2 * MAX_BLOCKS];
    for (int64_t o = 0; o < A->n_off; o++) {
        /* the centres this block owns lie in one run: their phi values
         * and force vectors a chunk at a time, then its sums in order */
        if (!record_rows(A, A->ctr, o, lo, hi, own)) own[0] = own[1] = 0;
        int64_t a = own[0], b = own[1];
        for (int64_t q0 = a; q0 < b; q0 += CHUNK) {
            int64_t n = b - q0 < CHUNK ? b - q0 : CHUNK;
            const int32_t *ctr = A->ctr + q0;
            double *f = fvec + 3 * (q0 - a);
            force_terms(A, &c, q0, n, f);
            for (int64_t i = 0; i < n; i++) {
                double *t = A->force + 3 * (int64_t)ctr[i];
                for (int j = 0; j < 3; j++) t[j] += f[3 * i + j];
            }
            if (!A->e_flat) continue;
            for (int64_t i = 0; i < n; i++) {
                if (A->symmetry)
                    A->e_both[ctr[i]] = 0.5 * c.val[i];
                else
                    A->e_flat[ctr[i]] += 0.5 * c.val[i];
            }
        }
        if (!A->symmetry) continue;
        /* the partners this block owns, a chunk at a time: their
         * negated shares and pair energies, each in row order.  A run
         * lies in one segment, so it is the own run's (whose force
         * vectors are in fvec) or wholly apart from it. */
        int64_t runs = record_rows(A, A->src, o, lo, hi, part);
        for (int64_t u = 0; u < runs; u++) {
            int64_t q1 = part[2 * u + 1];
            int in_own = part[2 * u] >= a && part[2 * u] < b;
            for (int64_t q0 = part[2 * u], n; q0 < q1; q0 += n) {
                n = q1 - q0 < CHUNK ? q1 - q0 : CHUNK;
                const int32_t *src = A->src + q0;
                const double *f = g;
                if (in_own) {
                    f = fvec + 3 * (q0 - a);
                    if (A->e_flat) phi_rows(A, &c, q0, n);
                } else {
                    force_terms(A, &c, q0, n, g);
                }
                for (int64_t i = 0; i < n; i++) {
                    double *t = A->force + 3 * (int64_t)src[i];
                    for (int j = 0; j < 3; j++) t[j] -= f[3 * i + j];
                }
                if (!A->e_flat) continue;
                for (int64_t i = 0; i < n; i++)
                    A->e_both[src[i]] += 0.5 * c.val[i];
            }
        }
        if (!A->e_flat) continue;
        for (int64_t t = lo; t < hi; t++) A->e_flat[t] += A->e_both[t];
        for (int64_t q = a; q < b; q++) A->e_both[A->ctr[q]] = 0.0;
        for (int64_t i = 0; i < runs; i++)
            for (int64_t q = part[2 * i]; q < part[2 * i + 1]; q++)
                A->e_both[A->src[q]] = 0.0;
    }
}

/* -- the whole step ---------------------------------------------------
 *
 * wafer_step runs one lockstep step (numpy_backend.wafer_step) on one
 * team, in four phases separated by barriers:
 *
 *  1. the test: each member takes a share of the tiles (still on the held
 *     list's position, types in range, finite);
 *  2. a list build when the test failed or nothing is held: list blocks,
 *     then the segments close, a column per member -- the list is held
 *     across steps, so it is compacted;
 *  3. density: a block sums its tiles' density, then evaluates their
 *     embedding F and F' at once -- only that block adds into them;
 *  4. force: a block sums its tiles' forces, then integrates them, counts
 *     their non-finite coordinates and writes their cycle counts -- it
 *     reads only the survivor record and F', never a position another
 *     block may be moving.  In place of a barrier between 3 and 4, a
 *     force block waits for the density of the blocks within reach of
 *     its tiles (await_density).
 *
 * The survivor record lives only inside the call, in memory the caller
 * keeps for it at a row per listed row, and the force phase walks it in
 * the (offset, block) segments density wrote, so it is never compacted.
 * Every per-tile sum sees the additions of the numpy body's list build
 * and sweeps in their order, so the step is bitwise that body for any
 * team size; the arithmetic of the leap-frog and the cycle counter is
 * that of its numpy helpers.
 */

static int64_t now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

enum { EMBED_NS, LEAPFROG_NS, COUNTER_NS };

typedef struct {
    /* the machine; only the leap-frog writes pos and vel */
    double *pos, *vel;
    const uint8_t *occ;
    const int64_t *typ;
    int64_t n_tiles, n_off;
    /* the held list, one this kernel built (h_ctr == NULL: none held) */
    const int32_t *h_starts, *h_ctr, *h_src;
    const double *h_pos;
    const uint8_t *h_occ;
    int64_t h_rows;
    double bound2;
    /* a build: its list, and the planes it is held with (keep_pos NULL:
     * it is not held) */
    list_args L;
    int32_t *starts;
    double *keep_pos;
    uint8_t *keep_occ;
    /* the sweeps */
    const double *lengths;
    const uint8_t *periodic;
    double cutoff2;
    const bank_t *rho, *embed, *phi;
    const int64_t *phi_index;
    int64_t symmetry, typed;  /* typed: a table per type */
    /* the leap-frog (masses NULL: none) and the counter (cost NULL: none) */
    const double *masses;
    int64_t n_masses;
    double dt, mvv2e;
    const double *cost, *noise;
    double jitter;
    /* per-tile outputs (f_val, e_flat, cycles NULL: not asked for) */
    double *f_val, *force, *e_flat, *cycles;
    int64_t *int_flat;
    int32_t *o_cand, *o_inter;
    /* the caller's scratch: the record's columns hold `cap` rows, a
     * member's partner values and force vectors `stride` rows */
    void *const *scratch;
    int64_t cap, stride;
    /* set by member 0 between barriers */
    int64_t blocks, rows, built;
    const int32_t *cand;
    double *f_der;
    density_args D;
    force_args F;
    int64_t reach;  /* the most tiles an offset reaches */
    atomic_int summed[MAX_BLOCKS];  /* density block b is done */
    atomic_llong non_finite;
    int64_t t_tested, t_listed, t_summed, busy[MAX_THREADS][3];
} step_args;

/* Member k's share of the test: a verdict per flag. */
static int step_check(const step_args *S, int64_t k, int64_t threads)
{
    int flags = 0;
    for (int64_t t = edge(S->n_tiles, k, threads);
         t < edge(S->n_tiles, k + 1, threads); t++) {
        const double *p = S->pos + 3 * t;
        if (!(isfinite(p[0]) && isfinite(p[1]) && isfinite(p[2])))
            flags |= NOT_FINITE;
        if (S->occ[t] && ((S->typed && bad(S->typ[t], S->rho->n_members))
                          || (S->masses && bad(S->typ[t], S->n_masses))))
            flags |= BAD_INDEX;
        if (S->h_ctr && !(flags & STALE)) {
            const double *h = S->h_pos + 3 * t;
            double dx = p[0] - h[0], dy = p[1] - h[1], dz = p[2] - h[2];
            if (S->occ[t] != S->h_occ[t] || !(R2(dx, dy, dz) < S->bound2))
                flags |= STALE;
        }
    }
    return flags;
}

/* The scratch a caller passes, by position: the record's columns (cap
 * rows; d_ctr and member unused with one table per family), per-member
 * rows of partner values and force vectors (threads x stride), the
 * segment tables of the list and the record (2 x n_off x blocks), and
 * tile planes (e_both unused without the energy under symmetry). */
enum {
    SCR_CTR, SCR_SRC, SCR_R, SCR_UNIT, SCR_D_SRC, SCR_D_CTR, SCR_MEMBER,
    SCR_SHARE, SCR_FVEC, SCR_SEG_LIST, SCR_SEG_RECORD, SCR_RHO, SCR_F_DER,
    SCR_E_BOTH,
};

/* Member 0: the sweeps over the list (starts, ctr, src) of `rows` rows
 * in `blocks` owner blocks, in the record and scratch the caller
 * passed.  A block's rows in one offset are at most its tiles (its
 * centres ascend).  Returns NO_ROOM when the scratch cannot hold them,
 * else 0. */
static int step_sweeps(step_args *S, const int32_t *starts,
                       const int32_t *ctr, const int32_t *src, int64_t rows,
                       int64_t blocks)
{
    int64_t n = S->n_tiles, stride = S->stride;
    void *const *m = S->scratch;
    if (rows > S->cap || (n + blocks - 1) / blocks > stride) return NO_ROOM;
    int32_t *o_ctr = m[SCR_CTR], *o_src = m[SCR_SRC];
    double *o_r = m[SCR_R], *o_unit = m[SCR_UNIT], *d_src = m[SCR_D_SRC];
    double *d_ctr = S->typed ? m[SCR_D_CTR] : d_src;
    int64_t *member = S->typed ? m[SCR_MEMBER] : NULL;
    double *share = m[SCR_SHARE], *fvec = m[SCR_FVEC];
    int64_t *seg = m[SCR_SEG_RECORD];
    double *rho_flat = m[SCR_RHO], *f_der = m[SCR_F_DER];
    double *e_both = S->e_flat && S->symmetry ? m[SCR_E_BOTH] : NULL;
    S->blocks = blocks;
    S->rows = rows;
    S->f_der = f_der;
    S->D = (density_args){
        S->pos, n, starts, S->n_off, ctr, src, S->lengths, S->periodic,
        S->cutoff2, S->typed ? S->typ : NULL, S->rho, S->phi_index,
        S->symmetry, rho_flat, S->int_flat, o_ctr, o_src, o_r, o_unit, d_src,
        d_ctr, member, share, stride, blocks, seg};
    S->F = (force_args){
        S->n_off, o_ctr, o_src, o_r, o_unit, d_src, d_ctr, member, 0,
        S->phi, f_der, n, S->symmetry, S->force, S->e_flat, e_both, fvec,
        stride, blocks, seg, S->reach};
    return 0;
}

/* Build block b: its tiles' candidate counts start at 0, and the planes
 * the list is held with take its tiles. */
static void step_list_block(step_args *S, int64_t b)
{
    int64_t lo = edge(S->n_tiles, b, S->L.blocks);
    int64_t hi = edge(S->n_tiles, b + 1, S->L.blocks);
    memset(S->L.n_cand + lo, 0, 4 * (size_t)(hi - lo));
    if (S->keep_pos) {
        memcpy(S->keep_pos + 3 * lo, S->pos + 3 * lo, 24 * (size_t)(hi - lo));
        memcpy(S->keep_occ + lo, S->occ + lo, (size_t)(hi - lo));
    }
    list_block(&S->L, b);
}

/* Density block b on member k, then its tiles' F and F' (through the
 * tile's type when there is a table per type; empty tiles 0). */
static void step_density_block(step_args *S, int64_t k, int64_t b)
{
    int64_t lo = edge(S->n_tiles, b, S->blocks);
    int64_t hi = edge(S->n_tiles, b + 1, S->blocks);
    double *rho = S->D.rho_flat, *f_der = S->f_der;
    memset(rho + lo, 0, 8 * (size_t)(hi - lo));
    memset(S->int_flat + lo, 0, 8 * (size_t)(hi - lo));
    density_block(&S->D, k, b);
    int64_t t0 = now_ns();
    for (int64_t t = lo; t < hi; t++) {
        double val = 0.0, der = 0.0;
        if (S->occ[t])
            eval_point(S->embed, rho[t], S->typed ? S->typ[t] : 0, &val, &der);
        f_der[t] = der;
        if (S->f_val) S->f_val[t] = val;
    }
    S->busy[k][EMBED_NS] += now_ns() - t0;
}

/* Force block b on member k, then its tiles' leap-frog (numpy_backend's
 * accel = f / (m * mvv2e), v += accel * dt, p += v * dt) and cycle
 * counts. */
static void step_force_block(step_args *S, int64_t k, int64_t b)
{
    int64_t lo = edge(S->n_tiles, b, S->blocks);
    int64_t hi = edge(S->n_tiles, b + 1, S->blocks);
    memset(S->force + 3 * lo, 0, 24 * (size_t)(hi - lo));
    if (S->e_flat) {
        memset(S->e_flat + lo, 0, 8 * (size_t)(hi - lo));
        if (S->F.e_both) memset(S->F.e_both + lo, 0, 8 * (size_t)(hi - lo));
    }
    force_block(&S->F, k, b);
    int64_t t0 = now_ns(), bad_coords = 0;
    for (int64_t t = lo; S->masses && t < hi; t++) {
        if (!S->occ[t]) continue;
        double m = S->masses[S->typ[t]] * S->mvv2e;
        for (int64_t c = 3 * t; c < 3 * t + 3; c++) {
            S->vel[c] += S->force[c] / m * S->dt;
            S->pos[c] += S->vel[c] * S->dt;
            bad_coords += !isfinite(S->pos[c]);
        }
    }
    atomic_fetch_add(&S->non_finite, bad_coords);
    int64_t t1 = now_ns();
    const double *c = S->cost;  /* exchange, candidate, interaction, fixed */
    for (int64_t t = lo; c && t < hi; t++) {
        double cyc = c[0] + c[3];
        S->o_cand[t] = S->o_inter[t] = 0;
        if (S->occ[t]) {
            cyc = ((c[0] + c[1] * (double)S->cand[t])
                   + c[2] * (double)S->int_flat[t]) + c[3];
            S->o_cand[t] = S->cand[t];
            S->o_inter[t] = (int32_t)S->int_flat[t];
        }
        S->cycles[t] = S->noise ? cyc * (1.0 + S->jitter * S->noise[t]) : cyc;
    }
    S->busy[k][LEAPFROG_NS] += t1 - t0;
    S->busy[k][COUNTER_NS] += now_ns() - t1;
}

/* Force block b reads the record rows and F' of every tile within reach
 * of its own, and integrates its tiles, whose positions the density of
 * every block within reach reads: it waits for those blocks' density
 * instead of for every block's. */
static void await_density(step_args *S, int64_t b)
{
    int64_t n = S->n_tiles, blocks = S->blocks;
    int64_t lo = edge(n, b, blocks) - S->reach;
    int64_t hi = edge(n, b + 1, blocks) + S->reach;
    for (int64_t d = 0; d < blocks; d++)
        if (edge(n, d + 1, blocks) > lo && edge(n, d, blocks) < hi)
            while (!atomic_load(&S->summed[d]))
                sched_yield();
}

static void step_body(team_t *t, int64_t k)
{
    step_args *S = t->args;
    atomic_fetch_or(&t->flags, step_check(S, k, t->threads));
    barrier(t);
    int flags = atomic_load(&t->flags);
    int build = !S->h_ctr || (flags & STALE);
    if (k == 0) S->t_tested = now_ns();
    if ((flags & BAD_INDEX) || (build && (flags & NOT_FINITE))) return;
    if (build) {
        for (int64_t b; (b = claim(t, 0)) < S->L.blocks;)
            step_list_block(S, b);
        barrier(t);
        int gaps;
        int64_t rows = segment_starts(S->L.seg, S->n_off, S->L.blocks,
                                      k == 0 ? S->starts : NULL, &gaps);
        column_t cols[] = {{(char *)S->L.o_ctr, 4}, {(char *)S->L.o_src, 4}};
        gaps_args G = {S->L.seg, S->n_off * S->L.blocks, cols};
        for (int64_t c; gaps && (c = claim(t, 1)) < 2;)
            close_column(&G, c);
        if (k == 0) {
            S->built = 1;
            S->cand = S->L.n_cand;
            S->rows = rows;
            atomic_fetch_or(&t->flags, step_sweeps(
                S, S->starts, S->L.o_ctr, S->L.o_src, rows, S->L.blocks));
        }
    } else if (k == 0) {
        atomic_fetch_or(&t->flags, step_sweeps(
            S, S->h_starts, S->h_ctr, S->h_src, S->h_rows, S->L.blocks));
    }
    barrier(t);
    if (atomic_load(&t->flags) & NO_ROOM) return;
    if (k == 0) S->t_listed = now_ns();
    for (int64_t b; (b = claim(t, 2)) < S->blocks;) {
        step_density_block(S, k, b);
        atomic_store(&S->summed[b], 1);
    }
    /* every density block is claimed: a member waits only for those in
     * flight within reach of the force block it claims */
    if (k == 0) S->t_summed = now_ns();
    for (int64_t b; (b = claim(t, 3)) < S->blocks;) {
        await_density(S, b);
        step_force_block(S, k, b);
    }
}

/* One lockstep step (numpy_backend.wafer_step) over the nx x ny grid,
 * on a team of up to `threads`, in `blocks` owner blocks.  A held list
 * is (h_starts, h_ctr, h_src) of h_rows rows that a build of this
 * kernel wrote at (h_pos, h_occ) for the same grid and offsets, or
 * h_ctr == NULL; a build writes n_cand, starts and the list rows
 * (allocated at their bound), and keep_pos / keep_occ when not NULL.
 * masses == NULL skips the leap-frog, cost == NULL (exchange,
 * candidate, interaction and fixed cycles) the counter, f_val /
 * e_flat == NULL the energy.  cand_in is the held list's
 * candidate counts, scratch the addresses of the buffers the SCR_*
 * names list, whose record columns hold `cap` rows and whose partner
 * values and force vectors `stride` rows per member.  out gets: 1 when
 * the step ran, 0 when the list needed a build and a position was not
 * finite (nothing else ran); then built, listed rows, survivors,
 * non-finite coordinates written, team size, and the nanoseconds of the
 * neighbor, exchange, density, embedding, pair_force, integrate and
 * cycle_account phases.  Returns 0, or -1 to decline: more than
 * MAX_BLOCKS blocks, a type out of range, or a list the scratch cannot
 * hold (nothing of the caller's written). */
int64_t wafer_step(double *pos, double *vel, const uint8_t *occ,
                   const int64_t *typ, int64_t nx, int64_t ny,
                   const int64_t *offsets, int64_t n_off,
                   const double *lengths, const uint8_t *periodic,
                   double reach2, double bound2, double cutoff2,
                   const int32_t *h_starts, const int32_t *h_ctr,
                   const int32_t *h_src, const int32_t *cand_in,
                   const double *h_pos, const uint8_t *h_occ, int64_t h_rows,
                   int32_t *n_cand, int32_t *starts,
                   int32_t *b_ctr, int32_t *b_src, double *keep_pos,
                   uint8_t *keep_occ, const bank_t *rho, const bank_t *embed,
                   const bank_t *phi, const int64_t *phi_index,
                   int64_t symmetry, const double *masses, int64_t n_masses,
                   double dt, double mvv2e, const double *cost,
                   const double *noise, double jitter, double *f_val,
                   double *force, double *e_flat, int64_t *int_flat,
                   double *cycles, int32_t *o_cand, int32_t *o_inter,
                   void *const *scratch, int64_t cap, int64_t stride,
                   int64_t blocks, int64_t threads, int64_t *out)
{
    int64_t t_start = now_ns(), n = nx * ny;
    if (blocks < 1 || blocks > MAX_BLOCKS) return -1;
    step_args S = {
        .pos = pos, .vel = vel, .occ = occ, .typ = typ, .n_tiles = n,
        .n_off = n_off, .h_starts = h_starts, .h_ctr = h_ctr, .h_src = h_src,
        .h_pos = h_pos, .h_occ = h_occ, .h_rows = h_rows, .bound2 = bound2,
        .L = {pos, occ, nx, ny, offsets, n_off, lengths, periodic, reach2,
              n_cand, b_ctr, b_src, blocks, scratch[SCR_SEG_LIST]},
        .starts = starts, .keep_pos = keep_pos, .keep_occ = keep_occ,
        .lengths = lengths, .periodic = periodic, .cutoff2 = cutoff2,
        .rho = rho, .embed = embed, .phi = phi, .phi_index = phi_index,
        .symmetry = symmetry, .typed = rho->n_members > 1, .masses = masses,
        .n_masses = n_masses, .dt = dt, .mvv2e = mvv2e, .cost = cost,
        .noise = noise, .jitter = jitter, .f_val = f_val, .force = force,
        .e_flat = e_flat, .cycles = cycles, .int_flat = int_flat,
        .o_cand = o_cand, .o_inter = o_inter, .scratch = scratch, .cap = cap,
        .stride = stride, .cand = cand_in,
    };
    for (int64_t o = 0; o < n_off; o++) {
        int64_t shift = llabs(offsets[2 * o] * ny + offsets[2 * o + 1]);
        if (shift > S.reach) S.reach = shift;
    }
    team_t t = {.body = step_body, .args = &S,
                .threads = clamp_threads(threads)};
    int64_t members = run_team(&t);
    int64_t t_end = now_ns();
    int flags = atomic_load(&t.flags), ran = S.t_summed != 0;
    if (flags & (BAD_INDEX | NO_ROOM)) return -1;
    int64_t kept = 0, busy[3] = {0, 0, 0};
    for (int64_t s = 0; ran && s < n_off * S.blocks; s++)
        kept += S.D.seg[2 * s + 1];
    for (int64_t k = 0; k < members; k++)
        for (int i = 0; i < 3; i++) busy[i] += S.busy[k][i] / members;
    int64_t held = h_ctr != NULL, built = S.built;
    int64_t tested = S.t_tested - t_start, listed = S.t_listed - S.t_tested;
    int64_t result[] = {
        ran, built, S.rows, kept,
        atomic_load(&S.non_finite),
        members,
        held ? tested : 0,
        built ? listed + (held ? 0 : tested) : 0,
        S.t_summed - S.t_listed - busy[EMBED_NS] + (built ? 0 : listed),
        busy[EMBED_NS],
        t_end - S.t_summed - busy[LEAPFROG_NS] - busy[COUNTER_NS],
        busy[LEAPFROG_NS], busy[COUNTER_NS],
    };
    for (int i = 8; !ran && i < 13; i++)  /* a refused call ran no sweep */
        result[i] = 0;
    memcpy(out, result, sizeof result);
    return 0;
}

/* -- the reference engine's whole step ----------------------------------
 *
 * md_step runs up to n steps of numpy_backend.md_step on the calling
 * thread, its Verlet list included, each: the skin/2 list test over the
 * atoms; where it fires, at skin 0 or with no list held, the list build
 * -- cell_plan's binning and counting sort, cell_pairs' sweep
 * (sweep_cells) or the brute-force stream, the inclusive prefilter at
 * the reach and cut_built's strict cut, whose table is the step's --
 * else the strict prefilter under its all-inside and pre-mask cuts;
 * then the distance cap, density_pass, the embedding (spline_pass),
 * force_pass without the pair energy, and the leap-frog: the passes of
 * the per-call kernels, over the step's table, whose separations are
 * columns.  The list it builds, the build's plan, the table and the
 * per-atom planes live in the caller's scratch; the wrapper copies the
 * last build's list out of it, so a list the call returned is never
 * written again.
 */

/* The scratch an md_step caller passes, by position: the table's
 * columns (cap rows, and three for the separations D; D_IJ unused with
 * one table per family; I and J hold a build's swept pairs before its
 * table), the built list's columns (cap rows, and three for L_D), then
 * per-atom planes (n, and 3n for the force accumulators, the list's
 * build positions and the sweep's coordinate columns), the plan's cells
 * (cells_cap) and the half stencil. */
enum {
    MD_I, MD_J, MD_D, MD_R, MD_D_JI, MD_D_IJ, MD_L_I, MD_L_J, MD_L_R,
    MD_L_D, MD_ACC_I, MD_ACC_J, MD_F_DER, MD_F_I, MD_F_J,
    MD_L_REF, MD_CID, MD_ORDER, MD_COLS, MD_COUNTS, MD_STARTS, MD_STENCIL,
};

/* Why a call returned (numpy_backend.MD_STOPS), or MD_GROW: a build
 * needs more scratch than the call was given (the caller regrows it and
 * calls again from that step, with no list held). */
enum { MD_STEPS, MD_NON_FINITE, MD_CAP, MD_GROW };

typedef struct {
    double *pos, *vel;
    const int64_t *typ;
    int64_t n;
    const double *masses;
    double mvv2e, dt;
    /* the held list, built at ref (n_cand < 0: none) */
    const double *ref;
    const int64_t *ci, *cj;
    const double *r_build;
    int64_t n_cand;
    double r_build_max;
    const double *origin, *lengths;
    const uint8_t *periodic;
    double cutoff, skin;
    /* the members of rho and embed (by atom type) and phi (by type
     * pair), through typ when there is a table per type */
    member_t by_type, by_pair;
    /* the step's table and planes (the caller's scratch) */
    int64_t *pi, *pj;
    double *d, *r, *d_ji, *d_ij;
    double *acc_i, *acc_j, *f_der, *f_i, *f_j;
    /* the scratch, its rows for pairs and for cells, the stencil */
    void *const *m;
    int64_t cap, cells_cap, n_off;
} md_args;

/* The list test: MD_NON_FINITE when a displacement since ref is not
 * finite, else the largest squared one in *max_d2. */
static int md_displacement(const md_args *M, double *max_d2)
{
    double top = 0.0;
    int finite = 1;
    for (int64_t a = 0; a < 3 * M->n; a += 3) {
        double dx = M->pos[a] - M->ref[a], dy = M->pos[a + 1] - M->ref[a + 1];
        double dz = M->pos[a + 2] - M->ref[a + 2], d2 = R2(dx, dy, dz);
        finite &= isfinite(d2);
        top = d2 > top ? d2 : top;
    }
    *max_d2 = top;
    return finite ? MD_STEPS : MD_NON_FINITE;
}

/* The strict r^2 < cutoff^2 table of the held list at the current
 * positions in the table's columns, under the pre-mask at lim (when
 * mask) and the all-inside cut (when inside).  Returns the rows kept. */
static int64_t md_table(const md_args *M, int inside, int mask, double lim)
{
    return prefilter(M->pos, M->ci, M->cj, M->n_cand, M->lengths,
                     M->periodic, mask ? M->r_build : NULL, lim,
                     M->cutoff * M->cutoff, 0, inside, M->pi, M->pj, M->d,
                     M->cap, M->r);
}

/* The list build at the current positions (numpy_backend._md_build)
 * into the scratch's list columns, which the call holds from then on.  Returns
 * MD_STEPS with the build's table in the table's columns (*p rows) and
 * its funnel (raw, coarse, exact); MD_NON_FINITE when a position is
 * not finite; MD_GROW with the pair rows (need[0]) or cells (need[1])
 * the scratch lacks.  Either way the list held before is gone. */
static int md_build(md_args *M, int64_t *p, int64_t *funnel, int64_t *need)
{
    void *const *m = M->m;
    const double *pos = M->pos;
    const int64_t n = M->n;
    const double reach = M->cutoff + M->skin;
    int64_t *ci = m[MD_I], *cj = m[MD_J], raw = 0, coarse = 0;
    M->n_cand = -1;
    for (int64_t a = 0; a < 3 * n; a++)
        if (!isfinite(pos[a])) return MD_NON_FINITE;
    if (n > 0) {
        /* cell_plan's grid: periodic dims span the box from its origin,
         * open ones the positions' extent padded by 1e-9, at least the
         * reach; floor(span / reach) cells, at least 1 (a count past
         * int64 is numpy's cast of it, then 1) */
        double lo[3], size[3];
        int64_t nc[3], brute = 0;
        for (int d = 0; d < 3; d++) {
            double span;
            if (M->periodic[d]) {
                span = M->lengths[d];
                lo[d] = M->origin[d];
            } else {
                double mn = pos[d], mx = pos[d];
                for (int64_t a = 3 + d; a < 3 * n; a += 3) {
                    mn = pos[a] < mn ? pos[a] : mn;
                    mx = pos[a] > mx ? pos[a] : mx;
                }
                lo[d] = mn - 1e-9;
                span = (mx + 1e-9) - lo[d];
                span = reach > span ? reach : span;
            }
            double k = floor(span / reach);
            nc[d] = k >= 1.0 && k < 0x1p63 ? (int64_t)k : 1;
            size[d] = span / (double)nc[d];
            brute |= M->periodic[d] && nc[d] < 3;
        }
        if (brute) {
            /* the brute-force stream: every a < b, row-major */
            coarse = raw = n * (n - 1) / 2;
            if (coarse > M->cap) {
                need[0] = coarse;
                return MD_GROW;
            }
            int64_t w = 0;
            for (int64_t a = 0; a < n; a++)
                for (int64_t b = a + 1; b < n; b++) {
                    ci[w] = a;
                    cj[w++] = b;
                }
        } else {
            const int64_t ntot = nc[0] * nc[1] * nc[2];
            if (ntot > M->cells_cap) {
                need[1] = ntot;
                return MD_GROW;
            }
            int64_t *cid = m[MD_CID], *order = m[MD_ORDER];
            int64_t *counts = m[MD_COUNTS], *starts = m[MD_STARTS];
            double *cols = m[MD_COLS];
            /* each atom's cell, wrapped or clamped, and the cells'
             * counts; then a stable counting sort into slots */
            memset(counts, 0, 8 * (size_t)ntot);
            for (int64_t a = 0; a < n; a++) {
                int64_t c[3];
                for (int d = 0; d < 3; d++) {
                    int64_t v = (int64_t)floor((pos[3 * a + d] - lo[d])
                                               / size[d]);
                    if (M->periodic[d]) {
                        v %= nc[d];
                        v += v < 0 ? nc[d] : 0;
                    } else {
                        v = v < 0 ? 0 : v > nc[d] - 1 ? nc[d] - 1 : v;
                    }
                    c[d] = v;
                }
                cid[a] = (c[0] * nc[1] + c[1]) * nc[2] + c[2];
                counts[cid[a]]++;
            }
            for (int64_t c = 0, s = 0; c < ntot; s += counts[c++])
                starts[c] = s;
            for (int64_t a = 0; a < n; a++) order[starts[cid[a]]++] = a;
            for (int64_t c = 0; c < ntot; c++) starts[c] -= counts[c];
            for (int d = 0; d < 3; d++)
                for (int64_t s = 0; s < n; s++)
                    cols[d * n + s] = pos[3 * order[s] + d];
            /* sweep_cut: the over-inclusive bound at the reach */
            const double eps = 0x1p-52;
            double slack = 0.0;
            for (int d = 0; d < 3; d++) {
                if (!M->periodic[d]) continue;
                const double *col = cols + d * n;
                double mn = col[0], mx = col[0];
                for (int64_t s = 1; s < n; s++) {
                    mn = col[s] < mn ? col[s] : mn;
                    mx = col[s] > mx ? col[s] : mx;
                }
                slack += 4.0 * eps * ((mx - mn) + M->lengths[d]);
            }
            double r2_max = reach * reach * (1.0 + 16.0 * eps)
                            + 8.0 * reach * slack;
            sweep_t S;
            sweep_init(&S, cols, n, order, M->periodic, M->lengths, r2_max,
                       M->cap, ci, cj);
            raw = sweep_cells(&S, starts, counts, nc, M->periodic,
                              m[MD_STENCIL], M->n_off);
            if (S.w > M->cap) {
                need[0] = S.w;
                return MD_GROW;
            }
            coarse = S.w;
        }
    }
    /* the inclusive prefilter at the reach: the list, its separations */
    int64_t *li = m[MD_L_I], *lj = m[MD_L_J];
    double *lr = m[MD_L_R], *ld = m[MD_L_D], *ref = m[MD_L_REF];
    const int64_t exact = prefilter(pos, ci, cj, coarse, M->lengths,
                                    M->periodic, NULL, 0.0, reach * reach, 1,
                                    0, li, lj, ld, M->cap, lr);
    memcpy(ref, pos, 24 * (size_t)n);
    double top = 0.0;
    for (int64_t q = 0; q < exact; q++) top = lr[q] > top ? lr[q] : top;
    M->ref = ref;
    M->ci = li;
    M->cj = lj;
    M->r_build = lr;
    M->n_cand = exact;
    M->r_build_max = top;
    funnel[0] = raw;
    funnel[1] = coarse;
    funnel[2] = exact;
    /* cut_built: the strict table from the build's own geometry, or
     * the strict prefilter when an r sits on sqrt(cutoff^2) */
    const double rc = sqrt(M->cutoff * M->cutoff);
    int on_cut = 0;
    for (int64_t q = 0; q < exact; q++) on_cut |= lr[q] == rc;
    if (on_cut) {
        *p = md_table(M, 0, 0, INFINITY);
        return MD_STEPS;
    }
    int64_t w = 0;
    for (int64_t q = 0; q < exact; q++) {
        if (!(lr[q] < rc)) continue;
        M->pi[w] = li[q];
        M->pj[w] = lj[q];
        for (int64_t k = 0; k < 3 * M->cap; k += M->cap)
            M->d[k + w] = ld[k + q];
        M->r[w++] = lr[q];
    }
    *p = w;
    return MD_STEPS;
}

/* PairDistanceCap.check and the unit vectors' division: 0 when every
 * r >= r_min and r > 0 (a NaN r fails both). */
static int md_capped(const md_args *M, int64_t p, double r_min)
{
    int ok = 1;
    for (int64_t q = 0; q < p; q++)
        ok &= (M->r[q] >= r_min) & (M->r[q] > 0.0);
    return !ok;
}

/* The leap-frog (LeapfrogVerlet.step): accel = f / (m * mvv2e),
 * v += accel * dt, p += v * dt. */
static void md_leapfrog(const md_args *M)
{
    for (int64_t a = 0; a < M->n; a++) {
        double m = M->masses[M->typ[a]] * M->mvv2e;
        for (int64_t c = 3 * a; c < 3 * a + 3; c++) {
            M->vel[c] += M->f_i[c] / m * M->dt;
            M->pos[c] += M->vel[c] * M->dt;
        }
    }
}

/* Up to n_steps steps (numpy_backend.md_step) of the n atoms at pos,
 * vel with types typ, per-type masses (n_masses), the Verlet list
 * included.  The call starts from the held list (ci, cj, r_build) of
 * n_cand rows built at ref (n_cand < 0: none); bounds is {the
 * pre-mask's dead bound, the list's r_build_max}, both updated.  The box
 * has its origin, lengths and periodic dims; half_skin2 is (skin / 2)^2;
 * the build sweeps the n_off offsets of the scratch's stencil.  scratch
 * holds the buffers the MD_* names list, pair rows at cap and cells at
 * cells_cap.  Each step run writes a row of `rows`: the nanoseconds of
 * its neighbor, density, embedding, pair_force and integrate phases, and
 * its pairs; each build a row of `builds`: its step and its funnel.  out
 * gets why the call returned (MD_*), its builds, the held list's rows
 * (-1: none) and, on MD_GROW, the pair rows and cells it needs.  Returns
 * the steps run, or -1 to decline (an index or type out of range, a
 * list over cap), having written nothing. */
int64_t md_step(double *pos, double *vel, const int64_t *typ, int64_t n,
                const double *masses, int64_t n_masses, double mvv2e,
                double dt, const double *ref, const int64_t *ci,
                const int64_t *cj, const double *r_build, int64_t n_cand,
                const double *origin, const double *lengths,
                const uint8_t *periodic, double cutoff, double skin,
                double half_skin2, double r_min, const bank_t *rho,
                const bank_t *embed, const bank_t *phi,
                const int64_t *phi_index, int64_t n_off, int64_t n_steps,
                void *const *scratch, int64_t cap, int64_t cells_cap,
                double *bounds, int64_t *rows, int64_t *builds, int64_t *out)
{
    int64_t typed = rho->n_members > 1;
    void *const *m = scratch;
    if (n_cand > cap || bad_any(ci, n_cand, n) || bad_any(cj, n_cand, n))
        return -1;
    for (int64_t a = 0; a < n; a++)
        if (bad(typ[a], n_masses)
            || (typed && (bad(typ[a], rho->n_members)
                          || bad(typ[a], embed->n_members))))
            return -1;
    const int64_t *by_type = typed ? typ : NULL;
    md_args M = {
        pos, vel, typ, n, masses, mvv2e, dt, ref, ci, cj, r_build, n_cand,
        bounds[1], origin, lengths, periodic, cutoff, skin, {.typ = by_type},
        {.typ = by_type, .pair = typed ? phi_index : NULL,
         .nt = rho->n_members},
        m[MD_I], m[MD_J], m[MD_D], m[MD_R],
        m[MD_D_JI], typed ? m[MD_D_IJ] : m[MD_D_JI], m[MD_ACC_I],
        m[MD_ACC_J], m[MD_F_DER], m[MD_F_I], m[MD_F_J], m, cap, cells_cap,
        n_off};
    int64_t done = 0, stop = MD_STEPS, n_builds = 0, need[2] = {0, 0};
    double bound_dead = bounds[0];
    for (; done < n_steps; done++) {
        int64_t t0 = now_ns(), p;
        int build = M.n_cand < 0 || skin == 0.0;
        double max_d2 = 0.0;
        if (!build) {
            stop = md_displacement(&M, &max_d2);
            if (stop != MD_STEPS) break;
            build = max_d2 > half_skin2;
        }
        if (build) {
            int64_t *b = builds + 4 * n_builds;
            stop = md_build(&M, &p, b + 1, need);
            if (stop != MD_STEPS) break;
            b[0] = done;
            n_builds++;
            bound_dead = INFINITY;
        } else {
            double bound = 2.0 * sqrt(max_d2) + 1e-9, cut = cutoff + bound;
            double r_build_max = M.r_build_max;
            int inside = r_build_max + bound < cutoff, mask = 0;
            if (!inside && r_build_max > cutoff + 1e-9 && bound < bound_dead) {
                int64_t kept = 0;
                for (int64_t q = 0; q < M.n_cand; q++)
                    kept += M.r_build[q] <= cut;
                if ((double)kept <= 0.9 * (double)M.n_cand)
                    mask = 1;
                else
                    bound_dead = bound;
            }
            p = md_table(&M, inside, mask, cut);
        }
        int64_t t1 = now_ns();
        if (md_capped(&M, p, r_min)) {
            stop = MD_CAP;
            break;
        }
        density_pass(M.pi, M.pj, M.r, p, &M.by_type,
                     typed ? &M.by_type : NULL, rho, n, M.acc_i, M.acc_j,
                     M.d_ji, M.d_ij);
        int64_t t2 = now_ns();
        spline_pass(embed, (member_t){.row = by_type}, M.acc_i, n, NULL,
                    M.f_der);
        int64_t t3 = now_ns();
        force_pass(M.pi, M.pj, M.d, cap, M.r, p, M.f_der, M.d_ji, M.d_ij,
                   phi, &M.by_pair, n, M.f_i, M.f_j, NULL, NULL);
        int64_t t4 = now_ns();
        md_leapfrog(&M);
        int64_t t5 = now_ns();
        int64_t row[] = {t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, p};
        memcpy(rows + 6 * done, row, sizeof row);
    }
    out[0] = stop;
    out[1] = n_builds;
    out[2] = M.n_cand;
    out[3] = need[0];
    out[4] = need[1];
    bounds[0] = bound_dead;
    bounds[1] = M.r_build_max;
    return done;
}
