/* Native kernels: the registry's ten kernels as C99 loops -- the four
 * pair kernels of the reference engine and the six that make up a
 * lockstep wafer step (list validity and build, the two sweeps, the
 * leap-frog and the cycle counter).
 *
 * Built by native_backend.py with
 *   cc -O2 -fno-fast-math -ffp-contract=off -pthread -shared -fPIC
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
 * Caller-owned accumulators and state are only written after the
 * indices passed.  No function allocates: outputs of unknown length
 * arrive at their upper bound and the caller shrinks them.
 *
 * The three kernels that walk listed rows (wafer_list, wafer_density,
 * wafer_force) run on several threads in owner blocks (see "owner
 * blocks" below); every other function runs on the calling thread.
 */
#define _GNU_SOURCE  /* sched_getcpu, the sweep threads' CPU affinity */
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stdatomic.h>
#include <stdint.h>
#include <string.h>

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

/* One cubic row: value and derivative in numpy_backend._horner's order. */
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
                           double rmax2, int64_t inclusive,
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
        orij[3 * w] = d[0];
        orij[3 * w + 1] = d[1];
        orij[3 * w + 2] = d[2];
        orr[w] = sqrt(r2);
        w++;
    }
    return w;
}

/* ti == NULL: one table, both directions share the value.  acc_i
 * (returned as rho_bar) and acc_j arrive zeroed.  (Both pair passes
 * decline an empty list: numpy's bincount of nothing is int64 zeros,
 * weights or not, and that is numpy's to say.) */
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

/* -- owner blocks -------------------------------------------------------
 *
 * The wafer's list kernels split the flat tile range [0, n_tiles) into
 * `blocks` contiguous owner blocks; a thread claims blocks one at a
 * time and makes only the additions whose target tile lies in the block
 * it holds -- the paper's one owner per atom.  Per offset, in exchange
 * order, a block takes the centre shares of the rows whose ctr it owns,
 * then the partner shares of the rows whose src it owns, recomputing
 * with the same operations the share of a row whose centre another
 * block owns.  So every tile sees the same additions in the same order
 * for any block count and whichever thread holds it, and no two
 * threads ever write the same word: nothing is exchanged and nothing
 * waits inside a sweep.  Blocks are claimed, not dealt: a CPU that runs
 * slower (a busy host) simply claims fewer.
 *
 * A call starts its threads first and each checks a share of the input
 * (indices in range, rows in order); at the gate every thread waits for
 * every verdict, so nothing is written unless all passed, and a thread's
 * start-up overlaps the checks.  A block's rows in one offset are found
 * by binary search, which needs ctr and src ascending within each
 * offset, as the list build leaves them; a list that is not runs as one
 * block.  Each (offset, block) segment writes its rows compacted from
 * the first row it could own (one block: from where the last one
 * ended); after the join close_gaps moves the segments left, in order.
 * The caller's thread sweeps too, and every thread is joined before the
 * call returns: none outlives it, so a fork between calls is safe.
 * `threads` arrives as the number asked for and leaves as the number
 * that swept.
 */
#define MAX_THREADS 64

enum { BAD_INDEX = 1, OUT_OF_ORDER = 2 };

/* One call.  check(args, k, threads) returns -1 when thread k's share
 * of the input holds an index out of range, 0 when it holds rows out of
 * order, else 1; work(args, k, b) sweeps block b with thread k's
 * scratch. */
typedef struct {
    int (*check)(const void *args, int64_t k, int64_t threads);
    void (*work)(const void *args, int64_t k, int64_t block);
    const void *args;
    int64_t *blocks;  /* the args' block count: 1 when rows are out of order */
    int64_t threads;
    atomic_int arrived, flags;
    atomic_llong next;  /* the first unclaimed block */
} block_run;

typedef struct {
    block_run *run;
    int64_t thread;
} block_job;

static void check_in(block_run *r, int64_t k)
{
    int v = r->check(r->args, k, r->threads);
    atomic_fetch_or(&r->flags, v < 0 ? BAD_INDEX : v == 0 ? OUT_OF_ORDER : 0);
    atomic_fetch_add(&r->arrived, 1);
}

/* The gate: waits until every thread checked in; returns their flags.
 * A waiting thread yields its CPU, which more threads than CPUs need. */
static int gate(block_run *r)
{
    while (atomic_load(&r->arrived) < r->threads)
        sched_yield();
    return atomic_load(&r->flags);
}

static void sweep(block_run *r, int64_t k)
{
    for (int64_t b; (b = atomic_fetch_add(&r->next, 1)) < *r->blocks;)
        r->work(r->args, k, b);
}

static void *thread_main(void *job)
{
    const block_job *j = job;
    check_in(j->run, j->thread);
    if (gate(j->run) == 0) sweep(j->run, j->thread);
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

/* Runs r on the calling thread (thread 0) and r->threads - 1 more,
 * joined before this returns; a thread that cannot be created is
 * checked for by the caller and its blocks are claimed by the others.
 * Returns -1 (nothing written) on a bad index, else the threads that
 * swept. */
static int64_t run_blocks(block_run *r)
{
    pthread_t tid[MAX_THREADS];
    block_job job[MAX_THREADS];
    int started[MAX_THREADS] = {0};
    int64_t swept = 1;
    for (int64_t k = 1; k < r->threads; k++) {
        pthread_attr_t attr;
        job[k] = (block_job){r, k};
        if (pthread_attr_init(&attr) != 0) continue;
        place(&attr, k);
        started[k] = pthread_create(tid + k, &attr, thread_main, job + k) == 0;
        swept += started[k];
        pthread_attr_destroy(&attr);
    }
    for (int64_t k = 0; k < r->threads; k++)
        if (!started[k]) check_in(r, k);
    int flags = gate(r);
    if (flags == OUT_OF_ORDER) {
        *r->blocks = 1;
        swept = 1;
    }
    if (!(flags & BAD_INDEX)) sweep(r, 0);
    for (int64_t k = 1; k < r->threads; k++)
        if (started[k]) pthread_join(tid[k], NULL);
    return flags & BAD_INDEX ? -1 : swept;
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

/* Rows [r0, r1) of a list whose offset o holds rows starts[o] to
 * starts[o + 1] (int32 s32 or int64 s64): -1 when a ctr or src lies
 * outside [0, n_tiles), else whether both ascend within each offset. */
static int check_rows(const int32_t *s32, const int64_t *s64, int64_t n_off,
                      const int32_t *ctr, const int32_t *src, int64_t n_tiles,
                      int64_t r0, int64_t r1)
{
    int ascending = 1;
    for (int64_t o = 0; o < n_off; o++) {
        int64_t s0 = s32 ? s32[o] : s64[o], s1 = s32 ? s32[o + 1] : s64[o + 1];
        for (int64_t q = s0 > r0 ? s0 : r0; q < s1 && q < r1; q++) {
            if (bad(ctr[q], n_tiles) || bad(src[q], n_tiles)) return -1;
            if (q > s0 && (ctr[q] <= ctr[q - 1] || src[q] <= src[q - 1]))
                ascending = 0;
        }
    }
    return ascending;
}

static int nothing_to_check(const void *args, int64_t k, int64_t threads)
{
    (void)args, (void)k, (void)threads;
    return 1;
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
 * [lo, hi); one block owns every row, in whatever order. */
static void block_rows(const int32_t *key, int64_t s0, int64_t s1, int64_t lo,
                       int64_t hi, int64_t blocks, int64_t *a, int64_t *b)
{
    if (blocks == 1) {
        *a = s0;
        *b = s1;
        return;
    }
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
    int64_t n_cols;
} gaps_args;

/* Column c of the fix-up: every segment moves left, in order, over the
 * gaps before it. */
static void close_column(const void *args, int64_t k, int64_t c)
{
    const gaps_args *G = args;
    char *base = G->cols[c].base;
    int64_t size = G->cols[c].size, w = 0;
    (void)k;
    for (int64_t s = 0; s < G->n_segs; w += G->seg[2 * s + 1], s++)
        if (G->seg[2 * s] != w)
            memmove(base + w * size, base + G->seg[2 * s] * size,
                    (size_t)(G->seg[2 * s + 1] * size));
}

/* The fix-up after the join: segment s = o * blocks + b holds
 * seg[2s + 1] rows from row seg[2s] of every column.  Offset o's first
 * row goes to starts[o] (int64 when starts64, else int32), and unless
 * the segments already touch they close their gaps on `threads`
 * threads, a column at a time (columns are separate arrays; the largest
 * comes first).  Returns the rows kept. */
static int64_t close_gaps(const int64_t *seg, int64_t n_off, int64_t blocks,
                          const column_t *cols, int64_t n_cols,
                          int64_t *starts64, int32_t *starts32,
                          int64_t threads)
{
    int64_t w = 0, gaps = 0;
    for (int64_t o = 0; o <= n_off; o++) {
        if (starts64)
            starts64[o] = w;
        else
            starts32[o] = (int32_t)w;
        for (int64_t s = o * blocks; o < n_off && s < (o + 1) * blocks; s++) {
            gaps |= seg[2 * s] != w;
            w += seg[2 * s + 1];
        }
    }
    if (gaps) {
        gaps_args G = {seg, n_off * blocks, cols, n_cols};
        block_run run = {nothing_to_check, close_column, &G, &G.n_cols,
                         threads, 0, 0, 0};
        run_blocks(&run);
    }
    return w;
}

/* Does the list built at (held_pos, held_occ) still cover (pos, occ)?
 * (numpy_backend.list_valid.)  Exits at the first tile whose occupancy
 * differs or which moved bound2 or more (a NaN fails too). */
int64_t list_valid(const double *pos, const uint8_t *occ,
                   const double *held_pos, const uint8_t *held_occ,
                   int64_t n_tiles, double bound2)
{
    for (int64_t t = 0; t < n_tiles; t++) {
        if (occ[t] != held_occ[t]) return 0;
        const double *a = pos + 3 * t, *b = held_pos + 3 * t;
        double dx = a[0] - b[0], dy = a[1] - b[1], dz = a[2] - b[2];
        if (!(R2(dx, dy, dz) < bound2)) return 0;
    }
    return 1;
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

/* Block b of wafer_list: the tiles of each offset's overlap rectangle
 * that it owns, written from the block's first possible output row (the
 * outputs are allocated at the sum of the rectangles). */
static void list_block(const void *args, int64_t k, int64_t b)
{
    const list_args *A = args;
    int64_t nx = A->nx, ny = A->ny, base = 0, next = 0;
    int64_t lo = edge(nx * ny, b, A->blocks);
    int64_t hi = edge(nx * ny, b + 1, A->blocks);
    (void)k;
    for (int64_t o = 0; o < A->n_off; o++) {
        int64_t dx = A->offsets[2 * o], dy = A->offsets[2 * o + 1];
        int64_t x0 = dx < 0 ? -dx : 0, x1 = nx - (dx > 0 ? dx : 0);
        int64_t y0 = dy < 0 ? -dy : 0, y1 = ny - (dy > 0 ? dy : 0);
        int64_t w0 = A->blocks == 1
                         ? next : base + rect_before(x0, x1, y0, y1, ny, lo);
        int64_t w = w0;
        for (int64_t x = x0; x < x1; x++) {
            int64_t ya = lo - x * ny > y0 ? lo - x * ny : y0;
            int64_t yb = hi - x * ny < y1 ? hi - x * ny : y1;
            for (int64_t y = ya; y < yb; y++) {
                int64_t at = x * ny + y, from = at + dx * ny + dy;
                if (!A->occ[at]) continue;
                A->n_cand[at] += 1;
                if (!A->occ[from]) continue;
                double d[3];
                if (separation(A->pos, at, from, A->lengths, A->periodic, d)
                        < A->reach2) {
                    A->o_ctr[w] = (int32_t)at;
                    A->o_src[w] = (int32_t)from;
                    w++;
                }
            }
        }
        A->seg[2 * (o * A->blocks + b)] = w0;
        A->seg[2 * (o * A->blocks + b) + 1] = w - w0;
        if (x1 > x0 && y1 > y0) base += (x1 - x0) * (y1 - y0);
        next = w;
    }
}

/* The wafer's list build (numpy_backend.wafer_list), one pair at a
 * time: per offset (dx, dy), every occupied tile whose neighbour exists
 * on the nx x ny fabric counts a candidate, and a pair of occupied
 * tiles under reach2 is listed, offset-major and tile-minor.  o_starts
 * gets the n_off + 1 bounds; seg is 2 * n_off * blocks scratch.  Returns
 * the number listed. */
int64_t wafer_list(const double *pos, const uint8_t *occ, int64_t nx,
                   int64_t ny, const int64_t *offsets, int64_t n_off,
                   const double *lengths, const uint8_t *periodic,
                   double reach2, int32_t *n_cand, int32_t *o_starts,
                   int32_t *o_ctr, int32_t *o_src, int64_t *seg,
                   int64_t blocks, int64_t *threads)
{
    list_args A = {pos, occ, nx, ny, offsets, n_off, lengths, periodic,
                   reach2, n_cand, o_ctr, o_src, blocks, seg};
    block_run run = {nothing_to_check, list_block, &A, &A.blocks,
                     clamp_threads(*threads), 0, 0, 0};
    *threads = run_blocks(&run);
    column_t cols[] = {{(char *)o_ctr, 4}, {(char *)o_src, 4}};
    return close_gaps(seg, n_off, A.blocks, cols, 2, NULL, o_starts, *threads);
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

/* Thread k's share of wafer_density's input: rows, and tiles' types. */
static int density_check(const void *args, int64_t k, int64_t threads)
{
    const density_args *A = args;
    int64_t n = A->starts[A->n_off];
    int64_t t0 = edge(A->n_tiles, k, threads);
    int64_t t1 = edge(A->n_tiles, k + 1, threads);
    if (A->typ && bad_any(A->typ + t0, t1 - t0, A->rho->n_members)) return -1;
    return check_rows(A->starts, NULL, A->n_off, A->ctr, A->src, A->n_tiles,
                      edge(n, k, threads), edge(n, k + 1, threads));
}

/* Listed row q's partner share as the block owning its centre computes
 * it (0 when the exact cut drops the row). */
static int partner_share(const density_args *A, int64_t q, double *share)
{
    int64_t at = A->ctr[q];
    double d[3], der;
    double r2 = separation(A->pos, at, A->src[q], A->lengths, A->periodic, d);
    if (!(r2 < A->cutoff2 && r2 > 0.0)) return 0;
    eval_point(A->rho, sqrt(r2), A->typ ? A->typ[at] : 0, share, &der);
    return 1;
}

/* Block bl of wafer_density on thread k, whose stride-long share
 * scratch holds one offset's partner values. */
static void density_block(const void *args, int64_t k, int64_t bl)
{
    const density_args *A = args;
    int64_t nt = A->rho->n_members, next = 0;
    int64_t lo = edge(A->n_tiles, bl, A->blocks);
    int64_t hi = edge(A->n_tiles, bl + 1, A->blocks);
    double *share = A->share + k * A->stride;
    for (int64_t o = 0; o < A->n_off; o++) {
        int64_t s0 = A->starts[o], s1 = A->starts[o + 1], a, b, c, e;
        block_rows(A->ctr, s0, s1, lo, hi, A->blocks, &a, &b);
        int64_t w0 = A->blocks == 1 ? next : a, w = w0;
        for (int64_t q = a; q < b; q++) {
            int64_t at = A->ctr[q], from = A->src[q];
            double d[3], val;
            double r2 = separation(A->pos, at, from, A->lengths,
                                   A->periodic, d);
            if (!(r2 < A->cutoff2 && r2 > 0.0)) continue;
            double r = sqrt(r2);
            A->o_ctr[w] = (int32_t)at;
            A->o_src[w] = (int32_t)from;
            A->o_r[w] = r;
            for (int j = 0; j < 3; j++) A->o_unit[3 * w + j] = d[j] / r;
            eval_point(A->rho, r, A->typ ? A->typ[from] : 0, &val,
                       A->o_d_src + w);
            if (A->typ) {
                eval_point(A->rho, r, A->typ[at], share + (w - w0),
                           A->o_d_ctr + w);
                A->o_member[w] = A->phi_index[A->typ[at] * nt + A->typ[from]];
            } else if (A->symmetry) {
                share[w - w0] = val;
            }
            A->int_flat[at] += 1;
            A->rho_flat[at] += val;
            w++;
        }
        A->seg[2 * (o * A->blocks + bl)] = w0;
        A->seg[2 * (o * A->blocks + bl) + 1] = w - w0;
        next = w;
        if (!A->symmetry) continue;
        /* reverse reduction: the partner shares this block owns -- its
         * own rows' from the scratch, its neighbours' recomputed */
        for (int64_t q = w0; q < w; q++)
            if (A->o_src[q] >= lo && A->o_src[q] < hi)
                A->rho_flat[A->o_src[q]] += share[q - w0];
        block_rows(A->src, s0, s1, lo, hi, A->blocks, &c, &e);
        for (int64_t q = c; q < e; q++) {
            double v;
            if ((q < a || q >= b) && partner_share(A, q, &v))
                A->rho_flat[A->src[q]] += v;
        }
    }
}

/* The wafer's density sweep over its n listed pairs
 * (numpy_backend.wafer_density), in one walk.  Rows starts[i]:starts[i+1]
 * belong to the i-th offset.  Survivors are written, compacted,
 * to the o_* record arrays (allocated for all n rows); o_starts gets
 * their per-offset bounds.  typ == NULL means one table.  share is
 * threads x stride scratch (stride: the most rows in one offset), seg
 * 2 * n_off * blocks.  Returns the survivor count. */
int64_t wafer_density(const double *pos, int64_t n_tiles,
                      const int32_t *starts, int64_t n_off,
                      const int32_t *ctr, const int32_t *src,
                      const double *lengths, const uint8_t *periodic,
                      double cutoff2, const int64_t *typ, const bank_t *rho,
                      const int64_t *phi_index, int64_t symmetry,
                      double *rho_flat, int64_t *int_flat, int64_t *o_starts,
                      int32_t *o_ctr, int32_t *o_src, double *o_r,
                      double *o_unit, double *o_d_src, double *o_d_ctr,
                      int64_t *o_member, double *share, int64_t stride,
                      int64_t *seg, int64_t blocks, int64_t *threads)
{
    density_args A = {pos, n_tiles, starts, n_off, ctr, src, lengths,
                      periodic, cutoff2, typ, rho, phi_index, symmetry,
                      rho_flat, int_flat, o_ctr, o_src, o_r, o_unit, o_d_src,
                      o_d_ctr, o_member, share, stride, blocks, seg};
    block_run run = {density_check, density_block, &A, &A.blocks,
                     clamp_threads(*threads), 0, 0, 0};
    if ((*threads = run_blocks(&run)) < 0) return -1;
    column_t cols[] = {  /* one table: the first five */
        {(char *)o_unit, 24}, {(char *)o_r, 8}, {(char *)o_d_src, 8},
        {(char *)o_ctr, 4}, {(char *)o_src, 4}, {(char *)o_d_ctr, 8},
        {(char *)o_member, 8},
    };
    return close_gaps(seg, n_off, A.blocks, cols, typ ? 7 : 5, o_starts, NULL,
                      *threads);
}

typedef struct {
    const int64_t *starts;
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
} force_args;

/* Thread k's share of wafer_force's input: rows and their tables. */
static int force_check(const void *args, int64_t k, int64_t threads)
{
    const force_args *A = args;
    int64_t n = A->starts[A->n_off];
    int64_t r0 = edge(n, k, threads), r1 = edge(n, k + 1, threads);
    if (A->member ? bad_any(A->member + r0, r1 - r0, A->phi->n_members)
                  : bad(A->g0, A->phi->n_members))
        return -1;
    return check_rows(NULL, A->starts, A->n_off, A->ctr, A->src, A->n_tiles,
                      r0, r1);
}

/* Record row q's phi value and Eq. 4 force vector f. */
static void pair_term(const force_args *A, int64_t q, double *phi_v,
                      double *f)
{
    double phi_d;
    eval_point(A->phi, A->r[q], A->member ? A->member[q] : A->g0, phi_v,
               &phi_d);
    double s = A->f_der[A->ctr[q]] * A->d_src[q]
               + A->f_der[A->src[q]] * A->d_ctr[q] + phi_d;
    for (int j = 0; j < 3; j++) f[j] = s * A->unit[3 * q + j];
}

/* Block bl of wafer_force on thread k, whose (stride, 3) fvec scratch
 * holds one offset's force vectors. */
static void force_block(const void *args, int64_t k, int64_t bl)
{
    const force_args *A = args;
    int64_t lo = edge(A->n_tiles, bl, A->blocks);
    int64_t hi = edge(A->n_tiles, bl + 1, A->blocks);
    double *fvec = A->fvec + 3 * k * A->stride;
    for (int64_t o = 0; o < A->n_off; o++) {
        int64_t s0 = A->starts[o], s1 = A->starts[o + 1], a, b, c, e;
        if (s0 == s1) continue;
        block_rows(A->ctr, s0, s1, lo, hi, A->blocks, &a, &b);
        for (int64_t q = a; q < b; q++) {
            int64_t at = A->ctr[q];
            double phi_v, *f = fvec + 3 * (q - a);
            pair_term(A, q, &phi_v, f);
            for (int j = 0; j < 3; j++) A->force[3 * at + j] += f[j];
            if (!A->e_flat) continue;
            if (A->symmetry)
                A->e_both[at] = 0.5 * phi_v;
            else
                A->e_flat[at] += 0.5 * phi_v;
        }
        if (!A->symmetry) continue;
        block_rows(A->src, s0, s1, lo, hi, A->blocks, &c, &e);
        for (int64_t q = c; q < e; q++) {  /* the partner's negated share */
            double phi_v, g[3];
            const double *f = g;
            if (q >= a && q < b)
                f = fvec + 3 * (q - a);
            else
                pair_term(A, q, &phi_v, g);
            for (int j = 0; j < 3; j++) A->force[3 * A->src[q] + j] -= f[j];
        }
        if (!A->e_flat) continue;
        for (int64_t q = c; q < e; q++) {
            double phi_v, phi_d;
            eval_point(A->phi, A->r[q], A->member ? A->member[q] : A->g0,
                       &phi_v, &phi_d);
            A->e_both[A->src[q]] += 0.5 * phi_v;
        }
        for (int64_t t = lo; t < hi; t++) A->e_flat[t] += A->e_both[t];
        for (int64_t q = a; q < b; q++) A->e_both[A->ctr[q]] = 0.0;
        for (int64_t q = c; q < e; q++) A->e_both[A->src[q]] = 0.0;
    }
}

/* The wafer's force sweep over one survivor record
 * (numpy_backend.wafer_force).  d_ctr == d_src and member == NULL
 * (every row through table g0) for one table.  e_flat == NULL skips
 * the pair energy; with symmetry e_both is a zeroed n_tiles plane on
 * which an offset's centre and partner halves meet before they join
 * e_flat (one rounding per tile per offset, the whole plane added as
 * numpy adds it).  fvec is (threads, stride, 3) scratch. */
int64_t wafer_force(const int64_t *starts, int64_t n_off, const int32_t *ctr,
                    const int32_t *src, const double *r, const double *unit,
                    const double *d_src, const double *d_ctr,
                    const int64_t *member, int64_t g0, const bank_t *phi,
                    const double *f_der, int64_t n_tiles, int64_t symmetry,
                    double *force, double *e_flat, double *e_both,
                    double *fvec, int64_t stride, int64_t blocks,
                    int64_t *threads)
{
    force_args A = {starts, n_off, ctr, src, r, unit, d_src, d_ctr, member,
                    g0, phi, f_der, n_tiles, symmetry, force, e_flat, e_both,
                    fvec, stride, blocks};
    block_run run = {force_check, force_block, &A, &A.blocks,
                     clamp_threads(*threads), 0, 0, 0};
    if ((*threads = run_blocks(&run)) < 0) return -1;
    return starts[n_off];
}

/* The leap-frog over the occupied tiles (numpy_backend.wafer_integrate):
 * accel = f / (m * mvv2e), v += accel * dt, p += v * dt.  A type outside
 * the mass table declines before anything is written.  Returns how many
 * coordinates written are not finite. */
int64_t wafer_integrate(double *pos, double *vel, const double *force,
                        const uint8_t *occ, const int64_t *typ,
                        int64_t n_tiles, const double *masses,
                        int64_t n_types, double dt, double mvv2e)
{
    for (int64_t t = 0; t < n_tiles; t++)
        if (occ[t] && bad(typ[t], n_types)) return -1;
    int64_t non_finite = 0;
    for (int64_t t = 0; t < n_tiles; t++) {
        if (!occ[t]) continue;
        double m = masses[typ[t]] * mvv2e;
        for (int64_t k = 3 * t; k < 3 * t + 3; k++) {
            vel[k] += force[k] / m * dt;
            pos[k] += vel[k] * dt;
            non_finite += !isfinite(pos[k]);
        }
    }
    return non_finite;
}

/* One step's cycles plane and masked int32 work counts
 * (numpy_backend.wafer_cycles); noise == NULL: no jitter. */
int64_t wafer_cycles(const uint8_t *occ, const int64_t *n_cand,
                     const int64_t *n_int, int64_t n_tiles, double exchange,
                     double c_cand, double c_int, double c_fixed,
                     const double *noise, double jitter, double *cycles,
                     int32_t *cand, int32_t *inter)
{
    for (int64_t t = 0; t < n_tiles; t++) {
        double c = exchange + c_fixed;
        cand[t] = inter[t] = 0;
        if (occ[t]) {
            c = ((exchange + c_cand * (double)n_cand[t])
                 + c_int * (double)n_int[t]) + c_fixed;
            cand[t] = (int32_t)n_cand[t];
            inter[t] = (int32_t)n_int[t];
        }
        cycles[t] = noise ? c * (1.0 + jitter * noise[t]) : c;
    }
    return 0;
}
