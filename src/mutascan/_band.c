/* The three compiled kernels of mutascan: banded Gotoh alignment, k-mer
 * seeding and classifier training.
 *
 * band_align fills every band of a banded three-state affine-gap (Gotoh)
 * alignment and traces each back to its start. band_fill_rows mirrors
 * align._fill_rows_numpy value for value, and band_traceback mirrors
 * align._band_traceback_python move for move, from the same
 * [state][predecessor] table; their docstrings describe the band layout.
 * seed_diagonals finds a query's k-mer seeds in a homology.KmerIndex and
 * lists their (subject, diagonal) pairs in query order, as
 * homology._seed_diagonals_numpy does. train_epochs runs full-batch
 * gradient-descent epochs as neural._train_numpy does, bit for bit. On
 * x86-64, band_align_avx2 and train_epochs_avx2, and train_epochs_avx512,
 * are the same code built for wider vectors, and isa_level names the widest
 * this CPU runs. Without a compiler all three kernels run as those numpy
 * and Python functions instead.
 * Build with -fwrapv: int32 sums then wrap as numpy's do. Build with
 * -ffp-contract=off: a * b + c then rounds twice, as in numpy, and is never
 * fused where the base ISA has FMA. The Python caller (mutascan._native)
 * checks every array's dtype, shape and C order, every code, lo and the
 * band width, k and the layer sizes before the call.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* 0, 1 and C23's 16, 32 and 64 round each double operation to double; x87's 2
 * keeps a double in an 80-bit register, where it rounds differently */
#if FLT_EVAL_METHOD != 0 && FLT_EVAL_METHOD != 1 && FLT_EVAL_METHOD != 16 && \
    FLT_EVAL_METHOD != 32 && FLT_EVAL_METHOD != 64
#error "training's fixed bits need each double operation rounded to double"
#endif

#define NEG (-(1 << 28)) /* align._NEG */
#define ROWS 5           /* table rows: A C G T N */
#define CODES 6          /* table columns: A C G T N and the outside code */
#define OUTSIDE 5        /* align.OUTSIDE_CODE */
#define GAP '-'
#define ENDS 6           /* entries of band_align's ends per band */

static inline int32_t max32(int32_t a, int32_t b) { return a > b ? a : b; }

/* Bands a vector step covers. A batch of fewer bands keeps one scalar Iy
 * chain a band; from here on the Iy step of a slot is one vector operation
 * across the bands. Timed on batches cut from screen-large-db's 8-band
 * search batches, fill and traceback, on both the baseline and the AVX2
 * entry: the chains were faster at 4 to 7 bands (AVX2 406 against 507 us at
 * 7), the lanes at 8 to 16 (AVX2 391 against 479 us at 8). */
#define LANES 8

/* Each band's max of one row of M, the (width, G) values at cm, into top:
 * LANES bands at a time, whose maxima stay in one register, then one band
 * at a time. On the 8-band search batches, fill and traceback took 367-380
 * us on the AVX2 entry (588 on the baseline), and 408-415 us (615) with one
 * plain loop over slots and then bands that updates top in memory. */
static inline void row_maxima(const int32_t *restrict cm, int64_t G, int64_t width,
                              int32_t *restrict top)
{
    int64_t g = 0;
    for (; g + LANES <= G; g += LANES) {
        int32_t best[LANES];
        for (int l = 0; l < LANES; l++)
            best[l] = cm[g + l];
        for (int64_t s = 1; s < width; s++)
            for (int l = 0; l < LANES; l++)
                best[l] = max32(best[l], cm[s * G + g + l]);
        for (int l = 0; l < LANES; l++)
            top[g + l] = best[l];
    }
    for (; g < G; g++) {
        int32_t best = cm[g];
        for (int64_t s = 1; s < width; s++)
            best = max32(best, cm[s * G + g]);
        top[g] = best;
    }
}

/* Local mode's start, the first maximum of M in row-major order, as far as
 * row i: a band whose row max top[g] beats its best so far, ends[g * ENDS],
 * takes that max as its best and i as its row, ends[g * ENDS + 3]. Row 0
 * sets every band's. */
static inline void keep_start(const int32_t *restrict top, int64_t G, int64_t i,
                              int64_t *restrict ends)
{
    for (int64_t g = 0; g < G; g++)
        if (i == 0 || top[g] > ends[g * ENDS]) {
            ends[g * ENDS] = top[g];
            ends[g * ENDS + 3] = i;
        }
}

/* The first column of row i's window: i + lo clamped to 0..ncols - width; the caller
 * keeps |lo| <= 2^62 and 1 <= width <= ncols. */
static inline int64_t window(int64_t i, int64_t lo, int64_t ncols, int64_t width)
{
    const int64_t x = i + lo;
    return x < 0 ? 0 : x > ncols - width ? ncols - width : x;
}

/* Fill rows 1..m of M, Ix and Iy, each (m + 1, width, G) int32 in C order:
 * slot s of band g in row i sits at (i * width + s) * G + g, so a row's G
 * bands lie side by side as SIMD lanes (the inter-sequence layout of SWIPE,
 * Rognes 2011); row 0 is already set. rows holds m codes 0..4, cols (G,
 * ncols) codes 0..5, row i's window starts at column window(i, lo, ncols,
 * width), and table holds the 5 x 6 scores of (row code, column code).
 * scratch is (ROWS * ncols + 2) * G int32: the profile, the score of
 * every row code against every column, (ROWS, ncols, G), so a row's scores
 * are one plain load a cell; then the bands' Iy running maxima and row
 * maxima of M.
 *
 * In local mode each band's start, the first maximum of M in row-major
 * order, is found while its row is in cache: its value goes to
 * ends[g * ENDS] and its row to ends[g * ENDS + 3] (keep_start).
 *
 * The M and Ix steps of a row are each one branch-free loop over slot x
 * band that reads only the row above, so the compiler vectorizes them. The
 * Iy running max is serial along the slots. */
static inline void band_fill_rows(const uint8_t *restrict rows, int64_t m,
                                  const uint8_t *restrict cols, int64_t G, int64_t ncols,
                                  int64_t lo, int64_t width, const int32_t *restrict table,
                                  int32_t oe, int32_t e, int32_t local, int32_t *M, int32_t *Ix,
                                  int32_t *Iy, int32_t *restrict scratch, int64_t *restrict ends)
{
    const int64_t plane = width * G, columns = ncols * G;
    const int32_t ne = -e, iy_base = oe - e;
    int32_t *restrict profile = scratch, *restrict run = scratch + ROWS * columns;
    int32_t *restrict top = run + G;
    for (int r = 0; r < ROWS; r++)
        for (int64_t g = 0; g < G; g++)
            for (int64_t x = 0; x < ncols; x++)
                profile[r * columns + x * G + g] = table[CODES * r + cols[g * ncols + x]];
    if (local) {
        row_maxima(M, G, width, top);
        keep_start(top, G, 0, ends);
    }
    for (int64_t i = 1; i <= m; i++) {
        /* Diagonal coordinates (the window moved): M reads the same slot of
         * the row above and Ix the next, and Ix's last slot is unreachable.
         * Column coordinates: M reads the previous slot and Ix the same, and
         * M's first slot is unreachable. In the flat loops a slot is G
         * cells. */
        const int64_t first = window(i, lo, ncols, width);
        const int64_t step = first != window(i - 1, lo, ncols, width), lag = 1 - step;
        const int64_t back = lag * G, ahead = step * G, here = i * plane;
        const int32_t *restrict sub = profile + rows[i - 1] * columns + first * G;
        const int32_t *restrict pm = M + here - plane;
        const int32_t *restrict px = Ix + here - plane;
        const int32_t *restrict py = Iy + here - plane;
        int32_t *restrict cm = M + here;
        int32_t *restrict cx = Ix + here;
        int32_t *restrict cy = Iy + here;
        for (int64_t c = 0; c < back; c++)
            cm[c] = NEG;
        if (local) {
            for (int64_t c = back; c < plane; c++) {
                const int32_t best = max32(max32(pm[c - back], py[c - back]), px[c - back]);
                cm[c] = sub[c] + max32(best, 0);
            }
        } else {
            for (int64_t c = back; c < plane; c++)
                cm[c] = sub[c] + max32(max32(pm[c - back], py[c - back]), px[c - back]);
        }
        for (int64_t c = 0; c < plane - ahead; c++)
            cx[c] = max32(max32(pm[c + ahead], py[c + ahead]) + oe, px[c + ahead] + e);
        for (int64_t c = plane - ahead; c < plane; c++)
            cx[c] = NEG;
        /* Iy[s] = max over k < s of (H[k] - e*k) + oe - e + e*s, H = max(M, Ix) */
        for (int64_t g = 0; g < G; g++)
            cy[g] = NEG;
        if (G < LANES) { /* each chain also takes its band's row max */
            for (int64_t g = 0; g < G; g++) {
                int32_t r = max32(cm[g], cx[g]), best = cm[g];
                for (int64_t s = 1; s < width; s++) {
                    const int32_t t = (int32_t)s;
                    const int64_t c = s * G + g;
                    cy[c] = r + (iy_base + e * t);
                    r = max32(r, max32(cm[c], cx[c]) + ne * t);
                    best = max32(best, cm[c]);
                }
                top[g] = best;
            }
        } else {
            for (int64_t g = 0; g < G; g++)
                run[g] = max32(cm[g], cx[g]);
            for (int64_t s = 1; s < width; s++) {
                const int32_t t = (int32_t)s, open = iy_base + e * t, shift = ne * t;
                const int32_t *restrict sm = cm + s * G, *restrict sx = cx + s * G;
                int32_t *restrict sy = cy + s * G;
                for (int64_t g = 0; g < G; g++) {
                    sy[g] = run[g] + open;
                    run[g] = max32(run[g], max32(sm[g], sx[g]) + shift);
                }
            }
            if (local)
                row_maxima(cm, G, width, top);
        }
        if (local)
            keep_start(top, G, i, ends);
    }
}

/* The (M, Ix, Iy) values of cell (i, x), at slot x - window(i) of row i, or
 * all NEG outside the row's window. */
static inline void cell(const int32_t *M, const int32_t *Ix, const int32_t *Iy, int64_t rstride,
                        int64_t sstride, int64_t lo, int64_t ncols, int64_t width, int64_t i,
                        int64_t x, int64_t *v)
{
    const int64_t b = x - window(i, lo, ncols, width);
    if (0 <= b && b < width) {
        const int64_t at = i * rstride + b * sstride;
        v[0] = M[at];
        v[1] = Ix[at];
        v[2] = Iy[at];
    } else {
        v[0] = v[1] = v[2] = NEG;
    }
}

/* Trace the best path of one band back to its start.
 *
 * M, Ix and Iy hold rows 0..m of width slots, rows rstride elements apart
 * and slots sstride. The path walks matrix cells (i, x): M comes from (i - 1,
 * x - 1), Ix from (i - 1, x) and Iy from (i, x - 1), each read by cell().
 * Each step is one move, whatever the state: the next state is the first
 * predecessor k, in the order M, Ix, Iy, with here[k] + steps[state][k]
 * equal to the state's value less, for M, the pair's score. Candidate
 * scores are compared in int64, as Python compares its ints. In
 * local mode the path starts in row ends[3], at the first slot that holds the
 * band's M maximum ends[0], as band_fill_rows left them. Writes the path's
 * row codes, last column first, to out[0..cap) and its column codes to
 * out[cap..2 cap), and (score, start row, start column, end row, end column)
 * to ends. Returns the path length; 0 when local and no cell scores above 0;
 * -1 when a step finds no predecessor, a move leaves the matrix, or the path
 * would pass cap columns. */
static inline int64_t band_traceback(const int32_t *M, const int32_t *Ix, const int32_t *Iy,
                                     int64_t rstride, int64_t sstride, int64_t m, int64_t width,
                                     const uint8_t *rows, const uint8_t *cols, int64_t ncols,
                                     int64_t lo, const int32_t *table, int64_t oe, int64_t e,
                                     int32_t local, int64_t cap, uint8_t *out, int64_t *ends)
{
    /* [state][predecessor]: what a move from the predecessor into the state adds */
    const int64_t steps[3][3] = {{0, 0, 0}, {oe, e, oe}, {oe, oe, e}};
    int64_t i, x, score, here[3];
    int state = 0; /* 0 M, 1 Ix, 2 Iy: the preference order on ties */
    if (local) {
        i = ends[3];
        for (x = 0; M[i * rstride + x * sstride] != ends[0]; x++)
            ; /* the maximum's slot, then its column */
        x += window(i, lo, ncols, width);
        cell(M, Ix, Iy, rstride, sstride, lo, ncols, width, i, x, here);
        score = here[0];
        if (score <= 0)
            return 0;
    } else {
        i = m;
        x = ncols - 1;
        cell(M, Ix, Iy, rstride, sstride, lo, ncols, width, i, x, here);
        score = here[0];
        for (int k = 1; k < 3; k++)
            if (here[k] > score) {
                score = here[k];
                state = k;
            }
    }
    ends[3] = i;
    ends[4] = x;
    int64_t n = 0;
    for (;;) {
        /* the move consumes row code rows[i - 1] unless it is Iy, and column code
         * cols[x] unless it is Ix; a code outside the matrix, or an M move's outside
         * the sequence, leaves the path with no predecessor */
        const int down = state != 2, left = state != 1;
        if (n >= cap || (down && i < 1) || (left && (x < 0 || x >= ncols)) ||
            (state == 0 && cols[x] >= OUTSIDE))
            return -1;
        const uint8_t r = down ? rows[i - 1] : GAP, c = left ? cols[x] : GAP;
        out[n] = r;
        out[cap + n++] = c;
        const int64_t target = here[state] - (state == 0 ? table[CODES * r + c] : 0);
        i -= down;
        x -= left;
        if (local && state == 0 && target == 0)
            break; /* a fresh start */
        cell(M, Ix, Iy, rstride, sstride, lo, ncols, width, i, x, here);
        if (i == 0 && x == 0 && !local)
            break;
        int k = 0;
        while (k < 3 && here[k] + steps[state][k] != target)
            k++;
        if (k == 3)
            return -1;
        state = k;
    }
    ends[0] = score;
    ends[1] = i;
    ends[2] = x;
    return n;
}

/* Fill rows 1..m of the G bands and trace each band's best path back to
 * its start. cells is the (3, m + 1, width, G) int32 block of M, Ix and Iy
 * in C order, row 0 already set; the other arguments are band_fill_rows'.
 *
 * Band g writes its path's row codes and column codes to row g of the
 * (G, 2, cap) out and (score, start row, start column, end row, end column,
 * length) to row g of the (G, ENDS) ends; length 0 means local and no cell
 * scores above 0, and the other entries of that row are then unset.
 * Returns 0, or -1 when a band's traceback fails as band_traceback says;
 * the bands after it are then not traced. */
static inline int64_t align_bands(const uint8_t *rows, int64_t m, const uint8_t *cols, int64_t G,
                                  int64_t ncols, int64_t lo, int64_t width,
                                  const int32_t *table, int32_t oe, int32_t e, int32_t local,
                                  int32_t *cells, int32_t *scratch, int64_t cap, uint8_t *out,
                                  int64_t *ends)
{
    const int64_t block = (m + 1) * width * G;
    int32_t *M = cells, *Ix = cells + block, *Iy = cells + 2 * block;
    band_fill_rows(rows, m, cols, G, ncols, lo, width, table, oe, e, local, M, Ix, Iy, scratch,
                   ends);
    for (int64_t g = 0; g < G; g++) {
        int64_t *band_ends = ends + g * ENDS;
        const int64_t n = band_traceback(M + g, Ix + g, Iy + g, width * G, G, m, width, rows,
                                         cols + g * ncols, ncols, lo, table, oe, e, local,
                                         cap, out + 2 * g * cap, band_ends);
        if (n < 0)
            return -1;
        band_ends[ENDS - 1] = n;
    }
    return 0;
}

/* ---- k-mer seeding ---------------------------------------------------- */

#define NCODE 4  /* the base code of N: a window that holds one is not a seed */
#define BATCH 16 /* binary searches run in lockstep */

/* For each of the nb codes x, the first of the n ascending codes that
 * equals it, in at; where none does, codes[at] differs (or n is 0).
 * While x is present its first entry stays among the n entries from at,
 * since a probe below x lies before it, so at ends on it and the usual
 * last step of a lower bound is not needed. The nb searches probe in
 * lockstep, so their loads overlap rather than wait on each other. Each
 * step is a multiply, not a branch: a conditional step compiles to a jump
 * that mispredicts on half the probes. */
static void first_entries(const uint64_t *codes, int64_t n, const uint64_t *x, int64_t *at,
                          int nb)
{
    for (int b = 0; b < nb; b++)
        at[b] = 0;
    for (; n > 1; n -= n / 2) {
        const int64_t half = n / 2;
        for (int b = 0; b < nb; b++)
            at[b] += (int64_t)(codes[at[b] + half - 1] < x[b]) * half;
    }
}

/* A query's k-mer seeds, as (subject, diagonal) pairs in query order.
 *
 * query holds n base codes 0..4 (A C G T N) and 1 <= k <= 32. The index's
 * W windows have ascending 2-bit codes in codes, window w starting at
 * offsets[w] of subject subject_idx[w]. A query window that starts at q
 * and holds no N seeds every index window of its code, on diagonal
 * q - offsets[w]; the seeds come window by window from q = 0, and within
 * a query window in index order.
 *
 * Writes the number of seeds to *total. When it is above cap, returns 0
 * and work holds no result: call again with a larger cap. Otherwise work,
 * 2 x cap int64, gets the G seeds left after dropping each seed whose pair
 * equals the last one written: subject in work[0..G) and diagonal in
 * work[cap..cap + G); returns G. Returns -1 when a seed's subject is
 * negative or its diagonal does not fit an int64. */
int64_t seed_diagonals(const uint8_t *query, int64_t n, int64_t k, const uint64_t *codes,
                       const int64_t *subject_idx, const int64_t *offsets, int64_t W,
                       int64_t cap, int64_t *work, int64_t *total)
{
    /* k = 32 keeps all 64 bits: 1 << 64 is undefined, a shift by 0 is not */
    const uint64_t mask = ~(uint64_t)0 >> (64 - 2 * k);
    int64_t *subj = work, *diag = work + cap;
    int64_t t = 0, g = 0, bad = 0;
    uint64_t code = 0;
    int64_t clean = 0; /* N-free bases ending at j */
    uint64_t x[BATCH];
    int64_t qs[BATCH], at[BATCH];
    int nb = 0;
    for (int64_t j = 0; j < n; j++) {
        const uint8_t b = query[j];
        clean = b == NCODE ? 0 : clean + 1;
        code = ((code << 2) | (uint64_t)(b & 3)) & mask;
        if (clean >= k) {
            x[nb] = code;
            qs[nb++] = j - k + 1;
        }
        if (nb < BATCH && j < n - 1)
            continue;
        first_entries(codes, W, x, at, nb);
        for (int i = 0; i < nb; i++) {
            const int64_t lo = at[i], q = qs[i];
            int64_t hi = lo;
            while (hi < W && codes[hi] == x[i])
                hi++;
            t += hi - lo;
            if (t > cap) /* count on, write nothing */
                continue;
            for (int64_t w = lo; w < hi; w++) {
                const int64_t s = subject_idx[w];
                int64_t d;
                bad |= __builtin_sub_overflow(q, offsets[w], &d) | (s < 0);
                if (g > 0 && subj[g - 1] == s && diag[g - 1] == d)
                    continue;
                subj[g] = s;
                diag[g++] = d;
            }
        }
        nb = 0;
    }
    *total = t;
    if (t > cap)
        return 0;
    return bad ? -1 : g;
}


/* ---- training ---------------------------------------------------------- */

/* Inputs, targets, activations and deltas are feature-major: one row a unit,
 * holding that unit's S samples in order. Each element-wise step is one
 * plain loop over a row or over a whole layer block, which the compiler
 * vectorizes at whatever width its target allows, and each element still
 * gets the IEEE operations of neural._train_numpy in their order. Every sum
 * over samples runs one sample at a time, in sample order. */

/* The fixed exp's constants, as neural._fixed_exp and neural._exp_float spell
 * them: exp(x) rounds to 0 at and below EXP_LO; ln 2 split for the Cody-Waite
 * reduction; and 1/0! .. 1/12!, each quotient rounded once, as Python's
 * 1.0 / factorial(i). */
#define EXP_LO (-746.0)
#define INV_LN2 0x1.71547652b82fep+0
#define LN2_HI 0x1.62e42feep-1 /* the low 21 bits are 0, so k * LN2_HI is exact */
#define LN2_LO 0x1.a39ef35793c76p-33
#define ROUND 0x1.8p52 /* (v + ROUND) - ROUND is v rounded to an integer, for |v| < 2^51 */
#define TERMS 13

static const double TAYLOR[TERMS] = {
    1.0, 1.0, 1.0 / 2, 1.0 / 6, 1.0 / 24, 1.0 / 120, 1.0 / 720, 1.0 / 5040, 1.0 / 40320,
    1.0 / 362880, 1.0 / 3628800, 1.0 / 39916800, 1.0 / 479001600,
};

static inline uint64_t bits(double d) { uint64_t u; memcpy(&u, &d, sizeof u); return u; }
static inline double from_bits(uint64_t u) { double d; memcpy(&d, &u, sizeof d); return d; }

#define SIGN 0x8000000000000000u /* the sign bit of a double */
#define INF 0x7ff0000000000000u  /* the bits of +inf: a larger magnitude is a nan */

/* All ones where d's sign bit is set, else 0. The sigmoid makes each choice
 * with such a mask, in integer operations that SSE2 has: a branch would
 * leave an operation on one path only, and the compiler vectorizes no loop
 * whose operation might trap on a path not taken. */
static inline uint64_t sign_mask(double d) { return -(bits(d) >> 63); }

/* All ones where d is a nan, else 0. */
static inline uint64_t nan_mask(double d) { return -((INF - (bits(d) & ~SIGN)) >> 63); }

/* a where mask is all ones, b where it is 0 */
static inline double blend(uint64_t mask, double a, double b)
{
    return from_bits((bits(a) & mask) | (bits(b) & ~mask));
}

/* neural._sigmoid of the n values at z, in place: (z >= 0 ? 1 : e) / (1 + e)
 * with e = exp(-|z|), which never overflows. A z of -0 takes e, which is 1.
 *
 * The exp is neural._fixed_exp. Cody-Waite reduction x = -|z| = k ln 2 + r,
 * with c = x clamped at EXP_LO, as is -inf, so v = c / ln 2 + 0.5 is in
 * [-1076.3, 0.5]; k = floor(v) is v rounded to an integer, less 1 where that
 * rounded up, and the low bits of v + ROUND hold it as an integer. Then the
 * degree-12 Taylor polynomial in Horner form, then ldexp(p, k) written out
 * as p * 2^(k + 64) * 2^-64: the first product is exact, and the second is
 * exact while the result is normal and rounds a subnormal result once, as
 * libm's ldexp does. A nan computes garbage, whose sign the hardware sets,
 * and is put back at the end. */
static inline void sigmoid_layer(double *restrict z, int64_t n)
{
    for (int64_t y = 0; y < n; y++) {
        const double x = from_bits(bits(z[y]) | SIGN);
        const double c = blend(sign_mask(x - EXP_LO), EXP_LO, x);
        const double v = c * INV_LN2 + 0.5, big = v + ROUND, rounded = big - ROUND;
        const uint64_t up = sign_mask(v - rounded); /* v - rounded is exact */
        const double k = rounded - from_bits(up & bits(1.0));
        const uint64_t biased = bits(big) - bits(ROUND) + up + 64 + 1023; /* k + 64 + 1023 */
        const double r = (c - k * LN2_HI) - k * LN2_LO;
        double p = TAYLOR[TERMS - 1];
        for (int i = TERMS - 2; i >= 0; i--)
            p = p * r + TAYLOR[i];
        const double e = blend(nan_mask(x), x, p * from_bits(biased << 52) * 0x1p-64);
        z[y] = blend(sign_mask(z[y]), e, 1.0) / (1.0 + e);
    }
}

/* o = w * a, o = o + w * a, and o = o + w[0] * a[0..n) + ... + w[3] * a[3n..4n)
 * added left to right, over the n values of a row: four rows a pass, so the
 * sum stays in registers between them */
static inline void row_times(double *restrict o, double w, const double *restrict a, int64_t n)
{
    for (int64_t s = 0; s < n; s++)
        o[s] = w * a[s];
}

static inline void row_add_times(double *restrict o, double w, const double *restrict a,
                                 int64_t n)
{
    for (int64_t s = 0; s < n; s++)
        o[s] = o[s] + w * a[s];
}

static inline void row_add_times4(double *restrict o, const double *restrict w,
                                  const double *restrict a, int64_t n)
{
    for (int64_t s = 0; s < n; s++)
        o[s] = (((o[s] + w[0] * a[s]) + w[1] * a[n + s]) + w[2] * a[2 * n + s]) +
               w[3] * a[3 * n + s];
}

/* Every layer's activations: layer l (l >= 1) is a (sizes[l], S) block of
 * acts, the blocks in layer order, from the (sizes[0], S) inputs x. A unit's
 * input is w0 * a0, then + wi * ai in index order, then + b. */
static inline void forward_all(const int64_t *sizes, int64_t layers, const double *x, int64_t S,
                               const double *params, double *acts)
{
    const double *in = x, *w = params;
    double *out = acts;
    for (int64_t l = 1; l < layers; l++) {
        const int64_t n_in = sizes[l - 1], n_out = sizes[l];
        const double *b = w + n_out * n_in;
        for (int64_t j = 0; j < n_out; j++) {
            const double *wj = w + j * n_in;
            double *z = out + j * S;
            row_times(z, wj[0], in, S);
            int64_t i = 1;
            for (; i + 4 <= n_in; i += 4)
                row_add_times4(z, wj + i, in + i * S, S);
            for (; i < n_in; i++)
                row_add_times(z, wj[i], in + i * S, S);
            for (int64_t s = 0; s < S; s++)
                z[s] = z[s] + b[j];
        }
        sigmoid_layer(out, n_out * S);
        in = out;
        out += n_out * S;
        w = b + n_out;
    }
}

/* The gradient of scale * sum over the S samples and the outputs of
 * (out - t)^2, into grads (params' layout), from forward_all's acts; t is
 * (sizes[layers - 1], S). Every sum over samples runs in sample order and
 * every sum over units in index order. delta is scratch for 2 * S * (the
 * largest of sizes[1..]). */
static inline void backward(const int64_t *sizes, int64_t layers, const double *x,
                            const double *t, int64_t S, double scale, const double *params,
                            const double *acts, double *grads, double *delta)
{
    int64_t widest = 0, at = 0, act_at = 0;
    for (int64_t l = 1; l < layers; l++) {
        widest = sizes[l] > widest ? sizes[l] : widest;
        at += (sizes[l - 1] + 1) * sizes[l];
        act_at += S * sizes[l];
    }
    double *cur = delta, *prev = delta + S * widest;
    const double two_scale = 2.0 * scale;
    int64_t n_out = sizes[layers - 1];
    act_at -= S * n_out;
    const double *out = acts + act_at;
    for (int64_t y = 0; y < S * n_out; y++)
        cur[y] = two_scale * (out[y] - t[y]) * out[y] * (1.0 - out[y]);
    for (int64_t l = layers - 1; l >= 1; l--) {
        const int64_t n_in = sizes[l - 1];
        at -= (n_in + 1) * n_out;
        const double *w = params + at;
        double *gw = grads + at, *gb = gw + n_out * n_in;
        const double *in = x;
        if (l > 1) {
            act_at -= S * n_in;
            in = acts + act_at;
        }
        for (int64_t j = 0; j < n_out; j++) {
            const double *d = cur + j * S;
            for (int64_t i = 0; i < n_in; i++) {
                const double *a = in + i * S;
                double g = d[0] * a[0];
                for (int64_t s = 1; s < S; s++)
                    g = g + d[s] * a[s];
                gw[j * n_in + i] = g;
            }
            double g = d[0];
            for (int64_t s = 1; s < S; s++)
                g = g + d[s];
            gb[j] = g;
        }
        if (l > 1) {
            for (int64_t i = 0; i < n_in; i++) {
                double *p = prev + i * S;
                row_times(p, w[i], cur, S);
                for (int64_t j = 1; j < n_out; j++)
                    row_add_times(p, w[j * n_in + i], cur + j * S, S);
            }
            for (int64_t y = 0; y < S * n_in; y++)
                prev[y] = prev[y] * in[y] * (1.0 - in[y]);
            double *swap = cur;
            cur = prev;
            prev = swap;
        }
        n_out = n_in;
    }
}

/* Full-batch gradient descent with momentum, as neural._train_numpy runs it.
 *
 * sizes holds the layers >= 2 layer sizes, each >= 1. x (sizes[0], S) and t
 * (sizes[layers - 1], S) are feature-major: one row a unit, holding its
 * S >= 1 samples in order. params and vel hold P = sum of (sizes[l - 1] + 1)
 * * sizes[l] values in the layout W0, b0, W1, b1, ..., and grads is scratch
 * for P. acts is scratch for S times the sum of sizes[1..], delta for 2 * S
 * times their maximum.
 *
 * Each epoch takes the gradient of the MSE at params, steps vel and params,
 * and writes the new MSE to history. Stops after the first epoch whose MSE
 * is at or below target_mse or not finite, or after epochs epochs; returns
 * the number run. */
static inline int64_t train(const int64_t *sizes, int64_t layers, const double *x,
                            const double *t, int64_t S, double lr, double momentum,
                            double target_mse, int64_t epochs, double *params, double *vel,
                            double *grads, double *acts, double *delta, double *history)
{
    int64_t P = 0, act_at = 0;
    for (int64_t l = 1; l < layers; l++) {
        P += (sizes[l - 1] + 1) * sizes[l];
        act_at += S * sizes[l];
    }
    const int64_t n_out = sizes[layers - 1];
    const double *out = acts + act_at - S * n_out;
    const double scale = 1.0 / (double)S;
    forward_all(sizes, layers, x, S, params, acts);
    for (int64_t epoch = 0; epoch < epochs; epoch++) {
        backward(sizes, layers, x, t, S, scale, params, acts, grads, delta);
        for (int64_t p = 0; p < P; p++) {
            const double v = vel[p] * momentum - lr * grads[p];
            vel[p] = v;
            params[p] = params[p] + v;
        }
        forward_all(sizes, layers, x, S, params, acts);
        double sum = 0.0;
        for (int64_t s = 0; s < S; s++)
            for (int64_t j = 0; j < n_out; j++) {
                const double err = out[j * S + s] - t[j * S + s];
                sum = sum + err * err; /* +0.0 + err * err is err * err, as err * err >= +0.0 */
            }
        const double mse = sum / (double)(S * n_out);
        history[epoch] = mse;
        if (mse <= target_mse || !isfinite(mse))
            return epoch + 1;
    }
    return epochs;
}

/* band_align and train_epochs, compiled once for each instruction set
 * listed: flatten inlines every call, so the whole fill and traceback, and
 * the whole epoch, are built for the entry's target. band_align has no
 * AVX-512 entry: built so, it tied the AVX2 one on screen-large-db's 8-band
 * search batches and was 9-12 % slower on 2-band batches cut from them. */
#define ALIGN_ENTRY(suffix, ...)                                                                  \
    __attribute__((__VA_ARGS__)) int64_t band_align##suffix(                                      \
        const uint8_t *rows, int64_t m, const uint8_t *cols, int64_t G, int64_t ncols,            \
        int64_t lo, int64_t width, const int32_t *table, int32_t oe, int32_t e, int32_t local,    \
        int32_t *cells, int32_t *scratch, int64_t cap, uint8_t *out, int64_t *ends)               \
    {                                                                                             \
        return align_bands(rows, m, cols, G, ncols, lo, width, table, oe, e, local, cells,        \
                           scratch, cap, out, ends);                                              \
    }
#define TRAIN_ENTRY(suffix, ...)                                                                  \
    __attribute__((__VA_ARGS__)) int64_t train_epochs##suffix(                                    \
        const int64_t *sizes, int64_t layers, const double *x, const double *t, int64_t S,        \
        double lr, double momentum, double target_mse, int64_t epochs, double *params,            \
        double *vel, double *grads, double *acts, double *delta, double *history)                 \
    {                                                                                             \
        return train(sizes, layers, x, t, S, lr, momentum, target_mse, epochs, params, vel,       \
                     grads, acts, delta, history);                                                \
    }

ALIGN_ENTRY(, flatten)
TRAIN_ENTRY(, flatten)
#if defined(__x86_64__)
ALIGN_ENTRY(_avx2, flatten, target("avx2"))
TRAIN_ENTRY(_avx2, flatten, target("avx2"))
TRAIN_ENTRY(_avx512, flatten, target("avx512f"))
#endif

/* The widest entries this CPU runs: 2 for train_epochs_avx512 (and
 * band_align_avx2), 1 for the _avx2 entries, 0 for band_align and
 * train_epochs, the only ones built off x86-64. */
int64_t isa_level(void)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return 2;
    if (__builtin_cpu_supports("avx2"))
        return 1;
#endif
    return 0;
}
