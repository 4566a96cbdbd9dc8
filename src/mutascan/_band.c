/* The three compiled kernels of mutascan: banded Gotoh alignment, k-mer
 * seeding and classifier training.
 *
 * band_align fills every band of a banded three-state affine-gap (Gotoh)
 * alignment and traces each back to its start. band_fill_rows mirrors
 * align._fill_rows_numpy and band_traceback mirrors
 * align._band_traceback_python, value for value; their docstrings describe
 * the band layout. seed_diagonals finds a query's k-mer seeds in a
 * homology.KmerIndex and lists the (subject, diagonal) pairs they seed, as
 * homology._seed_diagonals_numpy does. train_epochs runs full-batch
 * gradient-descent epochs as neural._train_numpy does, bit for bit. Without
 * a compiler all three run as those numpy and Python functions instead.
 * Build with -fwrapv: int32 sums then wrap as numpy's do. Build with
 * -ffp-contract=off: a * b + c then rounds twice, as in numpy, and is never
 * fused where the base ISA has FMA. The Python caller (mutascan._native)
 * checks every array's dtype, shape and C order, every code, every row
 * window, k and the layer sizes before the call.
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

/* Fill rows 1..m of M, Ix and Iy, each (m + 1, G, width) int32 in C order;
 * row 0 is already set. rows holds m codes 0..4, cols (G, ncols) codes
 * 0..5, offsets m + 1 window starts with 0 <= offsets[i] <= ncols - width
 * for i >= 1, and table the 5 x 6 scores of (row code, column code).
 * profile is scratch for ROWS * G * ncols int32: the score of every row
 * code against every column, so a row's scores are one plain load a slot.
 *
 * Every loop over a row's slots but the Iy running max is branch-free and
 * reads only the row above, so the compiler vectorizes it. */
static void band_fill_rows(const uint8_t *restrict rows, int64_t m, const uint8_t *restrict cols,
                           int64_t G, int64_t ncols, const int64_t *restrict offsets,
                           int64_t width, const int32_t *restrict table, int32_t oe, int32_t e,
                           int32_t local, int32_t *M, int32_t *Ix, int32_t *Iy,
                           int32_t *restrict profile)
{
    const int64_t plane = G * width, columns = G * ncols;
    const int32_t ne = -e, iy_base = oe - e;
    for (int r = 0; r < ROWS; r++)
        for (int64_t x = 0; x < columns; x++)
            profile[r * columns + x] = table[CODES * r + cols[x]];
    for (int64_t i = 1; i <= m; i++) {
        /* Diagonal coordinates (the window moved): M reads the same slot of
         * the row above and Ix the next, and Ix's last slot is unreachable.
         * Column coordinates: M reads the previous slot and Ix the same, and
         * M's first slot is unreachable. */
        const int64_t step = offsets[i] != offsets[i - 1], lag = 1 - step;
        for (int64_t g = 0; g < G; g++) {
            const int32_t *restrict sub = profile + rows[i - 1] * columns + g * ncols + offsets[i];
            const int64_t here = i * plane + g * width;
            const int32_t *restrict pm = M + here - plane;
            const int32_t *restrict px = Ix + here - plane;
            const int32_t *restrict py = Iy + here - plane;
            int32_t *restrict cm = M + here;
            int32_t *restrict cx = Ix + here;
            int32_t *restrict cy = Iy + here;
            if (lag)
                cm[0] = NEG;
            if (local) {
                for (int64_t s = lag; s < width; s++) {
                    const int32_t best = max32(max32(pm[s - lag], py[s - lag]), px[s - lag]);
                    cm[s] = sub[s] + max32(best, 0);
                }
            } else {
                for (int64_t s = lag; s < width; s++)
                    cm[s] = sub[s] + max32(max32(pm[s - lag], py[s - lag]), px[s - lag]);
            }
            for (int64_t s = 0; s < width - step; s++)
                cx[s] = max32(max32(pm[s + step], py[s + step]) + oe, px[s + step] + e);
            if (step)
                cx[width - 1] = NEG;
            /* Iy[s] = max over k < s of (H[k] - e*k) + oe - e + e*s, H = max(M, Ix) */
            int32_t run = max32(cm[0], cx[0]);
            cy[0] = NEG;
            for (int64_t s = 1; s < width; s++) {
                const int32_t t = (int32_t)s;
                cy[s] = run + (iy_base + e * t);
                run = max32(run, max32(cm[s], cx[s]) + ne * t);
            }
        }
    }
}

/* The (M, Ix, Iy) values of slot b of row i, or all NEG outside the window. */
static inline void cell(const int32_t *M, const int32_t *Ix, const int32_t *Iy,
                        int64_t rstride, int64_t width, int64_t i, int64_t b, int64_t *v)
{
    if (0 <= b && b < width) {
        v[0] = M[i * rstride + b];
        v[1] = Ix[i * rstride + b];
        v[2] = Iy[i * rstride + b];
    } else {
        v[0] = v[1] = v[2] = NEG;
    }
}

/* Trace the best path of one band back to its start.
 *
 * M, Ix and Iy hold rows 0..m of width slots, rstride elements apart.
 * Candidate scores are compared in int64, as Python compares its ints.
 * Writes the path's row codes, last column first, to out[0..cap) and its
 * column codes to out[cap..2 cap), and (score, start row, start column,
 * end row, end column) to ends, a cell's column being offsets[i] + b.
 * Returns the path length; 0 when local and no cell scores above 0; -1
 * when a step finds no predecessor, a move leaves the matrix, or the path
 * would pass cap columns. */
static int64_t band_traceback(const int32_t *M, const int32_t *Ix, const int32_t *Iy,
                              int64_t rstride, int64_t m, int64_t width, const uint8_t *rows,
                              const uint8_t *cols, int64_t ncols, const int64_t *offsets,
                              const int32_t *table, int64_t oe, int64_t e, int32_t local,
                              int64_t cap, uint8_t *out, int64_t *ends)
{
    int64_t i, b, score, here[3], cand[3];
    int state = 0; /* 0 M, 1 Ix, 2 Iy: the preference order on ties */
    if (local) { /* the first maximum of M in row-major order */
        int32_t best = M[0];
        i = b = 0;
        for (int64_t r = 0; r <= m; r++) {
            const int32_t *row = M + r * rstride;
            int32_t top = row[0];
            for (int64_t s = 1; s < width; s++) /* branch-free, so it vectorizes */
                top = max32(top, row[s]);
            if (top > best) { /* only then find the row's first slot that holds it */
                best = top;
                i = r;
                for (b = 0; row[b] != top; b++)
                    ;
            }
        }
        cell(M, Ix, Iy, rstride, width, i, b, here);
        score = here[0];
        if (score <= 0)
            return 0;
    } else {
        i = m;
        b = ncols - 1 - offsets[m];
        cell(M, Ix, Iy, rstride, width, i, b, here);
        score = here[0];
        for (int k = 1; k < 3; k++)
            if (here[k] > score) {
                score = here[k];
                state = k;
            }
    }
    ends[3] = i;
    ends[4] = offsets[i] + b;
    const int64_t origin = -offsets[0];
    int64_t n = 0;
    for (;;) {
        int64_t target;
        if (n >= cap)
            return -1;
        if (state == 0) {
            const int64_t x = offsets[i] + b;
            if (i < 1 || x < 0 || x >= ncols || cols[x] >= OUTSIDE)
                return -1;
            const uint8_t r = rows[i - 1], c = cols[x];
            out[n] = r;
            out[cap + n++] = c;
            target = here[0] - table[CODES * r + c];
            b += offsets[i] - offsets[i - 1] - 1;
            i -= 1;
            if (local && target == 0)
                break;
            cell(M, Ix, Iy, rstride, width, i, b, here);
            cand[0] = here[0];
            cand[1] = here[1];
            cand[2] = here[2];
        } else if (state == 1) {
            if (i < 1)
                return -1;
            out[n] = rows[i - 1];
            out[cap + n++] = GAP;
            target = here[1];
            b += offsets[i] - offsets[i - 1];
            i -= 1;
            cell(M, Ix, Iy, rstride, width, i, b, here);
            cand[0] = here[0] + oe;
            cand[1] = here[1] + e;
            cand[2] = here[2] + oe;
        } else {
            const int64_t x = offsets[i] + b;
            if (x < 0 || x >= ncols)
                return -1;
            out[n] = GAP;
            out[cap + n++] = cols[x];
            target = here[2];
            b -= 1;
            cell(M, Ix, Iy, rstride, width, i, b, here);
            cand[0] = here[0] + oe;
            cand[1] = here[1] + oe;
            cand[2] = here[2] + e;
        }
        if (i == 0 && b == origin && !local)
            break;
        if (cand[0] == target)
            state = 0;
        else if (cand[1] == target)
            state = 1;
        else if (cand[2] == target)
            state = 2;
        else
            return -1;
    }
    ends[0] = score;
    ends[1] = i;
    ends[2] = offsets[i] + b;
    return n;
}

/* Fill rows 1..m of the G bands and trace each band's best path back to
 * its start. cells is the (3, m + 1, G, width) int32 block of M, Ix and Iy
 * in C order, row 0 already set; the other arguments are band_fill_rows'.
 *
 * Band g writes its path's row codes and column codes to row g of the
 * (G, 2, cap) out and (score, start row, start column, end row, end column,
 * length) to row g of the (G, ENDS) ends; length 0 means local and no cell
 * scores above 0, and the other entries of that row are then unset.
 * Returns 0, or -1 when a band's traceback fails as band_traceback says;
 * the bands after it are then not traced. */
int64_t band_align(const uint8_t *rows, int64_t m, const uint8_t *cols, int64_t G, int64_t ncols,
                   const int64_t *offsets, int64_t width, const int32_t *table, int32_t oe,
                   int32_t e, int32_t local, int32_t *cells, int32_t *profile, int64_t cap,
                   uint8_t *out, int64_t *ends)
{
    const int64_t block = (m + 1) * G * width;
    int32_t *M = cells, *Ix = cells + block, *Iy = cells + 2 * block;
    band_fill_rows(rows, m, cols, G, ncols, offsets, width, table, oe, e, local, M, Ix, Iy,
                   profile);
    for (int64_t g = 0; g < G; g++) {
        int64_t *band_ends = ends + g * ENDS;
        const int64_t n = band_traceback(M + g * width, Ix + g * width, Iy + g * width,
                                         G * width, m, width, rows, cols + g * ncols, ncols,
                                         offsets, table, oe, e, local, cap, out + 2 * g * cap,
                                         band_ends);
        if (n < 0)
            return -1;
        band_ends[ENDS - 1] = n;
    }
    return 0;
}

/* ---- k-mer seeding ---------------------------------------------------- */

#define NCODE 4       /* the base code of N: a window that holds one is not a seed */
#define DIGIT_BITS 11 /* radix digit; a 2,048-entry count table fits on the stack */
#define DIGITS (1 << DIGIT_BITS)
#define BATCH 16      /* binary searches run in lockstep */

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

/* Stable sort of n keys below 2^bits by DIGIT_BITS-bit digits, least
 * significant first, ping-ponging between a and b. Returns the buffer that
 * holds the sorted keys. */
static uint64_t *radix_sort(uint64_t *a, uint64_t *b, int64_t n, int bits)
{
    for (int shift = 0; shift < bits; shift += DIGIT_BITS) {
        int64_t count[DIGITS] = {0};
        for (int64_t i = 0; i < n; i++)
            count[(a[i] >> shift) & (DIGITS - 1)]++;
        int64_t at = 0;
        for (int d = 0; d < DIGITS; d++) {
            const int64_t c = count[d];
            count[d] = at;
            at += c;
        }
        for (int64_t i = 0; i < n; i++)
            b[count[(a[i] >> shift) & (DIGITS - 1)]++] = a[i];
        uint64_t *t = a;
        a = b;
        b = t;
    }
    return a;
}

/* The (subject, diagonal) pairs that a query's k-mer seeds fall on.
 *
 * query holds n base codes 0..4 (A C G T N) and 1 <= k <= 32. The index's
 * W windows have ascending 2-bit codes in codes, window w starting at
 * offsets[w] of subject subject_idx[w]. A query window that starts at q
 * and holds no N seeds every index window of its code, on diagonal
 * q - offsets[w].
 *
 * Writes the number of seeds to *total. When it is above cap, returns 0
 * and writes nothing else: call again with a larger cap. Otherwise work,
 * 2 x cap int64, ends with the G pairs in ascending order: subject in
 * work[0..G) and diagonal in work[cap..cap + G); returns G. Returns -1
 * when a seed's subject is negative or its key, subject * span +
 * diagonal - low (span and low taken over the seeds' diagonals), would
 * not fit an int64; no key is formed then. */
int64_t seed_diagonals(const uint8_t *query, int64_t n, int64_t k, const uint64_t *codes,
                       const int64_t *subject_idx, const int64_t *offsets, int64_t W,
                       int64_t cap, int64_t *work, int64_t *total)
{
    /* k = 32 keeps all 64 bits: 1 << 64 is undefined, a shift by 0 is not */
    const uint64_t mask = ~(uint64_t)0 >> (64 - 2 * k);
    int64_t *diag = work, *subj = work + cap;
    int64_t t = 0, low = INT64_MAX, high = INT64_MIN, top = 0, bad = 0;
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
            if (t + (hi - lo) > cap) { /* count on, write nothing */
                t += hi - lo;
                continue;
            }
            for (int64_t w = lo; w < hi; w++, t++) {
                const int64_t s = subject_idx[w];
                int64_t d;
                bad |= __builtin_sub_overflow(q, offsets[w], &d) | (s < 0);
                diag[t] = d;
                subj[t] = s;
                low = d < low ? d : low;
                high = d > high ? d : high;
                top = s > top ? s : top;
            }
        }
        nb = 0;
    }
    *total = t;
    if (t > cap || t == 0)
        return 0;
    /* keys up to top * span + span - 1 must fit an int64 */
    uint64_t span; /* high - low first: never negative, as high >= low */
    if (bad || __builtin_sub_overflow(high, low, &span) || span > (uint64_t)INT64_MAX ||
        (uint64_t)top > ((uint64_t)INT64_MAX - span) / (span + 1))
        return -1;
    span += 1;
    uint64_t *keys = (uint64_t *)diag, *spare = (uint64_t *)subj;
    for (int64_t i = 0; i < t; i++)
        keys[i] = (uint64_t)subj[i] * span + (uint64_t)(diag[i] - low);
    const uint64_t largest = (uint64_t)top * span + span - 1;
    int bits = 0;
    while (bits < 64 && largest >> bits)
        bits++;
    uint64_t *sorted = radix_sort(keys, spare, t, bits);
    /* Keep one key of each run of equal keys at sorted[g], then decode the
     * G keys in place: key i is read before work[i] and work[cap + i] are
     * written, and sorted is one of those two rows. */
    int64_t g = 1;
    for (int64_t i = 1; i < t; i++)
        if (sorted[i] != sorted[g - 1])
            sorted[g++] = sorted[i];
    for (int64_t i = 0; i < g; i++) {
        const uint64_t key = sorted[i];
        work[i] = (int64_t)(key / span);
        work[cap + i] = (int64_t)(key % span) + low;
    }
    return g;
}

/* ---- training ---------------------------------------------------------- */

/* Samples are the lanes of a V, and each operation on a V acts on each lane
 * alone, so every sample sees the IEEE operations of neural._train_numpy in
 * its order. Only element-wise work is vectorized: every sum over samples
 * runs one sample at a time, in sample order. */
typedef double V __attribute__((vector_size(16)));
typedef int64_t VI __attribute__((vector_size(16)));
#define LANES 2 /* doubles in a V; _native._LANES */

static inline V load(const double *p) { V v; memcpy(&v, p, sizeof v); return v; }
static inline void store(double *p, V v) { memcpy(p, &v, sizeof v); }
static inline V splat(double d) { return (V){d, d}; }
/* Each lane from a where mask is all ones, else from b. */
static inline V select(VI mask, V a, V b) { return (V)((mask & (VI)a) | (~mask & (VI)b)); }

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

/* neural._sigmoid of the n values at z, n a multiple of LANES, in place:
 * (z >= 0 ? 1 : e) / (1 + e) with e = exp(-|z|), which never overflows.
 *
 * The exp is neural._fixed_exp in SSE2 operations. Cody-Waite reduction
 * -|z| = k ln 2 + r, clamped at EXP_LO, so v is in [-1076.3, 0.5]; floor(v)
 * is v rounded to an integer, less 1 where that rounded up, and its int64
 * lanes are the low bits of v + ROUND. Then the degree-12 Taylor polynomial
 * in Horner form, then ldexp(p, k) written out: 2^k scales exactly while the
 * result is normal, and a subnormal result is rounded once, by the product
 * with 2^-64, as libm's ldexp rounds it. A nan lane computes garbage and is
 * put back at the end. */
static void sigmoid_layer(double *z, int64_t n)
{
    for (int64_t y = 0; y < n; y += LANES) {
        const V zv = load(z + y), x = (V)((VI)zv | (VI)splat(-0.0)); /* -|z|: the sign bit set */
        const V c = select((VI)(x < EXP_LO), splat(EXP_LO), x);
        const V v = c * INV_LN2 + 0.5, big = v + ROUND, rounded = big - ROUND;
        const VI up = (VI)(rounded > v); /* -1 where v rounded up */
        const V k = rounded - (V)(up & (VI)splat(1.0));
        const VI ki = (VI)big - (VI)splat(ROUND) + up;
        const V r = (c - k * LN2_HI) - k * LN2_LO;
        V p = splat(TAYLOR[TERMS - 1]);
        for (int i = TERMS - 2; i >= 0; i--)
            p = p * r + TAYLOR[i];
        const VI low = (VI)(k < -1000.0);
        const V scaled = p * (V)((ki + (low & 64) + 1023) << 52);
        const V e = select((VI)(x != x), x, select(low, scaled * 0x1p-64, scaled));
        store(z + y, select((VI)(zv >= 0.0), splat(1.0), e) / (1.0 + e));
    }
}

/* Every layer's activations: layer l (l >= 1) is a (sizes[l], stride) block
 * of acts, the blocks in layer order, from the (sizes[0], stride) inputs x.
 * A unit's input is w0 * a0, then + wi * ai in index order, then + b. */
static void forward_all(const int64_t *sizes, int64_t layers, const double *x, int64_t stride,
                        const double *params, double *acts)
{
    const double *in = x, *w = params;
    double *out = acts;
    for (int64_t l = 1; l < layers; l++) {
        const int64_t n_in = sizes[l - 1], n_out = sizes[l];
        const double *b = w + n_out * n_in;
        for (int64_t j = 0; j < n_out; j++) {
            const double *wj = w + j * n_in;
            for (int64_t s = 0; s < stride; s += LANES) {
                V z = wj[0] * load(in + s);
                for (int64_t i = 1; i < n_in; i++)
                    z = z + wj[i] * load(in + i * stride + s);
                store(out + j * stride + s, z + b[j]);
            }
        }
        sigmoid_layer(out, n_out * stride);
        in = out;
        out += n_out * stride;
        w = b + n_out;
    }
}

/* The gradient of scale * sum over the S samples and the outputs of
 * (out - t)^2, into grads (params' layout), from forward_all's acts; t is
 * (sizes[layers - 1], stride). Every sum over samples runs in sample order
 * and every sum over units in index order. delta is scratch for 2 * stride
 * * (the largest of sizes[1..]). */
static void backward(const int64_t *sizes, int64_t layers, const double *x, const double *t,
                     int64_t S, int64_t stride, double scale, const double *params,
                     const double *acts, double *grads, double *delta)
{
    int64_t widest = 0, at = 0, act_at = 0;
    for (int64_t l = 1; l < layers; l++) {
        widest = sizes[l] > widest ? sizes[l] : widest;
        at += (sizes[l - 1] + 1) * sizes[l];
        act_at += stride * sizes[l];
    }
    double *cur = delta, *prev = delta + stride * widest;
    const double two_scale = 2.0 * scale;
    int64_t n_out = sizes[layers - 1];
    act_at -= stride * n_out;
    const double *out = acts + act_at;
    for (int64_t y = 0; y < stride * n_out; y += LANES) {
        const V o = load(out + y);
        store(cur + y, two_scale * (o - load(t + y)) * o * (1.0 - o));
    }
    for (int64_t l = layers - 1; l >= 1; l--) {
        const int64_t n_in = sizes[l - 1];
        at -= (n_in + 1) * n_out;
        const double *w = params + at;
        double *gw = grads + at, *gb = gw + n_out * n_in;
        const double *in = x;
        if (l > 1) {
            act_at -= stride * n_in;
            in = acts + act_at;
        }
        for (int64_t j = 0; j < n_out; j++) {
            const double *d = cur + j * stride;
            for (int64_t i = 0; i < n_in; i++) {
                const double *a = in + i * stride;
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
            for (int64_t i = 0; i < n_in; i++)
                for (int64_t s = 0; s < stride; s += LANES) {
                    V sum = load(cur + s) * w[i];
                    for (int64_t j = 1; j < n_out; j++)
                        sum = sum + load(cur + j * stride + s) * w[j * n_in + i];
                    const V a = load(in + i * stride + s);
                    store(prev + i * stride + s, sum * a * (1.0 - a));
                }
            double *swap = cur;
            cur = prev;
            prev = swap;
        }
        n_out = n_in;
    }
}

/* Full-batch gradient descent with momentum, as neural._train_numpy runs it.
 *
 * sizes holds the layers >= 2 layer sizes, each >= 1. x (sizes[0], stride)
 * and t (sizes[layers - 1], stride) are feature-major: one row a unit, the
 * S >= 1 samples in its first S columns, stride >= S a multiple of LANES and
 * the padding columns never summed. params and vel hold P = sum of
 * (sizes[l - 1] + 1) * sizes[l] values in the layout W0, b0, W1, b1, ...,
 * and grads is scratch for P. acts is scratch for stride times the sum of
 * sizes[1..], delta for 2 * stride * their maximum.
 *
 * Each epoch takes the gradient of the MSE at params, steps vel and params,
 * and writes the new MSE to history. Stops after the first epoch whose MSE
 * is at or below target_mse or not finite, or after epochs epochs; returns
 * the number run. */
int64_t train_epochs(const int64_t *sizes, int64_t layers, const double *x, const double *t,
                     int64_t S, int64_t stride, double lr, double momentum, double target_mse,
                     int64_t epochs, double *params, double *vel, double *grads, double *acts,
                     double *delta, double *history)
{
    int64_t P = 0, act_at = 0;
    for (int64_t l = 1; l < layers; l++) {
        P += (sizes[l - 1] + 1) * sizes[l];
        act_at += stride * sizes[l];
    }
    const int64_t n_out = sizes[layers - 1];
    const double *out = acts + act_at - stride * n_out;
    const double scale = 1.0 / (double)S;
    forward_all(sizes, layers, x, stride, params, acts);
    for (int64_t epoch = 0; epoch < epochs; epoch++) {
        backward(sizes, layers, x, t, S, stride, scale, params, acts, grads, delta);
        for (int64_t p = 0; p < P; p++) {
            const double v = vel[p] * momentum - lr * grads[p];
            vel[p] = v;
            params[p] = params[p] + v;
        }
        forward_all(sizes, layers, x, stride, params, acts);
        double sum = 0.0;
        for (int64_t s = 0; s < S; s++)
            for (int64_t j = 0; j < n_out; j++) {
                const double err = out[j * stride + s] - t[j * stride + s];
                sum = sum + err * err; /* +0.0 + err * err is err * err, as err * err >= +0.0 */
            }
        const double mse = sum / (double)(S * n_out);
        history[epoch] = mse;
        if (mse <= target_mse || !isfinite(mse))
            return epoch + 1;
    }
    return epochs;
}
