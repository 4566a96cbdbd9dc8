/* Banded three-state affine-gap (Gotoh) fill and traceback for mutascan.align.
 *
 * band_align, the one exported function, fills every band and traces each
 * back to its start. band_fill_rows mirrors align._fill_rows_numpy and
 * band_traceback mirrors align._band_traceback_python, value for value;
 * their docstrings describe the band layout. Build with -fwrapv: int32 sums
 * then wrap as numpy's do. The Python caller (mutascan._native) checks
 * every array's dtype, shape and strides, every code and every row window
 * before the call.
 */
#include <stdint.h>

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
 * Writes the path's row and column codes, last column first, to out_r and
 * out_c, and (score, start row, start slot, end row, end slot) to ends.
 * Returns the path length; 0 when local and no cell scores above 0; -1
 * when a step finds no predecessor, a move leaves the matrix, or the path
 * would pass cap columns. */
static int64_t band_traceback(const int32_t *M, const int32_t *Ix, const int32_t *Iy,
                              int64_t rstride, int64_t m, int64_t width, const uint8_t *rows,
                              const uint8_t *cols, int64_t ncols, const int64_t *offsets,
                              const int32_t *table, int64_t oe, int64_t e, int32_t local,
                              int64_t cap, uint8_t *out_r, uint8_t *out_c, int64_t *ends)
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
    ends[4] = b;
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
            out_r[n] = r;
            out_c[n++] = c;
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
            out_r[n] = rows[i - 1];
            out_c[n++] = GAP;
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
            out_r[n] = GAP;
            out_c[n++] = cols[x];
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
    ends[2] = b;
    return n;
}

/* Fill rows 1..m of the G bands (band_fill_rows' arguments, row 0 already
 * set) and trace each band's best path back to its start.
 *
 * Band g writes its path's codes to row g of the (G, cap) out_r and out_c
 * and (score, start row, start slot, end row, end slot, length) to row g of
 * the (G, ENDS) ends; length 0 means local and no cell scores above 0, and
 * the other entries of that row are then unset. Returns 0, or -1 when a
 * band's traceback fails as band_traceback says; the bands after it are
 * then not traced. */
int64_t band_align(const uint8_t *rows, int64_t m, const uint8_t *cols, int64_t G, int64_t ncols,
                   const int64_t *offsets, int64_t width, const int32_t *table, int32_t oe,
                   int32_t e, int32_t local, int32_t *M, int32_t *Ix, int32_t *Iy,
                   int32_t *profile, int64_t cap, uint8_t *out_r, uint8_t *out_c, int64_t *ends)
{
    band_fill_rows(rows, m, cols, G, ncols, offsets, width, table, oe, e, local, M, Ix, Iy,
                   profile);
    for (int64_t g = 0; g < G; g++) {
        int64_t *band_ends = ends + g * ENDS;
        const int64_t n = band_traceback(M + g * width, Ix + g * width, Iy + g * width,
                                         G * width, m, width, rows, cols + g * ncols, ncols,
                                         offsets, table, oe, e, local, cap, out_r + g * cap,
                                         out_c + g * cap, band_ends);
        if (n < 0)
            return -1;
        band_ends[ENDS - 1] = n;
    }
    return 0;
}
