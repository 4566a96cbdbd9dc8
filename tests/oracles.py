"""Independent reference implementations used to verify the package.

Everything here is written from the plain definitions, in the most direct
style possible (straight loops, recursion, lookup strings), deliberately
sharing no code or algorithmic structure with the package under test. The
exceptions are the differential references for the banded kernel, for
mutation calling and for training: the package's earlier full-matrix and
per-diagonal aligners, its column-walk call derivation and its per-layer
gradient-descent trainer, kept unchanged, and the fixed-operation trainer
spelled in plain Python floats.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from functools import reduce

import numpy as np
from hypothesis import strategies as st

# --- composition -----------------------------------------------------------


def count_composition(bases: str) -> dict[str, int]:
    counts = {"A": 0, "C": 0, "G": 0, "T": 0, "N": 0}
    for ch in bases:
        counts[ch] += 1
    return counts


def gc_percent(bases: str) -> float:
    c = count_composition(bases)
    denom = c["A"] + c["C"] + c["G"] + c["T"]
    return 100.0 * (c["G"] + c["C"]) / denom


def at_percent(bases: str) -> float:
    c = count_composition(bases)
    denom = c["A"] + c["C"] + c["G"] + c["T"]
    return 100.0 * (c["A"] + c["T"]) / denom


def window_gc_fraction(bases: str, center: int, window: int) -> float:
    """GC fraction of the clipped window around 1-based `center`."""
    half = window // 2
    lo = max(0, center - 1 - half)
    hi = min(len(bases), center + half)
    gc = at = 0
    for ch in bases[lo:hi]:
        if ch in "GC":
            gc += 1
        elif ch in "AT":
            at += 1
    if gc + at == 0:
        return 0.5
    return gc / (gc + at)


# --- k-mer enumeration -----------------------------------------------------


def kmer_postings(subjects: list[str], k: int) -> dict[str, list[tuple[int, int]]]:
    """Every N-free length-k window of every subject, by brute force."""
    postings: dict[str, list[tuple[int, int]]] = {}
    for si, bases in enumerate(subjects):
        for off in range(len(bases) - k + 1):
            window = bases[off : off + k]
            if "N" not in window:
                postings.setdefault(window, []).append((si, off))
    return postings


def seed_diagonal_counts(
    query: str, subjects: list[str], k: int
) -> dict[tuple[int, int], int]:
    """Shared N-free k-mers of query and subjects, counted by (subject, diagonal)."""
    postings = kmer_postings(subjects, k)
    groups: dict[tuple[int, int], int] = {}
    for q_off in range(len(query) - k + 1):
        window = query[q_off : q_off + k]
        if "N" in window:
            continue
        for si, s_off in postings.get(window, ()):
            groups[(si, q_off - s_off)] = groups.get((si, q_off - s_off), 0) + 1
    return groups


# --- pairwise alignment ----------------------------------------------------


def column_score(x: str, y: str, match: int, mismatch: int) -> int:
    if x == "N" or y == "N":
        return 0
    return match if x == y else mismatch


def rescore_alignment(
    aligned_a: str,
    aligned_b: str,
    match: int,
    mismatch: int,
    gap_open: int,
    gap_extend: int,
) -> int:
    """Score aligned strings directly from the affine-gap definition."""
    assert len(aligned_a) == len(aligned_b)
    total = 0
    gap_a = gap_b = False
    for x, y in zip(aligned_a, aligned_b):
        assert not (x == "-" and y == "-")
        if x == "-":
            total += gap_extend + (0 if gap_a else gap_open)
            gap_a, gap_b = True, False
        elif y == "-":
            total += gap_extend + (0 if gap_b else gap_open)
            gap_a, gap_b = False, True
        else:
            total += column_score(x, y, match, mismatch)
            gap_a = gap_b = False
    return total


def enumerate_global_score(
    a: str, b: str, match: int, mismatch: int, gap_open: int, gap_extend: int
) -> int:
    """Optimal global score by enumerating every monotone alignment.

    Pure recursion with no caching; exponential, fine for lengths <= 6.
    The `state` argument tracks which gap (if any) the previous column
    opened, so affine costs are exact.
    """

    def go(i: int, j: int, state: int) -> int:
        if i == len(a) and j == len(b):
            return 0
        best = None
        if i < len(a) and j < len(b):
            s = column_score(a[i], b[j], match, mismatch) + go(i + 1, j + 1, 0)
            best = s
        if i < len(a):
            s = gap_extend + (0 if state == 1 else gap_open) + go(i + 1, j, 1)
            best = s if best is None else max(best, s)
        if j < len(b):
            s = gap_extend + (0 if state == 2 else gap_open) + go(i, j + 1, 2)
            best = s if best is None else max(best, s)
        return best

    return go(0, 0, 0)


def global_score_dp(
    a: str, b: str, match: int, mismatch: int, gap_open: int, gap_extend: int
) -> int:
    """Optimal global affine-gap score via a plain row-by-row three-state DP.

    Straightforward pure-Python Gotoh, kept deliberately naive so it checks
    the package's vectorized aligner at lengths the enumeration oracle
    cannot reach.
    """
    neg = float("-inf")
    m, n = len(a), len(b)
    oe = gap_open + gap_extend
    prev_m = [0.0] + [neg] * n
    prev_x = [neg] * (n + 1)
    prev_y = [neg] + [oe + gap_extend * j for j in range(n)]
    for i in range(1, m + 1):
        cur_m = [neg] * (n + 1)
        cur_x = [neg] * (n + 1)
        cur_y = [neg] * (n + 1)
        cur_x[0] = oe + gap_extend * (i - 1)
        for j in range(1, n + 1):
            s = column_score(a[i - 1], b[j - 1], match, mismatch)
            cur_m[j] = s + max(prev_m[j - 1], prev_x[j - 1], prev_y[j - 1])
            cur_x[j] = max(prev_m[j] + oe, prev_x[j] + gap_extend, prev_y[j] + oe)
            cur_y[j] = max(cur_m[j - 1] + oe, cur_x[j - 1] + oe, cur_y[j - 1] + gap_extend)
        prev_m, prev_x, prev_y = cur_m, cur_x, cur_y
    return int(max(prev_m[n], prev_x[n], prev_y[n]))


_SW_NEG = np.int32(-(1 << 28))


def substitution_matrix(match: int, mismatch: int) -> np.ndarray:
    """5 x 5 int32 scores over the codes of A C G T N; any pair with N scores 0."""
    sub = np.zeros((5, 5), dtype=np.int32)
    for r in range(4):
        for c in range(4):
            sub[r, c] = match if r == c else mismatch
    return sub


def smith_waterman_score(
    query: str, subject: str, match: int, mismatch: int, gap_open: int, gap_extend: int
) -> int:
    """Optimal local affine-gap alignment score, full dynamic programming.

    Score-only Gotoh local DP, vectorized along antidiagonals so the
    acceptance suite can afford full-DP comparisons. Alignments start and
    end on aligned columns; empty alignment scores 0.
    """
    code = {"A": 0, "C": 1, "G": 2, "T": 3, "N": 4}
    sub = substitution_matrix(match, mismatch)
    ca = np.array([code[ch] for ch in query], dtype=np.intp)
    cb = np.array([code[ch] for ch in subject], dtype=np.intp)
    m, n = len(ca), len(cb)
    oe = gap_open + gap_extend
    e = gap_extend

    M = np.full((m + 1, n + 1), _SW_NEG, dtype=np.int32)
    Ix = np.full((m + 1, n + 1), _SW_NEG, dtype=np.int32)
    Iy = np.full((m + 1, n + 1), _SW_NEG, dtype=np.int32)
    best = 0
    for k in range(2, m + n + 1):
        lo = max(1, k - n)
        hi = min(m, k - 1)
        if lo > hi:
            continue
        ii = np.arange(lo, hi + 1)
        jj = k - ii
        start = np.maximum(M[ii - 1, jj - 1], Ix[ii - 1, jj - 1])
        np.maximum(start, Iy[ii - 1, jj - 1], out=start)
        np.maximum(start, 0, out=start)  # local alignments may start anywhere
        M[ii, jj] = sub[ca[ii - 1], cb[jj - 1]] + start
        up = M[ii - 1, jj] + oe
        np.maximum(up, Ix[ii - 1, jj] + e, out=up)
        np.maximum(up, Iy[ii - 1, jj] + oe, out=up)
        Ix[ii, jj] = up
        left = M[ii, jj - 1] + oe
        np.maximum(left, Ix[ii, jj - 1] + oe, out=left)
        np.maximum(left, Iy[ii, jj - 1] + e, out=left)
        Iy[ii, jj] = left
        diag_best = int(M[ii, jj].max())
        if diag_best > best:
            best = diag_best
    return best


# --- differential references for the banded kernel ------------------------
#
# The package's earlier aligners, kept unchanged as references: a full-matrix
# antidiagonal Gotoh fill with its traceback, and the pure-Python banded
# Smith-Waterman that `search` ran once per seeded diagonal. The banded
# kernel must reproduce their output exactly, tie order included. They build
# their own substitution matrix; only the record types and the hit merge
# rules are taken from the package.

_NEG = -(1 << 28)
_M, _IX, _IY = 0, 1, 2
_START, _FROM_M, _FROM_IX, _FROM_IY = 0, 1, 2, 3
_CODE_TABLE = bytes.maketrans(b"ACGTN", bytes([0, 1, 2, 3, 4]))


def _encode(bases: str) -> np.ndarray:
    return np.frombuffer(bases.encode("ascii").translate(_CODE_TABLE), dtype=np.uint8).copy()


def _fill_matrices(ca: np.ndarray, cb: np.ndarray, scoring):
    """Antidiagonal Needleman-Wunsch-Gotoh fill over three int32 matrices."""
    m, n = len(ca), len(cb)
    oe = scoring.gap_open + scoring.gap_extend
    e = scoring.gap_extend
    sub = substitution_matrix(scoring.match, scoring.mismatch)

    M = np.full((m + 1, n + 1), _NEG, dtype=np.int32)
    Ix = np.full((m + 1, n + 1), _NEG, dtype=np.int32)
    Iy = np.full((m + 1, n + 1), _NEG, dtype=np.int32)
    M[0, 0] = 0
    Ix[1:, 0] = oe + e * np.arange(m, dtype=np.int32)
    Iy[0, 1:] = oe + e * np.arange(n, dtype=np.int32)

    for k in range(2, m + n + 1):
        lo = max(1, k - n)
        hi = min(m, k - 1)
        if lo > hi:
            continue
        ii = np.arange(lo, hi + 1)
        jj = k - ii
        dm = M[ii - 1, jj - 1]
        np.maximum(dm, Ix[ii - 1, jj - 1], out=dm)
        np.maximum(dm, Iy[ii - 1, jj - 1], out=dm)
        M[ii, jj] = sub[ca[ii - 1], cb[jj - 1]] + dm
        up = M[ii - 1, jj] + oe
        np.maximum(up, Ix[ii - 1, jj] + e, out=up)
        np.maximum(up, Iy[ii - 1, jj] + oe, out=up)
        Ix[ii, jj] = up
        left = M[ii, jj - 1] + oe
        np.maximum(left, Ix[ii, jj - 1] + oe, out=left)
        np.maximum(left, Iy[ii, jj - 1] + e, out=left)
        Iy[ii, jj] = left
    return M, Ix, Iy


def reference_global_align(a: str, b: str, scoring):
    """Full-matrix optimal global alignment of `a` against `b`.

    Traceback ties prefer Match/Substitute over Delete (gap in B) over
    Insert (gap in A). Returns the package's AlignmentResult.
    """
    from mutascan.align import AlignmentResult

    m, n = len(a), len(b)
    ca = _encode(a)
    cb = _encode(b)
    M, Ix, Iy = _fill_matrices(ca, cb, scoring)
    oe = scoring.gap_open + scoring.gap_extend
    e = scoring.gap_extend
    sub = substitution_matrix(scoring.match, scoring.mismatch)

    i, j = m, n
    finals = (int(M[i, j]), int(Ix[i, j]), int(Iy[i, j]))
    score = max(finals)
    state = finals.index(score)  # index order == preference order M, Ix, Iy

    rev_a: list[str] = []
    rev_b: list[str] = []
    while i > 0 or j > 0:
        if state == _M:
            rev_a.append(a[i - 1])
            rev_b.append(b[j - 1])
            target = int(M[i, j]) - int(sub[ca[i - 1], cb[j - 1]])
            i -= 1
            j -= 1
            candidates = (int(M[i, j]), int(Ix[i, j]), int(Iy[i, j]))
        elif state == _IX:
            rev_a.append(a[i - 1])
            rev_b.append("-")
            target = int(Ix[i, j])
            i -= 1
            candidates = (int(M[i, j]) + oe, int(Ix[i, j]) + e, int(Iy[i, j]) + oe)
        else:
            rev_a.append("-")
            rev_b.append(b[j - 1])
            target = int(Iy[i, j])
            j -= 1
            candidates = (int(M[i, j]) + oe, int(Ix[i, j]) + oe, int(Iy[i, j]) + e)
        if i == 0 and j == 0:
            break
        state = candidates.index(target)

    aligned_a = "".join(reversed(rev_a))
    aligned_b = "".join(reversed(rev_b))
    return AlignmentResult(score, aligned_a, aligned_b, 0, m, 0, n)


@dataclass(frozen=True)
class _LocalAlignment:
    score: int
    q_start: int  # 0-based, inclusive
    q_end: int  # 0-based, exclusive
    s_start: int
    s_end: int
    aligned_q: str
    aligned_s: str


def _banded_local_align(qb: str, sb: str, diagonal: int, scoring, radius: int = 16):
    """Best gapped local alignment within a diagonal band of the given radius.

    Smith-Waterman with affine gaps (Gotoh), restricted to DP cells (i, j)
    with |i - j - diagonal| <= radius. Alignments start and end on aligned
    columns; tie-breaks prefer a fresh start, then Match over gap-in-subject
    over gap-in-query, so output is deterministic.
    """
    m, n = len(qb), len(sb)
    width = 2 * radius + 1
    sub = substitution_matrix(scoring.match, scoring.mismatch)
    code = {"A": 0, "C": 1, "G": 2, "T": 3, "N": 4}
    oe = scoring.gap_open + scoring.gap_extend
    e = scoring.gap_extend

    lo_row = max(1, 1 + diagonal - radius)
    hi_row = min(m, n + diagonal + radius)
    if lo_row > hi_row:
        return None

    neg_row = [_NEG] * width
    M = [neg_row[:] for _ in range(hi_row + 1)]
    Ix = [neg_row[:] for _ in range(hi_row + 1)]
    Iy = [neg_row[:] for _ in range(hi_row + 1)]
    ptr_m = [[_START] * width for _ in range(hi_row + 1)]
    ptr_x = [[_START] * width for _ in range(hi_row + 1)]
    ptr_y = [[_START] * width for _ in range(hi_row + 1)]

    best_score, best_i, best_b = 0, -1, -1
    for i in range(lo_row, hi_row + 1):
        j_lo = max(1, i - diagonal - radius)
        j_hi = min(n, i - diagonal + radius)
        if j_lo > j_hi:
            continue
        qc = code[qb[i - 1]]
        row_m, row_x, row_y = M[i], Ix[i], Iy[i]
        prev_m, prev_x, prev_y = M[i - 1], Ix[i - 1], Iy[i - 1]
        pm, px, py = ptr_m[i], ptr_x[i], ptr_y[i]
        for j in range(j_lo, j_hi + 1):
            b = j - (i - diagonal - radius)
            # diagonal predecessor sits at the same band column of row i-1
            dm = prev_m[b] if i > 1 and j > 1 else _NEG
            dx = prev_x[b] if i > 1 and j > 1 else _NEG
            dy = prev_y[b] if i > 1 and j > 1 else _NEG
            best_prev, tag = 0, _START
            if dm > best_prev:
                best_prev, tag = dm, _FROM_M
            if dx > best_prev:
                best_prev, tag = dx, _FROM_IX
            if dy > best_prev:
                best_prev, tag = dy, _FROM_IY
            row_m[b] = best_prev + int(sub[qc][code[sb[j - 1]]])
            pm[b] = tag

            # gap in subject: consumes query base i, predecessor row i-1 col b+1
            um = prev_m[b + 1] + oe if i > 1 and b + 1 < width else _NEG
            ux = prev_x[b + 1] + e if i > 1 and b + 1 < width else _NEG
            uy = prev_y[b + 1] + oe if i > 1 and b + 1 < width else _NEG
            vx, tag = um, _FROM_M
            if ux > vx:
                vx, tag = ux, _FROM_IX
            if uy > vx:
                vx, tag = uy, _FROM_IY
            row_x[b] = vx
            px[b] = tag

            # gap in query: consumes subject base j, predecessor same row col b-1
            lm = row_m[b - 1] + oe if j > 1 and b - 1 >= 0 else _NEG
            lx = row_x[b - 1] + oe if j > 1 and b - 1 >= 0 else _NEG
            ly = row_y[b - 1] + e if j > 1 and b - 1 >= 0 else _NEG
            vy, tag = lm, _FROM_M
            if lx > vy:
                vy, tag = lx, _FROM_IX
            if ly > vy:
                vy, tag = ly, _FROM_IY
            row_y[b] = vy
            py[b] = tag

            if row_m[b] > best_score:
                best_score, best_i, best_b = row_m[b], i, b

    if best_i < 0 or best_score <= 0:
        return None

    # traceback from the best aligned-pair cell
    rev_q: list[str] = []
    rev_s: list[str] = []
    i, b = best_i, best_b
    state = _FROM_M
    while True:
        j = b + (i - diagonal - radius)
        if state == _FROM_M:
            rev_q.append(qb[i - 1])
            rev_s.append(sb[j - 1])
            nxt = ptr_m[i][b]
            i -= 1  # diagonal predecessor keeps the same band column
            if nxt == _START:
                q_start, s_start = i, j - 1
                break
            state = nxt
        elif state == _FROM_IX:
            rev_q.append(qb[i - 1])
            rev_s.append("-")
            nxt = ptr_x[i][b]
            i -= 1
            b += 1
            state = nxt
        else:
            rev_q.append("-")
            rev_s.append(sb[j - 1])
            nxt = ptr_y[i][b]
            b -= 1
            state = nxt

    q_end = best_i
    s_end = best_b + (best_i - diagonal - radius)
    return _LocalAlignment(
        best_score,
        q_start,
        q_end,
        s_start,
        s_end,
        "".join(reversed(rev_q)),
        "".join(reversed(rev_s)),
    )


def reference_search(query, index, max_hits):
    """Seed-and-extend search running `_banded_local_align` once per diagonal.

    Seeds, diagonal groups, hit merging and ranking follow the package's
    documented rules; returns a list of the package's HomologyHit.
    """
    from mutascan.align import AlignmentResult
    from mutascan.homology import SEARCH_SCORING, HomologyHit, e_value

    qb = query.bases
    groups = seed_diagonal_counts(qb, [s.bases for s in index.subjects], index.k)

    per_subject: dict[int, list[_LocalAlignment]] = {}
    for si, diag in sorted(groups):
        aln = _banded_local_align(qb, index.subjects[si].bases, diag, SEARCH_SCORING)
        if aln is not None:
            per_subject.setdefault(si, []).append(aln)

    hits = []
    db_len = index.total_length
    for si in sorted(per_subject):
        unique = sorted(
            set(per_subject[si]),
            key=lambda a: (-a.score, a.q_start, a.s_start, a.q_end, a.s_end),
        )
        kept: list[_LocalAlignment] = []
        for a in unique:
            if all(a.q_end <= c.q_start or a.q_start >= c.q_end for c in kept):
                kept.append(a)
        best = kept[0]
        covered = sum(a.q_end - a.q_start for a in kept)
        best_result = AlignmentResult(
            best.score, best.aligned_q, best.aligned_s,
            best.q_start, best.q_end, best.s_start, best.s_end,
        )
        hits.append(
            HomologyHit(
                subject_id=index.subjects[si].id,
                max_score=best.score,
                total_score=sum(a.score for a in kept),
                query_cover=100.0 * covered / len(qb),
                e_value=e_value(best.score, len(qb), db_len),
                max_ident=best_result.identity_percent,
                best_alignment=best_result,
            )
        )
    hits.sort(key=lambda h: (-h.max_score, h.subject_id))
    return hits[:max_hits]


# --- mutation calls from aligned strings -------------------------------------


def reference_identity(aligned_a: str, aligned_b: str) -> float:
    """The package's earlier `AlignmentResult.identity_percent`, kept unchanged: the
    percentage of columns that hold the same character on both sides."""
    a, b = aligned_a, aligned_b
    return 100.0 * sum(map(operator.eq, a, b)) / len(a) if a else 0.0


def reference_calls(aligned_a: str, aligned_b: str):
    """Mutation calls and identity percentage of two aligned rows, A the reference.

    The package's earlier derivation, kept unchanged: one walk over the
    columns collects runs of match, substitute, insert (gap in A) and
    delete (gap in B) columns; every substitute, insert or delete run is
    one call. Calls sort by position, insertions before substitutions
    before deletions on ties. Returns (calls, identity percent).
    """
    from mutascan.align import Mutation, MutationKind

    ops: list[tuple[str, int]] = []
    matches = 0
    for x, y in zip(aligned_a, aligned_b):
        if x == "-":
            kind = "insert"
        elif y == "-":
            kind = "delete"
        elif x == y:
            kind = "match"
            matches += 1
        else:
            kind = "substitute"
        if ops and ops[-1][0] == kind:
            ops[-1] = (kind, ops[-1][1] + 1)
        else:
            ops.append((kind, 1))
    identity = 100.0 * matches / len(aligned_a) if aligned_a else 0.0

    muts = []
    ref_pos = 0  # last consumed reference base, 1-based
    col = 0
    for kind, length in ops:
        seg_a = aligned_a[col : col + length]
        seg_b = aligned_b[col : col + length]
        if kind == "match":
            ref_pos += length
        elif kind == "substitute":
            muts.append(Mutation(ref_pos + 1, MutationKind.SUBSTITUTION, seg_a, seg_b))
            ref_pos += length
        elif kind == "delete":
            muts.append(Mutation(ref_pos + 1, MutationKind.DELETION, seg_a, ""))
            ref_pos += length
        else:  # an insertion sits after the last consumed reference base
            muts.append(Mutation(ref_pos, MutationKind.INSERTION, "", seg_b))
        col += length
    order = {MutationKind.INSERTION: 0, MutationKind.SUBSTITUTION: 1, MutationKind.DELETION: 2}
    muts.sort(key=lambda mu: (mu.position, order[mu.kind]))
    return muts, identity


# --- genetic code ----------------------------------------------------------

# the standard genetic code as published in translation-table form:
# amino acids listed for codons in TCAG-major order
_AAS = "FFLLSSSSYY**CC*WLLLLPPPPHHQQRRRRIIIMTTTTNNKKSSRRVVVVAAAADDEEGGGG"
_ORDER = "TCAG"


def codon_to_aa(codon: str) -> str:
    if any(ch not in "ACGT" for ch in codon):
        return "X"
    i = 16 * _ORDER.index(codon[0]) + 4 * _ORDER.index(codon[1]) + _ORDER.index(codon[2])
    return _AAS[i]


def translate_dna(bases: str, frame: int = 0) -> str:
    out = []
    for start in range(frame, len(bases) - 2, 3):
        out.append(codon_to_aa(bases[start : start + 3]))
    return "".join(out)


# --- neural gradients ------------------------------------------------------


def sigmoid_scalar(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def finite_difference_gradients(loss_fn, arrays: list[np.ndarray], h: float = 1e-5):
    """Central finite differences of loss_fn over every entry of `arrays`.

    loss_fn takes a list shaped like `arrays`: writable copies of them with
    one entry moved by h either way, restored exactly after probing.
    """
    probe = [np.array(a, dtype=np.float64) for a in arrays]
    grads = []
    for arr in probe:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_fn(probe)
            flat[idx] = orig - h
            down = loss_fn(probe)
            flat[idx] = orig
            gflat[idx] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


# --- neural training: the package's earlier per-layer trainer, kept unchanged


def reference_sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; each branch is the split form for its sign
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _reference_forward_all(weights, biases, batch: np.ndarray) -> list[np.ndarray]:
    acts = [batch]
    for w, b in zip(weights, biases):
        acts.append(reference_sigmoid(acts[-1] @ w.T + b))
    return acts


def _reference_backward(weights, acts, targets, scale):
    out = acts[-1]
    delta = 2.0 * scale * (out - targets) * out * (1.0 - out)
    d_weights = [None] * len(weights)
    d_biases = [None] * len(weights)
    for layer in range(len(weights) - 1, -1, -1):
        d_weights[layer] = delta.T @ acts[layer]
        d_biases[layer] = delta.sum(axis=0)
        if layer > 0:
            a = acts[layer]
            delta = (delta @ weights[layer]) * a * (1.0 - a)
    return d_weights, d_biases


def reference_train(topology, data, cfg):
    """Full-batch momentum gradient descent with one array per layer parameter,
    in numpy's `@` and `np.exp`, whose bits may depend on the CPU.

    Returns (Network, TrainReport), as `neural.train` does. `neural.train`'s
    fixed order of operations moves the weights by rounding only: on the
    corpus they agree with this trainer's within 5e-14 relative, at the same
    epochs.
    """
    from mutascan.neural import Network, TrainReport, _as_input

    width = topology.input_size
    batch = np.stack([_as_input(x, width) for x, _ in data])
    targets = np.asarray([[float(t)] for _, t in data])

    rng = np.random.default_rng(cfg.seed)
    lo, hi = cfg.init_range
    sizes = topology.layer_sizes
    weights = [rng.uniform(lo, hi, size=(sizes[i + 1], sizes[i])) for i in range(len(sizes) - 1)]
    biases = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    scale = 1.0 / len(data)

    history: list[float] = []
    acts = _reference_forward_all(weights, biases, batch)
    for _ in range(cfg.max_epochs):
        d_weights, d_biases = _reference_backward(weights, acts, targets, scale)
        for layer in range(len(weights)):
            vel_w[layer] = cfg.momentum * vel_w[layer] - cfg.learning_rate * d_weights[layer]
            vel_b[layer] = cfg.momentum * vel_b[layer] - cfg.learning_rate * d_biases[layer]
            weights[layer] = weights[layer] + vel_w[layer]
            biases[layer] = biases[layer] + vel_b[layer]
        acts = _reference_forward_all(weights, biases, batch)
        mse = float(np.mean((acts[-1] - targets) ** 2))
        history.append(mse)
        if mse <= cfg.target_mse:
            break

    net = Network(topology, weights, biases, train_config=cfg)
    report = TrainReport(
        epochs_run=len(history),
        final_mse=history[-1],
        converged=history[-1] <= cfg.target_mse,
        history=tuple(history),
    )
    return net, report


# --- neural training: the fixed sequence of IEEE operations, in plain floats

# exp(x) rounds to 0 at and below this; ln 2 in Cody-Waite parts; 1/0! .. 1/12!
_EXP_LO = -746.0
_INV_LN2 = float.fromhex("0x1.71547652b82fep+0")
_LN2_HI = float.fromhex("0x1.62e42feep-1")
_LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")
_TAYLOR = [1.0 / math.factorial(i) for i in range(13)]


def fixed_exp_scalar(x: float) -> float:
    """exp(x) for x <= 0 (a nan returned as is): x = k ln 2 + r, e^r by its
    degree-12 Taylor polynomial in Horner form, then ldexp by k."""
    if math.isnan(x):
        return x
    x = max(x, _EXP_LO)
    k = math.floor(x * _INV_LN2 + 0.5)
    r = (x - k * _LN2_HI) - k * _LN2_LO
    p = _TAYLOR[12]
    for i in range(11, -1, -1):
        p = p * r + _TAYLOR[i]
    return math.ldexp(p, k)


def fixed_sigmoid_scalar(z: float) -> float:
    e = fixed_exp_scalar(-abs(z))
    return (1.0 if z >= 0 else e) / (1.0 + e)


def _sum_in_order(terms):
    """((t0 + t1) + t2) + ...: the builtin sum compensates its rounding from Python 3.12."""
    return reduce(operator.add, terms)


def reference_fixed_train(topology, data, cfg):
    """`neural.train`'s fixed sequence of operations, one Python float at a time.

    A unit's input is its terms summed in index order, then its bias; every
    gradient is summed over samples in sample order; the MSE sums samples in
    order. Returns (Network, TrainReport), as `neural.train` does; the
    trainer must match it bit for bit.
    """
    from mutascan.neural import Network, TrainReport

    sizes = topology.layer_sizes
    rng = np.random.default_rng(cfg.seed)
    lo, hi = cfg.init_range
    pairs = list(zip(sizes, sizes[1:]))
    weights = [rng.uniform(lo, hi, size=(n_out, n_in)).tolist() for n_in, n_out in pairs]
    biases = [[0.0] * n_out for n_out in sizes[1:]]
    vel_w = [[[0.0] * n_in for _ in range(n_out)] for n_in, n_out in pairs]
    vel_b = [[0.0] * n_out for n_out in sizes[1:]]
    inputs = [[float(v) for v in getattr(x, "values", x)] for x, _ in data]
    targets = [float(t) for _, t in data]
    lr, momentum, scale = float(cfg.learning_rate), float(cfg.momentum), 1.0 / len(data)

    def forward_all():
        acts = [inputs]
        for w, b in zip(weights, biases):
            acts.append([
                [fixed_sigmoid_scalar(_sum_in_order([wi * ai for wi, ai in zip(row, a)]) + bj)
                 for row, bj in zip(w, b)]
                for a in acts[-1]
            ])
        return acts

    def step(value, velocity, grad):
        velocity = velocity * momentum - lr * grad
        return value + velocity, velocity

    history: list[float] = []
    acts = forward_all()
    for _ in range(cfg.max_epochs):
        delta = [
            [2.0 * scale * (o - t) * o * (1.0 - o) for o in out] for out, t in zip(acts[-1], targets)
        ]
        for layer in range(len(weights) - 1, -1, -1):
            a, w = acts[layer], weights[layer]
            d_w = [
                [_sum_in_order([d[j] * x[i] for d, x in zip(delta, a)]) for i in range(len(row))]
                for j, row in enumerate(w)
            ]
            d_b = [_sum_in_order([d[j] for d in delta]) for j in range(len(w))]
            if layer > 0:
                delta = [
                    [_sum_in_order([d[j] * w[j][i] for j in range(len(w))]) * x[i] * (1.0 - x[i])
                     for i in range(len(x))]
                    for d, x in zip(delta, a)
                ]
            for j in range(len(w)):
                for i in range(len(w[j])):
                    w[j][i], vel_w[layer][j][i] = step(w[j][i], vel_w[layer][j][i], d_w[j][i])
                biases[layer][j], vel_b[layer][j] = step(biases[layer][j], vel_b[layer][j], d_b[j])
        acts = forward_all()
        squares = [(o - t) * (o - t) for out, t in zip(acts[-1], targets) for o in out]
        mse = _sum_in_order(squares) / len(squares)
        history.append(mse)
        if mse <= cfg.target_mse:
            break

    net = Network(
        topology,
        [np.array(w) for w in weights],
        [np.array(b) for b in biases],
        train_config=cfg,
    )
    report = TrainReport(
        epochs_run=len(history),
        final_mse=history[-1],
        converged=history[-1] <= cfg.target_mse,
        history=tuple(history),
    )
    return net, report


# --- random generators -----------------------------------------------------


def random_bases(rng: random.Random, length: int, alphabet: str = "ACGT") -> str:
    return "".join(rng.choice(alphabet) for _ in range(length))


@st.composite
def dna(draw, alphabet: str = "ACGT", min_size: int = 1, max_size: int = 60) -> str:
    """Hypothesis strategy for random bases; the length is drawn first so
    long sequences are as common as short ones."""
    length = draw(st.integers(min_size, max_size))
    return random_bases(draw(st.randoms(use_true_random=False)), length, alphabet)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=10,
)


def plausible_or_any(*values):
    """Hypothesis strategy: one of `values`, or any JSON value."""
    return st.sampled_from(values) | json_values


def random_fasta_text(rng: random.Random, max_records: int = 5) -> tuple[str, list]:
    """Random FASTA text plus the (id, description, bases) truth triples."""
    n = rng.randint(1, max_records)
    records = []
    chunks = []
    for i in range(n):
        rec_id = f"rec{i}_{rng.randint(0, 999)}"
        description = rng.choice(["", "some description", "x y z"])
        bases = random_bases(rng, rng.randint(1, 200), "ACGTN")
        records.append((rec_id, description, bases))
        header = f">{rec_id} {description}" if description else f">{rec_id}"
        width = rng.choice([1, 7, 60, 250])
        body = "\n".join(bases[p : p + width] for p in range(0, len(bases), width))
        chunks.append(header + "\n" + body)
    return "\n".join(chunks) + "\n", records
