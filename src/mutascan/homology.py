"""Local seed-and-extend homology search over k-mer-indexed FASTA databases.

The search pipeline: collect exact k-mer seed matches, group them by
diagonal (query offset minus subject offset), then run a banded gapped
local alignment around each seeded diagonal; all diagonals of one query
share one batched band fill. Per-subject alignments merge into one ranked
hit carrying the classic report columns (max score, total score, query
cover, E-value, max identity). Only the forward strand is searched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .align import (
    OUTSIDE_CODE,
    AlignmentResult,
    Scoring,
    band_fill,
    encode_bases,
    result_from_alignment,
)
from .errors import MutascanError
from .seqio import DnaSequence, FastaFile

DEFAULT_K = 11
BAND_RADIUS = 16
# seeded diagonals filled together; one batch stores at most
# 3 x 32 x 33 int32 cells per query row
_BATCH_GROUPS = 32

# traceback states, preference order on ties (a fresh start comes first)
_M, _IX, _IY = 0, 1, 2


class HomologyError(MutascanError):
    pass


class EmptyDatabaseError(HomologyError):
    pass


class QueryTooShortError(HomologyError):
    pass


@dataclass(frozen=True)
class SearchParams:
    """Seed length, scoring, E-value constants and hit cap for `search`.

    `x_drop` is validated but not read: every seeded diagonal gets the
    banded gapped alignment, so no ungapped X-drop pass runs.
    """

    k: int = DEFAULT_K
    match_score: int = 1
    mismatch_score: int = -3
    gap_open: int = -5
    gap_extend: int = -2
    x_drop: int = 20
    min_seed_hits_per_diagonal: int = 1
    karlin_lambda: float = 1.374
    karlin_k: float = 0.711
    max_hits: int = 20

    def __post_init__(self):
        if self.k < 4:
            raise ValueError("k must be at least 4")
        if self.match_score <= 0:
            raise ValueError("match score must be positive")
        if self.mismatch_score >= 0 or self.gap_open >= 0 or self.gap_extend >= 0:
            raise ValueError("mismatch and gap scores must be negative")
        if self.x_drop <= 0:
            raise ValueError("x_drop must be positive")
        if self.max_hits < 1:
            raise ValueError("max_hits must be at least 1")

    def scoring(self) -> Scoring:
        return Scoring(
            match=self.match_score,
            mismatch=self.mismatch_score,
            gap_open=self.gap_open,
            gap_extend=self.gap_extend,
        )


@dataclass(frozen=True)
class KmerIndex:
    k: int
    subjects: tuple[DnaSequence, ...]
    postings: dict[str, tuple[tuple[int, int], ...]]

    @property
    def total_length(self) -> int:
        return sum(len(s) for s in self.subjects)

    def subject_summaries(self) -> list[tuple[str, int]]:
        return [(s.id, len(s)) for s in self.subjects]


@dataclass(frozen=True)
class HomologyHit:
    subject_id: str
    max_score: int
    total_score: int
    query_cover: float
    e_value: float
    max_ident: float
    best_alignment: AlignmentResult


@dataclass(frozen=True)
class _LocalAlignment:
    score: int
    q_start: int  # 0-based, inclusive
    q_end: int  # 0-based, exclusive
    s_start: int
    s_end: int
    aligned_q: str
    aligned_s: str


def build_index(db: FastaFile, k: int = DEFAULT_K) -> KmerIndex:
    """Index every N-free length-k window of every subject."""
    if len(db) == 0:
        raise EmptyDatabaseError("database contains no sequences")
    if k < 4:
        raise ValueError("k must be at least 4")
    postings: dict[str, list[tuple[int, int]]] = {}
    for si, subject in enumerate(db):
        bases = subject.bases
        for off in range(len(bases) - k + 1):
            window = bases[off : off + k]
            if "N" in window:
                continue
            postings.setdefault(window, []).append((si, off))
    frozen = {w: tuple(ps) for w, ps in postings.items()}
    return KmerIndex(k, tuple(db.records), frozen)


def _seeded_alignments(
    qb: str, subjects: tuple[DnaSequence, ...], keys: list[tuple[int, int]],
    params: SearchParams,
) -> list[_LocalAlignment | None]:
    """Best banded local alignment on each (subject index, diagonal) key.

    Smith-Waterman with affine gaps (Gotoh), restricted to DP cells (i, j)
    with |i - j - diagonal| <= BAND_RADIUS. The keys go through `band_fill`
    in batches of at most _BATCH_GROUPS, one vectorised row of every band
    per query base. Band slot b of query row i holds subject column
    j = i - diagonal - BAND_RADIUS + b.
    """
    radius = BAND_RADIUS
    width = 2 * radius + 1
    scoring = params.scoring()
    m = len(qb)
    qcodes = encode_bases(qb)
    offsets = list(range(-1, m))  # row i's band starts at code column i - 1
    codes: dict[int, np.ndarray] = {}
    out: list[_LocalAlignment | None] = []
    for lo in range(0, len(keys), _BATCH_GROUPS):
        batch = keys[lo : lo + _BATCH_GROUPS]
        # cols[g, x] holds the code of subject base x - diagonal - radius
        cols = np.full((len(batch), m + width - 1), OUTSIDE_CODE, dtype=np.uint8)
        for g, (si, diag) in enumerate(batch):
            if si not in codes:
                codes[si] = encode_bases(subjects[si].bases)
            sc = codes[si]
            first = diag + radius
            x_lo = max(0, first)
            x_hi = min(cols.shape[1], first + len(sc))
            if x_lo < x_hi:
                cols[g, x_lo:x_hi] = sc[x_lo - first : x_hi - first]
        M, Ix, Iy = band_fill(qcodes, cols, offsets, width, scoring, local=True)
        for g, (si, diag) in enumerate(batch):
            out.append(
                _local_traceback(
                    M[:, g], Ix[:, g], Iy[:, g], qb, subjects[si].bases,
                    qcodes, codes[si], diag, scoring,
                )
            )
    return out


def _local_traceback(
    M: np.ndarray, Ix: np.ndarray, Iy: np.ndarray, qb: str, sb: str,
    qcodes: np.ndarray, scodes: np.ndarray, diag: int, scoring: Scoring,
) -> _LocalAlignment | None:
    """Trace the best alignment of one filled band back to its start.

    The best cell is the first maximum of M in row-major order; it must
    score above 0. Moves are recomputed from the stored values, taking the
    first predecessor that reaches the cell's value in the order: fresh
    start, Match, gap in subject, gap in query.
    """
    width = M.shape[1]
    best_i, best_b = divmod(int(np.argmax(M)), width)
    best_score = int(M[best_i, best_b])
    if best_score <= 0:
        return None
    sub = scoring.substitution_matrix().tolist()
    oe = scoring.gap_open + scoring.gap_extend
    e = scoring.gap_extend
    shift = diag + BAND_RADIUS  # j = i - shift + b

    rev_q: list[str] = []
    rev_s: list[str] = []
    i, b = best_i, best_b
    state = _M
    while True:
        j = i - shift + b
        if state == _M:
            rev_q.append(qb[i - 1])
            rev_s.append(sb[j - 1])
            target = int(M[i, b]) - sub[qcodes[i - 1]][scodes[j - 1]]
            i -= 1  # diagonal predecessor keeps the same band slot
            if target == 0:
                q_start, s_start = i, j - 1
                break
            state = (int(M[i, b]), int(Ix[i, b]), int(Iy[i, b])).index(target)
        elif state == _IX:
            rev_q.append(qb[i - 1])
            rev_s.append("-")
            target = int(Ix[i, b])
            i -= 1
            b += 1
            state = (int(M[i, b]) + oe, int(Ix[i, b]) + e, int(Iy[i, b]) + oe).index(target)
        else:
            rev_q.append("-")
            rev_s.append(sb[j - 1])
            target = int(Iy[i, b])
            b -= 1
            state = (int(M[i, b]) + oe, int(Ix[i, b]) + oe, int(Iy[i, b]) + e).index(target)

    return _LocalAlignment(
        best_score,
        q_start,
        best_i,
        s_start,
        best_i - shift + best_b,
        "".join(reversed(rev_q)),
        "".join(reversed(rev_s)),
    )


def _select_non_overlapping(alns: list[_LocalAlignment]) -> list[_LocalAlignment]:
    """Greedy best-first selection of alignments disjoint on query coordinates."""
    unique = sorted(
        set(alns), key=lambda a: (-a.score, a.q_start, a.s_start, a.q_end, a.s_end)
    )
    kept: list[_LocalAlignment] = []
    for a in unique:
        if all(a.q_end <= k.q_start or a.q_start >= k.q_end for k in kept):
            kept.append(a)
    return kept


def e_value(max_score: int, query_len: int, db_len: int, params: SearchParams) -> float:
    """Karlin-Altschul expectation: E = K * m * n * exp(-lambda * S)."""
    return params.karlin_k * query_len * db_len * math.exp(
        -params.karlin_lambda * max_score
    )


def search(
    query: DnaSequence, index: KmerIndex, params: SearchParams = SearchParams()
) -> list[HomologyHit]:
    """Rank database subjects by local similarity to the query.

    Hits sort by max score descending, subject id ascending on ties, and
    the list truncates to params.max_hits. Seeds use the index's k (the
    window size the postings were built with).
    """
    k = index.k
    qb = query.bases
    if len(qb) < k:
        raise QueryTooShortError(f"query length {len(qb)} is below k={k}")

    # (a) seed matches, (b) counted by subject and diagonal
    groups: dict[tuple[int, int], int] = {}
    for q_off in range(len(qb) - k + 1):
        window = qb[q_off : q_off + k]
        if "N" in window:
            continue
        for si, s_off in index.postings.get(window, ()):
            key = (si, q_off - s_off)
            groups[key] = groups.get(key, 0) + 1

    # (c) one banded gapped local alignment per seeded diagonal
    keys = [
        key for key in sorted(groups)
        if groups[key] >= params.min_seed_hits_per_diagonal
    ]
    per_subject: dict[int, list[_LocalAlignment]] = {}
    for (si, _), aln in zip(keys, _seeded_alignments(qb, index.subjects, keys, params)):
        if aln is not None:
            per_subject.setdefault(si, []).append(aln)

    # (d) merge per-subject alignments into hits
    hits: list[HomologyHit] = []
    db_len = index.total_length
    for si in sorted(per_subject):
        kept = _select_non_overlapping(per_subject[si])
        best = kept[0]
        covered = sum(a.q_end - a.q_start for a in kept)
        best_result = result_from_alignment(best.aligned_q, best.aligned_s, best.score)
        hits.append(
            HomologyHit(
                subject_id=index.subjects[si].id,
                max_score=best.score,
                total_score=sum(a.score for a in kept),
                query_cover=100.0 * covered / len(qb),
                e_value=e_value(best.score, len(qb), db_len, params),
                max_ident=best_result.identity_percent,
                best_alignment=best_result,
            )
        )

    # (e) rank and truncate
    hits.sort(key=lambda h: (-h.max_score, h.subject_id))
    return hits[: params.max_hits]


def hit_to_dict(h: HomologyHit) -> dict:
    """Machine-readable record for one hit; one of these per JSONL line."""
    return {
        "subject_id": h.subject_id,
        "max_score": h.max_score,
        "total_score": h.total_score,
        "query_cover": h.query_cover,
        "e_value": h.e_value,
        "max_ident": h.max_ident,
        "best_alignment": {
            "score": h.best_alignment.score,
            "length": len(h.best_alignment),
            "identity_percent": h.best_alignment.identity_percent,
            "aligned_query": h.best_alignment.aligned_a,
            "aligned_subject": h.best_alignment.aligned_b,
        },
    }


def format_e_value(e: float) -> str:
    if e < 1e-180:
        return "0.0"
    if e < 1e-3:
        return f"{e:.0e}"
    return f"{e:.3g}"


def format_hit_table(hits: list[HomologyHit]) -> str:
    """Render hits as the five-column report table, rank order preserved."""
    lines = ["Description | Max score | Total score | Query cover | E value | Max ident"]
    if not hits:
        lines.append("no hits found")
    for h in hits:
        lines.append(
            f"{h.subject_id} | {h.max_score} | {h.total_score} | "
            f"{round(h.query_cover)}% | {format_e_value(h.e_value)} | "
            f"{round(h.max_ident)}%"
        )
    return "\n".join(lines) + "\n"
