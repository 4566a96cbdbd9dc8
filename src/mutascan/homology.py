"""Local seed-and-extend homology search over k-mer-indexed FASTA databases.

The index packs every N-free k-mer window of the database into a 2-bit
code (so k is at most 32) and sorts the codes. The search pipeline:
collect exact k-mer seed matches by binary search of the query's codes
and list the diagonals (query offset minus subject offset) they fall on,
in one call of the compiled kernel or else in numpy (`_seed_diagonals_numpy`),
then run a banded gapped local alignment around each seeded diagonal,
all in one `align.banded_local_align` call. Per-subject alignments merge
into one ranked hit carrying the classic report columns (max score, total
score, query cover, E-value, max identity). Only the forward strand is
searched.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _native
from .align import AlignmentResult, Scoring, banded_local_align, encode_bases
from .errors import MutascanError
from .seqio import DnaSequence, FastaFile

DEFAULT_K = 11
MIN_K = 4
MAX_K = 32  # 2 bits a base in a uint64 code
DEFAULT_MAX_HITS = 20
BAND_RADIUS = 16
# Indexes kept per process, keyed on (database, k). A diagnosis consults a
# few databases at one k, so 8 keeps all of them built across diagnoses;
# an index holds 24 bytes a database base.
INDEX_MEMO_SIZE = 8


class HomologyError(MutascanError):
    pass


class EmptyDatabaseError(HomologyError):
    pass


class QueryTooShortError(HomologyError):
    pass


# The search's scoring is fixed, and the Karlin-Altschul lambda and K of
# `e_value` were fitted to it, so none of them is a parameter: changing one
# score without refitting both constants would give wrong E-values.
SEARCH_SCORING = Scoring(match=1, mismatch=-3, gap_open=-5, gap_extend=-2)
KARLIN_LAMBDA = 1.374
KARLIN_K = 0.711


def _check_int(name: str, value, low: int, high: int | None = None) -> None:
    if type(value) is not int:  # bool is an int; 11.0 == 11 would share a memo entry
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be at most {high}, got {value}")


@dataclass(frozen=True, eq=False)
class KmerIndex:
    """Every N-free length-k window of every subject, sorted by 2-bit code.

    Window i has code `codes[i]` and starts at offset `offsets[i]` of
    subject `subject_idx[i]`; `codes` is ascending, and windows with equal
    codes come in no particular order. The arrays are read-only views over
    immutable bytes: one index may be shared by every caller of `build_index`.
    """

    k: int
    subjects: tuple[DnaSequence, ...]
    codes: np.ndarray
    subject_idx: np.ndarray
    offsets: np.ndarray

    @property
    def total_length(self) -> int:
        return sum(len(s) for s in self.subjects)


@dataclass(frozen=True)
class HomologyHit:
    subject_id: str
    max_score: int
    total_score: int
    query_cover: float
    e_value: float
    max_ident: float
    best_alignment: AlignmentResult


def _window_codes(symbols: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets of the N-free length-k windows of base codes `symbols` (`encode_bases`:
    A, C, G, T -> 0..3, N -> 4) and their 2-bit codes."""
    n = len(symbols) - k + 1
    if n <= 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.uint64)
    codes = np.zeros(n, dtype=np.uint64)
    for j in range(k):
        codes <<= 2
        codes |= symbols[j : j + n] & 3
    n_before = np.concatenate(([0], np.cumsum(symbols == 4)))
    clean = np.flatnonzero(n_before[k:] == n_before[:n])
    return clean, codes[clean]


def build_index(db: FastaFile, k: int = DEFAULT_K) -> KmerIndex:
    """Index every N-free length-k window of every subject.

    k is checked first, so a bad k raises before the memo is read. Results
    are memoized by (db, k) (`INDEX_MEMO_SIZE`), however the call spells k;
    errors are not.
    """
    _check_int("k", k, MIN_K, MAX_K)
    return _build_index(db, k)


@functools.lru_cache(maxsize=INDEX_MEMO_SIZE)
def _build_index(db: FastaFile, k: int) -> KmerIndex:
    if len(db) == 0:
        raise EmptyDatabaseError("database contains no sequences")
    # joined with N, so no N-free window spans two subjects
    positions, codes = _window_codes(encode_bases("N".join(s.bases for s in db)), k)
    starts = np.cumsum([0] + [len(s) + 1 for s in db.records[:-1]])
    subject_idx = np.searchsorted(starts, positions, side="right") - 1
    order = np.argsort(codes)
    arrays = (codes[order], subject_idx[order], (positions - starts[subject_idx])[order])
    # views over immutable bytes: no caller can make a shared index writeable again
    return KmerIndex(
        k, tuple(db.records), *(np.frombuffer(a.tobytes(), dtype=a.dtype) for a in arrays)
    )


def _seed_diagonals(qb: str, index: KmerIndex) -> list[tuple[int, int]]:
    """The seeded (subject, diagonal) pairs, ascending.

    The compiled kernel seeds when it loads, else `_seed_diagonals_numpy`
    does, on one argument list; both give the same list.
    """
    kernel = _native.load()
    seed_diagonals = _seed_diagonals_numpy if kernel is None else kernel.seed_diagonals
    return seed_diagonals(encode_bases(qb), index.k, index.codes, index.subject_idx, index.offsets)


def _seed_diagonals_numpy(
    query: np.ndarray, k: int, codes: np.ndarray, subject_idx: np.ndarray, offsets: np.ndarray
) -> list[tuple[int, int]]:
    """`_native.Kernel.seed_diagonals` in numpy: the same arguments and pairs.
    The fallback where the compiled kernel cannot be built, and its oracle."""
    q_offsets, q_codes = _window_codes(query, k)
    lo = np.searchsorted(codes, q_codes, side="left")
    counts = np.searchsorted(codes, q_codes, side="right") - lo
    total = int(counts.sum())
    if total == 0:
        return []
    # entry j of match run r is index window lo[r] + j
    run_start = np.cumsum(counts) - counts
    window = np.arange(total) - np.repeat(run_start - lo, counts)
    subject = subject_idx[window]
    diagonal = np.repeat(q_offsets, counts) - offsets[window]
    low = int(diagonal.min())
    span = int(diagonal.max()) - low + 1
    keys = np.unique(subject * span + (diagonal - low))
    return list(zip((keys // span).tolist(), (keys % span + low).tolist()))


def _select_non_overlapping(alns: list[AlignmentResult]) -> list[AlignmentResult]:
    """Greedy best-first selection of alignments disjoint on query coordinates."""
    unique = sorted(
        set(alns), key=lambda a: (-a.score, a.a_start, a.b_start, a.a_end, a.b_end)
    )
    kept: list[AlignmentResult] = []
    for a in unique:
        if all(a.a_end <= k.a_start or a.a_start >= k.a_end for k in kept):
            kept.append(a)
    return kept


def e_value(max_score: int, query_len: int, db_len: int) -> float:
    """Karlin-Altschul expectation: E = K * m * n * exp(-lambda * S)."""
    return KARLIN_K * query_len * db_len * math.exp(-KARLIN_LAMBDA * max_score)


def search(
    query: DnaSequence, index: KmerIndex, max_hits: int = DEFAULT_MAX_HITS
) -> list[HomologyHit]:
    """Rank database subjects by local similarity to the query.

    Hits sort by max score descending, subject id ascending on ties, and
    the list truncates to max_hits. Seeds use the index's k (the window
    size the index was built with).
    """
    _check_int("max_hits", max_hits, 1)
    k = index.k
    qb = query.bases
    if len(qb) < k:
        raise QueryTooShortError(f"query length {len(qb)} is below k={k}")

    # (a) seed matches, (b) grouped by subject and diagonal
    keys = _seed_diagonals(qb, index)

    # (c) one banded gapped local alignment per seeded diagonal
    bands = [(index.subjects[si].bases, diag) for si, diag in keys]
    per_subject: dict[int, list[AlignmentResult]] = {}
    for (si, _), aln in zip(keys, banded_local_align(qb, bands, BAND_RADIUS, SEARCH_SCORING)):
        if aln is not None:
            per_subject.setdefault(si, []).append(aln)

    # (d) merge per-subject alignments into hits
    hits: list[HomologyHit] = []
    db_len = index.total_length
    for si in sorted(per_subject):
        kept = _select_non_overlapping(per_subject[si])
        best = kept[0]
        covered = sum(a.a_end - a.a_start for a in kept)
        hits.append(
            HomologyHit(
                subject_id=index.subjects[si].id,
                max_score=best.score,
                total_score=sum(a.score for a in kept),
                query_cover=100.0 * covered / len(qb),
                e_value=e_value(best.score, len(qb), db_len),
                max_ident=best.identity_percent,
                best_alignment=best,
            )
        )

    # (e) rank and truncate
    hits.sort(key=lambda h: (-h.max_score, h.subject_id))
    return hits[:max_hits]


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
