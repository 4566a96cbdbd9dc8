"""Optimal global pairwise alignment (affine gaps) and mutation calling.

Sequence A is always the reference, B the patient sequence. Gap costs are
affine: a gap of length L costs gap_open + L*gap_extend. An N aligned to
anything scores 0, neither match nor mismatch.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from . import _native
from .errors import MutascanError, PositionOutOfRangeError
from .seqio import DnaSequence

if TYPE_CHECKING:
    from .protein import ProteinEffect

DEFAULT_CELL_CAP = 25_000_000  # cells of one global band: 3 int32 arrays, 300 MB

_NEG = -(1 << 28)  # unreachable; far below any score, far above int32 overflow
OUTSIDE_CODE = 5  # _band_align column code outside the sequence; scores as unreachable
_FIRST_RADIUS = 16  # global_align's first band half-width

# traceback states, preference order on ties
_M, _IX, _IY = 0, 1, 2
_UNREACHABLE = (_NEG, _NEG, _NEG)
_GAP = ord("-")  # traceback code of a gap column
# call_mutations' column classes: Insert (gap in A), Delete (gap in B),
# Match, Substitute; a variant is a maximal run of I, D or S
_INS, _DEL, _MATCH, _SUB = b"IDMS"
_VARIANT_RUNS = re.compile(rb"I+|D+|S+")


class AlignError(MutascanError):
    pass


class SizeCapExceededError(AlignError):
    pass


class OverlappingMutationsError(AlignError):
    pass


@dataclass(frozen=True)
class Scoring:
    match: int = 2
    mismatch: int = -1
    gap_open: int = -5
    gap_extend: int = -1

    def __post_init__(self):
        if self.match <= 0:
            raise ValueError("match score must be positive")
        if self.mismatch > 0 or self.gap_open > 0 or self.gap_extend > 0:
            raise ValueError("mismatch and gap scores must be <= 0")

    @functools.cached_property
    def table(self) -> np.ndarray:
        """Read-only 5 x 6 int32 scores of (row code, column code), built once: rows
        A C G T N, columns those and OUTSIDE_CODE; N pairs 0, the outside _NEG.

        A view over immutable bytes, so no caller can make it writeable again:
        the default `Scoring()` is shared by every alignment in the process."""
        table = np.full((5, OUTSIDE_CODE + 1), self.mismatch, dtype=np.int32)
        np.fill_diagonal(table, self.match)
        table[4, :] = table[:, 4] = 0
        table[:, OUTSIDE_CODE] = _NEG
        return np.frombuffer(table.tobytes(), dtype=np.int32).reshape(table.shape)


@dataclass(frozen=True)
class AlignmentResult:
    """A pairwise alignment of a[a_start:a_end] with b[b_start:b_end].

    Spans are 0-based and half-open, so a global alignment spans
    (0, len(a), 0, len(b)). The aligned rows mark a gap with '-'; no column
    is gapped on both sides.
    """

    score: int
    aligned_a: str
    aligned_b: str
    a_start: int
    a_end: int
    b_start: int
    b_end: int

    def __len__(self) -> int:
        return len(self.aligned_a)

    @functools.cached_property
    def identity_percent(self) -> float:
        """Percentage of columns that hold the same base on both sides, counted once.

        No column is gapped on both sides, so equal bytes are equal bases."""
        a, b = self.aligned_a, self.aligned_b
        if not a:
            return 0.0
        row_a, row_b = (np.frombuffer(row.encode("ascii"), dtype=np.uint8) for row in (a, b))
        count = int(np.count_nonzero(row_a == row_b))
        return 100.0 * count / len(a)


class MutationKind(Enum):
    SUBSTITUTION = "substitution"
    INSERTION = "insertion"
    DELETION = "deletion"


_KIND_ORDER = {MutationKind.INSERTION: 0, MutationKind.SUBSTITUTION: 1, MutationKind.DELETION: 2}


@dataclass(frozen=True)
class Mutation:
    """One called variant, positioned 1-based on the reference.

    Substitutions and deletions start at `position`; an insertion sits
    immediately after reference base `position` (0 means before base 1).
    `effect` stays None until the protein module classifies it.
    """

    position: int
    kind: MutationKind
    ref_bases: str
    alt_bases: str
    effect: "ProteinEffect | None" = None

    def __post_init__(self):
        if self.position < 0:
            raise ValueError(f"negative position {self.position}")
        if self.kind is MutationKind.SUBSTITUTION:
            ok = len(self.ref_bases) == len(self.alt_bases) >= 1
        elif self.kind is MutationKind.INSERTION:
            ok = not self.ref_bases and self.alt_bases
        else:
            ok = not self.alt_bases and self.ref_bases
        if not ok:
            raise ValueError(f"inconsistent bases for {self.kind.value}")

    def describe(self) -> str:
        if self.kind is MutationKind.SUBSTITUTION:
            return f"{self.position} {self.ref_bases}>{self.alt_bases}"
        if self.kind is MutationKind.INSERTION:
            return f"{self.position} ins{self.alt_bases}"
        return f"{self.position} del{self.ref_bases}"


def mutation_to_dict(m: Mutation) -> dict:
    """The {position, kind, ref, alt} record that files and reports hold."""
    return {
        "position": m.position,
        "kind": m.kind.value,
        "ref": m.ref_bases,
        "alt": m.alt_bases,
    }


def mutation_from_dict(record: dict) -> Mutation:
    """Inverse of `mutation_to_dict`; a missing "ref" or "alt" reads as empty.

    The position must be an int and the bases strings over ACGTN. Raises
    KeyError, TypeError or ValueError on a malformed record.
    """
    position = record["position"]
    ref, alt = record.get("ref", ""), record.get("alt", "")
    if type(position) is not int:  # refuses 1.7, "1", true
        raise TypeError(f"position must be an integer, got {position!r}")
    for bases in (ref, alt):
        if type(bases) is not str or bases.strip("ACGTN"):
            raise ValueError(f"bases must be a string over ACGTN, got {bases!r}")
    return Mutation(position, MutationKind(record["kind"]), ref, alt)


def encode_bases(bases: str) -> np.ndarray:
    return np.frombuffer(
        bases.encode("ascii").translate(_CODE_TABLE), dtype=np.uint8
    ).copy()


_CODE_TABLE = bytes.maketrans(b"ACGTN", bytes([0, 1, 2, 3, 4]))
_BASE_TABLE = bytes.maketrans(bytes([0, 1, 2, 3, 4]), b"ACGTN")


def _band_align(
    rows: np.ndarray,
    cols: np.ndarray,
    offsets: np.ndarray,
    width: int,
    scoring: Scoring,
    local: bool = False,
) -> list:
    """Banded three-state affine-gap alignment (Gotoh) of every band: fill, then trace.

    `rows` holds the base codes down the matrix. Each of the G bands stores
    `width` cells per row; row i (1-based) of band g scores against the
    codes cols[g, offsets[i] : offsets[i] + width], where OUTSIDE_CODE marks
    a column outside the sequence. `offsets` is an int64 array. From one row
    to the next the offset steps by 1 or by 0. A step of 1 keeps the row in
    diagonal coordinates: M reads the same slot of the previous row and Ix
    the next slot. A step of 0 keeps it in column coordinates: M reads the
    previous slot and Ix the same slot. Iy is an exact integer running-max
    scan along the row. Cells outside the stored windows are unreachable.

    Row 0 follows from the mode. Local mode leaves it unreachable and floors
    the M predecessor at 0, so an alignment may start anywhere. A global
    band has offsets[0] == 0: M is 0 at slot 0 and Iy at slot s >= 1 opens
    a gap of s columns. The (3, len(rows) + 1, G, width) int32 block of M,
    Ix and Iy stays inside this call, which returns one decoded path per
    band. The compiled kernel fills and traces when it loads, else
    `_band_align_numpy` does, on one argument list; both give the same paths.
    """
    # One block for all three: once glibc has freed it, its mmap threshold is the block's
    # size and its trim threshold twice that, so the next call takes it from the heap.
    # Three blocks of a third the size coalesce past that trim threshold, and were mapped
    # and faulted in again on every call.
    cells = np.empty((3, len(rows) + 1, cols.shape[0], width), dtype=np.int32)
    cells[:, 0] = _NEG
    oe, e = scoring.gap_open + scoring.gap_extend, scoring.gap_extend
    if not local:
        cells[_M, 0, :, 0] = 0
        cells[_IY, 0, :, 1:] = oe + e * np.arange(width - 1)
    kernel = _native.load()
    band_align = _band_align_numpy if kernel is None else kernel.band_align
    return [
        None if path is None else (*path[:3], _decode(path[3]), _decode(path[4]))
        for path in band_align(rows, cols, offsets, scoring.table, oe, e, local, cells)
    ]


def _band_align_numpy(
    rows: np.ndarray, cols: np.ndarray, offsets: np.ndarray, table: np.ndarray,
    oe: int, e: int, local: bool, cells: np.ndarray,
) -> list:
    """`_native.Kernel.band_align` in numpy: `_fill_rows_numpy`, then `_band_traceback_python`
    on each band. The fallback where the compiled kernel cannot be built, and its oracle."""
    codes, starts = rows.tolist(), offsets.tolist()
    M, Ix, Iy = cells
    _fill_rows_numpy(rows, cols, starts, table, oe, e, local, M, Ix, Iy)
    return [
        _band_traceback_python(
            M[:, g], Ix[:, g], Iy[:, g], codes, cols[g], starts, table, oe, e, local
        )
        for g in range(len(cols))
    ]


def _fill_rows_numpy(
    rows: np.ndarray, cols: np.ndarray, offsets: list[int], table: np.ndarray,
    oe: int, e: int, local: bool, M: np.ndarray, Ix: np.ndarray, Iy: np.ndarray,
) -> None:
    """Fill rows 1.. of `_band_align`'s M, Ix and Iy with one numpy step per row.

    The fallback where the compiled kernel cannot be built, and the
    reference the tests compare it with.
    """
    m = len(rows)
    width = M.shape[2]
    # 0-d int32 constants: ufuncs convert a Python int on every call
    oe, e = np.array(oe, dtype=np.int32), np.array(e, dtype=np.int32)
    # slots no move reaches: M's first slot of a column-coordinate row, Ix's
    # last slot of a diagonal-coordinate row, Iy's first slot of every row
    M[1:, :, 0] = Ix[1:, :, -1] = Iy[1:, :, 0] = _NEG

    zero = np.array(0, dtype=np.int32)
    sub_rows = list(table)
    steps = np.arange(width, dtype=np.int32)
    # Iy[t] = max over k < t of (H[k] - e*k) + oe - e + e*t, H = max(M, Ix)
    ramp = (-e * steps)[None, :]
    iy_add = ((oe - e) + e * steps[1:])[None, :]
    tmp = np.empty(M.shape[1:], dtype=np.int32)
    best = np.empty_like(tmp)
    tmp_head, tmp_tail = tmp[:, :-1], tmp[:, 1:]
    best_head = best[:, :-1]
    # per-row views, made once: the loop below only indexes and calls ufuncs
    rows_m, rows_x, rows_y = list(M), list(Ix), list(Iy)
    tails_m, tails_x, tails_y = list(M[:, :, 1:]), list(Ix[:, :, 1:]), list(Iy[:, :, 1:])
    heads_x = list(Ix[:, :, :-1])
    maximum, add, running_max = np.maximum, np.add, np.maximum.accumulate

    codes = rows.tolist()
    for i in range(1, m + 1):
        pm, px, py = rows_m[i - 1], rows_x[i - 1], rows_y[i - 1]
        cm, cx = rows_m[i], rows_x[i]
        off = offsets[i]
        sub = sub_rows[codes[i - 1]][cols[:, off : off + width]]
        maximum(pm, py, out=tmp)
        maximum(tmp, px, out=best)
        if local:
            maximum(best, zero, out=best)
        if off != offsets[i - 1]:
            add(sub, best, out=cm)
            head = heads_x[i]
            add(tmp_tail, oe, out=head)
            add(tails_x[i - 1], e, out=best_head)
            maximum(head, best_head, out=head)
        else:
            add(sub[:, 1:], best_head, out=tails_m[i])
            add(tmp, oe, out=cx)
            add(px, e, out=best)
            maximum(cx, best, out=cx)
        maximum(cm, cx, out=tmp)
        add(tmp, ramp, out=tmp)
        running_max(tmp, axis=1, out=tmp)
        add(tmp_head, iy_add, out=tails_y[i])


def _band_traceback_python(
    M: np.ndarray, Ix: np.ndarray, Iy: np.ndarray, rows: list[int],
    cols: np.ndarray, offsets: list[int], table: np.ndarray, oe: int, e: int, local: bool,
):
    """Trace the best path of one band filled by `_band_align` back to its start.

    M, Ix and Iy are the band's (len(rows) + 1, width) values. Cell (i, b)
    lies in row i and column x = offsets[i] + b and consumes the row code
    rows[i - 1] and the column code cols[x]. With step = offsets[i] -
    offsets[i - 1], the M predecessor of (i, b) is slot b - 1 + step of row
    i - 1, the Ix predecessor slot b + step of row i - 1 and the Iy
    predecessor slot b - 1 of row i; a slot outside the window is
    unreachable. Each move is recomputed from the stored values, taking the
    first candidate that reaches the cell's value.

    Local mode starts at the first maximum of M in row-major order, which
    must be above 0, and stops at a fresh start; ties prefer a fresh start,
    then M, Ix, Iy. Global mode starts at the last row's last column, stops
    at row 0, column 0, and prefers M, then Ix, then Iy. Returns None when
    no local path scores above 0, else (score, (row, column) of the cell the
    path leaves from, (row, column) of its last cell, row codes, column
    codes), the codes as bytes, last first, _GAP marking a gap.
    """
    width = M.shape[1]
    sub = table.tolist()
    col = cols.item
    m_at, x_at, y_at = M.item, Ix.item, Iy.item

    def cell(i: int, b: int) -> tuple[int, int, int]:
        if 0 <= b < width:
            return m_at(i, b), x_at(i, b), y_at(i, b)
        return _UNREACHABLE

    if local:
        i, b = divmod(int(np.argmax(M)), width)
        here = cell(i, b)
        score, state = here[_M], _M
        if score <= 0:
            return None
    else:
        i = len(rows)
        b = len(cols) - 1 - offsets[i]
        here = cell(i, b)
        score = max(here)
        state = here.index(score)  # index order == preference order M, Ix, Iy
    end = (i, offsets[i] + b)
    origin = -offsets[0]  # slot of column 0 in row 0
    rev_r: list[int] = []
    rev_c: list[int] = []
    while True:
        if state == _M:
            r, c = rows[i - 1], col(offsets[i] + b)
            rev_r.append(r)
            rev_c.append(c)
            target = here[_M] - sub[r][c]
            b += offsets[i] - offsets[i - 1] - 1
            i -= 1
            if local and target == 0:
                break
            here = cell(i, b)
            candidates = here
        elif state == _IX:
            rev_r.append(rows[i - 1])
            rev_c.append(_GAP)
            target = here[_IX]
            b += offsets[i] - offsets[i - 1]
            i -= 1
            here = cell(i, b)
            candidates = (here[0] + oe, here[1] + e, here[2] + oe)
        else:
            rev_r.append(_GAP)
            rev_c.append(col(offsets[i] + b))
            target = here[_IY]
            b -= 1
            here = cell(i, b)
            candidates = (here[0] + oe, here[1] + oe, here[2] + e)
        if i == 0 and b == origin and not local:
            break
        state = candidates.index(target)
    return score, (i, offsets[i] + b), end, bytes(rev_r), bytes(rev_c)


def _decode(rev_codes: bytes) -> str:
    """Bases for codes collected last to first; _GAP decodes to '-'."""
    return rev_codes[::-1].translate(_BASE_TABLE).decode("ascii")


def _global_band(ca: np.ndarray, cb: np.ndarray, radius: int, scoring: Scoring):
    """Align in the band of diagonals [min(0, n-m) - radius, max(0, n-m) + radius].

    Row i keeps the `width` columns starting at starts[i]; the window is
    clipped to the matrix, so at most n + 1 columns a row are stored, and
    a width of n + 1 is the full DP. Raises SizeCapExceededError before
    filling a band of more than DEFAULT_CELL_CAP cells. Returns the band's
    one `_band_align` path.
    """
    m, n = len(ca), len(cb)
    lo = min(0, n - m) - radius
    hi = max(0, n - m) + radius
    width = min(hi - lo + 1, n + 1)
    if (m + 1) * width > DEFAULT_CELL_CAP:
        raise SizeCapExceededError(
            f"{m} x {n} alignment needs a band of {(m + 1) * width} cells, "
            f"above the {DEFAULT_CELL_CAP}-cell cap"
        )
    starts = np.clip(np.arange(m + 1, dtype=np.int64) + lo, 0, n + 1 - width)
    [path] = _band_align(ca, _global_columns(cb), starts, width, scoring)
    return path


def _global_columns(cb: np.ndarray) -> np.ndarray:
    """The (1, n + 1) column codes of a global band: column j consumes base j; column 0 none."""
    return np.concatenate((np.array([OUTSIDE_CODE], dtype=np.uint8), cb))[None, :]


def _outside_bound(m: int, n: int, radius: int, scoring: Scoring) -> int:
    """Upper bound on the score of any global path that leaves the band.

    Leaving the band and coming back takes at least |n-m| + 2*radius + 2
    gap columns and one gap open; every aligned pair scores at most `match`.
    """
    gaps = abs(n - m) + 2 * radius + 2
    pairs = (m + n - gaps) // 2
    return scoring.match * pairs + scoring.gap_extend * gaps + scoring.gap_open


def global_align(
    a: DnaSequence, b: DnaSequence, scoring: Scoring = Scoring()
) -> AlignmentResult:
    """Optimal global alignment of reference `a` against patient `b`.

    The DP first runs in a diagonal band of radius 16. It keeps that band
    when the band's score is strictly above the best score any path leaving
    the band could reach (Ukkonen 1985). Otherwise the band's score, a
    lower bound on the optimum, picks the smallest radius whose leave-bound
    it beats, and a second fill at that radius (or over the whole matrix)
    is final. Every optimal path then lies in the band, so the result
    equals the full DP's. Traceback ties prefer Match/Substitute over
    Delete (gap in B) over Insert (gap in A), so the output is deterministic.
    A band of more than DEFAULT_CELL_CAP cells raises SizeCapExceededError
    before it is filled.
    """
    m, n = len(a.bases), len(b.bases)
    ca = encode_bases(a.bases)
    cb = encode_bases(b.bases)
    radius = _FIRST_RADIUS
    path = _global_band(ca, cb, radius, scoring)
    full_radius = (n - abs(n - m) + 1) // 2  # from here on the band stores whole rows
    while radius < full_radius and path[0] <= _outside_bound(m, n, radius, scoring):
        radius += 1
    if radius != _FIRST_RADIUS:
        path = _global_band(ca, cb, radius, scoring)
    score, _, _, aligned_a, aligned_b = path
    return AlignmentResult(score, aligned_a, aligned_b, 0, m, 0, n)


def banded_local_align(
    query: str, bands: list[tuple[str, int]], radius: int, scoring: Scoring
) -> list[AlignmentResult | None]:
    """Best local alignment of `query` in each band of a (subject, diagonal) list.

    Smith-Waterman with affine gaps (Gotoh), restricted to the DP cells
    (i, j) with |i - j - diagonal| <= radius; None where no alignment in
    the band scores above 0. Side A of each record is the query, side B
    the subject. All bands go through one `_band_align` call: one
    vectorised row of every band per query base, then one path per band.
    """
    width = 2 * radius + 1
    m = len(query)
    rows = encode_bases(query)
    offsets = np.arange(-1, m, dtype=np.int64)  # row i's window starts at column i - 1
    # cols[g, x] holds the code of subject base x - diagonal - radius
    cols = np.full((len(bands), m + width - 1), OUTSIDE_CODE, dtype=np.uint8)
    for g, (subject, diag) in enumerate(bands):
        first = diag + radius
        x_lo = max(0, first)
        x_hi = min(cols.shape[1], first + len(subject))
        if x_lo < x_hi:
            cols[g, x_lo:x_hi] = encode_bases(subject[x_lo - first : x_hi - first])
    paths = _band_align(rows, cols, offsets, width, scoring, local=True)
    out: list[AlignmentResult | None] = []
    for (_, diag), path in zip(bands, paths):
        if path is None:
            out.append(None)
            continue
        score, (i0, x0), (i1, x1), aligned_q, aligned_s = path
        shift = diag + radius - 1  # column x is subject prefix length x - shift
        out.append(
            AlignmentResult(score, aligned_q, aligned_s, i0, i1, x0 - shift, x1 - shift)
        )
    return out


def call_mutations(alignment: AlignmentResult) -> list[Mutation]:
    """Derive the variant list from an alignment, side A as the reference.

    Each maximal run of substituted columns becomes one Substitution; each
    maximal gap run one Insertion or Deletion. The list is sorted by
    reference position, insertions before substitutions before deletions
    when positions tie.
    """
    a, b = alignment.aligned_a, alignment.aligned_b
    ca = np.frombuffer(a.encode("ascii"), dtype=np.uint8)
    cb = np.frombuffer(b.encode("ascii"), dtype=np.uint8)
    in_ref = ca != _GAP
    classes = np.select([~in_ref, cb == _GAP, ca == cb], [_INS, _DEL, _MATCH], _SUB)
    text = classes.astype(np.uint8).tobytes()
    consumed = np.cumsum(in_ref) - in_ref  # reference bases left of each column
    muts: list[Mutation] = []
    for run in _VARIANT_RUNS.finditer(text):
        lo, hi = run.span()
        ref_pos = consumed.item(lo)
        if text[lo] == _INS:  # sits after the last consumed reference base
            muts.append(Mutation(ref_pos, MutationKind.INSERTION, "", b[lo:hi]))
        elif text[lo] == _DEL:
            muts.append(Mutation(ref_pos + 1, MutationKind.DELETION, a[lo:hi], ""))
        else:
            muts.append(
                Mutation(ref_pos + 1, MutationKind.SUBSTITUTION, a[lo:hi], b[lo:hi])
            )
    muts.sort(key=lambda mu: (mu.position, _KIND_ORDER[mu.kind]))
    return muts


def _occupied_span(mut: Mutation) -> tuple[float, float]:
    # insertions live between bases, so they occupy a half-open point
    if mut.kind is MutationKind.INSERTION:
        return (mut.position + 0.5, mut.position + 0.5)
    return (float(mut.position), float(mut.position + len(mut.ref_bases) - 1))


def apply_mutations(ref: DnaSequence, muts: list[Mutation]) -> DnaSequence:
    """Apply a sorted, non-overlapping call set to the reference.

    Edits run right-to-left so earlier coordinates stay valid. Raises
    OverlappingMutationsError or PositionOutOfRangeError on bad input.
    """
    for mut in muts:
        lo = 0 if mut.kind is MutationKind.INSERTION else 1
        hi = len(ref.bases)
        end = mut.position + len(mut.ref_bases) - 1 if mut.ref_bases else mut.position
        if not (lo <= mut.position and end <= hi):
            raise PositionOutOfRangeError(
                f"mutation at {mut.position} outside reference of length {hi}"
            )
    keys = [(m.position, _KIND_ORDER[m.kind]) for m in muts]
    if keys != sorted(keys):
        raise OverlappingMutationsError("mutations must be sorted by position")
    # an insertion at p sits between bases, so it never overlaps a
    # substitution or deletion starting at p; spans are checked after an
    # independent sort because the tie order above is not span order
    spans = sorted(_occupied_span(m) for m in muts)
    for prev, cur in zip(spans, spans[1:]):
        if cur[0] <= prev[1]:
            raise OverlappingMutationsError(
                f"mutations overlap near reference position {int(cur[0])}"
            )

    bases = list(ref.bases)
    for mut in sorted(muts, key=_occupied_span, reverse=True):
        p = mut.position
        if mut.kind is MutationKind.SUBSTITUTION:
            if "".join(bases[p - 1 : p - 1 + len(mut.ref_bases)]) != mut.ref_bases:
                raise ValueError(f"reference bases at {p} do not match {mut.ref_bases!r}")
            bases[p - 1 : p - 1 + len(mut.alt_bases)] = mut.alt_bases
        elif mut.kind is MutationKind.DELETION:
            if "".join(bases[p - 1 : p - 1 + len(mut.ref_bases)]) != mut.ref_bases:
                raise ValueError(f"reference bases at {p} do not match {mut.ref_bases!r}")
            del bases[p - 1 : p - 1 + len(mut.ref_bases)]
        else:
            bases[p:p] = mut.alt_bases
    return DnaSequence(ref.id, ref.description, "".join(bases))
