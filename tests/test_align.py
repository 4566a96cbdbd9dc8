"""Global affine-gap alignment, mutation calling, and mutation application."""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mutascan import align as align_module
from mutascan.align import (
    _NEG,
    _global_band,
    DEFAULT_CELL_CAP,
    OUTSIDE_CODE,
    AlignmentResult,
    Mutation,
    MutationKind,
    OverlappingMutationsError,
    PositionOutOfRangeError,
    Scoring,
    SizeCapExceededError,
    apply_mutations,
    banded_local_align,
    call_mutations,
    encode_bases,
    global_align,
)
from mutascan.homology import DEFAULT_MAX_HITS, build_index
from mutascan.seqio import DnaSequence, FastaFile

from oracles import (
    dna,
    enumerate_global_score,
    global_score_dp,
    random_bases,
    reference_calls,
    reference_global_align,
    reference_identity,
    reference_search,
    rescore_alignment,
    substitution_matrix,
)


def _seq(bases, rec_id="s"):
    return DnaSequence(rec_id, "", bases)


def _align(a, b, scoring=Scoring()):
    return global_align(_seq(a, "a"), _seq(b, "b"), scoring)


def _params(scoring):
    return (scoring.match, scoring.mismatch, scoring.gap_open, scoring.gap_extend)


def test_identical_sequences():
    res = _align("ACGT", "ACGT")
    assert res.score == 8
    assert res.aligned_a == res.aligned_b == "ACGT"
    assert res.identity_percent == 100.0
    assert (res.a_start, res.a_end, res.b_start, res.b_end) == (0, 4, 0, 4)
    assert call_mutations(res) == []


def test_single_substitution():
    res = _align("ACGT", "AGGT")
    assert res.score == 5
    assert (res.aligned_a, res.aligned_b) == ("ACGT", "AGGT")
    muts = call_mutations(res)
    assert len(muts) == 1
    assert muts[0].kind is MutationKind.SUBSTITUTION
    assert muts[0].position == 2
    assert (muts[0].ref_bases, muts[0].alt_bases) == ("C", "G")


def test_single_deletion():
    res = _align("ACGT", "ACT")
    assert res.score == 0
    assert (res.aligned_a, res.aligned_b) == ("ACGT", "AC-T")
    muts = call_mutations(res)
    assert len(muts) == 1
    assert muts[0].kind is MutationKind.DELETION
    assert muts[0].position == 3
    assert muts[0].ref_bases == "G"
    assert muts[0].alt_bases == ""


def test_insertion_before_first_base_has_position_zero():
    res = _align("A", "AA")
    assert (res.aligned_a, res.aligned_b) == ("-A", "AA")
    muts = call_mutations(res)
    assert len(muts) == 1
    assert muts[0].kind is MutationKind.INSERTION
    assert muts[0].position == 0
    assert muts[0].alt_bases == "A"


def test_n_columns_score_zero_but_still_called():
    res = _align("ANG", "ATG")
    assert res.score == 4
    # the differing column must be called so apply() reproduces the patient
    muts = call_mutations(res)
    assert [(m.ref_bases, m.alt_bases) for m in muts] == [("N", "T")]
    assert apply_mutations(_seq("ANG"), muts).bases == "ATG"
    assert res.identity_percent == pytest.approx(100 * 2 / 3)


def test_adjacent_substitutions_merge_into_one_run():
    res = AlignmentResult(2, "AAGG", "AATT", 0, 4, 0, 4)
    muts = call_mutations(res)
    assert len(muts) == 1
    assert muts[0].position == 3
    assert (muts[0].ref_bases, muts[0].alt_bases) == ("GG", "TT")


def test_insertion_sorts_before_substitution_at_same_position():
    res = AlignmentResult(0, "TA-C", "TTGC", 0, 3, 0, 4)
    muts = call_mutations(res)
    assert [m.kind for m in muts] == [MutationKind.INSERTION, MutationKind.SUBSTITUTION]
    assert [m.position for m in muts] == [2, 2]
    assert apply_mutations(_seq("TAC"), muts).bases == "TTGC"


def test_matches_exponential_enumeration():
    rng = random.Random(7)
    scorings = [
        Scoring(),
        Scoring(match=1, mismatch=-3, gap_open=-5, gap_extend=-2),
        Scoring(match=3, mismatch=-2, gap_open=-4, gap_extend=-3),
    ]
    for _ in range(120):
        a = random_bases(rng, rng.randint(1, 6), "ACGTN")
        b = random_bases(rng, rng.randint(1, 6), "ACGTN")
        scoring = rng.choice(scorings)
        res = _align(a, b, scoring)
        assert res.score == enumerate_global_score(a, b, *_params(scoring))


def test_matches_naive_dp_at_moderate_lengths():
    rng = random.Random(8)
    for _ in range(15):
        a = random_bases(rng, rng.randint(50, 200), "ACGTN")
        b = random_bases(rng, rng.randint(50, 200), "ACGTN")
        res = _align(a, b)
        assert res.score == global_score_dp(a, b, *_params(Scoring()))


# --- differential tests against the full-matrix reference aligner -----------

_SCORINGS = st.sampled_from(
    [
        Scoring(),
        Scoring(match=1, mismatch=-3, gap_open=-5, gap_extend=-2),
        Scoring(match=3, mismatch=-2, gap_open=-4, gap_extend=-3),
        Scoring(match=1, mismatch=0, gap_open=0, gap_extend=0),
        Scoring(match=2, mismatch=0, gap_open=-1, gap_extend=0),
    ]
)


def _assert_same_as_reference(a, b, scoring):
    assert _align(a, b, scoring) == reference_global_align(a, b, scoring)


@st.composite
def _edited_pairs(draw):
    """A reference and a copy carrying a few substitutions and indels."""
    ref = draw(dna("ACGTN", 1, 400))
    alt = list(ref)
    for _ in range(draw(st.integers(0, 8))):
        pos = draw(st.integers(0, len(alt)))
        kind = draw(st.sampled_from(["sub", "ins", "del"]))
        if kind == "ins" or not alt:
            alt[pos:pos] = draw(dna("ACGT", 1, 12))
        elif kind == "sub" and pos < len(alt):
            alt[pos] = draw(st.sampled_from("ACGTN"))
        else:
            del alt[pos : pos + draw(st.integers(1, 12))]
    return ref, "".join(alt) or "A"


@settings(max_examples=80, deadline=None)
@given(_edited_pairs(), _SCORINGS)
def test_matches_reference_on_edited_pairs(kernels, pair, scoring):
    for kernel in kernels:
        with kernel():
            _assert_same_as_reference(*pair, scoring)


@settings(max_examples=40, deadline=None)
@given(dna("ACGT", 1, 160), dna("ACGT", 1, 160), _SCORINGS)
def test_matches_reference_on_unrelated_pairs(kernels, a, b, scoring):
    # unrelated sequences fail the band certificate until it covers the matrix
    for kernel in kernels:
        with kernel():
            _assert_same_as_reference(a, b, scoring)


@settings(max_examples=40, deadline=None)
@given(dna("ACGTNNNN", 1, 160), dna("ACGTNNNN", 1, 160), _SCORINGS)
def test_matches_reference_on_n_rich_pairs(kernels, a, b, scoring):
    for kernel in kernels:
        with kernel():
            _assert_same_as_reference(a, b, scoring)


@settings(max_examples=30, deadline=None)
@given(dna("ACGTN", 34, 200), st.integers(0, 1000), st.booleans(), st.booleans(), _SCORINGS, st.data())
def test_matches_reference_on_very_unequal_lengths(
    kernels, short, extra, related, swap, scoring, data
):
    # a related pair shares `short` around one long insertion, so the band
    # spans |m - n| + 33 diagonals without covering the matrix
    filler = data.draw(dna("ACGT", extra, extra))
    if related:
        cut = data.draw(st.integers(0, len(short)))
        long = short[:cut] + filler + short[cut:]
    else:
        long = data.draw(dna("ACGT", 1, len(short))) + filler
    a, b = (long, short) if swap else (short, long)
    for kernel in kernels:
        with kernel():
            _assert_same_as_reference(a, b, scoring)


@settings(max_examples=40, deadline=None)
@given(dna("ACGTN", 1, 1), dna("ACGTN", 1, 80), st.booleans(), _SCORINGS)
def test_matches_reference_on_length_one_inputs(kernels, one, other, swap, scoring):
    a, b = (other, one) if swap else (one, other)
    for kernel in kernels:
        with kernel():
            _assert_same_as_reference(a, b, scoring)


@settings(max_examples=60, deadline=None)
@given(_edited_pairs(), st.lists(st.integers(-40, 40), min_size=1, max_size=4),
       st.integers(0, 16), _SCORINGS)
def test_spans_match_the_aligned_strings(kernels, pair, diagonals, radius, scoring):
    a, b = pair
    for kernel in kernels:
        with kernel():
            records = [_align(a, b, scoring)]
            records += banded_local_align(a, [(b, d) for d in diagonals], radius, scoring)
            for res in filter(None, records):
                assert a[res.a_start : res.a_end] == res.aligned_a.replace("-", "")
                assert b[res.b_start : res.b_end] == res.aligned_b.replace("-", "")


_SUBSTITUTED = [(x, y) for x in "ACGTN" for y in "ACGTN" if x != y]
_N_AGAINST_A_BASE = [(x, y) for x, y in _SUBSTITUTED if "N" in (x, y)]


@st.composite
def _aligned_rows(draw):
    """Two aligned rows made of runs of match, substitute, insert and delete
    columns over ACGTN; any run may start, end or follow any other, and a
    single match column may split two runs of one kind."""
    base = st.sampled_from("ACGTN")
    substituted = st.one_of(st.sampled_from(_N_AGAINST_A_BASE), st.sampled_from(_SUBSTITUTED))
    runs = draw(st.lists(st.tuples(st.sampled_from("MSID"), st.integers(1, 4))))
    if draw(st.booleans()):  # a variant run, one match column, then another of its kind
        kind = draw(st.sampled_from("SID"))
        at = draw(st.integers(0, len(runs)))
        runs[at:at] = [(kind, draw(st.integers(1, 3))), ("M", 1), (kind, draw(st.integers(1, 3)))]
    columns = []
    for kind, length in runs:
        for _ in range(length):
            if kind == "M":
                x = draw(base)
                columns.append((x, x))
            elif kind == "S":
                columns.append(draw(substituted))
            elif kind == "I":
                columns.append(("-", draw(base)))
            else:
                columns.append((draw(base), "-"))
    return "".join(x for x, _ in columns), "".join(y for _, y in columns)


@settings(max_examples=300, deadline=None)
@given(_aligned_rows())
@example(("", ""))  # no column
@example(("ACGTN", "ACGTN"))  # no differing column
@example(("AC-G", "GTA-"))  # S then I then D, from column 0 to the last column
@example(("A-CG", "AT-T"))  # I then D then S
@example(("ACGT", "A-TT"))  # D then S
@example(("ACGTA", "TCCTN"))  # substitutions split by one match column: three calls
@example(("A-C-G", "ATCGG"))  # insertions split by one match column
@example(("ACGTA", "-C-T-"))  # deletions split by one match column, at both ends
@example(("NACN", "ANCG"))  # N against a base, either way
def test_calls_and_identity_match_the_column_walk(rows):
    aligned_a, aligned_b = rows
    res = AlignmentResult(0, aligned_a, aligned_b, 0, 0, 0, 0)
    assert (call_mutations(res), res.identity_percent) == reference_calls(*rows)


def test_band_never_stores_more_than_the_full_matrix():
    rng = random.Random(15)
    for m, n in ((50, 30), (30, 50), (200, 200)):
        ca = encode_bases(random_bases(rng, m))
        cb = encode_bases(random_bases(rng, n))
        for radius in (16, 64, 4096):
            [((rows, cols, starts, width, *_), _)] = _band_align_calls(
                _global_band, ca, cb, radius, Scoring()
            )
            # _band_align stores (len(rows) + 1, width, len(cols)) cells a matrix
            assert len(rows) == m and cols.shape == (1, n + 1) and width <= n + 1
            assert all(0 <= s <= n + 1 - width for s in starts)


def test_global_align_fills_at_most_two_bands(monkeypatch):
    rng = random.Random(16)
    ref = random_bases(rng, 2000)
    # an unrelated pair needs the whole matrix; a deletion and an insertion
    # 60 bases long pull the path 60 diagonals off, beyond the first band
    shifted = ref[:500] + ref[560:1500] + random_bases(rng, 60) + ref[1500:]
    fills = []

    def counting_band(ca, cb, radius, scoring):
        fills.append(radius)
        return _global_band(ca, cb, radius, scoring)

    monkeypatch.setattr(align_module, "_global_band", counting_band)
    for other in (random_bases(rng, 2000), shifted):
        fills.clear()
        assert _align(ref, other) == reference_global_align(ref, other, Scoring())
        assert 1 < len(fills) <= 2


def _band_align_calls(fn, *args):
    """Run `fn(*args)`, recording the (args, paths) of each `align._band_align` call in order."""
    calls = []
    original = align_module._band_align

    def record(*a, **kw):
        paths = original(*a, **kw)
        calls.append((a, paths))
        return paths

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(align_module, "_band_align", record)
        fn(*args)
    return calls


def test_each_alignment_traces_its_last_fill_in_one_call(kernels):
    rng = random.Random(18)
    ref = random_bases(rng, 300)
    edited = ref[:100] + "T" + ref[101:200] + ref[205:]
    subject = random_bases(rng, 80) + ref[:150]
    bands = [(subject, d) for d in (-80, -40, 0, 40)]
    cases = [  # (alignment, its arguments, _band_align calls it makes)
        (_align, (ref, edited), 1),
        (_align, (ref, random_bases(rng, 300)), 2),  # the first band is too narrow
        (banded_local_align, (ref[:150], bands, 16, Scoring()), 1),
    ]
    for kernel in kernels:
        with kernel():
            for fn, args, fills in cases:
                calls = _band_align_calls(fn, *args)
                assert len(calls) == fills  # each call fills and traces its bands
                for (rows, cols, *_), paths in calls:
                    assert len(paths) == len(cols)  # one path per band


@settings(max_examples=6, deadline=None)
@given(st.integers(65, 100), st.randoms(use_true_random=False))
def test_local_bands_are_filled_in_batches_of_32(kernels, count, rng):
    """`banded_local_align` cuts its bands into `_band_align` calls of 32, the last one
    shorter, and returns one record per band, in input order, as if each band were
    aligned alone."""
    query = random_bases(rng, rng.randint(1, 60))
    # every fifth band lies past the query's last row, so has no path; the next holds the query
    bands = [
        (query, 100) if g % 5 == 0 else (query, 0) if g % 5 == 1
        else (random_bases(rng, rng.randint(1, 80), "ACGTN"), rng.randint(-70, 70))
        for g in range(count)
    ]
    sizes = [32] * (count // 32) + [count % 32] * (count % 32 > 0)
    for kernel in kernels:
        with kernel():
            calls = _band_align_calls(banded_local_align, query, bands, 6, Scoring())
            assert [len(cols) for (_, cols, *_), _ in calls] == sizes
            got = [aln for _, alignments in calls for aln in alignments]
            alone = [banded_local_align(query, [band], 6, Scoring()) for band in bands]
            assert got == [aln for [aln] in alone]
            assert got[0] is None and got[1].score > 0


def test_scoring_table_is_read_only():
    table = Scoring().table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 99
    with pytest.raises(ValueError):
        np.add(table, 1, out=table)
    with pytest.raises(ValueError):  # the flag is not merely advisory
        table.flags.writeable = True
    assert table[0, 0] == Scoring().match


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 20), st.integers(-20, 0), st.integers(-20, 0), st.integers(-20, 0)
)
def test_scoring_table_matches_match_and_mismatch(match, mismatch, gap_open, gap_extend):
    scoring = Scoring(match, mismatch, gap_open, gap_extend)
    table = scoring.table
    assert table.dtype == np.int32 and table.shape == (5, OUTSIDE_CODE + 1)
    assert table is scoring.table  # built once per instance
    want = np.full((5, OUTSIDE_CODE + 1), _NEG, dtype=np.int32)
    want[:, :5] = substitution_matrix(match, mismatch)
    assert np.array_equal(table, want)


def test_scoring_fields_are_the_four_scores():
    names = [f.name for f in dataclasses.fields(Scoring)]
    assert names == ["match", "mismatch", "gap_open", "gap_extend"]
    scoring = Scoring()
    assert scoring.table is scoring.table  # built and kept, but not a field
    assert dataclasses.asdict(scoring) == {
        "match": 2, "mismatch": -1, "gap_open": -5, "gap_extend": -1,
    }


def test_oracles_never_read_the_package_table(monkeypatch):
    rng = random.Random(19)
    ref = random_bases(rng, 120)
    patient = ref[:40] + "G" + ref[41:90] + ref[93:]
    want_global = reference_global_align(ref, patient, Scoring())
    query = DnaSequence("q", "", patient)
    index = build_index(FastaFile((_seq(ref, "r"), _seq(ref[::-1], "s"))))
    want_hits = reference_search(query, index, DEFAULT_MAX_HITS)

    def no_table(self):
        raise AssertionError("an oracle read Scoring.table")

    monkeypatch.setattr(Scoring, "table", property(no_table))
    assert reference_global_align(ref, patient, Scoring()) == want_global
    assert reference_search(query, index, DEFAULT_MAX_HITS) == want_hits
    assert want_global.score > 0 and want_hits


def test_alignment_invariants():
    rng = random.Random(9)
    for _ in range(40):
        a = random_bases(rng, rng.randint(1, 60))
        b = random_bases(rng, rng.randint(1, 60))
        res = _align(a, b)
        assert res.aligned_a.replace("-", "") == a
        assert res.aligned_b.replace("-", "") == b
        assert len(res.aligned_a) == len(res.aligned_b)
        # no column may be gapped on both sides
        assert all(
            not (x == "-" and y == "-") for x, y in zip(res.aligned_a, res.aligned_b)
        )
        # stored score equals the score recomputed from the aligned strings
        assert res.score == rescore_alignment(
            res.aligned_a, res.aligned_b, *_params(Scoring())
        )
        # a global alignment spans both sequences whole
        assert (res.a_start, res.a_end, res.b_start, res.b_end) == (0, len(a), 0, len(b))


def test_score_is_symmetric():
    rng = random.Random(10)
    for _ in range(30):
        a = random_bases(rng, rng.randint(1, 40))
        b = random_bases(rng, rng.randint(1, 40))
        assert _align(a, b).score == _align(b, a).score


def test_identity_100_iff_equal():
    rng = random.Random(13)
    for _ in range(30):
        a = random_bases(rng, rng.randint(1, 30))
        b = random_bases(rng, rng.randint(1, 30))
        res = _align(a, b)
        assert (res.identity_percent == 100.0) == (a == b)
    assert _align("ACGT", "ACGT").identity_percent == 100.0


_COLUMNS = st.sampled_from([x + y for x in "ACGTN-" for y in "ACGTN-" if x + y != "--"])


@settings(max_examples=300, deadline=None)
@given(st.lists(_COLUMNS, max_size=60))
def test_identity_equals_the_column_count_gaps_included(columns):
    a, b = "".join(c[0] for c in columns), "".join(c[1] for c in columns)
    res = AlignmentResult(0, a, b, 0, 0, 0, 0)
    got = res.identity_percent
    assert type(got) is float and got == reference_identity(a, b)
    assert res.identity_percent is got  # counted once per alignment


def test_alignment_is_deterministic():
    a = "ACGTACGTAGGATCC"
    b = "ACTTACGGTAGGTCC"
    first = _align(a, b)
    for _ in range(3):
        assert _align(a, b) == first


def test_size_cap(monkeypatch):
    assert DEFAULT_CELL_CAP == 25_000_000
    # the cap counts the cells a band stores: a 7 kb gene with a few edits
    # aligns in a narrow band although its full matrix holds 49M cells
    rng = random.Random(17)
    ref = random_bases(rng, 7000)
    sub = "A" if ref[999] != "A" else "C"
    patient = ref[:999] + sub + ref[1000:3000] + ref[3004:5000] + "T" + ref[5000:]
    assert (len(ref), len(patient)) == (7000, 6997)
    assert len(ref) * len(patient) > DEFAULT_CELL_CAP
    muts = call_mutations(_align(ref, patient))
    assert apply_mutations(_seq(ref), muts).bases == patient

    widths = []
    band_align = align_module._band_align

    def recording_align(rows, cols, offsets, width, *args, **kwargs):
        widths.append(width)
        return band_align(rows, cols, offsets, width, *args, **kwargs)

    monkeypatch.setattr(align_module, "_band_align", recording_align)
    with pytest.raises(SizeCapExceededError):
        _align("A" * 5001, "C" * 5001)
    assert widths == [33]  # the 5,002 x 5,002 full matrix is never filled


def test_scoring_validation():
    with pytest.raises(ValueError):
        Scoring(match=0)
    with pytest.raises(ValueError):
        Scoring(mismatch=1)
    with pytest.raises(ValueError):
        Scoring(gap_open=1)
    with pytest.raises(ValueError):
        Scoring(gap_extend=1)
    Scoring(mismatch=0, gap_extend=0)  # zero penalties are legal, positives are not


def test_mutation_validation():
    with pytest.raises(ValueError):
        Mutation(1, MutationKind.SUBSTITUTION, "A", "")
    with pytest.raises(ValueError):
        Mutation(1, MutationKind.INSERTION, "A", "C")
    with pytest.raises(ValueError):
        Mutation(1, MutationKind.DELETION, "", "C")
    with pytest.raises(ValueError):
        Mutation(-1, MutationKind.INSERTION, "", "C")


def test_one_position_out_of_range_error_class():
    from mutascan import protein, seqstats
    from mutascan.errors import MutascanError

    assert PositionOutOfRangeError is seqstats.PositionOutOfRangeError
    assert PositionOutOfRangeError is protein.PositionOutOfRangeError
    assert issubclass(PositionOutOfRangeError, MutascanError)


def test_apply_substitution_deletion_insertion():
    ref = _seq("ACGTACGT")
    out = apply_mutations(
        ref,
        [
            Mutation(2, MutationKind.SUBSTITUTION, "C", "T"),
            Mutation(4, MutationKind.INSERTION, "", "GG"),
            Mutation(6, MutationKind.DELETION, "CG", ""),
        ],
    )
    assert out.bases == "ATGTGGAT"
    assert ref.bases == "ACGTACGT"


def test_apply_insertion_at_boundaries():
    ref = _seq("ACGT")
    assert apply_mutations(ref, [Mutation(0, MutationKind.INSERTION, "", "TT")]).bases == "TTACGT"
    assert apply_mutations(ref, [Mutation(4, MutationKind.INSERTION, "", "TT")]).bases == "ACGTTT"


def test_apply_rejects_out_of_range():
    ref = _seq("ACGT")
    with pytest.raises(PositionOutOfRangeError):
        apply_mutations(ref, [Mutation(0, MutationKind.SUBSTITUTION, "A", "C")])
    with pytest.raises(PositionOutOfRangeError):
        apply_mutations(ref, [Mutation(5, MutationKind.INSERTION, "", "C")])
    with pytest.raises(PositionOutOfRangeError):
        apply_mutations(ref, [Mutation(4, MutationKind.DELETION, "TA", "")])


def test_apply_rejects_unsorted_calls():
    ref = _seq("ACGTACGT")
    muts = [
        Mutation(5, MutationKind.SUBSTITUTION, "A", "C"),
        Mutation(2, MutationKind.SUBSTITUTION, "C", "A"),
    ]
    with pytest.raises(OverlappingMutationsError):
        apply_mutations(ref, muts)
    # substitution listed before an insertion at the same position
    muts = [
        Mutation(2, MutationKind.SUBSTITUTION, "C", "A"),
        Mutation(2, MutationKind.INSERTION, "", "T"),
    ]
    with pytest.raises(OverlappingMutationsError):
        apply_mutations(ref, muts)


def test_apply_rejects_overlapping_spans():
    ref = _seq("ACGTACGT")
    muts = [
        Mutation(2, MutationKind.DELETION, "CGT", ""),
        Mutation(4, MutationKind.SUBSTITUTION, "T", "A"),
    ]
    with pytest.raises(OverlappingMutationsError):
        apply_mutations(ref, muts)
    dup = [
        Mutation(3, MutationKind.INSERTION, "", "A"),
        Mutation(3, MutationKind.INSERTION, "", "C"),
    ]
    with pytest.raises(OverlappingMutationsError):
        apply_mutations(ref, dup)


def test_apply_rejects_reference_mismatch():
    ref = _seq("ACGT")
    with pytest.raises(ValueError):
        apply_mutations(ref, [Mutation(2, MutationKind.SUBSTITUTION, "G", "T")])


def test_apply_rejects_a_deletion_whose_bases_differ():
    ref = _seq("ACGTAC")
    for deleted in ("A", "GA", "GTAA"):  # reference bases 3.. are G, GT, GTAC
        with pytest.raises(ValueError, match="do not match"):
            apply_mutations(ref, [Mutation(3, MutationKind.DELETION, deleted, "")])
    assert apply_mutations(ref, [Mutation(3, MutationKind.DELETION, "GTA", "")]).bases == "ACC"


def test_call_then_apply_round_trip():
    rng = random.Random(14)
    for _ in range(40):
        ref = random_bases(rng, rng.randint(20, 300))
        alt = _mutate(rng, ref)
        res = global_align(_seq(ref, "ref"), _seq(alt, "alt"))
        muts = call_mutations(res)
        rebuilt = apply_mutations(_seq(ref, "ref"), muts)
        assert rebuilt.bases == alt


def _mutate(rng, ref):
    """Apply up to 8 random sparse edits and return the edited string."""
    bases = list(ref)
    n_edits = rng.randint(0, 8)
    positions = sorted(rng.sample(range(len(bases)), min(n_edits, len(bases))), reverse=True)
    for pos in positions:
        choice = rng.random()
        if choice < 0.5:
            bases[pos] = rng.choice("ACGT".replace(bases[pos], ""))
        elif choice < 0.75:
            bases.insert(pos, rng.choice("ACGT"))
        else:
            del bases[pos]
    return "".join(bases) or "A"
