"""K-mer indexing, seed-and-extend search, and hit-table rendering."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutascan import homology
from mutascan.align import AlignmentResult
from mutascan.homology import (
    _BATCH_GROUPS,
    _build_index,
    BAND_RADIUS,
    DEFAULT_K,
    INDEX_MEMO_SIZE,
    MAX_K,
    EmptyDatabaseError,
    HomologyHit,
    QueryTooShortError,
    SearchParams,
    _seed_diagonals,
    build_index,
    e_value,
    format_e_value,
    format_hit_table,
    hit_to_dict,
    search,
)
from mutascan.seqio import DnaSequence, FastaFile

from oracles import (
    dna,
    kmer_postings,
    random_bases,
    reference_search,
    rescore_alignment,
    seed_diagonal_counts,
    smith_waterman_score,
)


def _db(*seqs):
    return FastaFile(tuple(DnaSequence(i, "", b) for i, b in seqs))


def _query(bases):
    return DnaSequence("q", "", bases)


def test_default_parameters():
    p = SearchParams()
    assert (p.k, p.match_score, p.mismatch_score) == (11, 1, -3)
    assert (p.gap_open, p.gap_extend) == (-5, -2)
    assert (p.karlin_lambda, p.karlin_k) == (1.374, 0.711)
    assert p.max_hits == 20
    assert DEFAULT_K == 11
    assert BAND_RADIUS == 16


def test_params_validation():
    with pytest.raises(ValueError):
        SearchParams(k=3)
    with pytest.raises(ValueError):
        SearchParams(k=33)
    SearchParams(k=MAX_K)
    with pytest.raises(TypeError):
        SearchParams(match_score=0)
    with pytest.raises(ValueError):
        SearchParams(max_hits=0)


def _postings_of(index):
    """The index's windows as {k-mer: [(subject, offset), ...]}, checking codes."""
    postings = {}
    for code, si, off in zip(
        index.codes.tolist(), index.subject_idx.tolist(), index.offsets.tolist()
    ):
        kmer = index.subjects[si].bases[off : off + index.k]
        want = 0
        for ch in kmer:
            want = 4 * want + "ACGT".index(ch)
        assert code == want
        postings.setdefault(kmer, []).append((si, off))
    return postings


def test_build_index_matches_enumeration_oracle():
    rng = random.Random(31)
    seqs = [(f"s{i}", random_bases(rng, rng.randint(5, 120), "ACGTN")) for i in range(4)]
    for k in (4, 7, 11, 32):
        index = build_index(_db(*seqs), k)
        assert list(index.codes) == sorted(index.codes)
        postings = _postings_of(index)
        want = kmer_postings([b for _, b in seqs], k)
        assert set(postings) == set(want)
        for kmer, posts in want.items():
            assert sorted(postings[kmer]) == sorted(posts)
        assert all("N" not in kmer and len(kmer) == k for kmer in postings)


def test_build_index_skips_short_subjects():
    index = build_index(_db(("tiny", "ACGT"), ("big", "ACGTACGTACGTACG")), k=11)
    assert len(index.subject_idx) == 5
    assert all(si == 1 for si in index.subject_idx.tolist())
    assert index.total_length == 19


def test_build_index_validation():
    with pytest.raises(EmptyDatabaseError):
        build_index(FastaFile(()))
    with pytest.raises(ValueError):
        build_index(_db(("a", "ACGTACGT")), k=3)
    with pytest.raises(ValueError):
        build_index(_db(("a", "ACGT" * 10)), k=MAX_K + 1)


def test_build_index_errors_are_raised_on_every_call():
    bad_calls = [
        ((FastaFile(()),), EmptyDatabaseError),
        ((_db(("a", "ACGTACGT")), 3), ValueError),
    ]
    for args, error in bad_calls:
        messages = []
        for _ in range(2):
            misses = _build_index.cache_info().misses
            with pytest.raises(error) as exc:
                build_index(*args)
            assert _build_index.cache_info().misses == misses + 1  # not served from the memo
            messages.append(str(exc.value))
            for i in range(INDEX_MEMO_SIZE + 1):  # other databases cycle the memo
                build_index(_db(("s", "ACGT" * (i + 3))))
        assert messages[0] == messages[1]


def test_index_memo_ignores_how_k_is_spelled():
    db = _db(("a", random_bases(random.Random(20), 300)), ("b", "ACGT" * 40))
    _build_index.cache_clear()
    indexes = [build_index(db), build_index(db, DEFAULT_K), build_index(db, k=DEFAULT_K)]
    info = _build_index.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    assert indexes[1] is indexes[0] and indexes[2] is indexes[0]


@st.composite
def _seeding_case(draw):
    """N-rich subjects, some shorter than k, and a query that may hold N."""
    k = draw(st.sampled_from([4, 11, 32]))
    alphabet = draw(st.sampled_from(["ACGT", "ACGTN", "ACGTNNNN", "AAN"]))
    subjects = draw(st.lists(dna(alphabet, 1, 3 * k), min_size=1, max_size=6))
    if draw(st.booleans()):
        source = draw(st.sampled_from(subjects))
        query = source + draw(dna("ACGTN", 1, k))
    else:
        query = draw(dna(alphabet, 1, 3 * k))
    return k, subjects, query


@settings(max_examples=150, deadline=None)
@given(_seeding_case())
def test_seed_diagonals_match_enumeration_oracle(case):
    k, subjects, query = case
    index = build_index(_db(*((f"s{i}", b) for i, b in enumerate(subjects))), k)
    want = seed_diagonal_counts(query, subjects, k)
    assert list(_seed_diagonals(query, index).items()) == sorted(want.items())


def test_query_shorter_than_k_rejected():
    index = build_index(_db(("a", "ACGTACGTACGTACGT")))
    with pytest.raises(QueryTooShortError):
        search(_query("ACGTACGT"), index)


def test_exact_substring_is_a_perfect_hit():
    rng = random.Random(32)
    subject = random_bases(rng, 300)
    query = subject[100:220]
    index = build_index(_db(("ref", subject), ("noise", random_bases(rng, 200))))
    hits = search(_query(query), index)
    assert hits and hits[0].subject_id == "ref"
    top = hits[0]
    assert top.max_score == len(query)
    assert top.max_ident == 100.0
    assert top.query_cover == 100.0
    assert top.e_value == e_value(len(query), len(query), index.total_length, SearchParams())
    assert top.best_alignment.aligned_a == query


def test_no_shared_kmer_means_no_hits():
    index = build_index(_db(("a", "A" * 100)))
    hits = search(_query("C" * 50), index)
    assert hits == []
    assert format_hit_table(hits).splitlines()[1] == "no hits found"


def test_exactness_on_planted_substrings():
    rng = random.Random(33)
    params = SearchParams()
    for _ in range(20):
        subject = random_bases(rng, rng.randint(150, 300))
        start = rng.randint(0, len(subject) - 60)
        query = subject[start : start + rng.randint(30, 60)]
        index = build_index(_db(("s", subject)))
        hits = search(_query(query), index)
        want = smith_waterman_score(
            query, subject, params.match_score, params.mismatch_score,
            params.gap_open, params.gap_extend,
        )
        assert hits and hits[0].max_score == want == len(query)


def test_reported_scores_never_exceed_full_local_optimum():
    rng = random.Random(34)
    params = SearchParams()
    for _ in range(20):
        subject = random_bases(rng, 250)
        query = list(subject[40:180])
        for _ in range(rng.randint(1, 10)):
            p = rng.randrange(len(query))
            roll = rng.random()
            if roll < 0.6:
                query[p] = rng.choice("ACGT".replace(query[p], ""))
            elif roll < 0.8 and len(query) > 30:
                del query[p]
            else:
                query.insert(p, rng.choice("ACGT"))
        query = "".join(query)
        index = build_index(_db(("s", subject)))
        hits = search(_query(query), index)
        optimum = smith_waterman_score(
            query, subject, params.match_score, params.mismatch_score,
            params.gap_open, params.gap_extend,
        )
        for h in hits:
            assert h.max_score <= optimum
            # the reported alignment really scores what the hit claims
            assert h.max_score == rescore_alignment(
                h.best_alignment.aligned_a, h.best_alignment.aligned_b,
                params.match_score, params.mismatch_score,
                params.gap_open, params.gap_extend,
            )
            assert h.total_score >= h.max_score
            assert 0.0 <= h.query_cover <= 100.0
            assert 0.0 <= h.max_ident <= 100.0


def test_search_is_deterministic():
    rng = random.Random(35)
    subject = random_bases(rng, 400)
    query = subject[50:200]
    db = _db(("a", subject), ("b", subject[30:350]), ("c", random_bases(rng, 300)))
    index = build_index(db)
    first = search(_query(query), index)
    assert search(_query(query), index) == first


def test_searches_share_one_score_table(monkeypatch):
    tables = []
    original = homology.banded_local_align

    def record(query, bands, radius, scoring):
        tables.append(scoring.table)
        return original(query, bands, radius, scoring)

    monkeypatch.setattr(homology, "banded_local_align", record)
    rng = random.Random(41)
    subject = random_bases(rng, 300)
    index = build_index(_db(("a", subject)))
    for params in (SearchParams(), SearchParams(max_hits=5)):
        assert search(_query(subject[40:160]), index, params)
    assert len(tables) == 2 and tables[0] is tables[1]


def test_ambiguous_query_windows_are_skipped_not_fatal():
    rng = random.Random(36)
    subject = random_bases(rng, 200)
    query = subject[20:80] + "N" + subject[81:140]
    index = build_index(_db(("s", subject)))
    hits = search(_query(query), index)
    assert hits and hits[0].subject_id == "s"


def test_tie_break_on_subject_id():
    rng = random.Random(37)
    shared = random_bases(rng, 150)
    index = build_index(_db(("b", shared), ("a", shared)))
    hits = search(_query(shared[10:120]), index)
    assert [h.subject_id for h in hits] == ["a", "b"]
    assert hits[0].max_score == hits[1].max_score


def test_max_hits_truncation():
    rng = random.Random(38)
    shared = random_bases(rng, 120)
    seqs = [(f"s{i}", shared) for i in range(6)]
    index = build_index(_db(*seqs))
    assert len(search(_query(shared), index)) == 6
    assert len(search(_query(shared), index, SearchParams(max_hits=3))) == 3


def test_single_shared_kmer_yields_a_hit():
    rng = random.Random(39)
    subject = random_bases(rng, 80, "AC")
    planted = subject[30:41]  # exactly one shared 11-base window
    query = planted + random_bases(rng, 30, "GT")
    index = build_index(_db(("s", subject)))
    assert search(_query(query), index)


# --- differential tests against the one-diagonal-at-a-time reference -------


@st.composite
def _search_case(draw, k, min_subject, max_subject, min_query, max_query):
    """A database plus a query that is an edited slice of a subject or random."""
    alphabet = draw(st.sampled_from(["ACGT", "ACGTN", "ACGTNNNN"]))
    subjects = draw(
        st.lists(dna(alphabet, min_subject, max_subject), min_size=1, max_size=5)
    )
    source = draw(st.sampled_from(subjects))
    if draw(st.booleans()) and len(source) >= min_query:
        start = draw(st.integers(0, len(source) - k))
        query = list(source[start : start + draw(st.integers(min_query, max_query))])
        for _ in range(draw(st.integers(0, 6))):
            pos = draw(st.integers(0, len(query) - 1))
            kind = draw(st.sampled_from(["sub", "ins", "del"]))
            if kind == "sub":
                query[pos] = draw(st.sampled_from("ACGTN"))
            elif kind == "ins":
                query.insert(pos, draw(st.sampled_from("ACGT")))
            elif len(query) > k:
                del query[pos]
        query = "".join(query)
    else:
        query = draw(dna(alphabet, min_query, max_query))
    params = SearchParams(k=k, max_hits=draw(st.integers(1, 25)))
    index = build_index(_db(*((f"s{i}", b) for i, b in enumerate(subjects))), k)
    return _query(query), index, params


@settings(max_examples=40, deadline=None)
@given(_search_case(k=4, min_subject=20, max_subject=150, min_query=20, max_query=60))
def test_search_matches_reference_on_k4_databases(kernels, case):
    # k = 4 seeds many chance diagonals per query, often several batches
    query, index, params = case
    for kernel in kernels:
        with kernel():
            assert search(query, index, params) == reference_search(query, index, params)


@settings(max_examples=30, deadline=None)
@given(_search_case(k=11, min_subject=1, max_subject=400, min_query=11, max_query=200))
def test_search_matches_reference_on_default_seeds(kernels, case):
    query, index, params = case
    for kernel in kernels:
        with kernel():
            assert search(query, index, params) == reference_search(query, index, params)


@settings(max_examples=30, deadline=None)
@given(_search_case(k=11, min_subject=1, max_subject=400, min_query=11, max_query=200))
def test_memoized_index_searches_like_a_fresh_one(kernels, case):
    query, index, params = case
    db = FastaFile(index.subjects)  # equal to, not the same object as, the one indexed
    hits = _build_index.cache_info().hits
    cached = build_index(db, index.k)
    assert cached is index
    assert _build_index.cache_info().hits == hits + 1
    fresh = _build_index.__wrapped__(db, index.k)
    assert fresh is not cached
    for kernel in kernels:
        with kernel():
            want = reference_search(query, fresh, params)
            assert search(query, cached, params) == want
            assert search(query, fresh, params) == want
    for array in (cached.codes, cached.subject_idx, cached.offsets):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
        with pytest.raises(ValueError):  # the flag is not merely advisory
            array.flags.writeable = True


def test_search_batches_many_diagonals_like_reference():
    rng = random.Random(40)
    subjects = [(f"s{i}", random_bases(rng, rng.randint(100, 300), "ACGTN")) for i in range(4)]
    query = _query(random_bases(rng, 70))
    params = SearchParams(k=4, max_hits=50)
    index = build_index(_db(*subjects), params.k)
    diagonals = seed_diagonal_counts(query.bases, [b for _, b in subjects], params.k)
    assert len(diagonals) > 2 * _BATCH_GROUPS
    assert search(query, index, params) == reference_search(query, index, params)


def test_e_value_definition_and_monotonicity():
    params = SearchParams()
    assert e_value(30, 100, 1000, params) == pytest.approx(
        0.711 * 100 * 1000 * math.exp(-1.374 * 30)
    )
    last = float("inf")
    for score in range(10, 300, 7):
        e = e_value(score, 150, 2000, params)
        assert e < last
        last = e


def test_e_value_formatting():
    assert format_e_value(0.0) == "0.0"
    assert format_e_value(5e-200) == "0.0"
    assert format_e_value(8e-172) == "8e-172"
    assert format_e_value(2.7e-05) == "3e-05"
    assert format_e_value(0.6523) == "0.652"
    assert format_e_value(12.0) == "12"


def _hit(subject_id, max_score, total_score, cover, e, ident):
    aligned = "ACGT"
    return HomologyHit(
        subject_id=subject_id,
        max_score=max_score,
        total_score=total_score,
        query_cover=cover,
        e_value=e,
        max_ident=ident,
        best_alignment=AlignmentResult(max_score, aligned, aligned, 0, 4, 0, 4),
    )


def test_hit_table_rendering():
    hits = [
        _hit("gene1", 612, 1875, 17.2, 8e-172, 100.0),
        _hit("gene2", 240, 240, 16.6, 4.1e-2, 98.6),
    ]
    lines = format_hit_table(hits).splitlines()
    assert lines[0] == "Description | Max score | Total score | Query cover | E value | Max ident"
    assert lines[1] == "gene1 | 612 | 1875 | 17% | 8e-172 | 100%"
    assert lines[2] == "gene2 | 240 | 240 | 17% | 0.041 | 99%"


def test_hit_to_dict_shape():
    d = hit_to_dict(_hit("g", 8, 8, 100.0, 1e-5, 100.0))
    assert d["subject_id"] == "g"
    assert d["max_score"] == 8
    assert set(d) == {
        "subject_id", "max_score", "total_score", "query_cover", "e_value",
        "max_ident", "best_alignment",
    }
    assert d["best_alignment"]["aligned_query"] == "ACGT"
    assert d["best_alignment"]["aligned_subject"] == "ACGT"
