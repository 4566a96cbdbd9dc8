"""FASTA parsing, validation, and writing."""

import os
import random
import re
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutascan.seqio import (
    PARSE_MEMO_SIZE,
    DnaSequence,
    DuplicateIdError,
    EmptyInputError,
    FastaFile,
    FastaParseError,
    InvalidSymbolError,
    SequencelessHeaderError,
    parse_fasta,
    read_fasta_path,
    read_text,
    write_fasta,
    write_fasta_path,
    write_texts_atomic,
)

from oracles import random_fasta_text


def test_parse_single_record():
    f = parse_fasta(">g1 normal\nACGT")
    assert len(f) == 1
    rec = f.records[0]
    assert rec.id == "g1"
    assert rec.description == "normal"
    assert rec.bases == "ACGT"


def test_parse_wrapped_and_multiple_records():
    f = parse_fasta(">a\nAC\nGT\n>b\nTTTT")
    assert [r.bases for r in f] == ["ACGT", "TTTT"]
    assert [r.id for r in f] == ["a", "b"]


def test_invalid_symbol_reports_record_and_position():
    with pytest.raises(InvalidSymbolError) as exc:
        parse_fasta(">a\nACXT")
    assert exc.value.record_id == "a"
    assert exc.value.position == 3
    assert exc.value.symbol == "X"


def test_invalid_symbol_position_spans_wrapped_lines():
    with pytest.raises(InvalidSymbolError) as exc:
        parse_fasta(">a\nAC\nGX")
    assert exc.value.position == 4


def test_lowercase_is_normalized_and_idempotent():
    upper = parse_fasta(">a\nACGTN")
    lower = parse_fasta(">a\nacgtn")
    assert upper.records[0].bases == lower.records[0].bases == "ACGTN"


def test_crlf_line_endings():
    f = parse_fasta(">a desc\r\nAC\r\nGT\r\n>b\r\nTT\r\n")
    assert [r.bases for r in f] == ["ACGT", "TT"]
    assert f.records[0].description == "desc"


def test_blank_lines_between_records():
    f = parse_fasta(">a\nAC\n\nGT\n\n>b\nTT\n")
    assert [r.bases for r in f] == ["ACGT", "TT"]


def test_duplicate_id_rejected():
    with pytest.raises(DuplicateIdError):
        parse_fasta(">a\nAC\n>a\nGT")


def test_sequenceless_header_rejected():
    with pytest.raises(SequencelessHeaderError):
        parse_fasta(">a\n>b\nACGT")
    with pytest.raises(SequencelessHeaderError):
        parse_fasta(">a\nACGT\n>b\n")


def test_empty_input_rejected():
    with pytest.raises(EmptyInputError):
        parse_fasta("")
    with pytest.raises(EmptyInputError):
        parse_fasta("  \n\n")


def test_data_before_first_header_rejected():
    with pytest.raises(FastaParseError):
        parse_fasta("ACGT\n>a\nACGT")


def test_header_without_id_rejected():
    with pytest.raises(FastaParseError):
        parse_fasta(">\nACGT")


_UNPRINTABLE_IDS = pytest.mark.parametrize(
    "record_id", ["pat\x1b[31mX", "b\x00c", "del\x7f", "zero\u200bwidth"],
    ids=["terminal escape", "nul", "delete", "zero-width space"],
)


@_UNPRINTABLE_IDS
def test_header_with_an_unprintable_id_rejected(record_id):
    """An id reaches report.txt, the hit table and the terminal as it is."""
    header = f">{record_id} a description"
    with pytest.raises(FastaParseError, match="^header " + re.escape(repr(header)) + ": the id"):
        parse_fasta(f">ok\nACGT\n{header}\nACGT\n")


@_UNPRINTABLE_IDS
def test_record_with_an_unprintable_id_rejected(record_id):
    with pytest.raises(ValueError, match="not printable"):
        DnaSequence(record_id, "", "ACGT")


def test_parse_is_memoized_by_text():
    text = ">memo one\nACGT\n>memo2\nTTGA\n"
    first = parse_fasta(text)
    hits = parse_fasta.cache_info().hits
    assert parse_fasta("".join(list(text))) is first  # an equal text, another object
    assert parse_fasta.cache_info().hits == hits + 1
    assert parse_fasta.__wrapped__(text) == first


@pytest.mark.parametrize(
    "text,error",
    [
        (">a\nACXT\n", InvalidSymbolError),
        ("", EmptyInputError),
        (">a\nAC\n>a\nGT\n", DuplicateIdError),
        (">a\n>b\nACGT\n", SequencelessHeaderError),
        ("ACGT\n>a\nACGT\n", FastaParseError),
    ],
)
def test_parse_errors_are_raised_on_every_call(text, error):
    messages = []
    for _ in range(2):
        misses = parse_fasta.cache_info().misses
        with pytest.raises(error) as exc:
            parse_fasta(text)
        assert type(exc.value) is error
        assert parse_fasta.cache_info().misses == misses + 1  # not served from the memo
        messages.append(str(exc.value))
        for i in range(PARSE_MEMO_SIZE + 1):  # other texts cycle the memo
            parse_fasta(f">r{i}\nACGT\n")
    assert messages[0] == messages[1]


def test_non_ascii_file_is_a_parse_error(tmp_path):
    path = tmp_path / "utf8.fasta"
    path.write_text(">r \u00e9\nACGT\n", encoding="utf-8")
    with pytest.raises(FastaParseError, match="not ASCII"):
        read_fasta_path(path)


@pytest.mark.parametrize("name", ["missing.fasta", "a-directory", "nul\x00byte.fasta"])
def test_unreadable_fasta_is_a_parse_error_naming_the_file(tmp_path, name):
    (tmp_path / "a-directory").mkdir()
    path = tmp_path / name
    with pytest.raises(FastaParseError) as exc:
        read_fasta_path(path)
    assert str(exc.value).startswith(f"cannot read {path}: ")


def test_read_text_names_the_byte_that_does_not_decode(tmp_path):
    path = tmp_path / "x.txt"
    path.write_bytes(b"ok\n\xff")
    with pytest.raises(FastaParseError) as exc:
        read_text(path, FastaParseError)
    assert str(exc.value) == f"{path}: byte 3 is not UTF-8 text"
    assert read_text(path, FastaParseError, encoding="latin-1") == "ok\n\u00ff"


@pytest.mark.parametrize("target", ["no/such/dir/out.txt", "a-directory"])
def test_failed_atomic_write_names_the_target_and_leaves_no_temp_file(tmp_path, target):
    (tmp_path / "a-directory").mkdir()
    path = tmp_path / target
    with pytest.raises(OSError) as exc:
        write_texts_atomic({path: "text\n"})
    assert exc.value.filename == str(path)
    assert str(path) in str(exc.value) and ".tmp" not in str(exc.value)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-directory"]
    assert list((tmp_path / "a-directory").iterdir()) == []
    if target.startswith("no/"):
        assert isinstance(exc.value, FileNotFoundError)  # the errno subclass survives


def test_threads_writing_one_path_never_share_a_temp_file(tmp_path):
    path = tmp_path / "out.txt"
    texts = ["a" * 2_000_000, "b" * 3_000_000]
    errors = []

    def write_repeatedly(text):
        for _ in range(50):
            try:
                write_texts_atomic({path: text})
            except OSError as exc:
                errors.append(exc)

    threads = [threading.Thread(target=write_repeatedly, args=(t,)) for t in texts]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert errors == []
    assert path.read_text() in texts
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_atomic_write_gives_the_mode_open_gives(tmp_path):
    write_texts_atomic({tmp_path / "atomic.txt": "text\n"})
    with open(tmp_path / "plain.txt", "w") as fh:
        fh.write("text\n")
    modes = [os.stat(tmp_path / name).st_mode for name in ("atomic.txt", "plain.txt")]
    assert modes[0] == modes[1]


def test_atomic_write_writes_utf8_bytes_with_line_endings_unchanged(tmp_path):
    texts = {
        tmp_path / "utf8.txt": "caf\u00e9 \u2603 \U0001f600\n",
        tmp_path / "crlf.txt": "one\r\ntwo\rthree\n\r",
        tmp_path / "empty.txt": "",
    }
    write_texts_atomic(texts)
    for path, text in texts.items():
        assert path.read_bytes() == text.encode("utf-8")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["crlf.txt", "empty.txt", "utf8.txt"]


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077, 0o002])
def test_atomic_write_mode_is_0o666_under_the_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_texts_atomic({tmp_path / "atomic.txt": "text\n"})
    finally:
        os.umask(old)
    assert os.stat(tmp_path / "atomic.txt").st_mode & 0o777 == 0o666 & ~umask


def test_atomic_write_finishes_files_that_os_write_takes_a_few_bytes_at_a_time(
    tmp_path, monkeypatch
):
    real_write = os.write
    calls = []

    def short_write(fd, data):
        calls.append(len(data))
        return real_write(fd, bytes(data[:3]))

    monkeypatch.setattr(os, "write", short_write)
    texts = {tmp_path / "a.txt": ">r caf\u00e9\nACGT\n" * 5, tmp_path / "b.txt": "\u2603" * 7}
    write_texts_atomic(texts)
    monkeypatch.undo()
    for path, text in texts.items():
        assert path.read_bytes() == text.encode("utf-8")
    assert len(calls) == sum(-(-len(t.encode("utf-8")) // 3) for t in texts.values())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt"]


def test_unencodable_text_writes_nothing_and_leaves_no_temp_file(tmp_path):
    earlier = {tmp_path / "a.txt": "old a\n", tmp_path / "b.txt": "old b\n"}
    write_texts_atomic(earlier)
    with pytest.raises(UnicodeEncodeError):
        write_texts_atomic(
            {
                tmp_path / "a.txt": "new a\n",
                tmp_path / "b.txt": "a lone surrogate \ud800\n",
                tmp_path / "c.txt": "new c\n",
            }
        )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt"]
    for path, text in earlier.items():
        assert path.read_text(encoding="utf-8") == text


# --- fuzzing ------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    st.text(
        st.one_of(st.sampled_from(list(">ACGTNacgtn \t\r\n")), st.characters()),
        max_size=200,
    )
)
def test_any_text_parses_or_raises_a_parse_error(text):
    try:
        parsed = parse_fasta(text)
    except FastaParseError:
        return
    assert len(parsed) >= 1


@st.composite
def _fasta_with_stray_symbols(draw):
    """FASTA text with unique ids whose body lines may hold stray symbols,
    plus the expected first InvalidSymbolError (or None)."""
    symbols = st.sampled_from(list("ACGTNacgtn") * 8 + list("XUu*-.\u00e9\u00df1 \r"))
    n_records = draw(st.integers(1, 4))
    lines, first_bad = [], None
    for i in range(n_records):
        rec_id = f"r{i}"
        lines.append(f">{rec_id} d")
        body = ""
        while not body:
            drawn = st.lists(st.text(symbols, min_size=1, max_size=12), min_size=1, max_size=4)
            for line in draw(drawn):
                lines.append(line)
                body += line.rstrip().upper()
        bad = next((p for p, ch in enumerate(body) if ch not in "ACGTN"), None)
        if bad is not None and first_bad is None:
            first_bad = (rec_id, bad + 1, body[bad])
    return "\n".join(lines) + "\n", first_bad


@settings(max_examples=200, deadline=None)
@given(_fasta_with_stray_symbols())
def test_invalid_symbol_error_names_the_first_stray_symbol(case):
    text, first_bad = case
    if first_bad is None:
        parse_fasta(text)
        return
    with pytest.raises(InvalidSymbolError) as exc:
        parse_fasta(text)
    assert (exc.value.record_id, exc.value.position, exc.value.symbol) == first_bad


def test_description_whitespace_preserved_after_first_gap():
    f = parse_fasta(">id a  b\nACGT")
    assert f.records[0].description == "a  b"


def test_write_minimal_record():
    f = FastaFile((DnaSequence("g1", "", "ACGT"),))
    assert write_fasta(f) == ">g1\nACGT\n"


def test_write_wraps_at_width():
    bases = "ACGTA" * 25  # 125 bases: two full lines of 60 and one of 5
    f = FastaFile((DnaSequence("g1", "x", bases),))
    assert write_fasta(f) == f">g1 x\n{bases[:60]}\n{bases[60:120]}\n{bases[120:]}\n"


def test_write_fasta_path_writes_utf8(tmp_path):
    path = tmp_path / "out.fasta"
    f = FastaFile((DnaSequence("g1", "caf\u00e9", "ACGT"),))
    write_fasta_path(f, path)
    assert path.read_bytes() == ">g1 caf\u00e9\nACGT\n".encode("utf-8")


def test_dna_sequence_validation():
    with pytest.raises(ValueError):
        DnaSequence("", "", "ACGT")
    with pytest.raises(ValueError):
        DnaSequence("a b", "", "ACGT")
    with pytest.raises(ValueError):
        DnaSequence("a", "", "")
    with pytest.raises(ValueError):
        DnaSequence("a", "", "ACGU")


def test_fasta_file_rejects_duplicate_ids():
    rec = DnaSequence("a", "", "ACGT")
    with pytest.raises(ValueError):
        FastaFile((rec, rec))


def test_round_trip_seeded_files():
    rng = random.Random(20240817)
    for _ in range(1000):
        text, truth = random_fasta_text(rng)
        parsed = parse_fasta(text)
        assert [(r.id, r.description, r.bases) for r in parsed] == truth
        assert parse_fasta(write_fasta(parsed)) == parsed


_ID = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=12)
_BASES = st.text(alphabet="ACGTN", min_size=1, max_size=200)


@settings(max_examples=60, deadline=None)
@given(
    records=st.lists(st.tuples(_ID, _BASES), min_size=1, max_size=4, unique_by=lambda t: t[0]),
)
def test_round_trip_property(records):
    f = FastaFile(tuple(DnaSequence(i, "", b) for i, b in records))
    assert parse_fasta(write_fasta(f)) == f
