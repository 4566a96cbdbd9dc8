"""FASTA parsing and writing for validated DNA records.

Records carry bases over the alphabet {A,C,G,T,N}; lowercase input is
normalized at parse time and positions are always reported 1-based.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import io
import os
import re
import secrets
from dataclasses import dataclass
from pathlib import Path

from .errors import MutascanError

ALPHABET = frozenset("ACGTN")
_INVALID_SYMBOL = re.compile(r"[^ACGTN]")

LINE_WIDTH = 60

# Parsed texts kept per process, keyed on the text itself, so a caller that
# reads the same file again gets the same `FastaFile` without a re-parse
# and a file rewritten in place is parsed anew. A diagnosis reads a few
# databases and one patient; 16 keeps the databases of a long-lived caller
# hot across many patients while bounding what large inputs can pin.
PARSE_MEMO_SIZE = 16


class FastaParseError(MutascanError):
    """Input is not valid FASTA per this package's grammar."""


class EmptyInputError(FastaParseError):
    """No header line anywhere in the input."""


class InvalidSymbolError(FastaParseError):
    """A sequence symbol outside {A,C,G,T,N} (after uppercasing)."""

    def __init__(self, record_id: str, position: int, symbol: str):
        self.record_id = record_id
        self.position = position
        self.symbol = symbol
        super().__init__(
            f"invalid symbol {symbol!r} in record {record_id!r} at position {position}"
        )


class DuplicateIdError(FastaParseError):
    """Two records in one file share an id."""


class SequencelessHeaderError(FastaParseError):
    """A header with no sequence lines before the next header or EOF."""


@dataclass(frozen=True)
class DnaSequence:
    """One validated DNA record: id, free-text description, bases.

    Bases are uppercase symbols over {A,C,G,T,N}; positions into them are
    1-based wherever this package reports coordinates.
    """

    id: str
    description: str
    bases: str

    def __post_init__(self):
        if not self.id or any(c.isspace() for c in self.id):
            raise ValueError(f"record id must be a non-empty token, got {self.id!r}")
        if not self.bases:
            raise ValueError(f"record {self.id!r} has no bases")
        if _INVALID_SYMBOL.search(self.bases):
            bad = set(self.bases) - ALPHABET
            raise ValueError(
                f"record {self.id!r} contains symbols outside ACGTN: {sorted(bad)}"
            )

    def __len__(self) -> int:
        return len(self.bases)


@dataclass(frozen=True)
class FastaFile:
    """Ordered FASTA records with pairwise-distinct ids."""

    records: tuple[DnaSequence, ...]

    def __post_init__(self):
        ids = [r.id for r in self.records]
        if len(set(ids)) != len(ids):
            raise ValueError("record ids must be pairwise distinct")

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)


@functools.lru_cache(maxsize=PARSE_MEMO_SIZE)
def parse_fasta(text: str) -> FastaFile:
    """Parse a FASTA character stream into validated records.

    Grammar: each record is a ``>`` header line (id token, then optional
    description after the first whitespace run) followed by one or more
    sequence lines, wrapped at any width. Blank lines between records are
    permitted, LF and CRLF both accepted, lowercase bases are uppercased.

    Raises EmptyInputError, InvalidSymbolError, DuplicateIdError, or
    SequencelessHeaderError; any other format violation (data before the
    first header, a header with no id) raises the base FastaParseError.
    Results are memoized by text (`PARSE_MEMO_SIZE`); errors are not.
    """
    records: list[DnaSequence] = []
    seen: set[str] = set()
    cur_id: str | None = None
    cur_desc = ""
    cur_parts: list[str] = []
    cur_len = 0

    def flush():
        nonlocal cur_id, cur_desc, cur_parts, cur_len
        if cur_id is None:
            return
        if cur_len == 0:
            raise SequencelessHeaderError(f"header {cur_id!r} has no sequence lines")
        records.append(DnaSequence(cur_id, cur_desc, "".join(cur_parts)))
        cur_id, cur_desc, cur_parts, cur_len = None, "", [], 0

    saw_header = False
    for raw in io.StringIO(text):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            saw_header = True
            parts = line[1:].split(None, 1)
            if not parts:
                raise FastaParseError("header line with no id")
            cur_id = parts[0]
            cur_desc = parts[1] if len(parts) > 1 else ""
            if cur_id in seen:
                raise DuplicateIdError(f"duplicate record id {cur_id!r}")
            seen.add(cur_id)
        else:
            if cur_id is None:
                raise FastaParseError("sequence data before the first header")
            upper = line.upper()
            bad = _INVALID_SYMBOL.search(upper)
            if bad:
                raise InvalidSymbolError(cur_id, cur_len + bad.start() + 1, bad.group())
            cur_parts.append(upper)
            cur_len += len(upper)
    flush()

    if not saw_header:
        raise EmptyInputError("no FASTA header found")
    return FastaFile(tuple(records))


def write_fasta(file: FastaFile) -> str:
    """Serialize records as FASTA text, sequence wrapped at `LINE_WIDTH` columns.

    The description is omitted from the header when empty. Output uses LF
    line endings and ends with a newline.
    """
    out: list[str] = []
    for rec in file.records:
        header = f">{rec.id} {rec.description}" if rec.description else f">{rec.id}"
        out.append(header)
        for i in range(0, len(rec.bases), LINE_WIDTH):
            out.append(rec.bases[i : i + LINE_WIDTH])
    return "\n".join(out) + "\n"


def read_text(path, error: type[MutascanError], encoding: str = "utf-8") -> str:
    """The whole text of the file at `path`.

    A file that cannot be opened or read, or whose bytes are not `encoding`
    text, raises `error` with a message naming the file; so does an empty
    path, which names no file.
    """
    if path == "":  # Path("") is ".": convert no path before this check
        raise error("cannot read '': the path is empty")
    try:
        with open(path, "r", encoding=encoding) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: byte {exc.start} is not {encoding.upper()} text") from exc
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise error(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def read_fasta_path(path) -> FastaFile:
    """Read and parse a FASTA file from disk; FASTA text is ASCII."""
    return parse_fasta(read_text(path, FastaParseError, encoding="ascii"))


def write_texts_atomic(texts: dict) -> None:
    """Write each text of a {path: text} map as UTF-8, whole, and all of them or none.

    Each text is encoded once and written as bytes with `os.write`, line
    endings as they are, to a temp file in its path's directory, under a
    fresh name created exclusively, so writers of one path never share a
    temp file, whether threads or processes. Only when all are written,
    and no path is a directory, do the temp files replace their paths, in
    the map's order. If anything fails before that, the temp files are
    removed and every earlier file is left as it was; a rename that fails
    after others succeeded leaves those replaced. An `OSError` names the
    path, not its temp file; an empty path raises one before anything is
    written.
    """
    if "" in texts:  # Path("") is ".", the working directory
        raise FileNotFoundError(errno.ENOENT, "the path is empty", "")
    staged: list[tuple[Path, Path]] = []  # (temp file, path)
    path = None
    try:
        for path, text in texts.items():
            path = Path(path)
            data = memoryview(text.encode("utf-8"))  # before the temp file: nothing to undo
            # `/` and `.` have no name
            tmp = path.parent / f".{path.name}.{secrets.token_hex(8)}.tmp"
            # 0o666 under the umask, the mode open(path, "w") gives, not mkstemp's 0o600
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append((tmp, path))
            try:
                while data:  # os.write may write less than it is given
                    data = data[os.write(fd, data) :]
            finally:
                os.close(fd)
        for _, path in staged:
            if path.is_dir():  # os.replace would fail on it after earlier renames
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp, _ in staged:
            with contextlib.suppress(OSError):  # already renamed
                tmp.unlink()
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def write_fasta_path(file: FastaFile, path) -> None:
    write_texts_atomic({path: write_fasta(file)})
