"""Any file handed to a subcommand ends the run in one of three ways.

Each test writes arbitrary bytes, FASTA-like text, a corpus file or a
mutated corpus file (or nothing: a missing path, or a directory) into
every file argument and runs `cli.main` in-process. The run must exit 0,
exit 1 with an `error: ` message and no traceback, or exit 2 for usage.
Anything else that escapes `main` fails the test.
"""

import contextlib
import io
import json
import os
import shutil
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutascan.cli import main

from oracles import json_values

MISSING, DIRECTORY = "missing", "directory"

_FASTA_LIKE = st.text(
    st.one_of(st.sampled_from(list(">ACGTNacgtn \t\r\n")), st.characters()), max_size=200
).map(lambda text: text.encode("utf-8", "surrogatepass"))

_SOME_BYTES = st.binary(max_size=200)


@st.composite
def _byte_edit(draw, data: bytes) -> bytes:
    """`data` with one span replaced by arbitrary bytes."""
    start = draw(st.integers(0, len(data)))
    end = draw(st.integers(start, min(len(data), start + 8)))
    return data[:start] + draw(st.binary(max_size=8)) + data[end:]


def _nodes(doc, path=()):
    yield path
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        return
    for key, child in children:
        yield from _nodes(child, path + (key,))


@st.composite
def _json_edit(draw, doc) -> bytes:
    """`doc` with one node replaced by any JSON value, dumped as a JSON file."""
    path = draw(st.sampled_from(list(_nodes(doc))))
    value = draw(json_values)
    if not path:
        return json.dumps(value).encode()
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return json.dumps(doc, indent=2).encode()


@st.composite
def _json_lines_edit(draw, lines: list) -> bytes:
    """JSON lines with one line's document edited by `_json_edit`."""
    i = draw(st.integers(0, len(lines) - 1))
    edited = draw(_json_edit(lines[i])).replace(b"\n", b" ")
    out = [json.dumps(line).encode() for line in lines]
    out[i] = edited
    return b"\n".join(out) + b"\n"


def _fasta_arg(data: bytes):
    """Strategy for a FASTA argument seeded from the corpus file `data`."""
    return st.one_of(
        st.sampled_from([MISSING, DIRECTORY]), _byte_edit(data), _FASTA_LIKE, _SOME_BYTES
    )


def _json_arg(data: bytes):
    return st.one_of(
        st.sampled_from([MISSING, DIRECTORY]),
        _json_edit(json.loads(data)),
        _byte_edit(data),
        _SOME_BYTES,
    )


def _json_lines_arg(data: bytes):
    return st.one_of(
        st.sampled_from([MISSING, DIRECTORY]),
        _json_lines_edit([json.loads(line) for line in data.splitlines()]),
        _byte_edit(data),
        _SOME_BYTES,
    )


@pytest.fixture(scope="module")
def inputs(corpus, trained_model, tmp_path_factory):
    """Intact corpus files by name, and a directory to run in.

    The run directory holds copies of the corpus databases, so a manifest
    written there names files that exist.
    """
    run_dir = tmp_path_factory.mktemp("cli-fuzz")
    for key in ("db_ncbi", "db_ebi", "db_ensembl"):
        shutil.copy(corpus[key], run_dir)
    (run_dir / "a-directory").mkdir()
    files = {key: path.read_bytes() for key, path in corpus.items()}
    return run_dir, {**files, "model": trained_model.read_bytes()}


def _place(path, content) -> str:
    """Make `path` hold `content` (bytes, MISSING or DIRECTORY); return it as a str."""
    if path.is_dir():
        path.rmdir()
    else:
        path.unlink(missing_ok=True)
    if content == DIRECTORY:
        path.mkdir()
    elif content != MISSING:
        path.write_bytes(content)
    return str(path)


def _draw_files(data, inputs, args: dict) -> list:
    """Flags and paths for `args`: flag -> (file name, corpus key, strategy maker).

    Each argument gets either the intact corpus file or a file from its
    strategy, so runs that succeed are drawn as well.
    """
    run_dir, files = inputs
    argv = []
    for flag, (name, key, strategy) in args.items():
        content = data.draw(st.just(files[key]) | strategy(files[key]))
        argv += [flag, _place(run_dir / name, content)]
    return argv


def _run_to_one_of_three_ends(argv: list, inputs) -> None:
    err = io.StringIO()
    env = {"MUTASCAN_WORKDIR": str(inputs[0] / "work")}
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 2, f"exit {code}: {err.getvalue()}"
    if code == 1:
        assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()
    else:
        assert code in (0, 2), code


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_stats_on_any_file(inputs, data):
    _, fasta = _draw_files(data, inputs, {"fasta": ("x.fasta", "db_ncbi", _fasta_arg)})
    _run_to_one_of_three_ends(["stats", fasta], inputs)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_search_on_any_files(inputs, data):
    argv = _draw_files(data, inputs, {
        "--db": ("db.fasta", "db_ncbi", _fasta_arg),
        "--query": ("q.fasta", "patient_mutated", _fasta_arg),
    })
    _run_to_one_of_three_ends(["search", *argv], inputs)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_align_on_any_files(inputs, data):
    argv = _draw_files(data, inputs, {
        "--ref": ("ref.fasta", "patient_clean", _fasta_arg),
        "--alt": ("alt.fasta", "patient_mutated", _fasta_arg),
    })
    _run_to_one_of_three_ends(["align", *argv], inputs)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_train_on_any_file(inputs, data):
    argv = _draw_files(data, inputs, {
        "--data": ("train.jsonl", "training_data", _json_lines_arg),
    })
    # an output path that can be written, one in a missing directory, a directory
    out = data.draw(st.sampled_from(["m.json", "no-such-dir/m.json", "a-directory"]))
    argv += ["--out", str(inputs[0] / out), "--max-epochs", "20"]
    _run_to_one_of_three_ends(["train", *argv], inputs)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_predict_on_any_files(inputs, data):
    argv = _draw_files(data, inputs, {
        "--model": ("model.json", "model", _json_arg),
        "--features": ("features.jsonl", "training_data", _json_lines_arg),
    })
    _run_to_one_of_three_ends(["predict", *argv], inputs)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_diagnose_on_any_files(inputs, data):
    # --model is always given, so no run trains the 500,000-epoch default
    argv = _draw_files(data, inputs, {
        "--patient": ("patient.fasta", "patient_mutated", _fasta_arg),
        "--manifest": ("manifest.json", "manifest", _json_arg),
        "--model": ("dx-model.json", "model", _json_arg),
    })
    _run_to_one_of_three_ends(["diagnose", *argv], inputs)
