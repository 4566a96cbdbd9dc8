"""The compiled kernels against the numpy and Python code they mirror: the band
fill and traceback, the k-mer seeding of a search, and the training epochs."""

import hashlib
import importlib.resources
import math
import random
import subprocess
import sysconfig
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutascan import _native
from mutascan import align, homology, neural
from mutascan.align import Scoring, banded_local_align, encode_bases, global_align
from mutascan.homology import SEARCH_SCORING, build_index, search
from mutascan.neural import NetworkTopology, TrainConfig, train
from mutascan.seqio import DnaSequence, FastaFile

from oracles import dna, random_bases, seed_diagonal_counts

_SCORINGS = st.sampled_from(
    [
        Scoring(),
        SEARCH_SCORING,
        Scoring(match=3, mismatch=-2, gap_open=-4, gap_extend=-3),
        Scoring(match=1, mismatch=0, gap_open=0, gap_extend=0),  # ties everywhere
    ]
)


@pytest.fixture(scope="session")
def native():
    kernel = _native.load()
    if kernel is None:
        pytest.skip("the compiled kernel does not build or load on this host")
    return kernel


def _copy(args):
    """A copy of a kernel argument list that the kernel may fill."""
    return [a.copy() if isinstance(a, np.ndarray) else a for a in args]


def _kernel_calls(fn, *args):
    """Every argument list that `fn(*args)` hands the kernel's `band_align` or
    `seed_diagonals`, as it was before the call: a stand-in kernel keeps a copy of
    each, then runs the numpy fallback."""
    calls = []

    def recording(fallback):
        def call(*a):
            calls.append(_copy(a))
            return fallback(*a)

        return call

    kernel = SimpleNamespace(
        band_align=recording(align._band_align_numpy),
        seed_diagonals=recording(homology._seed_diagonals_numpy),
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "load", lambda: kernel)
        fn(*args)
    return calls


# up to a full search batch: 32 bands, as many as `homology.search` aligns in one call
_BANDS = st.lists(st.tuples(dna("ACGTNN", 1, 300), st.integers(-300, 300)), min_size=1, max_size=32)


def _lose_bases(a, rng):
    """`a` and a copy of it that lost about one base in 20: a path near the diagonal."""
    return a, "".join(c for c in a if rng.random() > 0.05) or "A"


def _global_pair():
    return (
        st.tuples(dna("ACGTNNNN", 1, 300), dna("ACGTNNNN", 1, 300))
        | st.tuples(dna("ACGTN", 1, 1), dna("ACGTN", 1, 90))
        | st.builds(_lose_bases, dna("ACGTN", 1, 300), st.randoms(use_true_random=False))
    )


def _assert_native_matches_numpy(native, calls):
    """`native.band_align` and `align._band_align_numpy`, each on copies of every
    argument list, fill the same cell block and return the same paths; returns
    the C kernel's block of M, Ix and Iy and its paths of the last list."""
    for args in calls:
        runs = []
        for band_align, unwritten in ((native.band_align, 12345), (align._band_align_numpy, -1)):
            copy = _copy(args)
            copy[-1][:, 1:] = unwritten  # rows 1.. are the fill's to write
            runs.append((copy[-1], band_align(*copy)))
        (got, got_paths), (want, want_paths) = runs
        assert np.array_equal(got, want)
        assert got_paths == want_paths
    return runs[0]


@settings(max_examples=120, deadline=None)
@given(_global_pair(), st.booleans(), st.integers(0, 40), _SCORINGS)
def test_native_fill_matches_numpy(native, pair, swap, radius, scoring):
    a, b = pair[::-1] if swap else pair
    ca, cb = encode_bases(a), encode_bases(b)
    _assert_native_matches_numpy(native, _kernel_calls(align._global_band, ca, cb, radius, scoring))
    bands = [(a, d) for d in (-radius, 0, len(b) - len(a), radius)]
    _assert_native_matches_numpy(
        native, _kernel_calls(banded_local_align, b, bands, radius % 17, scoring)
    )


@settings(max_examples=120, deadline=None)
@given(_global_pair(), st.booleans(), _SCORINGS)
def test_native_traceback_matches_python_on_global_bands(native, pair, swap, scoring):
    a, b = pair[::-1] if swap else pair
    seqs = DnaSequence("a", "", a), DnaSequence("b", "", b)
    _assert_native_matches_numpy(native, _kernel_calls(global_align, *seqs, scoring))


@settings(max_examples=80, deadline=None)
@given(dna("ACGTNN", 1, 300), _BANDS, st.integers(0, 16), _SCORINGS)
def test_native_traceback_matches_python_on_local_batches(native, query, bands, radius, scoring):
    calls = _kernel_calls(banded_local_align, query, bands, radius, scoring)
    assert len(calls) == 1 and len(calls[0][1]) == len(bands)  # one call fills and traces all
    _assert_native_matches_numpy(native, calls)


def _first_max_cells(M):
    """Every (row, slot) of a (rows, width) band's M that holds its maximum."""
    return list(zip(*np.nonzero(M == M.max())))


@st.composite
def _motif_batches(draw):
    """A query of one repeated motif and bands whose subjects repeat it too, so the
    M maximum of a band often repeats within a row and across rows."""
    motif = draw(dna("ACGT", 1, 4))
    query = motif * draw(st.integers(2, 12))
    bands = []
    for _ in range(draw(st.integers(1, 5))):
        flank = draw(dna("ACGT", 1, 6))
        subject = flank + motif * draw(st.integers(1, 16)) + flank
        bands.append((subject, draw(st.integers(-12, 12))))
    return query, bands


@settings(max_examples=80, deadline=None)
@given(_motif_batches(), st.integers(0, 10), _SCORINGS)
def test_native_local_start_matches_python_on_repeated_maxima(native, batch, radius, scoring):
    query, bands = batch
    _assert_native_matches_numpy(
        native, _kernel_calls(banded_local_align, query, bands, radius, scoring)
    )


def test_native_local_start_is_the_first_of_repeated_maxima(native):
    motif = "ACG"
    query = motif * 8
    bands = [("TT" + motif * 12 + "TT", -2), ("GG" + motif * 3 + "GG", -2)]
    calls = _kernel_calls(banded_local_align, query, bands, 6, Scoring())
    (M, _, _), got = _assert_native_matches_numpy(native, calls)
    long, short = _first_max_cells(M[:, 0]), _first_max_cells(M[:, 1])
    assert len({i for i, _ in long}) < len(long)  # the maximum repeats within a row
    assert len({i for i, _ in short}) > 1  # and across rows
    offsets = calls[0][2]
    for path, cells in zip(got, (long, short)):
        i, b = cells[0]  # nonzero lists cells in row-major order
        assert path[2] == (i, offsets[i] + b)


def test_native_path_ends_are_sequence_columns(native):
    """Both kernels give a path's first and last cells as (row, column), not (row,
    slot): a local path from row 0, whose window starts at column -1, and a global
    band whose row windows are clipped to the matrix at both ends."""
    query = "ACGTTGCA"
    local = _kernel_calls(banded_local_align, query, [(query, 0)], 2, Scoring())
    clipped = _kernel_calls(
        align._global_band, encode_bases(query), encode_bases("ACGTATGCAC"), 2, Scoring()
    )
    assert clipped[0][2].tolist() == [0, 0, 0, 1, 2, 3, 4, 4, 4]
    [local_path], [global_path] = (
        _assert_native_matches_numpy(native, calls)[1] for calls in (local, clipped)
    )
    assert local_path[1:3] == ((0, 1), (8, 9))  # column x holds subject base x - 2
    assert global_path[1:3] == ((0, 0), (8, 10))  # the last row's window starts at column 4


def test_native_global_fill_keeps_cells_below_neg(native):
    """A global-mode band with row 0 left unreachable holds M cells whose three
    predecessors all lie below _NEG; flooring global mode at _NEG would change them."""
    rows, cb = encode_bases("ACGTTGCA"), encode_bases("TTGCAACGTA")
    cols = align._global_columns(cb)
    width = 5
    offsets = np.clip(np.arange(len(rows) + 1, dtype=np.int64) - 2, 0, cols.shape[1] - width)
    args = [rows, cols, offsets, Scoring().table, -6, -1, False]
    fills = []
    for band_align in (native.band_align, align._band_align_numpy):
        cells = np.full((3, len(rows) + 1, 1, width), align._NEG, dtype=np.int32)
        with pytest.raises(ValueError):  # the traceback, after the fill, finds no start
            band_align(*args, cells)
        fills.append(cells)
    got, (M, Ix, Iy) = fills
    below = [
        (i, s)
        for i in range(1, len(rows) + 1)
        for s in range(width)
        if 0 <= (p := s - 1 + int(offsets[i] != offsets[i - 1])) < width
        and max(M[i - 1, 0, p], Ix[i - 1, 0, p], Iy[i - 1, 0, p]) < align._NEG
    ]
    assert below
    assert np.array_equal(got, fills[1])


# --- seeding --------------------------------------------------------------------


def _index(subjects, k):
    db = FastaFile(tuple(DnaSequence(f"s{i}", "", b) for i, b in enumerate(subjects)))
    return build_index(db, k)


def _assert_seeds_agree(native, query, subjects, index):
    """`native.seed_diagonals` and `homology._seed_diagonals_numpy`, each on a copy of
    the one argument list `_seed_diagonals(query, index)` builds, return the
    enumeration oracle's seeded (subject, diagonal) pairs in ascending order; returns
    the list."""
    [args] = _kernel_calls(homology._seed_diagonals, query, index)
    got = native.seed_diagonals(*_copy(args))
    assert got == homology._seed_diagonals_numpy(*_copy(args))
    assert got == sorted(seed_diagonal_counts(query, subjects, index.k))
    return got


@st.composite
def _seed_cases(draw):
    """k, subjects (N-rich ones and ones shorter than k among them) and a query of
    random bases around pieces of the subjects, so long seeds occur too."""
    k = draw(st.sampled_from([4, 11, 32]))
    letters = draw(st.sampled_from(["ACGT", "ACGTN", "ACGTNNNN", "AAN", "ACGT" * 8 + "N", "AN"]))
    subjects = draw(
        st.lists(dna(letters, 1, k - 1) | dna(letters, k, 200), min_size=1, max_size=8)
    )
    pieces = [draw(dna(letters, 0, 40))]
    for _ in range(draw(st.integers(0, 4))):
        source = draw(st.sampled_from(subjects))
        start = draw(st.integers(0, len(source)))
        pieces += [source[start : draw(st.integers(start, len(source)))], draw(dna("ACGTN", 0, 4))]
    return k, subjects, "".join(pieces) + draw(dna(letters, k, 200))


@settings(max_examples=200, deadline=None)
@given(_seed_cases())
def test_native_seeding_matches_numpy_and_the_oracle(native, case):
    k, subjects, query = case
    _assert_seeds_agree(native, query, subjects, _index(subjects, k))


@pytest.mark.parametrize(
    "k,subjects,query",
    [
        (4, ["CCCCCCCC", "GGGGNGGG"], "AAAATTTT"),  # no shared k-mer
        (11, ["ACGTNACGTNACGT"], "ACGTNACGTNACGT"),  # every window holds an N
        (32, ["ACGT" * 7, "A"], "ACGT" * 10),  # every subject shorter than k: an empty index
        (4, ["NNNNNN"], "NNNNNNNN"),
    ],
)
def test_native_seeding_with_no_seed_is_empty(native, k, subjects, query):
    assert _assert_seeds_agree(native, query, subjects, _index(subjects, k)) == []


def test_native_seeding_at_k_32_keeps_every_bit(native):
    """At k = 32 the code mask keeps all 64 bits: windows that differ only in their
    first base, the code's top two bits, are different seeds."""
    tail = random_bases(random.Random(32), 40)
    subjects = ["T" + tail, "A" + tail, "G" + tail]
    query = "T" + tail[:31] + "NN" + "G" + tail
    got = _assert_seeds_agree(native, query, subjects, _index(subjects, 32))
    assert got == [(0, 0), (0, 34), (1, 34), (2, 34)]


def test_native_seeding_grows_its_buffer_for_repeats(native, monkeypatch):
    """A poly-A query against a poly-A database at k = 4 has far more seeds than two a
    query window, so the first C call only counts them and a second one seeds."""
    subjects = ["A" * 300, "A" * 150 + "N" + "A" * 50]
    index = _index(subjects, 4)
    calls = []
    seed = native._seed
    kernel = _native.Kernel(native.path)
    monkeypatch.setattr(kernel, "_seed", lambda *a: calls.append(a[7]) or seed(*a))
    query = "A" * 120
    _assert_seeds_agree(kernel, query, subjects, index)
    windows = len(query) - 3
    assert len(calls) == 2 and calls[0] < calls[1] == windows * (297 + 147 + 47)


@pytest.mark.parametrize(
    "array,bad",
    [
        ("subject_idx", lambda a: a - 1),  # a negative subject
        ("offsets", lambda a: a + np.iinfo(np.int64).min),  # a diagonal past int64
        ("subject_idx", lambda a: a + 2**62),  # subject x span past int64
    ],
)
def test_native_seeding_refuses_keys_that_do_not_fit_int64(native, array, bad):
    index = _index(["ACGTACGTTGCA", "TTGCAACGTACG"], 4)
    arrays = {"codes": index.codes, "subject_idx": index.subject_idx, "offsets": index.offsets}
    arrays[array] = bad(arrays[array])
    with pytest.raises(ValueError):
        native.seed_diagonals(encode_bases("ACGTACGTTGCAACGTACG"), 4, **arrays)


# --- loader ---------------------------------------------------------------------


def _library_name():
    """The cache file name: the SHA-256 of the C source, the compiler command and the platform."""
    source = importlib.resources.files("mutascan").joinpath("_band.c").read_bytes()
    build = "\0".join(("", *_native._CC, sysconfig.get_platform())).encode()
    return f"_band-{hashlib.sha256(source + build).hexdigest()[:16]}.so"


@pytest.mark.parametrize("case", ["no cc", "failing cc", "unloadable library"])
def test_without_a_working_kernel_numpy_runs_and_agrees(tmp_path, monkeypatch, case):
    ref = random_bases(random.Random(3), 400)
    patient = ref[:100] + "T" + ref[101:300] + ref[306:]
    db = FastaFile((DnaSequence("r", "", ref), DnaSequence("s", "", ref[::-1])))
    query = DnaSequence("p", "", patient)

    xor = [([0.0, 0.0], 0.0), ([0.0, 1.0], 1.0), ([1.0, 0.0], 1.0), ([1.0, 1.0], 0.0)]

    def results():
        net, report = train(NetworkTopology((2, 4, 1)), xor, TrainConfig(max_epochs=50))
        return (
            global_align(db.records[0], query),
            search(query, build_index(db, 11)),
            (report, [w.tolist() for w in net.weights + net.biases]),
        )

    expected = results()
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    if case == "unloadable library":
        (cache / _library_name()).write_bytes(b"not a shared library")
    else:
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        if case == "failing cc":
            (bin_dir / "cc").write_text("#!/bin/sh\nexit 1\n", encoding="utf-8")
            (bin_dir / "cc").chmod(0o755)
        monkeypatch.setenv("PATH", str(bin_dir))
    before = sorted(cache.iterdir())
    assert _native._load(cache) is None
    assert sorted(cache.iterdir()) == before  # a failed build leaves no file behind

    ran = []
    for module, name in (
        (align, "_fill_rows_numpy"),
        (align, "_band_traceback_python"),
        (homology, "_seed_diagonals_numpy"),
        (neural, "_train_numpy"),
    ):
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, name=name, fn=original, **kw: ran.append(name) or fn(*a, **kw)
        )
    monkeypatch.setattr(_native, "load", lambda: _native._load(cache))
    assert results() == expected
    assert set(ran) == {
        "_fill_rows_numpy", "_band_traceback_python", "_seed_diagonals_numpy", "_train_numpy",
    }


@pytest.mark.parametrize("mode", [0o770, 0o707, 0o777])
def test_cache_directory_others_may_write_is_not_loaded_from(native, tmp_path, mode):
    cache = tmp_path / "cache"
    built = _native._load(cache)
    assert built is not None and built.path.parent == cache
    built.path.unlink()  # a new file, not a rewrite of the loaded one
    built.path.write_bytes(b"not a shared library")  # loading it would fail
    cache.chmod(mode)
    try:
        kernel = _native._load(cache)
    finally:
        cache.chmod(0o700)
    assert kernel is not None and kernel.path.parent != cache
    assert not kernel.path.exists()  # the private build directory is removed after loading
    assert built.path.read_bytes() == b"not a shared library"


def test_cache_directory_is_made_private(native, tmp_path):
    cache = tmp_path / "deep" / "cache"
    assert _native._load(cache).path.parent == cache
    assert cache.stat().st_mode & 0o777 == 0o700


def test_warm_load_starts_no_process(native, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    assert _native._load(cache) is not None

    def no_process(*args, **kwargs):
        raise AssertionError("a warm load started a process")

    monkeypatch.setattr(subprocess, "run", no_process)
    monkeypatch.setattr(subprocess, "Popen", no_process)
    kernel = _native._load(cache)
    assert kernel is not None and kernel.path.parent == cache


def test_cache_key_is_source_flags_and_platform(native, tmp_path):
    assert _native._load(tmp_path).path.name == _library_name()


def test_changed_compiler_flags_build_a_new_library(native, tmp_path, monkeypatch):
    built = _native._load(tmp_path).path.name
    monkeypatch.setattr(_native, "_CC", (*_native._CC, "-g0"))
    rebuilt = _native._load(tmp_path)
    assert rebuilt is not None and rebuilt.path.name == _library_name() != built
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([built, rebuilt.path.name])


# --- checks before each C call ---------------------------------------------------


@pytest.fixture
def guarded(native):
    """A kernel whose C function fails the test if called."""
    kernel = _native.Kernel(native.path)

    def not_reached(*args):
        raise AssertionError("the C function was called")

    kernel._align = kernel._seed = kernel._train = not_reached
    return kernel


def _kernel_args(m=6, n=9, width=4, g=2):
    """`Kernel.band_align` arguments for g random bands: rows, cols, offsets,
    table, oe, e, local, cells."""
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 5, m).astype(np.uint8)
    cols = rng.integers(0, 6, (g, n)).astype(np.uint8)
    offsets = np.clip(np.arange(-1, m, dtype=np.int64), 0, n - width)
    table = Scoring().table
    cells = np.zeros((3, m + 1, g, width), dtype=np.int32)
    return [rows, cols, offsets, table, -6, -1, False, cells]


@pytest.mark.parametrize(
    "index,bad",
    [
        (0, lambda a: a.astype(np.int64)),  # rows dtype
        (0, lambda a: np.where(a == a[0], 5, a).astype(np.uint8)),  # row code 5
        pytest.param(0, lambda a: a.astype(np.int32), id="rows int32"),
        pytest.param(0, lambda a: np.where(a == a[0], 6, a).astype(np.uint8), id="row code 6"),
        (1, lambda a: np.asfortranarray(a)),  # cols not C-contiguous
        (1, lambda a: a[:, :-1]),  # cols a strided view
        (1, lambda a: np.where(a == a[0, 0], 6, a).astype(np.uint8)),  # column code 6
        pytest.param(
            1, lambda a: np.where(a == a[0, 1], 6, a).astype(np.uint8), id="column code 6 at [0, 1]"
        ),
        pytest.param(1, lambda a: np.concatenate([a, a]), id="cols a band more than M holds"),
        (2, lambda a: a.astype(np.int32)),  # offsets dtype
        (2, lambda a: a[:-1]),  # offsets one short
        pytest.param(2, lambda a: np.append(a, a[-1]), id="offsets one long"),
        (2, lambda a: a + 6),  # a row window past the columns
        (2, lambda a: a - 2),  # a row window before column 0
        pytest.param(2, lambda a: a.tolist(), id="offsets a list"),
        (7, lambda a: a[:, :-1].copy()),  # cells a row short
        pytest.param(7, lambda a: np.concatenate([a, a[:, :1]], axis=1), id="cells a row long"),
        pytest.param(7, lambda a: a.astype(np.int64), id="cells int64"),
        pytest.param(7, lambda a: a.astype(np.uint32), id="cells uint32"),
        pytest.param(7, lambda a: np.asfortranarray(a), id="cells not C-contiguous"),
        pytest.param(7, lambda a: a[:, ::-1], id="cells with negative strides"),
        pytest.param(7, lambda a: a[:2].copy(), id="cells of two matrices"),
        pytest.param(7, lambda a: np.concatenate([a, a[:1]]), id="cells of four matrices"),
        pytest.param(7, lambda a: a[:, :, :1].copy(), id="cells a band short"),
        pytest.param(  # the windows of 5 slots leave the 9 columns
            7, lambda a: np.concatenate([a, a[..., :1]], axis=3), id="cells a slot long"
        ),
        pytest.param(7, lambda a: a[:, :, :, :0].copy(), id="cells no slot a row"),
        pytest.param(7, lambda a: a[0], id="cells one matrix"),
        pytest.param(7, lambda a: a[None], id="cells five-dimensional"),
    ],
)
def test_fill_refuses_bad_arrays_before_calling_c(guarded, index, bad):
    """Every array of the one `Kernel.band_align` call, indexed as `_kernel_args`
    orders the arguments, is checked before C fills and traces the bands."""
    args = _kernel_args()
    args[index] = bad(args[index])
    with pytest.raises(ValueError):
        guarded.band_align(*args)


def _seed_args():
    """The `Kernel.seed_diagonals` arguments `_seed_diagonals` builds: query, k, codes,
    subject_idx, offsets."""
    index = _index(["ACGTACGTTGCANNACGT", "TTGCAACGTACG"], 4)
    [args] = _kernel_calls(homology._seed_diagonals, "ACGTACGTTGCAACGNTACG", index)
    return args


@pytest.mark.parametrize(
    "index,bad",
    [
        pytest.param(0, lambda a: a.astype(np.int64), id="query int64"),
        pytest.param(0, lambda a: np.where(a == a[0], 5, a).astype(np.uint8), id="base code 5"),
        pytest.param(0, lambda a: a.reshape(4, -1), id="query 2-D"),
        pytest.param(0, lambda a: a[::2], id="query a strided view"),
        pytest.param(0, lambda a: a.tobytes(), id="query bytes"),
        pytest.param(1, lambda k: 3, id="k 3"),
        pytest.param(1, lambda k: 33, id="k 33"),
        pytest.param(1, lambda k: 4.0, id="k a float"),
        pytest.param(1, lambda k: np.int64(4), id="k a numpy int"),
        pytest.param(2, lambda a: a.astype(np.int64), id="codes int64"),
        pytest.param(2, lambda a: a[:-1], id="codes one short"),
        pytest.param(2, lambda a: a.tolist(), id="codes a list"),
        pytest.param(3, lambda a: a.astype(np.int32), id="subject_idx int32"),
        pytest.param(3, lambda a: np.append(a, 0), id="subject_idx one long"),
        pytest.param(4, lambda a: a.astype(np.uint64), id="offsets uint64"),
        pytest.param(4, lambda a: np.stack([a, a], axis=1)[:, 0], id="offsets a strided view"),
        pytest.param(4, lambda a: a[:-1], id="offsets one short"),
    ],
)
def test_seeding_refuses_bad_arguments_before_calling_c(guarded, index, bad):
    """Every argument of the one `Kernel.seed_diagonals` call, indexed as `_seed_args`
    orders them, is checked before C seeds the query."""
    args = _seed_args()
    args[index] = bad(args[index])
    with pytest.raises(ValueError):
        guarded.seed_diagonals(*args)


def _train_args(samples=5, sizes=(3, 4, 2, 1)):
    """`Kernel.train` arguments, as `neural.train` hands them: sizes, inputs, targets,
    learning rate, momentum, target MSE, params, vel, history."""
    rng = np.random.default_rng(9)
    count = sum((n_in + 1) * n_out for n_in, n_out in zip(sizes, sizes[1:]))
    return [
        sizes, rng.uniform(0, 1, (samples, sizes[0])), rng.uniform(0, 1, (samples, sizes[-1])),
        0.5, 0.9, 1e-9, rng.uniform(-1, 1, count), np.zeros(count), np.empty(20),
    ]


@pytest.mark.parametrize(
    "index,bad",
    [
        pytest.param(0, list, id="sizes a list"),
        pytest.param(0, lambda s: s[:1], id="one layer"),
        pytest.param(0, lambda s: (s[0], 0, *s[2:]), id="an empty layer"),
        pytest.param(0, lambda s: (s[0], True, *s[2:]), id="a bool size"),
        pytest.param(0, lambda s: (s[0], np.int64(4), *s[2:]), id="a numpy int size"),
        pytest.param(0, lambda s: (s[0], 5, *s[2:]), id="sizes that do not fit params"),
        pytest.param(0, lambda s: (s[0], 2**70, *s[2:]), id="a size past int64"),
        pytest.param(1, lambda a: a.astype(np.float32), id="inputs float32"),
        pytest.param(1, lambda a: np.asfortranarray(a), id="inputs not C-contiguous"),
        pytest.param(1, lambda a: a[:, :-1], id="inputs one column short"),
        pytest.param(1, lambda a: a[:0], id="no samples"),
        pytest.param(1, lambda a: a[0], id="inputs 1-D"),
        pytest.param(1, lambda a: a.tolist(), id="inputs a list"),
        pytest.param(2, lambda a: a[:-1], id="targets one sample short"),
        pytest.param(2, lambda a: a.ravel(), id="targets 1-D"),
        pytest.param(2, lambda a: a.astype(np.int64), id="targets int64"),
        pytest.param(6, lambda a: a[:-1], id="params one short"),
        pytest.param(6, lambda a: a[::-1], id="params with a negative stride"),
        pytest.param(6, lambda a: a.astype(np.float32), id="params float32"),
        pytest.param(7, lambda a: np.append(a, 0.0), id="vel one long"),
        pytest.param(7, lambda a: np.zeros((len(a), 2))[:, 0], id="vel a strided view"),
        pytest.param(8, lambda a: a.reshape(4, 5), id="history 2-D"),
        pytest.param(8, lambda a: a[::2], id="history a strided view"),
    ],
)
def test_training_refuses_bad_arguments_before_calling_c(guarded, index, bad):
    """Every argument of the one `Kernel.train` call, indexed as `_train_args`
    orders them, is checked before C trains."""
    args = _train_args()
    args[index] = bad(args[index])
    with pytest.raises(ValueError):
        guarded.train(*args)


@pytest.mark.parametrize(
    "pair",
    [(6, 7), (6, 8), (7, 8), (1, 8), (2, 6)],
    ids=["params, vel", "params, history", "vel, history", "inputs, history", "targets, params"],
)
def test_training_refuses_overlapping_buffers(guarded, pair):
    args = _train_args()
    shared = np.zeros(100)
    for i, at in zip(pair, (0, 1)):  # the second starts one float on from the first
        args[i] = shared[at : at + args[i].size].reshape(args[i].shape)
    with pytest.raises(ValueError, match="must not overlap"):
        guarded.train(*args)


def test_training_writes_no_further_than_its_history(native):
    for train_epochs in (native.train, neural._train_numpy):
        args = _train_args()
        buffer = np.full(30, 7.0)
        args[-1] = buffer[5:25]  # 20 epochs, none at or below the target
        assert train_epochs(*args) == 20
        assert (buffer[:5] == 7.0).all() and (buffer[25:] == 7.0).all()
        assert (buffer[5:25] != 7.0).all()


def test_training_kernel_matches_numpy_on_wide_layers(native):
    """`neural.train` hands the kernel 10-4-1; here every layer has several units."""
    runs = []
    for train_epochs in (native.train, neural._train_numpy):
        args = _train_args(samples=7, sizes=(3, 6, 5, 2))
        runs.append((train_epochs(*args), *args[6:]))
    assert runs[0][0] == runs[1][0] == 20
    assert all(a.tobytes() == b.tobytes() for a, b in zip(runs[0][1:], runs[1][1:]))


# --- training's sample lanes ------------------------------------------------------


def _train_both(native, make_args):
    """(epochs run, params, vel, the history written) from the kernel and from numpy,
    each on its own `make_args()`."""
    runs = []
    for train_epochs in (native.train, neural._train_numpy):
        args = make_args()
        epochs = train_epochs(*args)
        runs.append((epochs, args[6], args[7], args[8][:epochs]))
    return runs


def _same_training_bits(run, other):
    """The epoch count, then `params`, `vel` and the history bit for bit, except that
    a nan matches any nan: IEEE leaves a nan's sign and payload to the hardware."""
    (epochs, *arrays), (other_epochs, *others) = run, other
    if epochs != other_epochs:
        return False
    for a, b in zip(arrays, others):
        nan = np.isnan(a)
        if not (nan == np.isnan(b)).all() or a[~nan].tobytes() != b[~nan].tobytes():
            return False
    return True


@pytest.mark.parametrize("samples", range(1, 4 * _native._LANES + 2))
def test_training_kernel_matches_numpy_at_every_sample_count(native, samples):
    """Samples are the C code's vector lanes, the last vector padded: every count up
    to past four vectors, on layers none of whose widths is a multiple of the lanes."""
    runs = _train_both(native, lambda: _train_args(samples=samples, sizes=(5, 3, 7, 1)))
    assert runs[0][0] == 20
    assert _same_training_bits(*runs)


def _floor_point(v):
    """A z for which the fixed exp of -|z| floors v = -|z| / ln 2 + 0.5, as it rounds:
    a whole v, or a half-integer, a tie for the round trip through 0x1.8p52."""
    inv_ln2 = float.fromhex("0x1.71547652b82fep+0")
    z = (0.5 - v) * math.log(2)
    for step in range(8):
        for candidate in (z + step * math.ulp(z), z - step * math.ulp(z)):
            if -candidate * inv_ln2 + 0.5 == v:
                return candidate
    raise AssertionError(f"no z near {z} floors {v}")


# v from -1001 down scales by 2^(k + 64), then by 2^-64
_FLOOR_POINTS = [
    _floor_point(v)
    for v in (-2, -5, -10, -1000, -1074, -1075)
    + (-0.5, -1.5, -4.5, -9.5, -998.5, -999.5, -1000.5, -1073.5, -1074.5)
]
_DEEP = [693.4, 693.5, 708.0, 708.4, 709.0, 709.8, 720.0, 740.0, 745.0, 745.2, 745.9, 746.0]
# inputs (x0, x1) that the one unit's weights (1, 1e308) and bias -0.0 turn into z:
# x1 = -0.0 keeps z = x0 (even -0.0), and x1 = +-2 overflows to +-inf
_EDGES = (
    [(z, -0.0) for z in [0.0, -0.0, 5e-324, -5e-324, 800.0, -800.0, math.nan]]
    + [(-0.0, 2.0), (-0.0, -2.0)]
    + [(z, -0.0) for magnitude in _FLOOR_POINTS + _DEEP for z in (magnitude, -magnitude)]
)


def _edge_args(edges):
    """`Kernel.train` arguments for a 2-1 net whose pre-activation is each edge's z,
    target 1: then a tiny output o makes the bias's first step exactly o."""
    inputs = np.array(edges, dtype=np.float64).reshape(-1, 2)
    targets = np.ones((len(inputs), 1))
    params = np.array([1.0, 1e308, -0.0])
    return [(2, 1), inputs, targets, 0.5, 0.9, -1.0, params, np.zeros(3), np.empty(3)]


@pytest.mark.parametrize("edge", _EDGES, ids=lambda e: f"{e[0]!r},{e[1]!r}")
def test_training_kernel_matches_numpy_at_the_exps_edges(native, edge):
    """One sample a run, so each pre-activation's sigmoid shows in the bits; the
    fixed exp meets +-0, +-inf, nan, floor ties, subnormal and zero results there."""
    runs = _train_both(native, lambda: _edge_args([edge]))
    assert runs[0][0] == (1 if math.isnan(edge[0]) else 3)  # a nan MSE stops the run
    assert _same_training_bits(*runs)


def test_training_kernel_matches_numpy_with_the_edges_in_one_batch(native):
    """Every finite edge in one batch: the lanes of a vector take different branches."""
    edges = [e for e in _EDGES if not math.isnan(e[0])]
    runs = _train_both(native, lambda: _edge_args(edges))
    assert runs[0][0] == 3
    assert _same_training_bits(*runs)


def test_traceback_with_no_predecessor_raises(native):
    a, b = DnaSequence("a", "", "ACGTTGCAAC"), DnaSequence("b", "", "ACGTGCAACG")
    [args] = _kernel_calls(global_align, a, b, Scoring())
    args[-1][2, 0, :, 2:] += 1000  # row 0's Iy is no longer oe + e*k: slot 2 does not follow slot 1
    for band_align in (native.band_align, align._band_align_numpy):
        with pytest.raises(ValueError):
            band_align(*_copy(args))


def test_traceback_never_writes_past_its_capacity(native):
    query = "ACGTTGCAACGT"
    far = 10 * len(query)  # a diagonal whose band holds no subject base: no path
    g, cap, guard = 3, 4, 16  # the path is 12 columns long
    for band in range(g):
        bands = [(query, 0 if k == band else far) for k in range(g)]
        [args] = _kernel_calls(banded_local_align, query, bands, 2, Scoring())
        rows, cols, offsets, table, oe, e, local, cells = args
        ncols, width = cols.shape[1], cells.shape[-1]
        profile = np.empty((5, g, ncols), dtype=np.int32)
        out = np.full(g * 2 * cap + guard, 0xAB, dtype=np.uint8)
        ends = np.zeros((g, 6), dtype=np.int64)
        status = native._align(
            rows.ctypes.data, len(rows), cols.ctypes.data, g, ncols, offsets.ctypes.data, width,
            table.ctypes.data, oe, e, local, cells.ctypes.data, profile.ctypes.data, cap,
            out.ctypes.data, ends.ctypes.data,
        )
        assert status == -1
        for half in range(2):  # the band's row codes, then its column codes
            codes = slice((2 * band + half) * cap, (2 * band + half + 1) * cap)
            assert (out[codes] != 0xAB).any()  # the band wrote its own row
            out[codes] = 0xAB
        assert (out == 0xAB).all()  # and nothing before it or after it


# --- packaging ------------------------------------------------------------------


def test_kernel_source_ships_with_the_package():
    assert (importlib.resources.files("mutascan") / "_band.c").is_file()
