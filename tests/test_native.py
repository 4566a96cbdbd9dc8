"""The compiled banded kernel against the numpy fill and Python traceback it mirrors."""

import hashlib
import importlib.resources
import inspect
import random
import subprocess
import sysconfig

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutascan import _native
from mutascan import align
from mutascan.align import Scoring, banded_local_align, encode_bases, global_align
from mutascan.homology import SearchParams, build_index, search
from mutascan.seqio import DnaSequence, FastaFile

from oracles import dna, random_bases

_SCORINGS = st.sampled_from(
    [
        Scoring(),
        SearchParams().scoring(),
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


def _numpy(fn, *args, **kwargs):
    """`fn(*args, **kwargs)` with the loader reporting no compiled kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "load", lambda: None)
        return fn(*args, **kwargs)


def _recorded(fn, *args):
    """Every (args, kwargs) that `fn(*args)` passes to `align._band_align`."""
    calls = []
    original = align._band_align

    def record(*a, **kw):
        calls.append((a, kw))
        return original(*a, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(align, "_band_align", record)
        fn(*args)
    return calls


_BANDS = st.lists(st.tuples(dna("ACGTNN", 1, 150), st.integers(-60, 60)), min_size=1, max_size=6)


def _global_pair():
    return st.tuples(dna("ACGTNNNN", 1, 150), dna("ACGTNNNN", 1, 150)) | st.tuples(
        dna("ACGTN", 1, 1), dna("ACGTN", 1, 90)
    )


def _native_run(native, args, kwargs):
    """Run `_band_align(*args, **kwargs)` on the compiled kernel; return the
    (M, Ix, Iy) it filled and its paths."""
    filled = []
    original = native.band_align

    def spy(*a):
        filled.append(a[-3:])
        return original(*a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "band_align", spy)
        paths = align._band_align(*args, **kwargs)
    [matrices] = filled
    return matrices, paths


def _python_traceback(M, Ix, Iy, rows, cols, offsets, scoring, local):
    """`_band_traceback_python` of every band of (len(rows) + 1, G, width) matrices."""
    return [
        align._band_traceback_python(
            M[:, g], Ix[:, g], Iy[:, g], rows.tolist(), cols[g], offsets.tolist(), scoring, local
        )
        for g in range(len(cols))
    ]


def _assert_native_matches_oracles(native, calls):
    """The C fill of each `_band_align` call equals `_fill_rows_numpy`'s, and its
    paths equal `_band_traceback_python`'s on those matrices."""
    signature = inspect.signature(align._band_align)
    for args, kwargs in calls:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        rows, cols, offsets, _, scoring, _, local = bound.arguments.values()
        filled, paths = _native_run(native, args, kwargs)
        reference = [a.copy() for a in filled]
        for a in reference:
            a[1:] = 12345  # rows 1.. are the fill's to write
        oe, e = scoring.gap_open + scoring.gap_extend, scoring.gap_extend
        align._fill_rows_numpy(
            rows, cols, offsets.tolist(), scoring.table, oe, e, local, *reference
        )
        for got, want in zip(filled, reference):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
        assert paths == _python_traceback(*filled, rows, cols, offsets, scoring, local)


@settings(max_examples=120, deadline=None)
@given(_global_pair(), st.booleans(), st.integers(0, 40), _SCORINGS)
def test_native_fill_matches_numpy(native, pair, swap, radius, scoring):
    a, b = pair[::-1] if swap else pair
    ca, cb = encode_bases(a), encode_bases(b)
    _assert_native_matches_oracles(native, _recorded(align._global_band, ca, cb, radius, scoring))
    bands = [(a, d) for d in (-radius, 0, len(b) - len(a), radius)]
    _assert_native_matches_oracles(
        native, _recorded(banded_local_align, b, bands, radius % 17, scoring)
    )


@settings(max_examples=80, deadline=None)
@given(dna("ACGTNN", 1, 150), _BANDS, st.integers(0, 16), _SCORINGS)
def test_native_fill_matches_numpy_on_local_batches(native, query, bands, radius, scoring):
    _assert_native_matches_oracles(
        native, _recorded(banded_local_align, query, bands, radius, scoring)
    )


@settings(max_examples=120, deadline=None)
@given(_global_pair(), st.booleans(), _SCORINGS)
def test_native_traceback_matches_python_on_global_bands(native, pair, swap, scoring):
    a, b = pair[::-1] if swap else pair
    seqs = DnaSequence("a", "", a), DnaSequence("b", "", b)
    _assert_native_matches_oracles(native, _recorded(global_align, *seqs, scoring))


@settings(max_examples=80, deadline=None)
@given(dna("ACGTNN", 1, 150), _BANDS, st.integers(0, 16), _SCORINGS)
def test_native_traceback_matches_python_on_local_batches(native, query, bands, radius, scoring):
    calls = _recorded(banded_local_align, query, bands, radius, scoring)
    assert len(calls) == 1 and len(calls[0][0][1]) == len(bands)  # one call traces every band
    _assert_native_matches_oracles(native, calls)


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
    _assert_native_matches_oracles(
        native, _recorded(banded_local_align, query, bands, radius, scoring)
    )


def test_native_local_start_is_the_first_of_repeated_maxima(native):
    motif = "ACG"
    query = motif * 8
    bands = [("TT" + motif * 12 + "TT", -2), ("GG" + motif * 3 + "GG", -2)]
    [(args, kwargs)] = _recorded(banded_local_align, query, bands, 6, Scoring())
    (M, Ix, Iy), got = _native_run(native, args, kwargs)
    long, short = _first_max_cells(M[:, 0]), _first_max_cells(M[:, 1])
    assert len({i for i, _ in long}) < len(long)  # the maximum repeats within a row
    assert len({i for i, _ in short}) > 1  # and across rows
    rows, cols, offsets = args[:3]
    assert got == _python_traceback(M, Ix, Iy, rows, cols, offsets, Scoring(), True)
    for path, cells in zip(got, (long, short)):
        i, b = cells[0]  # nonzero lists cells in row-major order
        assert path[2] == (i, offsets[i] + b)


def test_native_global_fill_keeps_cells_below_neg(native):
    """A global-mode band with row 0 left unreachable holds M cells whose three
    predecessors all lie below _NEG; flooring global mode at _NEG would change them."""
    rows, cb = encode_bases("ACGTTGCA"), encode_bases("TTGCAACGTA")
    cols = align._global_columns(cb)
    width = 5
    offsets = np.clip(np.arange(len(rows) + 1, dtype=np.int64) - 2, 0, cols.shape[1] - width)
    shape, args = (len(rows) + 1, 1, width), (Scoring().table, -6, -1, False)
    M, Ix, Iy = (np.full(shape, align._NEG, dtype=np.int32) for _ in range(3))
    align._fill_rows_numpy(rows, cols, offsets.tolist(), *args, M, Ix, Iy)
    native_fill = [np.full(shape, align._NEG, dtype=np.int32) for _ in range(3)]
    with pytest.raises(ValueError):  # the traceback, after the fill, finds no start
        native.band_align(rows, cols, offsets, *args, *native_fill)
    below = [
        (i, s)
        for i in range(1, len(rows) + 1)
        for s in range(width)
        if 0 <= (p := s - 1 + int(offsets[i] != offsets[i - 1])) < width
        and max(M[i - 1, 0, p], Ix[i - 1, 0, p], Iy[i - 1, 0, p]) < align._NEG
    ]
    assert below
    for got, want in zip(native_fill, (M, Ix, Iy)):
        assert np.array_equal(got, want)


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

    def results():
        return (
            global_align(db.records[0], query),
            search(query, build_index(db, 11)),
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
    for name in ("_fill_rows_numpy", "_band_traceback_python"):
        original = getattr(align, name)
        monkeypatch.setattr(
            align, name, lambda *a, name=name, fn=original, **kw: ran.append(name) or fn(*a, **kw)
        )
    monkeypatch.setattr(_native, "load", lambda: _native._load(cache))
    assert results() == expected
    assert set(ran) == {"_fill_rows_numpy", "_band_traceback_python"}


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

    kernel._align = not_reached
    return kernel


def _kernel_args(m=6, n=9, width=4, g=2):
    """`Kernel.band_align` arguments for g random bands: rows, cols, offsets,
    table, oe, e, local, M, Ix, Iy."""
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 5, m).astype(np.uint8)
    cols = rng.integers(0, 6, (g, n)).astype(np.uint8)
    offsets = np.clip(np.arange(-1, m, dtype=np.int64), 0, n - width)
    table = Scoring().table
    arrays = [np.zeros((m + 1, g, width), dtype=np.int32) for _ in range(3)]
    return [rows, cols, offsets, table, -6, -1, False, *arrays]


@pytest.mark.parametrize(
    "index,bad",
    [
        (0, lambda a: a.astype(np.int64)),  # rows dtype
        (1, lambda a: np.asfortranarray(a)),  # cols not C-contiguous
        (1, lambda a: a[:, :-1]),  # cols a strided view
        (2, lambda a: a.astype(np.int32)),  # offsets dtype
        (2, lambda a: a[:-1]),  # offsets one short
        (2, lambda a: a + 6),  # a row window past the columns
        (2, lambda a: a - 2),  # a row window before column 0
        (0, lambda a: np.where(a == a[0], 5, a).astype(np.uint8)),  # row code 5
        (1, lambda a: np.where(a == a[0, 0], 6, a).astype(np.uint8)),  # column code 6
        (7, lambda a: a[:-1]),  # M one row short
        (8, lambda a: a.astype(np.int64)),  # Ix dtype
        (9, lambda a: a[:, ::-1]),  # Iy with negative strides
    ],
)
def test_fill_refuses_bad_arrays_before_calling_c(guarded, index, bad):
    """The arrays the fill reads and writes, indexed as `_kernel_args` orders them."""
    args = _kernel_args()
    args[index] = bad(args[index])
    with pytest.raises(ValueError):
        guarded.band_align(*args)


@pytest.mark.parametrize(
    "index,bad",
    [
        (0, lambda a: a.astype(np.int64)),  # M dtype
        (1, lambda a: np.asfortranarray(a)),  # Ix not C-contiguous
        (2, lambda a: a[:, :, :-1]),  # Iy narrower than M
        (3, lambda a: a.astype(np.int32)),  # rows dtype
        (3, lambda a: np.where(a == a[0], 6, a).astype(np.uint8)),  # row code 6
        (4, lambda a: np.where(a == a[0, 1], 6, a).astype(np.uint8)),  # column code 6
        (4, lambda a: np.concatenate([a, a])),  # cols a band more than M holds
        (5, lambda a: a.tolist()),  # offsets a list
        (5, lambda a: a[:-1]),  # offsets one short
    ],
)
def test_traceback_refuses_bad_arrays_before_calling_c(guarded, index, bad):
    """The arrays the traceback walks, indexed as M, Ix, Iy, rows, cols, offsets."""
    rows, cols, offsets, table, oe, e, local, M, Ix, Iy = _kernel_args()
    checked = [M, Ix, Iy, rows, cols, offsets]
    checked[index] = bad(checked[index])
    M, Ix, Iy, rows, cols, offsets = checked
    with pytest.raises(ValueError):
        guarded.band_align(rows, cols, offsets, table, oe, e, local, M, Ix, Iy)


def test_traceback_with_no_predecessor_raises(native):
    a, b = DnaSequence("a", "", "ACGTTGCAAC"), DnaSequence("b", "", "ACGTGCAACG")
    [(args, kwargs)] = _recorded(global_align, a, b, Scoring())
    top_m, top_x, top_y = args[5]
    top_y = top_y.copy()
    top_y[:, 2:] += 1000  # Iy of row 0 is no longer oe + e*k: slot 2 does not follow slot 1
    bad = (*args[:5], (top_m, top_x, top_y))
    with pytest.raises(ValueError):
        align._band_align(*bad)
    with pytest.raises(ValueError):
        _numpy(align._band_align, *bad)


def test_traceback_never_writes_past_its_capacity(native):
    query = "ACGTTGCAACGT"
    far = 10 * len(query)  # a diagonal whose band holds no subject base: no path
    g, cap, guard = 3, 4, 16  # the path is 12 columns long
    for band in range(g):
        bands = [(query, 0 if k == band else far) for k in range(g)]
        [(args, _)] = _recorded(banded_local_align, query, bands, 2, Scoring())
        rows, cols, offsets, width, scoring = args
        ncols = cols.shape[1]
        M, Ix, Iy = (np.full((len(rows) + 1, g, width), align._NEG, dtype=np.int32) for _ in "MXY")
        profile = np.empty((5, g, ncols), dtype=np.int32)
        out_r = np.full(g * cap + guard, 0xAB, dtype=np.uint8)
        out_c = np.full(g * cap + guard, 0xAB, dtype=np.uint8)
        ends = np.zeros((g, 6), dtype=np.int64)
        status = native._align(
            rows.ctypes.data, len(rows), cols.ctypes.data, g, ncols, offsets.ctypes.data, width,
            scoring.table.ctypes.data, -6, -1, True, M.ctypes.data, Ix.ctypes.data,
            Iy.ctypes.data, profile.ctypes.data, cap, out_r.ctypes.data, out_c.ctypes.data,
            ends.ctypes.data,
        )
        assert status == -1
        row = slice(band * cap, (band + 1) * cap)
        for out in (out_r, out_c):
            assert (out[row] != 0xAB).any()  # the band wrote its own row
            out[row] = 0xAB
            assert (out == 0xAB).all()  # and nothing before it or after it


# --- packaging ------------------------------------------------------------------


def test_kernel_source_ships_with_the_package():
    assert (importlib.resources.files("mutascan") / "_band.c").is_file()
