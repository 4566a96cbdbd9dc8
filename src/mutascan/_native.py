"""The compiled kernels: `_band.c`, built on first use with the system `cc`.

The one library exports three functions. `band_align` fills and traces
banded alignments, in place of `align._band_align_numpy`; `seed_diagonals`
lists the diagonals a query's k-mer seeds fall on, in place of
`homology._seed_diagonals_numpy`; `train_epochs` runs gradient-descent
epochs, in place of `neural._train_numpy`, with the same bits.

`load` compiles the C file with `cc -O3 -fwrapv -ffp-contract=off -shared
-fPIC` into a per-user cache directory, `$XDG_CACHE_HOME/mutascan` or else
`~/.cache/mutascan`, and loads it with ctypes. The library's name holds the
SHA-256 of the source, the compiler command and the platform, so a warm
start spawns no process and a change of flags builds a new library.
A cache directory that another user owns, or that others may write to, is
not used: the library is then built into a private temp directory for the
process. With no compiler, a failed build or a failed load, `load` returns
None, and `align`, `homology` and `neural` run their numpy versions instead.

ctypes checks no bounds, so each `Kernel` method checks every argument
before it calls C: dtype, C order, shape, codes, row windows, k and layer
sizes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import itertools
import os
import shutil
import stat
import subprocess
import sysconfig
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

# -ffp-contract=off: a * b + c stays two roundings, so training's bits do not depend on FMA
_CC = ("cc", "-O3", "-fwrapv", "-ffp-contract=off", "-shared", "-fPIC")
_BUILD_TIMEOUT_S = 120
# the C table: row codes A C G T N, column codes those and align.OUTSIDE_CODE
_TABLE_SHAPE = (5, 6)
# homology.MIN_K and MAX_K: a k-mer's 2-bit code fills at most a uint64
_K_RANGE = (4, 32)
# training's samples per vector (LANES in the C code): the sample stride is a multiple
_LANES = 2

_ptr, _i64, _i32, _f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_int32, ctypes.c_double


@functools.cache
def load() -> Kernel | None:
    """The kernel, built or taken from the cache on the first call; None if it cannot run."""
    return _load(_cache_dir())


def _cache_dir() -> Path | None:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # the XDG spec ignores a relative path
        try:
            base = Path.home() / ".cache"
        except RuntimeError:  # no home directory
            return None
    return Path(base) / "mutascan"


def _load(cache: Path | None) -> Kernel | None:
    """Load the kernel from `cache`, building it there first if need be.

    When `cache` is None or not private to this user, the library is built
    into a temp directory that is removed once it is loaded.
    """
    if os.name != "posix":
        return None
    try:
        source = resources.files(__package__).joinpath("_band.c").read_bytes()
        name = _library_name(source)
        if cache is not None and _private_dir(cache):
            if not (cache / name).is_file():
                _build(source, cache / name)
            return Kernel(cache / name)
        tmp = Path(tempfile.mkdtemp(prefix="mutascan-"))
        try:
            _build(source, tmp / name)
            return Kernel(tmp / name)  # a loaded library outlives its file
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    except (OSError, AttributeError, subprocess.SubprocessError):
        # OSError: no source or no cc, a failed write or load; AttributeError: a missing symbol
        return None


def _library_name(source: bytes) -> str:
    """The cache file name: a hash of the source, the compiler command and the platform."""
    build = "\0".join(("", *_CC, sysconfig.get_platform())).encode()
    return f"_band-{hashlib.sha256(source + build).hexdigest()[:16]}.so"


def _private_dir(path: Path) -> bool:
    """Make `path` (mode 0700) if absent; True if this user owns it and only they may write."""
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.stat()
    except OSError:
        return False
    return (
        stat.S_ISDIR(st.st_mode)
        and st.st_uid == os.getuid()
        and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    )


def _build(source: bytes, lib: Path) -> None:
    """Compile `source` into `lib` whole or not at all, as `seqio.write_texts_atomic` writes.

    The temp file's name is unique, so builds racing in other processes or
    threads never write the same file; the last rename wins.
    """
    fd, name = tempfile.mkstemp(prefix=f".{lib.name}.", suffix=".tmp", dir=lib.parent)
    os.close(fd)
    tmp = Path(name)
    try:
        subprocess.run(
            [*_CC, "-o", str(tmp), "-x", "c", "-"],
            input=source,
            capture_output=True,
            check=True,
            timeout=_BUILD_TIMEOUT_S,
        )
        os.replace(tmp, lib)
    finally:
        with contextlib.suppress(OSError):  # absent after the rename or a failed build
            tmp.unlink()


def _check(name: str, a: np.ndarray, dtype, shape: tuple) -> None:
    """Refuse an array the C code would misread: dtype, shape and C order."""
    if not isinstance(a, np.ndarray) or a.dtype != dtype:
        raise ValueError(f"{name} must be a {np.dtype(dtype)} array")
    if a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
    if not a.flags.c_contiguous:
        raise ValueError(f"{name} must be C-contiguous")


def _check_bands(rows, cols, offsets, table, cells) -> tuple[int, int, int, int]:
    """Refuse bands the C code would misread; return (m, G, ncols, width)."""
    m = len(rows)
    g, ncols = cols.shape if cols.ndim == 2 else (0, 0)
    width = cells.shape[-1] if cells.ndim == 4 else 0
    _check("rows", rows, np.uint8, (m,))
    _check("cols", cols, np.uint8, (g, ncols))
    _check("offsets", offsets, np.int64, (m + 1,))
    _check("table", table, np.int32, _TABLE_SHAPE)
    _check("cells", cells, np.int32, (3, m + 1, g, width))
    if width < 1:
        raise ValueError("a band needs at least one slot a row")
    if rows.size and int(rows.max()) >= _TABLE_SHAPE[0]:
        raise ValueError(f"row code {int(rows.max())} above {_TABLE_SHAPE[0] - 1}")
    if cols.size and int(cols.max()) >= _TABLE_SHAPE[1]:
        raise ValueError(f"column code {int(cols.max())} above {_TABLE_SHAPE[1] - 1}")
    if m and (int(offsets[1:].min()) < 0 or int(offsets[1:].max()) > ncols - width):
        raise ValueError(f"a row window of {width} slots leaves the {ncols} columns")
    return m, g, ncols, width


def _check_seeds(query, k, codes, subject_idx, offsets) -> None:
    """Refuse a query or index the C code would misread."""
    _check("query", query, np.uint8, (np.size(query),))
    if query.size and int(query.max()) > 4:
        raise ValueError(f"base code {int(query.max())} above 4")
    if type(k) is not int or not _K_RANGE[0] <= k <= _K_RANGE[1]:
        raise ValueError(f"k must be an int from {_K_RANGE[0]} to {_K_RANGE[1]}, not {k!r}")
    windows = (np.size(codes),)
    _check("codes", codes, np.uint64, windows)
    _check("subject_idx", subject_idx, np.int64, windows)
    _check("offsets", offsets, np.int64, windows)


def param_count(sizes) -> int:
    """The length of the flat W0, b0, W1, b1, ... buffer for these layer sizes."""
    return sum((n_in + 1) * n_out for n_in, n_out in zip(sizes, sizes[1:]))


def _check_training(sizes, inputs, targets, params, vel, history) -> tuple[int, int]:
    """Refuse a network or dataset the C code would misread; return (S, P)."""
    if (
        not isinstance(sizes, tuple)
        or len(sizes) < 2
        or any(type(n) is not int or n < 1 for n in sizes)  # bool is an int
    ):
        raise ValueError(f"layer sizes must be a tuple of two or more positive ints, not {sizes!r}")
    samples = inputs.shape[0] if isinstance(inputs, np.ndarray) and inputs.ndim == 2 else 0
    if samples == 0:
        raise ValueError("training needs inputs of shape (samples >= 1, input size)")
    count = param_count(sizes)
    _check("inputs", inputs, np.float64, (samples, sizes[0]))
    _check("targets", targets, np.float64, (samples, sizes[-1]))
    _check("params", params, np.float64, (count,))
    _check("vel", vel, np.float64, (count,))
    _check("history", history, np.float64, (np.size(history),))
    arrays = (inputs, targets, params, vel, history)
    if any(np.may_share_memory(a, b) for a, b in itertools.combinations(arrays, 2)):
        raise ValueError("inputs, targets, params, vel and history must not overlap")
    return samples, count


class Kernel:
    """The loaded library: each method checks its arguments once, then calls C."""

    def __init__(self, path: Path):
        self.path = path
        library = ctypes.CDLL(str(path))
        self._align = library.band_align
        self._align.argtypes = [
            _ptr, _i64, _ptr, _i64, _i64, _ptr, _i64, _ptr, _i32, _i32, _i32, _ptr, _ptr, _i64,
            _ptr, _ptr,
        ]
        self._align.restype = _i64
        self._seed = library.seed_diagonals
        self._seed.argtypes = [_ptr, _i64, _i64, _ptr, _ptr, _ptr, _i64, _i64, _ptr, _ptr]
        self._seed.restype = _i64
        self._train = library.train_epochs
        self._train.argtypes = [
            _ptr, _i64, _ptr, _ptr, _i64, _i64, _f64, _f64, _f64, _i64, _ptr, _ptr, _ptr, _ptr,
            _ptr, _ptr,
        ]
        self._train.restype = _i64

    def train(
        self, sizes: tuple, inputs, targets, learning_rate: float, momentum: float,
        target_mse: float, params, vel, history,
    ) -> int:
        """`neural._train_numpy` in C: the same arguments, and the same bits in
        `params`, `vel`, `history` and the returned epoch count.

        `sizes` is the layer sizes, `inputs` (S, sizes[0]) and `targets`
        (S, sizes[-1]) float64, `params` and `vel` the flat W0, b0, W1, b1, ...
        buffers, which each epoch updates in place. Runs at most `len(history)`
        epochs, writing each epoch's MSE to `history`, and stops after the
        first at or below `target_mse` or not finite; returns the number run.
        """
        samples, count = _check_training(sizes, inputs, targets, params, vel, history)
        layer_sizes = np.asarray(sizes, dtype=np.int64)
        # the C code's scratch: feature-major inputs and targets, one row of `stride`
        # samples a unit, zero-padded to whole vectors; gradients; and each non-input
        # layer's activations and deltas in the same layout
        stride = -(-samples // _LANES) * _LANES
        x = np.zeros((sizes[0], stride))
        x[:, :samples] = inputs.T
        t = np.zeros((sizes[-1], stride))
        t[:, :samples] = targets.T
        grads = np.empty(count)
        acts = np.empty(stride * sum(sizes[1:]))
        delta = np.empty(2 * stride * max(sizes[1:]))
        return self._train(
            layer_sizes.ctypes.data, len(sizes), x.ctypes.data, t.ctypes.data, samples, stride,
            learning_rate, momentum, target_mse, len(history), params.ctypes.data,
            vel.ctypes.data, grads.ctypes.data, acts.ctypes.data, delta.ctypes.data,
            history.ctypes.data,
        )

    def seed_diagonals(self, query, k: int, codes, subject_idx, offsets) -> list:
        """`homology._seed_diagonals_numpy` in C: the same arguments, the query's
        base codes and a `KmerIndex`'s k, codes, subject_idx and offsets, and the
        same ascending list of seeded (subject, diagonal) pairs.

        One C call finds, sorts and dedupes the seeds in a buffer sized for
        two seeds a query window plus 64. A query with more seeds, as in
        repeats, makes that call count them only, and a second call seeds
        into a buffer that holds them all. Raises ValueError when a seed's
        subject is negative or its (subject, diagonal) key would not fit an
        int64: that range depends on the seeds found, so the C call checks
        it after collecting them and before it forms a key.
        """
        _check_seeds(query, k, codes, subject_idx, offsets)
        n, w = len(query), len(codes)
        total = np.zeros(1, dtype=np.int64)
        cap = 2 * max(n - k + 1, 0) + 64
        while True:
            work = np.empty((2, cap), dtype=np.int64)
            groups = self._seed(
                query.ctypes.data, n, k, codes.ctypes.data, subject_idx.ctypes.data,
                offsets.ctypes.data, w, cap, work.ctypes.data, total.ctypes.data,
            )
            if total.item() <= cap:
                break
            cap = total.item()
        if groups < 0:
            raise ValueError("a seed's (subject, diagonal) key does not fit an int64")
        return list(zip(*work[:, :groups].tolist()))

    def band_align(self, rows, cols, offsets, table, oe: int, e: int, local: bool, cells):
        """`align._band_align_numpy` in C: the same arguments, fill and paths.

        Raises ValueError where the Python traceback would fail: a cell on a
        path has no predecessor.
        """
        m, g, ncols, width = _check_bands(rows, cols, offsets, table, cells)
        profile = np.empty((_TABLE_SHAPE[0], g, ncols), dtype=np.int32)  # the C code's scratch
        cap = m + ncols  # each step consumes a row, a column or both
        out = np.empty((g, 2, cap), dtype=np.uint8)  # each band's row codes, then column codes
        ends = np.empty((g, 6), dtype=np.int64)  # score, start row, column, end row, column, length
        failed = self._align(
            rows.ctypes.data, m, cols.ctypes.data, g, ncols, offsets.ctypes.data, width,
            table.ctypes.data, oe, e, local, cells.ctypes.data, profile.ctypes.data, cap,
            out.ctypes.data, ends.ctypes.data,
        )
        if failed:
            raise ValueError("native traceback found no predecessor for a cell on the path")
        return [
            None if n == 0 else (score, (i0, x0), (i1, x1), r[:n].tobytes(), c[:n].tobytes())
            for (score, i0, x0, i1, x1, n), r, c in zip(ends.tolist(), out[:, 0], out[:, 1])
        ]
