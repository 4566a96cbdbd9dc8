"""The compiled banded kernel: `_band.c`, built on first use with the system `cc`.

`load` compiles the C file with `cc -O3 -fwrapv -shared -fPIC` into a
per-user cache directory, `$XDG_CACHE_HOME/mutascan` or else
`~/.cache/mutascan`, and loads it with ctypes. The library's name holds the
SHA-256 of the source, the compiler command and the platform, so a warm
start spawns no process and a change of flags builds a new library.
A cache directory that another user owns, or that others may write to, is
not used: the library is then built into a private temp directory for the
process. With no compiler, a failed build or a failed load, `load` returns
None and `align` runs its numpy fill and Python traceback instead.

ctypes checks no bounds, so `Kernel` checks every array before its one C
call, which fills and traces all G bands at once: dtype, C order, shape,
codes and row windows.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import shutil
import stat
import subprocess
import sysconfig
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

_CC = ("cc", "-O3", "-fwrapv", "-shared", "-fPIC")
_BUILD_TIMEOUT_S = 120
# the C table: row codes A C G T N, column codes those and align.OUTSIDE_CODE
_TABLE_SHAPE = (5, 6)

_ptr, _i64, _i32 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_int32


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
    """Compile `source` into `lib` whole or not at all, as `seqio.write_text_atomic` writes.

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


def _check_bands(rows, cols, offsets, table, M, Ix, Iy) -> tuple[int, int, int, int]:
    """Refuse bands the C code would misread; return (m, G, ncols, width)."""
    m = len(rows)
    g, ncols = cols.shape if cols.ndim == 2 else (0, 0)
    width = M.shape[-1] if M.ndim == 3 else 0
    _check("rows", rows, np.uint8, (m,))
    _check("cols", cols, np.uint8, (g, ncols))
    _check("offsets", offsets, np.int64, (m + 1,))
    _check("table", table, np.int32, _TABLE_SHAPE)
    for name, a in (("M", M), ("Ix", Ix), ("Iy", Iy)):
        _check(name, a, np.int32, (m + 1, g, width))
    if width < 1:
        raise ValueError("a band needs at least one slot a row")
    if rows.size and int(rows.max()) >= _TABLE_SHAPE[0]:
        raise ValueError(f"row code {int(rows.max())} above {_TABLE_SHAPE[0] - 1}")
    if cols.size and int(cols.max()) >= _TABLE_SHAPE[1]:
        raise ValueError(f"column code {int(cols.max())} above {_TABLE_SHAPE[1] - 1}")
    if m and (int(offsets[1:].min()) < 0 or int(offsets[1:].max()) > ncols - width):
        raise ValueError(f"a row window of {width} slots leaves the {ncols} columns")
    return m, g, ncols, width


class Kernel:
    """The loaded library: `band_align` checks its arrays once, then makes one C call."""

    def __init__(self, path: Path):
        self.path = path
        self._align = ctypes.CDLL(str(path)).band_align
        self._align.argtypes = [
            _ptr, _i64, _ptr, _i64, _i64, _ptr, _i64, _ptr, _i32, _i32, _i32, _ptr, _ptr, _ptr,
            _ptr, _i64, _ptr, _ptr, _ptr,
        ]
        self._align.restype = _i64

    def band_align(self, rows, cols, offsets, table, oe: int, e: int, local: bool, M, Ix, Iy):
        """`align._fill_rows_numpy`, then `align._band_traceback_python` for each band, in C.

        Fills rows 1.. of M, Ix and Iy in place and returns one path a band:
        None when local and no cell scores above 0, else (score, start (row,
        column), end (row, column), row codes, column codes), the codes as
        bytes, last first. Raises ValueError where the Python traceback would
        fail: a cell on a path has no predecessor.
        """
        m, g, ncols, width = _check_bands(rows, cols, offsets, table, M, Ix, Iy)
        profile = np.empty((_TABLE_SHAPE[0], g, ncols), dtype=np.int32)  # the C code's scratch
        cap = m + ncols  # each step consumes a row, a column or both
        out_r = np.empty((g, cap), dtype=np.uint8)
        out_c = np.empty((g, cap), dtype=np.uint8)
        ends = np.empty((g, 6), dtype=np.int64)  # score, start row, slot, end row, slot, length
        failed = self._align(
            rows.ctypes.data, m, cols.ctypes.data, g, ncols, offsets.ctypes.data, width,
            table.ctypes.data, oe, e, local, M.ctypes.data, Ix.ctypes.data, Iy.ctypes.data,
            profile.ctypes.data, cap, out_r.ctypes.data, out_c.ctypes.data, ends.ctypes.data,
        )
        if failed:
            raise ValueError("native traceback found no predecessor for a cell on the path")
        paths = []
        for (score, i0, b0, i1, b1, n), r, c in zip(ends.tolist(), out_r, out_c):
            paths.append(None if n == 0 else (
                score, (i0, offsets.item(i0) + b0), (i1, offsets.item(i1) + b1),
                r[:n].tobytes(), c[:n].tobytes(),
            ))
        return paths
