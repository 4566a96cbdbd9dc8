"""A clock that reads seconds at one fixed machine speed.

On a shared virtual machine the host's load changes how fast the same code
runs: on a 2-vCPU VM this kernel flipped between two speeds about 1.8x
apart within fractions of a second, and CPU time rose with wall time, so
no per-process clock filters it out. `SpeedClock` therefore runs a small fixed
kernel from a SIGALRM handler every PROBE_INTERVAL_S, in the benchmark's
own process and thread, and times it. Each wall second between two probes
counts as `REFERENCE_KERNEL_S / kernel time` seconds, using the mean kernel
time of the two probes around it; the probes' own time counts as nothing.
A duration on this clock is what the same work would take on a machine on
which the kernel takes REFERENCE_KERNEL_S.

The kernel is the benchmark's own code and never changes with the program,
so a faster or slower program moves a duration on this clock by the same
share as its wall time. It does the kinds of work a diagnosis and training
do: an antidiagonal fill with numpy fancy indexing, small dense matrix
products and a pure-Python K-mer dictionary.
"""

from __future__ import annotations

import bisect
import random
import signal
import time

import numpy as np

# About the kernel's median time on a shared 2-vCPU VM, numpy on one thread.
REFERENCE_KERNEL_S = 0.002
PROBE_INTERVAL_S = 0.04

_rng = random.Random(0)
_A = np.array([_rng.randrange(4) for _ in range(24)], dtype=np.int64)
_B = np.array([_rng.randrange(4) for _ in range(24)], dtype=np.int64)
_SUB = np.where(np.eye(4, dtype=bool), 5, -4).astype(np.int32)
_X = np.array([[_rng.random() for _ in range(10)] for _ in range(9)])
_W1 = np.array([[_rng.uniform(-1, 1) for _ in range(10)] for _ in range(4)])
_W2 = np.array([[_rng.uniform(-1, 1) for _ in range(4)]])
_TEXT = "".join(_rng.choice("ACGT") for _ in range(300))


def kernel() -> int:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    m, n = len(_A), len(_B)
    h = np.zeros((m + 1, n + 1), dtype=np.int32)
    for k in range(2, m + n + 1):
        ii = np.arange(max(1, k - n), min(m, k - 1) + 1)
        jj = k - ii
        best = np.maximum(h[ii - 1, jj - 1] + _SUB[_A[ii - 1], _B[jj - 1]], h[ii - 1, jj] - 3)
        h[ii, jj] = np.maximum(best, h[ii, jj - 1] - 3)
    w1, w2 = _W1.copy(), _W2.copy()
    for _ in range(15):
        a1 = 1.0 / (1.0 + np.exp(-(_X @ w1.T)))
        a2 = 1.0 / (1.0 + np.exp(-(a1 @ w2.T)))
        delta = (a2 - 0.5) * a2 * (1.0 - a2)
        w2 = w2 - 0.1 * (delta.T @ a1)
        w1 = w1 - 0.1 * (((delta @ w2) * a1 * (1.0 - a1)).T @ _X)
    index: dict[str, list[int]] = {}
    for i in range(len(_TEXT) - 10):
        index.setdefault(_TEXT[i : i + 11], []).append(i)
    return int(h[m, n]) + len(index) + int(w1.sum() > 0)


class SpeedClock:
    """Probes the machine's speed while running; converts wall times afterwards.

    Use as a context manager around everything that is timed, then map
    `time.perf_counter()` readings taken inside it through `seconds`.
    """

    def __init__(self) -> None:
        self.probes: list[tuple[float, float, float]] = []  # (start, end, kernel s)
        self._starts: list[float] = []
        self._at_start: list[float] = []  # clock reading at each probe's start
        self._slopes: list[float] = []  # clock seconds per wall second after each probe
        self._busy = False

    def _probe(self, signum=None, frame=None) -> None:
        if self._busy:  # a late signal must not nest a probe inside another
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.probes.append((start, end, end - start))
        self._busy = False

    def __enter__(self) -> "SpeedClock":
        for _ in range(20):  # warm numpy's and the interpreter's caches
            kernel()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        self.fit()

    def fit(self) -> None:
        """Build the clock from the probes taken."""
        kernels = [k for _, _, k in self.probes]
        self._starts = [s for s, _, _ in self.probes]
        self._slopes = [
            2 * REFERENCE_KERNEL_S / (a + b) for a, b in zip(kernels, kernels[1:] + kernels[-1:])
        ]
        self._at_start = []
        clock = 0.0
        for j, (start, end, _) in enumerate(self.probes):
            if j:
                clock += (start - self.probes[j - 1][1]) * self._slopes[j - 1]
            self._at_start.append(clock)

    def seconds(self, t: float) -> float:
        """Clock reading at wall time `t` (a perf_counter value inside the block)."""
        j = bisect.bisect_right(self._starts, t) - 1
        if j < 0:
            return (t - self._starts[0]) * self._slopes[0]
        start, end, _ = self.probes[j]
        return self._at_start[j] + max(0.0, t - end) * self._slopes[j]

    def duration(self, start: float, end: float) -> float:
        return self.seconds(end) - self.seconds(start)

    def mean_speed(self) -> float:
        """Mean probe-time share of the reference: above 1 means a slow host."""
        return sum(k for _, _, k in self.probes) / len(self.probes) / REFERENCE_KERNEL_S
