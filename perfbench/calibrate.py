"""Reference kernel that tracks the speed of a shared machine.

On a shared host the same work can take a third longer from one minute to
the next, for every program alike, in CPU time as well as in wall time.
While the benchmark runs CLI calls, its main process also runs this fixed
kernel, which does not use adflow, between calls: as often as needed for
one sample per ``INTERVAL_S`` since it started. Like every end-to-end time
of the benchmark, the kernel is timed in CPU time, which leaves out what
the hypervisor steals (see the README). Every timed call of the run (of
this process, or of a stage worker, whose rounds interleave with this
process's) is scaled by ``NOMINAL_S / median kernel time``: the time a
machine would show on which the kernel takes ``NOMINAL_S``. One scale from
many samples follows drift between runs without adding the jitter of
single samples to every call. Raw times, with their start times, and kernel
samples are kept in the result file.

The kernel mixes the kinds of work adflow does: interpreted Python, a
frame-sized float64 GEMM with tanh, a batch of real FFTs, and first touches
of freshly mapped pages. adflow's temporaries are mostly above glibc's mmap
threshold, so each call faults in tens of thousands of fresh pages, and
how fast the host serves those faults varies more than its CPU speed does.
"""

from __future__ import annotations

import mmap
import statistics
from time import perf_counter, process_time

import numpy as np

NOMINAL_S = 0.012
INTERVAL_S = 0.25
_FRESH_BYTES = 4 << 20

_rng = np.random.default_rng(0)
_ROWS = _rng.standard_normal((125, 240))
_W = _rng.standard_normal((240, 128)) / np.sqrt(240)
_FRAMES = _rng.standard_normal((128, 256))


def kernel() -> float:
    acc = 0
    for i in range(40_000):
        acc += i * i
    h = _ROWS
    for _ in range(8):
        h = np.tanh(_ROWS @ _W)
    for _ in range(10):
        spec = np.fft.rfft(_FRAMES, axis=1)
    with mmap.mmap(-1, _FRESH_BYTES) as fresh:
        pages = np.frombuffer(fresh, dtype=np.uint8)
        pages[::mmap.PAGESIZE] = 1
        del pages
    return acc + float(h[0, 0]) + float(spec[0, 0].real)


class Calibration:
    """Kernel timings taken between timed calls of one process."""

    def __init__(self):
        self.samples: list[list[float]] = []   # [start, CPU seconds] per run
        self._start = perf_counter()

    def catch_up(self) -> None:
        """Time the kernel until there is one sample per INTERVAL_S."""
        while len(self.samples) <= (perf_counter() - self._start) / INTERVAL_S:
            t0, c0 = perf_counter(), process_time()
            kernel()
            self.samples.append([t0, process_time() - c0])

    def scaled(self, calls) -> list:
        """Seconds of ``[start, seconds, ...]`` calls, scaled."""
        scale = NOMINAL_S / statistics.median(dt for _, dt in self.samples)
        return [call[1] * scale for call in calls]
