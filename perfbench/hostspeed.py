"""Host-speed reference: a fixed numpy kernel timed next to the program.

The benchmark runs on shared virtual machines whose speed drifts: the same
command can take 30-50% longer a few minutes later with no change to the
code, and the drift shows in CPU time as well as in wall time, so it is
not the scheduler. A run therefore times a fixed reference kernel while
it measures: before and after each set-up and each command, and, inside a
command, after any timed call that ends EVERY_S or more after the last
sample. Every timing metric is then expressed in
reference time: a measured interval is divided by the reference's time
around it (the median of the WINDOW samples nearest to it) and multiplied
by REF_S. The result reads as the time on a host where the kernel takes
REF_S, about its time on an idle 2-vCPU Xeon VM.

The kernel does what the program's own numpy code does most, on fixed
arrays from a fixed seed: a strided window argmax as in maxpool, an
im2col-style unfold, a scatter-add as in maxpool backward, an elementwise
ReLU, and float32 GEMMs of a conv layer's shape. The GEMMs run on as many
BLAS threads as were live when the HostSpeed was made, before hccr was
imported, so that a program which sets its own thread count does not move
the reference. (With a numpy that does not bundle OpenBLAS they run on the
live count.) Samples are excluded from every interval they fall in.
"""

import bisect
import ctypes
import statistics
import time
from pathlib import Path

import numpy as np

REF_S = 0.015       # the reference kernel's time that normalised times assume
EVERY_S = 0.3       # longest gap between samples inside a timed command
WINDOW = 5          # samples in each local median


def openblas():
    """numpy's bundled OpenBLAS as a ctypes library, or None."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas64_*.so"))
    if not libs:
        return None
    lib = ctypes.CDLL(str(libs[0]))
    lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
    return lib


class HostSpeed:
    """Reference-kernel samples of one run, as (start, end) perf_counter pairs."""

    def __init__(self):
        self._blas = openblas()
        self._threads = self._blas_threads()
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((784, 576), dtype=np.float32)
        self._b = rng.standard_normal((576, 64), dtype=np.float32)
        self._x = rng.standard_normal((8, 32, 28, 28), dtype=np.float32)
        self._g = rng.standard_normal((8, 32, 13, 13), dtype=np.float32)
        self._at = (np.arange(8)[:, None, None, None],
                    np.arange(32)[None, :, None, None],
                    rng.integers(0, 28 * 28, size=(8, 32, 13, 13)))
        self.samples = []
        self._kernel()                  # first touch, not recorded

    def _blas_threads(self):
        return self._blas and self._blas.scipy_openblas_get_num_threads64_()

    def _kernel(self):
        live = self._blas_threads()
        if live != self._threads:
            self._blas.scipy_openblas_set_num_threads64_(self._threads)
        for _ in range(4):
            self._a @ self._b
        if live != self._threads:
            self._blas.scipy_openblas_set_num_threads64_(live)
        x = self._x
        view = np.lib.stride_tricks.sliding_window_view(x, (3, 3), axis=(2, 3))
        view[:, :, ::2, ::2].reshape(8, 32, 13, 13, 9).argmax(axis=4)
        np.ascontiguousarray(view)
        scatter = np.zeros((8, 32, 28 * 28), dtype=np.float32)
        np.add.at(scatter, self._at, self._g)
        np.maximum(x, 0) * (x > 0)

    def sample(self, count=1):
        for _ in range(count):
            start = time.perf_counter()
            self._kernel()
            self.samples.append((start, time.perf_counter()))

    def due(self):
        """Take a sample if the last one ended EVERY_S or more ago."""
        if time.perf_counter() - self.samples[-1][1] >= EVERY_S:
            self.sample()

    def reference_s(self, t):
        """Median kernel time of the WINDOW samples nearest to time t."""
        i = bisect.bisect_left(self.samples, (t,))
        lo = max(0, min(i - WINDOW // 2, len(self.samples) - WINDOW))
        return statistics.median(end - start for start, end
                                 in self.samples[lo:lo + WINDOW])

    def normalise(self, start, end):
        """Reference time of [start, end], minus the samples inside it.

        Returns (measured seconds, normalised seconds), both without the
        samples' own time. Each stretch between two samples is normalised
        by the reference around its midpoint.
        """
        measured = normalised = 0.0
        cursor = start
        inside = [s for s in self.samples if start <= s[0] and s[1] <= end]
        for a, b in [*inside, (end, end)]:
            if a > cursor:
                measured += a - cursor
                normalised += (a - cursor) * REF_S / self.reference_s(
                    (a + cursor) / 2)
            cursor = max(cursor, b)
        return measured, normalised

    def speed(self):
        """REF_S over the run's median kernel time: above 1 is a fast host."""
        return REF_S / statistics.median(b - a for a, b in self.samples)
