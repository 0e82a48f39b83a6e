"""Machine-speed calibration: a fixed numpy kernel timed between ops.

On a shared 2-vCPU VM the same work ran up to 25 % slower for seconds to
minutes at a time, and CPU time slowed with wall time, so the load came from
outside the process.  A fixed kernel made of the same kinds of work as the
workloads (float32 GEMM, transcendental ufuncs, small-slice Python overhead,
real FFTs) slows by much the same factor: over 277 train_c5 ops, a kernel of
this kind sped up and slowed down with the op (r = 0.82 between the two
speeds).  Each end-to-end time is therefore rescaled to the machine speed at
which one kernel run takes ``REF_S``, using the kernel timed just before and
just after it.

The kernel uses numpy only, never sarlab, so a change to the program cannot
move it.
"""

from time import perf_counter

import numpy as np

# A round figure near one kernel run on a quiet 2-vCPU x86-64 VM (numpy 2.4,
# scipy-openblas 0.3.31), where it took 9.5-11.5 ms.  Only a unit: a change
# to it rescales every result alike.
REF_S = 0.010
SHARE = 0.04  # kernel time between ops, as a share of the previous op's time


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((64, 128)).astype(np.float32)
        self._w = rng.standard_normal((128, 512)).astype(np.float32)
        self._x = rng.standard_normal((40, 1024)) * np.hanning(1024)
        self._ones = np.ones(513)

    def _kernel(self):
        t0 = perf_counter()
        for _ in range(20):
            h = self._a @ self._w
            h = np.tanh(h) / (1.0 + np.exp(-h))
            for t in range(16):
                h[:, 8 * t:8 * (t + 1)] += 1.0
            np.abs(np.fft.rfft(self._x, axis=1)) @ self._ones
        return perf_counter() - t0

    def sample(self, after_s=0.0):
        """Median kernel time over runs filling SHARE of `after_s`, at least one."""
        times = [self._kernel()]
        while sum(times) < SHARE * after_s:
            times.append(self._kernel())
        times.sort()
        return times[len(times) // 2]
