"""Reference-speed timing on a machine whose speed drifts.

On a small shared machine the speed of a core can swing by up to 2x for
seconds to minutes at a time, because of load outside the process (it shows
in CPU time as much as in wall time, so CPU time does not help).  A run's
wall times then measure the neighbours as much as the program.

So the benchmark runs fixed calibration kernels, independent of sbparity,
after every op and scales the run's wall times by how fast the machine ran
them during the run:

    reference time = wall time * sum(REFERENCE_S[k]) / median(kernel time)

The median over the whole run is steadier than scaling each op by the
kernel runs next to it: a single 7 ms kernel run is itself noisy.
``REFERENCE_S`` holds each kernel's time on an idle 2-vCPU Intel
Xeon (KVM) with one BLAS thread, so reference times read as wall times on
that machine when idle.  Contention slows interpreter work, cache-resident
BLAS and memory-bound BLAS by different amounts, so each workload picks the
kernels that match the work its ops do.  Changing a kernel or a constant
changes the unit of every time metric.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REFERENCE_S = {"interp": 0.0033, "gemm": 0.0040, "stream": 0.0035}


class Calibrator:
    def __init__(self, kernels):
        # Buffers are allocated once: allocating in the kernels would change
        # the heap the program sees, and with it the peak RSS.
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((256, 256))
        self._small_out = np.empty_like(self._small)
        if "stream" in kernels:
            self._big = rng.standard_normal((1500, 1500))  # 18 MB, past the caches
            self._vec = rng.standard_normal(1500)
            self._vec_out = np.empty_like(self._vec)
        self._kernels = {name: getattr(self, f"_{name}") for name in kernels}
        self.reference = math.fsum(REFERENCE_S[name] for name in kernels)
        self.history = []

    def _interp(self):
        acc = 0.0
        for k in range(1, 20_000):
            acc += math.log(k) * (k & 7)

    def _gemm(self):
        for _ in range(6):
            np.matmul(self._small, self._small, out=self._small_out)

    def _stream(self):
        for _ in range(3):
            np.matmul(self._big, self._vec, out=self._vec_out)

    def tick(self) -> None:
        """Time one run of the kernels."""
        start = time.perf_counter()
        for kernel in self._kernels.values():
            kernel()
        self.history.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Reference time per wall time, from the kernel runs so far."""
        return self.reference / statistics.median(self.history)
