"""Host-speed calibration: times in reference seconds.

The machines this benchmark runs on share their cores with other tenants.
On a 2-core test VM the CPU time of one identical ``fig4`` operation
drifted between 0.48 s and 0.87 s within a minute, in phases of 10-20 s, so
medians of raw wall time from runs minutes apart differed by 20-30%.

A fixed kernel, owned by the benchmark and independent of the package, is
timed between the operations: small complex numpy products, an eigenvalue
decomposition and interpreter-level dictionary work, the instruction mix of
the simulator.  Multiplying a measured time by ``REFERENCE_S / kernel time``
gives the time on a host where the kernel takes exactly ``REFERENCE_S``.

The kernel time used for an interval is the mean of the samples taken from
``WINDOW`` interval lengths before it to ``WINDOW`` lengths after it, and
always of the last sample before it and the first after it.  Short
operations are thus corrected by the samples that bracket them; an
operation of a second or more, during which the speed also changes and no
sample can be taken, by several samples around it.  On that test VM this
cut the drift of 15-second medians of ``fig4`` and ``cli-mix`` operations
from about ±25% to about ±3%, and it halved the run-to-run spread of the
slowest ``validate`` operation compared with bracketing samples alone.

The correction assumes the program does its work on the calling thread
between samples; a program that left threads running would slow the
kernel and have its own cost partly divided out.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: Kernel time of the reference host.
REFERENCE_S = 1e-3
#: Kernel loop count; about 1 ms on a 2.1 GHz x86-64 core.
ITERATIONS = 64
#: Kernel runs per sample; the sample is the fastest, which discards runs
#: that an interrupt or a descheduling happened to hit.
REPEATS = 5
#: How far, in lengths of the measured interval, samples around it count.
WINDOW = 2.0


class HostSpeed:
    """Samples how fast the host currently runs the calibration kernel.

    numpy is imported on construction, so create this only after the
    set-up time (which includes importing numpy) has been taken.
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._a = (np.arange(16).reshape(4, 4) + 1j * np.eye(4)) / 10
        self._h = self._a + self._a.conj().T
        self.times: list[float] = []  # when each sample was taken
        self.samples: list[float] = []  # kernel seconds

    def _kernel(self) -> float:
        np, a, h = self._np, self._a, self._h
        acc = 0.0
        table = {}
        for _ in range(ITERATIONS):
            acc += float(np.einsum("ij,kj->ik", a @ a, a.conj()).real[0, 0])
            acc += float(np.linalg.eigvalsh(h)[0])
            for j in range(20):
                table[j] = acc * j
        return acc

    def sample(self) -> float:
        """Take a sample now; return the kernel seconds."""
        at = time.perf_counter()
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        self.times.append(at)
        self.samples.append(min(times))
        return self.samples[-1]

    def scale(self, start: float, end: float) -> float:
        """Factor from measured to reference seconds for ``[start, end]``,
        a ``perf_counter`` interval with samples taken on both sides."""
        span = WINDOW * (end - start)
        lo = bisect.bisect_right(self.times, start - span)
        hi = bisect.bisect_left(self.times, end + span)
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        picked = self.samples[max(0, min(lo, before)):max(hi, after + 1)]
        return REFERENCE_S / statistics.mean(picked)
