"""Host speed, sampled while the program runs, to scale timings by.

The benchmark's host is a few cores of a shared machine, and its speed
for pure-Python code swings by a factor of up to 1.6 in phases of seconds
to minutes, as other tenants load the same cores.  A timing in plain
seconds then moves with the neighbours more than with the program.

``Sampler`` runs a fixed pure-Python kernel (tuple hashing and dict
lookups over a working set of megabytes, as in halolab's searches) every
``INTERVAL_S`` seconds from a ``SIGALRM`` handler, so the host's speed is
known at every moment of a run, also in the middle of a call that lasts
seconds.  A program call's scaled time is
its wall time times ``REF_KERNEL_S`` over the mean kernel time sampled
during the call (and one interval either side): the time the call would
take on a host that runs the kernel in ``REF_KERNEL_S``.  The kernel does
not touch halolab, so a faster program reads faster by the same share.
The handler's own time is counted in ``stolen`` and kept out of every
program call's time.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.025
REF_KERNEL_S = 0.0005   # the kernel's time on an idle core of the reference host


# 100,000 tuple keys, about 18 MiB with the dict: the kernel looks them up in
# a scattered order, so it meets the cache and memory contention that
# halolab's dict- and tuple-heavy searches meet.  Against rounds run next
# to other benchmark processes, such a kernel tracked the rounds' times
# more closely than one on a small dict.
_TABLE = {(i * 7919 % 1000003, i & 255): i for i in range(100_000)}
_KEYS = list(_TABLE)


def kernel() -> int:
    total, j = 0, 1
    for _ in range(2000):
        j = (j * 1103515245 + 12345) % 100_000
        total += _TABLE[_KEYS[j]]
    return total


class Sampler:
    def __init__(self):
        self.times = []     # perf_counter at each sample
        self.kernel_s = []  # kernel time of each sample
        self.stolen = 0.0   # seconds spent in the handler
        self._busy = False

    def _tick(self, _signum, _frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.kernel_s.append(t1 - t0)
        self.stolen += time.perf_counter() - t0
        self._busy = False

    def start(self):
        """Take a first sample now, then one every INTERVAL_S seconds."""
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> float:
        """REF_KERNEL_S over the mean kernel time sampled around [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0 - INTERVAL_S)
        hi = bisect.bisect_right(self.times, t1 + INTERVAL_S)
        window = self.kernel_s[lo:hi] or self.kernel_s
        return REF_KERNEL_S / statistics.fmean(window)
