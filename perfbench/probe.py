"""Host-speed probe: a small fixed kernel sampled on a timer through a run.

The benchmark runs on a shared host whose speed swings by up to 2x from
one second to the next (a pure-Python loop runs at one of two speeds,
about 21 or 40 ms for the same work) and drifts over minutes. A wall time
says as much about the host as about lftk.

While a probe runs, ``SIGALRM`` fires every ``INTERVAL_S`` and its handler
times one call of a fixed kernel: parsing and formatting record lines in
Python, the kind of work that dominates the CLI workloads. The samples are
spread evenly over the time lftk runs, so their mean tracks the share of
that time the host spent slow. The run's *slowdown* is that mean over
``REFERENCE_S``, the kernel's mean time on the reference machine (two
vCPUs of an Intel Xeon, LLC 105 MiB, Python 3.11.7, numpy 2.4.6), and an
untraced run reports its timings divided by it: seconds at the reference
machine's speed.

``clock()`` is ``time.perf_counter()`` minus the time spent in the handler,
so every timing the benchmark takes leaves the samples out. The kernel uses
only Python on fixed inputs, never lftk: a change to lftk moves the
timings in full and cannot move the kernel.
"""

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.2
REFERENCE_S = 0.0049  # median over nine runs of their mean sample time

_spent = 0.0  # seconds spent in probe samples, over the whole process


def clock():
    """``time.perf_counter()`` minus the time taken by probe samples."""
    return time.perf_counter() - _spent


def _records_kernel():
    """Splits, converts and formats 1,500 record lines, as ``dataio`` does."""
    rng = np.random.default_rng(0)
    lines = [f"{i} {j} {k} {y!r}\n" for i, j, k, y in zip(
        rng.integers(0, 142, 1500).tolist(), rng.integers(0, 4532, 1500).tolist(),
        rng.integers(0, 64, 1500).tolist(), rng.random(1500).tolist())]

    def kernel():
        rows = []
        for line in lines:
            i, j, k, y = line.split()
            rows.append((int(i), int(j), int(k), float(y)))
        "".join(f"{i} {j} {k} {y!r}\n" for i, j, k, y in rows)

    return kernel


class Probe:
    """Samples the kernel every ``INTERVAL_S`` between ``start`` and ``stop``."""

    def __init__(self):
        self.kernel = _records_kernel()
        self.kernel()  # warm up: first-call costs are not host speed
        self.samples = []

    def _sample(self, signum, frame):
        global _spent
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        _spent += time.perf_counter() - t0

    def sample(self, n):
        """Take ``n`` samples now, outside the timer."""
        for _ in range(n):
            self._sample(None, None)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self):
        """Mean kernel time over the reference time."""
        return statistics.fmean(self.samples) / REFERENCE_S
