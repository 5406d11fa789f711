"""Machine-speed calibration for the end-to-end times.

The benchmark runs on shared hosts whose speed drifts by 20-30% within
seconds and from minute to minute, far more than the changes it has to
resolve.  So while the timed loop runs, :class:`ReferenceClock` interrupts
it every ``PERIOD_S`` seconds (``SIGALRM``) and times one run of a fixed
reference kernel.  Each stretch of work between two interruptions is then
counted in *reference seconds*: its measured seconds times
``REF_S / t_ref``, with ``t_ref`` the median of the ``2 * AROUND`` kernel
timings around it.  A machine that runs the kernel in ``REF_S`` seconds
reads the same in both units.  The time spent in the kernel is left out of every
span.

The kernel is independent of psdlab and mixes what psdlab's passes do: a
Python-level loop over small (20-element) numpy operations, whole-row
updates of a 256 x 256 array, and plain interpreter arithmetic.  A change
to psdlab leaves it alone, so it moves the calibrated times fully.
"""

import bisect
import signal
import statistics
import time

import numpy as np

REF_S = 0.006
PERIOD_S = 0.2
AROUND = 2

_SMALL = (np.arange(400, dtype=float).reshape(20, 20) % 7.0) + np.eye(20)
_SMALL = _SMALL + _SMALL.T
_WIDE = np.add.outer(np.arange(256.0), np.arange(256.0)) % 11.0


def reference_kernel():
    """A fixed mix of interpreter, small-array and row work (about 6 ms)."""
    x = np.ones(20)
    acc = 0.0
    for i in range(500):
        y = _SMALL @ x
        x = y / np.linalg.norm(y)
        acc += float(x @ y) + x[i % 20]
    w = _WIDE.copy()
    c, s = 0.8, 0.6
    for p in range(90):
        row_p, row_q = w[p].copy(), w[p + 1]
        w[p] = c * row_p - s * row_q
        w[p + 1] = s * row_p + c * row_q
        acc += w[p, p + 1]
    total = 0
    for i in range(22000):
        total += (i * i) % 7
    return acc + total


class ReferenceClock:
    """Times the reference kernel every ``PERIOD_S`` s of a span of work.

    Use as a context manager around the timed loop; stamps taken with
    ``time.perf_counter`` inside it convert with :meth:`seconds` (reference
    seconds) and :meth:`raw_seconds` (plain seconds), both net of the
    kernel's own time.
    """

    def __init__(self):
        self.starts, self.ends = [], []
        self._busy = False
        self._previous = None
        self._cum = None

    def _sample(self):
        t0 = time.perf_counter()
        reference_kernel()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self._busy = True
            try:
                self._sample()
            finally:
                self._busy = False

    def __enter__(self):
        reference_kernel()
        for _ in range(AROUND + 1):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(AROUND + 1):
            self._sample()
        self._cum = None
        return False

    def kernel_seconds(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def _rates(self):
        """Reference seconds per second for the gap after each sample."""
        d = self.kernel_seconds()
        return [REF_S / statistics.median(d[max(0, k + 1 - AROUND):k + 1 + AROUND])
                for k in range(len(d) - 1)]

    def _cumulative(self, rates):
        cum = [0.0]
        for k, rate in enumerate(rates):
            cum.append(cum[-1] + (self.starts[k + 1] - self.ends[k]) * rate)
        return cum

    def _at(self, t, rates, cum):
        k = bisect.bisect_right(self.ends, t) - 1
        if k < 0 or k >= len(rates):
            raise ValueError("stamp outside the clock's span")
        return cum[k] + (min(t, self.starts[k + 1]) - self.ends[k]) * rates[k]

    def seconds(self, t0, t1):
        """Reference seconds of work between two stamps."""
        if self._cum is None:
            rates = self._rates()
            self._cum = (rates, self._cumulative(rates))
        rates, cum = self._cum
        return self._at(t1, rates, cum) - self._at(t0, rates, cum)

    def raw_seconds(self, t0, t1):
        """Plain seconds of work between two stamps, the kernel's time left out."""
        ones = [1.0] * (len(self.starts) - 1)
        cum = self._cumulative(ones)
        return self._at(t1, ones, cum) - self._at(t0, ones, cum)
