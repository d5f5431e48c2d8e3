"""How fast the host runs, sampled while the benchmark measures.

A shared host switches between speed states about 1.5x apart, on scales
from a second to minutes, so a wall-clock time says as much about the
host as about the program.  `Sampler` times a fixed reference kernel
every `interval` seconds from a SIGALRM handler, in the measuring
process itself, while the workload runs, and right before every call
the benchmark times.  `Sampler.ref_seconds(start,
end)` then turns the wall time of a call into *reference seconds*: the
wall time, less the kernel runs that interrupted it, divided by the
kernel's mean time around the call and multiplied by REF_KERNEL_S.  One
reference second is the time in which the host, at its speed at that
moment, runs the kernel 1000 times.

The kernel is the benchmark's own code and calls nothing in treetag, so
a change to the program cannot move it; only the host can.  It mixes the
kinds of work the program does: small-object Python (tuples, dicts,
strings) and small numpy matrix products.
"""

import bisect
import signal
import time

import numpy as np

REF_KERNEL_S = 1e-3

_A = np.random.RandomState(0).rand(24, 64)
_W = np.random.RandomState(1).rand(64, 48)
_LABELS = ("S", "NP", "VP", "PP", "ADJP", "ADVP", "SBAR")


def kernel():
    counts = {}
    spans = []
    for i in range(300):
        label = _LABELS[i % 7]
        key = "%s-%d" % (label, i % 23)
        counts[key] = counts.get(key, 0) + 1
        spans.append((i % 17, i % 17 + i % 5 + 1, label))
    text = " ".join("(%s %d %d)" % (lab, a, b) for a, b, lab in sorted(spans))
    words = [w.strip("()") for w in text.split()]
    total = sum(len(w) for w in words) + len(set(spans)) + sum(counts.values())
    for _ in range(8):
        h = np.tanh(_A @ _W)
        e = np.exp(h - h.max(axis=1, keepdims=True))
        e /= e.sum(axis=1, keepdims=True)
        total += int(e.argmax(axis=1).sum())
    return total


class Sampler:
    """Kernel timings taken every `interval` seconds between start() and
    stop(), and whenever `sample()` is called: `starts[i]` and
    `seconds[i]` of the i-th run."""

    def __init__(self, interval):
        self.interval = interval
        self.starts = []
        self.seconds = []
        self._busy = False

    def sample(self):
        """Time one kernel run now (the timer skips a run it would nest in)."""
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            kernel()
            self.seconds.append(time.perf_counter() - start)
            self.starts.append(start)
        finally:
            self._busy = False

    def _on_timer(self, signum, frame):
        self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def ref_seconds(self, start, end):
        """Reference seconds of a call that ran from `start` to `end`.

        The kernel's speed is its mean over the runs inside the call and
        the nearest run on either side of it.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        inside = sum(self.seconds[lo:hi])
        near = self.seconds[max(lo - 1, 0):hi + 1]
        if not near:    # a run shorter than one interval
            return end - start
        return (end - start - inside) * REF_KERNEL_S * len(near) / sum(near)
