"""Host speed, sampled while the benchmark's calls run.

The benchmark shares its machine with other tenants, and the speed of its
CPU moves by a quarter or more over seconds to minutes as they load it.
CPU time does not remove this: the slowdown is in the core, not in the
scheduler.  So a timer interrupts the process every ``PERIOD_S`` and runs
``probe``, a fixed piece of interpreter and numpy work.  The probe's time
is the host's speed at that moment.  A timed call's CPU time, less the
probes inside it, times ``NOMINAL_S`` over the median probe time around it,
is the call's CPU time at the nominal speed.  Calls bound by memory traffic
are scaled by a second probe, ``stream_probe``, instead.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
# About the probe's time on an unloaded core of a 2-vCPU Intel Xeon: the
# nominal speed to which timings are scaled.  Only ratios between runs on
# one machine matter.
NOMINAL_S = 2e-3
# Size of the stream probe's buffer, and its pass time on an unloaded core.
STREAM_MB = 16
STREAM_NOMINAL_S = 2.5e-3
# A timed kind needs this many probes of its own in a round to use their
# median; otherwise the round's median over all probes stands in.
MIN_PROBES = 5

_WIDE = np.linspace(0.0, 1.0, 1024)
_NARROW = np.linspace(0.0, 1.0, 20)
_MODULUS = 7**280


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def probe():
    """CPU seconds of a fixed mix of interpreter, big-integer and numpy work.

    Kinds of code slow down by different amounts when the host is loaded;
    an interpreter loop alone slows 1.3-1.6 times as much as the library's
    own calls.  Over 5 s windows on a loaded 2-vCPU Xeon, the ratio of the
    library's ladder, transform, operator-build and explicit-sum Jacobi
    calls to this mix spread by 2-6%, against 21-41% for their raw times.
    """
    t0 = time.process_time()
    s = 0.0
    for i in range(12000):
        s += i * 0.5
    slots = {}
    for i in range(1500):
        pair = _Pair(i, i + 1)
        slots[i % 37] = pair.a + pair.b
    x = 3**300
    for _ in range(1600):
        x = (x * 12345 + 6789) % _MODULUS
    y = _WIDE
    for _ in range(60):
        y = y * 0.999 + 0.001
    y = _NARROW
    for _ in range(200):
        y = np.sqrt(y * 0.5 + 0.5)
    return time.process_time() - t0


def stream_probe(buf):
    """CPU seconds of three in-place passes over `buf`, an array far larger than L2.

    Calls that sweep tables of hundreds of MB slow with the host's memory
    traffic, which ``probe`` barely sees: per call, scaling them by
    ``probe`` widened their spread, while this pass tracked them.
    """
    t0 = time.process_time()
    for _ in range(3):
        np.multiply(buf, 1.0000001, out=buf)
    return time.process_time() - t0


class Sampler:
    """Runs ``probe`` on a timer and files each result under ``tag``.

    With ``stream=True`` each tick also runs ``stream_probe`` over a buffer
    of STREAM_MB, which then counts in the process's peak memory.
    """

    def __init__(self, stream=False):
        self.tag = None
        self.tags = []
        self.times = []
        self.stream_times = []
        self.spent = 0.0
        self._buf = np.ones(STREAM_MB * 2**17) if stream else None
        self._old = None

    def _tick(self, signum, frame):
        dt = probe()
        self.times.append(dt)
        if self._buf is not None:
            ds = stream_probe(self._buf)
            self.stream_times.append(ds)
            dt += ds
        self.spent += dt
        self.tags.append(self.tag)

    def __enter__(self):
        # A wall-clock timer: in a handler of the CPU-time timer (ITIMER_PROF)
        # the process CPU clock reads as stopped on Linux.
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scale(self, start, tag=None, stream=False):
        """Nominal over median probe time since index `start`, of `tag` if it has enough.

        With `stream`, the stream probe's times and STREAM_NOMINAL_S are used.
        """
        times = (self.stream_times if stream else self.times)[start:]
        own = [t for g, t in zip(self.tags[start:], times) if g == tag] if tag else []
        times = own if len(own) >= MIN_PROBES else times
        nominal = STREAM_NOMINAL_S if stream else NOMINAL_S
        return nominal / statistics.median(times) if times else 1.0
