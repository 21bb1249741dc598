"""Host speed, sampled inside the timed work, to rescale its wall time.

The benchmark runs on a shared VM whose cores switch between two speeds
many times a second: a 13 us piece of Python runs in 13 us or in about
21 us.  For minutes at a time they run mostly at the slow speed, so the
same pass of cells took from its fastest time to about 2.6 times that,
and raw wall times of the same work spread far wider than any bound.

A :class:`HostMeter` runs a small fixed reference computation from a
profiling-timer signal every few milliseconds of CPU time and times it.
The signal handler runs between the program's bytecodes, so the samples
fall inside the work being timed.  A sample that took at least
:data:`SLOW_AT` times :data:`REF_UNIT_S`, the reference's time at full
speed, ran in the slow state.  The share of slow samples in an interval
estimates the share of its time the host spent slow, and the work's
slow-down is ``1 + share * (factor - 1)``, where ``factor`` is how many
times longer the work takes in the slow state; a time divided by it is
the time the work would have taken at full speed.

The estimate counts slow samples rather than averaging sample times
because the reference's own slow-state time wanders (1.7-2.4 times its
full-speed time over seconds spent wholly in the slow state) while the
program's time in that state stayed put.  The factors are not fitted to
the benchmark's spread: each is a slow-to-fast time ratio measured
directly by timing one small piece of the program many times on the
benchmark's host (see ``workloads.SLOW_FACTORS``).  Where a cell's work
slows by more or less than its factor, part of the host's effect stays
in its rescaled time.

The time spent in the handler (under 1% of the run) is measured and
subtracted from the interval it fell in.
"""

from __future__ import annotations

import signal
import time
from typing import Tuple

#: Seconds one reference unit takes in the handler at full speed on the
#: benchmark's host (a 2-vCPU KVM guest on a 2.1 GHz Xeon, Python 3.11):
#: the 1st percentile of 29k samples.
REF_UNIT_S = 1.7e-5
#: A sample at least this many times ``REF_UNIT_S`` ran in the slow
#: state (samples cluster at 1.0-1.2 and 1.8-2.5 times it).
SLOW_AT = 1.6
#: Profiling-timer period in CPU seconds (the kernel rounds it up to its
#: tick, 4 ms on the benchmark's host).
INTERVAL_S = 0.002


class _Node:
    __slots__ = ("key", "value", "children")

    def __init__(self, key, value, children):
        self.key = key
        self.value = value
        self.children = children


def reference_unit() -> float:
    """The fixed reference computation: dict lookups, attribute access
    and small allocations, like the program."""
    table = {}
    acc = 0.0
    for i in range(30):
        key = ("k", i % 17)
        node = table.get(key)
        if node is None:
            node = table[key] = _Node(key, 0.0, [])
        node.value = node.value * 0.5 + (i & 7) * 0.25
        node.children.append(i)
        acc += node.value
    return acc


class HostMeter:
    """Samples the reference from ``SIGPROF`` while open.

    :meth:`take` returns the samples since the previous call, so a caller
    brackets each timed interval with two calls.
    """

    def __init__(self):
        self._previous = None
        #: Samples, seconds spent sampling, and slow samples since the
        #: meter opened; the handler only adds to them.
        self.count = 0
        self.seconds = 0.0
        self.slow = 0
        self._taken = (0, 0.0, 0)

    def _sample(self, signum, frame) -> None:
        clock = time.perf_counter
        start = clock()
        reference_unit()
        elapsed = clock() - start
        self.seconds += elapsed
        self.count += 1
        if elapsed >= SLOW_AT * REF_UNIT_S:
            self.slow += 1

    def __enter__(self) -> "HostMeter":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def take(self) -> Tuple[int, float, int]:
        """(samples, seconds spent sampling, slow samples) since the last
        call."""
        now = (self.count, self.seconds, self.slow)
        taken = tuple(a - b for a, b in zip(now, self._taken))
        self._taken = now
        return taken

    def slowdown(self, count: int, slow: int, factor: float) -> float:
        """How many times slower than full speed work that takes
        ``factor`` times longer in the slow state ran during an interval
        holding ``count`` samples, ``slow`` of them slow.

        An interval too short to hold a sample gets the share of every
        sample so far.
        """
        if not count:
            count, slow = self.count, self.slow
        if not count:
            return 1.0
        return 1.0 + slow / count * (factor - 1.0)
