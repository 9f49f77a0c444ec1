"""Interpreter-speed sampling, to take the host's drift out of timings.

The machines this benchmark was tuned on share their cores with other
tenants.  The same pure-Python loop there ran up to 60% slower from one
second to the next, and a whole workload pass drifted by a third between
runs minutes apart, with process CPU time equal to wall time: the process
is not descheduled, every instruction is just slower.  A `SpeedSampler` times a
fixed amount of pure-Python work from a timer signal while the benchmark
works, in the same thread, so it sees the same slowdown as the work around
it.  Multiplying a time by `scale()` rescales it to a reference speed.

The work is two loops because neither alone follows the library's
slowdown.  Timed against the same `width` queries under shifting load, a
tight integer loop moved about half as much as the queries did (log-log
slope 1.9), a loop of subset masks, frozensets and dict lookups a little
more than they did (slope 0.8), and loops over large lists or dicts barely
followed them (correlation 0.03-0.6).  Rescaling by the geometric mean of
the first two cut the run-to-run variation of the queries from 9% to 3.8%
(5.4% and 4.6% for each loop alone).
"""
from __future__ import annotations

import itertools
import math
import signal
import statistics
import time

# Durations of the two loops at the reference speed: about their medians,
# when interrupting the benchmark's work, on the 2-core Xeon (2.0 GHz,
# Python 3.11) the benchmark was tuned on.
ARITH_REFERENCE_S = 0.0005
MIXED_REFERENCE_S = 0.0006
INTERVAL_S = 0.05


def arith_loop() -> int:
    x = 0
    for i in range(4000):
        x = (x * 31 + i) & 0xFFFF
    return x


def mixed_loop() -> int:
    """A fixed slice of the kind of work the library does: subset masks,
    frozensets, a memo dict and small sorts."""
    memo = {}
    acc = 0
    for t in range(3):
        for comb in itertools.combinations(range(9), 3):
            mask = 0
            for b in comb:
                mask |= 1 << b
            key = (mask, t)
            got = memo.get(key)
            if got is None:
                got = memo[key] = len(frozenset(comb) | {t}) + bin(mask).count("1")
            acc += got
        acc += sum(sorted(memo.values())[:5])
    return acc


class SpeedSampler:
    """While entered, times both loops every `interval` seconds of wall time.

    `spent` accumulates the sampler's own time, so that a caller timing
    some work can subtract the samples taken inside it.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        arith_loop()
        t1 = time.perf_counter()
        mixed_loop()
        t2 = time.perf_counter()
        self.samples.append((t1 - t0, t2 - t1))
        self.spent += t2 - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self) -> float:
        """Factor taking a time measured while sampling to the reference
        speed: the geometric mean of the two loops' speed ratios."""
        if not self.samples:
            self._tick(None, None)
        arith = statistics.median(a for a, _ in self.samples)
        mixed = statistics.median(m for _, m in self.samples)
        return math.sqrt(ARITH_REFERENCE_S / arith * MIXED_REFERENCE_S / mixed)
