"""Correct host timings for the machine's momentary speed.

On a shared cloud machine the same call can take 1.1 s or 2.0 s depending
on what the neighbours do, in phases lasting seconds to many minutes, so
medians of raw host time do not repeat between two sets of runs. Tight
arithmetic loops barely notice these phases; code that, like the
simulator, runs through a lot of interpreter code and allocates many
small objects slows down nearly as much as the simulator does.

:class:`SpeedMonitor` runs such a probe, a fixed mix of pure-Python
standard-library work, on a background thread every ``PERIOD_S`` seconds
while the benchmark calls the program. The thread needs the interpreter
lock to run, so each probe measures the core the program is using at that
moment. :meth:`SpeedMonitor.scale` turns the probes that fell inside a
call into a factor: the nominal probe time ``REF_S`` divided by their
median. A host time times that factor estimates the time the call would
have taken on a core where the probe takes ``REF_S``, about an
uncontended core of a 2-vCPU cloud VM. The probe costs ~1 ms per period;
that share is the same before and after any change to the program.

The probe and the program share one heap, so a cyclic garbage collection
of the program's objects could fire inside a probe and be timed as
machine slowness. The probe therefore runs with the collector disabled:
a collection that falls due then runs in the program's thread, where it
belongs, and the median discards the odd probe that is still disturbed.
"""

from __future__ import annotations

import bisect
import difflib
import gc
import json
import os
import random
import statistics
import textwrap
import threading
import time
from fractions import Fraction

__all__ = ["SpeedMonitor"]

clock = time.perf_counter

#: Probe time, in seconds, that defines the nominal speed.
REF_S = 1.0e-3
#: Seconds between two probes.
PERIOD_S = 0.025

_rng = random.Random(1)
_WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa"]
_TEXT = " ".join(_rng.choice(_WORDS) for _ in range(60))
_A = "".join(_rng.choice("abcdefgh") for _ in range(60))
_B = "".join(_rng.choice("abcdefgh") for _ in range(60))
_DOC = {f"k{i}": [i, i / 3, f"v{i}", {"x": i}] for i in range(40)}
_FLOATS = [_rng.random() for _ in range(60)]


def _probe() -> None:
    """The same ~1 ms of interpreter-heavy work on every call."""
    sum(Fraction(i, i + 1) for i in range(1, 25))
    difflib.SequenceMatcher(None, _A, _B).ratio()
    json.loads(json.dumps(_DOC))
    textwrap.fill(_TEXT, 30)
    statistics.stdev(_FLOATS)


class SpeedMonitor:
    """Background speed probe; a context manager."""

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._took: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-monitor", daemon=True)

    def _sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = clock()
            _probe()
            self._took.append(clock() - start)
        finally:
            if enabled:
                gc.enable()
        self._starts.append(start)

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def __enter__(self) -> "SpeedMonitor":
        # One core for the program and the probe, so they see the same
        # neighbours; the interpreter lock keeps them from overlapping.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float) -> float:
        """Nominal-speed factor for a call that ran from *start* to *end*."""
        starts, took = self._starts, self._took
        lo = bisect.bisect_left(starts, start)
        hi = bisect.bisect_right(starts, end)
        if lo == hi:  # shorter than one period: use the nearest probes
            lo, hi = max(0, lo - 1), min(len(took), lo + 1)
        return REF_S / statistics.median(took[lo:hi])
