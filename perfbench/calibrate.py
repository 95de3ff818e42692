"""A fixed pure-Python reference loop that tells how fast the machine runs now.

A shared machine can run the same code up to ~1.7x slower, switching every
few seconds to every few minutes, when other tenants load the cores the
benchmark shares. That is far more than the regressions the benchmark
bounds. So each repetition is timed by a :class:`Meter`, which times this
loop before the set-up, between set-up and work, after the work, and every
``INTERVAL_S`` of work at a step boundary, and reports each stretch
between two loop measurements at reference speed::

    reported = measured * REFERENCE_S / (mean of the two loop times around it)

The loop does what the program does most: it allocates small objects,
formats strings, sorts with a key function and builds a dict. Timed in
turn with ``build_ground_truth`` on a 2-core x86-64 VM, the ratio of the
two over 3-second windows had an interquartile range of 6% of its median,
while each alone spread by 27-30%. The garbage collector is off while the
loop runs, so the heap the program leaves behind does not change it, and
the loop's own time is left out of the work. It is part of the benchmark
and never changes with the program.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List, Optional

#: The loop's median time on a 2-core x86-64 VM running at full speed.
REFERENCE_S = 0.0043
#: Loops per measurement around a phase (about 0.1 s at full speed).
LOOPS = 21
#: Work between two measurements inside a work phase, and loops per such
#: measurement (about 25 ms at full speed).
INTERVAL_S = 0.5
INTERIM_LOOPS = 5

clock = time.perf_counter


class _Item:
    __slots__ = ("number", "text", "pair")

    def __init__(self, number: int, text: str, pair: tuple) -> None:
        self.number = number
        self.text = text
        self.pair = pair


def _loop() -> int:
    items = [_Item(i, str(i), (i, i + 1)) for i in range(6000)]
    items.sort(key=lambda item: item.text)
    total = sum(item.number for item in items if item.pair[0] % 3)
    return total + len({item.text[:2]: item for item in items})


def reference_s(loops: int = LOOPS) -> float:
    """Median wall time of one reference loop, measured now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(loops):
            start = clock()
            _loop()
            times.append(clock() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two reference measurements
    into a time at reference speed."""
    return REFERENCE_S / ((before + after) / 2)


class Meter:
    """Set-up and work time of one repetition, at reference speed.

    Built right before the set-up starts. The workload calls
    :meth:`start_work` between set-up and work, :meth:`checkpoint` between
    steps, :meth:`stop` when the work is done, and :meth:`scaled` to put a
    step it timed into reference speed. Work time excludes the loop's own
    measurements. ``interim=False`` measures only around the phases: a
    traced run uses it, so that no loop runs inside a wrapped layer's span.
    """

    def __init__(self, interim: bool = True) -> None:
        self.interim = interim
        self.refs: List[float] = [reference_s()]
        #: Raw seconds of each closed stretch: the set-up, then the work
        #: stretches between measurements.
        self.raw: List[float] = []
        self._begin: Optional[float] = clock()
        self._working = False

    @property
    def segment(self) -> int:
        """Index of the stretch running now."""
        return len(self.raw)

    def _close(self, loops: int) -> None:
        self.raw.append(clock() - self._begin)
        self.refs.append(reference_s(loops))
        self._begin = clock()

    def start_work(self) -> None:
        self._close(LOOPS)
        self._working = True

    def checkpoint(self, force: bool = False) -> None:
        """Measure the loop again if enough work has passed since the last
        measurement (or ``force``); call only between steps."""
        if self._working and (force or (
                self.interim and clock() - self._begin >= INTERVAL_S)):
            self._close(INTERIM_LOOPS)

    def stop(self) -> None:
        self._close(LOOPS)
        self._working = False
        self._begin = None

    def scale(self, segment: int) -> float:
        return scale(self.refs[segment], self.refs[segment + 1])

    def scaled(self, seconds: float, segment: int) -> float:
        return seconds * self.scale(segment)

    def setup_s(self) -> float:
        return self.scaled(self.raw[0], 0)

    def work_s(self, upto: Optional[int] = None) -> float:
        """Work time at reference speed, of the stretches before ``upto``."""
        upto = len(self.raw) if upto is None else upto
        return sum(self.scaled(self.raw[k], k) for k in range(1, upto))

    def raw_work_s(self) -> float:
        return sum(self.raw[1:])
