"""Machine-speed calibration for timings taken on a shared machine.

On a virtual machine whose neighbours come and go, the same Python code
runs up to 1.7 times slower for anything from a tenth of a second to
minutes at a time.  To keep such swings out of the figures, the
benchmark times a fixed pure-Python kernel (it uses no code from the
program under test) before and after each operation, and scales the
operation's time by ``REFERENCE_SECONDS`` over the mean kernel
time: the time the operation would have taken on a machine where the
kernel takes exactly :data:`REFERENCE_SECONDS`.  A change to the program
moves the operations and not the kernel, so it moves a scaled figure by
the same factor as the raw one.

The speed changes within a pass, and within a single operation of a
second or more, so the kernel is timed next to each operation, and,
while :meth:`Meter.probing` is active, also every
:data:`PROBE_INTERVAL` seconds in the middle of one, from a ``SIGALRM``
handler in the thread that runs the operation.

The kernel, and by default the operations, are timed with
:data:`cpu_clock`, the CPU time of the thread: on such a machine the
process also loses the processor, for 100 ms and more a few times a
minute, and a wall-clock timing that spans such a gap reads many times
too slow.  The CPU clock leaves the gaps out and still runs slow when
the machine does.  Operations that span threads or processes are
timed with the wall clock, :data:`clock`.
"""

from __future__ import annotations

import gc
import signal
import time
from contextlib import contextmanager
from itertools import repeat
from typing import Iterator

from measure import median

__all__ = ["REFERENCE_SECONDS", "PROBE_INTERVAL", "clock", "cpu_clock",
           "kernel", "Meter"]

#: The kernel time the scaled figures are expressed against.
REFERENCE_SECONDS = 0.005
#: Seconds between two kernel timings in the middle of an operation.
PROBE_INTERVAL = 0.1
#: Loop iterations of one kernel call.
KERNEL_ITERATIONS = 40000

#: Wall clock: deadlines, and operations that span threads or processes.
clock = time.perf_counter
#: CPU time of the calling thread.
cpu_clock = time.thread_time


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


def kernel() -> int:
    """Dict reads and writes, C method calls, attribute stores and
    integer arithmetic: the operations an interpreter loop in Python is
    made of.  The loop calls no Python function and allocates nothing
    (every integer it makes is below 256, one of those CPython keeps),
    so its time does not depend on where the stack or the heap stands
    when it is called.  A loop that called a Python function, timed
    from deep inside the program's recursion, could take a page fault
    on every call, 100 ms instead of 5, when the new frame fell just
    past the end of the interpreter's frame stack chunk."""
    table: dict = {}
    cell = _Cell()
    acc = 0
    for _ in repeat(None, KERNEL_ITERATIONS):
        acc = (acc * 3 + 1) & 63
        table[acc] = acc
        cell.value = (cell.value + table.get(acc ^ 1, 0)) & 63
    return acc + cell.value


class Meter:
    """Kernel timings around operations: call :meth:`start` before the
    first of a series of operations, and :meth:`factor` right after
    each one (or run each with :meth:`time`); it times the kernel again
    and returns the factor that scales the operation just finished,
    from the mean of the kernel times before, during and after it.
    :meth:`time` times an operation with ``op_clock``."""

    def __init__(self, op_clock=cpu_clock) -> None:
        self.op_clock = op_clock
        self.window = [REFERENCE_SECONDS]
        #: Seconds spent in probes so far; :meth:`time` leaves them out.
        self.probed = 0.0
        self._timing = False

    def _kernel_seconds(self, count: int) -> float:
        """Median time of ``count`` kernel calls, with the cyclic
        collector held off so that it never collects the program's
        heap inside a timing."""
        collecting = gc.isenabled()
        gc.disable()
        self._timing = True
        try:
            times = []
            for _ in range(count):
                start = cpu_clock()
                kernel()
                times.append(cpu_clock() - start)
            return median(times)
        finally:
            self._timing = False
            if collecting:
                gc.enable()

    def _probe(self, signum, frame) -> None:
        if not self._timing:
            start = self.op_clock()
            self.window.append(self._kernel_seconds(1))
            self.probed += self.op_clock() - start

    @contextmanager
    def probing(self) -> Iterator["Meter"]:
        """Also time the kernel every :data:`PROBE_INTERVAL` seconds
        while inside the block (main thread only)."""
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def start(self, count: int = 1) -> None:
        self.window = [self._kernel_seconds(count)]

    def factor(self, count: int = 1) -> float:
        after = self._kernel_seconds(count)
        window, self.window = self.window + [after], [after]
        return REFERENCE_SECONDS * len(window) / sum(window)

    def time(self, fn, *args, **kwargs):
        """``(fn(*args, **kwargs), its scaled time)``; the time spent
        in probes during the call is not counted."""
        probed, start = self.probed, self.op_clock()
        result = fn(*args, **kwargs)
        seconds = self.op_clock() - start - (self.probed - probed)
        return result, seconds * self.factor()
