"""A fixed reference work unit, timed next to the ops to gauge the machine's speed.

On a shared host the speed of one core swings by up to 2x within seconds, as
other tenants load the caches and memory bus.  While an op runs, a timer
signal interrupts it every few milliseconds to time a short block of this
unit, and the benchmark reports the op's time relative to the unit's, so
that such swings largely cancel while a change to ncring does not.  The unit
uses no ncring code.  It mixes two kinds of work ncring does: small dense
linear algebra and elementwise numpy on short arrays (pipeline, model), and
scalar Python with float formatting (cli, dataio, oracle).  It keeps to a
small working set, so that it does not evict the op's own data from the
caches.
"""

from __future__ import annotations

import contextlib
import io
import signal
import time

import numpy as np

_X = np.linspace(1.0, 2.0, 128)
_A = np.vstack([_X, np.ones_like(_X)]).T
_Y = np.sin(_X)


def _unit() -> float:
    acc = 0.0
    for _ in range(12):
        c = np.linalg.lstsq(_A, np.log(_X) * _Y, rcond=None)[0]
        acc += float(np.diff(np.log(_X + c[0])).sum())
    buf = io.StringIO()
    table = {}
    for i in range(150):
        v = i * 1.0000001 / 3.0
        buf.write("%.17g,%r\n" % (v, v * 2))
        table[i] = (v, str(i))
    return acc + len(buf.getvalue()) + len(table)


def reference_seconds(units: int) -> float:
    """Wall time of `units` reference units run back to back."""
    t0 = time.perf_counter()
    for _ in range(units):
        _unit()
    return time.perf_counter() - t0


class Gauge:
    """Times an op against blocks of reference work interleaved with it.

    Use ``with gauge.measure(): op()``.  A block of ``UNITS`` reference units
    (about 2.6 ms) runs just before the op and just after it, and SIGALRM
    runs another each time ``INTERVAL_S`` has passed since the previous
    block ended, so that the blocks take about an eighth of the time.
    The blocks split the op into steps.  Afterwards ``wall`` is the op's
    wall time without the blocks, and ``rel`` is the op's cost in reference
    units: the sum over steps of the step's time over the mean unit time of
    the two blocks around it.  Signal handlers run in the main thread
    between bytecodes, so an op is split at fine grain wherever it spends
    its time, except inside a long call into C.
    """

    UNITS = 3
    INTERVAL_S = 0.02

    def __init__(self):
        self.active = False
        signal.signal(signal.SIGALRM, self._block)

    def _block(self, signum, frame) -> None:
        if self.active:
            self.steps.append(time.perf_counter() - self.mark)
            self.blocks.append(reference_seconds(self.UNITS))
            self.mark = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S)

    @contextlib.contextmanager
    def measure(self):
        self.steps = []
        self.blocks = [reference_seconds(self.UNITS)]
        self.mark = time.perf_counter()
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S)
        try:
            yield
        finally:
            # A handler that runs after this point times nothing and re-arms nothing.
            self.active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.steps.append(time.perf_counter() - self.mark)
            self.blocks.append(reference_seconds(self.UNITS))
        self.wall = sum(self.steps)
        self.rel = sum(
            2 * self.UNITS * step / (before + after)
            for step, before, after in zip(self.steps, self.blocks, self.blocks[1:])
        )
