"""A fixed reference loop that samples the host's current speed.

On a shared host the same pure-Python work takes up to about 1.5 times as
much CPU time in a slow phase as in a fast one, and the phase changes within
seconds.  While a pass runs, ``Sampler`` runs ``probe`` every TICK_S of CPU
time from a virtual-timer signal, also in the middle of an operation, and
keeps the series.  Each operation's CPU time, without the probes inside it,
is then scaled by the probes taken during and around it, so that a run in a
slow phase and a run in a fast phase read alike.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from array import array
from typing import Sequence

PROBE_N = 4000
# CPU seconds of one probe in the host's fast phase (2-vCPU Xeon, Python
# 3.11.7).  A normalised time is CPU time * REF_S / the nearby probes' time.
REF_S = 0.0009
TICK_S = 0.05  # CPU seconds between probes: about 2% of the pass
AROUND_S = 0.25  # probes this much CPU time before and after an operation also count


def probe() -> float:
    """Thread CPU seconds of a fixed loop of tuple, dict and int work.  It
    keeps no memory, and the cyclic collector is off so that it never
    collects the program's garbage."""
    enabled = gc.isenabled()
    gc.disable()
    c0 = time.thread_time()
    d: dict[int, tuple[int, int, int]] = {}
    acc = 0
    for i in range(PROBE_N):
        t = (i, i ^ 0x55, i % 7)
        d[i & 1023] = t
        acc += t[1] * 3 + t[2]
    spent = time.thread_time() - c0
    if enabled:
        gc.enable()
    return spent


class Sampler:
    """Probes every TICK_S of the process's user CPU time (ITIMER_VIRTUAL).
    ``spent`` is the thread CPU time the probes took, so that a caller can
    take it out of an operation's time."""

    def __init__(self) -> None:
        self.at = array("d")  # thread CPU time at each probe
        self.took = array("d")  # each probe's CPU seconds
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        c0 = time.thread_time()
        self.at.append(c0)
        self.took.append(probe())
        self.spent += time.thread_time() - c0

    def start(self) -> None:
        signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)

    def normalise(self, cpu: Sequence[float], starts: Sequence[float], ends: Sequence[float]) -> list[float]:
        """Scale each operation's CPU time by the median of the probes taken
        from AROUND_S before its start to AROUND_S after its end."""
        at, took = list(self.at), list(self.took)
        out = []
        for c, c0, c1 in zip(cpu, starts, ends):
            near = took[bisect.bisect_left(at, c0 - AROUND_S) : bisect.bisect_right(at, c1 + AROUND_S)]
            out.append(c * REF_S / statistics.median(near or took))
        return out
