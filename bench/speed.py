"""Machine-speed probe: timings rescaled to a machine of fixed speed.

On a shared virtual machine the same computation can take twice as long
from one second to the next (on a 2-vCPU guest, mostly with the load on
the sibling CPU), so raw wall times of identical passes scatter far more
than the program's own cost changes.  While a workload runs, a SIGALRM
interval timer interrupts it every INTERVAL_S seconds and times
``reference_work``, a fixed pure-Python loop that uses no hjlax code.
The program's time goes mostly to the interpreter (per-node loops around
small numpy calls and scipy's Python-level solvers), and of the
references tried, a pure-Python loop tracked its slowdowns best: the
log of a pass's time moved with slope 1.0 against the log of the loop's
time, while numpy-bound references swung 1.5 times as far as the program.
Each stretch of work between two ticks is rescaled by REFERENCE_S over
the lower quartile of the times of the ticks within WINDOW_S seconds of
its end, and the ticks' own time is left out.  The lower quartile, not
the median or the mean: in the machine's fast phases the ticks split
between two speeds and over-sample the slow one.  Between runs made
mostly in fast phases and runs made mostly in slow ones, the program's
pass time changed 1.34 times, the ticks' median 1.11 times and their
lower quartile 1.28 times.  The result reads as seconds on a machine
whose ticks have a lower quartile of REFERENCE_S, about the usual speed of
the 2-vCPU virtual machine the bounds in BENCHMARK.json were set on.

The handler runs only between Python bytecodes of the main thread and
touches no state of the program, so results are unchanged (test_bench.py
checks bit-identity under the probe).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REFERENCE_S = 0.0050
INTERVAL_S = 0.1
WINDOW_S = 2.0


def reference_work() -> int:
    n = 0
    for i in range(45_000):
        n += (i * i) % 7
    return n


def reference_seconds() -> float:
    """Median time of five runs of reference_work, back to back."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedProbe:
    """Context manager that times reference_work every INTERVAL_S seconds.

    ``on_tick(seconds)``, when set, is called after each tick with its
    duration (the tracer uses it to leave ticks out of open spans)."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.ticks: list[tuple[float, float]] = []   # (start, end)
        self.on_tick = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        self.ticks.append((start, end))
        if self.on_tick is not None:
            self.on_tick(end - start)

    def rescaled(self, start: float, end: float) -> float:
        """Work time in [start, end], ticks left out, in reference seconds."""
        if not self.ticks:
            return end - start
        starts = [a for a, _ in self.ticks]
        durations = [b - a for a, b in self.ticks]

        def factor(at: float) -> float:
            lo = bisect.bisect_left(starts, at - WINDOW_S)
            hi = bisect.bisect_right(starts, at + WINDOW_S)
            near = durations[lo:hi] or durations[max(0, lo - 1):lo + 1]
            if len(near) == 1:
                return REFERENCE_S / near[0]
            return REFERENCE_S / statistics.quantiles(
                near, n=4, method="inclusive")[0]

        total, cursor = 0.0, start
        for a, b in self.ticks[bisect.bisect_left(starts, start):]:
            if b > end:
                break
            total += (a - cursor) * factor(a)
            cursor = b
        return total + (end - cursor) * factor(end)
