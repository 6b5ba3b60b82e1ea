"""Reference seconds: times scaled by the measured speed of the machine.

The shared hosts this benchmark runs on change speed by up to 1.6x in phases
lasting seconds to minutes (other tenants, for instance), so raw wall
time of the same code spreads by a third between runs.  To take that out, a
fixed pure-Python reference loop is timed next to the measured work, and the
work's time is expressed in reference seconds:

    ref_s = seconds * REF_LOOP_S / (CPU time of the reference loop, measured now)

Code that gets twice as fast halves its reference seconds; a machine that gets
twice as slow leaves them about unchanged.  `SpeedProbe` counts CPU time
rather than wall time, so that time the process spends descheduled (steal,
other tenants) does not count either.

`SpeedProbe` samples the loop every PERIOD_S of wall time from a SIGALRM
handler while a pass runs, so a pass that spans a change of speed is scaled
segment by segment.  The loop's own time is left out of the result.
"""

from __future__ import annotations

import signal
import statistics
import time

LOOP_N = 8000
# Fixes the scale of a reference second: about the CPU time of one loop on the
# 2-vCPU Xeon VM (Python 3.11) the benchmark was tuned on, so that there
# reference seconds come close to CPU seconds.
REF_LOOP_S = 0.001
PERIOD_S = 0.2
SMOOTH = 5  # loop samples whose median gives the speed of one segment


def reference_loop() -> int:
    s = 0
    d = {}
    for i in range(LOOP_N):
        s += (i * 7919) % 13
        d[i & 255] = s
    return s


def loop_seconds() -> float:
    """CPU seconds of one reference loop, now."""
    c = time.process_time()
    reference_loop()
    return time.process_time() - c


class SpeedProbe:
    """Context manager that samples the reference loop every PERIOD_S while
    its block runs (main thread only) and converts the block's CPU time to
    reference seconds."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (CPU time at start, loop seconds)

    def _sample(self, *_) -> None:
        c = time.process_time()
        reference_loop()
        self.samples.append((c, time.process_time() - c))

    def __enter__(self) -> "SpeedProbe":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    def ref_seconds(self) -> float:
        """CPU time between the first and the last sample, without the loops,
        each segment scaled by the median loop time of the SMOOTH samples
        around it."""
        s = self.samples
        half = SMOOTH // 2
        total = 0.0
        for j in range(len(s) - 1):
            cpu = s[j + 1][0] - (s[j][0] + s[j][1])
            loop = statistics.median(x[1] for x in s[max(0, j - half): j + half + 1])
            total += cpu * REF_LOOP_S / loop
        return total

    def loop_ms(self) -> float:
        return statistics.median(x[1] for x in self.samples) * 1e3
