"""Host-speed calibration: every timed sample is scaled to one reference speed.

The 2-vCPU x86-64 host this benchmark was written on switches between two
speeds, about 1.6x apart, on scales from milliseconds to minutes, with
no steal time reported; that swamps the differences a change makes.  So
a probe process pinned to the benchmark's CPU times a short fixed
pure-Python loop, which no change to the program can touch, every
:data:`PERIOD_S`, and writes ``end duration`` lines to a file.  The
duration is the probe's own CPU time: it shows the host's speed as wall
time does, but not the time the measured work preempts the probe.  A
sample taken from ``start`` to ``end`` (``time.perf_counter``, one
clock for every process) is reported as
``(end - start) * REFERENCE_S / mean``, where ``mean`` is the mean
probe time over the sample's interval: host seconds at the speed where
the loop takes :data:`REFERENCE_S`.  The probe takes a few per cent of
the CPU from the measured work, the same on every commit.  The lines
before the result line also print the raw medians.

Run as ``calibrate.py FILE`` it is the probe; SIGTERM ends it.
"""

from __future__ import annotations

import bisect
import os
import signal
import sys
import time
from pathlib import Path
from typing import List, Tuple

PERIOD_S = 0.01
ITERATIONS = 1500
WARM_UP = 300
#: Probe time on an uncontended 2.1 GHz x86-64 vCPU (CPython 3.11),
#: warmed up right after the sleep, beside busy work.
REFERENCE_S = 0.00016
#: A sample shorter than this many probe periods is scaled by its
#: nearest probes instead.
MIN_PROBES = 4


def _loop(iterations: int = ITERATIONS) -> int:
    total = 0
    table: dict = {}
    items: list = []
    for i in range(iterations):
        total += (i * 7) % 13
        table[i & 255] = total
        if i & 15 == 0:
            items.append(abs(total - i))
    return total + len(items)


def probe(path: str) -> int:
    """Time the loop every :data:`PERIOD_S` until SIGTERM (or until the
    benchmark that started it is gone)."""
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    parent = os.getppid()
    with open(path, "w", encoding="ascii") as out:
        print("ready", flush=True)
        while not stop and os.getppid() == parent:
            time.sleep(PERIOD_S)
            _loop(WARM_UP)  # refill caches the measured work evicted
            cpu = time.thread_time()
            _loop()
            duration = time.thread_time() - cpu
            out.write(f"{time.perf_counter()!r} {duration!r}\n")
            out.flush()
    return 0


class Speed:
    """Probe timings, read from the probe's file, that scale samples."""

    def __init__(self, probes: List[Tuple[float, float]]) -> None:
        if len(probes) < MIN_PROBES:
            raise RuntimeError(f"only {len(probes)} speed probes recorded")
        self.times = [t for t, _ in probes]
        self.durations = [d for _, d in probes]

    @classmethod
    def load(cls, path: Path) -> "Speed":
        probes = []
        with open(path, encoding="ascii") as handle:
            for line in handle:
                if line.endswith("\n"):  # the probe may be mid-write
                    end, duration = line.split()
                    probes.append((float(end), float(duration)))
        return cls(probes)

    def factor(self, start: float, end: float) -> float:
        """Reference speed over host speed during ``[start, end]``."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < MIN_PROBES:
            middle = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(middle - MIN_PROBES // 2,
                            len(self.times) - MIN_PROBES))
            hi = lo + MIN_PROBES
        durations = self.durations[lo:hi]
        return REFERENCE_S * len(durations) / sum(durations)

    def scale(self, start: float, end: float) -> float:
        """The sample ``[start, end]`` in reference-speed seconds."""
        return (end - start) * self.factor(start, end)


if __name__ == "__main__":
    sys.exit(probe(sys.argv[1]))
