"""Host-speed calibration: fixed pure-Python work timed alongside the answers.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within seconds, for code and calibration alike. A run therefore interleaves
fixed calibration slices with the work it measures and scales each measured
time by

    factor = REFERENCE_SLICE_S / (mean seconds per slice run alongside it)

so that it reads as seconds on a host where one slice takes
REFERENCE_SLICE_S. Slices run in two ways:

- ``on_timer``: a SIGALRM handler runs one slice after every PERIOD_S
  seconds of the measured work, inside answers as well as between them, so
  even a 15-second answer is scaled by the host speed during that answer.
  The measured time of an answer excludes the slices run inside it.
- ``after``: slices run between pieces of work until they add up to
  CALIBRATION_SHARE of the work. Traced runs use this, so that no slice
  lands inside a span.

The slice mixes integer arithmetic with lookups in a small dict of tuple
keys, like the solver's tables. Its working set (about 100 KB) is small, so
it disturbs the package's caches little and is back in cache at once. The
slice never calls the package: a change to the package leaves the slices'
own cost where it was.
"""

from __future__ import annotations

import contextlib
import signal
import time

PERIOD_S = 0.001
CALIBRATION_SHARE = 0.5
# Typical mean seconds per slice within a run on the shared 2-vCPU Linux VM
# (Python 3.11.7) where the baseline in bench/README.md was measured.
REFERENCE_SLICE_S = 0.0004


class Calibrator:
    def __init__(self):
        self.table = {(i, i * 7919 % 65521): float(i) for i in range(1 << 10)}
        self.busy = 0.0  # seconds of work counted by ``after``
        self.seconds = 0.0  # seconds of calibration so far
        self.slices = 0

    def slice(self) -> None:
        started = time.perf_counter()
        table = self.table
        key = 1
        total = 0.0
        seen = set()
        for _ in range(600):
            key = (key * 1103515245 + 12345) & 0x3FF
            total += table[key, key * 7919 % 65521]
            seen.add(key & 255)
            total += (key * key) % 7
        self.seconds += time.perf_counter() - started
        self.slices += 1

    @contextlib.contextmanager
    def on_timer(self):
        """Run a slice after every PERIOD_S seconds of the block's own work.
        The timer is re-armed when a slice ends, so slices never nest."""
        running = [True]

        def handler(signum, frame):
            # A signal due as the block ends may be handled after it ended;
            # re-arming then would let SIGALRM's default action end the process.
            if running[0]:
                self.slice()
                signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        try:
            yield
        finally:
            running[0] = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def after(self, busy_seconds: float) -> None:
        """Count busy_seconds of measured work, then run slices until they
        add up to CALIBRATION_SHARE of all the work counted so far."""
        self.busy += busy_seconds
        while self.seconds < CALIBRATION_SHARE * self.busy:
            self.slice()

    def mark(self) -> tuple[float, int]:
        return self.seconds, self.slices

    def factor(self, since: tuple[float, int] = (0.0, 0)) -> float:
        """Multiply a time measured since the mark ``since`` by this to get
        reference-host seconds."""
        if self.slices == since[1]:
            self.slice()
        return REFERENCE_SLICE_S * (self.slices - since[1]) / (self.seconds - since[0])
