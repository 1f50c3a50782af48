"""A reference kernel sampled between slices of a pass, to scale out host speed.

On a shared host the speed of one vCPU drifts by a third within a minute, and
the same inputs then take a third longer. A fixed pure-Python kernel, run
every `INTERVAL_S` seconds from a SIGALRM handler inside the pass, slows down
with them. Each slice of the pass between two samples is scaled by
`REF_MS / kernel ms` of its sample; the slices are equally long, so the pass's
time on a host where the kernel takes `REF_MS` is
`wall * REF_MS / harmonic mean(kernel ms)`. The kernel runs right after the
library was interrupted, so it sees the caches the way the library leaves
them, which tracks the host better than a second, warm call of it does.
Of the statistics tried (median, mean, trimmed means, harmonic mean) the
harmonic mean left the least spread: 2-3 % over eight passes of one input,
against 12-14 % raw.

Handler time is kept out of the pass: `spent_s` and `spent_cpu_s` are
subtracted from its wall and CPU time, and a recorder, if given, is paused.

Set-up is scaled by `warm_up()`, the kernel timed right after set-up in the
same interpreter: over three batches of 30 set-up probes a few minutes apart,
raw batch medians moved by 10 % with the host and scaled ones by 3 %.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.025
REF_MS = 1.0


def warm_up() -> float:
    """Run the kernel 20 times, as the first calls of an interpreter run slow;
    returns their harmonic mean in ms, the set-up's speed reference."""
    times = []
    for _ in range(20):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.harmonic_mean(times) * 1e3


def kernel() -> int:
    """About 1 ms of dict, integer and list work, the mix titshom's loops use."""
    d = {}
    for i in range(4000):
        d[i] = (i * 7919) % 1009
    s = 0
    for k, v in d.items():
        s += k * v
    row = [d[k] for k in range(0, 4000, 3)]
    row.sort()
    return s + row[7]


class Sampler:
    """Times `kernel()` every INTERVAL_S seconds between `start()` and `stop()`."""

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        self.samples: list[float] = []
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0

    def _tick(self, signum, frame) -> None:
        c0 = time.process_time()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        if self.recorder is not None:
            self.recorder.pause(t0)
        self.spent_s += time.perf_counter() - t0
        self.spent_cpu_s += time.process_time() - c0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def kernel_ms(self) -> float:
        """Harmonic mean kernel time over the pass, or REF_MS if nothing was sampled."""
        return statistics.harmonic_mean(self.samples) * 1e3 if self.samples else REF_MS
