"""Host-speed normalisation of timings.

The benchmark runs on shared hosts whose speed for one process drifts by up
to 2x over seconds to minutes (other tenants on the same cores and caches),
which no amount of repetition within one run averages away.  `SpeedGauge`
runs a fixed reference kernel, which calls nothing of the package, between
the timed operations, and scales each operation's time by the kernel's
nominal time over its time measured around the operation.  A reported time
is then the time the operation would take on a host where the kernel takes
its nominal time: its typical time on the 2-core x86-64 VM the baseline was
recorded on.

Contention slows interpreted code and vectorised numpy code by different
amounts, so each workload names the kernel that matches its own mix:
`INTERPRETED` (dict and integer bytecode) for the workloads whose time goes
to the interpreter, `VECTORISED` (exp/cos/sin over outer products, the shape
of gsh_simulate's inner loop) for `gsh`.  A change to the package cannot
change a kernel's time, so it moves a normalised time exactly as much as it
moves the raw one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

CHUNK_S = 0.05  # timed work between two samples of the kernel
KERNEL_SHARE = 0.1  # a sample runs the kernel for this share of the work since the last


@dataclass(frozen=True)
class Kernel:
    run: Callable[[], float]
    nominal_s: float  # time of one run on the baseline host, in a quiet phase


def _interpreted() -> float:
    table: dict[int, int] = {}
    total = 0
    for i in range(20_000):
        key = i * 7919 % 1009
        table[key] = table.get(key, 0) + (i & 3)
        total += key * key % 13
    return float(total)


_US = np.linspace(1000.0, 1010.0, 500)
_DECAY = np.linspace(0.01, 0.5, 512)
_ORDINATES = np.linspace(10.0, 1e4, 512)


def _vectorised() -> float:
    damp = np.exp(-np.outer(_US, _DECAY))
    phase = np.outer(_US, _ORDINATES)
    return float((damp * (0.3 * np.cos(phase) - 0.2 * np.sin(phase))).sum())


INTERPRETED = Kernel(_interpreted, 0.004)
VECTORISED = Kernel(_vectorised, 0.012)


def sample(kernel: Kernel, at_least: float) -> float:
    """Mean time of one kernel run, over runs lasting at least `at_least`
    seconds in all (and at least one run)."""
    runs = 0
    start = time.perf_counter()
    while True:
        kernel.run()
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= at_least:
            return elapsed / runs


class SpeedGauge:
    """Samples a kernel between operations and turns raw times into
    normalised ones.

    Call `checkpoint()` before the first operation, `record(seconds)` after
    each, `checkpoint()` again whenever `due()` and once after the last; then
    `factors()` gives one scale factor per recorded operation, from the mean
    of the samples just before and just after its stretch of work.  A sample
    runs the kernel for KERNEL_SHARE of the work since the last one, so the
    kernel costs about that share of the run whatever the length of an
    operation.
    """

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.samples: list[float] = []
        self.stretch: list[int] = []  # per operation, the sample that precedes it
        self.since = 0.0

    def due(self) -> bool:
        return self.since >= CHUNK_S

    def checkpoint(self) -> None:
        self.samples.append(sample(self.kernel, KERNEL_SHARE * max(self.since, CHUNK_S)))
        self.since = 0.0

    def record(self, seconds: float) -> None:
        self.stretch.append(len(self.samples) - 1)
        self.since += seconds

    def factors(self) -> list[float]:
        if self.stretch and self.stretch[-1] + 1 >= len(self.samples):
            raise RuntimeError("SpeedGauge needs a checkpoint after the last operation")
        return [2.0 * self.kernel.nominal_s / (self.samples[i] + self.samples[i + 1])
                for i in self.stretch]


def normalised(seconds: float) -> float:
    """`seconds` of interpreted work just done, at nominal speed, from a
    sample of the interpreted kernel taken now."""
    at_least = KERNEL_SHARE * max(seconds, CHUNK_S)
    return seconds * INTERPRETED.nominal_s / sample(INTERPRETED, at_least)
