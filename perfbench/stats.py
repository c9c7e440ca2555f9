"""Order statistics of latency samples."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Samples a tail percentile needs beyond it before it is reported.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """A tail percentile: its label, value and the samples that support it."""

    percentile: float
    value: float
    beyond: int
    count: int

    @property
    def label(self) -> str:
        return f"p{self.percentile:g}"


def median(samples) -> float:
    return float(np.median(np.asarray(samples, dtype=float)))


def tail(samples) -> Tail:
    """The highest of p50, p90 and p95 with ``MIN_BEYOND`` samples beyond it.

    The rungs are fixed, so the reported percentile only moves when the
    sample count crosses a rung: 199 chunks report p90 (19 samples beyond),
    200 report p95 (10 beyond); fewer than ``2 * MIN_BEYOND`` samples fall
    back to the median.  The ladder stops at p95 because higher percentiles
    measure the host rather than the program: the slowest chunks are the
    ones that caught a stall of the shared VM.  Replaying one nab-moche
    input twice in one process gave p99 = 6.9 and 4.7 ms while the median
    alarm chunk moved 12% and p95 moved 9%.
    """
    values = np.asarray(samples, dtype=float)
    count = int(values.size)
    if count == 0:
        raise ValueError("no samples")
    percentile, beyond = 50.0, count // 2
    for candidate, one_in in ((90.0, 10), (95.0, 20)):
        if count // one_in >= MIN_BEYOND:
            percentile, beyond = candidate, count // one_in
    return Tail(percentile, float(np.percentile(values, percentile)), beyond, count)
