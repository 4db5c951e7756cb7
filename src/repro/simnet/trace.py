"""Latency statistics with exact quantiles.

Counters, gauges and histograms live in :mod:`repro.obs`; this recorder
is what the Actuation Service keeps its ack latencies in
(``actuation.ack_latency``), which the control-path experiments read.
"""

from __future__ import annotations

import math
from bisect import insort


class LatencyRecorder:
    """Streaming latency statistics with exact quantiles.

    Samples are kept in sorted order (``bisect.insort``); deployments in
    this library record at most tens of thousands of latencies per run, so
    the O(n) insert is cheaper than maintaining a sketch and keeps the
    quantiles exact for EXPERIMENTS.md.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._sorted: list[float] = []
        self._sum = 0.0

    def record(self, latency: float) -> None:
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        insort(self._sorted, latency)
        self._sum += latency

    @property
    def count(self) -> int:
        return len(self._sorted)

    @property
    def mean(self) -> float:
        if not self._sorted:
            return math.nan
        return self._sum / len(self._sorted)

    @property
    def minimum(self) -> float:
        return self._sorted[0] if self._sorted else math.nan

    @property
    def maximum(self) -> float:
        return self._sorted[-1] if self._sorted else math.nan

    def quantile(self, q: float) -> float:
        """Exact q-quantile by linear interpolation; NaN when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if not self._sorted:
            return math.nan
        if len(self._sorted) == 1:
            return self._sorted[0]
        position = q * (len(self._sorted) - 1)
        low = int(math.floor(position))
        high = int(math.ceil(position))
        if low == high or self._sorted[low] == self._sorted[high]:
            return self._sorted[low]
        fraction = position - low
        # lo + (hi - lo) * f rounds monotonically in f, so quantiles never
        # decrease as q grows; lo * (1 - f) + hi * f can, by an ulp.
        lo, hi = self._sorted[low], self._sorted[high]
        return min(lo + (hi - lo) * fraction, hi)

    @property
    def p50(self) -> float:
        return self.quantile(0.5)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def summary(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.minimum,
            "p50": self.p50,
            "p99": self.p99,
            "max": self.maximum,
        }
