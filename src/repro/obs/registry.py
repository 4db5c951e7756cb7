"""The unified metrics registry: counters, gauges and histograms.

Before this package existed every service kept its own ``*Stats``
dataclass and EXPERIMENTS scraped eight of them with no common snapshot,
timing or export path. :class:`MetricsRegistry` is the one measurement
substrate: services create named instruments here, the exporter in
:mod:`repro.obs.export` renders them, and the legacy ``service.stats``
attributes survive as :class:`RegistryBackedStats` write-through views so
nothing that reads them had to change.

Time-derived metrics (histogram timers, span durations) are keyed off the
deployment's *virtual* clock: the registry takes a ``clock`` callable and
:class:`~repro.core.middleware.Garnet` passes ``Simulator.now``, so a
latency histogram measures simulated seconds, reproducibly, not host
wall-clock jitter.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable, Iterator
from contextlib import contextmanager

from repro.errors import GarnetError

#: Default histogram bucket upper bounds, in seconds. Spans the range from
#: one fixed-network hop (0.5 ms) to a multi-retry actuation round trip.
DEFAULT_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)


class MetricError(GarnetError):
    """Raised on metric misuse: name collisions across types, bad values."""


class Counter:
    """A named cumulative value.

    ``set`` exists so the legacy write-through stats views can assign
    (``stats.received += 1`` reads then writes); new instrumentation
    should stick to :meth:`inc`.
    """

    __slots__ = ("name", "help", "_value")

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self._value += amount

    def set(self, value: float) -> None:
        self._value = float(value)


class Gauge:
    """A named value that can move in both directions."""

    __slots__ = ("name", "help", "_value")

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount


class Histogram:
    """Cumulative-bucket distribution of observed values.

    Buckets are Prometheus-style upper bounds with an implicit ``+Inf``;
    count, sum, min and max are tracked exactly alongside.
    """

    __slots__ = ("name", "help", "buckets", "_bucket_counts", "_count",
                 "_sum", "_min", "_max")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        help: str = "",
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise MetricError(
                f"histogram {name!r} buckets must be sorted and non-empty"
            )
        self.name = name
        self.help = help
        self.buckets = tuple(float(b) for b in buckets)
        self._bucket_counts = [0] * len(self.buckets)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        # _bucket_counts is per-bucket (non-cumulative); a single bisect
        # replaces a full scan on what is one of the simulator's hottest
        # calls (every scheduled event and finished span lands here).
        # The <= re-check keeps NaN observations out of bucket 0, exactly
        # as the old linear scan did.
        buckets = self.buckets
        i = bisect_left(buckets, value)
        if i < len(buckets) and value <= buckets[i]:
            self._bucket_counts[i] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else math.nan

    @property
    def minimum(self) -> float:
        return self._min if self._count else math.nan

    @property
    def maximum(self) -> float:
        return self._max if self._count else math.nan

    def cumulative_buckets(self) -> dict[str, int]:
        """``{upper_bound: cumulative count}`` including ``+Inf``."""
        out: dict[str, int] = {}
        running = 0
        for bound, in_bucket in zip(self.buckets, self._bucket_counts):
            running += in_bucket  # stored per-bucket; cumulate on read
            out[format_bound(bound)] = running
        out["+Inf"] = self._count
        return out

    def summary(self) -> dict[str, float]:
        return {
            "count": float(self._count),
            "sum": self._sum,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
        }


def format_bound(bound: float) -> str:
    """Render a bucket bound the way Prometheus text format expects."""
    if bound == math.inf:
        return "+Inf"
    text = f"{bound:g}"
    return text


class MetricsRegistry:
    """Named instruments shared by one deployment's services.

    Instruments are get-or-create: asking twice for the same name returns
    the same object, so a service and an exporter never disagree about
    identity. Asking for the same name as a *different* instrument kind
    is a :class:`MetricError` — silent type confusion is how telemetry
    rots.
    """

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._clock = clock

    # ------------------------------------------------------------------
    # Instrument creation
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help=help)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] | None = None,
        help: str = "",
    ) -> Histogram:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise MetricError(
                    f"metric {name!r} already exists as {existing.kind}"
                )
            return existing
        metric = Histogram(name, buckets or DEFAULT_BUCKETS, help=help)
        self._metrics[name] = metric
        return metric

    def _get_or_create(self, cls, name: str, help: str = ""):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise MetricError(
                    f"metric {name!r} already exists as {existing.kind}"
                )
            return existing
        metric = cls(name, help=help)
        self._metrics[name] = metric
        return metric

    # ------------------------------------------------------------------
    # Clock & timing
    # ------------------------------------------------------------------
    @property
    def clock(self) -> Callable[[], float] | None:
        return self._clock

    def now(self) -> float:
        """The registry's time source (0.0 when no clock is installed)."""
        return self._clock() if self._clock is not None else 0.0

    @contextmanager
    def timer(self, name: str, buckets: tuple[float, ...] | None = None):
        """Time a block into histogram ``name`` using the virtual clock.

        >>> registry = MetricsRegistry(clock=lambda: 4.0)
        >>> with registry.timer("demo.seconds"):
        ...     pass
        >>> registry.histogram("demo.seconds").count
        1
        """
        histogram = self.histogram(name, buckets)
        start = self.now()
        try:
            yield histogram
        finally:
            histogram.observe(max(0.0, self.now() - start))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        return self._metrics.get(name)

    def value(self, name: str) -> float:
        """A counter/gauge's value (0.0 when absent) — snapshot helper."""
        metric = self._metrics.get(name)
        if metric is None or isinstance(metric, Histogram):
            return 0.0
        return metric.value

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def drop(self, name: str) -> None:
        """Forget a metric (used when a stats view re-homes elsewhere)."""
        self._metrics.pop(name, None)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Counter | Gauge | Histogram]:
        for name in sorted(self._metrics):
            yield self._metrics[name]

    def is_empty(self) -> bool:
        """True when nothing was ever recorded (all zero, no histograms)."""
        for metric in self._metrics.values():
            if isinstance(metric, Histogram):
                if metric.count:
                    return False
            elif metric.value != 0.0:
                return False
        return True

    def snapshot(self) -> dict:
        """One JSON-serialisable dict of every instrument's current state."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                summary = metric.summary()
                if metric.count == 0:
                    # NaNs are not JSON; an empty histogram reports nulls.
                    summary = {
                        "count": 0.0, "sum": 0.0,
                        "mean": None, "min": None, "max": None,
                    }
                summary["buckets"] = metric.cumulative_buckets()
                histograms[name] = summary
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
