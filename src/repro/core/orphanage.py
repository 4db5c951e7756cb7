"""The Orphanage: default consumer for un-configured data.

Section 4.2: "The Orphanage is a default consumer process which receives
un-configured data. There, data messages are analysed and potentially
stored."

The Orphanage keeps a bounded backlog per orphan stream (oldest messages
evicted first), runs pluggable analyses over arrivals, and can replay the
retained backlog to a consumer that subscribes late — turning the window
between deployment and first subscription from data loss into a catch-up.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

from repro.core.envelopes import StreamArrival
from repro.core.streamid import StreamId
from repro.obs.registry import MetricsRegistry
from repro.obs.stats import RegistryBackedStats
from repro.simnet.fixednet import FixedNetwork

INBOX = "garnet.orphanage"

Analyzer = Callable[[StreamArrival], None]


class OrphanageStats(RegistryBackedStats):
    PREFIX = "orphanage"

    received: int = 0
    evicted: int = 0
    """Backlog entries silently displaced by newer arrivals (bounded
    ``deque(maxlen)`` semantics made visible: an eviction is data loss,
    and capacity tuning needs a number to look at)."""
    replayed: int = 0
    discarded: int = 0


@dataclass(slots=True)
class OrphanStreamReport:
    """What the Orphanage has learned about one unclaimed stream."""

    stream_id: StreamId
    messages_seen: int
    messages_retained: int
    first_seen_at: float
    last_seen_at: float
    mean_payload_bytes: float
    mean_interarrival: float

    @property
    def estimated_rate(self) -> float:
        """Estimated messages/second, from mean inter-arrival time."""
        if self.mean_interarrival <= 0:
            return 0.0
        return 1.0 / self.mean_interarrival


class _OrphanStream:
    __slots__ = (
        "backlog",
        "messages_seen",
        "first_seen_at",
        "last_seen_at",
        "total_payload_bytes",
    )

    def __init__(self, capacity: int) -> None:
        self.backlog: deque[StreamArrival] = deque(maxlen=capacity)
        self.messages_seen = 0
        self.first_seen_at: float | None = None
        self.last_seen_at: float | None = None
        self.total_payload_bytes = 0


class Orphanage:
    """Bounded store + analysis for data no consumer has claimed."""

    def __init__(
        self,
        network: FixedNetwork,
        backlog_per_stream: int = 256,
        metrics: MetricsRegistry | None = None,
        inbox: str = INBOX,
    ) -> None:
        if backlog_per_stream < 0:
            raise ValueError("backlog_per_stream must be non-negative")
        self._network = network
        self._capacity = backlog_per_stream
        self._streams: dict[StreamId, _OrphanStream] = {}
        self._analyzers: list[Analyzer] = []
        self.inbox = inbox
        self.stats = OrphanageStats(metrics)
        network.register_inbox(inbox, self.on_arrival)

    @property
    def total_received(self) -> int:
        """Alias of ``stats.received`` (the historical attribute name)."""
        return self.stats.received

    def add_analyzer(self, analyzer: Analyzer) -> None:
        """Run ``analyzer`` over every orphaned arrival (policy hook)."""
        self._analyzers.append(analyzer)

    def on_arrival(self, arrival: StreamArrival) -> None:
        self.stats.received += 1
        stream_id = arrival.message.stream_id
        state = self._streams.get(stream_id)
        if state is None:
            state = _OrphanStream(self._capacity)
            self._streams[stream_id] = state
        state.messages_seen += 1
        if state.first_seen_at is None:
            state.first_seen_at = arrival.received_at
        state.last_seen_at = arrival.received_at
        state.total_payload_bytes += len(arrival.message.payload)
        if self._capacity > 0:
            if len(state.backlog) == self._capacity:
                # maxlen is about to displace the oldest entry; the deque
                # does it silently, the stats must not.
                self.stats.evicted += 1
            state.backlog.append(arrival)
        for analyzer in self._analyzers:
            analyzer(arrival)

    # ------------------------------------------------------------------
    def orphan_streams(self) -> list[StreamId]:
        """Streams currently holding orphaned data, in stable order."""
        return sorted(self._streams.keys())

    def report(self, stream_id: StreamId) -> OrphanStreamReport | None:
        """Analysis summary for one orphan stream; None when unseen."""
        state = self._streams.get(stream_id)
        if state is None or state.first_seen_at is None:
            return None
        span = (state.last_seen_at or 0.0) - state.first_seen_at
        intervals = state.messages_seen - 1
        return OrphanStreamReport(
            stream_id=stream_id,
            messages_seen=state.messages_seen,
            messages_retained=len(state.backlog),
            first_seen_at=state.first_seen_at,
            last_seen_at=state.last_seen_at or state.first_seen_at,
            mean_payload_bytes=(
                state.total_payload_bytes / state.messages_seen
                if state.messages_seen
                else 0.0
            ),
            mean_interarrival=(span / intervals if intervals > 0 else 0.0),
        )

    def replay(self, stream_id: StreamId, endpoint: str) -> int:
        """Send the retained backlog for ``stream_id`` to ``endpoint``.

        Returns the number of messages replayed. The backlog is kept (the
        stream stays orphaned until the Dispatching Service routes it
        elsewhere); callers typically follow a successful subscription
        with ``discard``.
        """
        state = self._streams.get(stream_id)
        if state is None:
            return 0
        arrivals = list(state.backlog)
        for arrival in arrivals:
            self._network.send(endpoint, arrival)
        self.stats.replayed += len(arrivals)
        return len(arrivals)

    def discard(self, stream_id: StreamId) -> int:
        """Drop state for a stream once a real consumer has claimed it."""
        state = self._streams.pop(stream_id, None)
        if state is None:
            return 0
        self.stats.discarded += len(state.backlog)
        return len(state.backlog)
