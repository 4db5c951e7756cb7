"""StreamStore: the pluggable per-stream append-only segment log.

The store keeps one ordered run of :class:`~repro.store.segment.Segment`
objects per stream. Appends go to the stream's *active* segment; when it
exceeds ``segment_bytes`` it is sealed and a fresh one opened
(``store.segments_rotated``). Three retention policies evict whole
*sealed* segments, oldest first (the active segment is never evicted):

- **per-stream segment count** (``segments_per_stream``),
- **store-wide byte budget** (``max_bytes``, evicting the globally
  oldest sealed segment by last-record time),
- **age** (``max_age``, against the injected ``clock`` — virtual time in
  simulated deployments).

Evictions count ``store.segments_evicted`` / ``store.records_evicted``;
live occupancy is exported as the ``store.segments`` / ``store.bytes`` /
``store.streams`` gauges. Backends only implement segment construction
and deletion — every policy above lives here, so the memory and file
flavours behave identically by construction.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable

from repro.core.streamid import StreamId
from repro.errors import StoreError
from repro.obs.registry import MetricsRegistry
from repro.obs.stats import RegistryBackedStats
from repro.store.segment import Segment, StoredRecord


class StoreStats(RegistryBackedStats):
    PREFIX = "store"

    appended: int = 0
    bytes_appended: int = 0
    duplicates_skipped: int = 0
    """Appends suppressed by the write-through tap's dedupe window."""
    segments_rotated: int = 0
    segments_evicted: int = 0
    records_evicted: int = 0
    replays: int = 0
    """History replays served to late-join subscribers."""
    records_replayed: int = 0
    queries: int = 0
    """Time-range queries answered (session.query / QUERY frames)."""
    records_queried: int = 0
    truncated_tail: int = 0
    """Torn tail records discarded by crash-tolerant opens."""


class _StreamLog:
    """One stream's run of segments (metadata only; bytes live in them)."""

    __slots__ = ("stream_id", "segments", "next_index")

    def __init__(self, stream_id: StreamId) -> None:
        self.stream_id = stream_id
        # Oldest first; the final entry is the active (writable) segment.
        self.segments: list[Segment] = []
        self.next_index = 0


class StreamStore(ABC):
    """Append-only per-stream segment log behind a small uniform API."""

    def __init__(
        self,
        *,
        segment_bytes: int = 64 * 1024,
        segments_per_stream: int = 8,
        max_bytes: int | None = None,
        max_age: float | None = None,
        clock: Callable[[], float] | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if segment_bytes < 1:
            raise StoreError("segment_bytes must be at least 1")
        if segments_per_stream < 1:
            raise StoreError("segments_per_stream must be at least 1")
        if max_bytes is not None and max_bytes < 1:
            raise StoreError("max_bytes must be at least 1 byte")
        if max_age is not None and max_age <= 0:
            raise StoreError("max_age must be positive")
        self._segment_bytes = segment_bytes
        self._segments_per_stream = segments_per_stream
        self._max_bytes = max_bytes
        self._max_age = max_age
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._logs: dict[StreamId, _StreamLog] = {}
        self._total_bytes = 0
        self._total_segments = 0
        self._closed = False
        self.stats = StoreStats(metrics)
        self._appended = self.stats.counter("appended")
        self._bytes_appended = self.stats.counter("bytes_appended")
        registry = self.stats.registry
        self._segments_gauge = registry.gauge(
            "store.segments", help="segments currently held across streams"
        )
        self._bytes_gauge = registry.gauge(
            "store.bytes", help="record bytes currently held"
        )
        self._streams_gauge = registry.gauge(
            "store.streams", help="streams with at least one stored record"
        )

    # ------------------------------------------------------------------
    # Backend hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def _open_segment(self, stream_id: StreamId, index: int) -> Segment:
        """Create (and open for append) segment ``index`` of a stream."""

    # ------------------------------------------------------------------
    # Append path
    # ------------------------------------------------------------------
    def append(
        self,
        stream_id: StreamId,
        received_at: float,
        receiver_id: int,
        frame: bytes,
    ) -> None:
        """Append one codec frame to ``stream_id``'s log."""
        self._require_open()
        log = self._logs.get(stream_id)
        if log is None:
            log = _StreamLog(stream_id)
            self._logs[stream_id] = log
        active = log.segments[-1] if log.segments else None
        opened = active is None or active.bytes_held >= self._segment_bytes
        if opened:
            if active is not None:
                active.seal()
                self.stats.segments_rotated += 1
            active = self._push_segment(log)
        written = active.append(received_at, receiver_id, frame)
        self._total_bytes += written
        self._appended.inc()
        self._bytes_appended.inc(written)
        # Only a new segment, the clock or the byte budget makes anything
        # evictable; every other append moves one gauge and sweeps nothing.
        if opened or self._max_age is not None or self._max_bytes is not None:
            self._enforce_retention()
            self._update_gauges()
        else:
            self._bytes_gauge.set(float(self._total_bytes))

    def _push_segment(self, log: _StreamLog) -> Segment:
        segment = self._open_segment(log.stream_id, log.next_index)
        log.next_index += 1
        log.segments.append(segment)
        self._total_segments += 1
        return segment

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def _enforce_retention(self) -> None:
        # Per-stream segment count: only the appending stream can exceed
        # its cap, but sweep all logs so reopened stores settle too.
        for log in list(self._logs.values()):
            while len(log.segments) > self._segments_per_stream:
                self._evict(log, log.segments[0])
        if self._max_age is not None:
            horizon = self._clock() - self._max_age
            for log in list(self._logs.values()):
                while (
                    len(log.segments) > 1
                    and log.segments[0].last_at is not None
                    and log.segments[0].last_at < horizon
                ):
                    self._evict(log, log.segments[0])
        if self._max_bytes is not None:
            while self._total_bytes > self._max_bytes:
                victim = self._oldest_sealed()
                if victim is None:
                    break  # only active segments remain
                self._evict(*victim)

    def _oldest_sealed(self) -> tuple[_StreamLog, Segment] | None:
        best: tuple[_StreamLog, Segment] | None = None
        for log in self._logs.values():
            if len(log.segments) < 2:
                continue
            head = log.segments[0]
            if best is None or (head.last_at or 0.0) < (
                best[1].last_at or 0.0
            ):
                best = (log, head)
        return best

    def _evict(self, log: _StreamLog, segment: Segment) -> None:
        log.segments.remove(segment)
        self._total_segments -= 1
        self._total_bytes -= segment.bytes_held
        self.stats.segments_evicted += 1
        self.stats.records_evicted += segment.records_held
        segment.delete()
        if not log.segments:
            del self._logs[log.stream_id]

    def _update_gauges(self) -> None:
        self._segments_gauge.set(float(self._total_segments))
        self._bytes_gauge.set(float(self._total_bytes))
        self._streams_gauge.set(float(len(self._logs)))

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def read(
        self,
        stream_id: StreamId,
        start: float | None = None,
        end: float | None = None,
        limit: int | None = None,
    ) -> list[StoredRecord]:
        """Records of one stream in append order, filtered to [start, end].

        ``start``/``end`` are inclusive bounds on ``received_at``; None
        leaves that side open. ``limit`` caps the result (earliest
        records win, matching replay semantics) and must be at least 1.
        """
        self._require_open()
        if limit is not None and limit < 1:
            raise StoreError(f"limit must be at least 1, got {limit}")
        log = self._logs.get(stream_id)
        if log is None:
            return []
        out: list[StoredRecord] = []
        for segment in log.segments:
            # Whole-segment pruning off the metadata envelope.
            if start is not None and segment.last_at is not None:
                if segment.last_at < start:
                    continue
            if end is not None and segment.first_at is not None:
                if segment.first_at > end:
                    break
            for received_at, receiver_id, frame in segment.records():
                if start is not None and received_at < start:
                    continue
                if end is not None and received_at > end:
                    continue
                out.append(
                    StoredRecord(
                        stream_id=stream_id,
                        received_at=received_at,
                        receiver_id=receiver_id,
                        frame=frame,
                    )
                )
                if limit is not None and len(out) >= limit:
                    return out
        return out

    def streams(self) -> list[StreamId]:
        """Every stream with at least one retained record, sorted."""
        self._require_open()
        return sorted(self._logs)

    def segment_count(self, stream_id: StreamId | None = None) -> int:
        if stream_id is None:
            return self._total_segments
        log = self._logs.get(stream_id)
        return len(log.segments) if log is not None else 0

    def record_count(self, stream_id: StreamId) -> int:
        log = self._logs.get(stream_id)
        if log is None:
            return 0
        return sum(segment.records_held for segment in log.segments)

    @property
    def total_bytes(self) -> int:
        return self._total_bytes

    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise StoreError("store is closed")

    def close(self) -> None:
        """Flush and release backend resources. Idempotent."""
        if self._closed:
            return
        self._closed = True
        for log in self._logs.values():
            for segment in log.segments:
                segment.seal()

    def __enter__(self) -> "StreamStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["StoreStats", "StreamStore"]
