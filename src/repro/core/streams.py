"""Data streams as a first-class abstraction (Sections 2 and 5).

Garnet's defining design choice is that *streams*, not sensors or
physical artefacts, are the unit of management: "by emphasising the
importance and flexibility of the data streams, we facilitate ease of
separation of the data from the object of interest" (Section 2).

:class:`StreamDescriptor` is the middleware's bookkeeping record for one
stream — its advertised metadata, observed statistics and configuration
overview. :class:`StreamRegistry` is the shared catalogue that the
Dispatching Service, pub/sub broker, Orphanage and Resource Manager all
consult.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.streamid import StreamId
from repro.errors import RegistrationError


@dataclass(slots=True)
class StreamStatistics:
    """Running statistics maintained per stream by the fixed network."""

    messages: int = 0
    bytes: int = 0
    duplicates_dropped: int = 0
    first_seen_at: float | None = None
    last_seen_at: float | None = None
    last_sequence: int | None = None

    def observe(
        self, time: float, payload_bytes: int, sequence: int, messages: int = 1
    ) -> None:
        """Fold in ``messages`` messages received at ``time``, carrying
        ``payload_bytes`` between them, the last numbered ``sequence``.

        A run observed in one call leaves exactly what observing its
        messages one by one would, because a run shares one ``time``.
        """
        self.messages += messages
        self.bytes += payload_bytes
        if self.first_seen_at is None:
            self.first_seen_at = time
        self.last_seen_at = time
        self.last_sequence = sequence

    @property
    def mean_rate(self) -> float:
        """Observed messages/second over the stream's lifetime (0 if unknown)."""
        if (
            self.first_seen_at is None
            or self.last_seen_at is None
            or self.messages < 2
        ):
            return 0.0
        span = self.last_seen_at - self.first_seen_at
        if span <= 0:
            return 0.0
        return (self.messages - 1) / span


@dataclass(slots=True)
class StreamDescriptor:
    """Everything the middleware knows about one data stream."""

    stream_id: StreamId
    kind: str = ""
    """Free-form advertised type tag, e.g. ``"water.level"``; consumers
    discover streams by matching on it (the payload itself stays opaque)."""

    publisher: str = ""
    """Endpoint name of the publishing consumer for derived streams;
    empty for physical sensor streams."""

    encrypted: bool = False
    attributes: dict[str, Any] = field(default_factory=dict)
    stats: StreamStatistics = field(default_factory=StreamStatistics)

    @property
    def is_derived(self) -> bool:
        return self.stream_id.is_derived


class StreamRegistry:
    """The shared catalogue of known streams.

    Streams enter the registry two ways, matching Section 4.2: they are
    *advertised* ahead of time (with metadata), or they are *detected*
    when un-configured data first arrives ("permits un-configured data
    streams to be detected") — in which case a bare descriptor is created
    and the Orphanage takes custody of the data until someone subscribes.
    """

    def __init__(self) -> None:
        self._streams: dict[StreamId, StreamDescriptor] = {}

    def __len__(self) -> int:
        return len(self._streams)

    def __contains__(self, stream_id: StreamId) -> bool:
        return stream_id in self._streams

    def advertise(
        self,
        stream_id: StreamId,
        kind: str = "",
        publisher: str = "",
        encrypted: bool = False,
        attributes: dict[str, Any] | None = None,
    ) -> StreamDescriptor:
        """Register a stream with metadata; re-advertising updates metadata."""
        stream_id.validate()
        descriptor = self._streams.get(stream_id)
        if descriptor is None:
            descriptor = StreamDescriptor(stream_id=stream_id)
            self._streams[stream_id] = descriptor
        descriptor.kind = kind or descriptor.kind
        descriptor.publisher = publisher or descriptor.publisher
        descriptor.encrypted = encrypted or descriptor.encrypted
        if attributes:
            descriptor.attributes.update(attributes)
        return descriptor

    def detect(self, stream_id: StreamId) -> StreamDescriptor:
        """Record a stream first seen as arriving data (no metadata)."""
        descriptor = self._streams.get(stream_id)
        if descriptor is None:
            descriptor = StreamDescriptor(stream_id=stream_id)
            self._streams[stream_id] = descriptor
        return descriptor

    def get(self, stream_id: StreamId) -> StreamDescriptor:
        try:
            return self._streams[stream_id]
        except KeyError as exc:
            raise RegistrationError(f"unknown stream {stream_id}") from exc

    def find(self, stream_id: StreamId) -> StreamDescriptor | None:
        return self._streams.get(stream_id)

    def remove(self, stream_id: StreamId) -> None:
        if self._streams.pop(stream_id, None) is None:
            raise RegistrationError(f"unknown stream {stream_id}")

    def all_streams(self) -> list[StreamDescriptor]:
        """All descriptors, in stable (sensor id, stream index) order."""
        return [
            self._streams[key] for key in sorted(self._streams.keys())
        ]

    def match(
        self,
        kind: str | None = None,
        sensor_id: int | None = None,
        derived: bool | None = None,
        predicate: Any = None,
    ) -> list[StreamDescriptor]:
        """Discovery query over advertised metadata (Section 3).

        ``kind`` supports a trailing ``*`` wildcard (``"water.*"``);
        ``predicate`` is an optional callable over the descriptor for
        queries the simple fields cannot express.
        """
        results = []
        for descriptor in self.all_streams():
            if sensor_id is not None and descriptor.stream_id.sensor_id != sensor_id:
                continue
            if derived is not None and descriptor.is_derived != derived:
                continue
            if kind is not None and not _kind_matches(kind, descriptor.kind):
                continue
            if predicate is not None and not predicate(descriptor):
                continue
            results.append(descriptor)
        return results


def _kind_matches(pattern: str, kind: str) -> bool:
    if pattern.endswith("*"):
        return kind.startswith(pattern[:-1])
    return kind == pattern
