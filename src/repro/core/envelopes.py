"""Envelope records exchanged between services over the fixed network.

These are the in-network representations wrapping wire messages with the
reception metadata that later services need (Figure 1's arrows). They are
deliberately plain, immutable records: services stay decoupled by sharing
only these shapes.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Any, NamedTuple

from repro.core.message import CHECKSUM_BYTES, FIXED_HEADER_BYTES, DataMessage
from repro.core.message import frame_messages
from repro.core.streamid import StreamId
from repro.util.ids import SequenceWindow

#: What a frame of the common shape carries besides its payload.
_OVERHEAD = FIXED_HEADER_BYTES + CHECKSUM_BYTES


@dataclass(frozen=True, slots=True)
class Reception:
    """One receiver's copy of a sensor transmission → Filtering Service."""

    message: DataMessage
    receiver_id: int
    rssi: float
    received_at: float


class StreamArrival(NamedTuple):
    """A deduplicated, ordered message → Dispatching Service → consumers.

    A ``NamedTuple``, built per delivery at under half the cost of a
    frozen dataclass with the same fields, order and repr."""

    message: DataMessage
    #: When the first surviving copy reached a receiver (virtual time).
    received_at: float
    #: The receiver whose copy survived filtering (diagnostic only).
    receiver_id: int
    #: Stamped by the Dispatching Service on hand-off to each consumer.
    delivered_at: float = 0.0


#: ``new_arrival(StreamArrival, (message, received_at, receiver_id,
#: delivered_at))`` builds an arrival in one C call; calling the class
#: runs the NamedTuple's Python-level ``__new__`` first. For the per-frame
#: construction sites, which always pass all four fields.
new_arrival = tuple.__new__


class FrameRun:
    """A live drain's run of one stream's frames, each checked once by
    :meth:`~repro.core.message.MessageCodec.walk`, with their sequences
    and payload byte total. A leg that forwards bytes takes ``frames``;
    iterating the run gives its arrivals (published: ``receiver_id``
    -1), built once, on first use, from ``messages`` when the walk had
    to decode (None when it did not)."""

    __slots__ = (
        "stream_id", "received_at", "frames", "sequences", "payload",
        "messages", "_built",
    )

    def __init__(
        self,
        stream_id: StreamId,
        received_at: float,
        frames: Sequence[bytes],
        sequences: list[int],
        payload: int,
        messages: list[DataMessage] | None = None,
    ) -> None:
        self.stream_id, self.received_at = stream_id, received_at
        self.frames, self.sequences, self.payload = frames, sequences, payload
        self.messages = messages
        self._built: list[StreamArrival] | None = None

    def extend(
        self, frames: Sequence[bytes], sequences: list[int], payload: int,
        messages: list[DataMessage] | None,
    ) -> None:
        """Append the next stretch of this stream."""
        if messages is not None or self.messages is not None:
            built = messages or frame_messages(self.stream_id, frames, sequences)
            self.messages = [*self._messages(), *built]
        self.frames = [*self.frames, *frames]
        self.sequences += sequences
        self.payload += payload

    def _messages(self) -> list[DataMessage]:
        return self.messages or frame_messages(
            self.stream_id, self.frames, self.sequences
        )

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self) -> Iterator[StreamArrival]:
        if self._built is None:
            stamp = self.received_at
            self._built = [
                new_arrival(StreamArrival, (message, stamp, -1, 0.0))
                for message in self._messages()
            ]
        return iter(self._built)

    def kept(self, window: SequenceWindow) -> tuple[FrameRun, int]:
        """The run less what ``window`` refuses, and how many it refused."""
        (frames, sequences, messages), refused = window.keep(
            self.sequences, self.frames, self.sequences, self.messages or ()
        )
        if not refused:
            return self, 0
        payload = (
            sum(len(message.payload) for message in messages)
            if messages
            else sum(map(len, frames)) - _OVERHEAD * len(frames)
        )
        return FrameRun(
            self.stream_id, self.received_at, frames, sequences, payload,
            messages or None,
        ), refused


@dataclass(frozen=True, slots=True)
class LocationObservation:
    """Reception metadata → Location Service (Section 4.2: location
    information "inferred by the Receivers")."""

    sensor_id: int
    receiver_id: int
    rssi: float
    observed_at: float


@dataclass(frozen=True, slots=True)
class LocationHint:
    """An application-supplied location estimate for a sensor (Section 5:
    "we allow consumer processes to provide location hints instead")."""

    sensor_id: int
    x: float
    y: float
    confidence_radius: float
    supplied_by: str
    supplied_at: float


@dataclass(frozen=True, slots=True)
class AckNotice:
    """A sensor's acknowledgement of a stream update request, extracted
    from a data message by the Filtering Service → Actuation Service."""

    request_id: int
    sensor_id: int
    observed_at: float
    status: int = 0


@dataclass(frozen=True, slots=True)
class StateChangeReport:
    """A sophisticated consumer's state-change detail → Super Coordinator
    (Section 4.2)."""

    consumer: str
    state: str
    reported_at: float
    detail: dict[str, Any] | None = None


@dataclass(frozen=True, slots=True)
class TransmitOrder:
    """An encoded control frame → Message Replicator → Transmitters."""

    frame: bytes
    target_sensor_id: int
    request_id: int


@dataclass(frozen=True, slots=True)
class StreamAdvertisement:
    """Broker notification that a stream appeared or changed metadata."""

    stream_id: StreamId
    kind: str
    encrypted: bool
    advertised_at: float
