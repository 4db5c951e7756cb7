"""Socket framing for the live transport's two planes.

**Control plane (TCP).** A byte stream needs explicit message
boundaries. Every control frame is::

    [4-byte length, big-endian][1-byte frame type][JSON body, UTF-8]

where the length counts the type byte plus the body. Responses echo the
request's type with the high bit set (``type | RESPONSE_FLAG``) and
always carry ``{"ok": true, ...}`` or ``{"ok": false, "error": ...}``.

**Data plane (UDP).** No extra framing at all: one datagram is exactly
one :class:`~repro.core.message.MessageCodec` message — the Figure 2
wire format already delimits and checksums itself, so wrapping it again
would just duplicate the codec's job.

:class:`ControlFrameAssembler` reassembles control frames from
arbitrarily fragmented stream chunks (TCP guarantees order, not
boundaries); both the broker and the client run one per connection, and
the partial-read tests drive it byte by byte.

:data:`CONTROL_BODIES` is what a request body may say — frame type →
field → check — and :func:`parse_control_body` applies it; the broker
runs it on every frame before any handler.
"""

from __future__ import annotations

import json
import math
import struct
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import Any

from repro.core.message import MAX_SEQUENCE
from repro.core.streamid import MAX_SENSOR_ID, MAX_STREAM_INDEX, StreamId
from repro.errors import TransportError


#: struct for the 4-byte big-endian length prefix.
_LENGTH = struct.Struct(">I")
LENGTH_PREFIX_BYTES = _LENGTH.size

#: Upper bound on one control frame (type byte + JSON body). Control
#: bodies are small metadata; anything bigger is a corrupt or hostile
#: stream and tearing the connection down beats buffering it.
MAX_CONTROL_FRAME = 1 << 20

#: Largest frame one IPv4 UDP datagram carries (65,535 minus the IP and
#: UDP headers) — less than the largest frame the codec will build.
MAX_UDP_PAYLOAD = 65507

#: High bit distinguishes a response from the request it answers.
RESPONSE_FLAG = 0x80

# Request frame types (the full control vocabulary).
HELLO = 0x01
SUBSCRIBE = 0x02
UNSUBSCRIBE = 0x03
DISCOVER = 0x04
ADVERTISE = 0x05
PING = 0x06
CLOSE = 0x07
QUERY = 0x08
RESUME = 0x09
NACK = 0x0A

CONTROL_FRAME_NAMES: dict[int, str] = {
    HELLO: "HELLO",
    SUBSCRIBE: "SUBSCRIBE",
    UNSUBSCRIBE: "UNSUBSCRIBE",
    DISCOVER: "DISCOVER",
    ADVERTISE: "ADVERTISE",
    PING: "PING",
    CLOSE: "CLOSE",
    QUERY: "QUERY",
    RESUME: "RESUME",
    NACK: "NACK",
}


def encode_control_frame(frame_type: int, body: dict) -> bytes:
    """Serialise one control frame (request or response)."""
    if not 0 <= frame_type <= 0xFF:
        raise TransportError(f"frame type {frame_type} not a byte")
    encoded = json.dumps(body, separators=(",", ":")).encode("utf-8")
    length = 1 + len(encoded)
    if length > MAX_CONTROL_FRAME:
        raise TransportError(
            f"control frame of {length} bytes exceeds {MAX_CONTROL_FRAME}"
        )
    return _LENGTH.pack(length) + bytes([frame_type]) + encoded


# ----------------------------------------------------------------------
# Request bodies: every field a control frame may carry, stated once
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BodyField:
    """One field of a request body.

    ``type`` and ``range`` are how docs/protocol.md §6.2 prints it
    (``tests/test_protocol_doc.py`` holds the two together); ``parse``
    returns the typed value or raises ``ValueError``.
    """

    type: str
    range: str
    parse: Callable[[Any], Any]
    required: bool = False

    @property
    def needed(self) -> "BodyField":
        return replace(self, required=True)


def _integer(low: int, high: int | None = None) -> BodyField:
    def parse(value: Any) -> int:
        # JSON's true is a Python int too; a port or an id is not one.
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError
        if value < low or (high is not None and value > high):
            raise ValueError
        return value

    span = f"≥ {low}" if high is None else f"{low}..{high}"
    return BodyField("integer", span, parse)


def _number(positive: bool) -> BodyField:
    def parse(value: Any) -> float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError
        value = float(value)  # OverflowError for an int past the doubles
        if not math.isfinite(value) or (positive and value <= 0):
            raise ValueError
        return value

    return BodyField("number", "finite, > 0" if positive else "finite", parse)


def _instance(label: str, span: str, kind: type, empty_ok: bool = True) -> BodyField:
    def parse(value: Any) -> Any:
        if not isinstance(value, kind) or not (empty_ok or value):
            raise ValueError
        return value

    return BodyField(label, span, parse)


_SENSOR = _integer(0, MAX_SENSOR_ID)
_INDEX = _integer(0, MAX_STREAM_INDEX)
_SEQUENCE = _integer(0, MAX_SEQUENCE)
_NAME = _instance("string", "non-empty", str, empty_ok=False)
_TEXT = _instance("string", "any", str)
_FLAG = _instance("boolean", "true, false", bool)
_TIME = _number(positive=False)


def _stream_pair(value: Any) -> StreamId:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError
    return StreamId(_SENSOR.parse(value[0]), _INDEX.parse(value[1]))


def _sequence_list(value: Any) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise ValueError
    return tuple(_SEQUENCE.parse(sequence) for sequence in value)


def _cursor_map(value: Any) -> dict[StreamId, int]:
    if not isinstance(value, dict):
        raise ValueError
    cursors = {}
    for key, sequence in value.items():
        sensor, _, index = key.partition(":")
        if not (sensor + index).isascii() or not (
            sensor.isdigit() and index.isdigit()
        ):
            raise ValueError
        stream = _stream_pair([int(sensor), int(index)])
        cursors[stream] = _SEQUENCE.parse(sequence)
    return cursors


_STREAM = BodyField(
    "pair", f"[{_SENSOR.range}, {_INDEX.range}]", _stream_pair
)
_SEQUENCES = BodyField(
    "list of integers", f"non-empty, each {_SEQUENCE.range}", _sequence_list
)
_CURSORS = BodyField(
    "object", f'"sensor:index" → {_SEQUENCE.range}', _cursor_map
)
_PATTERN = {
    "stream_id": _STREAM,
    "sensor_id": _SENSOR,
    "stream_index": _INDEX,
    "kind": _TEXT,
    "derived": _FLAG,
}
_HANDSHAKE = {
    "udp_port": _integer(1, 65535).needed,
    "keepalive": _number(positive=True),
    "batch_datagrams": _FLAG,
}

#: frame type → field → check. The whole request vocabulary: a field not
#: listed is ignored, a listed one is absent (``null`` counts as absent)
#: or passes its check, and ``needed`` ones must be present.
CONTROL_BODIES: dict[int, dict[str, BodyField]] = {
    HELLO: {"name": _NAME.needed, **_HANDSHAKE},
    SUBSCRIBE: {**_PATTERN, "replay": _TEXT},
    UNSUBSCRIBE: {"subscription_id": _integer(0).needed},
    DISCOVER: {"kind": _TEXT, "sensor_id": _SENSOR, "derived": _FLAG},
    ADVERTISE: {
        "stream_index": _INDEX.needed,
        "kind": _TEXT,
        "encrypted": _FLAG,
    },
    PING: {},
    CLOSE: {},
    QUERY: {
        "stream_id": _STREAM.needed,
        "start": _TIME,
        "end": _TIME,
        "limit": _integer(1),
    },
    RESUME: {"token": _NAME.needed, **_HANDSHAKE, "cursors": _CURSORS},
    NACK: {"stream_id": _STREAM.needed, "sequences": _SEQUENCES.needed},
}


def parse_control_body(frame_type: int, body: dict) -> dict[str, Any]:
    """The typed fields of one request body, every table field present.

    Absent optional fields come back as None. Anything the table does
    not allow raises :class:`TransportError` naming the frame, the field
    and the rule — before the caller has acted on any of it.
    """
    spec = CONTROL_BODIES.get(frame_type)
    if spec is None:
        raise TransportError(f"unknown frame type 0x{frame_type:02x}")
    if not isinstance(body, dict):
        raise TransportError(f"a request body is a JSON object, got {body!r:.80}")
    frame_name = CONTROL_FRAME_NAMES[frame_type]
    fields: dict[str, Any] = {}
    for name, field in spec.items():
        value = body.get(name)
        if value is None:
            if field.required:
                raise TransportError(f"{frame_name} needs {name!r}")
            fields[name] = None
            continue
        try:
            fields[name] = field.parse(value)
        except (ValueError, OverflowError):
            raise TransportError(
                f"{frame_name} {name!r} must be {field.type} "
                f"({field.range}), got {value!r:.80}"
            ) from None
    return fields


class ControlFrameAssembler:
    """Reassembles control frames from a fragmented TCP byte stream.

    ``feed`` accepts whatever chunk the socket produced — half a length
    prefix, three frames and a tail, anything — and returns every frame
    completed by it, preserving order. State carries across calls.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)

    def feed(self, chunk: bytes) -> list[tuple[int, dict]]:
        self._buffer.extend(chunk)
        frames: list[tuple[int, dict]] = []
        while True:
            if len(self._buffer) < LENGTH_PREFIX_BYTES:
                return frames
            (length,) = _LENGTH.unpack_from(self._buffer)
            if length < 1 or length > MAX_CONTROL_FRAME:
                raise TransportError(
                    f"control frame length {length} out of range"
                )
            end = LENGTH_PREFIX_BYTES + length
            if len(self._buffer) < end:
                return frames
            frame_type = self._buffer[LENGTH_PREFIX_BYTES]
            raw = bytes(self._buffer[LENGTH_PREFIX_BYTES + 1 : end])
            del self._buffer[:end]
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise TransportError(
                    f"control frame body is not JSON: {exc}"
                ) from exc
            if not isinstance(body, dict):
                raise TransportError(
                    f"control frame body must be an object, got {body!r}"
                )
            frames.append((frame_type, body))


__all__ = [
    "TransportError",
    "LENGTH_PREFIX_BYTES",
    "MAX_CONTROL_FRAME",
    "MAX_UDP_PAYLOAD",
    "RESPONSE_FLAG",
    "HELLO",
    "SUBSCRIBE",
    "UNSUBSCRIBE",
    "DISCOVER",
    "ADVERTISE",
    "PING",
    "CLOSE",
    "QUERY",
    "RESUME",
    "NACK",
    "CONTROL_FRAME_NAMES",
    "CONTROL_BODIES",
    "BodyField",
    "parse_control_body",
    "encode_control_frame",
    "ControlFrameAssembler",
]
