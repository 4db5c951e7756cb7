"""The Garnet data message and its bit-exact Figure 2 codec.

Wire layout (big-endian, bit offsets as printed in Figure 2):

```
bit #    0         8                 40         56           72
         +---------+-----------------+----------+------------+----------
         | Msg     | Stream ID       | Sequence | Payload    | PAYLOAD
         | Header  | (24+8 bits)     | (16 bit) | Size (16)  | (opaque)
         +---------+-----------------+----------+------------+----------
```

Optional fields announced by header flag bits sit between the fixed
header and the payload, in this fixed order:

1. ``ACK`` → 16-bit stream-update-request acknowledgement id;
2. ``RELAYED`` → 8-bit hop count;
3. ``EXTENDED`` → TLV block: 8-bit entry count, then per entry an 8-bit
   type, 8-bit length and that many value bytes.

Section 4.3 notes that "for simplicity, we do not indicate the usual
checksums associated with the data messages" — the checksums exist in the
implementation but not the figure. Every frame therefore ends in a
CRC-16/CCITT-FALSE over everything before it; there is no CRC-less
variant.

The payload is opaque: the codec moves bytes and never interprets them
(Section 4.3, "this provides a basic level of security").

Each direction has one fast path, for the common frame only: no ACK,
RELAYED or EXTENDED field. :func:`common_frame` builds it and
:meth:`MessageCodec.decode` parses it header-only. Every other shape,
and every error, goes through the validating reference codec
(:meth:`MessageCodec.encode_reference`, :meth:`MessageCodec.decode_reference`).
:meth:`MessageCodec.walk` checks a datagram's common frames in C-level
passes over the batch.
"""

from __future__ import annotations

import struct
from binascii import crc_hqx
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace
from itertools import accumulate, compress, repeat
from operator import ne

from repro.core.flags import (
    ExtensionType,
    HeaderFlags,
    PROTOCOL_VERSION,
    pack_header,
    unpack_header,
)
from repro.core.streamid import StreamId
from repro.errors import ChecksumError, CodecError, GarnetError
from repro.errors import TruncatedMessageError
from repro.util.bitfields import check_range, read_uint, write_uint
from repro.util.crc import crc16_ccitt_reference, crc16_ccitt_unwind

FIXED_HEADER_BYTES = 9
MAX_SEQUENCE = (1 << 16) - 1
MAX_PAYLOAD_BYTES = (1 << 16) - 1
MAX_EXTENSION_VALUE_BYTES = 255
MAX_EXTENSIONS = 255
CHECKSUM_BYTES = 2

# Precompiled layout of the 9-byte fixed header (Figure 2): header byte,
# 32-bit stream word, 16-bit sequence, 16-bit payload size — all
# big-endian. One C-level pack/unpack replaces four Python-level
# ``write_uint``/``read_uint`` calls on the hot path.
_FIXED_HEADER = struct.Struct(">BIHH")


def peek_header(frame: bytes) -> tuple[StreamId, int]:
    """``(stream id, sequence)`` off the fixed header of a frame this codec
    produced (a store record, a parked delivery): no decode, no checks."""
    _, stream_word, sequence, _ = _FIXED_HEADER.unpack_from(frame)
    return StreamId.from_word(stream_word), sequence


_F_ACK = int(HeaderFlags.ACK)
_F_FUSED = int(HeaderFlags.FUSED)
_F_RELAYED = int(HeaderFlags.RELAYED)
_F_EXTENDED = int(HeaderFlags.EXTENDED)
_F_ENCRYPTED = int(HeaderFlags.ENCRYPTED)
_VERSION_BYTE = PROTOCOL_VERSION << 5
#: The common shape, parsed header-only: these header bits read exactly
#: ``_VERSION_BYTE`` (no optional field), and the frame is header,
#: payload and CRC.
_COMMON_SHAPE_MASK = 0xE0 | _F_ACK | _F_RELAYED | _F_EXTENDED
_COMMON_OVERHEAD = FIXED_HEADER_BYTES + CHECKSUM_BYTES


def common_frame(
    flags: int, stream_word: int, sequence: int, payload: bytes
) -> bytes:
    """The frame of a message with no optional field: fixed header (with
    the FUSED / ENCRYPTED bits in ``flags``), payload and CRC-16.

    The one encoder of that shape, called by :meth:`MessageCodec._build_frame`
    and by a live session's publish. Nothing is range-checked here: both
    callers have checked the fields already.
    """
    body = _FIXED_HEADER.pack(
        _VERSION_BYTE | flags, stream_word, sequence, len(payload)
    ) + payload
    # crc16_ccitt is crc_hqx seeded 0xFFFF (repro.util.crc). Calling it
    # directly keeps the call depth of the encoder that was inline.
    return body + crc_hqx(body, 0xFFFF).to_bytes(2, "big")


_SET_FIELD = object.__setattr__

# Decoded StreamIds interned by wire word: a deployment has few distinct
# streams, so nearly every decode is a dict hit instead of a NamedTuple
# construction. Cleared wholesale if adversarial input floods it.
_STREAM_ID_CACHE: dict[int, StreamId] = {}
_STREAM_ID_CACHE_MAX = 4096


#: What a header-only decode leaves unset, and how each field derives
#: from the frame's header byte when first read.
_FLAG_DERIVED = {
    "fused": lambda header: bool(header & _F_FUSED),
    "encrypted": lambda header: bool(header & _F_ENCRYPTED),
    "ack_request_id": lambda header: None,
    "hop_count": lambda header: None,
    "extensions": lambda header: (),
    "version": lambda header: PROTOCOL_VERSION,
}


@dataclass(frozen=True, slots=True)
class DataMessage:
    """One message of a Garnet data stream (Section 4.3).

    Instances are immutable; derive variants with :func:`dataclasses.replace`
    or the ``with_*`` helpers.
    """

    stream_id: StreamId
    sequence: int
    payload: bytes = b""
    fused: bool = False
    encrypted: bool = False
    ack_request_id: int | None = None
    hop_count: int | None = None
    extensions: tuple[tuple[int, bytes], ...] = field(default_factory=tuple)
    version: int = PROTOCOL_VERSION
    #: The frame this message was decoded from or first encoded to,
    #: which :meth:`MessageCodec.encode` hands back instead of rebuilding
    #: it. Not part of the value: copies made by ``replace()`` /
    #: ``with_*`` start without one.
    wire: bytes | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __getattr__(self, name: str):
        # Reached only for an unset slot: a flag-derived field of a
        # message decoded header-only, read for the first time.
        derive = _FLAG_DERIVED.get(name)
        if derive is None:
            raise AttributeError(f"DataMessage has no attribute {name!r}")
        value = derive(self.wire[0])
        _SET_FIELD(self, name, value)
        return value

    @property
    def flags(self) -> HeaderFlags:
        """The header flag bits implied by the populated optional fields."""
        flags = HeaderFlags.NONE
        if self.ack_request_id is not None:
            flags |= HeaderFlags.ACK
        if self.fused:
            flags |= HeaderFlags.FUSED
        if self.hop_count is not None:
            flags |= HeaderFlags.RELAYED
        if self.extensions:
            flags |= HeaderFlags.EXTENDED
        if self.encrypted:
            flags |= HeaderFlags.ENCRYPTED
        return flags

    @property
    def is_relayed(self) -> bool:
        return self.hop_count is not None

    def with_ack(self, request_id: int) -> "DataMessage":
        """A copy acknowledging a stream update request (Section 4.3)."""
        return replace(self, ack_request_id=request_id)

    def with_extension(self, ext_type: int, value: bytes) -> "DataMessage":
        return replace(self, extensions=self.extensions + ((int(ext_type), value),))

    def find_extension(self, ext_type: int) -> bytes | None:
        """The value of the first extension of ``ext_type``, if present."""
        wanted = int(ext_type)
        for etype, value in self.extensions:
            if etype == wanted:
                return value
        return None

    def find_extensions(self, ext_type: int) -> list[bytes]:
        """Every extension value of ``ext_type``, in wire order.

        Some types legitimately repeat — a message can carry several
        REQUEST_STATUS acknowledgements at once.
        """
        wanted = int(ext_type)
        return [
            value for etype, value in self.extensions if etype == wanted
        ]


#: The header-only decode builds a message with ``__new__`` and sets its
#: four fields, each through its own slot descriptor: the frozen
#: dataclass ``__init__`` would set every field, derived ones included.
_NEW_MESSAGE = DataMessage.__new__
_SET_STREAM_ID, _SET_SEQUENCE, _SET_PAYLOAD, _SET_WIRE = (
    DataMessage.__dict__[name].__set__
    for name in ("stream_id", "sequence", "payload", "wire")
)
#: One seed per frame for ``map(crc_hqx, frames, _CRC_SEEDS)``.
_CRC_SEEDS = repeat(0xFFFF)


def _crc_mismatch(frame: bytes, residue: int) -> ChecksumError:
    """The error for a frame whose CRC pass left ``residue`` (not 0): the
    computed CRC is unwound from it, so a rejected frame costs one pass."""
    stated = (frame[-2] << 8) | frame[-1]
    return ChecksumError(
        f"CRC mismatch: stated 0x{stated:04x}, "
        f"computed 0x{crc16_ccitt_unwind(residue, stated):04x}"
    )


def frame_messages(
    stream_id: StreamId, frames: Iterable[bytes], sequences: Iterable[int]
) -> list[DataMessage]:
    """The messages :meth:`MessageCodec.decode` builds from frames of the
    common shape, field for field, from what
    :meth:`MessageCodec.walk` already read: nothing is parsed again."""
    messages = []
    for frame, sequence in zip(frames, sequences):
        message = _NEW_MESSAGE(DataMessage)
        _SET_STREAM_ID(message, stream_id)
        _SET_SEQUENCE(message, sequence)
        _SET_PAYLOAD(message, frame[FIXED_HEADER_BYTES:-2])
        _SET_WIRE(message, frame)
        messages.append(message)
    return messages


class MessageCodec:
    """Encodes/decodes :class:`DataMessage` per the Figure 2 layout, each
    frame ending in the CRC-16 Section 4.3 elides from the figure."""

    def encode(self, message: DataMessage) -> bytes:
        """Serialise ``message``; raises :class:`CodecError` on bad fields.

        A message that remembers its frame gets that very object back;
        otherwise the encoder runs and the message remembers the result.
        """
        frame = message.wire
        if frame is None:
            frame = self._build_frame(message)
            _SET_FIELD(message, "wire", frame)
        return frame

    def encode_run(
        self, messages: Iterable[DataMessage]
    ) -> tuple[list[bytes], int]:
        """:meth:`encode` over a run, oldest first, and how many of the
        frames were remembered rather than built.

        One pass over ``messages``, which may be an iterator: a message
        that remembers its frame is let go for that frame as the pass
        goes, and only one that needs the encoder is held to the end.
        When every message remembers its frame (a replay of stored records)
        no call is made per message.
        """
        held = [message.wire or message for message in messages]
        frames = [item for item in held if item.__class__ is bytes]
        if len(frames) == len(held):
            return frames, len(frames)
        return [
            item if item.__class__ is bytes else self.encode(item)
            for item in held
        ], len(frames)

    def _build_frame(self, message: DataMessage) -> bytes:
        """The encoder proper: :func:`common_frame` for a message with no
        optional field and every field in range, :meth:`encode_reference`
        for every other shape. Both build the same bytes; the reference
        raises its own errors on a field out of range."""
        sensor_id, stream_index = message.stream_id
        sequence = message.sequence
        if (
            message.ack_request_id is None
            and message.hop_count is None
            and not message.extensions
            and message.version == PROTOCOL_VERSION
            and sensor_id.__class__ is int
            and stream_index.__class__ is int
            and sequence.__class__ is int
            and 0 <= sensor_id <= 0xFFFFFF
            and 0 <= stream_index <= 0xFF
            and 0 <= sequence <= 0xFFFF
            and len(message.payload) <= MAX_PAYLOAD_BYTES
        ):
            return common_frame(
                (_F_FUSED if message.fused else 0)
                | (_F_ENCRYPTED if message.encrypted else 0),
                (sensor_id << 8) | stream_index,
                sequence,
                message.payload,
            )
        return self.encode_reference(message)

    def encode_reference(self, message: DataMessage) -> bytes:
        """The validating field-by-field encoder (reference semantics)."""
        if len(message.payload) > MAX_PAYLOAD_BYTES:
            raise CodecError(
                f"payload of {len(message.payload)} bytes exceeds the "
                f"16-bit size field maximum of {MAX_PAYLOAD_BYTES}"
            )
        if len(message.extensions) > MAX_EXTENSIONS:
            raise CodecError(
                f"{len(message.extensions)} extensions exceed the maximum "
                f"of {MAX_EXTENSIONS}"
            )
        buffer = bytearray()
        buffer.append(pack_header(message.version, message.flags))
        write_uint(buffer, message.stream_id.pack(), 4, "stream_id")
        write_uint(buffer, message.sequence, 2, "sequence")
        write_uint(buffer, len(message.payload), 2, "payload_size")
        if message.ack_request_id is not None:
            write_uint(buffer, message.ack_request_id, 2, "ack_request_id")
        if message.hop_count is not None:
            write_uint(buffer, message.hop_count, 1, "hop_count")
        if message.extensions:
            buffer.append(len(message.extensions))
            for ext_type, value in message.extensions:
                check_range("extension_type", ext_type, 8)
                if len(value) > MAX_EXTENSION_VALUE_BYTES:
                    raise CodecError(
                        f"extension value of {len(value)} bytes exceeds "
                        f"{MAX_EXTENSION_VALUE_BYTES}"
                    )
                buffer.append(ext_type)
                buffer.append(len(value))
                buffer.extend(value)
        buffer.extend(message.payload)
        write_uint(buffer, crc16_ccitt_reference(bytes(buffer)), 2, "checksum")
        return bytes(buffer)

    def decode(self, data: bytes) -> DataMessage:
        """Parse one message; raises on truncation, bad CRC or trailing bytes.

        A ``bytes`` frame with no ACK, RELAYED or EXTENDED flag is parsed
        header-only; its flag-derived fields materialise when first read.
        Anything else takes :meth:`decode_reference`, exceptions and all.
        Either way the message remembers its frame as ``bytes``.
        """
        size = len(data)
        if size >= _COMMON_OVERHEAD and type(data) is bytes:
            header_byte, stream_word, sequence, payload_size = (
                _FIXED_HEADER.unpack_from(data)
            )
            if (
                header_byte & _COMMON_SHAPE_MASK == _VERSION_BYTE
                and size == payload_size + _COMMON_OVERHEAD
            ):
                # crc16_ccitt is crc_hqx seeded 0xFFFF: called directly.
                # A frame followed by its own CRC leaves a zero residue.
                if residue := crc_hqx(data, 0xFFFF):
                    raise _crc_mismatch(data, residue)
                stream_id = _STREAM_ID_CACHE.get(stream_word)
                if stream_id is None:
                    if len(_STREAM_ID_CACHE) >= _STREAM_ID_CACHE_MAX:
                        _STREAM_ID_CACHE.clear()
                    stream_id = _STREAM_ID_CACHE[stream_word] = (
                        StreamId.from_word(stream_word)
                    )
                message = _NEW_MESSAGE(DataMessage)
                _SET_STREAM_ID(message, stream_id)
                _SET_SEQUENCE(message, sequence)
                _SET_PAYLOAD(message, data[FIXED_HEADER_BYTES:-2])
                _SET_WIRE(message, data)
                return message
        message = self.decode_reference(data)
        _SET_WIRE(message, data if type(data) is bytes else bytes(data))
        return message

    def walk(self, frames: Sequence[bytes]) -> tuple[list, int]:
        """Check a datagram's frames: ``(stretches, rejected)``, a stretch
        ``(stream id, frames, sequences, payload bytes, messages)`` for
        consecutive accepted frames of one stream; ``rejected`` counts
        what :meth:`decode` refuses. Each CRC is computed once.

        When every frame is a ``bytes`` frame of the common shape and of a
        stream :meth:`decode` has already seen, the walk makes its checks
        (size, shape, payload length, CRC) in C-level passes over the
        batch and builds no message (``messages`` None).
        Otherwise each frame is decoded, and ``messages`` holds them.
        """
        sizes = list(map(len, frames))
        if min(sizes) >= _COMMON_OVERHEAD:
            heads = list(map(_FIXED_HEADER.unpack_from, frames))
            common = [
                frame.__class__ is bytes
                and head[0] & _COMMON_SHAPE_MASK == _VERSION_BYTE
                and size == head[3] + _COMMON_OVERHEAD
                and head[1] in _STREAM_ID_CACHE
                for frame, head, size in zip(frames, heads, sizes)
            ]
            if common.count(True) == len(frames):
                residues = list(map(crc_hqx, frames, _CRC_SEEDS))
                rejected = len(frames) - residues.count(0)
                if rejected:
                    intact = [not residue for residue in residues]
                    frames, heads, sizes = [
                        list(compress(each, intact)) for each in (frames, heads, sizes)
                    ]
                words = [head[1] for head in heads]
                sequences = [head[2] for head in heads]
                count = len(words)
                cuts = list(compress(range(1, count), map(ne, words, words[1:])))
                sums = [0, *accumulate(sizes)]
                return [
                    (
                        _STREAM_ID_CACHE[words[start]],
                        frames[start:end],
                        sequences[start:end],
                        sums[end] - sums[start] - _COMMON_OVERHEAD * (end - start),
                        None,
                    )
                    for start, end in zip([0, *cuts], [*cuts, count])
                    if end
                ], rejected
        stretches: list[list] = []
        rejected = 0
        for frame in frames:
            try:
                message = self.decode(frame)
            except GarnetError:
                rejected += 1
                continue
            if not stretches or stretches[-1][0] != message.stream_id:
                stretches.append([message.stream_id, [], [], 0, []])
            stretch = stretches[-1]
            stretch[1].append(message.wire)
            stretch[2].append(message.sequence)
            stretch[3] += len(message.payload)
            stretch[4].append(message)
        return stretches, rejected

    def decode_reference(self, data: bytes) -> DataMessage:
        """The validating decoder of one whole frame: :meth:`decode` takes
        it for every shape but the common one, and the property tests
        hold the header-only parse to it."""
        message, consumed = self.decode_prefix_reference(data)
        if consumed != len(data):
            raise CodecError(
                f"{len(data) - consumed} unexpected trailing bytes after message"
            )
        return message

    def decode_prefix_reference(self, data: bytes) -> tuple[DataMessage, int]:
        """The validating field-by-field decoder (reference semantics)."""
        header_byte, offset = read_uint(data, 0, 1, "header")
        version, flags = unpack_header(header_byte)
        if version != PROTOCOL_VERSION:
            raise CodecError(
                f"unsupported protocol version {version} "
                f"(expected {PROTOCOL_VERSION})"
            )
        stream_word, offset = read_uint(data, offset, 4, "stream_id")
        sequence, offset = read_uint(data, offset, 2, "sequence")
        payload_size, offset = read_uint(data, offset, 2, "payload_size")

        ack_request_id: int | None = None
        if flags & HeaderFlags.ACK:
            ack_request_id, offset = read_uint(data, offset, 2, "ack_request_id")
        hop_count: int | None = None
        if flags & HeaderFlags.RELAYED:
            hop_count, offset = read_uint(data, offset, 1, "hop_count")
        extensions: list[tuple[int, bytes]] = []
        if flags & HeaderFlags.EXTENDED:
            count, offset = read_uint(data, offset, 1, "extension_count")
            if count == 0:
                raise CodecError("EXTENDED flag set but extension count is 0")
            for index in range(count):
                ext_type, offset = read_uint(
                    data, offset, 1, f"extension[{index}].type"
                )
                length, offset = read_uint(
                    data, offset, 1, f"extension[{index}].length"
                )
                end = offset + length
                if end > len(data):
                    raise TruncatedMessageError(
                        f"extension[{index}] value truncated"
                    )
                extensions.append((ext_type, bytes(data[offset:end])))
                offset = end

        payload_end = offset + payload_size
        if payload_end > len(data):
            raise TruncatedMessageError(
                f"payload of {payload_size} bytes truncated at offset {offset}"
            )
        payload = bytes(data[offset:payload_end])
        offset = payload_end

        stated, new_offset = read_uint(data, offset, 2, "checksum")
        computed = crc16_ccitt_reference(bytes(data[:offset]))
        if stated != computed:
            raise ChecksumError(
                f"CRC mismatch: stated 0x{stated:04x}, computed 0x{computed:04x}"
            )
        offset = new_offset

        message = DataMessage(
            stream_id=StreamId.from_word(stream_word),
            sequence=sequence,
            payload=payload,
            fused=bool(flags & HeaderFlags.FUSED),
            encrypted=bool(flags & HeaderFlags.ENCRYPTED),
            ack_request_id=ack_request_id,
            hop_count=hop_count,
            extensions=tuple(extensions),
            version=version,
        )
        return message, offset


def make_request_status_extension(request_id: int, status: int) -> bytes:
    """Encode a :data:`ExtensionType.REQUEST_STATUS` extension value."""
    check_range("request_id", request_id, 16)
    check_range("status", status, 8)
    return request_id.to_bytes(2, "big") + bytes([status])


def parse_request_status_extension(value: bytes) -> tuple[int, int]:
    """Decode a REQUEST_STATUS extension into ``(request_id, status)``."""
    if len(value) != 3:
        raise CodecError(
            f"REQUEST_STATUS extension must be 3 bytes, got {len(value)}"
        )
    return int.from_bytes(value[:2], "big"), value[2]


__all__ = [
    "CHECKSUM_BYTES",
    "DataMessage",
    "ExtensionType",
    "FIXED_HEADER_BYTES",
    "MAX_EXTENSIONS",
    "MAX_EXTENSION_VALUE_BYTES",
    "MAX_PAYLOAD_BYTES",
    "MAX_SEQUENCE",
    "MessageCodec",
    "common_frame",
    "make_request_status_extension",
    "parse_request_status_extension",
    "peek_header",
]
