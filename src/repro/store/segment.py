"""Segment record codec: the on-disk/in-memory unit of the stream store.

One stored record is one length-prefixed frame::

    [4-byte length, big-endian][8-byte float64 received_at, big-endian]
    [4-byte int32 receiver_id, big-endian][codec frame]

where the length counts the 12-byte metadata header plus the codec
frame — never the prefix itself. The codec frame is the exact Figure 2
wire image the message arrived as (:meth:`MessageCodec.encode` output),
so replaying from the store re-decodes byte-identical messages, and the
store needs no schema of its own beyond these twelve metadata bytes.

A :class:`Segment` is an ordered run of such records; backends decide
where its bytes live (a list in memory, an append-only file on disk).
Rotation and retention operate on whole segments, which keeps eviction
O(1) and makes the crash-recovery story simple: only the *tail* of the
*last* segment can ever be torn.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.streamid import StreamId
from repro.errors import StoreError

_LENGTH = struct.Struct(">I")
_META = struct.Struct(">di")

#: Bytes of metadata counted inside each record's length prefix.
RECORD_META_BYTES = _META.size
#: Bytes of the length prefix itself.
RECORD_PREFIX_BYTES = _LENGTH.size
#: Encoded bytes a record adds beyond its frame.
RECORD_OVERHEAD_BYTES = RECORD_PREFIX_BYTES + RECORD_META_BYTES


def encode_record(
    received_at: float, receiver_id: int, frame: bytes, *frames: bytes
) -> bytes:
    """Serialise stored records (length prefix + metadata + frame), back
    to back: one per frame, all stamped ``received_at`` by ``receiver_id``."""
    run = (frame, *frames)
    sizes = [RECORD_META_BYTES + size for size in map(len, run)]
    if RECORD_META_BYTES in sizes:
        raise StoreError("cannot store an empty codec frame")
    parts = [_META.pack(received_at, receiver_id)] * (3 * len(run))
    parts[0::3] = map(_LENGTH.pack, sizes)
    parts[2::3] = run
    return b"".join(parts)


def decode_record(
    buffer: bytes, offset: int = 0
) -> tuple[float, int, bytes, int]:
    """Decode one record at ``offset``.

    Returns ``(received_at, receiver_id, frame, next_offset)``. Raises
    :class:`StoreError` when the buffer ends before the record does —
    the torn-tail condition crash-tolerant opens truncate away.
    """
    end_of_prefix = offset + RECORD_PREFIX_BYTES
    if len(buffer) < end_of_prefix:
        raise StoreError(
            f"truncated record: {len(buffer) - offset} bytes where a "
            f"{RECORD_PREFIX_BYTES}-byte length prefix was expected"
        )
    (length,) = _LENGTH.unpack_from(buffer, offset)
    if length < RECORD_META_BYTES + 1:
        raise StoreError(f"record length {length} below minimum")
    end = end_of_prefix + length
    if len(buffer) < end:
        raise StoreError(
            f"truncated record: {len(buffer) - end_of_prefix} bytes "
            f"where {length} were promised"
        )
    received_at, receiver_id = _META.unpack_from(buffer, end_of_prefix)
    frame = bytes(buffer[end_of_prefix + RECORD_META_BYTES : end])
    return received_at, receiver_id, frame, end


def iter_records(buffer: bytes):
    """Yield ``(received_at, receiver_id, frame)`` for every whole record.

    Raises :class:`StoreError` on a torn tail; callers that want
    crash tolerance use :func:`scan_records` instead.
    """
    offset = 0
    while offset < len(buffer):
        received_at, receiver_id, frame, offset = decode_record(
            buffer, offset
        )
        yield received_at, receiver_id, frame


def scan_records(
    buffer: bytes,
) -> tuple[list[tuple[float, int, bytes]], int]:
    """Decode as many whole records as the buffer holds.

    Returns ``(records, clean_length)`` where ``clean_length`` is the
    byte offset after the last complete record — the length a
    crash-tolerant open truncates a torn file back to. A buffer with no
    tear returns ``clean_length == len(buffer)``.
    """
    records: list[tuple[float, int, bytes]] = []
    offset = 0
    while offset < len(buffer):
        try:
            received_at, receiver_id, frame, next_offset = decode_record(
                buffer, offset
            )
        except StoreError:
            return records, offset
        records.append((received_at, receiver_id, frame))
        offset = next_offset
    return records, offset


@dataclass(frozen=True, slots=True)
class StoredRecord:
    """One record read back out of the store."""

    stream_id: StreamId
    received_at: float
    receiver_id: int
    frame: bytes
    """The exact codec wire image the message was stored as."""


class Segment:
    """Bookkeeping shared by every backend's segment flavour.

    Subclasses implement where the record bytes actually go
    (:meth:`_write`), how they come back (:meth:`records`), and how the
    segment dies (:meth:`delete`).
    """

    __slots__ = ("index", "records_held", "bytes_held", "first_at", "last_at")

    def __init__(self, index: int) -> None:
        self.index = index
        self.records_held = 0
        self.bytes_held = 0
        self.first_at: float | None = None
        self.last_at: float | None = None

    def note(
        self, received_at: float, encoded_length: int, records: int = 1
    ) -> None:
        self.records_held += records
        self.bytes_held += encoded_length
        if self.first_at is None:
            self.first_at = received_at
        self.last_at = received_at

    def append(
        self, received_at: float, receiver_id: int, frames: Sequence[bytes]
    ) -> int:
        """Write a run of records sharing one stamp and receiver in one
        backend write; returns their :func:`encode_record` byte count,
        worked out from the frame sizes whether or not the backend
        encodes them."""
        self._write(received_at, receiver_id, frames)
        count = len(frames)
        size = sum(map(len, frames)) + count * RECORD_OVERHEAD_BYTES
        self.note(received_at, size, count)
        return size

    # -- backend hooks --------------------------------------------------
    def _write(
        self, received_at: float, receiver_id: int, frames: Sequence[bytes]
    ) -> None:
        raise NotImplementedError

    def records(self) -> list[tuple[float, int, bytes]]:
        """Every ``(received_at, receiver_id, frame)`` in append order."""
        raise NotImplementedError

    def seal(self) -> None:
        """Called when the segment stops being the active (writable) one."""

    def delete(self) -> None:
        """Release the segment's storage (eviction)."""


__all__ = [
    "RECORD_META_BYTES",
    "RECORD_OVERHEAD_BYTES",
    "RECORD_PREFIX_BYTES",
    "StoredRecord",
    "Segment",
    "encode_record",
    "decode_record",
    "iter_records",
    "scan_records",
]
