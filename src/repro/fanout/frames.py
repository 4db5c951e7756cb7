"""The ``DELIVERY_BATCH`` frame, in both of its transports.

One batch carries many messages and/or reaches many recipients in a
single send (protocol.md §7). It exists in two shapes:

- :class:`DeliveryBatch` — the fixed-network frame. Fan-out trees send
  one per subtree hop (one arrival, shared by every subscriber below
  the receiving relay). The ``arrivals`` tuple is immutable and the *same* frame object is handed to every
  recipient inbox — sharing, not copying, is the point.
- The **UDP batch datagram** — the live-transport shape. Many already
  encoded §2 codec frames are packed length-prefixed behind a 4-byte
  magic. The magic's first byte (0xFB) can never begin a bare codec
  frame: a §2 frame starts with ``version << 5 | flags`` and the
  3-bit version field caps that byte at 0x7F with version 1 frames
  occupying 0x20–0x3F, so receivers may sniff batches with a single
  prefix comparison (:func:`is_batch_datagram`). Both ends of the live
  data plane send it, and both read a datagram through
  :func:`datagram_frames`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

from repro.core.envelopes import StreamArrival
from repro.errors import TransportError

#: UDP batch datagram prefix: 0xFB magic, "GB" (Garnet Batch), format 1.
BATCH_MAGIC = b"\xfbGB\x01"
#: Magic (4) + frame count (2, big-endian).
BATCH_HEADER_SIZE = 6
#: Per-frame overhead: a 2-byte big-endian length prefix.
BATCH_FRAME_PREFIX = 2
_U16 = struct.Struct(">H").pack
#: Default payload budget per datagram; safely under the 65,507-byte
#: UDP maximum while leaving headroom for tunnelled transports.
MAX_BATCH_DATAGRAM = 60_000


@dataclass(frozen=True, slots=True, kw_only=True)
class DeliveryBatch:
    """Many arrivals and/or many recipients behind one fixednet send."""

    origin: str
    arrivals: tuple[StreamArrival, ...]


def is_batch_datagram(data: bytes) -> bool:
    """True when ``data`` is a §7 batch datagram (vs a bare §2 frame)."""
    return data[:4] == BATCH_MAGIC


def encode_batch_datagrams(
    frames: Sequence[bytes], budget: int = MAX_BATCH_DATAGRAM
) -> list[bytes]:
    """Pack encoded codec frames into as few datagrams as fit.

    Frames never split across datagrams. Batch framing appears only where
    at least two frames share it: a group of one — a lone frame, or one
    too large to sit beside its neighbours — goes out as the bare frame,
    which keeps a frame that fits a datagram from outgrowing it inside
    the wrapper.
    """
    datagrams: list[bytes] = []
    group: list[bytes] = []
    size = BATCH_HEADER_SIZE
    for frame in frames:
        if len(frame) > 0xFFFF:
            raise TransportError(
                f"frame of {len(frame)} bytes exceeds the 16-bit batch "
                "length prefix"
            )
        entry_size = BATCH_FRAME_PREFIX + len(frame)
        if group and size + entry_size > budget:
            datagrams.append(_seal(group))
            group, size = [], BATCH_HEADER_SIZE
        group.append(frame)
        size += entry_size
    if group:
        datagrams.append(_seal(group))
    return datagrams


def _seal(group: list[bytes]) -> bytes:
    if len(group) == 1:
        return group[0]
    parts = [BATCH_MAGIC, _U16(len(group))]
    for frame in group:
        parts.append(_U16(len(frame)))
        parts.append(frame)
    return b"".join(parts)


def decode_batch_datagram(data: bytes) -> list[bytes]:
    """The encoded codec frames packed in one batch datagram.

    Raises :class:`TransportError` on anything malformed — a bad magic,
    a truncated frame, trailing garbage — and on what
    :func:`encode_batch_datagrams` never writes: a count below two, or
    more bytes than ``MAX_BATCH_DATAGRAM``. Receivers count such a
    datagram as bad instead of silently mis-parsing it, and every batch
    accepted here re-encodes to itself.
    """
    if not is_batch_datagram(data):
        raise TransportError("not a batch datagram (bad magic)")
    if len(data) < BATCH_HEADER_SIZE:
        raise TransportError("batch datagram truncated before frame count")
    if len(data) > MAX_BATCH_DATAGRAM:
        raise TransportError(
            f"a {len(data)}-byte batch datagram exceeds {MAX_BATCH_DATAGRAM}"
        )
    count = int.from_bytes(data[4:6], "big")
    if count < 2:
        raise TransportError(f"a batch datagram of {count} frames")
    frames: list[bytes] = []
    offset = BATCH_HEADER_SIZE
    for _ in range(count):
        if offset + BATCH_FRAME_PREFIX > len(data):
            raise TransportError("batch datagram truncated in length prefix")
        length = int.from_bytes(data[offset : offset + BATCH_FRAME_PREFIX], "big")
        offset += BATCH_FRAME_PREFIX
        if offset + length > len(data):
            raise TransportError("batch datagram truncated inside a frame")
        frames.append(data[offset : offset + length])
        offset += length
    if offset != len(data):
        raise TransportError(
            f"{len(data) - offset} trailing bytes after the last batch frame"
        )
    return frames


def datagram_frames(data: bytes) -> Sequence[bytes]:
    """The codec frames one live data-plane datagram carries.

    A bare §2 frame is its own one frame; a §7 batch is unpacked (two
    frames or more). A malformed batch raises :class:`TransportError`:
    one bad datagram, however many frames it claimed.
    """
    if data[:4] != BATCH_MAGIC:
        return (data,)
    return decode_batch_datagram(data)
