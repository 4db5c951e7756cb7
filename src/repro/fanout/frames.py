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
    the wrapper. Each frame is measured once.
    """
    sizes = list(map(len, frames))
    if sizes and max(sizes) > 0xFFFF:
        oversize = next(size for size in sizes if size > 0xFFFF)
        raise TransportError(
            f"frame of {oversize} bytes exceeds the 16-bit batch "
            "length prefix"
        )
    datagrams: list[bytes] = []
    start, size = 0, BATCH_HEADER_SIZE
    for end, length in enumerate(sizes):
        entry_size = BATCH_FRAME_PREFIX + length
        if end > start and size + entry_size > budget:
            datagrams.append(_seal(frames, sizes, start, end))
            start, size = end, BATCH_HEADER_SIZE
        size += entry_size
    if sizes:
        datagrams.append(_seal(frames, sizes, start, len(sizes)))
    return datagrams


def _seal(
    frames: Sequence[bytes], sizes: list[int], start: int, end: int
) -> bytes:
    """``frames[start:end]`` as one datagram: bare when it is one frame."""
    if end - start == 1:
        return frames[start]
    parts: list[bytes] = [b""] * (2 * (end - start) + 1)
    parts[0] = BATCH_MAGIC + _U16(end - start)
    parts[1::2] = map(_U16, sizes[start:end])
    parts[2::2] = frames[start:end]
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
    size = len(data)
    if data[:4] != BATCH_MAGIC:
        raise TransportError("not a batch datagram (bad magic)")
    if size < BATCH_HEADER_SIZE:
        raise TransportError("batch datagram truncated before frame count")
    if size > MAX_BATCH_DATAGRAM:
        raise TransportError(
            f"a {size}-byte batch datagram exceeds {MAX_BATCH_DATAGRAM}"
        )
    count = (data[4] << 8) | data[5]
    if count < 2:
        raise TransportError(f"a batch datagram of {count} frames")
    # One walk: each length prefix read by indexing, each frame one slice.
    frames: list[bytes] = [b""] * count
    offset = BATCH_HEADER_SIZE
    for index in range(count):
        start = offset + BATCH_FRAME_PREFIX
        if start > size:
            raise TransportError("batch datagram truncated in length prefix")
        offset = start + ((data[start - 2] << 8) | data[start - 1])
        if offset > size:
            raise TransportError("batch datagram truncated inside a frame")
        frames[index] = data[start:offset]
    if offset != size:
        raise TransportError(
            f"{size - offset} trailing bytes after the last batch frame"
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
