"""MemorySegmentStore: the in-process StreamStore backend.

Records live in Python lists, but byte accounting uses the *encoded*
record length — identical to what :class:`FileSegmentStore` writes — so
rotation and retention trip at the same points on both backends and a
test suite exercising one has exercised the policy surface of the other.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.streamid import StreamId
from repro.store.base import StreamStore
from repro.store.segment import Segment


class _MemorySegment(Segment):
    __slots__ = ("_records",)

    def __init__(self, index: int) -> None:
        super().__init__(index)
        self._records: list[tuple[float, int, bytes]] = []

    def _write(
        self, received_at: float, receiver_id: int, frames: Sequence[bytes]
    ) -> None:
        self._records += [(received_at, receiver_id, frame) for frame in frames]

    def records(self) -> list[tuple[float, int, bytes]]:
        return list(self._records)

    def delete(self) -> None:
        self._records.clear()


class MemorySegmentStore(StreamStore):
    """Segment log held entirely in memory (the default backend)."""

    def _open_segment(self, stream_id: StreamId, index: int) -> Segment:
        return _MemorySegment(index)


__all__ = ["MemorySegmentStore"]
