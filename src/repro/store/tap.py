"""StoreTap: the dispatch-path write-through into a StreamStore.

The Dispatching Service calls :meth:`record` for every run of arrivals
that passes the admission and cluster-ownership gates (fresh traffic at
the stream's owner) and for every handoff-replayed arrival; a run is
one store append. Those two paths can both see the same message — the
owner appended it fresh, crashed, and the coordinator replays it to the
new owner — so the tap fronts the store with one
:class:`~repro.util.ids.SequenceWindow` per stream: a sequence already
appended is skipped (``store.duplicates_skipped``), which keeps the log
gap-free *and* duplicate-free through crashes for exactly the same
reason consumer deliveries are.

A record's frame is the wire image as received: a live drain's frames
(:meth:`StoreTap.record_frames`), or the frames a run's messages
remember; only a message born in this process (a session publish) is
encoded here, once for tap and fan-out.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.core.envelopes import StreamArrival
from repro.core.streamid import StreamId
from repro.store.base import StreamStore
from repro.util.ids import SEQUENCE_WINDOW, SequenceWindow


class StoreTap:
    """Dedupe-guarded append adapter installed into dispatchers."""

    __slots__ = ("store", "_codec", "_seen", "_skip_counter")

    def __init__(self, store: StreamStore, codec: Any) -> None:
        self.store = store
        self._codec = codec
        self._seen: dict[StreamId, SequenceWindow] = {}
        self._skip_counter = store.stats.counter("duplicates_skipped")

    def record(self, arrival: StreamArrival, *more: StreamArrival) -> bool:
        """Append a run — one arrival, or consecutive arrivals of its
        stream sharing its stamp and receiver — as one store append of
        what the window lets through; False when it let nothing through."""
        messages = [each.message for each in (arrival, *more)]
        return self.record_frames(
            arrival.message.stream_id,
            arrival.received_at,
            arrival.receiver_id,
            self._codec.encode_run(messages)[0],
            [message.sequence for message in messages],
        )

    def record_frames(
        self,
        stream_id: StreamId,
        received_at: float,
        receiver_id: int,
        frames: Sequence[bytes],
        sequences: Sequence[int],
    ) -> bool:
        """:meth:`record` for a run of frames, stored as received."""
        window = self._seen.get(stream_id)
        if window is None:
            window = self._seen[stream_id] = SequenceWindow(SEQUENCE_WINDOW)
        (frames,), skipped = window.keep(sequences, frames)
        if skipped:
            self._skip_counter.inc(skipped)
        if frames:
            self.store.append(stream_id, received_at, receiver_id, *frames)
        return bool(frames)


__all__ = ["StoreTap"]
