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

A record's frame is the message's own wire image — the datagram or radio
frame it was decoded from, kept by the message and taken for the whole
run in one :meth:`~repro.core.message.MessageCodec.encode_run`; only one
born in this process (a session publish) is encoded here, once for tap
and fan-out.
"""

from __future__ import annotations

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
        message = arrival.message
        stream_id = message.stream_id
        window = self._seen.get(stream_id)
        if window is None:
            window = SequenceWindow(SEQUENCE_WINDOW)
            self._seen[stream_id] = window
        messages = [
            each.message
            for each in (arrival, *more)
            if window.add(each.message.sequence)
        ]
        frames = self._codec.encode_run(messages)[0]
        skipped = 1 + len(more) - len(frames)
        if skipped:
            self._skip_counter.inc(skipped)
        if not frames:
            return False
        self.store.append(
            stream_id, arrival.received_at, arrival.receiver_id, *frames
        )
        return True


__all__ = ["StoreTap"]
