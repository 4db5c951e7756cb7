"""The Filtering Service: stream reconstruction from raw receptions.

Section 4.2: "The Filtering Service reconstructs the data streams by
eliminating duplicate data messages. Filtered data is then forwarded to
the Dispatching Service for delivery to subscribed consumer processes."

Duplicates arise because receiver reception areas overlap by design
(better coverage at the price of multiple copies) and because sensors may
retransmit. Elimination is one :class:`~repro.util.ids.SequenceWindow`
per stream: a copy of a sequence already accepted is a duplicate, and a
sequence the window's size or more positions behind the newest is stale
and dropped the same way. A fresh sequence behind the newest is
forwarded in arrival order and counted as ``reordered``.

The service additionally:

- extracts stream-update-request acknowledgements (the ``ACK`` header
  field, Section 4.3) and forwards them to the Actuation Service;
- maintains per-stream statistics in the shared registry.
"""

from __future__ import annotations

from repro.core.envelopes import AckNotice, Reception, StreamArrival
from repro.core.flags import ExtensionType
from repro.core.message import parse_request_status_extension
from repro.core.streamid import StreamId
from repro.core.streams import StreamRegistry
from repro.errors import CodecError
from repro.obs.registry import MetricsRegistry
from repro.obs.stats import RegistryBackedStats
from repro.simnet.fixednet import FixedNetwork
from repro.util.ids import LATE, SEQUENCE_WINDOW, STALE, SequenceWindow

INBOX = "garnet.filtering"
DISPATCH_INBOX = "garnet.dispatching"
ACK_INBOX = "garnet.actuation.acks"


class FilteringStats(RegistryBackedStats):
    """Counters reported by experiment E2."""

    PREFIX = "filtering"

    received: int = 0
    delivered: int = 0
    duplicates: int = 0
    stale: int = 0
    reordered: int = 0
    acks_extracted: int = 0


class FilteringService:
    """Reconstructs duplicate-free streams from receptions.

    Parameters
    ----------
    network:
        Fixed network; the service listens on :data:`INBOX` and forwards
        to :data:`DISPATCH_INBOX` / :data:`ACK_INBOX`.
    registry:
        Shared stream catalogue; newly seen streams are detected into it.
    window:
        Size of each stream's :class:`~repro.util.ids.SequenceWindow`,
        in sequence positions.
    metrics:
        Shared deployment registry for the stats counters; a private
        registry is created when omitted (standalone/unit-test use).
    """

    def __init__(
        self,
        network: FixedNetwork,
        registry: StreamRegistry,
        window: int = SEQUENCE_WINDOW,
        metrics: MetricsRegistry | None = None,
        dispatch_inbox: str = DISPATCH_INBOX,
    ) -> None:
        SequenceWindow(window)  # refuses a size out of range, here
        self._network = network
        self._registry = registry
        self._window = window
        self._windows: dict[StreamId, SequenceWindow] = {}
        self._dispatch_inbox = dispatch_inbox
        self.stats = FilteringStats(metrics)
        network.register_inbox(INBOX, self.on_reception)

    # ------------------------------------------------------------------
    def on_reception(self, reception: Reception) -> None:
        """Entry point for one receiver copy of one message."""
        if not isinstance(reception, Reception):
            raise CodecError(
                f"filtering inbox expects Reception, got {type(reception)!r}"
            )
        self.stats.received += 1
        message = reception.message
        stream_id = message.stream_id
        window = self._windows.get(stream_id)
        if window is None:
            window = self._windows[stream_id] = SequenceWindow(self._window)
            self._registry.detect(stream_id)

        verdict = window.add(message.sequence)
        if not verdict:
            if verdict is STALE:
                self.stats.stale += 1
            self.stats.duplicates += 1
            descriptor = self._registry.find(stream_id)
            if descriptor is not None:
                descriptor.stats.duplicates_dropped += 1
            return
        if verdict is LATE:
            self.stats.reordered += 1

        self._extract_acks(reception)
        self._forward(reception)

    # ------------------------------------------------------------------
    # Acknowledgement extraction (return-path support)
    # ------------------------------------------------------------------
    def _extract_acks(self, reception: Reception) -> None:
        message = reception.message
        sensor_id = message.stream_id.sensor_id
        if message.ack_request_id is not None:
            self.stats.acks_extracted += 1
            self._network.send(
                ACK_INBOX,
                AckNotice(
                    request_id=message.ack_request_id,
                    sensor_id=sensor_id,
                    observed_at=reception.received_at,
                ),
            )
        for status_blob in message.find_extensions(
            ExtensionType.REQUEST_STATUS
        ):
            request_id, status = parse_request_status_extension(status_blob)
            self.stats.acks_extracted += 1
            self._network.send(
                ACK_INBOX,
                AckNotice(
                    request_id=request_id,
                    sensor_id=sensor_id,
                    observed_at=reception.received_at,
                    status=status,
                ),
            )

    # ------------------------------------------------------------------
    def _forward(self, reception: Reception) -> None:
        message = reception.message
        descriptor = self._registry.detect(message.stream_id)
        descriptor.stats.observe(
            reception.received_at, len(message.payload), message.sequence
        )
        self.stats.delivered += 1
        self._network.send(
            self._dispatch_inbox,
            StreamArrival(
                message=message,
                received_at=reception.received_at,
                receiver_id=reception.receiver_id,
            ),
        )
