"""Inter-broker links: the frames brokers exchange, and their endpoint.

Each broker node listens on one link inbox
(``garnet.cluster.link.<name>``) for three frame kinds:

- :class:`RemoteDelivery` — the owning broker fans a message out to a
  peer with aggregated local interest. Interest aggregation guarantees
  the Fjords property: one frame per message per link, however many of
  the peer's consumers are subscribed; the peer's dispatcher performs
  the local fan-out.
- :class:`ReplayedPublish` — the ClusterCoordinator replays buffered
  messages to a stream's new owner after an ownership handoff.
- :class:`InterestUpdate` — a broker announces that one of its local
  subscriptions was added or removed; peers maintain per-origin
  refcounted pattern tables from these.

All three ride the ordinary :class:`~repro.simnet.fixednet.FixedNetwork`
send path, so partitions, retry policies and per-destination circuit
breakers apply to inter-broker traffic exactly as they do to consumer
deliveries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.dispatching import SubscriptionPattern
from repro.core.envelopes import StreamArrival

LINK_INBOX_PREFIX = "garnet.cluster.link."


@dataclass(frozen=True, slots=True, kw_only=True)
class RemoteDelivery:
    """One message crossing one link to one interested peer broker."""

    origin: str
    arrival: StreamArrival


@dataclass(frozen=True, slots=True, kw_only=True)
class ReplayedPublish:
    """A handoff replay: owner-path processing at the new owner."""

    arrival: StreamArrival


@dataclass(frozen=True, slots=True, kw_only=True)
class InterestUpdate:
    """A peer broker gained (or lost) a local subscription."""

    origin: str
    pattern: SubscriptionPattern
    added: bool


class InterBrokerLink:
    """One node's link endpoint: decodes frames onto its router."""

    def __init__(
        self,
        name: str,
        network: Any,
        router: Any,
        unknown_frames: Any = None,
    ) -> None:
        self.name = name
        self.inbox = LINK_INBOX_PREFIX + name
        self._network = network
        self._router = router
        self._unknown_frames = unknown_frames
        self.unknown_frame_count = 0
        network.register_inbox(self.inbox, self.on_frame)

    def on_frame(self, frame: Any) -> None:
        if isinstance(frame, RemoteDelivery):
            self._router.deliver_remote(frame)
        elif isinstance(frame, ReplayedPublish):
            self._router.deliver_replayed(frame.arrival)
        elif isinstance(frame, InterestUpdate):
            self._router.apply_interest(frame)
        else:
            # A frame kind this endpoint does not speak — a version skew
            # or a misrouted payload. Dropping it is correct (the sender
            # retries through the ordinary resilience machinery) but the
            # drop must be visible, not silent.
            self.unknown_frame_count += 1
            if self._unknown_frames is not None:
                self._unknown_frames.inc()

    def unregister(self) -> None:
        if self._network.has_inbox(self.inbox):
            self._network.unregister_inbox(self.inbox)

    def register(self) -> None:
        if not self._network.has_inbox(self.inbox):
            self._network.register_inbox(self.inbox, self.on_frame)
