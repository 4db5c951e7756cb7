"""The consumer-process framework, including multi-level consumers.

Consumers are the applications of Section 4.2: mutually unaware of each
other, they discover and subscribe to streams through the broker, may
attempt to influence sensors through the Resource Manager, may supply
location hints, and may report state changes to the Super Coordinator.

**Multi-level consumption** (Sections 4.2 and 6): a consumer "may
generate further derived data streams by performing additional processing
on received data", so consumers form "an essentially arbitrary graph of
consumer processes and data streams over the Garnet middleware". A
consumer that publishes is allocated a *virtual sensor id* (top of the
24-bit space) and its derived messages re-enter the normal dispatching
path — downstream consumers cannot tell them from sensor data.

Subclass :class:`Consumer` and override :meth:`on_start` /
:meth:`on_data`; the :class:`~repro.core.middleware.Garnet` facade opens
a :class:`~repro.core.session.GarnetSession` for the consumer when it is
added to a deployment, and every middleware operation below goes
through that session.
"""

from __future__ import annotations

from typing import Any

from repro.core.control import StreamUpdateCommand
from repro.core.dispatching import SubscriptionPattern
from repro.core.envelopes import (
    LocationHint,
    StateChangeReport,
    StreamArrival,
)
from repro.core.location import HINT_INBOX
from repro.core.resource import Decision
from repro.core.session import GarnetSession
from repro.core.streamid import StreamId
from repro.core.streams import StreamDescriptor
from repro.errors import GarnetError, RegistrationError
from repro.obs.stats import RegistryBackedStats

COORDINATOR_INBOX = "garnet.coordinator"


class ConsumerStats(RegistryBackedStats):
    received: int = 0
    published: int = 0
    state_reports: int = 0
    hints_supplied: int = 0
    update_requests: int = 0


class Consumer:
    """Base class for Garnet consumer processes.

    ``Garnet.add_consumer`` attaches the consumer to its own
    :class:`~repro.core.session.GarnetSession` (subscription ledger,
    lease heartbeats, crash recovery, virtual publisher identity); until
    then the consumer is inert and every middleware operation raises.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise RegistrationError("consumer name must be non-empty")
        self.name = name
        self.stats = ConsumerStats(prefix=f"consumer.{name}")
        self._session: GarnetSession | None = None

    # ------------------------------------------------------------------
    # Wiring (called by the middleware facade)
    # ------------------------------------------------------------------
    @property
    def endpoint(self) -> str:
        return f"consumer.{self.name}"

    @property
    def attached(self) -> bool:
        return self._session is not None

    def _attach(self, session: GarnetSession) -> None:
        if self._session is not None:
            raise RegistrationError(
                f"consumer {self.name!r} is already attached"
            )
        self._session = session
        # Fold this consumer's pre-attachment counters into the
        # deployment's shared registry.
        self.stats.bind(session.metrics)

    def _require_session(self) -> GarnetSession:
        if self._session is None:
            raise GarnetError(
                f"consumer {self.name!r} is not attached to a deployment; "
                "add it with Garnet.add_consumer() first"
            )
        return self._session

    def _deliver(self, arrival: StreamArrival) -> None:
        self.stats.received += 1
        self.on_data(arrival)

    # ------------------------------------------------------------------
    # Behaviour hooks (override these)
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        """Called once, after attachment; subscribe and discover here."""

    def on_data(self, arrival: StreamArrival) -> None:
        """Called for every delivered message of a subscribed stream."""

    # ------------------------------------------------------------------
    # Middleware operations available to subclasses
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._require_session().network.sim.now

    def subscribe(
        self,
        pattern: SubscriptionPattern | None = None,
        *,
        stream_id: StreamId | None = None,
        sensor_id: int | None = None,
        stream_index: int | None = None,
        kind: str | None = None,
        derived: bool | None = None,
    ) -> int:
        """Subscribe by explicit pattern or by pattern fields.

        The subscription is recorded in the session's re-subscription
        ledger and survives broker crash/restart.
        """
        return self._require_session().subscribe(
            pattern,
            stream_id=stream_id,
            sensor_id=sensor_id,
            stream_index=stream_index,
            kind=kind,
            derived=derived,
        )

    def unsubscribe(self, subscription_id: int) -> None:
        self._require_session().unsubscribe(subscription_id)

    def discover(
        self,
        kind: str | None = None,
        sensor_id: int | None = None,
        derived: bool | None = None,
    ) -> list[StreamDescriptor]:
        return self._require_session().discover(
            kind=kind, sensor_id=sensor_id, derived=derived
        )

    def request_update(
        self,
        stream_id: StreamId,
        command: StreamUpdateCommand,
        value: Any = None,
        priority: int = 0,
    ) -> Decision:
        """Ask the middleware to reconfigure a sensor stream.

        Returns the Resource Manager's decision; when approved and a real
        change results, the actuation path (Actuation Service → Message
        Replicator → Transmitters) is engaged automatically.
        """
        session = self._require_session()
        self.stats.update_requests += 1
        return session.request_update(
            stream_id, command, value=value, priority=priority
        )

    def release_demands(self, stream_id: StreamId | None = None) -> None:
        """Withdraw standing demands (call when interest ends)."""
        self._require_session().release_demands(stream_id)

    def supply_hint(
        self, sensor_id: int, x: float, y: float, confidence_radius: float
    ) -> None:
        """Give the Location Service an application-level hint (Section 5)."""
        session = self._require_session()
        self.stats.hints_supplied += 1
        session.network.send(
            HINT_INBOX,
            LocationHint(
                sensor_id=sensor_id,
                x=x,
                y=y,
                confidence_radius=confidence_radius,
                supplied_by=self.name,
                supplied_at=self.now,
            ),
        )

    def report_state(self, state: str, detail: dict | None = None) -> None:
        """Forward a state change to the Super Coordinator (Section 4.2)."""
        session = self._require_session()
        self.stats.state_reports += 1
        session.network.send(
            COORDINATOR_INBOX,
            StateChangeReport(
                consumer=self.name,
                state=state,
                reported_at=self.now,
                detail=detail,
            ),
        )

    # ------------------------------------------------------------------
    # Derived-stream publication (multi-level consumers)
    # ------------------------------------------------------------------
    def publish(
        self,
        stream_index: int,
        payload: bytes,
        kind: str = "",
        fused: bool = False,
        encrypted: bool = False,
        extensions: tuple[tuple[int, bytes], ...] = (),
    ) -> StreamId:
        """Publish one message on this consumer's derived stream.

        The first publication on a stream index advertises it through the
        broker with ``kind``. Returns the derived stream's id.
        """
        stream_id = self._require_session().publish(
            stream_index,
            payload,
            kind=kind,
            fused=fused,
            encrypted=encrypted,
            extensions=extensions,
        )
        self.stats.published += 1
        return stream_id

    @property
    def publisher_id(self) -> int | None:
        """This consumer's virtual sensor id (None until first publish)."""
        return self._session.publisher_id if self._session else None
