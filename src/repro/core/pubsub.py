"""The pub/sub broker: advertising, discovery, registration, authentication.

Section 3: "the data is consumed by applications which use typical
advertising, discovery, registration, authentication and publish/subscribe
mechanisms to identify, subscribe to, and receive data streams of
interest." The broker is the front door implementing all five:

- **registration/authentication** — consumers present an
  :class:`~repro.core.security.AuthService` token and register their
  fixed-network endpoint;
- **advertising** — publishers attach metadata (a kind tag, attributes,
  encryption marker) to streams; the Dispatching Service also auto-
  advertises streams first seen as raw data;
- **discovery** — consumers query advertised metadata, never payloads;
- **publish/subscribe** — subscriptions (exact or pattern) are installed
  into the Dispatching Service, which owns the data path.

Registrations are **leases**: when the broker is constructed with a
``lease_ttl``, an endpoint that stops heartbeating past its TTL is reaped
— its binding and every subscription it installed are dropped, exactly
what happens to a consumer process that died without deregistering.
:class:`~repro.core.session.GarnetSession` heartbeats automatically, and
uses a ``False`` heartbeat reply ("who are you?") as its signal to
re-register after the broker itself crashed and restarted with empty
state (:meth:`Broker.crash` / :meth:`Broker.restart`, driven by
:mod:`repro.faults`).

Consumers remain mutually unaware: nothing the broker exposes reveals who
else is subscribed (Section 2, "consumer processes are mutually unaware").
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.dispatching import (
    BROKER_INBOX,
    DispatchingService,
    SubscriptionPattern,
)
from repro.core.envelopes import StreamAdvertisement
from repro.core.security import AuthService, Permission, Token
from repro.core.streamid import StreamId
from repro.core.streams import StreamDescriptor, StreamRegistry
from repro.errors import (
    ConfigurationError,
    RegistrationError,
    ServiceDownError,
    SubscriptionError,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.stats import RegistryBackedStats
from repro.simnet.fixednet import FixedNetwork

SERVICE_NAME = "garnet.broker"


class BrokerStats(RegistryBackedStats):
    PREFIX = "broker"

    registrations: int = 0
    advertisements: int = 0
    discoveries: int = 0
    subscriptions: int = 0
    unsubscriptions: int = 0
    heartbeats: int = 0
    leases_expired: int = 0


class Broker:
    """Authenticated front door to Garnet's stream catalogue and data path."""

    def __init__(
        self,
        network: FixedNetwork,
        registry: StreamRegistry,
        dispatcher: DispatchingService,
        auth: AuthService,
        metrics: MetricsRegistry | None = None,
        lease_ttl: float | None = None,
        advertisement_inbox: str = BROKER_INBOX,
    ) -> None:
        if lease_ttl is not None and lease_ttl <= 0:
            raise ConfigurationError("lease_ttl must be positive or None")
        self._network = network
        self._registry = registry
        self._dispatcher = dispatcher
        self._auth = auth
        self._lease_ttl = lease_ttl
        self._advertisement_inbox = advertisement_inbox
        self._endpoints: dict[str, str] = {}  # endpoint -> principal
        self._permissions: dict[str, Permission] = {}  # endpoint -> perms
        self._leases: dict[str, float] = {}  # endpoint -> expires_at
        #: Where lease grants and expiry read "now"; None is the virtual
        #: clock. A live broker installs its wall clock: there the virtual
        #: clock runs ahead of real time under load, while clients renew
        #: on real time.
        self.lease_clock: Callable[[], float] | None = None
        self._watchers: list[Callable[[StreamAdvertisement], None]] = []
        self._up = True
        self.stats = BrokerStats(metrics)
        network.register_inbox(advertisement_inbox, self._on_advertisement)
        dispatcher.install(route_guard=self._route_guard)

    def _route_guard(self, endpoint: str, descriptor) -> bool:
        """Data-path permission check for restricted streams.

        A stream advertised with a ``required_permission`` attribute (the
        location stream is the canonical case, Section 2) is only
        delivered to endpoints whose registration token carries that
        permission.
        """
        required = descriptor.attributes.get("required_permission")
        if required is None:
            return True
        held = self._permissions.get(endpoint, Permission.NONE)
        return held & required == required

    # ------------------------------------------------------------------
    # Liveness (crash faults)
    # ------------------------------------------------------------------
    @property
    def advertisement_inbox(self) -> str:
        """The inbox this broker listens on for stream advertisements."""
        return self._advertisement_inbox

    @property
    def up(self) -> bool:
        """False between :meth:`crash` and :meth:`restart`."""
        return self._up

    def crash(self) -> None:
        """Kill the broker: state is lost, its endpoints go dark.

        Models a middleware host dying without a graceful shutdown: the
        session/lease table evaporates, the routing state those sessions
        installed is torn down (their deliveries stop, data falls through
        to the Orphanage), and its advertisement inbox goes dark.
        Idempotent. Consumers recover after :meth:`restart` via their
        heartbeat loop.
        """
        if not self._up:
            return
        self._up = False
        for endpoint in list(self._endpoints):
            self._dispatcher.remove_endpoint(endpoint)
        self._endpoints.clear()
        self._permissions.clear()
        self._leases.clear()
        self._dispatcher.invalidate_routes()
        self._network.unregister_inbox(self._advertisement_inbox)

    def restart(self) -> None:
        """Bring a crashed broker back, empty: sessions must re-register."""
        if self._up:
            return
        self._up = True
        self._network.register_inbox(
            self._advertisement_inbox, self._on_advertisement
        )

    def _require_up(self) -> None:
        if not self._up:
            raise ServiceDownError("the broker is down")

    # ------------------------------------------------------------------
    # Leases
    # ------------------------------------------------------------------
    @property
    def lease_ttl(self) -> float | None:
        return self._lease_ttl

    def lease_expiry(self, endpoint: str) -> float | None:
        """When ``endpoint``'s lease lapses (None = no lease / no TTL)."""
        return self._leases.get(endpoint)

    def _lease_now(self) -> float:
        clock = self.lease_clock
        return clock() if clock is not None else self._network.sim.now

    def _grant_lease(self, endpoint: str) -> None:
        if self._lease_ttl is not None:
            self._leases[endpoint] = self._lease_now() + self._lease_ttl

    def reap_expired_leases(self) -> int:
        """Drop every endpoint whose lease has lapsed; returns the count.

        Called lazily from every broker operation (and by the session
        heartbeat path), so a dead consumer's subscriptions disappear the
        next time anything touches the broker after the TTL passes.

        Reaping funnels through ``dispatcher.remove_endpoint``, which
        also releases any QoS delivery backlog (queued or quarantined
        messages) parked for the endpoint — a reaped consumer keeps no
        claim on middleware memory.
        """
        if self._lease_ttl is None:
            return 0
        now = self._lease_now()
        expired = [
            endpoint
            for endpoint, expires_at in self._leases.items()
            if expires_at <= now
        ]
        for endpoint in expired:
            del self._leases[endpoint]
            self._endpoints.pop(endpoint, None)
            self._permissions.pop(endpoint, None)
            self._dispatcher.remove_endpoint(endpoint)
            self.stats.leases_expired += 1
        if expired:
            self._dispatcher.invalidate_routes()
        return len(expired)

    def heartbeat(self, token: Token, endpoint: str) -> bool:
        """Renew ``endpoint``'s lease; False means "re-register, please".

        A ``False`` reply is how a session discovers the broker lost its
        registration — because the lease expired, or because the broker
        restarted from a crash with empty state.
        """
        self._require_up()
        principal = self._auth.require(token, Permission.SUBSCRIBE)
        self.reap_expired_leases()
        self.stats.heartbeats += 1
        if self._endpoints.get(endpoint) != principal:
            return False
        self._grant_lease(endpoint)
        return True

    # ------------------------------------------------------------------
    # Registration & authentication
    # ------------------------------------------------------------------
    def register_consumer(self, token: Token, endpoint: str) -> str:
        """Bind a consumer's fixed-network endpoint to its identity."""
        self._require_up()
        principal = self._auth.require(token, Permission.SUBSCRIBE)
        self.reap_expired_leases()
        if not self._network.has_inbox(endpoint):
            raise RegistrationError(
                f"endpoint {endpoint!r} has no inbox on the fixed network"
            )
        existing = self._endpoints.get(endpoint)
        if existing is not None and existing != principal:
            raise RegistrationError(
                f"endpoint {endpoint!r} already bound to {existing!r}"
            )
        self._endpoints[endpoint] = principal
        self._permissions[endpoint] = token.permissions
        self._grant_lease(endpoint)
        self._dispatcher.invalidate_routes()
        self.stats.registrations += 1
        return principal

    def deregister_consumer(self, token: Token, endpoint: str) -> int:
        """Unbind an endpoint and drop all its subscriptions."""
        self._require_up()
        principal = self._auth.require(token, Permission.SUBSCRIBE)
        self._require_owner(principal, endpoint)
        del self._endpoints[endpoint]
        self._permissions.pop(endpoint, None)
        self._leases.pop(endpoint, None)
        self._dispatcher.invalidate_routes()
        return self._dispatcher.remove_endpoint(endpoint)

    def _require_owner(self, principal: str, endpoint: str) -> None:
        owner = self._endpoints.get(endpoint)
        if owner is None:
            raise RegistrationError(f"endpoint {endpoint!r} is not registered")
        if owner != principal:
            raise RegistrationError(
                f"endpoint {endpoint!r} belongs to {owner!r}, not {principal!r}"
            )

    # ------------------------------------------------------------------
    # Advertising & discovery
    # ------------------------------------------------------------------
    def advertise(
        self,
        token: Token,
        stream_id: StreamId,
        kind: str,
        encrypted: bool = False,
        attributes: dict | None = None,
    ) -> StreamDescriptor:
        """Attach metadata to a stream (requires PUBLISH)."""
        self._require_up()
        principal = self._auth.require(token, Permission.PUBLISH)
        descriptor = self._registry.advertise(
            stream_id,
            kind=kind,
            publisher=principal,
            encrypted=encrypted,
            attributes=attributes,
        )
        self._dispatcher.invalidate_routes(stream_id)
        self.stats.advertisements += 1
        notice = StreamAdvertisement(
            stream_id=stream_id,
            kind=kind,
            encrypted=encrypted,
            advertised_at=self._network.sim.now,
        )
        self._notify_watchers(notice)
        return descriptor

    def discover(
        self,
        token: Token,
        kind: str | None = None,
        sensor_id: int | None = None,
        derived: bool | None = None,
    ) -> list[StreamDescriptor]:
        """Query advertised streams by metadata (requires SUBSCRIBE)."""
        self._require_up()
        self._auth.require(token, Permission.SUBSCRIBE)
        self.stats.discoveries += 1
        return self._registry.match(
            kind=kind, sensor_id=sensor_id, derived=derived
        )

    def watch_advertisements(
        self, token: Token, callback: Callable[[StreamAdvertisement], None]
    ) -> None:
        """Be notified of every future advertisement (requires SUBSCRIBE)."""
        self._require_up()
        self._auth.require(token, Permission.SUBSCRIBE)
        self._watchers.append(callback)

    def _on_advertisement(self, notice: StreamAdvertisement) -> None:
        # Auto-advertisements from the Dispatching Service for streams
        # first seen as arriving data.
        self.stats.advertisements += 1
        self._notify_watchers(notice)

    def _notify_watchers(self, notice: StreamAdvertisement) -> None:
        for watcher in self._watchers:
            watcher(notice)

    # ------------------------------------------------------------------
    # Publish/subscribe
    # ------------------------------------------------------------------
    def subscribe(
        self, token: Token, endpoint: str, pattern: SubscriptionPattern
    ) -> int:
        """Install a subscription routing matching streams to ``endpoint``."""
        self._require_up()
        principal = self._auth.require(token, Permission.SUBSCRIBE)
        self.reap_expired_leases()
        self._require_owner(principal, endpoint)
        if not isinstance(pattern, SubscriptionPattern):
            raise SubscriptionError(
                f"pattern must be a SubscriptionPattern, got {type(pattern)!r}"
            )
        subscription_id = self._dispatcher.add_subscription(endpoint, pattern)
        self.stats.subscriptions += 1
        return subscription_id

    def unsubscribe(self, token: Token, subscription_id: int) -> None:
        self._require_up()
        principal = self._auth.require(token, Permission.SUBSCRIBE)
        self._require_owner(
            principal, self._dispatcher.subscription_endpoint(subscription_id)
        )
        self._dispatcher.remove_subscription(subscription_id)
        self.stats.unsubscriptions += 1
