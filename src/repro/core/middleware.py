"""The Garnet facade: one object wiring every Figure 1 service together.

``Garnet`` builds the whole deployment — simulation kernel, wireless
medium, receiver/transmitter arrays, and all middleware services — and
offers the high-level operations a deployment operator performs: defining
sensor types, deploying sensors, admitting consumers, and running the
simulation.

It also owns the *control path* sequencing of Section 4.2: a consumer's
stream update request goes Resource Manager (approval + mediation) →
Actuation Service (timestamp, checksum, request id, retries) → Message
Replicator (location lookup, transmitter selection) → Transmitters →
sensor; the facade glues the approval to the issuance.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.core.actuation import ActuationService
from repro.cluster.node import BrokerNode
from repro.cluster.runtime import (
    INGRESS_INBOX,
    ClusterRuntime,
    DisabledCluster,
)
from repro.core.config import GarnetConfig
from repro.core.constraints import ConstraintSet
from repro.core.consumer import Consumer
from repro.core.control import StreamUpdateCommand
from repro.core.coordinator import SuperCoordinator
from repro.core.dispatching import INBOX as DISPATCH_INBOX
from repro.core.filtering import FilteringService
from repro.core.location import (
    LOCATION_STREAM_KIND,
    LocationPublisher,
    LocationService,
)
from repro.core.message import MessageCodec
from repro.core.orphanage import Orphanage
from repro.core.replicator import MessageReplicator
from repro.core.resource import (
    Decision,
    ResourceManager,
    SensorTypeSpec,
    StreamConfig,
)
from repro.core.security import AuthService, Permission, Token
from repro.core.session import GarnetSession
from repro.core.streamid import (
    MAX_SENSOR_ID,
    StreamId,
    VIRTUAL_SENSOR_FLOOR,
)
from repro.core.streams import StreamRegistry
from repro.errors import ConfigurationError, RegistrationError
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import KernelProbe, Tracer
from repro.qos import (
    QOS_CONSUMER,
    AdmissionController,
    BreakerPolicy,
    DegradationController,
    DeliveryManager,
)
from repro.radio.array import ReceiverArray, TransmitterArray
from repro.sensors.node import SensorNode, SensorStreamSpec
from repro.simnet.fixednet import FixedNetwork
from repro.simnet.geometry import Point
from repro.simnet.kernel import Simulator
from repro.simnet.mobility import MobilityModel, Stationary
from repro.simnet.wireless import WirelessMedium
from repro.util.backoff import BackoffPolicy
from repro.util.ids import IdPool

#: ``connect(heartbeat_period=...)`` not passed: defer to the config. An
#: explicit ``None`` disables heartbeats, so None cannot be the default.
_USE_CONFIG: Any = object()

#: Which command applies each configuration parameter on the wire.
_PARAMETER_COMMANDS: dict[str, StreamUpdateCommand] = {
    "rate": StreamUpdateCommand.SET_RATE,
    "mode": StreamUpdateCommand.SET_MODE,
    "precision": StreamUpdateCommand.SET_PRECISION,
}


class ControlPath:
    """Glues Resource Manager approval to Actuation Service issuance."""

    def __init__(
        self,
        resource_manager: ResourceManager,
        actuation: ActuationService,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._resource_manager = resource_manager
        self._actuation = actuation
        self._observers: list[Any] = []
        registry = metrics if metrics is not None else MetricsRegistry()
        self._observer_errors = registry.counter(
            "control.observer_errors",
            help="actuation observers that raised during notification",
        )

    def add_actuation_observer(self, observer) -> None:
        """Observe actuation completions.

        ``observer(stream_id, parameter, value, success)`` fires when a
        request issued through this control path is acknowledged or gives
        up; experiments use it to timestamp when a configuration change
        actually landed on the sensor.
        """
        if not callable(observer):
            raise ConfigurationError(
                f"actuation observer must be callable, got {observer!r}"
            )
        self._observers.append(observer)

    @property
    def observer_errors(self) -> int:
        """How many observer callbacks raised (and were isolated)."""
        return int(self._observer_errors.value)

    def _notify(self, stream_id: StreamId, pending, success: bool) -> None:
        # An observer is experiment instrumentation riding on the
        # actuation ack path; one raising must not abort delivery to the
        # observers after it (or the ack processing that invoked us).
        for observer in list(self._observers):
            try:
                observer(stream_id, pending.parameter, pending.value, success)
            except Exception:
                self._observer_errors.inc()

    def request_update(
        self,
        consumer: str,
        stream_id: StreamId,
        command: StreamUpdateCommand,
        value: Any = None,
        priority: int = 0,
        token: Token | None = None,
    ) -> Decision:
        """The full Section 4.2 control sequence for one request."""
        decision = self._resource_manager.request_update(
            consumer=consumer,
            stream_id=stream_id,
            command=command,
            value=value,
            priority=priority,
            token=token,
        )
        if decision.approved and decision.issue_actuation:
            self._issue(stream_id, decision)
        return decision

    def release_demands(
        self, consumer: str, stream_id: StreamId | None = None
    ) -> int:
        """Withdraw demands and actuate any resulting re-mediations."""
        changes = self._resource_manager.release_demands(consumer, stream_id)
        for sid, parameter, value in changes:
            self._issue_parameter(sid, parameter, value)
        return len(changes)

    def _issue(self, stream_id: StreamId, decision: Decision) -> None:
        if decision.parameter is None:
            # PING and other parameterless commands go out verbatim.
            self._actuation.issue(
                stream_id,
                StreamUpdateCommand.PING,
                None,
                parameter=None,
                on_complete=lambda pending, ok: self._notify(
                    stream_id, pending, ok
                ),
            )
            return
        self._issue_parameter(
            stream_id, decision.parameter, decision.effective_value
        )

    def _issue_parameter(
        self, stream_id: StreamId, parameter: str, value: Any
    ) -> None:
        if parameter == "enabled":
            command = (
                StreamUpdateCommand.ENABLE_STREAM
                if value
                else StreamUpdateCommand.DISABLE_STREAM
            )
        else:
            command = _PARAMETER_COMMANDS[parameter]
        self._actuation.issue(
            stream_id,
            command,
            value,
            parameter=parameter,
            on_complete=lambda pending, ok: self._notify(
                stream_id, pending, ok
            ),
        )


@dataclass(slots=True)
class QosRuntime:
    """The deployment's installed overload-protection components.

    Each slot is None when the corresponding ``qos_*`` config switch is
    off; ``Garnet.qos`` always exists so callers (fault injectors,
    sessions, operator tooling) can probe without hasattr dances.
    """

    admission: AdmissionController | None = None
    delivery: DeliveryManager | None = None
    degradation: DegradationController | None = None

    @property
    def enabled(self) -> bool:
        return (
            self.admission is not None
            or self.delivery is not None
            or self.degradation is not None
        )


class Garnet:
    """A complete simulated Garnet deployment.

    Examples
    --------
    >>> from repro.core import Garnet
    >>> deployment = Garnet(seed=42)
    >>> deployment.sim.now
    0.0
    """

    def __init__(
        self, config: GarnetConfig | None = None, seed: int = 0
    ) -> None:
        self.config = (config or GarnetConfig()).validate()
        cfg = self.config
        self.sim = Simulator(seed=seed)
        #: Where the store's age horizon and a live broker's arrival
        #: stamps and PING read "now"; None is the virtual clock. A
        #: LiveBroker installs Unix time while it serves.
        self.arrival_clock: Callable[[], float] | None = None

        # Observability substrate: one registry for every service's
        # counters, timers keyed off virtual time, spans over the bus.
        self._metrics = MetricsRegistry(clock=lambda: self.sim.now)
        self.tracer = Tracer(self._metrics)
        self.sim.set_probe(KernelProbe(self._metrics))

        self.codec = MessageCodec()
        retry_policy = None
        if cfg.fixednet_retry_base is not None:
            retry_policy = BackoffPolicy(
                base=cfg.fixednet_retry_base,
                max_delay=cfg.fixednet_retry_max,
                max_attempts=cfg.fixednet_retry_attempts,
            )
        self.network = FixedNetwork(
            self.sim,
            message_latency=cfg.message_latency,
            metrics=self._metrics,
            tracer=self.tracer,
            retry_policy=retry_policy,
        )
        self.medium = WirelessMedium(
            self.sim, loss_model=cfg.loss_model, metrics=self._metrics
        )
        self.registry = StreamRegistry()
        self.auth = AuthService(cfg.deployment_secret)

        # Data path services. On clustered deployments filtered arrivals
        # leave through the cluster ingress (which shard-routes them to
        # their owning broker) instead of straight into the dispatcher.
        self.filtering = FilteringService(
            self.network,
            self.registry,
            metrics=self._metrics,
            dispatch_inbox=(
                INGRESS_INBOX if cfg.cluster_enabled else DISPATCH_INBOX
            ),
        )

        # Shared by every broker node, so built before the first one:
        # per-consumer delivery queues (repro.qos) and the durable stream
        # store with its write-through tap (repro.store). Off by default:
        # no appends, no ``store.*`` summary keys, data path
        # byte-identical (the golden digests pin this).
        self.qos = QosRuntime()
        if cfg.qos_consumer_queue is not None:
            self.qos.delivery = DeliveryManager(
                self.network,
                queue_capacity=cfg.qos_consumer_queue,
                quarantine_after=cfg.qos_quarantine_after,
                metrics=self._metrics,
            )
        self.store: Any = None
        self.store_tap: Any = None
        if cfg.store_enabled:
            from repro.store import StoreTap, build_store

            self.store = build_store(
                cfg, metrics=self._metrics, clock=self.now
            )
            self.store_tap = StoreTap(self.store, self.codec)

        # The primary broker node: the only one off-cluster, ``b0`` of a
        # federation. ``deployment.dispatcher`` etc. name its services.
        primary = BrokerNode(self, "b0", primary=True)
        self.nodes: list[BrokerNode] = [primary]
        self.dispatcher = primary.dispatcher
        self.orphanage = primary.orphanage
        self.broker = primary.broker
        self.qos.admission = primary.admission
        self.location = LocationService(
            self.network, decay_tau=cfg.location_decay_tau
        )

        # Radio edge
        self.receivers = ReceiverArray(
            cfg.area,
            cfg.receiver_rows,
            cfg.receiver_cols,
            medium=self.medium,
            network=self.network,
            codec=self.codec,
            overlap=cfg.receiver_overlap,
            location_service=self.location,
        )
        self.transmitters = TransmitterArray(
            cfg.area,
            cfg.transmitter_rows,
            cfg.transmitter_cols,
            medium=self.medium,
        )

        # Control path services
        self.resource_manager = ResourceManager(
            self.network,
            auth=self.auth,
            metrics=self._metrics,
        )
        self.actuation = ActuationService(
            self.network,
            resource_manager=self.resource_manager,
            ack_timeout=cfg.ack_timeout,
            max_attempts=cfg.ack_max_attempts,
            metrics=self._metrics,
            backoff=BackoffPolicy(
                base=cfg.ack_timeout,
                multiplier=cfg.ack_backoff_multiplier,
                max_delay=cfg.ack_backoff_max,
                max_attempts=cfg.ack_max_attempts,
            ),
        )
        self.replicator = MessageReplicator(
            self.network,
            self.transmitters,
            margin=cfg.replicator_margin,
            metrics=self._metrics,
        )
        self.coordinator = SuperCoordinator(
            self.network,
            resource_manager=self.resource_manager,
            predictive=cfg.predictive_coordinator,
            lead_fraction=cfg.prediction_lead_fraction,
            metrics=self._metrics,
        )
        self.control = ControlPath(
            self.resource_manager, self.actuation, metrics=self._metrics
        )

        # Overload protection (repro.qos): each component installs only
        # when its config switch is on, so default deployments keep the
        # historical event sequence exactly.
        if cfg.qos_breaker_failures is not None:
            self.network.set_breaker_policy(
                BreakerPolicy(
                    failure_threshold=cfg.qos_breaker_failures,
                    reset_timeout=cfg.qos_breaker_reset,
                )
            )
        if cfg.qos_degradation:
            self.qos.degradation = DegradationController(
                self.sim,
                self.network,
                self.control,
                self.resource_manager,
                token=self.auth.issue(
                    QOS_CONSUMER, Permission.trusted_consumer()
                ),
                metrics=self._metrics,
                period=cfg.qos_degradation_period,
                min_rate=cfg.qos_min_rate,
                ingress_queue_capacity=(
                    cfg.qos_ingress_queue
                    if cfg.qos_ingress_rate is not None
                    else None
                ),
            )

        # Clustered federation (repro.cluster): extra broker nodes,
        # inter-broker links, the shard map and the handoff coordinator
        # install only when switched on; otherwise a placeholder keeps
        # ``deployment.cluster`` probe-able and the data path untouched.
        self.cluster: ClusterRuntime | DisabledCluster = DisabledCluster()
        if cfg.cluster_enabled:
            self.cluster = ClusterRuntime(self)
            self.nodes = list(self.cluster.nodes.values())

        # Hierarchical fan-out (repro.fanout): relay trees aggregate
        # consumer interest so the dispatcher emits one delivery per
        # subtree, with inter-broker legs batched per link. Off by
        # default — the module is never imported, no relay inboxes
        # exist, and the per-consumer path is byte-identical (the
        # golden digests pin this).
        self.fanout: Any = None
        if cfg.fanout_enabled:
            from repro.fanout import FanoutRuntime

            self.fanout = FanoutRuntime(self)

        self._sensor_ids = IdPool(0, VIRTUAL_SENSOR_FLOOR - 1)
        self._publisher_ids = IdPool(VIRTUAL_SENSOR_FLOOR, MAX_SENSOR_ID)
        self._sensors: dict[int, SensorNode] = {}
        self._consumers: dict[str, Consumer] = {}
        self._sessions: dict[str, GarnetSession] = {}

        # Location data is itself a (restricted) data stream (Section 2):
        # estimates are republished periodically under a derived StreamId
        # whose required_permission keeps it away from consumers without
        # LOCATION rights.
        self.location_publisher: LocationPublisher | None = None
        if cfg.publish_location_stream:
            location_stream = StreamId(self._publisher_ids.allocate(), 0)
            self.registry.advertise(
                location_stream,
                kind=LOCATION_STREAM_KIND,
                publisher="garnet.location",
                attributes={"required_permission": Permission.LOCATION},
            )
            self.location_publisher = LocationPublisher(
                self.network,
                self.location,
                location_stream,
            )

    def stream_priority(self, arrival) -> int:
        """Shedding priority for one arrival (``DropByStreamPriority``).

        A stream advertised with a ``qos_priority`` attribute uses it;
        otherwise physical sensor streams outrank derived/publisher
        streams, so a flood published on the fixed network is shed
        before field telemetry is touched.
        """
        stream_id = arrival.message.stream_id
        descriptor = self.registry.find(stream_id)
        if descriptor is not None:
            priority = descriptor.attributes.get("qos_priority")
            if priority is not None:
                return int(priority)
        return 0 if stream_id.is_derived else 1

    # ------------------------------------------------------------------
    # Identity & types
    # ------------------------------------------------------------------
    def allocate_publisher_id(self) -> int:
        """Allocate a publisher id in the derived (virtual-sensor) range.

        Sessions do this implicitly on first publish; the public method
        exists for infrastructure that publishes without a session (e.g.
        the ``FloodBurst`` fault's synthetic load generator).
        """
        return self._publisher_ids.allocate()

    def release_publisher_id(self, value: int) -> None:
        """Return a virtual-sensor publisher id to the pool.

        Used by the live transport when it reaps a vanished client's
        session: simulated sessions keep their id for the deployment's
        lifetime (reuse would let a late frame impersonate a new
        publisher within one deterministic run), but a reaped live
        client is gone for good and millions of sessions would otherwise
        exhaust the virtual range.
        """
        self._publisher_ids.release(value)

    def reserve_publisher_id(self, value: int) -> int:
        """Claim a specific virtual-sensor publisher id.

        The live broker reserves the ids named in a persisted session
        table at startup so that clients connecting before those
        sessions resume cannot be handed an id whose streams (and
        subscriber dedupe state) already exist. Raises
        :class:`~repro.util.ids.IdExhaustedError` when the id is
        already taken.
        """
        return self._publisher_ids.reserve(value)

    def issue_token(
        self, principal: str, permissions: Permission | None = None
    ) -> Token:
        """Issue an access token (standard consumer rights by default)."""
        return self.auth.issue(
            principal,
            permissions
            if permissions is not None
            else Permission.standard_consumer(),
        )

    def define_sensor_type(
        self,
        name: str,
        constraints: dict[str, str] | ConstraintSet | None = None,
        default_config: StreamConfig | None = None,
        actuatable: bool = True,
    ) -> SensorTypeSpec:
        """Register a sensor model with its constraint set."""
        if not isinstance(constraints, ConstraintSet):
            constraints = ConstraintSet(constraints)
        spec = SensorTypeSpec(
            name=name,
            constraints=constraints,
            default_config=default_config or StreamConfig(),
            actuatable=actuatable,
        )
        self.resource_manager.register_sensor_type(spec)
        return spec

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def add_sensor(
        self,
        type_name: str,
        streams: list[SensorStreamSpec],
        mobility: MobilityModel | Point | None = None,
        sensor_id: int | None = None,
        tx_range: float | None = None,
        receive_capable: bool = True,
        battery=None,
        energy_model=None,
        cipher=None,
        start: bool = True,
    ) -> SensorNode:
        """Deploy one sensor into the field and register it everywhere.

        ``mobility`` may be a :class:`MobilityModel`, a fixed
        :class:`Point`, or None (stationary at the area centre). The
        default transmit range is 1.2x the receiver zone radius so nodes
        inside the field are heard by overlapping receivers.
        """
        if sensor_id is None:
            sensor_id = self._sensor_ids.allocate()
        else:
            self._sensor_ids.reserve(sensor_id)
        if mobility is None:
            mobility = Stationary(self.config.area.center)
        elif isinstance(mobility, Point):
            mobility = Stationary(mobility)
        if tx_range is None:
            tx_range = self.receivers.reception_range * 1.2
        if tx_range <= 0:
            raise ConfigurationError("tx_range must be positive")
        node = SensorNode(
            sensor_id=sensor_id,
            sim=self.sim,
            medium=self.medium,
            mobility=mobility,
            streams=streams,
            message_codec=self.codec,
            tx_range=tx_range,
            receive_capable=receive_capable,
            battery=battery,
            energy_model=energy_model,
            cipher=cipher,
        )
        self._sensors[sensor_id] = node
        self.resource_manager.register_sensor(
            sensor_id,
            type_name,
            stream_indexes=tuple(
                spec.stream_index for spec in streams
            ),
        )
        for spec in streams:
            if spec.kind:
                self.registry.advertise(
                    StreamId(sensor_id, spec.stream_index),
                    kind=spec.kind,
                    encrypted=cipher is not None,
                )
        if start:
            node.start()
        return node

    def sensor(self, sensor_id: int) -> SensorNode:
        try:
            return self._sensors[sensor_id]
        except KeyError as exc:
            raise RegistrationError(f"unknown sensor {sensor_id}") from exc

    def sensors(self) -> list[SensorNode]:
        return [self._sensors[sid] for sid in sorted(self._sensors)]

    def connect(
        self,
        name: str | None = None,
        token: Token | None = None,
        permissions: Permission | None = None,
        *,
        heartbeat_period: float | None = _USE_CONFIG,
        broker: str | None = None,
    ) -> GarnetSession:
        """Open a :class:`GarnetSession`: the consumer-side front door.

        One call replaces the register-inbox / register-consumer /
        subscribe / discover choreography against individual services:

        >>> session = deployment.connect("dashboard")       # doctest: +SKIP
        >>> session.subscribe(kind="temperature.*")         # doctest: +SKIP

        ``name`` defaults to the token's principal when a token is
        supplied; with neither, :class:`RegistrationError`.
        ``heartbeat_period`` (default: the config's
        ``session_heartbeat_period``) enables lease heartbeating and
        automatic crash recovery; pass ``None`` explicitly to disable
        heartbeats for this session regardless of the config.

        On clustered deployments ``broker`` picks which broker node the
        session is homed on (default: the primary). A session may home
        anywhere; publishes and subscriptions are shard-routed to the
        owning brokers transparently.

        This is the simulated door only: a socket-backed session against
        a running ``garnet-broker`` (the same ``subscribe``/``publish``/
        ``on_data`` surface) comes from :func:`repro.transport.connect`.
        """
        node = self.nodes[0] if broker is None else self.cluster.node(broker)
        if name is None:
            if token is None:
                raise RegistrationError(
                    "connect() needs a session name or a token"
                )
            name = token.principal
        if name in self._sessions:
            raise RegistrationError(f"session {name!r} already connected")
        if token is None:
            token = self.issue_token(name, permissions)
        if heartbeat_period is _USE_CONFIG:
            heartbeat_period = self.config.session_heartbeat_period
        session = GarnetSession(
            self, name, token, node, heartbeat_period=heartbeat_period
        )
        self._sessions[name] = session
        return session

    def _release_session(self, session: GarnetSession) -> None:
        # Called by GarnetSession.close(); keeps the name reusable.
        if self._sessions.get(session.name) is session:
            del self._sessions[session.name]

    def session(self, name: str) -> GarnetSession:
        try:
            return self._sessions[name]
        except KeyError as exc:
            raise RegistrationError(f"no session named {name!r}") from exc

    def sessions(self) -> list[GarnetSession]:
        return [self._sessions[name] for name in sorted(self._sessions)]

    def add_consumer(
        self,
        consumer: Consumer,
        token: Token | None = None,
        permissions: Permission | None = None,
    ) -> Consumer:
        """Admit a consumer process: session, registration, ``on_start``.

        The consumer is attached over a :class:`GarnetSession` (its
        ``runtime``), so it inherits lease heartbeating and broker-crash
        recovery when those are enabled in the config.
        """
        if consumer.name in self._consumers:
            raise RegistrationError(
                f"consumer {consumer.name!r} already added"
            )
        session = self.connect(consumer.name, token, permissions)
        session.on_data(consumer._deliver)
        consumer._attach(session)
        self._consumers[consumer.name] = consumer
        consumer.on_start()
        return consumer

    def orphanages(self) -> list[Orphanage]:
        """Every Orphanage in the deployment (one per broker node)."""
        return [node.orphanage for node in self.nodes]

    def invalidate_routes(self) -> None:
        """Flush memoised dispatch routing on every broker node."""
        for node in self.nodes:
            node.dispatcher.invalidate_routes()

    def remove_consumer(self, consumer: Consumer) -> None:
        """Retire a consumer: demands released, subscriptions dropped."""
        self._require_member(consumer)
        consumer._session.close()
        del self._consumers[consumer.name]

    def _require_member(self, consumer: Consumer) -> None:
        if self._consumers.get(consumer.name) is not consumer:
            raise RegistrationError(
                f"consumer {consumer.name!r} is not part of this deployment"
            )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def metrics(self) -> MetricsRegistry:
        """The deployment-wide metrics registry.

        Every service's legacy ``.stats`` attribute is a write-through
        view over counters living here, so this is the single place to
        snapshot or export a deployment's telemetry.
        """
        return self._metrics

    def metrics_snapshot(self) -> dict:
        """A JSON-serialisable snapshot of every metric, plus the clock."""
        snapshot = self._metrics.snapshot()
        snapshot["time"] = self.sim.now
        return snapshot

    # ------------------------------------------------------------------
    # Execution & reporting
    # ------------------------------------------------------------------
    def run(self, duration: float) -> None:
        """Advance the deployment by ``duration`` simulated seconds."""
        if duration < 0:
            raise ConfigurationError("duration must be non-negative")
        self.sim.run(until=self.sim.now + duration)

    def now(self) -> float:
        """Arrival-clock time: virtual seconds, Unix seconds when live."""
        clock = self.arrival_clock
        return clock() if clock is not None else self.sim.now

    def run_until_idle(self, max_events: int | None = None) -> None:
        """Drain every pending event (sensors stopped beforehand)."""
        self.sim.run(max_events=max_events)

    def summary(self) -> dict[str, float]:
        """Cross-service counters for experiment reporting.

        The key set is fixed for single-broker deployments (the golden
        digest depends on it); ``cluster.*`` keys appear only when
        clustering is enabled.
        """
        summary = self._base_summary()
        if self.cluster.enabled:
            cluster = self.cluster.stats
            summary["cluster.ingress_routed"] = float(cluster.ingress_routed)
            summary["cluster.publish_forwards"] = float(
                cluster.publish_forwards
            )
            summary["cluster.forwards"] = float(cluster.forwards)
            summary["cluster.dedupe_hits"] = float(cluster.dedupe_hits)
            summary["cluster.handoffs"] = float(cluster.handoffs)
            summary["cluster.streams_reassigned"] = float(
                cluster.streams_reassigned
            )
            summary["cluster.replayed"] = float(cluster.replayed)
            summary["cluster.reroutes"] = float(cluster.reroutes)
            unknown = self.cluster.unknown_frames.value
            if unknown:
                # Conditional so healthy runs keep the pre-existing key
                # set (the cluster golden digest hashes summary items).
                summary["cluster.link.unknown_frames"] = float(unknown)
        if self.store is not None:
            # ``store.*`` keys appear only when the store is enabled, so
            # the store-less golden digests stay byte-identical.
            store = self.store.stats
            summary["store.appended"] = float(store.appended)
            summary["store.bytes_appended"] = float(store.bytes_appended)
            summary["store.duplicates_skipped"] = float(
                store.duplicates_skipped
            )
            summary["store.segments"] = float(self.store.segment_count())
            summary["store.segments_evicted"] = float(store.segments_evicted)
            summary["store.records_evicted"] = float(store.records_evicted)
            summary["store.replays"] = float(store.replays)
            summary["store.records_replayed"] = float(store.records_replayed)
            summary["store.queries"] = float(store.queries)
            summary["store.truncated_tail"] = float(store.truncated_tail)
        if self.fanout is not None:
            # ``fanout.*`` keys appear only when fan-out is enabled, so
            # the flat-delivery golden digests stay byte-identical.
            fanout = self.fanout.stats
            summary["fanout.sessions"] = float(self.fanout.session_count())
            summary["fanout.relays"] = float(self.fanout.relay_count())
            summary["fanout.root_batches"] = float(fanout.root_batches)
            summary["fanout.relay_forwards"] = float(fanout.relay_forwards)
            summary["fanout.leaf_deliveries"] = float(fanout.leaf_deliveries)
            summary["fanout.quarantine_diverted"] = float(
                fanout.quarantine_diverted
            )
        return summary

    def _base_summary(self) -> dict[str, float]:
        return {
            "time": self.sim.now,
            "radio.transmissions": float(self.medium.stats.transmissions),
            "radio.deliveries": float(self.medium.stats.deliveries),
            "radio.losses": float(self.medium.stats.losses),
            "filtering.received": float(self.filtering.stats.received),
            "filtering.delivered": float(self.filtering.stats.delivered),
            "filtering.duplicates": float(self.filtering.stats.duplicates),
            "dispatch.deliveries": float(self.dispatcher.stats.deliveries),
            "dispatch.orphaned": float(self.dispatcher.stats.orphaned),
            "actuation.issued": float(self.actuation.stats.issued),
            "actuation.acknowledged": float(
                self.actuation.stats.acknowledged
            ),
            "actuation.failed": float(self.actuation.stats.failed),
            "orphanage.received": float(self.orphanage.total_received),
            "orphanage.evicted": float(self.orphanage.stats.evicted),
        }
