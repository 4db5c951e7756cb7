"""Deployment configuration for a Garnet instance."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.simnet.geometry import Rect
from repro.simnet.wireless import LossModel


@dataclass(slots=True)
class GarnetConfig:
    """Everything needed to stand up one simulated Garnet deployment.

    The defaults describe a 1 km x 1 km field with a 4x4 receiver grid at
    1.5x coverage overlap — enough duplication to make the Filtering
    Service earn its keep, matching the Section 4.2 design intent.

    A field is here only when something outside the tests sets it to a
    second value; every other tunable stays a default of the service
    that owns it, which also owns its range check
    (``tests/test_config_budget.py`` pins both rules).
    """

    area: Rect = field(default_factory=lambda: Rect(0.0, 0.0, 1000.0, 1000.0))

    # Radio arrays
    receiver_rows: int = 4
    receiver_cols: int = 4
    receiver_overlap: float = 1.5
    transmitter_rows: int = 2
    transmitter_cols: int = 2

    # Wireless medium
    loss_model: LossModel | None = field(default_factory=LossModel)

    # Fixed network
    message_latency: float = 0.0005

    # Orphanage
    orphanage_backlog: int = 256

    # Location Service
    location_decay_tau: float = 30.0
    publish_location_stream: bool = True

    # Actuation Service. The backoff default (multiplier 1) reproduces
    # the historical fixed-interval retransmission exactly.
    ack_timeout: float = 2.0
    ack_max_attempts: int = 3
    ack_backoff_multiplier: float = 1.0
    ack_backoff_max: float | None = None
    replicator_margin: float = 25.0

    # Fixed-network resilience: when ``fixednet_retry_base`` is set,
    # sends to an unreachable endpoint are retried on a doubling backoff
    # from that base instead of being dropped immediately; exhausted
    # retries go to the dead-letter hook either way.
    fixednet_retry_base: float | None = None
    fixednet_retry_max: float | None = None
    fixednet_retry_attempts: int = 3

    # Broker leases & session liveness: both default off, which is the
    # pre-lease behaviour (registrations never expire, no heartbeats).
    broker_lease_ttl: float | None = None
    session_heartbeat_period: float | None = None

    # Overload protection & graceful degradation (repro.qos). Everything
    # defaults off, which is the pre-QoS behaviour (unbounded ingress,
    # direct fan-out, no breakers, no degradation).
    #
    # ``qos_ingress_rate`` (messages/second of virtual time) switches on
    # token-bucket admission control at the Dispatching Service ingress.
    qos_ingress_rate: float | None = None
    qos_ingress_burst: float = 64.0
    qos_ingress_queue: int = 256
    qos_shedding: str = "drop_oldest"  # or "priority"
    # ``qos_consumer_queue`` switches on per-consumer delivery queues
    # with slow-consumer quarantine.
    qos_consumer_queue: int | None = None
    qos_quarantine_after: float = 5.0
    # ``qos_breaker_failures`` switches on fixed-network circuit
    # breakers (dead-letters before a trip; reset = half-open probe
    # delay in virtual seconds).
    qos_breaker_failures: int | None = None
    qos_breaker_reset: float = 30.0
    # ``qos_degradation`` switches on the load-driven sensor
    # down-throttling controller.
    qos_degradation: bool = False
    qos_degradation_period: float = 5.0
    qos_min_rate: float = 0.1

    # Clustered federation (repro.cluster). Defaults off: the single-
    # broker deployment is byte-identical to the pre-cluster behaviour
    # (the golden digest in tests/test_perf_determinism.py pins this).
    #
    # ``cluster_enabled`` stands up ``cluster_brokers`` broker nodes over
    # the fixed network; stream ownership is assigned by consistent
    # hashing (with explicit pin overrides), publishes/interest cross
    # brokers over InterBrokerLink inboxes, and a ClusterCoordinator
    # polls broker liveness every ``cluster_failover_check_period``
    # virtual seconds to execute ownership handoff with replay from a
    # bounded per-stream backlog.
    cluster_enabled: bool = False
    cluster_brokers: int = 2
    cluster_failover_check_period: float = 1.0

    # Durable stream store (repro.store). Default off: appends never
    # happen, the ``store.*`` keys stay out of summary(), and the data
    # path is byte-identical to the store-less build (golden digests).
    #
    # ``store_enabled`` installs a write-through tap at every broker
    # node's dispatcher; segments live in files under ``store_dir`` when
    # it is set and in memory otherwise. Segment size and retention are
    # the store constructors' defaults.
    store_enabled: bool = False
    store_dir: str | None = None

    # Hierarchical fan-out (repro.fanout). Default off: no relay
    # inboxes, no ``fanout.*`` summary keys, and the per-consumer
    # delivery path is byte-identical to the pre-fanout build (the
    # golden digests pin this).
    #
    # ``fanout_enabled`` stands up the deployment fan-out tree and
    # installs the dispatcher hook that intercepts tree-root legs:
    # consumer interest aggregates through the tree's relay tiers
    # (FanoutTree's default shape; ``fanout.new_tree`` builds others),
    # the dispatcher emits one delivery per subtree. Inter-broker legs
    # stay one RemoteDelivery each; they are not batched.
    fanout_enabled: bool = False

    # Live transport (repro.transport), for a deployment served over
    # real sockets by a LiveBroker (which takes its bind address as
    # constructor arguments). ``transport_resume_grace`` keeps a
    # disconnected client's server-side session (subscriptions, parked
    # deliveries, publisher id) alive for that many wall-clock seconds
    # so a RESUME with the session's token can pick up where it left
    # off. None (the default) disables parking entirely — a dropped
    # control connection tears the session down immediately, the
    # pre-resume behaviour. The parked-delivery buffer is bounded;
    # overflow evicts oldest (the store, when enabled, still repairs
    # evicted records on resume).
    transport_resume_grace: float | None = None

    # Super Coordinator
    predictive_coordinator: bool = False
    prediction_lead_fraction: float = 0.5

    # Security
    deployment_secret: bytes = b"garnet-deployment-secret"

    def validate(self) -> "GarnetConfig":
        """Sanity-check cross-field consistency; returns self."""
        if self.receiver_rows < 1 or self.receiver_cols < 1:
            raise ConfigurationError("receiver grid must be at least 1x1")
        if self.transmitter_rows < 1 or self.transmitter_cols < 1:
            raise ConfigurationError("transmitter grid must be at least 1x1")
        if self.area.width <= 0 or self.area.height <= 0:
            raise ConfigurationError("deployment area must have extent")
        if self.broker_lease_ttl is not None and self.broker_lease_ttl <= 0:
            raise ConfigurationError("broker_lease_ttl must be positive")
        if (
            self.transport_resume_grace is not None
            and self.transport_resume_grace <= 0
        ):
            raise ConfigurationError(
                "transport_resume_grace must be positive or None"
            )
        if (
            self.session_heartbeat_period is not None
            and self.session_heartbeat_period <= 0
        ):
            raise ConfigurationError(
                "session_heartbeat_period must be positive"
            )
        if (
            self.broker_lease_ttl is not None
            and self.session_heartbeat_period is not None
            and self.session_heartbeat_period >= self.broker_lease_ttl
        ):
            raise ConfigurationError(
                "session_heartbeat_period must be shorter than "
                "broker_lease_ttl or every lease expires between heartbeats"
            )
        if self.qos_ingress_rate is not None:
            if self.qos_ingress_rate <= 0:
                raise ConfigurationError("qos_ingress_rate must be positive")
            if self.qos_ingress_burst < 1:
                raise ConfigurationError(
                    "qos_ingress_burst must be at least one message"
                )
            if self.qos_ingress_queue < 1:
                raise ConfigurationError(
                    "qos_ingress_queue must be at least 1"
                )
        if self.qos_shedding not in ("drop_oldest", "priority"):
            raise ConfigurationError(
                f"unknown qos_shedding policy {self.qos_shedding!r} "
                "(expected 'drop_oldest' or 'priority')"
            )
        if self.qos_consumer_queue is not None:
            if self.qos_consumer_queue < 1:
                raise ConfigurationError(
                    "qos_consumer_queue must be at least 1"
                )
            if self.qos_quarantine_after <= 0:
                raise ConfigurationError(
                    "qos_quarantine_after must be positive"
                )
        if self.qos_breaker_failures is not None:
            if self.qos_breaker_failures < 1:
                raise ConfigurationError(
                    "qos_breaker_failures must be at least 1"
                )
            if self.qos_breaker_reset <= 0:
                raise ConfigurationError("qos_breaker_reset must be positive")
        if self.qos_degradation:
            if self.qos_degradation_period <= 0:
                raise ConfigurationError(
                    "qos_degradation_period must be positive"
                )
            if self.qos_min_rate <= 0:
                raise ConfigurationError("qos_min_rate must be positive")
        if self.cluster_brokers < 1:
            raise ConfigurationError("cluster_brokers must be at least 1")
        if self.cluster_enabled:
            if self.cluster_failover_check_period <= 0:
                raise ConfigurationError(
                    "cluster_failover_check_period must be positive"
                )
        return self
