"""Fault plans: declarative, seed-reproducible failure schedules.

A :class:`FaultPlan` is a list of fault events pinned to plan times:
virtual seconds on a deployment's simulation clock (:func:`~repro.
faults.injector.inject`) or wall-clock seconds after
:meth:`~repro.transport.chaos.ChaosProxy.start` (the socket proxy).
Because the events carry explicit timestamps (no ambient randomness),
the same plan against the same deployment seed replays the same failure
history byte-for-byte — the property the determinism tests in
``tests/test_faults.py`` assert.

Event vocabulary (all windows are ``[at, at + duration)``) and the lever
each target pulls; a target refuses a kind it has no lever for before
anything is scheduled:

=================  ==========================================  =========================
Kind               Simulated deployment                        Socket proxy
=================  ==========================================  =========================
BrokerCrash        ``BrokerNode.crash()`` / ``restart()``      blackhole, and
                                                               ``on_broker_restart``
NetworkPartition   ``FixedNetwork.partition()`` / ``heal()``   refused
LatencySpike       ``FixedNetwork.set_latency_factor()``       refused
DropBurst          ``WirelessMedium.set_extra_loss()``         relayed datagrams dropped
                                                               at ``extra_loss``, both
                                                               directions
ReceiverOutage     ``WirelessMedium.detach()`` / ``attach()``  refused
TransmitterOutage  ``Transmitter.online`` off / on             refused
FloodBurst         synthetic publishes into the Dispatching    refused
                   Service ingress
ConsumerStall      ``DeliveryManager.stall()`` / ``resume()``  refused
                   (requires ``qos_consumer_queue``)
ConnectionReset    refused                                     every live proxied TCP
                                                               connection aborted
=================  ==========================================  =========================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError


@dataclass(frozen=True, slots=True, kw_only=True)
class FaultEvent:
    """Base class: a fault active over one window of virtual time."""

    at: float
    duration: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError("fault time must be non-negative")
        if self.duration <= 0:
            raise ConfigurationError("fault duration must be positive")

    @property
    def ends_at(self) -> float:
        return self.at + self.duration

    def describe(self) -> str:
        return (
            f"{type(self).__name__}@{self.at:g}s for {self.duration:g}s"
        )


@dataclass(frozen=True, slots=True, kw_only=True)
class BrokerCrash(FaultEvent):
    """The broker process dies at ``at`` and restarts at ``ends_at``.

    On clustered deployments ``broker`` names which broker node to kill
    (the whole node: session state, dispatch inbox and inter-broker
    link); None means the primary. Naming a broker on a single-broker
    deployment is a configuration error.
    """

    broker: str | None = None


@dataclass(frozen=True, slots=True, kw_only=True)
class NetworkPartition(FaultEvent):
    """Fixed-network endpoints unreachable for the window."""

    endpoints: tuple[str, ...]

    def __post_init__(self) -> None:
        FaultEvent.__post_init__(self)
        if not self.endpoints:
            raise ConfigurationError(
                "a partition must name at least one endpoint"
            )


@dataclass(frozen=True, slots=True, kw_only=True)
class LatencySpike(FaultEvent):
    """Fixed-network deliveries slowed by ``factor`` for the window."""

    factor: float = 10.0

    def __post_init__(self) -> None:
        FaultEvent.__post_init__(self)
        if self.factor <= 1.0:
            raise ConfigurationError(
                f"latency spike factor must exceed 1: {self.factor}"
            )


@dataclass(frozen=True, slots=True, kw_only=True)
class DropBurst(FaultEvent):
    """Extra wireless loss probability for the window."""

    extra_loss: float = 0.1

    def __post_init__(self) -> None:
        FaultEvent.__post_init__(self)
        if not 0.0 < self.extra_loss <= 1.0:
            raise ConfigurationError(
                f"extra_loss must be in (0, 1]: {self.extra_loss}"
            )


@dataclass(frozen=True, slots=True, kw_only=True)
class ReceiverOutage(FaultEvent):
    """Receiver-array elements deaf for the window."""

    receiver_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        FaultEvent.__post_init__(self)
        if not self.receiver_ids:
            raise ConfigurationError(
                "a receiver outage must name at least one receiver"
            )


@dataclass(frozen=True, slots=True, kw_only=True)
class TransmitterOutage(FaultEvent):
    """Transmitter-array antennas out of service for the window."""

    transmitter_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        FaultEvent.__post_init__(self)
        if not self.transmitter_ids:
            raise ConfigurationError(
                "a transmitter outage must name at least one transmitter"
            )


@dataclass(frozen=True, slots=True, kw_only=True)
class FloodBurst(FaultEvent):
    """Synthetic publishers flood the Dispatching Service ingress.

    ``rate`` is the aggregate message rate (messages per virtual
    second), spread round-robin across ``streams`` freshly allocated
    derived stream ids. The flood enters through the fixed network
    exactly like a session publish, so it contends with legitimate
    traffic at the admission controller — the intended victim.
    """

    rate: float
    streams: int = 1
    payload_bytes: int = 16

    def __post_init__(self) -> None:
        FaultEvent.__post_init__(self)
        if self.rate <= 0:
            raise ConfigurationError(
                f"flood rate must be positive: {self.rate}"
            )
        if self.streams < 1:
            raise ConfigurationError(
                f"a flood needs at least one stream: {self.streams}"
            )
        if self.payload_bytes < 0:
            raise ConfigurationError(
                f"payload_bytes must be non-negative: {self.payload_bytes}"
            )


@dataclass(frozen=True, slots=True, kw_only=True)
class ConsumerStall(FaultEvent):
    """Named consumer endpoints stop draining deliveries for the window.

    Models a consumer process that is alive (it may keep heartbeating
    its lease) but wedged — GC pause, deadlock, saturated downstream
    sink. Requires the deployment to run with per-consumer delivery
    queues (``qos_consumer_queue``), whose slow-consumer detection is
    the machinery under test.
    """

    endpoints: tuple[str, ...]

    def __post_init__(self) -> None:
        FaultEvent.__post_init__(self)
        if not self.endpoints:
            raise ConfigurationError(
                "a consumer stall must name at least one endpoint"
            )


@dataclass(frozen=True, slots=True, kw_only=True)
class ConnectionReset(FaultEvent):
    """Abort every live proxied TCP connection at ``at``.

    One reset, not a window: ``duration`` is nominal.
    """

    duration: float = 0.001


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """An immutable schedule of fault events.

    Plans are data: build one, hand it to a
    :class:`~repro.faults.injector.FaultInjector`, and the same plan is
    reusable across deployments and seeds.
    """

    events: tuple[FaultEvent, ...] = field(default=())

    def __post_init__(self) -> None:
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise ConfigurationError(
                    f"a fault plan holds FaultEvents, got {event!r}"
                )
        object.__setattr__(
            self,
            "events",
            tuple(
                sorted(self.events, key=lambda event: (event.at, event.ends_at))
            ),
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def horizon(self) -> float:
        """Virtual time by which every fault has begun and ended."""
        return max((event.ends_at for event in self.events), default=0.0)

    def describe(self) -> list[str]:
        return [event.describe() for event in self.events]

    @classmethod
    def canonical(
        cls, *, scale: float = 1.0, endpoints: tuple[str, ...] = ()
    ) -> "FaultPlan":
        """The reference chaos schedule used by ``bench_e16_chaos``.

        One broker crash/restart, a 30-sim-second fixed-network
        partition of ``endpoints``, and a 10% wireless drop burst —
        staggered so each fault's recovery is individually visible in
        the metrics. ``scale`` compresses or stretches the whole
        timeline (the CI smoke run uses ``scale < 1``).
        """
        if scale <= 0:
            raise ConfigurationError("scale must be positive")
        events: list[FaultEvent] = [
            DropBurst(
                at=10.0 * scale, duration=20.0 * scale, extra_loss=0.10
            ),
            BrokerCrash(at=40.0 * scale, duration=15.0 * scale),
        ]
        if endpoints:
            events.append(
                NetworkPartition(
                    at=70.0 * scale,
                    duration=30.0 * scale,
                    endpoints=endpoints,
                )
            )
        return cls(events=tuple(events))
