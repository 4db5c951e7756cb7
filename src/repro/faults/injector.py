"""The fault injector: replays a FaultPlan against a live deployment.

The injector translates each declarative event into begin/end callbacks
on the deployment's simulation clock, driving the concrete failure
levers the services expose:

==================  ====================================================
Event               Lever
==================  ====================================================
BrokerCrash         ``BrokerNode.crash()`` / ``BrokerNode.restart()``
NetworkPartition    ``FixedNetwork.partition()`` / ``heal()``
LatencySpike        ``FixedNetwork.set_latency_factor()``
DropBurst           ``WirelessMedium.set_extra_loss()``
ReceiverOutage      ``WirelessMedium.detach()`` / ``attach()``
TransmitterOutage   ``TransmitterArray.set_online()``
FloodBurst          synthetic publishes into ``garnet.dispatching``
ConsumerStall       ``DeliveryManager.stall()`` / ``resume()``
==================  ====================================================

Everything injected is counted under ``faults.*`` in the deployment's
metrics registry, so a post-run snapshot shows exactly which failures
the middleware survived; the matching recovery actions appear under
``resilience.*`` (session re-registrations, fixed-network redeliveries,
replicator failovers...).

Overlap semantics: windows of the *same* kind are reference-counted
(latency factors multiply; extra-loss windows take the maximum; a
receiver, transmitter or consumer stays dark from its first open window
to its last close), so overlapping events compose instead of clobbering
each other's cleanup.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from repro.core.dispatching import INBOX as DISPATCH_INBOX
from repro.core.envelopes import StreamArrival
from repro.core.message import DataMessage
from repro.core.streamid import StreamId
from repro.errors import ConfigurationError
from repro.faults.plan import (
    BrokerCrash,
    ConsumerStall,
    DropBurst,
    FaultEvent,
    FaultPlan,
    FloodBurst,
    LatencySpike,
    NetworkPartition,
    ReceiverOutage,
    TransmitterOutage,
)
from repro.util.ids import WrappingCounter

_EVENT_COUNTERS: dict[type, str] = {
    BrokerCrash: "faults.broker_crashes",
    NetworkPartition: "faults.partitions",
    LatencySpike: "faults.latency_spikes",
    DropBurst: "faults.drop_bursts",
    ReceiverOutage: "faults.receiver_outages",
    TransmitterOutage: "faults.transmitter_outages",
    FloodBurst: "faults.flood_bursts",
    ConsumerStall: "faults.consumer_stalls",
}


class _FloodState:
    """One live flood: its synthetic streams and round-robin cursor."""

    __slots__ = ("event", "streams", "payload", "index", "active")

    def __init__(
        self,
        event: FloodBurst,
        streams: list[tuple[StreamId, WrappingCounter]],
    ) -> None:
        self.event = event
        self.streams = streams
        self.payload = b"\x00" * event.payload_bytes
        self.index = 0
        self.active = True


class FaultInjector:
    """Schedules a :class:`FaultPlan`'s events onto one deployment."""

    def __init__(self, deployment: Any, plan: FaultPlan) -> None:
        self._deployment = deployment
        self._plan = plan
        metrics = deployment.metrics()
        self._injected = metrics.counter(
            "faults.injected", help="fault windows begun"
        )
        self._recovered = metrics.counter(
            "faults.recovered", help="fault windows ended (lever restored)"
        )
        self._active = metrics.gauge(
            "faults.active", help="fault windows currently open"
        )
        self._counters = {
            kind: metrics.counter(name)
            for kind, name in _EVENT_COUNTERS.items()
        }
        self._flood_messages = metrics.counter(
            "faults.flood_messages",
            help="synthetic messages injected by FloodBurst events",
        )
        self._redundant = metrics.counter(
            "faults.redundant",
            help="fault actions that were already in effect (no-ops)",
        )
        self._armed = False
        # Same-kind overlap bookkeeping (see module docstring).
        self._loss_windows: list[float] = []
        self._latency_factors: list[float] = []
        #: Open windows per (event kind, receiver / transmitter id or
        #: consumer endpoint); the lever moves on 0 -> 1 and 1 -> 0 only.
        self._open_windows: Counter[tuple[type, Any]] = Counter()
        # Keyed by event identity: duplicate FloodBurst literals in one
        # plan are distinct windows with distinct synthetic streams.
        self._floods: dict[int, _FloodState] = {}

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    def arm(self) -> None:
        """Schedule every event's begin/end on the virtual clock."""
        if self._armed:
            raise RuntimeError("fault plan already armed")
        self._armed = True
        sim = self._deployment.sim
        for event in self._plan:
            sim.schedule(event.at - sim.now, self._begin, event)
            sim.schedule(event.ends_at - sim.now, self._end, event)

    # ------------------------------------------------------------------
    def _begin(self, event: FaultEvent) -> None:
        self._injected.inc()
        self._counters[type(event)].inc()
        self._active.inc()
        if isinstance(event, BrokerCrash):
            self._crash_target(event).crash()
        elif isinstance(event, NetworkPartition):
            self._deployment.network.partition(event.endpoints)
        elif isinstance(event, LatencySpike):
            self._latency_factors.append(event.factor)
            self._apply_latency()
        elif isinstance(event, DropBurst):
            self._loss_windows.append(event.extra_loss)
            self._apply_loss()
        elif isinstance(event, ReceiverOutage):
            for receiver_id in event.receiver_ids:
                receiver = self._receiver(receiver_id)
                if self._window(ReceiverOutage, receiver_id, +1):
                    self._deployment.medium.detach(receiver)
        elif isinstance(event, TransmitterOutage):
            for transmitter_id in event.transmitter_ids:
                if self._window(TransmitterOutage, transmitter_id, +1):
                    self._set_transmitter_online(transmitter_id, False)
        elif isinstance(event, FloodBurst):
            self._begin_flood(event)
        elif isinstance(event, ConsumerStall):
            delivery = self._delivery_manager(event)
            for endpoint in event.endpoints:
                if self._window(ConsumerStall, endpoint, +1):
                    delivery.stall(endpoint)

    def _end(self, event: FaultEvent) -> None:
        self._recovered.inc()
        self._active.dec()
        if isinstance(event, BrokerCrash):
            self._crash_target(event).restart()
        elif isinstance(event, NetworkPartition):
            self._deployment.network.heal(event.endpoints)
        elif isinstance(event, LatencySpike):
            self._latency_factors.remove(event.factor)
            self._apply_latency()
        elif isinstance(event, DropBurst):
            self._loss_windows.remove(event.extra_loss)
            self._apply_loss()
        elif isinstance(event, ReceiverOutage):
            for receiver_id in event.receiver_ids:
                receiver = self._receiver(receiver_id)
                if self._window(ReceiverOutage, receiver_id, -1):
                    self._deployment.medium.attach(
                        receiver, receiver.reception_range, static=True
                    )
        elif isinstance(event, TransmitterOutage):
            for transmitter_id in event.transmitter_ids:
                if self._window(TransmitterOutage, transmitter_id, -1):
                    self._set_transmitter_online(transmitter_id, True)
        elif isinstance(event, FloodBurst):
            state = self._floods.pop(id(event), None)
            if state is not None:
                state.active = False
        elif isinstance(event, ConsumerStall):
            delivery = self._delivery_manager(event)
            for endpoint in event.endpoints:
                if self._window(ConsumerStall, endpoint, -1):
                    delivery.resume(endpoint)

    # ------------------------------------------------------------------
    def _window(self, kind: type, target: Any, step: int) -> bool:
        """Count a ``kind`` window on ``target`` opening (+1) or closing (-1).

        True when the lever must move: on the first open and the last
        close. A window inside another one is a counted no-op.
        """
        before = self._open_windows[kind, target]
        self._open_windows[kind, target] = after = before + step
        if before and after:
            self._redundant.inc()
        return not (before and after)

    def _begin_flood(self, event: FloodBurst) -> None:
        streams: list[tuple[StreamId, WrappingCounter]] = []
        for _ in range(event.streams):
            publisher = self._deployment.allocate_publisher_id()
            streams.append((StreamId(publisher, 0), WrappingCounter(16)))
        state = _FloodState(event, streams)
        self._floods[id(event)] = state
        self._flood_tick(state)

    def _flood_tick(self, state: _FloodState) -> None:
        sim = self._deployment.sim
        if not state.active or sim.now >= state.event.ends_at:
            return
        stream_id, counter = state.streams[state.index % len(state.streams)]
        state.index += 1
        message = DataMessage(
            stream_id=stream_id,
            sequence=counter.next(),
            payload=state.payload,
        )
        # receiver_id=-1 marks a direct fixed-net publish, the same
        # envelope shape GarnetSession.publish emits.
        self._deployment.network.send(
            DISPATCH_INBOX,
            StreamArrival(
                message=message, received_at=sim.now, receiver_id=-1
            ),
        )
        self._flood_messages.inc()
        sim.schedule(1.0 / state.event.rate, self._flood_tick, state)

    def _crash_target(self, event: BrokerCrash):
        """The broker node to crash/restart (default: the primary)."""
        if event.broker is None:
            return self._deployment.nodes[0]
        return self._deployment.cluster.node(event.broker)

    def _set_transmitter_online(
        self, transmitter_id: int, online: bool
    ) -> None:
        """Apply one outage leg; redundant legs are counted no-ops.

        A transmitter already in the requested state (switched by hand)
        or detached from the array entirely is not an error: the fault's
        *intent* — that antenna being dark — already holds.
        """
        try:
            transmitter = self._deployment.transmitters.transmitter(
                transmitter_id
            )
        except ConfigurationError:
            self._redundant.inc()
            return
        if transmitter.online == online:
            self._redundant.inc()
            return
        transmitter.online = online

    def _delivery_manager(self, event: ConsumerStall):
        delivery = self._deployment.qos.delivery
        if delivery is None:
            raise ConfigurationError(
                f"{event.describe()} needs per-consumer delivery queues: "
                "set qos_consumer_queue on the deployment config"
            )
        return delivery

    def _apply_loss(self) -> None:
        extra = max(self._loss_windows, default=0.0)
        self._deployment.medium.set_extra_loss(extra)

    def _apply_latency(self) -> None:
        factor = 1.0
        for value in self._latency_factors:
            factor *= value
        self._deployment.network.set_latency_factor(factor)

    def _receiver(self, receiver_id: int):
        for receiver in self._deployment.receivers.receivers:
            if receiver.receiver_id == receiver_id:
                return receiver
        raise KeyError(f"unknown receiver {receiver_id}")


def inject(deployment: Any, plan: FaultPlan) -> FaultInjector:
    """Arm ``plan`` against ``deployment``; returns the injector."""
    injector = FaultInjector(deployment, plan)
    injector.arm()
    return injector
