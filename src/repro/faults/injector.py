"""The fault injector: schedules a FaultPlan and keeps its window book.

One injector serves every fault target. A target hands it three things:
a ``schedule(at, callback, event)`` clock that runs ``callback(event)``
at plan time ``at``, a metrics registry, and a :class:`Lever` for each
fault kind it can apply. :func:`inject` is the simulated deployment's
target (its levers are the table in :mod:`repro.faults.plan`);
:class:`~repro.transport.chaos.ChaosProxy` is the socket proxy's. A plan
holding a kind the target has no lever for, or naming a broker or
receiver the target does not have, is refused with ConfigurationError
before anything is scheduled.

Everything injected is counted under ``faults.*`` in the target's
metrics registry, so a post-run snapshot shows exactly which failures
the middleware survived; the matching recovery actions appear under
``resilience.*`` (session re-registrations, fixed-network redeliveries,
replicator failovers...).

Overlap semantics (the window book): windows of the *same* kind on the
same target — broker, endpoint, receiver, transmitter or consumer — are
reference-counted, so a target stays faulted from its first open window
to its last close and its lever moves only then; each open or close in
between is counted under ``faults.redundant``. Extra-loss windows take
the maximum and latency factors multiply. A FloodBurst or
ConnectionReset window is its own target.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable
from operator import attrgetter
from typing import Any, NamedTuple

from repro.core.dispatching import INBOX as DISPATCH_INBOX
from repro.core.envelopes import StreamArrival
from repro.core.message import DataMessage
from repro.core.streamid import StreamId
from repro.errors import ConfigurationError
from repro.faults.plan import (
    BrokerCrash,
    ConnectionReset,
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
from repro.obs.registry import MetricsRegistry
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
    ConnectionReset: "faults.connection_resets",
}

#: What each targeted kind's windows are counted against in the book.
_TARGETS: dict[type, Callable[[Any], tuple]] = {
    BrokerCrash: lambda event: (event.broker,),
    NetworkPartition: attrgetter("endpoints"),
    ReceiverOutage: attrgetter("receiver_ids"),
    TransmitterOutage: attrgetter("transmitter_ids"),
    ConsumerStall: attrgetter("endpoints"),
}

#: Kinds whose open windows set one level between them.
_LEVELS: dict[type, Callable[[list[Any]], float]] = {
    DropBurst: lambda windows: max(
        (event.extra_loss for event in windows), default=0.0
    ),
    LatencySpike: lambda windows: math.prod(
        (event.factor for event in windows), start=1.0
    ),
}


class Lever(NamedTuple):
    """What one fault kind does to its target at window open and close.

    ``open`` and ``close`` take a target that ``resolve`` returned (a
    kind with targets), the new combined level (DropBurst,
    LatencySpike) or the event itself (any other kind). ``resolve``
    raises ConfigurationError for a target it does not know. A lever
    that finds its effect already in place returns False, which counts
    as redundant.
    """

    open: Callable[[Any], object]
    close: Callable[[Any], object] = lambda _: None
    resolve: Callable[[Any], Any] = lambda target: target


Schedule = Callable[[float, Callable[[FaultEvent], None], FaultEvent], Any]


class FaultInjector:
    """Schedules one plan's windows and moves its target's levers."""

    def __init__(
        self,
        plan: FaultPlan,
        *,
        schedule: Schedule,
        metrics: MetricsRegistry,
        levers: dict[type, Lever],
    ) -> None:
        for event in plan:
            lever = levers.get(type(event))
            if lever is None:
                raise ConfigurationError(
                    f"{event.describe()}: this fault target has no "
                    f"{type(event).__name__} lever"
                )
            targets = _TARGETS.get(type(event))
            for target in targets(event) if targets else ():
                lever.resolve(target)
        self._plan = plan
        self._schedule = schedule
        self._levers = levers
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
            kind: metrics.counter(_EVENT_COUNTERS[kind]) for kind in levers
        }
        self._redundant = metrics.counter(
            "faults.redundant",
            help="fault actions that were already in effect (no-ops)",
        )
        self._armed = False
        #: Open windows per (kind, resolved target).
        self._open: Counter[tuple[type, Any]] = Counter()
        #: Open windows of each level kind.
        self._levels: dict[type, list[FaultEvent]] = {
            kind: [] for kind in _LEVELS
        }

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    def arm(self) -> None:
        """Schedule every window's open and close on the target's clock."""
        if self._armed:
            raise RuntimeError("fault plan already armed")
        self._armed = True
        for event in self._plan:
            self._schedule(event.at, self._begin, event)
            self._schedule(event.ends_at, self._end, event)

    def _begin(self, event: FaultEvent) -> None:
        self._injected.inc()
        self._counters[type(event)].inc()
        self._active.inc()
        self._move(event, +1)

    def _end(self, event: FaultEvent) -> None:
        self._recovered.inc()
        self._active.dec()
        self._move(event, -1)

    def _move(self, event: FaultEvent, step: int) -> None:
        kind = type(event)
        lever = self._levers[kind]
        move = lever.open if step > 0 else lever.close
        if kind in _LEVELS:
            windows = self._levels[kind]
            if step > 0:
                windows.append(event)
            else:
                windows.remove(event)
            move(_LEVELS[kind](windows))
        elif kind in _TARGETS:
            for target in map(lever.resolve, _TARGETS[kind](event)):
                before = self._open[kind, target]
                self._open[kind, target] = after = before + step
                # A window nested in another one moves no lever.
                if (before and after) or move(target) is False:
                    self._redundant.inc()
        else:
            move(event)


# ----------------------------------------------------------------------
# The simulated target
# ----------------------------------------------------------------------
class _Floods:
    """FloodBurst's lever: each window floods from its own synthetic
    publishers until its first tick at or past ``ends_at``."""

    def __init__(self, deployment: Any, metrics: MetricsRegistry) -> None:
        self._deployment = deployment
        self._messages = metrics.counter(
            "faults.flood_messages",
            help="synthetic messages injected by FloodBurst events",
        )

    def begin(self, event: FloodBurst) -> None:
        allocate = self._deployment.allocate_publisher_id
        streams = [
            (StreamId(allocate(), 0), WrappingCounter(16))
            for _ in range(event.streams)
        ]
        self._tick(event, streams, b"\x00" * event.payload_bytes, 0)

    def _tick(
        self,
        event: FloodBurst,
        streams: list[tuple[StreamId, WrappingCounter]],
        payload: bytes,
        index: int,
    ) -> None:
        sim = self._deployment.sim
        if sim.now >= event.ends_at:
            return
        stream_id, counter = streams[index % len(streams)]
        message = DataMessage(
            stream_id=stream_id, sequence=counter.next(), payload=payload
        )
        # receiver_id=-1 marks a direct fixed-net publish, the same
        # envelope shape GarnetSession.publish emits.
        self._deployment.network.send(
            DISPATCH_INBOX,
            StreamArrival(
                message=message, received_at=sim.now, receiver_id=-1
            ),
        )
        self._messages.inc()
        sim.schedule(
            1.0 / event.rate, self._tick, event, streams, payload, index + 1
        )


def _deployment_levers(
    deployment: Any, metrics: MetricsRegistry
) -> dict[type, Lever]:
    """The levers a simulated deployment's services expose, per kind."""
    network, medium = deployment.network, deployment.medium
    receivers = {r.receiver_id: r for r in deployment.receivers.receivers}
    floods = _Floods(deployment, metrics)

    def broker(name: str | None) -> Any:
        if name is None:
            return deployment.nodes[0]
        return deployment.cluster.node(name)

    def receiver(receiver_id: int) -> Any:
        if receiver_id not in receivers:
            raise ConfigurationError(f"unknown receiver {receiver_id}")
        return receivers[receiver_id]

    def consumer(endpoint: str) -> str:
        if deployment.qos.delivery is None:
            raise ConfigurationError(
                "ConsumerStall needs per-consumer delivery queues: "
                "set qos_consumer_queue on the deployment config"
            )
        return endpoint

    def transmitter(online: bool) -> Callable[[int], bool]:
        def move(transmitter_id: int) -> bool:
            # A transmitter already switched by hand, or detached from
            # the array entirely, is not an error: the fault's intent —
            # that antenna being dark — already holds.
            try:
                antenna = deployment.transmitters.transmitter(transmitter_id)
            except ConfigurationError:
                return False
            if antenna.online == online:
                return False
            antenna.online = online
            return True

        return move

    return {
        BrokerCrash: Lever(
            lambda node: node.crash(), lambda node: node.restart(), broker
        ),
        NetworkPartition: Lever(
            lambda endpoint: network.partition((endpoint,)),
            lambda endpoint: network.heal((endpoint,)),
        ),
        LatencySpike: Lever(
            network.set_latency_factor, network.set_latency_factor
        ),
        DropBurst: Lever(medium.set_extra_loss, medium.set_extra_loss),
        ReceiverOutage: Lever(
            medium.detach,
            lambda r: medium.attach(r, r.reception_range, static=True),
            receiver,
        ),
        TransmitterOutage: Lever(transmitter(False), transmitter(True)),
        FloodBurst: Lever(floods.begin),
        ConsumerStall: Lever(
            lambda endpoint: deployment.qos.delivery.stall(endpoint),
            lambda endpoint: deployment.qos.delivery.resume(endpoint),
            consumer,
        ),
    }


def inject(deployment: Any, plan: FaultPlan) -> FaultInjector:
    """Arm ``plan`` against a simulated ``deployment``; returns the injector.

    Plan times are virtual seconds on the deployment's clock.
    """
    sim = deployment.sim
    metrics = deployment.metrics()
    injector = FaultInjector(
        plan,
        schedule=lambda at, callback, event: sim.schedule(
            at - sim.now, callback, event
        ),
        metrics=metrics,
        levers=_deployment_levers(deployment, metrics),
    )
    injector.arm()
    return injector
