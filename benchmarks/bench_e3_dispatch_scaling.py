"""E3 — scalable dispatch to mutually-unaware consumers.

Paper artefacts reproduced: the Section 1 requirement of "low
performance overhead, scalable design" for the data distribution path,
and the Section 5 "delayed delivery decision-making" claim that route
computation in the fixed network stays cheap.

The tests drive the Dispatching Service directly (no radio) and sweep
consumer fan-out and stream count. Expected shape: steady-state
dispatch cost grows linearly in the number of *matching* subscribers
(the deliveries themselves) and is flat in the number of non-matching
subscriptions thanks to route memoisation (E18's ``dispatch`` row and
ablation A1 put numbers on it).
"""

import pytest

from repro.core.dispatching import (
    DispatchingService,
    ORPHANAGE_INBOX,
    SubscriptionPattern,
)
from repro.core.envelopes import StreamArrival
from repro.core.message import DataMessage
from repro.core.streamid import StreamId
from repro.core.streams import StreamRegistry
from repro.simnet.fixednet import FixedNetwork
from repro.simnet.kernel import Simulator

from claims import Table, documents


def build(consumers: int, matching: bool):
    sim = Simulator(seed=1)
    network = FixedNetwork(sim, message_latency=0.0)
    registry = StreamRegistry()
    service = DispatchingService(network, registry)
    network.register_inbox(ORPHANAGE_INBOX, lambda m: None)
    sink_counts = [0]

    def sink(message):
        sink_counts[0] += 1

    for index in range(consumers):
        name = f"c{index}"
        network.register_inbox(name, sink)
        pattern = (
            SubscriptionPattern(stream_id=StreamId(1, 0))
            if matching
            else SubscriptionPattern(stream_id=StreamId(40_000 + index, 0))
        )
        service.add_subscription(name, pattern)
    arrival = StreamArrival(
        message=DataMessage(stream_id=StreamId(1, 0), sequence=0),
        received_at=0.0,
        receiver_id=0,
    )
    return sim, service, arrival, sink_counts


@pytest.mark.parametrize("consumers", [1, 10, 100, 1000])
def test_fan_out_scaling(consumers):
    """Cost per arrival with N matching subscribers (delivery dominates)."""
    sim, service, arrival, counts = build(consumers, matching=True)

    def dispatch():
        service.on_arrival(arrival)
        sim.run()

    dispatch()
    assert counts[0] == consumers  # everyone got every round's message


@pytest.mark.parametrize("subscriptions", [10, 100, 1000, 10000])
def test_non_matching_subscriptions_are_free(subscriptions):
    """Route memoisation: unrelated subscriptions do not tax the hot path."""
    sim, service, arrival, counts = build(subscriptions, matching=False)
    service.on_arrival(arrival)  # warm the route cache
    sim.run()

    def dispatch():
        service.on_arrival(arrival)
        sim.run()

    dispatch()
    assert counts[0] == 0


@documents("E3")
def route_table() -> Table:
    """Dispatch cost is per-stream-route, not per-total-streams."""
    sim = Simulator(seed=1)
    network = FixedNetwork(sim, message_latency=0.0)
    registry = StreamRegistry()
    service = DispatchingService(network, registry)
    network.register_inbox(ORPHANAGE_INBOX, lambda m: None)
    delivered = [0]
    network.register_inbox("sink", lambda m: delivered.__setitem__(0, delivered[0] + 1))
    streams = [StreamId(i, 0) for i in range(500)]
    for stream in streams:
        service.add_subscription(
            "sink", SubscriptionPattern(stream_id=stream)
        )
    for stream in streams:
        service.on_arrival(
            StreamArrival(
                message=DataMessage(stream_id=stream, sequence=0),
                received_at=0.0,
                receiver_id=0,
            )
        )
    sim.run()
    return Table(
        "E3: dispatch table sizes",
        ["streams", "subscriptions", "deliveries"],
        [[len(streams), service.subscription_count(), delivered[0]]],
    )


def test_many_streams_route_independence():
    table = route_table()
    table.show()
    [[streams, subscriptions, deliveries]] = table.rows
    assert subscriptions == streams
    assert deliveries == streams  # each stream routed to its one sink
