"""E8 — Fjords-style query sharing vs Garnet's structural sharing.

Paper artefacts reproduced (Section 7): Fjords "advocate the use of
sensor proxies to permit a set of queries to operate over the same
sensor stream, and show that the sharing resulted in significant
improvements to their ability to handle simultaneous queries. Both the
Fjord and Garnet architectures share the notion of separating the
consumer of the data from its source."

Two comparisons:
1. Fjords engine, shared vs unshared: sensor transmissions and tuples
   processed for N simultaneous queries over one stream (the Madden &
   Franklin result's shape: unshared cost scales with N, shared with 1).
2. Garnet: N subscribed consumers over one physical stream — the sensor
   transmits once per sample regardless of N, i.e. Garnet gets the
   Fjords sharing win structurally from address-free dispatch.
"""

import functools

import pytest

from repro.baselines.fjords import FjordEngine, FjordQuery
from repro.core.config import GarnetConfig
from repro.core.dispatching import SubscriptionPattern
from repro.core.middleware import Garnet
from repro.core.operators import CollectingConsumer
from repro.core.resource import StreamConfig
from repro.sensors.node import SensorStreamSpec
from repro.sensors.sampling import ConstantSampler, SampleCodec
from repro.simnet.geometry import Point, Rect

from claims import Table, documents, print_table

CODEC = SampleCodec(0.0, 100.0)
QUERY_COUNTS = [1, 2, 4, 8, 16]
TUPLES = [float(i % 50) for i in range(1000)]


def make_queries(count: int) -> list[FjordQuery]:
    return [
        FjordQuery(
            name=f"q{i}",
            predicate=lambda v, i=i: v >= i,
            window=4,
            aggregate=lambda xs: sum(xs) / len(xs),
        )
        for i in range(count)
    ]


@functools.cache
def sharing_sweep() -> list[dict]:
    rows = []
    for count in QUERY_COUNTS:
        shared = FjordEngine(shared=True).run(TUPLES, make_queries(count))
        unshared = FjordEngine(shared=False).run(TUPLES, make_queries(count))
        rows.append(
            {
                "queries": count,
                "shared_tx": shared.sensor_transmissions,
                "unshared_tx": unshared.sensor_transmissions,
                "gain": unshared.sensor_transmissions
                / shared.sensor_transmissions,
                "results": shared.results_produced,
                "results_match": shared.results_produced
                == unshared.results_produced,
            }
        )
    return rows


@documents("E8")
def sharing_table() -> Table:
    return Table(
        "E8: Fjords proxy sharing (Section 7 / Madden & Franklin)",
        [
            "queries",
            "shared tx",
            "unshared tx",
            "gain",
            "results",
            "identical answers",
        ],
        [
            [
                r["queries"],
                r["shared_tx"],
                r["unshared_tx"],
                r["gain"],
                r["results"],
                "yes" if r["results_match"] else "no",
            ]
            for r in sharing_sweep()
        ],
    )


def test_fjords_sharing_gain():
    sharing_table().show()
    rows = sharing_sweep()
    # Shape: the sharing gain equals the number of simultaneous queries
    # ("significant improvements ... to handle simultaneous queries")
    # while answers are identical.
    for r in rows:
        assert r["gain"] == r["queries"]
        assert r["results_match"]


@pytest.mark.parametrize("consumers", [1, 4, 16])
def test_garnet_sharing_is_structural(consumers):
    """The sensor's transmission count is independent of consumer count."""

    deployment = Garnet(
        config=GarnetConfig(
            area=Rect(0, 0, 400, 400),
            receiver_rows=2,
            receiver_cols=2,
            loss_model=None,
        ),
        seed=consumers,
    )
    deployment.define_sensor_type("g", {})
    node = deployment.add_sensor(
        "g",
        [
            SensorStreamSpec(
                0,
                ConstantSampler(42.0),
                CODEC,
                config=StreamConfig(rate=2.0),
                kind="e8",
            )
        ],
        mobility=Point(200.0, 200.0),
    )
    sinks = [
        CollectingConsumer(
            f"sink{i}", SubscriptionPattern(kind="e8")
        )
        for i in range(consumers)
    ]
    for sink in sinks:
        deployment.add_consumer(sink)
    deployment.run(30.0)
    sent = node.stats.messages_sent
    received = [len(s.arrivals) for s in sinks]
    print_table(
        f"E8b: Garnet fan-out with {consumers} consumers",
        ["sensor tx", "per-consumer deliveries"],
        [[sent, received]],
    )
    # One transmission per sample, regardless of fan-out; every consumer
    # received (essentially) the whole stream.
    assert 55 <= sent <= 65
    assert all(count >= sent - 3 for count in received)
