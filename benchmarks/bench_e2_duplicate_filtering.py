"""E2 — receiver overlap, duplication and the Filtering Service.

Paper artefacts reproduced (Section 4.2): receivers "are arranged such
that their effective receiving areas may overlap. Such coverage improves
data reception but causes potential duplication of data messages", and
"the Filtering Service reconstructs the data streams by eliminating
duplicate data messages".

The sweep varies the overlap factor and the radio loss level, and
reports: duplication factor (receptions per unique message), delivery
ratio to consumers, and duplicates eliminated. Expected shape: more
overlap → more duplicates filtered AND better delivery under loss;
consumers always see each message at most once.
"""

import functools

from repro.core.config import GarnetConfig
from repro.core.dispatching import SubscriptionPattern
from repro.core.middleware import Garnet
from repro.core.operators import CollectingConsumer
from repro.core.resource import StreamConfig
from repro.sensors.node import SensorStreamSpec
from repro.sensors.sampling import ConstantSampler, SampleCodec
from repro.simnet.geometry import Rect
from repro.simnet.mobility import RandomWaypoint
from repro.simnet.wireless import LossModel

from claims import Table, documents, print_table

CODEC = SampleCodec(0.0, 100.0)
DURATION = 120.0
SENSORS = 6


def run_cell(overlap: float, lossy: bool, seed: int = 5) -> dict:
    area = Rect(0.0, 0.0, 600.0, 600.0)
    config = GarnetConfig(
        area=area,
        receiver_rows=3,
        receiver_cols=3,
        receiver_overlap=overlap,
        loss_model=LossModel(base=0.05, edge=0.8) if lossy else None,
    )
    deployment = Garnet(config=config, seed=seed)
    deployment.define_sensor_type("g", {})
    for position in [
        (100, 100), (300, 100), (500, 300),
        (100, 500), (300, 300), (500, 500),
    ][:SENSORS]:
        from repro.simnet.geometry import Point

        deployment.add_sensor(
            "g",
            [
                SensorStreamSpec(
                    0,
                    ConstantSampler(42.0),
                    CODEC,
                    config=StreamConfig(rate=1.0),
                    kind="e2",
                )
            ],
            mobility=Point(*map(float, position)),
        )
    sink = CollectingConsumer("sink", SubscriptionPattern(kind="e2"))
    deployment.add_consumer(sink)
    deployment.run(DURATION)
    summary = deployment.summary()
    transmissions = summary["radio.transmissions"]
    received = summary["filtering.received"]
    delivered = summary["filtering.delivered"]
    # Uniqueness invariant: no duplicates past the Filtering Service.
    seen = set()
    for arrival in sink.arrivals:
        key = (arrival.message.stream_id.pack(), arrival.message.sequence)
        assert key not in seen, "duplicate leaked past the Filtering Service"
        seen.add(key)
    return {
        "overlap": overlap,
        "loss": "yes" if lossy else "no",
        "duplication_factor": received / delivered if delivered else 0.0,
        "delivery_ratio": delivered / transmissions if transmissions else 0.0,
        "duplicates_dropped": summary["filtering.duplicates"],
    }


@functools.cache
def overlap_sweep() -> list[dict]:
    return [
        run_cell(overlap, lossy)
        for overlap in (1.0, 1.5, 2.5)
        for lossy in (False, True)
    ]


@documents("E2")
def overlap_table() -> Table:
    return Table(
        "E2: receiver overlap vs duplication and delivery (Section 4.2)",
        ["overlap", "loss", "dup factor", "delivery", "dups dropped"],
        [
            [
                c["overlap"],
                c["loss"],
                c["duplication_factor"],
                c["delivery_ratio"],
                int(c["duplicates_dropped"]),
            ]
            for c in overlap_sweep()
        ],
    )


def test_overlap_and_loss_sweep():
    overlap_table().show()
    cells = overlap_sweep()
    by_key = {(c["overlap"], c["loss"]): c for c in cells}
    # Shape 1: duplication grows with overlap (lossless column).
    assert (
        by_key[(1.0, "no")]["duplication_factor"]
        < by_key[(1.5, "no")]["duplication_factor"]
        < by_key[(2.5, "no")]["duplication_factor"]
    )
    # Shape 2: under loss, more overlap improves delivery (the paper's
    # stated reason for tolerating duplication).
    assert (
        by_key[(2.5, "yes")]["delivery_ratio"]
        > by_key[(1.0, "yes")]["delivery_ratio"]
    )
    # Shape 3: filtering eliminated every extra copy (dup factor > 1 but
    # the uniqueness invariant held inside run_cell).
    assert by_key[(2.5, "no")]["duplicates_dropped"] > 0


def test_mobile_sensors_roam_out_of_coverage():
    """Section 4.2: sensors roaming outside the zone lose messages."""

    area = Rect(0.0, 0.0, 800.0, 800.0)
    config = GarnetConfig(
        area=area,
        receiver_rows=2,
        receiver_cols=2,
        receiver_overlap=1.0,
        loss_model=LossModel(base=0.0, edge=0.9),
    )
    deployment = Garnet(config=config, seed=9)
    deployment.define_sensor_type("g", {})
    node = deployment.add_sensor(
        "g",
        [
            SensorStreamSpec(
                0, ConstantSampler(1.0), CODEC,
                config=StreamConfig(rate=1.0), kind="e2m",
            )
        ],
        mobility=RandomWaypoint(
            area.expanded(400.0),
            deployment.sim.fork_rng(),
            speed_min=15.0,
            speed_max=30.0,
            pause=0.0,
        ),
        tx_range=250.0,
    )
    sink = CollectingConsumer("sink", SubscriptionPattern(kind="e2m"))
    deployment.add_consumer(sink)
    deployment.run(400.0)
    sent, delivered = node.stats.messages_sent, len(sink.arrivals)
    print_table(
        "E2b: roaming sensor message loss",
        ["sent", "delivered", "loss fraction"],
        [[sent, delivered, 1.0 - delivered / sent]],
    )
    assert 0 < delivered < sent
