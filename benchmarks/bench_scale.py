"""Deployment-scale sweep: the §1 "scalable design" requirement at size.

Not tied to one paper claim; this is the engineering benchmark a
downstream adopter asks for first: how does simulated-seconds-per-
wall-second scale as the sensor field and consumer population grow?

Reported per scale: total events processed, simulated message rate, and
pipeline integrity checks (no duplicates delivered, delivery ratio).
"""

import pytest

from repro.core.config import GarnetConfig
from repro.core.dispatching import SubscriptionPattern
from repro.core.middleware import Garnet
from repro.core.operators import CollectingConsumer
from repro.core.resource import StreamConfig
from repro.sensors.node import SensorStreamSpec
from repro.sensors.sampling import ConstantSampler, SampleCodec
from repro.simnet.geometry import Rect

from claims import print_table

CODEC = SampleCodec(0.0, 100.0)
DURATION = 30.0


def build(sensors: int, consumers: int, seed: int = 1) -> Garnet:
    area = Rect(0.0, 0.0, 2000.0, 2000.0)
    config = GarnetConfig(
        area=area,
        receiver_rows=4,
        receiver_cols=4,
        receiver_overlap=1.5,
        loss_model=None,
        publish_location_stream=False,
    )
    deployment = Garnet(config=config, seed=seed)
    deployment.define_sensor_type("g", {})
    rng = deployment.sim.fork_rng()
    from repro.simnet.geometry import Point

    for _ in range(sensors):
        deployment.add_sensor(
            "g",
            [
                SensorStreamSpec(
                    0,
                    ConstantSampler(42.0),
                    CODEC,
                    config=StreamConfig(rate=1.0),
                    kind="scale",
                )
            ],
            mobility=Point(
                rng.uniform(0.0, area.x_max), rng.uniform(0.0, area.y_max)
            ),
        )
    for index in range(consumers):
        deployment.add_consumer(
            CollectingConsumer(
                f"c{index}",
                SubscriptionPattern(kind="scale"),
                max_kept=64,
            )
        )
    return deployment


@pytest.mark.parametrize(
    "sensors,consumers", [(10, 2), (50, 5), (200, 10)]
)
def test_scale_sweep(sensors, consumers):
    deployment = build(sensors, consumers)
    deployment.run(DURATION)
    summary = deployment.summary()
    delivered = summary["dispatch.deliveries"]
    expected = sensors * DURATION * consumers  # rate 1 Hz fan-out
    print_table(
        f"scale: {sensors} sensors x {consumers} consumers, {DURATION:.0f}s",
        [
            "events processed",
            "radio tx",
            "dispatch deliveries",
            "delivery vs ideal",
        ],
        [[
            deployment.sim.events_processed,
            int(summary["radio.transmissions"]),
            int(delivered),
            f"{delivered / expected:.2%}",
        ]],
    )
    # Integrity at scale: nothing orphaned, near-ideal fan-out.
    assert summary["dispatch.orphaned"] == 0
    assert delivered > 0.93 * expected
