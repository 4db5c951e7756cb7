"""E11 — the full Figure 1 pipeline under increasing radio loss.

Paper artefacts reproduced: the overall architecture of Sections 3/4.1 —
"mobile sensors transmit data over an unreliable wireless medium to a
fixed network infrastructure" with the complete return path (Resource
Manager → Actuation Service → Message Replicator → Transmitters →
sensor → acknowledgement).

The sweep raises the base radio loss and reports, per level: data
delivery ratio to consumers, actuation success ratio (with the Actuation
Service's bounded retransmission), mean actuation round-trip, and
replicator targeting economy. Expected shape: data delivery degrades
gracefully with loss (receiver overlap masks much of it); actuation
success holds far beyond the raw loss rate because of retries; targeted
broadcasts use a strict subset of transmitters once location is known.
"""

import functools

from repro.core.config import GarnetConfig
from repro.core.control import StreamUpdateCommand
from repro.core.dispatching import SubscriptionPattern
from repro.core.middleware import Garnet
from repro.core.operators import CollectingConsumer
from repro.core.resource import StreamConfig
from repro.core.security import Permission
from repro.sensors.node import SensorStreamSpec
from repro.sensors.sampling import ConstantSampler, SampleCodec
from repro.simnet.geometry import Rect
from repro.simnet.mobility import RandomWaypoint
from repro.simnet.wireless import LossModel

from claims import Table, documents

CODEC = SampleCodec(0.0, 100.0)
LOSS_LEVELS = [0.0, 0.1, 0.25, 0.4]
SENSORS = 5
DURATION = 240.0


def run_cell(base_loss: float, seed: int = 29) -> dict:
    area = Rect(0.0, 0.0, 700.0, 700.0)
    config = GarnetConfig(
        area=area,
        receiver_rows=3,
        receiver_cols=3,
        receiver_overlap=2.0,
        transmitter_rows=2,
        transmitter_cols=2,
        loss_model=LossModel(base=base_loss, edge=min(1.0, base_loss + 0.4)),
        ack_timeout=1.5,
        ack_max_attempts=5,
    )
    deployment = Garnet(config=config, seed=seed)
    deployment.define_sensor_type(
        "g", {"rate_limits": "rate <= 10"}
    )
    nodes = []
    for index in range(SENSORS):
        mobility = RandomWaypoint(
            area,
            deployment.sim.fork_rng(),
            speed_min=2.0,
            speed_max=6.0,
        )
        nodes.append(
            deployment.add_sensor(
                "g",
                [
                    SensorStreamSpec(
                        0,
                        ConstantSampler(42.0),
                        CODEC,
                        config=StreamConfig(rate=1.0),
                        kind="e11",
                    )
                ],
                mobility=mobility,
            )
        )
    sink = CollectingConsumer("sink", SubscriptionPattern(kind="e11"))
    deployment.add_consumer(
        sink, permissions=Permission.trusted_consumer()
    )
    deployment.run(DURATION / 2)
    # Mid-run, reconfigure every sensor over the unreliable return path.
    for node in nodes:
        sink.request_update(
            node.stream_ids()[0], StreamUpdateCommand.SET_RATE, 2.0
        )
    deployment.run(DURATION / 2)

    sent = sum(node.stats.messages_sent for node in nodes)
    actuation = deployment.actuation.stats
    attempted = actuation.acknowledged + actuation.failed
    return {
        "loss": base_loss,
        "delivery_ratio": len(sink.arrivals) / sent,
        "actuation_success": (
            actuation.acknowledged / attempted if attempted else 0.0
        ),
        "retransmissions": actuation.retransmissions,
        "ack_rtt_ms": 1000.0 * deployment.actuation.ack_latency.mean,
        "mean_tx_per_order": (
            deployment.replicator.stats.mean_transmitters_per_order
        ),
        "applied": sum(
            1 for node in nodes if node.current_config(0).rate == 2.0
        ),
    }


@functools.cache
def loss_sweep() -> list[dict]:
    return [run_cell(loss) for loss in LOSS_LEVELS]


@documents("E11")
def loss_table() -> Table:
    return Table(
        "E11: full-pipeline behaviour vs radio loss",
        [
            "base loss",
            "data delivery",
            "actuation success",
            "retries",
            "ack RTT (ms)",
            "tx/order",
            "applied",
        ],
        [
            [
                r["loss"],
                r["delivery_ratio"],
                r["actuation_success"],
                r["retransmissions"],
                r["ack_rtt_ms"],
                r["mean_tx_per_order"],
                f"{r['applied']}/{SENSORS}",
            ]
            for r in loss_sweep()
        ],
    )


def test_loss_sweep():
    loss_table().show()
    rows = loss_sweep()
    by_loss = {r["loss"]: r for r in rows}
    # Shape 1: lossless baseline is essentially perfect on both paths.
    assert by_loss[0.0]["delivery_ratio"] > 0.95
    assert by_loss[0.0]["actuation_success"] == 1.0
    # Shape 2: data delivery degrades monotonically-ish but gracefully
    # (overlap masks independent per-receiver losses).
    assert by_loss[0.4]["delivery_ratio"] > 0.5
    assert (
        by_loss[0.4]["delivery_ratio"] < by_loss[0.0]["delivery_ratio"]
    )
    # Shape 3: retransmission keeps actuation success far above the raw
    # per-attempt delivery probability even at 40% base loss.
    assert by_loss[0.4]["actuation_success"] >= 0.8
    assert by_loss[0.4]["retransmissions"] > 0
    # Shape 4: the replicator never needed to flood every order once
    # location estimates existed.
    assert all(r["mean_tx_per_order"] <= 4.0 for r in rows)
