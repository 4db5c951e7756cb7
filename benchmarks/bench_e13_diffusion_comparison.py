"""E13 — directed diffusion vs Garnet's infrastructure receivers (§7).

Paper artefacts reproduced: "The dynamic variation in consumers and our
desire for multiple receivers requires that the sensor nodes do not
participate in the routing of the data. Our approach differs from the
data-diffusion technique in [13], which permits nodes to judge the best
hop for data routing."

Both systems deliver the same workload — one source reporting at 0.5 Hz
across a 600 m field — under a loss sweep. Reported per system:
delivery ratio, sensor-field radio energy per delivered reading, and
in-network routing state. Expected shape:

- diffusion compounds per-link loss along its reinforced multi-hop path,
  while Garnet's overlapping single-hop receivers mask loss;
- diffusion spends sensor-field energy on relaying and holds gradient
  state in every node; Garnet sensors transmit once and hold none;
- the trade Garnet pays: fixed receiver infrastructure, which diffusion
  does not need.
"""

import functools

from repro.baselines.diffusion import DiffusionNetwork, Interest
from repro.core.config import GarnetConfig
from repro.core.dispatching import SubscriptionPattern
from repro.core.middleware import Garnet
from repro.core.operators import CollectingConsumer
from repro.core.resource import StreamConfig
from repro.sensors.energy import RadioEnergyModel
from repro.sensors.node import SensorStreamSpec
from repro.sensors.sampling import ConstantSampler, SampleCodec
from repro.simnet.geometry import Point, Rect
from repro.simnet.wireless import LossModel

from claims import Table, documents

CODEC = SampleCodec(0.0, 100.0)
DURATION = 240.0
RATE = 0.5
LOSSES = [0.0, 0.1, 0.25]
GRID_SIDE = 4
SPACING = 150.0


def diffusion_cell(loss: float, seed: int = 5) -> dict:
    from repro.simnet.kernel import Simulator

    sim = Simulator(seed=seed)
    net = DiffusionNetwork(
        sim, radio_range=1.3 * SPACING, link_loss=loss
    )
    for row in range(GRID_SIDE):
        for col in range(GRID_SIDE):
            net.add_node(
                Point(col * SPACING, row * SPACING),
                is_source=(row == GRID_SIDE - 1 and col == GRID_SIDE - 1),
            )
    net.inject_interest(0, Interest("reading", interval=1.0 / RATE))
    sim.run(until=DURATION)
    net.stop()
    return {
        "system": "diffusion",
        "loss": loss,
        "delivery": net.delivery_ratio("reading"),
        "energy_per_event_mj": 1000.0
        * net.energy_per_delivered_event("reading"),
        "routing_state": net.total_routing_state(),
        "field_transmissions": net.stats.transmissions,
    }


def garnet_cell(loss: float, seed: int = 5) -> dict:
    span = (GRID_SIDE - 1) * SPACING
    config = GarnetConfig(
        area=Rect(0.0, 0.0, span, span),
        receiver_rows=2,
        receiver_cols=2,
        receiver_overlap=1.8,
        loss_model=(
            LossModel(base=loss, edge=min(1.0, loss + 0.3))
            if loss > 0
            else None
        ),
    )
    deployment = Garnet(config=config, seed=seed)
    deployment.define_sensor_type("g", {})
    energy = RadioEnergyModel()
    node = deployment.add_sensor(
        "g",
        [
            SensorStreamSpec(
                0,
                ConstantSampler(42.0),
                CODEC,
                config=StreamConfig(rate=RATE),
                kind="reading",
            )
        ],
        mobility=Point(span, span),  # the same far-corner source
    )
    sink = CollectingConsumer("sink", SubscriptionPattern(kind="reading"))
    deployment.add_consumer(sink)
    deployment.run(DURATION)
    sent = node.stats.messages_sent
    delivered = len(sink.arrivals)
    field_energy = energy.tx_cost(
        node.stats.bytes_sent * 8 // max(1, sent), node.tx_range
    ) * sent
    return {
        "system": "garnet",
        "loss": loss,
        "delivery": delivered / sent if sent else 0.0,
        "energy_per_event_mj": (
            1000.0 * field_energy / delivered if delivered else float("inf")
        ),
        "routing_state": 0,  # sensors hold no routing state at all
        "field_transmissions": sent,
    }


@functools.cache
def system_sweep() -> tuple[list[dict], list[dict]]:
    return (
        [diffusion_cell(loss) for loss in LOSSES],
        [garnet_cell(loss) for loss in LOSSES],
    )


@documents("E13")
def system_table() -> Table:
    diffusion_rows, garnet_rows = system_sweep()
    return Table(
        "E13: directed diffusion vs Garnet (Section 7, [13])",
        [
            "system",
            "loss",
            "delivery",
            "field mJ/event",
            "routing state",
            "field tx",
        ],
        [
            [
                r["system"],
                r["loss"],
                r["delivery"],
                r["energy_per_event_mj"],
                r["routing_state"],
                r["field_transmissions"],
            ]
            for r in diffusion_rows + garnet_rows
        ],
    )


def test_diffusion_vs_garnet():
    system_table().show()
    diffusion_rows, garnet_rows = system_sweep()
    diffusion = {r["loss"]: r for r in diffusion_rows}
    garnet = {r["loss"]: r for r in garnet_rows}
    # Shape 1: both deliver everything on a clean channel.
    assert diffusion[0.0]["delivery"] == 1.0
    assert garnet[0.0]["delivery"] > 0.95
    # Shape 2: multi-hop relaying compounds per-link loss, so at every
    # loss level the single-hop design delivers strictly more, with the
    # gap widening as the channel degrades.
    assert diffusion[0.25]["delivery"] < 0.6
    for loss in LOSSES[1:]:
        assert garnet[loss]["delivery"] > diffusion[loss]["delivery"]
    assert (
        garnet[0.25]["delivery"] - diffusion[0.25]["delivery"]
        > garnet[0.1]["delivery"] - diffusion[0.1]["delivery"] - 0.1
    )
    # Shape 3: diffusion's nodes carry routing state and relay traffic;
    # Garnet's sensors carry none and transmit once per reading.
    assert all(r["routing_state"] > 0 for r in diffusion_rows)
    assert all(r["routing_state"] == 0 for r in garnet_rows)
    assert all(
        d["field_transmissions"] > g["field_transmissions"]
        for d, g in zip(diffusion_rows, garnet_rows)
    )
    # Shape 4: per delivered reading, the sensor field spends more
    # energy relaying under diffusion than transmitting once to the
    # receiver infrastructure under Garnet.
    assert (
        diffusion[0.0]["energy_per_event_mj"]
        > garnet[0.0]["energy_per_event_mj"]
    )
