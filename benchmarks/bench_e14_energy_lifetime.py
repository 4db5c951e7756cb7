"""E14 — sensor lifetime under the configurations consumers actuate.

Paper grounding: Section 1 cites lifetime upper bounds (Bhardwaj et al.
[1]) and energy-efficient protocols ([9], [10]) as the enabling context;
the whole point of Garnet's return path is that "application-level
knowledge can be used to improve the overall operation of the network"
(Section 1). This experiment closes that loop quantitatively: the two
parameters the control path tunes — sampling rate (SET_RATE) and payload
precision (SET_PRECISION) — directly set a battery-powered node's
lifetime under the first-order radio model.

Expected shape: lifetime scales ~1/rate; coarser precision shrinks
payloads and extends lifetime at fixed rate; an actuated mid-life rate
drop visibly extends a node's remaining life versus an identical
un-actuated twin.
"""

import functools

from repro.core.config import GarnetConfig
from repro.core.control import StreamUpdateCommand
from repro.core.middleware import Garnet
from repro.core.resource import StreamConfig
from repro.core.security import Permission
from repro.sensors.energy import Battery, RadioEnergyModel
from repro.sensors.node import SensorStreamSpec
from repro.sensors.sampling import ConstantSampler, SampleCodec
from repro.simnet.geometry import Point, Rect

from claims import Table, documents, print_table

CODEC = SampleCodec(0.0, 100.0)
BATTERY_J = 0.05
HORIZON = 4000.0


def deploy(seed=1):
    config = GarnetConfig(
        area=Rect(0, 0, 400, 400),
        receiver_rows=2,
        receiver_cols=2,
        transmitter_rows=1,
        transmitter_cols=1,
        loss_model=None,
        publish_location_stream=False,
    )
    deployment = Garnet(config=config, seed=seed)
    deployment.define_sensor_type(
        "battery_node",
        {"rate_limits": "rate <= 10", "precision_ok": "precision >= 4"},
    )
    return deployment


def lifetime_cell(rate: float, precision: int) -> dict:
    deployment = deploy()
    node = deployment.add_sensor(
        "battery_node",
        [
            SensorStreamSpec(
                0,
                ConstantSampler(42.0),
                CODEC,
                config=StreamConfig(rate=rate, precision=precision),
                kind="e14",
            )
        ],
        mobility=Point(200.0, 200.0),
        receive_capable=False,  # pure transmit cost, no rx drain
        battery=Battery(BATTERY_J),
        energy_model=RadioEnergyModel(),
    )
    deployment.run(HORIZON)
    return {
        "rate": rate,
        "precision": precision,
        "lifetime": node.stats.died_at or HORIZON,
        "messages": node.stats.messages_sent,
    }


@functools.cache
def lifetime_sweep() -> list[dict]:
    return [
        lifetime_cell(rate, precision)
        for rate in (0.5, 1.0, 2.0)
        for precision in (8, 16, 32)
    ]


@documents("E14")
def lifetime_table() -> Table:
    return Table(
        "E14: node lifetime vs sampling rate and precision "
        f"({BATTERY_J} J battery)",
        ["rate (Hz)", "precision (bits)", "lifetime (s)", "messages"],
        [
            [r["rate"], r["precision"], r["lifetime"], r["messages"]]
            for r in lifetime_sweep()
        ],
    )


def test_rate_precision_lifetime_sweep():
    lifetime_table().show()
    rows = lifetime_sweep()
    by_key = {(r["rate"], r["precision"]): r for r in rows}
    # Shape 1: lifetime ~ 1/rate at fixed precision.
    ratio = (
        by_key[(0.5, 16)]["lifetime"] / by_key[(2.0, 16)]["lifetime"]
    )
    assert 3.0 < ratio < 5.0
    # Shape 2: coarser payloads live longer at fixed rate.
    assert (
        by_key[(1.0, 8)]["lifetime"] > by_key[(1.0, 32)]["lifetime"]
    )
    # Shape 3: the total message budget is battery-bound, so every cell
    # sent roughly energy/cost-per-message messages.
    for r in rows:
        assert r["messages"] > 0


def test_actuated_rate_drop_extends_life():
    """The closed loop: a consumer's SET_RATE visibly extends lifetime."""

    deployment = deploy(seed=2)
    twins = []
    for index in range(2):
        twins.append(
            deployment.add_sensor(
                "battery_node",
                [
                    SensorStreamSpec(
                        0,
                        ConstantSampler(42.0),
                        CODEC,
                        config=StreamConfig(rate=2.0),
                        kind="e14b",
                    )
                ],
                mobility=Point(150.0 + 100.0 * index, 200.0),
                # Three times the sweep budget, so the actuation at
                # t=5 s lands well before either twin is drained.
                battery=Battery(3 * BATTERY_J),
                energy_model=RadioEnergyModel(),
            )
        )
    token = deployment.issue_token(
        "conservator", Permission.trusted_consumer()
    )
    deployment.run(5.0)
    # Drop only the first twin to 0.25 Hz via the real control path.
    deployment.control.request_update(
        consumer="conservator",
        stream_id=twins[0].stream_ids()[0],
        command=StreamUpdateCommand.SET_RATE,
        value=0.25,
        token=token,
    )
    deployment.run(HORIZON)
    actuated_death, control_death = [
        t.stats.died_at or HORIZON + 20.0 for t in twins
    ]
    print_table(
        "E14b: mid-life SET_RATE 2.0 -> 0.25 Hz vs untouched twin",
        ["node", "died at (s)"],
        [["actuated", actuated_death], ["untouched twin", control_death]],
    )
    assert actuated_death > 2.0 * control_death
