"""E5 — Resource Manager mediation of conflicting consumer demands.

Paper artefacts reproduced: Section 2's "mutually unaware [consumers]
... may lead to conflicting interaction with the sensor field"; Section
4.2's Resource Manager approval step; Section 6's "approximate overview
of the sensors' configuration ... allows admission control decisions to
be made, and is necessary given the potential for conflicting consumer
requests"; and the Section 8 constraint language enforcing sensor limits
automatically.

For each built-in mediation policy, N consumers place conflicting rate
demands on one shared stream; the table shows the effective rate each
policy settles on and how many requests were denied. A last test makes
a decision against up to 128 standing demands.
"""

import functools

import pytest

from repro.core.conflicts import make_policy
from repro.core.constraints import ConstraintSet
from repro.core.control import StreamUpdateCommand
from repro.core.resource import (
    ResourceManager,
    SensorTypeSpec,
    StreamConfig,
)
from repro.core.streamid import StreamId
from repro.simnet.fixednet import FixedNetwork
from repro.simnet.kernel import Simulator

from claims import Table, documents

STREAM = StreamId(1, 0)
# Five mutually-unaware consumers with conflicting rate wishes; priority
# loosely tracks how "trusted" each application is (Section 9).
DEMANDS = [
    ("archiver", 0.5, 0),
    ("dashboard", 2.0, 1),
    ("alarm-system", 8.0, 5),
    ("researcher", 4.0, 2),
    ("auditor", 1.0, 0),
]


def build_manager(policy_name: str) -> tuple[Simulator, ResourceManager]:
    sim = Simulator(seed=1)
    network = FixedNetwork(sim, message_latency=0.0)
    manager = ResourceManager(
        network, default_policy=make_policy(policy_name)
    )
    manager.register_sensor_type(
        SensorTypeSpec(
            name="gauge",
            constraints=ConstraintSet(
                {"rate_limits": "rate >= 0.1 and rate <= 10"}
            ),
            default_config=StreamConfig(rate=1.0),
        )
    )
    manager.register_sensor(1, "gauge")
    return sim, manager


def run_policy(policy_name: str) -> dict:
    sim, manager = build_manager(policy_name)
    denied = 0
    effective = None
    for consumer, rate, priority in DEMANDS:
        sim.run(until=sim.now + 1.0)  # demands arrive at distinct times
        decision = manager.request_update(
            consumer,
            STREAM,
            StreamUpdateCommand.SET_RATE,
            rate,
            priority=priority,
        )
        if decision.approved:
            effective = decision.effective_value
        else:
            denied += 1
    return {
        "policy": policy_name,
        "effective_rate": effective,
        "denied": denied,
        "standing_demands": len(manager.standing_demands(STREAM)),
    }


@functools.cache
def policy_sweep() -> list[dict]:
    return [
        run_policy(name)
        for name in ("priority", "latest", "fcfs", "max", "min", "fair", "deny")
    ]


@documents("E5")
def policy_table() -> Table:
    return Table(
        "E5: mediation policies over 5 conflicting rate demands",
        ["policy", "effective rate", "denied", "standing demands"],
        [
            [r["policy"], r["effective_rate"], r["denied"], r["standing_demands"]]
            for r in policy_sweep()
        ],
    )


def test_policy_outcomes():
    policy_table().show()
    by_name = {r["policy"]: r for r in policy_sweep()}
    assert by_name["priority"]["effective_rate"] == 8.0  # alarm wins
    assert by_name["max"]["effective_rate"] == 8.0
    assert by_name["min"]["effective_rate"] == 0.5
    assert by_name["fcfs"]["effective_rate"] == 0.5  # archiver was first
    assert by_name["latest"]["effective_rate"] == 1.0  # auditor was last
    assert 0.5 < by_name["fair"]["effective_rate"] < 8.0
    assert by_name["deny"]["denied"] == 4  # every conflicting follow-up


def test_constraint_enforcement_in_mediation():
    """Out-of-range demands are refused even when a policy would pick them."""
    _, manager = build_manager("max")
    ok = manager.request_update(
        "a", STREAM, StreamUpdateCommand.SET_RATE, 9.0
    )
    too_fast = manager.request_update(
        "b", STREAM, StreamUpdateCommand.SET_RATE, 50.0
    )
    # The illegal demand must not linger and poison later mediation.
    after = manager.request_update(
        "c", STREAM, StreamUpdateCommand.SET_RATE, 2.0
    )
    assert ok.approved
    assert not too_fast.approved
    assert too_fast.violations == ("rate_limits",)
    assert after.approved
    assert after.effective_value == 9.0  # max(9, 2), 50 was rolled back


@pytest.mark.parametrize("consumers", [2, 16, 128])
def test_admission_with_standing_demands(consumers):
    """A decision still goes through with many standing demands (Section
    1: low performance overhead)."""
    _, manager = build_manager("priority")
    for index in range(consumers):
        manager.request_update(
            f"c{index}",
            STREAM,
            StreamUpdateCommand.SET_RATE,
            1.0 + index % 5,
            priority=index % 3,
        )

    decision = manager.request_update(
        "prober", STREAM, StreamUpdateCommand.SET_RATE, 3.0
    )
    assert decision.approved
