"""E16 — end-to-end workload under the canonical fault plan.

The chaos experiment: a small deployment streams sensor data to a
session-based subscriber and issues actuation requests while the
:mod:`repro.faults` injector replays the canonical schedule — a 10%
wireless drop burst, a broker crash/restart, and a 30-sim-second
fixed-network partition of the subscriber's endpoint. The middleware's
resilience machinery (session heartbeat recovery, orphan replay,
fixed-network retry/backoff, actuation retransmission) must absorb all
three faults:

- every approved actuation is acknowledged or *explicitly* failed —
  nothing is left dangling;
- the subscriber's delivery ratio stays >= 0.95 of everything the
  Filtering Service forwarded;
- each injected fault and each recovery action is visible in the
  ``faults.*`` / ``resilience.*`` metrics;
- two runs with the same seed produce byte-identical snapshots.

Set ``GARNET_CHAOS_QUICK=1`` to compress the fault timeline 4x (the CI
smoke configuration): ``pytest benchmarks/bench_e16_chaos.py``.
"""

import json
import os

from repro.core.config import GarnetConfig
from repro.core.control import StreamUpdateCommand
from repro.core.middleware import Garnet
from repro.core.resource import StreamConfig
from repro.core.security import Permission
from repro.faults import FaultPlan, inject
from repro.sensors.node import SensorStreamSpec
from repro.sensors.sampling import ConstantSampler, SampleCodec
from repro.simnet.geometry import Rect
from repro.simnet.wireless import LossModel

from claims import print_table

CODEC = SampleCodec(0.0, 100.0)
QUICK = os.environ.get("GARNET_CHAOS_QUICK", "") not in ("", "0")
SCALE = 0.25 if QUICK else 1.0
SENSORS = 3
SETTLE = 40.0 * SCALE + 15.0  # drain retries/timeouts after the last fault
SINK = "chaos-sink"
OPERATOR = "chaos-operator"


def build_deployment(seed: int) -> Garnet:
    config = GarnetConfig(
        area=Rect(0.0, 0.0, 500.0, 500.0),
        receiver_rows=2,
        receiver_cols=2,
        receiver_overlap=2.0,
        transmitter_rows=2,
        transmitter_cols=2,
        loss_model=LossModel(base=0.02),
        ack_timeout=1.0,
        ack_max_attempts=6,
        ack_backoff_multiplier=1.5,
        ack_backoff_max=8.0,
        # Unreachable fixed-network endpoints retry long enough to ride
        # out the 30-sim-second partition window.
        fixednet_retry_base=0.5,
        fixednet_retry_multiplier=2.0,
        fixednet_retry_attempts=8,
        broker_lease_ttl=20.0 * SCALE,
        session_heartbeat_period=4.0 * SCALE,
    )
    deployment = Garnet(config=config, seed=seed)
    deployment.define_sensor_type(
        "chaos",
        {"rate_limits": "rate >= 0.1 and rate <= 10"},
        default_config=StreamConfig(rate=2.0),
    )
    for index in range(SENSORS):
        deployment.add_sensor(
            "chaos",
            [
                SensorStreamSpec(
                    0,
                    ConstantSampler(40.0 + index),
                    CODEC,
                    config=StreamConfig(rate=2.0),
                    kind="chaos.level",
                )
            ],
        )
    return deployment


def run_chaos(seed: int = 31) -> dict:
    deployment = build_deployment(seed)
    sink = deployment.connect(SINK)
    received = []
    sink.on_data(received.append)
    sink.subscribe(kind="chaos.*")

    operator = deployment.connect(
        OPERATOR, permissions=Permission.trusted_consumer()
    )
    approved = []
    targets = [
        stream_id
        for node in deployment.sensors()
        for stream_id in node.stream_ids()
    ]

    def issue_round(round_index: int) -> None:
        # Cycle lengths 3 (targets) and 4 (rates) are coprime, so each
        # round changes its target's rate and actually issues.
        target = targets[round_index % len(targets)]
        rate = 2.0 + (round_index % 4) * 0.5
        decision = operator.request_update(
            target, StreamUpdateCommand.SET_RATE, rate
        )
        if decision.approved and decision.issue_actuation:
            approved.append((target, rate))

    plan = FaultPlan.canonical(
        scale=SCALE, endpoints=(f"consumer.{SINK}",)
    )
    inject(deployment, plan)

    # Actuation keeps flowing throughout the fault timeline, including
    # inside every fault window.
    rounds = 12
    for round_index in range(rounds):
        deployment.sim.schedule(
            (round_index + 0.5) * plan.horizon / rounds,
            issue_round,
            round_index,
        )

    deployment.run(plan.horizon + SETTLE)

    actuation = deployment.actuation.stats
    filtering = deployment.filtering.stats
    counters = deployment.metrics_snapshot()["counters"]
    delivery_ratio = (
        len(received) / filtering.delivered if filtering.delivered else 0.0
    )
    return {
        "snapshot": json.dumps(
            deployment.metrics_snapshot(), sort_keys=True
        ),
        "received": len(received),
        "forwarded": filtering.delivered,
        "delivery_ratio": delivery_ratio,
        "approved": len(approved),
        "issued": actuation.issued,
        "acknowledged": actuation.acknowledged,
        "failed": actuation.failed,
        "pending": deployment.actuation.pending_count,
        "counters": counters,
        "recoveries": deployment.session(SINK).stats.recoveries,
        "orphans_replayed": deployment.session(SINK).stats.orphans_replayed,
    }


def test_chaos_end_to_end():
    result = run_chaos()
    print_table(
        f"E16: chaos run (scale={SCALE:g})",
        [
            "metric",
            "value",
        ],
        [
            ["forwarded -> delivered", f"{result['forwarded']} -> {result['received']}"],
            ["delivery ratio", f"{result['delivery_ratio']:.3f}"],
            ["actuations approved", result["approved"]],
            ["issued/acked/failed", f"{result['issued']}/{result['acknowledged']}/{result['failed']}"],
            ["session recoveries", result["recoveries"]],
            ["orphans replayed", result["orphans_replayed"]],
            ["faults injected", int(result["counters"]["faults.injected"])],
        ],
    )
    counters = result["counters"]

    # Every fault window opened and closed, and is visible in metrics.
    assert counters["faults.injected"] == 3.0
    assert counters["faults.recovered"] == 3.0
    assert counters["faults.broker_crashes"] == 1.0
    assert counters["faults.partitions"] == 1.0
    assert counters["faults.drop_bursts"] == 1.0

    # Recovery machinery actually engaged.
    assert counters["resilience.session_recoveries"] >= 1.0
    assert counters["resilience.fixednet_retries"] >= 1.0

    # Every approved actuation was acknowledged or explicitly failed.
    assert result["issued"] >= result["approved"] > 0
    assert result["pending"] == 0
    assert result["acknowledged"] + result["failed"] == result["issued"]

    # Dispatch delivery floor under all three faults.
    assert result["delivery_ratio"] >= 0.95


def test_chaos_determinism():
    first = run_chaos(seed=47)
    second = run_chaos(seed=47)
    assert first["snapshot"] == second["snapshot"]
