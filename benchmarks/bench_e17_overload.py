"""E17 — overload protection & graceful degradation under a flood.

The overload experiment: a small deployment streams sensor data to three
session consumers while the fault injector applies, simultaneously,

- a 10x :class:`FloodBurst` of synthetic publications into the
  Dispatching Service ingress,
- a :class:`ConsumerStall` wedging one subscriber (it heartbeats but
  stops draining), and
- a :class:`NetworkPartition` cutting another subscriber off entirely.

The QoS layer (``repro.qos``) must absorb all three at once:

- token-bucket admission with priority shedding drops the flood, not
  the sensor data — the healthy consumer's delivery ratio stays >= 0.95;
- the stalled consumer is quarantined within the saturation window and
  its parked backlog is replayed when the stall ends;
- the partitioned endpoint trips its circuit breaker open (no more
  retry hammering) and the breaker closes again after the heal;
- the degradation controller demonstrably lowers the sensors' rates
  through the mediated control path while the flood lasts, and restores
  them once pressure clears;
- every shed, trip, quarantine and degradation is visible under
  ``qos.*`` metrics, and two same-seed runs are byte-identical.

Set ``GARNET_OVERLOAD_QUICK=1`` to compress the timeline 4x (the CI
smoke configuration): ``pytest benchmarks/bench_e17_overload.py``.
"""

import json
import os

from repro.core.config import GarnetConfig
from repro.core.middleware import Garnet
from repro.core.resource import StreamConfig
from repro.faults import (
    ConsumerStall,
    FaultPlan,
    FloodBurst,
    NetworkPartition,
    inject,
)
from repro.sensors.node import SensorStreamSpec
from repro.sensors.sampling import ConstantSampler, SampleCodec
from repro.simnet.geometry import Rect

from claims import print_table

CODEC = SampleCodec(0.0, 100.0)
QUICK = os.environ.get("GARNET_OVERLOAD_QUICK", "") not in ("", "0")
SCALE = 0.25 if QUICK else 1.0
SENSORS = 3
BASE_RATE = 2.0
SETTLE = 25.0 * SCALE
STEADY = "steady"  # healthy subscriber: the delivery-ratio floor
SLOW = "slow"  # stalled subscriber: quarantine + replay
DOOMED = "doomed"  # partitioned subscriber: breaker trip + close


def build_deployment(seed: int) -> Garnet:
    config = GarnetConfig(
        area=Rect(0.0, 0.0, 400.0, 400.0),
        receiver_rows=2,
        receiver_cols=2,
        receiver_overlap=2.0,
        transmitter_rows=1,
        transmitter_cols=1,
        loss_model=None,
        # Short fixed-net retries: the breaker, not the retry queue, is
        # what rides out the partition.
        fixednet_retry_base=0.5,
        fixednet_retry_attempts=2,
        broker_lease_ttl=20.0 * SCALE,
        session_heartbeat_period=4.0 * SCALE,
        # Small enough that the admitted slice of the flood still rolls
        # the unclaimed-stream backlog over (eviction accounting).
        orphanage_backlog=32,
        # --- the QoS layer under test ---
        qos_ingress_rate=30.0,
        qos_ingress_burst=30.0,
        qos_ingress_queue=50,
        qos_shedding="priority",
        qos_consumer_queue=8,
        qos_quarantine_after=2.0 * SCALE,
        qos_breaker_failures=3,
        qos_breaker_reset=10.0 * SCALE,
        # The controller keeps its own policy: degrade after two pressured
        # ticks, restore after three calm ones, halve the rate.
        qos_degradation=True,
        qos_degradation_period=2.5 * SCALE,
        qos_min_rate=0.5,
    )
    deployment = Garnet(config=config, seed=seed)
    deployment.define_sensor_type(
        "over",
        {"rate_limits": "rate >= 0.5 and rate <= 10"},
        default_config=StreamConfig(rate=BASE_RATE),
    )
    for index in range(SENSORS):
        deployment.add_sensor(
            "over",
            [
                SensorStreamSpec(
                    0,
                    ConstantSampler(40.0 + index),
                    CODEC,
                    config=StreamConfig(rate=BASE_RATE),
                    kind="over.level",
                )
            ],
        )
    return deployment


def overload_plan() -> FaultPlan:
    return FaultPlan(
        events=(
            # 10x the legitimate sensor load (3 sensors x 2 Hz = 6/s).
            FloodBurst(
                at=10.0 * SCALE,
                duration=30.0 * SCALE,
                rate=60.0,
                streams=2,
            ),
            ConsumerStall(
                at=15.0 * SCALE,
                duration=25.0 * SCALE,
                endpoints=(f"consumer.{SLOW}",),
            ),
            NetworkPartition(
                at=12.0 * SCALE,
                duration=20.0 * SCALE,
                endpoints=(f"consumer.{DOOMED}",),
            ),
        )
    )


def run_overload(seed: int = 31) -> dict:
    deployment = build_deployment(seed)
    received = {}
    for name in (STEADY, SLOW, DOOMED):
        session = deployment.connect(name)
        received[name] = []
        session.on_data(received[name].append)
        session.subscribe(kind="over.*")

    plan = overload_plan()
    inject(deployment, plan)

    # Sample believed sensor rates over the whole timeline to witness
    # the degrade-then-restore arc.
    rate_trace = []

    def sample_rates() -> None:
        rate_trace.append(
            tuple(
                node.current_config(0).rate for node in deployment.sensors()
            )
        )

    horizon = plan.horizon + SETTLE
    samples = 40
    for index in range(samples):
        deployment.sim.schedule(
            (index + 1) * horizon / samples, sample_rates
        )

    deployment.run(horizon)

    counters = deployment.metrics_snapshot()["counters"]
    forwarded = deployment.filtering.stats.delivered
    delivery = deployment.qos.delivery
    return {
        "snapshot": json.dumps(
            deployment.metrics_snapshot(), sort_keys=True
        ),
        "received": {name: len(rx) for name, rx in received.items()},
        "forwarded": forwarded,
        "steady_ratio": (
            len(received[STEADY]) / forwarded if forwarded else 0.0
        ),
        "rate_trace": rate_trace,
        "min_rate": min(min(rates) for rates in rate_trace),
        "final_rates": rate_trace[-1],
        "counters": counters,
        "quarantined_now": delivery.quarantined_endpoints(),
        "breaker_state": deployment.network.breaker_state(
            f"consumer.{DOOMED}"
        ),
    }


def test_overload_end_to_end():
    result = run_overload()
    counters = result["counters"]
    print_table(
        f"E17: overload run (scale={SCALE:g})",
        ["metric", "value"],
        [
            ["forwarded", result["forwarded"]],
            ["steady/slow/doomed received",
             "/".join(str(result["received"][n])
                      for n in (STEADY, SLOW, DOOMED))],
            ["steady delivery ratio", f"{result['steady_ratio']:.3f}"],
            ["flood injected", int(counters["faults.flood_messages"])],
            ["ingress shed", int(counters["qos.ingress.shed"])],
            ["quarantines / replayed",
             f"{int(counters['qos.delivery.quarantines'])} / "
             f"{int(counters['qos.delivery.replayed'])}"],
            ["breaker opened / closed",
             f"{int(counters['qos.breaker_opened'])} / "
             f"{int(counters['qos.breaker_closed'])}"],
            ["degradations / restorations",
             f"{int(counters['qos.degradation.degradations'])} / "
             f"{int(counters['qos.degradation.restorations'])}"],
            ["min sensor rate seen", f"{result['min_rate']:g}"],
            ["final sensor rates",
             "/".join(f"{r:g}" for r in result["final_rates"])],
        ],
    )

    # All three fault windows ran and closed.
    assert counters["faults.injected"] == 3.0
    assert counters["faults.recovered"] == 3.0
    assert counters["faults.flood_messages"] >= 60.0 * 30.0 * SCALE * 0.9

    # Admission control shed the flood, not the sensor data: the
    # healthy consumer's delivery ratio holds the floor.
    assert counters["qos.ingress.shed"] > 0.0
    assert result["steady_ratio"] >= 0.95

    # The stalled consumer was quarantined within the window and its
    # parked backlog was replayed on recovery.
    assert counters["qos.delivery.quarantines"] >= 1.0
    assert counters["qos.delivery.replayed"] > 0.0
    assert result["quarantined_now"] == []
    assert result["received"][SLOW] > 0

    # The partitioned endpoint tripped its breaker and recovered.
    assert counters["qos.breaker_opened"] >= 1.0
    assert counters["qos.breaker_short_circuits"] >= 1.0
    assert counters["qos.breaker_closed"] >= 1.0
    assert result["breaker_state"] == "closed"

    # Sensors were demonstrably down-throttled, then restored.
    assert counters["qos.degradation.degradations"] >= 1.0
    assert counters["qos.degradation.restorations"] >= 1.0
    assert result["min_rate"] < BASE_RATE
    assert all(r == BASE_RATE for r in result["final_rates"])

    # The flood's unclaimed streams exercised the Orphanage's bounded
    # backlog accounting.
    assert counters["orphanage.evicted"] > 0.0


def test_overload_determinism():
    first = run_overload(seed=47)
    second = run_overload(seed=47)
    assert first["snapshot"] == second["snapshot"]
