"""repro.faults: plans validate, levers fire, and runs are deterministic."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.middleware import Garnet
from repro.core.resource import StreamConfig
from repro.errors import ConfigurationError
from repro.faults import (
    BrokerCrash,
    ConnectionReset,
    ConsumerStall,
    DropBurst,
    FaultInjector,
    FaultPlan,
    FloodBurst,
    LatencySpike,
    Lever,
    NetworkPartition,
    ReceiverOutage,
    TransmitterOutage,
    inject,
)
from repro.obs.registry import MetricsRegistry
from repro.simnet.wireless import LossModel

from tests.conftest import lossless_config, make_stream_spec


def chaos_deployment(seed=7, **overrides) -> Garnet:
    garnet = Garnet(
        config=lossless_config(
            broker_lease_ttl=10.0,
            session_heartbeat_period=2.0,
            fixednet_retry_base=0.5,
            fixednet_retry_attempts=6,
            **overrides,
        ),
        seed=seed,
    )
    garnet.define_sensor_type(
        "generic",
        {"rate_limits": "rate >= 0.1 and rate <= 50"},
        default_config=StreamConfig(rate=1.0),
    )
    return garnet


class TestPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan(
            events=(
                BrokerCrash(at=40.0, duration=10.0),
                DropBurst(at=5.0, duration=5.0, extra_loss=0.2),
            )
        )
        assert [type(e).__name__ for e in plan] == [
            "DropBurst",
            "BrokerCrash",
        ]
        assert plan.horizon == 50.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BrokerCrash(at=-1.0, duration=5.0)
        with pytest.raises(ConfigurationError):
            BrokerCrash(at=0.0, duration=0.0)
        with pytest.raises(ConfigurationError):
            DropBurst(at=0.0, duration=1.0, extra_loss=1.5)
        with pytest.raises(ConfigurationError):
            LatencySpike(at=0.0, duration=1.0, factor=1.0)
        with pytest.raises(ConfigurationError):
            NetworkPartition(at=0.0, duration=1.0, endpoints=())
        with pytest.raises(ConfigurationError):
            FloodBurst(at=0.0, duration=1.0, rate=0.0)
        with pytest.raises(ConfigurationError):
            FloodBurst(at=0.0, duration=1.0, rate=10.0, streams=0)
        with pytest.raises(ConfigurationError):
            FloodBurst(at=0.0, duration=1.0, rate=10.0, payload_bytes=-1)
        with pytest.raises(ConfigurationError):
            ConsumerStall(at=0.0, duration=1.0, endpoints=())

    def test_canonical_plan_contents(self):
        plan = FaultPlan.canonical(endpoints=("consumer.app",))
        kinds = {type(event).__name__ for event in plan}
        assert kinds == {"DropBurst", "BrokerCrash", "NetworkPartition"}
        burst = next(e for e in plan if isinstance(e, DropBurst))
        partition = next(
            e for e in plan if isinstance(e, NetworkPartition)
        )
        assert burst.extra_loss == pytest.approx(0.10)
        assert partition.duration == pytest.approx(30.0)

    def test_canonical_scale(self):
        plan = FaultPlan.canonical(scale=0.1)
        assert plan.horizon == pytest.approx(5.5)


class TestInjectorLevers:
    def test_broker_crash_window(self):
        deployment = chaos_deployment()
        inject(deployment, FaultPlan(events=(
            BrokerCrash(at=1.0, duration=2.0),
        )))
        deployment.run(1.5)
        assert not deployment.broker.up
        deployment.run(2.0)
        assert deployment.broker.up
        counters = deployment.metrics().snapshot()["counters"]
        assert counters["faults.broker_crashes"] == 1.0
        assert counters["faults.injected"] == 1.0
        assert counters["faults.recovered"] == 1.0

    def test_partition_window(self):
        deployment = chaos_deployment()
        inject(deployment, FaultPlan(events=(
            NetworkPartition(
                at=1.0, duration=2.0, endpoints=("consumer.app",)
            ),
        )))
        deployment.run(1.5)
        assert deployment.network.is_partitioned("consumer.app")
        deployment.run(2.0)
        assert not deployment.network.is_partitioned("consumer.app")

    def test_latency_spike_multiplies_and_restores(self):
        deployment = chaos_deployment()
        inject(deployment, FaultPlan(events=(
            LatencySpike(at=1.0, duration=4.0, factor=10.0),
            LatencySpike(at=2.0, duration=1.0, factor=2.0),
        )))
        deployment.run(2.5)
        assert deployment.network.latency_factor == pytest.approx(20.0)
        deployment.run(1.0)
        assert deployment.network.latency_factor == pytest.approx(10.0)
        deployment.run(2.0)
        assert deployment.network.latency_factor == pytest.approx(1.0)

    def test_drop_burst_sets_extra_loss(self):
        deployment = chaos_deployment()
        inject(deployment, FaultPlan(events=(
            DropBurst(at=1.0, duration=2.0, extra_loss=0.25),
        )))
        deployment.run(1.5)
        assert deployment.medium.extra_loss == pytest.approx(0.25)
        deployment.run(2.0)
        assert deployment.medium.extra_loss == 0.0

    def test_drop_burst_loses_frames_without_loss_model(self):
        deployment = chaos_deployment()
        deployment.add_sensor("generic", [make_stream_spec(rate=5.0)])
        inject(deployment, FaultPlan(events=(
            DropBurst(at=1.0, duration=8.0, extra_loss=1.0),
        )))
        deployment.run(10.0)
        assert deployment.medium.stats.burst_losses > 0

    def test_receiver_outage_detaches_and_restores(self):
        deployment = chaos_deployment()
        deployment.add_sensor("generic", [make_stream_spec(rate=5.0)])
        all_ids = tuple(
            r.receiver_id for r in deployment.receivers.receivers
        )
        inject(deployment, FaultPlan(events=(
            ReceiverOutage(at=1.0, duration=2.0, receiver_ids=all_ids),
        )))
        deployment.run(1.5)
        during = deployment.receivers.total_frames()
        deployment.run(1.0)  # outage still active until t=3.0
        assert deployment.receivers.total_frames() == during
        deployment.run(3.0)
        assert deployment.receivers.total_frames() > during

    def test_transmitter_outage_forces_failover(self):
        deployment = chaos_deployment(
            transmitter_rows=2, transmitter_cols=1
        )
        from repro.core.security import Permission

        node = deployment.add_sensor("generic", [make_stream_spec()])
        session = deployment.connect(
            "app", permissions=Permission.trusted_consumer()
        )
        inject(deployment, FaultPlan(events=(
            TransmitterOutage(
                at=0.5, duration=20.0, transmitter_ids=(0,)
            ),
        )))
        deployment.run(2.0)
        from repro.core.control import StreamUpdateCommand

        session.request_update(
            node.stream_ids()[0], StreamUpdateCommand.SET_RATE, 4.0
        )
        deployment.run(10.0)
        stats = deployment.replicator.stats
        assert stats.orders >= 1
        # Either the targeted selection never picked transmitter 0, or
        # the replicator failed over; in no case was the order lost.
        assert stats.blackouts == 0
        assert deployment.actuation.stats.acknowledged >= 1

    def test_flood_burst_floods_dispatcher_ingress(self):
        deployment = chaos_deployment()
        inject(deployment, FaultPlan(events=(
            FloodBurst(at=1.0, duration=2.0, rate=50.0, streams=2),
        )))
        deployment.run(4.0)
        counters = deployment.metrics().snapshot()["counters"]
        assert counters["faults.flood_bursts"] == 1.0
        # ~100 synthetic messages in the window, none after it closes.
        assert counters["faults.flood_messages"] >= 80.0
        at_close = counters["faults.flood_messages"]
        deployment.run(2.0)
        counters = deployment.metrics().snapshot()["counters"]
        assert counters["faults.flood_messages"] == at_close
        # Unclaimed flood streams land in the Orphanage like any other
        # un-subscribed data.
        assert deployment.orphanage.total_received >= 80

    def test_flood_streams_are_distinct(self):
        deployment = chaos_deployment()
        inject(deployment, FaultPlan(events=(
            FloodBurst(at=0.5, duration=1.0, rate=20.0, streams=3),
        )))
        deployment.run(2.0)
        assert len(deployment.orphanage.orphan_streams()) == 3

    def test_consumer_stall_parks_then_resumes(self):
        deployment = chaos_deployment(
            qos_consumer_queue=4, qos_quarantine_after=1.0
        )
        session = deployment.connect("app")
        delivery = deployment.qos.delivery
        inject(deployment, FaultPlan(events=(
            ConsumerStall(
                at=1.0, duration=2.0, endpoints=(session.endpoint,)
            ),
        )))
        deployment.run(1.5)
        assert delivery.is_stalled(session.endpoint)
        deployment.run(2.0)
        assert not delivery.is_stalled(session.endpoint)
        counters = deployment.metrics().snapshot()["counters"]
        assert counters["faults.consumer_stalls"] == 1.0
        assert counters["qos.delivery.resumes"] == 1.0

    def test_consumer_stall_requires_qos_delivery(self):
        deployment = chaos_deployment()  # no qos_consumer_queue
        pending = deployment.sim.pending_events
        with pytest.raises(ConfigurationError):
            inject(deployment, FaultPlan(events=(
                ConsumerStall(
                    at=1.0, duration=1.0, endpoints=("consumer.x",)
                ),
            )))
        assert deployment.sim.pending_events == pending

    @pytest.mark.parametrize(
        "event",
        [
            ReceiverOutage(at=5.0, duration=1.0, receiver_ids=(99,)),
            BrokerCrash(at=5.0, duration=1.0, broker="b7"),
            ConnectionReset(at=5.0),
        ],
        ids=["unknown-receiver", "broker-off-cluster", "socket-only-kind"],
    )
    def test_plan_refused_whole_before_anything_runs(self, event):
        deployment = chaos_deployment()
        pending = deployment.sim.pending_events
        with pytest.raises(ConfigurationError):
            inject(deployment, FaultPlan(events=(
                DropBurst(at=1.0, duration=1.0, extra_loss=0.5), event,
            )))
        assert deployment.sim.pending_events == pending
        counters = deployment.metrics().snapshot()["counters"]
        assert "faults.injected" not in counters

    def test_plan_holds_fault_events_only(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(events=("drop everything",))

    def test_transmitter_outage_on_unknown_id_is_accepted(self):
        deployment = chaos_deployment()
        inject(deployment, FaultPlan(events=(
            TransmitterOutage(at=1.0, duration=1.0, transmitter_ids=(99,)),
        )))
        deployment.run(3.0)
        counters = deployment.metrics().snapshot()["counters"]
        assert counters["faults.redundant"] == 2.0

    def test_double_arm_rejected(self):
        deployment = chaos_deployment()
        injector = inject(deployment, FaultPlan(events=(
            BrokerCrash(at=1.0, duration=1.0),
        )))
        with pytest.raises(RuntimeError):
            injector.arm()


class TestOverlappingWindows:
    """Same-kind windows on one target: dark from first open to last close."""

    def test_receiver_stays_detached_and_reattaches_once(self):
        deployment = chaos_deployment(receiver_rows=1, receiver_cols=1)
        (receiver,) = deployment.receivers.receivers
        inject(deployment, FaultPlan(events=(
            ReceiverOutage(
                at=1.0, duration=2.0, receiver_ids=(receiver.receiver_id,)
            ),
            ReceiverOutage(
                at=2.0, duration=2.0, receiver_ids=(receiver.receiver_id,)
            ),
        )))
        medium = deployment.medium
        assert medium.listener_count == 1
        for until, expected in ((1.5, 0), (2.5, 0), (3.5, 0), (4.5, 1)):
            deployment.run(until - deployment.sim.now)
            assert medium.listener_count == expected, until

    def test_transmitter_stays_offline_until_the_last_close(self):
        deployment = chaos_deployment()
        inject(deployment, FaultPlan(events=(
            TransmitterOutage(at=1.0, duration=2.0, transmitter_ids=(0,)),
            TransmitterOutage(at=2.0, duration=2.0, transmitter_ids=(0,)),
        )))
        transmitter = deployment.transmitters.transmitter(0)
        for until, online in ((1.5, False), (3.5, False), (4.5, True)):
            deployment.run(until - deployment.sim.now)
            assert transmitter.online is online, until

    def test_consumer_stays_stalled_until_the_last_close(self):
        deployment = chaos_deployment(
            qos_consumer_queue=4, qos_quarantine_after=1.0
        )
        endpoint = deployment.connect("app").endpoint
        inject(deployment, FaultPlan(events=(
            ConsumerStall(at=1.0, duration=2.0, endpoints=(endpoint,)),
            ConsumerStall(at=2.0, duration=2.0, endpoints=(endpoint,)),
        )))
        delivery = deployment.qos.delivery
        for until, stalled in ((1.5, True), (3.5, True), (4.5, False)):
            deployment.run(until - deployment.sim.now)
            assert delivery.is_stalled(endpoint) is stalled, until
        counters = deployment.metrics().snapshot()["counters"]
        assert counters["qos.delivery.resumes"] == 1.0

    def test_endpoint_stays_partitioned_until_the_last_close(self):
        deployment = chaos_deployment()
        inject(deployment, FaultPlan(events=(
            NetworkPartition(at=1.0, duration=2.0, endpoints=("c.a",)),
            NetworkPartition(at=2.0, duration=2.0, endpoints=("c.a",)),
        )))
        network = deployment.network
        for until, cut in ((1.5, True), (3.5, True), (4.5, False)):
            deployment.run(until - deployment.sim.now)
            assert network.is_partitioned("c.a") is cut, until
        counters = deployment.metrics().snapshot()["counters"]
        assert counters["faults.redundant"] == 2.0

    def test_broker_stays_down_until_the_last_close(self):
        deployment = chaos_deployment()
        inject(deployment, FaultPlan(events=(
            BrokerCrash(at=1.0, duration=2.0),
            BrokerCrash(at=2.0, duration=2.0),
        )))
        for until, up in ((1.5, False), (3.5, False), (4.5, True)):
            deployment.run(until - deployment.sim.now)
            assert deployment.broker.up is up, until
        counters = deployment.metrics().snapshot()["counters"]
        assert counters["faults.redundant"] == 2.0


class _FakeClock:
    """A ``schedule`` for the injector, run by hand in plan-time order."""

    def __init__(self):
        self.queue = []

    def schedule(self, at, callback, event):
        self.queue.append((at, len(self.queue), callback, event))

    def run_until(self, until):
        self.queue.sort(key=lambda entry: entry[:2])
        while self.queue and self.queue[0][0] <= until:
            _, _, callback, event = self.queue.pop(0)
            callback(event)


_WINDOW = st.tuples(
    st.integers(0, 8),  # opens at
    st.integers(1, 4),  # lasts
    st.sets(st.sampled_from("abc"), min_size=1),  # on targets
)


class TestWindowBook:
    """Any plan of windows on 1-3 targets, against fake levers."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_WINDOW, min_size=1, max_size=6))
    def test_lever_is_on_exactly_inside_the_union(self, windows):
        plan = FaultPlan(events=tuple(
            NetworkPartition(
                at=float(at), duration=float(span),
                endpoints=tuple(sorted(targets)),
            )
            for at, span, targets in windows
        ))
        calls = []
        clock, metrics = _FakeClock(), MetricsRegistry()
        FaultInjector(
            plan,
            schedule=clock.schedule,
            metrics=metrics,
            levers={
                NetworkPartition: Lever(
                    lambda target: calls.append((target, "open")),
                    lambda target: calls.append((target, "close")),
                ),
            },
        ).arm()
        active, redundant = metrics.gauge("faults.active"), metrics.counter(
            "faults.redundant"
        )
        for probe in (half + 0.5 for half in range(14)):
            clock.run_until(probe)
            opened = [
                event for event in plan if event.at <= probe < event.ends_at
            ]
            assert active.value == len(opened)
            for target in "abc":
                moves = [move for name, move in calls if name == target]
                # Open and close alternate, starting with an open.
                assert moves == ["open", "close"] * (len(moves) // 2) + (
                    ["open"] if len(moves) % 2 else []
                )
                inside = any(target in event.endpoints for event in opened)
                assert (len(moves) % 2 == 1) is inside, (probe, target)
        # Every open and close that moved no lever was a nested one.
        legs = 2 * sum(len(event.endpoints) for event in plan)
        assert redundant.value == legs - len(calls)


class TestDeterminism:
    @staticmethod
    def _chaos_run(seed: int) -> str:
        deployment = chaos_deployment(
            seed=seed, loss_model=LossModel(base=0.05)
        )
        node = deployment.add_sensor("generic", [make_stream_spec(rate=2.0)])
        received = []
        session = deployment.connect("app", heartbeat_period=2.0)
        session.on_data(received.append)
        session.subscribe(kind="test.*")
        plan = FaultPlan.canonical(
            scale=0.25, endpoints=("consumer.app",)
        )
        inject(deployment, plan)
        deployment.run(plan.horizon + 10.0)
        snapshot = deployment.metrics_snapshot()
        return json.dumps(snapshot, sort_keys=True)

    def test_same_seed_same_plan_identical_snapshots(self):
        assert self._chaos_run(21) == self._chaos_run(21)

    def test_seeded_run_is_pinned(self):
        digest = hashlib.sha256(self._chaos_run(21).encode()).hexdigest()
        assert digest == (
            "1dc21f2bc9d35082740b27c81e246a48505e4c8cf64f27d0111a0baf20fb42f0"
        )

    def test_different_seed_differs(self):
        # Sanity check that the snapshot actually reflects the run.
        assert self._chaos_run(21) != self._chaos_run(22)
