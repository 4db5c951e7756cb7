"""The in-simulator workloads, driven through the public API.

``sim_journey``, ``sim_cluster`` and ``sim_fanout`` build a deployment
with ``Garnet`` / ``GarnetConfig`` / ``connect`` in this process and run
it as fast as it goes (closed loop: the next step starts when the
previous one returns). Rates are wall-clock: deliveries to consumer
callbacks per second of ``perf_counter``, CPU from ``process_time``.
The system under test shares the process with the harness, so its CPU
and RSS include the consumer callbacks' checks.
"""

from __future__ import annotations

import gc
import random
import time

from common import (
    WINDOWS,
    DropOne,
    Payloads,
    StreamCheck,
    latency_summary,
    now_ns,
    self_peak_rss_mb,
    summarise,
)

from repro.cluster.link import InterBrokerLink
from repro.cluster.mp import run_multiprocess
from repro.core.config import GarnetConfig
from repro.core.dispatching import DispatchingService, SubscriptionPattern
from repro.core.filtering import FilteringService
from repro.core.message import MessageCodec
from repro.core.middleware import Garnet
from repro.core.operators import CollectingConsumer
from repro.core.resource import StreamConfig
from repro.core.session import GarnetSession
from repro.fanout.runtime import FanoutRuntime
from repro.fanout.tree import FanoutTree
from repro.radio.receiver import Receiver
from repro.sensors.node import SensorNode, SensorStreamSpec
from repro.sensors.sampling import SampleCodec
from repro.simnet.fixednet import FixedNetwork
from repro.simnet.geometry import Point, Rect
from repro.simnet.kernel import Simulator
from repro.simnet.wireless import WirelessMedium

#: (class, method, span name, record a message id): the layers' entry
#: points the traced run wraps. ``SensorNode._emit`` (the sampling tick)
#: and ``FanoutTree._on_batch`` (a relay hop) have no public name.
SPANS = (
    (Simulator, "run", "simnet.kernel.run", False),
    (SensorNode, "_emit", "sensors.tick", False),
    (SensorNode, "on_radio_receive", "sensors.on_radio_receive", False),
    (WirelessMedium, "broadcast", "simnet.wireless.broadcast", False),
    (Receiver, "on_radio_receive", "radio.on_radio_receive", False),
    (FilteringService, "on_reception", "core.filtering.on_reception", True),
    (DispatchingService, "on_arrival", "core.dispatching.on_arrival", True),
    (
        DispatchingService,
        "process_remote_delivery",
        "core.dispatching.process_remote_delivery",
        True,
    ),
    (FixedNetwork, "send", "simnet.fixednet.send", True),
    (InterBrokerLink, "on_frame", "cluster.link.on_frame", False),
    (FanoutRuntime, "deliver_root", "fanout.deliver_root", True),
    (FanoutTree, "_on_batch", "fanout.relay", False),
    (MessageCodec, "encode", "core.message.encode", True),
    (MessageCodec, "decode", "core.message.decode", False),
    (GarnetSession, "publish", "core.session.publish", False),
    (CollectingConsumer, "on_data", "core.operators.on_data", False),
)

SAMPLE_CODEC = SampleCodec(0.0, 100.0)
PRECISION = StreamConfig().precision


def measure(step, delivered, seconds: float, windows: int) -> dict:
    """Run ``step`` for ``seconds``; rates per window, medians over them."""
    start = time.perf_counter()
    marks = [(start, delivered(), time.process_time())]
    boundary = start + seconds / windows
    while len(marks) <= windows:
        step()
        now = time.perf_counter()
        if now >= boundary:
            marks.append((now, delivered(), time.process_time()))
            boundary += seconds / windows
    rates, cpu_us = [], []
    for (t0, n0, c0), (t1, n1, c1) in zip(marks, marks[1:]):
        count = max(n1 - n0, 1)
        rates.append(count / (t1 - t0))
        cpu_us.append((c1 - c0) / count * 1e6)
    return {
        "delivered_per_s": summarise(rates),
        "cpu_us_per_delivery": summarise(cpu_us),
        "wall_s": marks[-1][0] - start,
        "delivered": marks[-1][1] - marks[0][1],
    }


# ----------------------------------------------------------------------
# sim_journey: the paper's Figure 1 path
# ----------------------------------------------------------------------
class StampedSampler:
    """A seeded sampler that remembers what it handed the sensor.

    The consumer checks compare the delivered payload with
    ``last_payload`` and time the delivery from ``last_stamp`` (wall
    clock at sampling). Sensors sample once a second and deliver within
    milliseconds of virtual time, so "last" is the sample in flight.
    """

    def __init__(self, seed: int, index: int) -> None:
        self._rng = random.Random(f"journey:{seed}:sensor:{index}")
        self.samples = 0
        self.last_stamp = 0
        self.last_payload = b""

    def sample(self, time_s: float, position) -> float:
        value = self._rng.uniform(0.0, 100.0)
        self.samples += 1
        self.last_payload = SAMPLE_CODEC.encode(
            int(time_s * 1_000_000), value, PRECISION
        )
        self.last_stamp = now_ns()
        return value


class JourneyRig:
    SENSORS = 200
    CONSUMERS = 10
    CHUNK = 5.0  # simulated seconds per step

    def __init__(self, seed: int, quick: bool, inject_drop: bool) -> None:
        area = Rect(0.0, 0.0, 2000.0, 2000.0)
        self.deployment = deployment = Garnet(
            config=GarnetConfig(
                area=area,
                receiver_rows=4,
                receiver_cols=4,
                receiver_overlap=1.5,
            ),
            seed=seed,
        )
        deployment.define_sensor_type("journey", {})
        rng = random.Random(f"journey:{seed}:field")
        self.samplers: dict[int, StampedSampler] = {}
        for index in range(self.SENSORS):
            sampler = StampedSampler(seed, index)
            node = deployment.add_sensor(
                "journey",
                [
                    SensorStreamSpec(
                        0,
                        sampler,
                        SAMPLE_CODEC,
                        config=StreamConfig(rate=1.0),
                        kind="journey",
                        # Start near the top of the 16-bit space so the
                        # run crosses the wrap.
                        initial_sequence=rng.randrange(65_400, 65_536),
                    )
                ],
                mobility=Point(
                    rng.uniform(0.0, area.x_max), rng.uniform(0.0, area.y_max)
                ),
            )
            self.samplers[node.sensor_id] = sampler
        self.delivered = [0]
        self.latencies: list[int] = []
        self.checks: list[dict[int, StreamCheck]] = []
        for index in range(self.CONSUMERS):
            consumer = CollectingConsumer(
                f"c{index}", SubscriptionPattern(kind="journey"), max_kept=64
            )
            deployment.add_consumer(consumer)
            checks: dict[int, StreamCheck] = {}
            self.checks.append(checks)
            callback = self._callback(checks)
            if inject_drop and index == 0:
                callback = DropOne(callback, 50)
            deployment.session(consumer.name).on_data(callback)

    def _callback(self, checks: dict[int, StreamCheck]):
        samplers = self.samplers
        latencies = self.latencies
        delivered = self.delivered

        def on_data(arrival) -> None:
            now = now_ns()
            message = arrival.message
            sensor = message.stream_id.sensor_id
            sampler = samplers[sensor]
            check = checks.get(sensor)
            if check is None:
                check = checks[sensor] = StreamCheck(first=None)
            check.observe(message.sequence)
            if message.payload != sampler.last_payload:
                check.corrupt += 1
            latencies.append(now - sampler.last_stamp)
            delivered[0] += 1

        return on_data

    def step(self) -> None:
        self.deployment.run(self.CHUNK)

    def count(self) -> int:
        return self.delivered[0]

    def finish(self) -> dict:
        """Stop sampling, flush what is in flight, then judge."""
        deployment = self.deployment
        for sensor in deployment.sensors():
            sensor.stop()
        deployment.run(1.0)
        owed = sum(s.samples for s in self.samplers.values()) * self.CONSUMERS
        violations = sum(
            check.out_of_order + check.corrupt
            for checks in self.checks
            for check in checks.values()
        )
        # Frames the radio lost at every receiver are the medium's loss,
        # not a middleware failure — but every consumer holds the same
        # subscription, so they must all miss the same messages.
        reference = {
            sensor: (check.delivered, check.missing)
            for sensor, check in self.checks[0].items()
        }
        for checks in self.checks[1:]:
            seen = {
                sensor: (check.delivered, check.missing)
                for sensor, check in checks.items()
            }
            if seen != reference:
                violations += sum(
                    1
                    for sensor in set(seen) | set(reference)
                    if seen.get(sensor) != reference.get(sensor)
                )
        delivered = self.delivered[0]
        if delivered < 0.995 * owed:
            violations += owed - delivered
        return {"owed": owed, "delivered": delivered, "failed": violations}


# ----------------------------------------------------------------------
# sim_cluster: four brokers, three quarters of deliveries cross a link
# ----------------------------------------------------------------------
class ClusterRig:
    BROKERS = 4
    SUBSCRIBERS = 4  # per broker
    PUBLISHES = 10  # per publisher per step
    STEP = 0.1  # simulated seconds

    def __init__(self, seed: int, quick: bool, inject_drop: bool) -> None:
        self.deployment = deployment = Garnet(
            config=GarnetConfig(
                cluster_enabled=True,
                cluster_brokers=self.BROKERS,
                publish_location_stream=False,
            ),
            seed=seed,
        )
        self.delivered = [0]
        self.latencies: list[int] = []
        self.checks: list[dict[int, StreamCheck]] = []
        self.payloads = [
            Payloads(seed, f"cluster:{index}") for index in range(self.BROKERS)
        ]
        self.publishers = []
        #: publisher id -> the payload generator of that stream
        self.pads: dict[int, Payloads] = {}
        for broker in range(self.BROKERS):
            for index in range(self.SUBSCRIBERS):
                session = deployment.connect(
                    f"sub{broker}.{index}", broker=f"b{broker}"
                )
                checks: dict[int, StreamCheck] = {}
                self.checks.append(checks)
                # One subscriber per broker times its deliveries.
                callback = self._callback(checks, timed=index == 0)
                if inject_drop and broker == 0 and index == 0:
                    callback = DropOne(callback, 50)
                session.on_data(callback)
                session.subscribe(kind="k*")
            self.publishers.append(
                deployment.connect(f"pub{broker}", broker=f"b{broker}")
            )
        deployment.run(0.25)
        self.published = 0
        # The first publish advertises each stream cluster-wide.
        for index, publisher in enumerate(self.publishers):
            stream = publisher.publish(
                0, self.payloads[index].make(now_ns()), kind=f"k{index}"
            )
            self.pads[stream.sensor_id] = self.payloads[index]
            self.published += 1
        deployment.run(0.25)

    def _callback(self, checks: dict[int, StreamCheck], timed: bool):
        delivered = self.delivered
        latencies = self.latencies
        pads = self.pads

        def on_data(arrival) -> None:
            now = now_ns()
            message = arrival.message
            sensor = message.stream_id.sensor_id
            check = checks.get(sensor)
            if check is None:
                check = checks[sensor] = StreamCheck(first=0)
            check.observe(message.sequence)
            payload = message.payload
            if not pads[sensor].intact(payload):
                check.corrupt += 1
            elif timed:
                latencies.append(now - Payloads.stamp_of(payload))
            delivered[0] += 1

        return on_data

    def step(self) -> None:
        for index, publisher in enumerate(self.publishers):
            make = self.payloads[index].make
            kind = f"k{index}"
            for _ in range(self.PUBLISHES):
                publisher.publish(0, make(now_ns()), kind=kind)
        self.published += self.PUBLISHES * len(self.publishers)
        self.deployment.run(self.STEP)

    def count(self) -> int:
        return self.delivered[0]

    def finish(self) -> dict:
        self.deployment.run(2.0)
        owed = self.published * self.BROKERS * self.SUBSCRIBERS
        violations = sum(
            check.failures()
            for checks in self.checks
            for check in checks.values()
        )
        delivered = self.delivered[0]
        violations += max(0, owed - delivered - violations)
        return {"owed": owed, "delivered": delivered, "failed": violations}


# ----------------------------------------------------------------------
# sim_fanout: 100,000 members behind one dispatcher subscription
# ----------------------------------------------------------------------
class _Member:
    """A fan-out member's callback, cheap enough for 100k instances."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def __call__(self, arrival) -> None:
        self.count += 1


class _CheckedMember:
    """Every thousandth member also checks order and payload."""

    __slots__ = ("count", "check", "payloads")

    def __init__(self, payloads: Payloads) -> None:
        self.count = 0
        self.check = StreamCheck(first=0)
        self.payloads = payloads

    def __call__(self, arrival) -> None:
        self.count += 1
        self.check.observe(arrival.message.sequence)
        if not self.payloads.intact(arrival.message.payload):
            self.check.corrupt += 1


class FanoutRig:
    def __init__(self, seed: int, quick: bool, inject_drop: bool) -> None:
        self.members_total = 10_000 if quick else 100_000
        self.deployment = deployment = Garnet(
            config=GarnetConfig(
                fanout_enabled=True, publish_location_stream=False
            ),
            seed=seed,
        )
        self.payloads = Payloads(seed, "fanout")
        tree = deployment.fanout.tree
        pattern = SubscriptionPattern(kind="journey")
        self.members = [
            _CheckedMember(self.payloads) if index % 1000 == 0 else _Member()
            for index in range(self.members_total)
        ]
        began = time.perf_counter()
        for index, member in enumerate(self.members):
            callback = member
            if inject_drop and index == 1000:
                callback = DropOne(member, 3)
            tree.attach(f"m{index}", pattern, callback)
        self.attach_s = time.perf_counter() - began
        self.publisher = deployment.connect("pub")
        self.published = 0
        self.latencies: list[int] = []
        self.step()  # advertises the stream and primes the route caches
        self.latencies.clear()

    def step(self) -> None:
        began = now_ns()
        self.publisher.publish(0, self.payloads.make(began), kind="journey")
        self.deployment.run_until_idle()
        # A publish is delivered when the last member has it.
        self.latencies.append(now_ns() - began)
        self.published += 1

    def count(self) -> int:
        return self.published * self.members_total

    def finish(self) -> dict:
        owed = self.published * self.members_total
        delivered = sum(member.count for member in self.members)
        violations = sum(
            abs(member.count - self.published) for member in self.members
        )
        violations += sum(
            member.check.out_of_order + member.check.corrupt
            for member in self.members[::1000]
        )
        return {"owed": owed, "delivered": delivered, "failed": violations}


RIGS = {
    "sim_journey": JourneyRig,
    "sim_cluster": ClusterRig,
    "sim_fanout": FanoutRig,
}


def _mp_rate(seed: int) -> float:
    """sim_cluster's traffic with two worker processes (info metric).

    ``run_multiprocess`` forks its workers per call and does not carry
    their state back, so the stepping loop cannot run on it. Instead the
    deployment is set up in-process, every publisher queues 1,000
    publishes, and one call carries them all.
    """
    rig = ClusterRig(seed, quick=False, inject_drop=False)
    for index, publisher in enumerate(rig.publishers):
        make = rig.payloads[index].make
        for _ in range(1000):
            publisher.publish(0, make(now_ns()), kind=f"k{index}")
    rig.published += 1000 * len(rig.publishers)
    before = rig.count()
    began = time.perf_counter()
    run_multiprocess(rig.deployment, 5.0, workers=2)
    wall = time.perf_counter() - began
    delivered = rig.count() - before
    done = rig.finish()
    return 0.0 if done["failed"] else delivered / wall


def _counters(deployment) -> dict:
    """The registry's counters plus ``summary()``, which alone carries
    the wireless medium's ``radio.*`` counts."""
    counters = dict(deployment.metrics_snapshot()["counters"])
    counters.update(deployment.summary())
    return counters


def run(name: str, seed: int, seconds: float, options: dict) -> dict:
    """Run one in-sim workload; returns its raw measurements.

    One deployment, built last of several timed builds, measured over
    WINDOWS consecutive windows. (A fresh build per window, as the live
    workloads boot a fresh broker per window, was tried: interleaved
    with this it spread more on ``sim_cluster``, 21% against 14%, and
    the same on ``sim_fanout``.)
    """
    quick = options["quick"]
    tracer = options.get("tracer")
    inject_drop = options["inject_drop"]
    build = RIGS[name]
    # Millisecond builds need more samples for a steady median.
    builds = 2 if quick else (3 if name == "sim_fanout" else 15)
    setups = []
    rss_before = self_peak_rss_mb()
    rig = None
    if tracer is not None:
        tracer.enabled = False
        for owner, method, span, with_id in SPANS:
            tracer.patch(owner, method, span, with_id)
    try:
        for _ in range(builds):
            rig = None
            gc.collect()
            began = time.perf_counter()
            rig = build(seed, quick, inject_drop)
            setups.append(time.perf_counter() - began)
        rig.step()  # warm-up: fill the route and RSSI caches untimed
        rig.latencies.clear()
        before = _counters(rig.deployment)
        events = rig.deployment.sim.events_processed
        if tracer is not None:
            tracer.enabled = True
        main = measure(rig.step, rig.count, seconds, 2 if quick else WINDOWS)
        if tracer is not None:
            tracer.enabled = False
        main["events"] = rig.deployment.sim.events_processed - events
        after = _counters(rig.deployment)
        latency = latency_summary(rig.latencies)
        done = rig.finish()
    finally:
        if tracer is not None:
            tracer.restore()
    raw = {
        "setup_s": summarise(setups),
        "main": main,
        "latency": latency,
        "owed": done["owed"],
        "delivered": done["delivered"],
        "attempted": done["owed"],
        "failed": done["failed"],
        "peak_rss_mb": self_peak_rss_mb(),
        "counters": {
            key: value - before.get(key, 0.0) for key, value in after.items()
        },
        "subscriptions": rig.deployment.dispatcher.subscription_count(),
        "trace": tracer.snapshot() if tracer is not None else None,
    }
    if name == "sim_fanout":
        raw["fanout"] = {
            "attach_us_per_session": rig.attach_s / rig.members_total * 1e6,
            "relays": rig.deployment.fanout.relay_count(),
            "members": rig.members_total,
            # Peak-RSS growth over the builds: one rig's footprint plus
            # whatever the allocator could not reuse between builds.
            "bytes_per_session": (raw["peak_rss_mb"] - rss_before)
            * 1024
            * 1024
            / rig.members_total,
        }
    if name == "sim_cluster" and options["traced"] and len(options["cpus"]) >= 2:
        raw["mp_delivered_per_s_w2"] = _mp_rate(seed)
    return raw
