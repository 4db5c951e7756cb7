"""The unreliable broadcast wireless medium."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.control import (
    ControlCodec,
    FrameKind,
    StreamUpdateCommand,
    StreamUpdateRequest,
    peek_frame_kind,
)
from repro.core.message import DataMessage, MessageCodec
from repro.core.streamid import StreamId
from repro.errors import ConfigurationError
from repro.simnet.geometry import Point
from repro.simnet.kernel import Simulator
from repro.simnet.wireless import (
    LossModel,
    MediumStats,
    RadioFrame,
    WirelessMedium,
    log_distance_rssi,
)


class Listener:
    def __init__(self, position: Point):
        self.position = position
        self.frames: list[RadioFrame] = []

    def on_radio_receive(self, frame: RadioFrame) -> None:
        self.frames.append(frame)


@pytest.fixture
def medium(sim):
    return WirelessMedium(sim, loss_model=None)


class TestDelivery:
    def test_in_range_listener_receives(self, sim, medium):
        listener = Listener(Point(50, 0))
        medium.attach(listener, 100.0)
        medium.broadcast(Point(0, 0), b"hello", tx_range=100.0)
        sim.run()
        assert len(listener.frames) == 1
        assert listener.frames[0].payload == b"hello"

    def test_out_of_range_listener_does_not(self, sim, medium):
        listener = Listener(Point(150, 0))
        medium.attach(listener, 100.0)
        medium.broadcast(Point(0, 0), b"hello", tx_range=100.0)
        sim.run()
        assert listener.frames == []
        assert medium.stats.out_of_range == 1

    def test_reach_is_min_of_tx_and_rx_range(self, sim, medium):
        # Listener sensitivity 40 < distance 50: no delivery even though
        # the transmitter could reach 100.
        deaf = Listener(Point(50, 0))
        medium.attach(deaf, 40.0)
        medium.broadcast(Point(0, 0), b"x", tx_range=100.0)
        sim.run()
        assert deaf.frames == []

    def test_overlapping_listeners_all_receive_duplicates(self, sim, medium):
        listeners = [Listener(Point(10 * i, 0)) for i in range(4)]
        for listener in listeners:
            medium.attach(listener, 500.0)
        scheduled = medium.broadcast(Point(0, 0), b"dup", tx_range=500.0)
        sim.run()
        assert scheduled == 4
        assert all(len(listener.frames) == 1 for listener in listeners)

    def test_exclude_skips_transmitter(self, sim, medium):
        node = Listener(Point(0, 0))
        other = Listener(Point(10, 0))
        medium.attach(node, 100.0)
        medium.attach(other, 100.0)
        medium.broadcast(Point(0, 0), b"self", tx_range=100.0, exclude=node)
        sim.run()
        assert node.frames == []
        assert len(other.frames) == 1

    def test_channel_isolation(self, sim, medium):
        on_zero = Listener(Point(10, 0))
        on_one = Listener(Point(10, 0))
        medium.attach(on_zero, 100.0, channel=0)
        medium.attach(on_one, 100.0, channel=1)
        medium.broadcast(Point(0, 0), b"ch1", tx_range=100.0, channel=1)
        sim.run()
        assert on_zero.frames == []
        assert len(on_one.frames) == 1

    def test_detach_stops_delivery(self, sim, medium):
        listener = Listener(Point(10, 0))
        medium.attach(listener, 100.0)
        medium.detach(listener)
        medium.broadcast(Point(0, 0), b"x", tx_range=100.0)
        sim.run()
        assert listener.frames == []

    def test_detach_in_flight_still_delivers(self, sim, medium):
        # The delivery decision is made at broadcast time: a frame
        # already on the air reaches a listener that has since detached.
        listener = Listener(Point(10, 0))
        medium.attach(listener, 100.0)
        medium.broadcast(Point(0, 0), b"x", tx_range=100.0)
        medium.detach(listener)
        sim.run()
        assert len(listener.frames) == 1

    def test_one_transmission_is_one_kernel_event(self, sim, medium):
        listeners = [Listener(Point(10.0 * i, 0)) for i in range(1, 9)]
        for listener in listeners:
            medium.attach(listener, 500.0)
        assert medium.broadcast(Point(0, 0), b"x", tx_range=500.0) == 8
        sim.run()
        assert sim.events_processed == 1
        assert all(len(listener.frames) == 1 for listener in listeners)
        assert medium.stats.deliveries == 8

    def test_copies_arrive_nearest_first_attach_order_on_ties(
        self, sim, medium
    ):
        heard: list[str] = []

        def listener(name: str, position: Point) -> Listener:
            node = Listener(position)
            node.on_radio_receive = lambda frame: heard.append(name)
            return node

        # Attach order far, tie_a, near, tie_b; tie_a and tie_b are
        # equidistant, so their frames carry the same received_at.
        for name, position in (
            ("far", Point(300, 0)),
            ("tie_a", Point(0, 200)),
            ("near", Point(100, 0)),
            ("tie_b", Point(200, 0)),
        ):
            medium.attach(listener(name, position), 500.0)
        medium.broadcast(Point(0, 0), b"x", tx_range=500.0)
        sim.run()
        assert heard == ["near", "tie_a", "tie_b", "far"]

    def test_position_queried_at_delivery_time(self, sim, medium):
        # A listener that moves after the broadcast is scheduled still
        # receives (delivery decision is made at broadcast time), but the
        # medium reads .position at broadcast, which is the contract.
        listener = Listener(Point(10, 0))
        medium.attach(listener, 100.0)
        medium.broadcast(Point(0, 0), b"x", tx_range=100.0)
        listener.position = Point(9999, 0)
        sim.run()
        assert len(listener.frames) == 1


class TestTiming:
    def test_larger_payload_arrives_later(self, sim):
        medium = WirelessMedium(sim, bitrate=1000.0, loss_model=None)
        listener = Listener(Point(1, 0))
        medium.attach(listener, 10.0)
        medium.broadcast(Point(0, 0), b"x" * 100, tx_range=10.0)
        medium.broadcast(Point(0, 0), b"y", tx_range=10.0)
        sim.run()
        small = next(f for f in listener.frames if f.payload == b"y")
        large = next(f for f in listener.frames if len(f.payload) == 100)
        assert small.received_at < large.received_at

    def test_per_hop_latency_floor(self, sim):
        medium = WirelessMedium(
            sim, bitrate=1e12, loss_model=None, per_hop_latency=0.5
        )
        listener = Listener(Point(1, 0))
        medium.attach(listener, 10.0)
        medium.broadcast(Point(0, 0), b"x", tx_range=10.0)
        sim.run()
        assert listener.frames[0].received_at >= 0.5

    def test_frame_timestamps(self, sim, medium):
        listener = Listener(Point(10, 0))
        medium.attach(listener, 100.0)
        sim.schedule(2.0, medium.broadcast, Point(0, 0), b"x", 100.0)
        sim.run()
        frame = listener.frames[0]
        assert frame.sent_at == 2.0
        assert frame.received_at > frame.sent_at


class TestLoss:
    def test_lossless_inside_good_zone_with_zero_base(self, sim):
        medium = WirelessMedium(
            sim, loss_model=LossModel(base=0.0, edge=1.0, good_fraction=0.7)
        )
        listener = Listener(Point(10, 0))
        medium.attach(listener, 100.0)
        for _ in range(50):
            medium.broadcast(Point(0, 0), b"x", tx_range=100.0)
        sim.run()
        assert len(listener.frames) == 50

    def test_edge_of_range_is_lossy(self, sim):
        medium = WirelessMedium(
            sim, loss_model=LossModel(base=0.0, edge=1.0, good_fraction=0.5)
        )
        listener = Listener(Point(99.9, 0))
        medium.attach(listener, 100.0)
        for _ in range(100):
            medium.broadcast(Point(0, 0), b"x", tx_range=100.0)
        sim.run()
        # Loss probability ~ edge value at the boundary.
        assert len(listener.frames) < 20
        assert medium.stats.losses > 80

    def test_loss_probability_monotone_in_distance(self):
        model = LossModel(base=0.01, edge=0.9, good_fraction=0.5)
        probabilities = [
            model.loss_probability(d, 100.0) for d in (0, 40, 60, 80, 99)
        ]
        assert probabilities == sorted(probabilities)
        assert model.loss_probability(150.0, 100.0) == 1.0

    def test_invalid_loss_model(self):
        with pytest.raises(ConfigurationError):
            LossModel(base=1.5)
        with pytest.raises(ConfigurationError):
            LossModel(good_fraction=1.0)


class TestStatsAndHooks:
    def test_stats_accumulate(self, sim, medium):
        listener = Listener(Point(10, 0))
        medium.attach(listener, 100.0)
        medium.broadcast(Point(0, 0), b"abc", tx_range=100.0)
        sim.run()
        assert medium.stats.transmissions == 1
        assert medium.stats.deliveries == 1
        assert medium.stats.bytes_sent == 3
        assert medium.stats.bytes_delivered == 3

    def test_snooper_sees_everything(self, sim, medium):
        seen = []
        medium.add_snooper(lambda payload, origin: seen.append(payload))
        medium.broadcast(Point(0, 0), b"snooped", tx_range=1.0)
        assert seen == [b"snooped"]

    def test_rssi_decreases_with_distance(self, sim, medium):
        near = Listener(Point(5, 0))
        far = Listener(Point(80, 0))
        medium.attach(near, 200.0)
        medium.attach(far, 200.0)
        medium.broadcast(Point(0, 0), b"x", tx_range=200.0)
        sim.run()
        assert near.frames[0].rssi > far.frames[0].rssi

    def test_invalid_parameters(self, sim, medium):
        with pytest.raises(ConfigurationError):
            WirelessMedium(sim, bitrate=0.0)
        with pytest.raises(ConfigurationError):
            medium.attach(Listener(Point(0, 0)), 0.0)
        with pytest.raises(ConfigurationError):
            medium.broadcast(Point(0, 0), b"", tx_range=0.0)


def test_log_distance_rssi_monotone():
    values = [log_distance_rssi(d) for d in (1, 10, 100, 1000)]
    assert values == sorted(values, reverse=True)


class TestVectorized:
    """Dense discs: rings of static listeners that all hear one frame.

    (Named for the array-math broadcast path these cases were written
    against; they hold for any implementation of the medium.)
    """

    def _ring(self, medium, count=20, radius=50.0, rx_range=500.0):
        import math as _math

        listeners = []
        for index in range(count):
            angle = 2 * _math.pi * index / count
            listener = Listener(
                Point(radius * _math.cos(angle), radius * _math.sin(angle))
            )
            medium.attach(listener, rx_range, static=True)
            listeners.append(listener)
        return listeners

    def test_all_in_range_listeners_receive(self, sim):
        medium = WirelessMedium(sim, loss_model=None)
        listeners = self._ring(medium)
        scheduled = medium.broadcast(Point(0, 0), b"vec", tx_range=500.0)
        sim.run()
        assert scheduled == len(listeners)
        assert all(len(listener.frames) == 1 for listener in listeners)
        assert medium.stats.deliveries == len(listeners)
        assert medium.stats.bytes_delivered == 3 * len(listeners)

    def test_frames_carry_exact_per_link_arrival(self, sim):
        import math as _math

        medium = WirelessMedium(sim, bitrate=1000.0, loss_model=None)
        listeners = self._ring(medium, radius=90.0)
        far = Listener(Point(400.0, 0.0))
        medium.attach(far, 500.0, static=True)
        medium.broadcast(Point(0, 0), b"t", tx_range=500.0)
        sim.run()
        near_frame = listeners[0].frames[0]
        far_frame = far.frames[0]
        # Same serialisation + per-hop latency; only propagation differs.
        assert far_frame.received_at > near_frame.received_at
        expected = 0.001 + 8.0 / 1000.0 + 400.0 / 3.0e8
        assert _math.isclose(far_frame.received_at, expected, rel_tol=1e-12)

    def test_exclude_and_channel_masking(self, sim):
        medium = WirelessMedium(sim, loss_model=None)
        listeners = self._ring(medium)
        other_channel = Listener(Point(5.0, 0.0))
        medium.attach(other_channel, 500.0, channel=1, static=True)
        scheduled = medium.broadcast(
            Point(0, 0), b"x", tx_range=500.0, exclude=listeners[3]
        )
        sim.run()
        assert scheduled == len(listeners) - 1
        assert listeners[3].frames == []
        assert other_channel.frames == []

    def test_mobile_tier_is_included(self, sim):
        medium = WirelessMedium(sim, loss_model=None)
        listeners = self._ring(medium)
        roamer = Listener(Point(25.0, 25.0))
        medium.attach(roamer, 500.0)  # mobile tier
        medium.broadcast(Point(0, 0), b"m", tx_range=500.0)
        sim.run()
        assert len(roamer.frames) == 1
        assert all(len(listener.frames) == 1 for listener in listeners)

    def test_out_of_range_accounting_matches_scalar(self, sim):
        medium = WirelessMedium(sim, loss_model=None)
        self._ring(medium, radius=50.0)
        self._ring(medium, radius=400.0)
        medium.broadcast(Point(0, 0), b"x", tx_range=100.0)
        sim.run()
        assert medium.stats.out_of_range == 20
        assert medium.stats.deliveries == 20

    def test_reach_is_min_of_tx_and_rx_range(self, sim):
        medium = WirelessMedium(sim, loss_model=None)
        self._ring(medium, radius=50.0, rx_range=500.0)
        deaf = Listener(Point(50.0, 1.0))
        medium.attach(deaf, 10.0, static=True)  # sensitivity < distance
        medium.broadcast(Point(0, 0), b"x", tx_range=500.0)
        sim.run()
        assert deaf.frames == []

    def test_loss_draws_accounted(self, sim):
        medium = WirelessMedium(
            sim, loss_model=LossModel(base=0.5, edge=0.5, good_fraction=0.5)
        )
        listeners = self._ring(medium, count=64)
        for _ in range(20):
            medium.broadcast(Point(0, 0), b"l", tx_range=500.0)
        sim.run()
        stats = medium.stats
        assert stats.losses > 0
        assert stats.deliveries > 0
        assert stats.deliveries + stats.losses == 20 * len(listeners)

    def test_extra_loss_without_loss_model(self, sim):
        medium = WirelessMedium(sim, loss_model=None)
        listeners = self._ring(medium, count=64)
        medium.set_extra_loss(0.5)
        for _ in range(10):
            medium.broadcast(Point(0, 0), b"b", tx_range=500.0)
        sim.run()
        stats = medium.stats
        assert stats.losses > 0
        assert stats.burst_losses == stats.losses
        assert stats.deliveries + stats.losses == 10 * len(listeners)

    def test_detach_between_broadcasts(self, sim):
        medium = WirelessMedium(sim, loss_model=None)
        listeners = self._ring(medium)
        medium.broadcast(Point(0, 0), b"a", tx_range=500.0)
        medium.detach(listeners[0])
        scheduled = medium.broadcast(Point(0, 0), b"b", tx_range=500.0)
        sim.run()
        assert scheduled == len(listeners) - 1
        assert len(listeners[0].frames) == 1  # only the first broadcast


class TestRssiCacheEviction:
    def test_eviction_is_counted_and_cache_stays_bounded(
        self, sim, monkeypatch
    ):
        import repro.simnet.wireless as wireless_module

        from repro.obs.registry import MetricsRegistry

        monkeypatch.setattr(wireless_module, "_RSSI_CACHE_MAX", 8)
        registry = MetricsRegistry()
        medium = WirelessMedium(sim, loss_model=None, metrics=registry)
        # Distinct distances per listener -> one memo entry each.
        for index in range(30):
            medium.attach(Listener(Point(1.0 + index * 0.37, 0.0)), 100.0)
        medium.broadcast(Point(0, 0), b"x", tx_range=100.0)
        sim.run()
        assert medium.stats.rssi_cache_evicted > 0
        assert len(medium._rssi_cache) <= 8
        assert (
            registry.counter("wireless.rssi_cache_evicted").value
            == medium.stats.rssi_cache_evicted
        )


class TestGridPruning:
    def test_static_tier_matches_exhaustive_scan(self):
        # Static listeners are pruned through the grid; mobile ones are
        # scanned exhaustively. Attaching the same field both ways must
        # give every listener the same frames and the medium the same
        # counters — pruning is exact and preserves the RNG draw order.
        from repro.simnet.kernel import Simulator

        def run(static: bool):
            sim = Simulator(seed=7)
            medium = WirelessMedium(sim, loss_model=LossModel())
            layout = random.Random(3)
            listeners = [
                Listener(
                    Point(layout.uniform(0, 1000), layout.uniform(0, 1000))
                )
                for _ in range(96)
            ]
            for listener in listeners:
                medium.attach(listener, 150.0, static=static)
            for tick in range(60):
                origin = Point(
                    layout.uniform(0, 1000), layout.uniform(0, 1000)
                )
                sim.schedule_at(
                    float(tick),
                    medium.broadcast,
                    origin,
                    f"t{tick}".encode(),
                    120.0,
                )
            sim.run()
            assert medium.indexed_listener_count == (96 if static else 0)
            return (
                [listener.frames for listener in listeners],
                dataclasses.asdict(medium.stats),
            )

        grid_frames, grid_stats = run(static=True)
        scan_frames, scan_stats = run(static=False)
        assert grid_frames == scan_frames
        assert grid_stats == scan_stats
        assert grid_stats["deliveries"] > 0 and grid_stats["losses"] > 0


class MovingListener:
    """A listener that (incorrectly) got attached static, then moved."""

    def __init__(self, position: Point):
        self.position = position
        self.frames: list[RadioFrame] = []

    def on_radio_receive(self, frame: RadioFrame) -> None:
        self.frames.append(frame)


class TestSpatialStaleness:
    def _build(self, sim, count: int = 24):
        medium = WirelessMedium(sim, loss_model=None)
        statics = []
        for index in range(count):
            listener = Listener(Point(20.0 * index + 10.0, 0.0))
            medium.attach(listener, 1000.0, static=True)
            statics.append(listener)
        return medium, statics

    def test_notify_moved_demotes_immediately(self, sim):
        medium, _ = self._build(sim)
        mover = MovingListener(Point(10.0, 10.0))
        medium.attach(mover, 1000.0, static=True)
        mover.position = Point(400.0, 0.0)
        assert medium.notify_moved(mover) == 1
        assert medium.stats.spatial_fallbacks == 1
        medium.broadcast(Point(400.0, 0.0), b"x", tx_range=30.0)
        sim.run()
        assert len(mover.frames) == 1  # heard at the *new* position

    def test_sweep_detects_silent_movers(self, sim):
        medium, statics = self._build(sim)
        mover = MovingListener(Point(10.0, 10.0))
        medium.attach(mover, 1000.0, static=True)
        mover.position = Point(5000.0, 0.0)  # silently out of the field
        # The rotating sweep re-validates 8 entries per broadcast, so a
        # full rotation of the 25-entry tier takes ceil(25/8) = 4
        # broadcasts at most.
        for _ in range(4):
            medium.broadcast(Point(0.0, 0.0), b"w", tx_range=1.0)
        assert medium.stats.spatial_fallbacks == 1
        medium.broadcast(Point(5000.0, 0.0), b"x", tx_range=30.0)
        sim.run()
        assert any(frame.payload == b"x" for frame in mover.frames)

    def test_mobility_trace_identical_with_index_on_and_off(
        self, monkeypatch
    ):
        from repro.simnet import wireless
        from repro.simnet.geometry import Rect
        from repro.simnet.kernel import Simulator
        from repro.simnet.mobility import RandomWaypoint

        def run(indexed: bool):
            if not indexed:
                # Raise the grid's size threshold out of reach: the
                # static tier is then scanned exhaustively (the
                # reference), staleness sweep and all.
                monkeypatch.setattr(
                    wireless, "_MIN_INDEXED_LISTENERS", 1 << 30
                )
            sim = Simulator(seed=11)
            medium = WirelessMedium(
                sim, loss_model=LossModel(base=0.1, edge=0.8)
            )
            statics = []
            for index in range(24):
                listener = Listener(
                    Point(50.0 * (index % 6) + 25.0, 50.0 * (index // 6) + 25.0)
                )
                medium.attach(listener, 400.0, static=True)
                statics.append(listener)
            # A roamer wrongly attached static: its cached position and
            # grid bin go stale as the waypoint trace advances.
            area = Rect(0.0, 0.0, 300.0, 300.0)
            walk = RandomWaypoint(
                area,
                sim.fork_rng(),
                speed_min=20.0,
                speed_max=40.0,
                pause=1.0,
                start=Point(10.0, 10.0),
            )
            roamer = MovingListener(Point(10.0, 10.0))
            medium.attach(roamer, 400.0, static=True)

            deliveries: list[tuple[float, int, bytes]] = []

            def record(owner_index):
                def on_receive(frame):
                    deliveries.append(
                        (frame.received_at, owner_index, frame.payload)
                    )

                return on_receive

            for index, listener in enumerate(statics):
                listener.on_radio_receive = record(index)
            roamer.on_radio_receive = record(-1)

            def step(tick: int) -> None:
                roamer.position = walk.position_at(sim.now)
                medium.broadcast(
                    Point(150.0, 150.0),
                    f"t{tick}".encode(),
                    tx_range=220.0,
                )

            for tick in range(40):
                sim.schedule_at(float(tick), step, tick)
            sim.run()
            return deliveries, medium.stats.spatial_fallbacks

        on_deliveries, on_fallbacks = run(True)
        off_deliveries, off_fallbacks = run(False)
        assert on_deliveries == off_deliveries
        assert on_fallbacks == off_fallbacks == 1
        # The roamer must actually be heard somewhere along the trace.
        assert any(owner == -1 for _, owner, _ in on_deliveries)


# ----------------------------------------------------------------------
# Oracle: listener interest against a medium that builds every copy
# ----------------------------------------------------------------------
#: How a sensor tags its data transmissions, and what a plain sensor
#: (one without a battery) declares it ignores.
DATA_TAG = FrameKind.DATA.value

_PAYLOADS = {
    "data": MessageCodec().encode(DataMessage(StreamId(5, 0), 9, b"reading")),
    "control": ControlCodec().encode(
        StreamUpdateRequest(
            request_id=3,
            target=StreamId(5, 0),
            command=StreamUpdateCommand.PING,
            params=b"",
            timestamp_us=0,
        )
    ),
    "empty": b"",
    "unknown": b"\xff\x00\x01",
}


class _KindListener:
    """A receiver or a sensor of one kind, logging what it acts on.

    Handed every copy, a plain sensor acts only on frames that are not
    data (it peeks and drops data); every other kind acts on all.
    """

    def __init__(self, name, kind, position, log):
        self.name, self.kind = name, kind
        self._position = position
        self._log = log

    @property
    def position(self):
        return self._position

    def reads(self, frame):
        return self.kind != "plain" or (
            peek_frame_kind(frame.payload) is not FrameKind.DATA
        )

    def on_radio_receive(self, frame):
        self._log.append((self.name, frame))


class _EveryCopyMedium:
    """The medium's contract without listener interest: a linear scan in
    attach order, one loss draw per in-range listener, one RadioFrame
    per surviving copy, all handed over in arrival order by one event
    at the latest arrival."""

    def __init__(self, sim, loss_model):
        self._sim = sim
        self._loss_model = loss_model
        self._rng = sim.fork_rng()
        self._listeners = []
        self.stats = MediumStats()

    def attach(self, listener, radio_range, channel):
        self._listeners.append((listener, radio_range, channel))

    def broadcast(self, origin, payload, tx_range, channel, exclude):
        stats, now = self.stats, self._sim.now
        stats.transmissions += 1
        stats.bytes_sent += len(payload)
        copies = []
        for listener, radio_range, listens_on in self._listeners:
            if listens_on != channel or listener is exclude:
                continue
            distance = origin.distance_to(listener.position)
            reach = min(tx_range, radio_range)
            if distance > reach:
                stats.out_of_range += 1
                continue
            loss = self._loss_model
            if loss is not None and (
                self._rng.random() < loss.loss_probability(distance, reach)
            ):
                stats.losses += 1
                continue
            delay = 0.001 + len(payload) * 8.0 / 250_000.0 + distance / 3.0e8
            frame = RadioFrame(
                payload, log_distance_rssi(distance), now, now + delay, channel
            )
            copies.append((listener, frame))
        if copies:
            copies.sort(key=lambda copy: copy[1].received_at)
            self._sim.schedule_at(
                copies[-1][1].received_at, self._deliver, copies
            )
        return len(copies)

    def _deliver(self, copies):
        self.stats.deliveries += len(copies)
        self.stats.bytes_delivered += sum(len(f.payload) for _, f in copies)
        for listener, frame in copies:
            listener.on_radio_receive(frame)


_COORD = st.integers(0, 1000).map(float)
_LISTENERS = st.lists(
    st.tuples(
        st.sampled_from(["receiver", "plain", "relay", "battery"]),
        st.booleans(),  # static
        _COORD,
        _COORD,
        st.sampled_from([150.0, 400.0, float("inf")]),
        st.sampled_from([0, 0, 1]),
    ),
    min_size=1,
    max_size=40,
)
_TRANSMISSIONS = st.lists(
    st.tuples(
        st.sampled_from(sorted(_PAYLOADS)),
        _COORD,
        _COORD,
        st.sampled_from([100.0, 300.0, 800.0, float("inf")]),
        st.sampled_from([0, 0, 1]),
        st.one_of(st.none(), st.integers(0, 39)),  # exclude
        st.sampled_from([0.0, 0.0, 0.25]),  # wait before sending
    ),
    min_size=1,
    max_size=12,
)


class TestListenerInterest:
    """A listener that ignores a transmission's tag still costs a loss
    draw and counts as a delivery, but gets no frame; everything a
    listener reads arrives exactly as if every copy had been built."""

    @staticmethod
    def _world(listeners, lossy, interest):
        sim = Simulator(seed=11)
        loss = LossModel() if lossy else None
        log = []
        if interest:
            medium = WirelessMedium(sim, loss_model=loss)
        else:
            medium = _EveryCopyMedium(sim, loss)
        members = []
        for index, (kind, static, x, y, radio_range, channel) in enumerate(
            listeners
        ):
            member = _KindListener(f"l{index}", kind, Point(x, y), log)
            members.append(member)
            if interest:
                medium.attach(
                    member,
                    radio_range,
                    channel,
                    static=static,
                    ignores=frozenset({DATA_TAG} if kind == "plain" else ()),
                )
            else:
                medium.attach(member, radio_range, channel)
        return sim, medium, members, log

    @settings(max_examples=150, deadline=None)
    @given(_LISTENERS, _TRANSMISSIONS, st.booleans())
    def test_readers_get_what_every_copy_would_give_them(
        self, listeners, transmissions, lossy
    ):
        real = self._world(listeners, lossy, interest=True)
        reference = self._world(listeners, lossy, interest=False)
        returned = ([], [])
        for side, (sim, medium, members, _) in enumerate((real, reference)):
            for kind, x, y, tx_range, channel, exclude, wait in transmissions:
                sim.run(until=sim.now + wait)
                returned[side].append(
                    medium.broadcast(
                        Point(x, y),
                        _PAYLOADS[kind],
                        tx_range,
                        channel,
                        members[exclude] if exclude is not None
                        and exclude < len(members) else None,
                        **({"tag": DATA_TAG} if side == 0 and kind == "data"
                           else {}),
                    )
                )
        assert returned[0] == returned[1]
        # The same hand-over events, at the same instants.
        pending = [
            [(h.time, h.seq) for h in sim.iter_pending()]
            for sim, *_ in (real, reference)
        ]
        assert sorted(pending[0]) == sorted(pending[1])
        for sim, *_ in (real, reference):
            sim.run()
        assert real[0].events_processed == reference[0].events_processed
        assert real[1].stats == reference[1].stats
        assert real[1]._rng.getstate() == reference[1]._rng.getstate()
        members = {member.name: member for member in reference[2]}
        read = [
            (name, frame)
            for name, frame in reference[3]
            if members[name].reads(frame)
        ]
        # The first divergence, not a diff of two long logs.
        assert len(real[3]) == len(read)
        assert next(
            (pair for pair in zip(real[3], read) if pair[0] != pair[1]), None
        ) is None

