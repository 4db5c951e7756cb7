"""Live transport: LiveBroker + LiveSession over real loopback sockets.

The in-process tests run the broker's asyncio loop on a daemon thread
and drive it with synchronous :class:`LiveSession` clients, which is
exactly the topology the ``garnet-broker`` CLI serves; the final test
exercises that CLI as a real subprocess.
"""

import asyncio
import contextlib
import errno
import gc
import random
import socket
import subprocess
import sys
import threading
import time
import warnings

import pytest

from repro.core.config import GarnetConfig
from repro.core.message import DataMessage, MessageCodec
from repro.core.middleware import Garnet
from repro.core.session import SessionLedger
from repro.core.streamid import StreamId
from repro.errors import ConfigurationError, TransportError
from repro.fanout.frames import (
    MAX_BATCH_DATAGRAM,
    decode_batch_datagram,
    encode_batch_datagrams,
)
from repro.transport import LiveBroker, connect
from repro.transport.broker import (
    _DRAIN_BUDGET,
    _SEND_QUEUE_CAPACITY,
    _DataPlaneSocket,
    _SessionState,
)
from repro.transport.cli import parse_announce
from repro.transport.framing import (
    ADVERTISE,
    CLOSE,
    HELLO,
    PING,
    QUERY,
    RESPONSE_FLAG,
    SUBSCRIBE,
    ControlFrameAssembler,
    encode_control_frame,
)


def poll_until(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class BrokerHarness:
    """Run a LiveBroker on its own event loop in a daemon thread."""

    def __init__(self, deployment=None):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="broker-loop", daemon=True
        )
        self.thread.start()
        self.broker = LiveBroker(deployment=deployment)
        asyncio.run_coroutine_threadsafe(
            self.broker.start(), self.loop
        ).result(10)

    @property
    def url(self):
        return self.broker.url

    def counter(self, name):
        counters = self.broker.deployment.metrics_snapshot()["counters"]
        return counters.get(name, 0)

    def frames_in(self):
        """Frames the data plane read: a bare datagram is one frame, a
        §7 batch the frames it carried."""
        return (
            self.counter("transport.datagrams_in")
            - self.counter("transport.batch_datagrams_in")
            + self.counter("transport.batched_frames_in")
        )

    @contextlib.contextmanager
    def paused(self):
        """Hold the broker's loop, so what is sent queues on its sockets."""
        entered, release = threading.Event(), threading.Event()

        def hold():
            entered.set()
            release.wait(10)

        self.loop.call_soon_threadsafe(hold)
        assert entered.wait(5)
        try:
            yield
        finally:
            release.set()

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self.broker.stop(), self.loop
        ).result(10)
        # The deployment ends with its broker: release its segment files.
        if self.broker.deployment.store is not None:
            self.broker.deployment.store.close()
        self.close_loop()

    def close_loop(self):
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


class RawClient:
    """A control connection and a UDP socket with no LiveSession between,
    for tests that compare the bytes on the wire."""

    def __init__(self, harness, name, **hello):
        host = harness.broker.host
        self.udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.udp.bind((host, 0))
        self.udp.settimeout(5.0)
        self.address = self.udp.getsockname()
        self.tcp = socket.create_connection(
            (host, harness.broker.control_port), timeout=5.0
        )
        self.assembler = ControlFrameAssembler()
        self.hello = self.request(
            HELLO, {"name": name, "udp_port": self.address[1], **hello}
        )
        self.data_address = (host, self.hello["data_port"])

    def request(self, frame_type, body):
        self.tcp.sendall(encode_control_frame(frame_type, body))
        frames = []
        while not frames:
            chunk = self.tcp.recv(65536)
            assert chunk, "broker hung up"
            frames.extend(self.assembler.feed(chunk))
        [(response_type, response)] = frames
        assert response_type == frame_type | RESPONSE_FLAG
        assert response["ok"], response
        return response

    def publish(self, datagram):
        self.udp.sendto(datagram, self.data_address)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.tcp.close()
        self.udp.close()


def data_frame(stream, sequence, payload=b"x", **fields):
    return MessageCodec().encode(
        DataMessage(
            stream_id=stream, sequence=sequence, payload=payload, **fields
        )
    )


@pytest.fixture
def harness():
    h = BrokerHarness()
    yield h
    h.stop()


@pytest.fixture
def store_harness():
    deployment = Garnet(
        config=GarnetConfig(
            publish_location_stream=False, store_enabled=True
        )
    )
    h = BrokerHarness(deployment=deployment)
    yield h
    h.stop()


class TestControlPlane:
    def test_hello_announces_identity_and_data_port(self, harness):
        with connect(harness.url, "alice") as session:
            assert session.name == "alice"
            assert session.publisher_id > 0
            assert not session.closed
        assert session.closed
        session.close()  # idempotent

    def test_every_control_frame_kind_roundtrips(self, harness):
        # One live exchange per frame type: HELLO (in connect),
        # ADVERTISE (first publish with a kind), SUBSCRIBE, DISCOVER,
        # UNSUBSCRIBE, PING, CLOSE (in close).
        with connect(harness.url, "pub") as publisher, connect(
            harness.url, "sub"
        ) as subscriber:
            subscription = subscriber.subscribe(kind="temp")
            stream_id = publisher.publish(0, b"\x01", kind="temp")
            assert stream_id == StreamId(publisher.publisher_id, 0)
            streams = subscriber.discover(kind="temp")
            assert [
                (s["sensor_id"], s["stream_index"], s["kind"], s["publisher"])
                for s in streams
            ] == [(publisher.publisher_id, 0, "temp", "pub")]
            assert streams[0]["derived"] is True
            subscriber.unsubscribe(subscription)
            assert subscriber.subscription_ids == ()
            assert subscriber.ping() >= 0.0

    def test_publish_reaches_subscriber_over_udp(self, harness):
        with connect(harness.url, "pub") as publisher, connect(
            harness.url, "sub"
        ) as subscriber:
            received = []
            subscriber.on_data(
                lambda arrival: received.append(
                    (arrival.message.sequence, arrival.message.payload)
                )
            )
            subscriber.subscribe(kind="temp")
            for index in range(5):
                publisher.publish(0, bytes([index]), kind="temp")
            assert poll_until(lambda: len(received) == 5)
            assert received == [(i, bytes([i])) for i in range(5)]
            assert subscriber.deliveries == 5
            assert publisher.published == 5

    def test_subscribe_by_exact_stream_id(self, harness):
        with connect(harness.url, "pub") as publisher, connect(
            harness.url, "sub"
        ) as subscriber:
            wanted = StreamId(publisher.publisher_id, 2)
            received = []
            subscriber.on_data(
                lambda arrival: received.append(arrival.message.stream_id)
            )
            subscriber.subscribe(stream_id=wanted)
            publisher.publish(2, b"yes", kind="match")
            publisher.publish(3, b"no", kind="other")
            assert poll_until(lambda: len(received) == 1)
            time.sleep(0.05)  # window for a spurious second delivery
            assert received == [wanted]

    def test_broker_refusal_surfaces_as_transport_error(self, harness):
        with connect(harness.url, "sub") as session:
            with pytest.raises(TransportError):
                session.unsubscribe(999)

    def test_refused_hello_closes_both_sockets(self, harness, monkeypatch):
        # ResourceWarning is an error here; an unclosed socket's
        # finalizer would raise it into the unraisable hook.
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with connect(harness.url, "same"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", ResourceWarning)
                with pytest.raises(TransportError, match="already connected"):
                    connect(harness.url, "same")
                gc.collect()
        assert [hook.exc_value for hook in unraisable] == []

    def test_failed_connect_closes_its_control_socket(self, harness, monkeypatch):
        # The control connection is dialled first; a datagram socket the
        # process cannot open must not leave it behind.
        real_socket = socket.socket

        def no_datagram_sockets(family=-1, type=-1, *args, **kwargs):
            if type == socket.SOCK_DGRAM:
                raise OSError(errno.EMFILE, "Too many open files")
            return real_socket(family, type, *args, **kwargs)

        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        monkeypatch.setattr(socket, "socket", no_datagram_sockets)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(TransportError, match="cannot reach"):
                connect(harness.url, "no-udp")
            gc.collect()
        assert [hook.exc_value for hook in unraisable] == []

    def test_closed_session_refuses_further_calls(self, harness):
        session = connect(harness.url, "gone")
        session.close()
        with pytest.raises(TransportError):
            session.ping()
        with pytest.raises(TransportError):
            session.publish(0, b"x")


class TestNeverIdleDeployments:
    """A kernel that never idles would spin inside the first pump."""

    @pytest.mark.parametrize(
        "fields",
        [{"cluster_enabled": True}, {"publish_location_stream": True}],
    )
    def test_start_refuses_a_deployment_with_a_periodic_task(self, fields):
        async def start():
            broker = LiveBroker(deployment=Garnet(config=GarnetConfig(**fields)))
            with pytest.raises(ConfigurationError, match="periodic task"):
                await broker.start()
            # Refused before anything was bound or installed.
            assert broker.control_port is None and broker.data_port is None
            assert broker.deployment.broker.lease_clock is None

        asyncio.run(asyncio.wait_for(start(), timeout=30))


class TestRawSocketEdges:
    """Drive the control port with a bare socket: protocol edge cases."""

    def _exchange(self, harness, wire, count=1, timeout=5.0):
        host, port = harness.broker.host, harness.broker.control_port
        with socket.create_connection((host, port), timeout=timeout) as tcp:
            tcp.settimeout(timeout)
            tcp.sendall(wire)
            assembler = ControlFrameAssembler()
            frames = []
            while len(frames) < count:
                chunk = tcp.recv(65536)
                if not chunk:
                    break
                frames.extend(assembler.feed(chunk))
        return frames

    def test_subscribe_before_hello_is_refused(self, harness):
        [(frame_type, body)] = self._exchange(
            harness, encode_control_frame(SUBSCRIBE, {"kind": "temp"})
        )
        assert frame_type == SUBSCRIBE | RESPONSE_FLAG
        assert body["ok"] is False
        assert "HELLO" in body["error"]

    def test_unknown_frame_type_is_refused_not_fatal(self, harness):
        wire = encode_control_frame(
            HELLO, {"name": "edge", "udp_port": 1}
        ) + encode_control_frame(0x7F, {})
        frames = self._exchange(harness, wire, count=2)
        assert [t for t, _ in frames] == [
            HELLO | RESPONSE_FLAG,
            0x7F | RESPONSE_FLAG,
        ]
        assert frames[0][1]["ok"] is True
        assert frames[1][1]["ok"] is False
        assert "unknown frame type" in frames[1][1]["error"]
        snapshot = harness.broker.deployment.metrics_snapshot()
        assert snapshot["counters"]["transport.unknown_control_frames"] == 1

    def test_split_frame_across_writes_reassembles(self, harness):
        wire = encode_control_frame(HELLO, {"name": "slow", "udp_port": 1})
        host, port = harness.broker.host, harness.broker.control_port
        with socket.create_connection((host, port), timeout=5.0) as tcp:
            tcp.settimeout(5.0)
            # Dribble the frame: length prefix alone, then type byte,
            # then the body in two chunks, with real flushes between.
            for part in (wire[:4], wire[4:5], wire[5:9], wire[9:]):
                tcp.sendall(part)
                time.sleep(0.02)
            assembler = ControlFrameAssembler()
            frames = []
            while not frames:
                frames.extend(assembler.feed(tcp.recv(65536)))
        [(frame_type, body)] = frames
        assert frame_type == HELLO | RESPONSE_FLAG
        assert body["ok"] is True

    def test_corrupt_stream_drops_the_connection(self, harness):
        host, port = harness.broker.host, harness.broker.control_port
        with socket.create_connection((host, port), timeout=5.0) as tcp:
            tcp.settimeout(5.0)
            tcp.sendall(b"\xff\xff\xff\xff")  # absurd length prefix
            assert tcp.recv(65536) == b""  # broker hung up

    def test_bad_datagram_is_counted_not_fatal(self, harness):
        udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            udp.sendto(
                b"junk-not-a-codec-frame",
                (harness.broker.host, harness.broker.data_port),
            )
            assert poll_until(
                lambda: harness.counter("transport.bad_datagrams") == 1
            )
        finally:
            udp.close()

    def test_refused_hello_leaves_no_inbox_behind(self, harness):
        deployment = harness.broker.deployment
        deployment.broker.crash()
        before = sorted(deployment.network.inbox_names())
        [(_, body)] = self._exchange(
            harness,
            encode_control_frame(HELLO, {"name": "early", "udp_port": 1}),
        )
        assert body["ok"] is False
        assert sorted(deployment.network.inbox_names()) == before
        deployment.broker.restart()
        with connect(harness.url, "early") as session:  # name not burnt
            assert session.ping() >= 0.0

    @pytest.mark.parametrize(
        "fields",
        [
            {"udp_port": 5000, "keepalive": "abc"},
            {"udp_port": 5000, "keepalive": -1.0},
            {"udp_port": "five thousand"},
            {"udp_port": 0},
            {"udp_port": 70000},
            {},
        ],
    )
    def test_malformed_hello_does_not_burn_the_name(self, harness, fields):
        # Every body field is checked before the server-side session
        # exists: a refused HELLO used to leave "alice" connected for
        # good, so the well-formed retry below was refused.
        deployment = harness.broker.deployment
        before = sorted(deployment.network.inbox_names())
        [(_, body)] = self._exchange(
            harness, encode_control_frame(HELLO, {"name": "alice", **fields})
        )
        assert body["ok"] is False
        assert deployment.sessions() == []
        assert sorted(deployment.network.inbox_names()) == before
        with connect(harness.url, "alice") as session:
            assert session.ping() >= 0.0

    def test_refused_subscribe_installs_nothing_and_costs_no_connection(
        self, harness
    ):
        # {"kind": 5} used to kill the serve task *after* the dispatcher
        # had recorded the subscription; the CLOSE that followed left the
        # client's other subscription routed to a dead endpoint, for the
        # next client of that name to inherit.
        wire = b"".join(
            encode_control_frame(frame_type, body)
            for frame_type, body in [
                (HELLO, {"name": "a", "udp_port": 1}),
                (SUBSCRIBE, {"kind": "temp.*"}),
                (SUBSCRIBE, {"kind": 5}),
                (SUBSCRIBE, {"stream_id": [1]}),
                (QUERY, {"stream_id": [1]}),
                (CLOSE, {}),
            ]
        )
        frames = self._exchange(harness, wire, count=6)
        assert [body["ok"] for _, body in frames] == [
            True, True, False, False, False, True,
        ]
        dispatcher = harness.broker.deployment.dispatcher
        assert dispatcher.subscription_count() == 0
        assert dispatcher._by_endpoint == {}
        with connect(harness.url, "a") as heir, connect(
            harness.url, "pub"
        ) as publisher:
            received = []
            heir.on_data(received.append)
            publisher.publish(0, b"x", kind="temp.1")
            assert poll_until(
                lambda: harness.counter("dispatch.arrivals") == 1
            )
            assert harness.counter("transport.datagrams_out") == 0
            assert received == []

    def test_hello_refused_by_the_id_pool_releases_the_name(
        self, harness, monkeypatch
    ):
        from repro.util.ids import IdExhaustedError

        deployment = harness.broker.deployment

        def exhausted():
            raise IdExhaustedError("no free publisher ids")

        monkeypatch.setattr(deployment, "allocate_publisher_id", exhausted)
        [(_, body)] = self._exchange(
            harness, encode_control_frame(HELLO, {"name": "late", "udp_port": 1})
        )
        assert body["ok"] is False
        assert deployment.sessions() == []
        monkeypatch.undo()
        with connect(harness.url, "late") as session:
            assert session.publisher_id > 0

    def test_unsendable_udp_port_cannot_starve_other_clients(self, harness):
        # sendto() raises OverflowError (not OSError) for a port above
        # 65535; accepted at HELLO, the first delivery to this client
        # aborted the kernel pump and nobody else was served.
        host, port = harness.broker.host, harness.broker.control_port
        with socket.create_connection((host, port), timeout=5.0) as rogue:
            rogue.settimeout(5.0)
            rogue.sendall(
                encode_control_frame(
                    HELLO, {"name": "rogue", "udp_port": 70000}
                )
                + encode_control_frame(SUBSCRIBE, {"kind": "temp"})
            )
            assembler = ControlFrameAssembler()
            frames = []
            while len(frames) < 2:
                frames.extend(assembler.feed(rogue.recv(65536)))
            assert [body["ok"] for _, body in frames] == [False, False]
            assert "udp_port" in frames[0][1]["error"]
            with connect(harness.url, "pub") as publisher, connect(
                harness.url, "sub"
            ) as subscriber:
                received = []
                subscriber.on_data(
                    lambda arrival: received.append(arrival.message.sequence)
                )
                subscriber.subscribe(kind="temp")
                for index in range(20):
                    publisher.publish(0, bytes([index]), kind="temp")
                assert poll_until(lambda: len(received) == 20)
                assert received == list(range(20))

    def test_ping_via_raw_socket_roundtrips_unix_time(self, harness):
        wire = encode_control_frame(
            HELLO, {"name": "rawping", "udp_port": 1}
        ) + encode_control_frame(PING, {})
        frames = self._exchange(harness, wire, count=2)
        assert frames[1][0] == PING | RESPONSE_FLAG
        assert frames[1][1]["ok"] is True
        # The arrival clock of a live broker, not its virtual one.
        assert abs(frames[1][1]["time"] - time.time()) < 60.0


class TestDataPlane:
    """The broker-owned UDP socket: drain, pump once, bounded sends."""

    def test_queued_burst_is_delivered_in_order_with_few_pumps(
        self, harness
    ):
        with connect(harness.url, "pub") as publisher, connect(
            harness.url, "sub"
        ) as subscriber:
            received = []
            subscriber.on_data(
                lambda arrival: received.append(arrival.message.sequence)
            )
            subscriber.subscribe(kind="temp")
            publisher.publish(0, b"first", kind="temp")  # ADVERTISE done
            assert poll_until(lambda: received == [0])
            pumps = harness.counter("transport.pumps")
            datagrams = harness.counter("transport.datagrams_in")
            frames = harness.frames_in()
            sim = harness.broker.deployment.sim
            events = sim.events_processed
            bus_messages = harness.counter("fixednet.messages")
            with harness.paused():
                for _ in range(500):
                    publisher.publish(0, b"x" * 32, kind="temp")
            assert poll_until(lambda: len(received) == 501)
            time.sleep(0.05)  # window for a spurious duplicate
            assert received == list(range(501))
            # The publisher batched its burst: 500 frames in fewer datagrams.
            assert harness.frames_in() - frames == 500
            assert harness.counter("transport.datagrams_in") - datagrams < 500
            # No control frame arrived meanwhile: every pump is a drain.
            drains = harness.counter("transport.pumps") - pumps
            assert 1 <= drains <= -(-500 // _DRAIN_BUDGET)
            # The data path is function calls: nothing rode the bus and
            # the pumps found the kernel idle.
            assert sim.events_processed == events
            assert harness.counter("fixednet.messages") == bus_messages

    def test_two_subscribers_share_one_send_loop_in_arrival_order(
        self, harness
    ):
        with connect(harness.url, "pub") as publisher, connect(
            harness.url, "sub-a"
        ) as first, connect(harness.url, "sub-b") as second:
            seen = {"a": [], "b": []}
            first.on_data(lambda arrival: seen["a"].append(arrival.message.sequence))
            second.on_data(lambda arrival: seen["b"].append(arrival.message.sequence))
            first.subscribe(kind="temp")
            second.subscribe(kind="temp")
            publisher.publish(0, b"first", kind="temp")
            assert poll_until(lambda: seen == {"a": [0], "b": [0]})
            sends = []
            plane = harness.broker._udp

            class Recording:
                def sendto(self, data, addr):
                    sends.append((data, addr[1]))
                    plane.sendto(data, addr)

                def __getattr__(self, name):
                    return getattr(plane, name)

            harness.broker._udp = Recording()
            pumps = harness.counter("transport.pumps")
            with harness.paused():
                for _ in range(20):
                    publisher.publish(0, b"x", kind="temp")
            expected = list(range(21))
            assert poll_until(lambda: seen == {"a": expected, "b": expected})
            assert harness.counter("transport.pumps") - pumps == 1
            # One sendto loop for the whole drain: each subscriber's share
            # of it as one §7 batch, its frames in arrival order.
            assert len(sends) == 2 == len({port for _, port in sends})
            codec = MessageCodec()
            for datagram, _ in sends:
                messages = map(codec.decode, decode_batch_datagram(datagram))
                assert [(m.sequence, m.payload) for m in messages] == [
                    (sequence, b"x") for sequence in range(1, 21)
                ]

    def test_raising_delivery_mid_drain_is_counted_and_the_rest_flushes(
        self, harness
    ):
        loop_errors = []
        harness.loop.call_soon_threadsafe(
            harness.loop.set_exception_handler,
            lambda loop, context: loop_errors.append(context),
        )

        def fail_on_three(arrival):
            if arrival.message.sequence == 3:
                raise RuntimeError("boom")

        async def add_raising_session():
            # Subscribed first, so its leg of every route runs first.
            session = harness.broker.deployment.connect(
                "raiser", heartbeat_period=None
            )
            session.deliver_inline()
            session.on_data(fail_on_three)
            session.subscribe(kind="temp")
            harness.broker._pump()

        asyncio.run_coroutine_threadsafe(
            add_raising_session(), harness.loop
        ).result(10)
        with connect(harness.url, "pub") as publisher, connect(
            harness.url, "sub"
        ) as subscriber:
            received = []
            subscriber.on_data(
                lambda arrival: received.append(
                    (arrival.message.sequence, arrival.message.payload)
                )
            )
            subscriber.subscribe(kind="temp")
            publisher.publish(0, b"first", kind="temp")
            assert poll_until(lambda: received == [(0, b"first")])
            pumps = harness.counter("transport.pumps")
            with harness.paused():
                for index in range(1, 7):
                    publisher.publish(0, bytes([index]), kind="temp")
            # The raiser loses sequence 3; this subscriber, routed after
            # it, still gets every frame of the drain.
            flushed = [(s, bytes([s])) for s in range(1, 7)]
            assert poll_until(lambda: received == [(0, b"first"), *flushed])
            assert harness.counter("transport.pumps") - pumps == 1
            assert harness.counter("transport.dispatch_errors") == 1
            # The warm-up frame, then the rest of the drain in one batch.
            assert harness.counter("transport.datagrams_out") == 2
            assert harness.counter("transport.batched_frames") == 6
            assert [str(c["exception"]) for c in loop_errors] == ["boom"]

    def test_batching_broker_packs_one_drain_into_one_datagram(
        self, harness
    ):
        with connect(harness.url, "pub") as publisher, connect(
            harness.url, "sub"
        ) as subscriber:
            received = []
            subscriber.on_data(
                lambda arrival: received.append(arrival.message.sequence)
            )
            subscriber.subscribe(kind="temp")
            publisher.publish(0, b"first", kind="temp")
            assert poll_until(lambda: received == [0])
            with harness.paused():
                for _ in range(10):
                    publisher.publish(0, b"x", kind="temp")
            assert poll_until(lambda: received == list(range(11)))
            assert subscriber.stats.batch_datagrams == 1
            assert subscriber.stats.batched_frames == 10
            assert harness.counter("transport.batch_datagrams") == 1
            # The bare warm-up frame plus the one batch datagram.
            assert harness.counter("transport.datagrams_out") == 2

    @pytest.mark.parametrize(
        "qos, queue_counter",
        [
            (
                {"qos_ingress_rate": 1000.0, "qos_ingress_burst": 8.0},
                "qos.ingress.enqueued",
            ),
            ({"qos_consumer_queue": 64}, "qos.delivery.forwarded"),
        ],
    )
    def test_qos_queues_stay_on_the_live_path(self, qos, queue_counter):
        h = BrokerHarness(
            deployment=Garnet(
                config=GarnetConfig(publish_location_stream=False, **qos)
            )
        )
        try:
            with connect(h.url, "pub") as publisher, connect(
                h.url, "sub"
            ) as subscriber:
                received = []
                subscriber.on_data(
                    lambda arrival: received.append(arrival.message.sequence)
                )
                subscriber.subscribe(kind="temp")
                publisher.publish(0, b"first", kind="temp")  # ADVERTISE done
                assert poll_until(lambda: received == [0])
                for burst in range(4):
                    with h.paused():
                        for _ in range(50):
                            publisher.publish(0, b"x", kind="temp")
                    assert poll_until(
                        lambda: len(received) == 1 + 50 * (burst + 1)
                    )
                time.sleep(0.05)  # window for a spurious duplicate
                assert received == list(range(201))
                # ...and went through the queue, not around it.
                assert h.counter(queue_counter) > 0
        finally:
            h.stop()

    def test_corrupt_datagram_mid_burst_spares_its_neighbours(
        self, harness
    ):
        data_address = (harness.broker.host, harness.broker.data_port)
        with connect(harness.url, "pub") as publisher, connect(
            harness.url, "sub"
        ) as subscriber, socket.socket(
            socket.AF_INET, socket.SOCK_DGRAM
        ) as stranger:
            received = []
            subscriber.on_data(
                lambda arrival: received.append(arrival.message.payload)
            )
            subscriber.subscribe(kind="temp")
            publisher.publish(0, b"first", kind="temp")
            assert poll_until(lambda: received == [b"first"])
            with harness.paused():
                for index in range(3):
                    publisher.publish(0, bytes([index]), kind="temp")
                stranger.sendto(b"junk-not-a-codec-frame", data_address)
                for index in range(3, 6):
                    publisher.publish(0, bytes([index]), kind="temp")
            assert poll_until(lambda: len(received) == 7)
            assert received[1:] == [bytes([index]) for index in range(6)]
            assert harness.counter("transport.bad_datagrams") == 1

    def test_control_plane_gets_a_turn_during_a_udp_flood(self, harness):
        host = harness.broker.host
        data_address = (host, harness.broker.data_port)
        flood = 2000
        with socket.create_connection(
            (host, harness.broker.control_port), timeout=5.0
        ) as tcp, socket.socket(
            socket.AF_INET, socket.SOCK_DGRAM
        ) as flooder:
            tcp.settimeout(5.0)
            assembler = ControlFrameAssembler()
            tcp.sendall(
                encode_control_frame(HELLO, {"name": "calm", "udp_port": 1})
            )
            frames = []
            while not frames:
                frames.extend(assembler.feed(tcp.recv(65536)))
            before = harness.counter("transport.datagrams_in")
            with harness.paused():
                for _ in range(flood):
                    flooder.sendto(b"junk-not-a-codec-frame", data_address)
                tcp.sendall(encode_control_frame(PING, {}))
            frames = []
            while not frames:
                frames.extend(assembler.feed(tcp.recv(65536)))
            at_pong = harness.counter("transport.datagrams_in") - before
            assert frames[0][0] == PING | RESPONSE_FLAG
            assert frames[0][1]["ok"] is True
            # The PONG overtook the flood: the drain budget handed the
            # loop back while datagrams were still queued on the socket.
            assert poll_until(
                lambda: harness.counter("transport.datagrams_in") - before
                > at_pong
            )

    def test_control_plane_gets_a_turn_during_a_batch_flood(self, harness):
        # The drain budget counts frames: one full batch is already past
        # it, so a flood of them still hands the loop back per datagram.
        with RawClient(harness, "calm") as calm:
            stream = StreamId(calm.hello["publisher_id"], 0)
            calm.request(ADVERTISE, {"stream_index": 0, "kind": "flood"})
            frames = [
                data_frame(stream, sequence % (1 << 16), b"x" * 16)
                for sequence in range(24_000)
            ]
            batches = encode_batch_datagrams(frames)[:-1]  # the full ones
            assert len(batches) >= 10
            assert all(len(batch) > MAX_BATCH_DATAGRAM - 30 for batch in batches)
            flood = sum(len(decode_batch_datagram(b)) for b in batches)
            before = harness.frames_in()
            with harness.paused():
                for batch in batches:
                    calm.publish(batch)
                calm.tcp.sendall(encode_control_frame(PING, {}))
            replies = []
            while not replies:
                replies.extend(calm.assembler.feed(calm.tcp.recv(65536)))
            at_pong = harness.frames_in() - before
            assert replies[0][0] == PING | RESPONSE_FLAG
            assert replies[0][1]["ok"] is True
            # The PONG overtook the flood, and the flood still arrived.
            assert at_pong < flood
            assert poll_until(lambda: harness.frames_in() - before == flood)
        assert harness.counter("transport.bad_datagrams") == 0

    def test_maximum_batch_sized_datagram_arrives_whole(self, harness):
        # 60,000 bytes is the §7 batch-datagram ceiling; anything short
        # of a full-size receive would truncate it and fail the CRC.
        payload = bytes(range(256)) * 234 + b"x" * 96
        assert len(payload) == 60_000
        with connect(harness.url, "pub") as publisher, connect(
            harness.url, "sub"
        ) as subscriber:
            received = []
            subscriber.on_data(
                lambda arrival: received.append(arrival.message.payload)
            )
            subscriber.subscribe(kind="bulk")
            publisher.publish(0, payload, kind="bulk")
            assert poll_until(lambda: len(received) == 1)
            assert received == [payload]
        assert harness.counter("transport.bad_datagrams") == 0

    def test_stop_during_a_flood_unhooks_the_socket_quietly(self):
        h = BrokerHarness()
        loop_errors = []
        h.loop.call_soon_threadsafe(
            h.loop.set_exception_handler,
            lambda loop, context: loop_errors.append(context),
        )
        data_address = (h.broker.host, h.broker.data_port)
        plane = h.broker._udp
        fileno = plane._sock.fileno()
        flooding = threading.Event()
        halt = threading.Event()

        def flood():
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as udp:
                while not halt.is_set():
                    udp.sendto(b"junk-not-a-codec-frame", data_address)
                    flooding.set()

        flooder = threading.Thread(target=flood, daemon=True)
        flooder.start()
        try:
            assert flooding.wait(5)
            assert poll_until(
                lambda: h.counter("transport.datagrams_in") > 0
            )
            asyncio.run_coroutine_threadsafe(
                h.broker.stop(), h.loop
            ).result(10)

            async def still_hooked():
                loop = asyncio.get_running_loop()
                return loop.remove_reader(fileno), loop.remove_writer(fileno)

            assert asyncio.run_coroutine_threadsafe(
                still_hooked(), h.loop
            ).result(10) == (False, False)
            seen = h.counter("transport.datagrams_in")
            time.sleep(0.05)
            assert h.counter("transport.datagrams_in") == seen
            plane.sendto(b"late", data_address)  # closed: a no-op
            assert plane.get_extra_info("sockname") is None
        finally:
            halt.set()
            flooder.join(timeout=5)
            h.close_loop()
        assert not flooder.is_alive()
        assert loop_errors == []

    def test_forwarded_and_stored_frames_are_the_publishers_datagram(
        self, tmp_path
    ):
        h = BrokerHarness(
            deployment=Garnet(
                config=GarnetConfig(
                    publish_location_stream=False,
                    store_enabled=True,
                    store_dir=str(tmp_path),
                )
            )
        )
        try:
            with RawClient(h, "pub") as pub, RawClient(h, "sub") as sub:
                stream = StreamId(pub.hello["publisher_id"], 0)
                sub.request(SUBSCRIBE, {"stream_id": list(stream)})
                sent = [
                    data_frame(stream, 0, b"bare"),
                    data_frame(stream, 1, b"", ack_request_id=9, fused=True),
                    data_frame(
                        stream, 2, bytes(range(256)), hop_count=2,
                        extensions=((7, b"tlv"), (8, b"")),
                    ),
                ]
                for datagram in sent:
                    pub.publish(datagram)
                assert [sub.udp.recv(65535) for _ in sent] == sent
                answer = sub.request(QUERY, {"stream_id": list(stream)})
                assert [
                    bytes.fromhex(record["frame"])
                    for record in answer["records"]
                ] == sent
                # Forwarded, not rebuilt: every delivery found its frame.
                assert h.counter("transport.encode_reuse") == len(sent)
        finally:
            h.stop()

    def test_a_drain_accounts_for_each_sender_once(self):
        h = BrokerHarness(
            deployment=Garnet(
                config=GarnetConfig(
                    publish_location_stream=False, broker_lease_ttl=30.0
                )
            )
        )
        broker = h.broker
        renewals = []
        renew = broker._maybe_renew_lease

        def counting(connection):
            renewals.append(connection.state.name)
            renew(connection)

        try:
            with RawClient(h, "pub-a") as first, RawClient(
                h, "pub-b"
            ) as second, RawClient(h, "sub") as sub, socket.socket(
                socket.AF_INET, socket.SOCK_DGRAM
            ) as stranger:
                streams = {
                    client: StreamId(client.hello["publisher_id"], 0)
                    for client in (first, second)
                }
                for stream in streams.values():
                    sub.request(SUBSCRIBE, {"stream_id": list(stream)})
                peers = broker._udp_peers
                broker._maybe_renew_lease = counting

                def drain(*bursts):
                    """Queue ``(client, frames)`` bursts, let ONE drain run."""
                    renewals.clear()
                    before = {
                        client: peers[client.address].last_activity
                        for client in (first, second)
                    }
                    pumps = h.counter("transport.pumps")
                    seen = h.counter("transport.datagrams_in")
                    total = 0
                    with h.paused():
                        for sender, frames in bursts:
                            for frame in frames:
                                sender.sendto(frame, first.data_address)
                            total += len(frames)
                    assert poll_until(
                        lambda: h.counter("transport.datagrams_in") - seen
                        == total
                    )
                    assert h.counter("transport.pumps") - pumps == 1
                    return {
                        client: peers[client.address].last_activity
                        > before[client]
                        for client in (first, second)
                    }

                # A full drain from one peer: one stamp, one renewal.
                burst = [
                    data_frame(streams[first], seq)
                    for seq in range(_DRAIN_BUDGET)
                ]
                stamped = drain((first.udp, burst))
                assert stamped == {first: True, second: False}
                assert renewals == ["pub-a"]
                for frame in burst:
                    assert sub.udp.recv(65535) == frame

                # Two peers interleaved in one drain: both, once each.
                bursts = []
                for seq in range(100, 104):
                    bursts.append(
                        (first.udp, [data_frame(streams[first], seq)])
                    )
                    bursts.append(
                        (second.udp, [data_frame(streams[second], seq)])
                    )
                stamped = drain(*bursts)
                assert stamped == {first: True, second: True}
                assert sorted(renewals) == ["pub-a", "pub-b"]
                for _ in range(8):
                    sub.udp.recv(65535)

                # No HELLO ever came from this address: nobody to stamp,
                # and the datagram still dispatches.
                frame = data_frame(streams[first], 200, b"from a stranger")
                stamped = drain((stranger, [frame]))
                assert stamped == {first: False, second: False}
                assert renewals == []
                assert sub.udp.recv(65535) == frame
        finally:
            h.stop()

    def test_closing_connection_leaves_a_reused_address_to_its_new_owner(
        self, harness
    ):
        # Two HELLOs announce one UDP port; the first connection's EOF
        # used to unmap the address the second had since taken over, and
        # the second's datagrams then stamped no activity.
        broker = harness.broker
        with RawClient(harness, "first") as first:
            with socket.create_connection(
                (broker.host, broker.control_port), timeout=5.0
            ) as tcp:
                tcp.sendall(
                    encode_control_frame(
                        HELLO, {"name": "second", "udp_port": first.address[1]}
                    )
                )
                assert tcp.recv(65536)
                first.tcp.close()
                assert poll_until(lambda: len(broker._connections) == 1)
                owner = broker._udp_peers[first.address]
                assert owner.state.name == "second"
                stamped = owner.last_activity
                first.publish(data_frame(StreamId(1, 0), 0))
                assert poll_until(lambda: owner.last_activity > stamped)
        assert poll_until(lambda: broker._udp_peers == {})

    def test_overlong_publish_is_refused_before_it_costs_a_sequence_number(
        self, harness
    ):
        # The codec builds a 65,535-byte payload; UDP cannot carry it.
        # It used to escape as a bare OSError with the number spent.
        with connect(harness.url, "pub", reconnect=True) as publisher, connect(
            harness.url, "sub"
        ) as subscriber:
            received = []
            subscriber.on_data(
                lambda arrival: received.append(
                    (arrival.message.sequence, len(arrival.message.payload))
                )
            )
            subscriber.subscribe(kind="bulk")
            with pytest.raises(TransportError, match="datagram"):
                publisher.publish(0, b"x" * 65535, kind="bulk")
            assert publisher.published == 0
            assert not publisher._resend_tail
            # The largest message that does fit one datagram goes out,
            # gap-free: it is sequence 0.
            largest = 65507 - len(data_frame(StreamId(1, 0), 0, b""))
            publisher.publish(0, b"y" * largest, kind="bulk")
            publisher.publish(0, b"z", kind="bulk")
            assert poll_until(lambda: received == [(0, largest), (1, 1)])
            assert subscriber.stats.gaps_detected == 0

    def test_datagrams_in_counts_what_the_codec_refuses_too(self, harness):
        with RawClient(harness, "pub") as pub:
            good = data_frame(StreamId(pub.hello["publisher_id"], 0), 0)
            with harness.paused():
                pub.publish(good)
                pub.publish(b"junk-not-a-codec-frame")
                pub.publish(good[:-1])
                pub.publish(b"")
            assert poll_until(
                lambda: harness.counter("transport.datagrams_in") == 4
            )
            assert harness.counter("transport.bad_datagrams") == 3
            assert harness.counter("dispatch.arrivals") == 1

    def test_frames_queued_when_the_socket_is_gone_are_counted_dropped(self):
        # The pump inside stop() runs after the socket is closed: what
        # the last drain queued cannot leave, and must not vanish either.
        broker = LiveBroker()
        state = _SessionState(
            "token", "a", broker._parked_backlog(), SessionLedger()
        )
        state.udp_address = ("127.0.0.1", 9)
        state.outbox += [b"one", b"two"]
        broker._outboxes[state.token] = state
        assert broker._udp is None
        broker._pump()
        counters = broker.deployment.metrics_snapshot()["counters"]
        assert broker._outboxes == {} and state.outbox == []
        assert counters.get("transport.datagrams_dropped", 0) == 2
        assert counters.get("transport.datagrams_out", 0) == 0

    def test_send_queue_evicts_oldest_and_counts(self):
        class FakeSocket:
            blocked = True
            closed = False

            def __init__(self):
                self.sent = []

            def fileno(self):
                return 99

            def sendto(self, data, addr):
                if self.blocked:
                    raise BlockingIOError
                self.sent.append(data)

            def close(self):
                self.closed = True

        class FakeLoop:
            def __init__(self):
                self.readers = {}
                self.writers = {}

            def add_reader(self, fd, callback):
                self.readers[fd] = callback

            def add_writer(self, fd, callback):
                self.writers[fd] = callback

            def remove_reader(self, fd):
                return self.readers.pop(fd, None) is not None

            def remove_writer(self, fd):
                return self.writers.pop(fd, None) is not None

        broker = LiveBroker()
        sock, loop = FakeSocket(), FakeLoop()
        plane = _DataPlaneSocket(broker, loop, sock)

        def dropped():
            counters = broker.deployment.metrics_snapshot()["counters"]
            return counters.get("transport.datagrams_dropped", 0)

        address = ("127.0.0.1", 9)
        for index in range(_SEND_QUEUE_CAPACITY + 3):
            plane.sendto(index.to_bytes(4, "big"), address)
        assert sock.sent == [] and dropped() == 3
        assert loop.writers[99] == plane._on_writable
        sock.blocked = False
        plane._on_writable()
        # The three oldest were evicted; the rest left in order.
        assert sock.sent == [
            index.to_bytes(4, "big")
            for index in range(3, _SEND_QUEUE_CAPACITY + 3)
        ]
        assert loop.writers == {}
        plane.sendto(b"direct", address)
        assert sock.sent[-1] == b"direct" and loop.writers == {}
        # Closing with datagrams queued unhooks both directions.
        sock.blocked = True
        plane.sendto(b"stuck", address)
        plane.close()
        assert sock.closed and loop.readers == {} and loop.writers == {}
        plane.sendto(b"late", address)
        assert dropped() == 3


class TestStoreOverTheWire:
    """QUERY frames and replay='history' subscriptions over sockets."""

    def test_query_returns_retained_history(self, store_harness):
        with connect(store_harness.url, "pub") as publisher, connect(
            store_harness.url, "reader"
        ) as reader:
            stream = None
            for index in range(4):
                stream = publisher.publish(0, bytes([index]), kind="temp")
            store = store_harness.broker.deployment.store
            assert poll_until(lambda: store.record_count(stream) == 4)
            arrivals = reader.query(stream)
            assert [a.message.payload for a in arrivals] == [
                bytes([i]) for i in range(4)
            ]
            # Time-range and limit narrowing happen broker-side.
            assert len(reader.query(stream, limit=2)) == 2
            latest = arrivals[-1].received_at
            tail = reader.query(stream, start=latest)
            assert tail[-1].message.sequence == 3
            assert all(a.received_at >= latest for a in tail)

    def test_arrival_stamps_survive_a_same_directory_restart(self, tmp_path):
        def boot():
            return BrokerHarness(
                deployment=Garnet(
                    config=GarnetConfig(
                        publish_location_stream=False,
                        store_enabled=True,
                        store_dir=str(tmp_path),
                    )
                )
            )

        def publish(h, batches):
            # The first client of a boot is handed the same publisher
            # id, so both boots write the same stream; a wait between
            # batches puts them in different drains.
            store = h.broker.deployment.store
            before = sum(store.record_count(s) for s in store.streams())
            with connect(h.url, "pub") as publisher:
                for batch in range(batches):
                    for index in range(5):
                        stream = publisher.publish(
                            0, bytes([batch * 5 + index]), kind="temp"
                        )
                    stored = before + 5 * (batch + 1)
                    assert poll_until(
                        lambda: store.record_count(stream) == stored
                    )
            return stream

        h = boot()
        try:
            stream = publish(h, 4)
            with connect(h.url, "reader") as reader:
                cut = reader.query(stream)[-1].received_at
        finally:
            h.stop()
            h.broker.deployment.store.close()
        assert abs(cut - time.time()) < 60.0  # Unix seconds
        h = boot()
        try:
            assert publish(h, 1) == stream
            with connect(h.url, "reader") as reader:
                everything = reader.query(stream)
                tail = reader.query(stream, start=cut)
        finally:
            h.stop()
            h.broker.deployment.store.close()
        stamps = [arrival.received_at for arrival in everything]
        assert len(stamps) == 25 and stamps == sorted(stamps)
        # Paging from the last stamp of the first boot: what shared
        # that stamp, then everything the second boot appended.
        assert [a.message.payload for a in tail] == [
            a.message.payload for a in everything if a.received_at >= cut
        ]
        assert [a.message.payload for a in tail][-5:] == [
            bytes([index]) for index in range(5)
        ]
        assert len(tail) < 25

    def test_query_without_store_is_refused(self, harness):
        with connect(harness.url, "reader") as reader:
            with pytest.raises(TransportError, match="store"):
                reader.query(StreamId(1, 0))

    def test_history_replay_catches_up_late_joiner(self, store_harness):
        with connect(store_harness.url, "pub") as publisher, connect(
            store_harness.url, "late"
        ) as late:
            stream = None
            for index in range(5):
                stream = publisher.publish(0, bytes([index]), kind="temp")
            store = store_harness.broker.deployment.store
            assert poll_until(lambda: store.record_count(stream) == 5)
            received = []
            late.on_data(
                lambda arrival: received.append(arrival.message.payload)
            )
            late.subscribe(stream_id=stream, replay="history")
            assert poll_until(lambda: len(received) == 5)
            # ...and the handover to live delivery is seamless.
            publisher.publish(0, b"live", kind="temp")
            assert poll_until(lambda: len(received) == 6)
            assert received == [bytes([i]) for i in range(5)] + [b"live"]

    def test_history_replay_without_store_is_refused(self, harness):
        with connect(harness.url, "late") as late:
            with pytest.raises(TransportError, match="store_enabled"):
                late.subscribe(kind="temp", replay="history")


class TestBrokerCli:
    def test_garnet_broker_serves_a_real_client(self, tmp_path):
        with subprocess.Popen(
            [sys.executable, "-m", "repro.transport.cli", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as process:  # closes both pipes on the way out
            try:
                announce = process.stdout.readline().strip()
                host, control_port, data_port = parse_announce(announce)
                assert data_port > 0
                url = f"garnet://{host}:{control_port}"
                with connect(url, "cli-pub") as publisher, connect(
                    url, "cli-sub"
                ) as subscriber:
                    received = []
                    subscriber.on_data(
                        lambda arrival: received.append(arrival.message.payload)
                    )
                    subscriber.subscribe(kind="hello")
                    publisher.publish(0, b"hello", kind="hello")
                    assert poll_until(lambda: received == [b"hello"])
            finally:
                process.terminate()
                try:
                    process.wait(timeout=10)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    process.kill()
                    process.wait(timeout=10)

    def test_parse_announce_rejects_other_lines(self):
        with pytest.raises(TransportError):
            parse_announce("Traceback (most recent call last):")

    def test_parse_announce_roundtrips_the_emitted_format(self):
        line = "garnet-broker listening control=127.0.0.1:7341 data=127.0.0.1:54012"
        assert parse_announce(line) == ("127.0.0.1", 7341, 54012)

    @pytest.mark.parametrize(
        "line",
        [
            "",
            "garnet-broker listening",
            "garnet-broker listening control=127.0.0.1:7341",
            "garnet-broker listening data=127.0.0.1:54012",
            "garnet-broker listening control=127.0.0.1 data=127.0.0.1:1",
            "garnet-broker listening control=:7341 data=127.0.0.1:1",
            "garnet-broker listening control=127.0.0.1:x data=127.0.0.1:1",
            "garnet-broker listening control=127.0.0.1:7341 data=garbage",
        ],
    )
    def test_parse_announce_raises_transport_error_on_garbled(self, line):
        with pytest.raises(TransportError):
            parse_announce(line)

    def test_parse_announce_survives_fuzzed_truncation(self):
        # Every prefix of a valid announce line either parses to the
        # full result (only when complete) or raises TransportError —
        # never KeyError/ValueError/IndexError from the guts.
        line = "garnet-broker listening control=10.0.0.9:7341 data=10.0.0.9:54012"
        rng = random.Random(0xE21)
        cuts = set(range(len(line))) | {
            rng.randrange(len(line)) for _ in range(64)
        }
        for cut in sorted(cuts):
            truncated = line[:cut]
            try:
                parsed = parse_announce(truncated)
            except TransportError:
                continue
            # A prefix cut can only shorten the final (data-port)
            # digits; everything before it must have parsed intact.
            assert parsed[:2] == ("10.0.0.9", 7341)
            assert str(parsed[2]) == "54012"[: len(str(parsed[2]))]
        # Garbled interior bytes must also fail cleanly.
        for _ in range(128):
            chars = list(line)
            for _ in range(rng.randrange(1, 4)):
                chars[rng.randrange(len(chars))] = chr(rng.randrange(32, 127))
            mutated = "".join(chars)
            try:
                parse_announce(mutated)
            except TransportError:
                pass
