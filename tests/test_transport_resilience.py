"""Resilient live sessions: resume tokens, reconnect, reaping, repair.

Drives a real :class:`LiveBroker` (asyncio loop on a daemon thread, the
``test_transport_live`` harness) with :class:`LiveSession` clients whose
``reconnect=`` policy is enabled, and kills their control connections
out from under them to exercise the park → resume / re-HELLO paths, the
store-backed replay exactness guarantee, lease-driven dead-peer reaping
and the satellite fixes (callback isolation, wrapped socket errors,
advertise bookkeeping, bad-datagram counting).
"""

import asyncio
import socket
import threading
import time

import pytest

import repro.transport.broker as broker_module
from repro.core.config import GarnetConfig
from repro.core.middleware import Garnet
from repro.errors import TransportError
from repro.transport import LiveBroker, connect
from repro.transport.framing import (
    HELLO,
    NACK,
    RESPONSE_FLAG,
    RESUME,
    SUBSCRIBE,
    ControlFrameAssembler,
    encode_control_frame,
)
from repro.util.backoff import BackoffPolicy

#: Fast, deterministic re-dial schedule for tests (no jitter).
FAST_RECONNECT = BackoffPolicy(
    base=0.1, multiplier=1.5, max_delay=0.4, jitter=0.0, max_attempts=40
)


def poll_until(predicate, timeout=8.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class BrokerHarness:
    """Run a LiveBroker on its own event loop in a daemon thread."""

    def __init__(self, deployment=None, **broker_kwargs):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="broker-loop", daemon=True
        )
        self.thread.start()
        self.broker = LiveBroker(deployment=deployment, **broker_kwargs)
        asyncio.run_coroutine_threadsafe(
            self.broker.start(), self.loop
        ).result(10)

    @property
    def url(self):
        return self.broker.url

    def counters(self):
        return self.broker.deployment.metrics_snapshot()["counters"]

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self.broker.stop(), self.loop
        ).result(10)
        # The deployment ends with its broker: release its segment files.
        if self.broker.deployment.store is not None:
            self.broker.deployment.store.close()
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


def resilient_deployment(**overrides):
    config = dict(
        publish_location_stream=False,
        store_enabled=True,
        transport_resume_grace=5.0,
    )
    config.update(overrides)
    return Garnet(config=GarnetConfig(**config))


@pytest.fixture
def harness():
    h = BrokerHarness(deployment=resilient_deployment())
    yield h
    h.stop()


def drop_connection(session):
    """Kill the session's TCP control connection without a CLOSE.

    The broker sees a bare EOF (no CLOSE frame) and parks the session;
    the client's next control exchange or keepalive PING discovers the
    loss and starts reconnecting.
    """
    session._tcp.shutdown(socket.SHUT_RDWR)


class TestResumeTokens:
    def test_hello_carries_resume_token_when_grace_enabled(self, harness):
        with connect(harness.url, "alice") as session:
            assert session.resume_token
            assert len(session.resume_token) == 32

    def test_no_resume_token_without_grace(self):
        h = BrokerHarness()  # default deployment: resume off
        try:
            with connect(h.url, "alice") as session:
                assert session.resume_token is None
        finally:
            h.stop()

    def test_resume_with_unknown_token_is_refused(self, harness):
        host, port = harness.broker.host, harness.broker.control_port
        with socket.create_connection((host, port), timeout=5.0) as tcp:
            tcp.settimeout(5.0)
            tcp.sendall(
                encode_control_frame(
                    RESUME, {"token": "f" * 32, "udp_port": 1, "cursors": {}}
                )
            )
            assembler = ControlFrameAssembler()
            frames = []
            while not frames:
                frames.extend(assembler.feed(tcp.recv(65536)))
        [(frame_type, body)] = frames
        assert frame_type == RESUME | RESPONSE_FLAG
        assert body["ok"] is False
        assert "token" in body["error"]


    @pytest.mark.parametrize(
        "fields",
        [{"udp_port": 70000}, {"udp_port": 5000, "keepalive": "abc"}, {}],
    )
    def test_malformed_resume_leaves_the_live_connection_alone(
        self, harness, fields
    ):
        # A RESUME for a session that is still attached takes over from
        # the stale connection — but only once its own body parses.
        with connect(harness.url, "alice") as session:
            host, port = harness.broker.host, harness.broker.control_port
            with socket.create_connection((host, port), timeout=5.0) as tcp:
                tcp.settimeout(5.0)
                tcp.sendall(
                    encode_control_frame(
                        RESUME, {"token": session.resume_token, **fields}
                    )
                )
                assembler = ControlFrameAssembler()
                frames = []
                while not frames:
                    frames.extend(assembler.feed(tcp.recv(65536)))
            [(_, body)] = frames
            assert body["ok"] is False
            assert session.ping() >= 0.0
        assert harness.counters().get("transport.sessions_resumed", 0) == 0


class TestReconnectAndResume:
    def test_session_resumes_after_connection_loss(self, harness):
        states = []
        with connect(
            harness.url, "pub"
        ) as publisher, connect(
            harness.url,
            "sub",
            reconnect=FAST_RECONNECT,
            keepalive=0.1,
        ) as subscriber:
            subscriber.on_state(states.append)
            received = []
            subscriber.on_data(
                lambda arrival: received.append(arrival.message.sequence)
            )
            subscriber.subscribe(kind="temp")
            for index in range(5):
                publisher.publish(0, bytes([index]), kind="temp")
            assert poll_until(lambda: len(received) == 5)

            drop_connection(subscriber)
            # The broker parks the session within its grace window...
            assert poll_until(
                lambda: harness.counters().get("transport.sessions_parked")
                == 1
            )
            # ...while the outage misses three publishes.
            for index in range(5, 8):
                publisher.publish(0, bytes([index]), kind="temp")
            # Poll the resume counter, not the state flag: the client
            # may not have noticed the loss yet when this line runs.
            assert poll_until(lambda: subscriber.stats.resumes == 1)
            assert poll_until(lambda: subscriber.state == "connected")
            assert poll_until(lambda: len(received) == 8)
            assert sorted(received) == list(range(8))
            assert subscriber.stats.duplicates_dropped == 0
            assert "reconnecting" in states and "connected" in states
        counters = harness.counters()
        assert counters.get("transport.sessions_resumed") == 1

    def test_resume_replays_only_missed_records(self, harness):
        """The acceptance gate: replay serves exactly the missed span."""
        # The first redial waits half a second: the three publishes below
        # must reach the broker while the session is still parked, or
        # they arrive live and nothing is left to replay.
        unhurried = BackoffPolicy(
            base=0.5, multiplier=1.5, max_delay=1.0, jitter=0.0, max_attempts=40
        )
        with connect(
            harness.url, "pub"
        ) as publisher, connect(
            harness.url,
            "sub",
            reconnect=unhurried,
            keepalive=0.1,
        ) as subscriber:
            received = []
            subscriber.on_data(
                lambda arrival: received.append(arrival.message.sequence)
            )
            subscriber.subscribe(kind="temp")
            for index in range(5):
                publisher.publish(0, bytes([index]), kind="temp")
            assert poll_until(lambda: len(received) == 5)

            drop_connection(subscriber)
            assert poll_until(
                lambda: harness.counters().get("transport.sessions_parked")
                == 1
            )
            for index in range(5, 8):
                publisher.publish(0, bytes([index]), kind="temp")
            # Wait for the resume itself: the session still reads
            # "connected" until its keepalive notices the drop, and the
            # replayed datagrams can land before the RESUME response
            # that carries their count.
            assert poll_until(lambda: subscriber.stats.resumes == 1)
            assert poll_until(lambda: len(received) == 8)
            # Exactly the three missed records were replayed — not the
            # whole retained stream, and nothing twice.
            assert subscriber.stats.replayed == 3
            assert subscriber.stats.duplicates_dropped == 0
            assert received == list(range(8))

    def test_resume_survives_park_buffer_overflow_via_store(
        self, monkeypatch
    ):
        """When parked deliveries overflow, the store still fills the gap."""
        monkeypatch.setattr(broker_module, "_PARK_CAPACITY", 2)
        h = BrokerHarness(deployment=resilient_deployment())
        try:
            with connect(
                h.url, "pub"
            ) as publisher, connect(
                h.url,
                "sub",
                reconnect=FAST_RECONNECT,
                keepalive=0.1,
            ) as subscriber:
                received = []
                subscriber.on_data(
                    lambda arrival: received.append(arrival.message.sequence)
                )
                subscriber.subscribe(kind="temp")
                publisher.publish(0, b"\x00", kind="temp")
                assert poll_until(lambda: len(received) == 1)

                drop_connection(subscriber)
                assert poll_until(
                    lambda: h.counters().get("transport.sessions_parked")
                    == 1
                )
                for index in range(1, 11):  # 10 missed, park holds 2
                    publisher.publish(0, bytes([index]), kind="temp")
                assert poll_until(lambda: len(received) == 11)
                assert received == list(range(11))
                assert subscriber.stats.duplicates_dropped == 0
            counters = h.counters()
            assert counters.get("transport.parked_deliveries_dropped") >= 1
        finally:
            h.stop()

    def test_publisher_buffers_and_flushes_through_outage(self, harness):
        with connect(
            harness.url, "sub"
        ) as subscriber, connect(
            harness.url,
            "pub",
            reconnect=FAST_RECONNECT,
            keepalive=0.1,
        ) as publisher:
            received = []
            subscriber.on_data(
                lambda arrival: received.append(arrival.message.sequence)
            )
            subscriber.subscribe(kind="temp")
            for index in range(3):
                publisher.publish(0, bytes([index]), kind="temp")
            assert poll_until(lambda: len(received) == 3)

            drop_connection(publisher)
            assert poll_until(lambda: publisher.state == "reconnecting")
            for index in range(3, 6):
                publisher.publish(0, bytes([index]), kind="temp")
            assert publisher.stats.buffered_publishes == 3
            assert poll_until(lambda: publisher.state == "connected")
            # Same publisher id after resume, buffered publishes flushed,
            # and the subscriber sees every record exactly once.
            assert poll_until(lambda: len(set(received)) == 6)
            assert sorted(set(received)) == list(range(6))

    def test_rehello_fallback_without_resume_support(self):
        """Against a broker with resume off, reconnect falls back to a
        fresh HELLO and re-installs the subscription ledger."""
        h = BrokerHarness()  # resume off: no token issued
        try:
            with connect(
                h.url, "pub"
            ) as publisher, connect(
                h.url,
                "sub",
                reconnect=FAST_RECONNECT,
                keepalive=0.1,
            ) as subscriber:
                received = []
                subscriber.on_data(
                    lambda arrival: received.append(arrival.message.sequence)
                )
                subscriber.subscribe(kind="temp")
                publisher.publish(0, b"\x00", kind="temp")
                assert poll_until(lambda: len(received) == 1)

                drop_connection(subscriber)
                # Loss is only noticed at the next keepalive PING, so
                # poll for the re-HELLO itself, not the state flag.
                assert poll_until(lambda: subscriber.stats.rehellos == 1)
                assert poll_until(lambda: subscriber.state == "connected")
                assert subscriber.stats.resumes == 0
                # The re-subscribed ledger still routes deliveries.
                publisher.publish(0, b"\x01", kind="temp")
                assert poll_until(lambda: 1 in received)
        finally:
            h.stop()

    def test_expired_token_falls_back_to_rehello(self):
        h = BrokerHarness(
            deployment=resilient_deployment(transport_resume_grace=0.15)
        )
        # A deliberately slow first dial: the grace window must lapse
        # (and the parked session be reaped) before the RESUME lands.
        slow_dial = BackoffPolicy(
            base=0.4, multiplier=1.0, jitter=0.0, max_attempts=20
        )
        try:
            with connect(
                h.url,
                "sub",
                reconnect=slow_dial,
                keepalive=0.1,
            ) as subscriber:
                subscriber.subscribe(kind="temp")
                drop_connection(subscriber)
                # Wait out the grace window so the parked session is
                # reaped and the token refused.
                assert poll_until(
                    lambda: h.counters().get("transport.sessions_reaped")
                    == 1
                )
                assert poll_until(lambda: subscriber.stats.rehellos == 1)
                assert poll_until(lambda: subscriber.state == "connected")
        finally:
            h.stop()

    def test_reconnect_gives_up_when_broker_stays_dead(self):
        h = BrokerHarness(deployment=resilient_deployment())
        policy = BackoffPolicy(
            base=0.02, multiplier=1.0, jitter=0.0, max_attempts=3
        )
        states = []
        session = connect(
            h.url, "sub", reconnect=policy, keepalive=0.05
        )
        try:
            session.on_state(states.append)
            h.stop()  # broker gone for good
            # close() publishes the state, joins its threads, and only
            # then tells the observers: wait on what they were told.
            assert poll_until(lambda: "closed" in states, timeout=10)
            assert session.state == "closed"
            assert session.closed
            with pytest.raises(TransportError):
                session.ping()
        finally:
            session.close()


class TestDeadPeerReaping:
    def test_vanished_client_is_reaped_by_lease_expiry(self):
        """A client that dies without CLOSE frees its subscriptions and
        publisher id once its lease lapses (no resume grace here)."""
        deployment = Garnet(
            config=GarnetConfig(
                publish_location_stream=False, broker_lease_ttl=0.4
            )
        )
        h = BrokerHarness(deployment=deployment)
        try:
            host, port = h.broker.host, h.broker.control_port
            tcp = socket.create_connection((host, port), timeout=5.0)
            tcp.settimeout(5.0)
            tcp.sendall(
                encode_control_frame(
                    HELLO, {"name": "ghost", "udp_port": 1}
                )
                + encode_control_frame(SUBSCRIBE, {"kind": "temp"})
            )
            assembler = ControlFrameAssembler()
            frames = []
            while len(frames) < 2:
                frames.extend(assembler.feed(tcp.recv(65536)))
            publisher_id = frames[0][1]["publisher_id"]
            assert publisher_id in deployment._publisher_ids
            assert deployment.broker.stats.subscriptions == 1

            # The client now goes silent — no CLOSE, no PING, socket
            # still open. Its lease lapses on the loop's wall clock and
            # the housekeeping loop reaps it.
            assert poll_until(
                lambda: deployment.broker.stats.leases_expired >= 1,
                timeout=10,
            )
            assert poll_until(
                lambda: h.counters().get("transport.sessions_reaped") == 1,
                timeout=10,
            )
            assert publisher_id not in deployment._publisher_ids
            # Nothing of it is left, the data-plane peer entry included
            # (the reap path used to forget that one table).
            assert h.broker._udp_peers == {}
            assert h.broker._states == {}
            # The reaped client's TCP connection was aborted too.
            tcp.settimeout(2.0)
            assert tcp.recv(65536) == b""
            tcp.close()
        finally:
            h.stop()

    def test_busy_clients_outlive_a_racing_virtual_clock(self):
        """Each pump moves the virtual clock a bus hop, so a flood runs it
        many TTLs ahead of real time; clients whose traffic and keepalives
        are plainly arriving must keep their leases regardless."""
        deployment = Garnet(
            config=GarnetConfig(
                publish_location_stream=False, broker_lease_ttl=2.0
            )
        )
        h = BrokerHarness(deployment=deployment)
        try:
            with connect(h.url, "pub") as publisher, connect(
                h.url, "sub", keepalive=0.25
            ) as subscriber:
                received = []
                subscriber.on_data(
                    lambda arrival: received.append(arrival.message.sequence)
                )
                subscriber.subscribe(kind="temp")
                total = 20_000
                for index in range(total):
                    publisher.publish(0, b"x" * 32, kind="temp")
                    # UDP has no flow control: stay inside the buffers.
                    while (
                        index - len(received) > 2_000
                        and not deployment.broker.stats.leases_expired
                    ):
                        time.sleep(0.001)
                assert poll_until(
                    lambda: len(received) == total
                    or deployment.broker.stats.leases_expired,
                    timeout=30,
                )
                assert deployment.broker.stats.leases_expired == 0
                assert received == list(range(total))

                # A paced stream gets a pump per datagram and drifts the
                # same way more slowly; stand in for it with one jump of
                # ten TTLs, whatever this host's speed.
                async def jump_and_reap():
                    deployment.sim.run(until=deployment.sim.now + 20.0)
                    return deployment.broker.reap_expired_leases()

                assert asyncio.run_coroutine_threadsafe(
                    jump_and_reap(), h.loop
                ).result(10) == 0
                publisher.publish(0, b"after", kind="temp")
                assert poll_until(lambda: len(received) == total + 1)
            assert not h.counters().get("transport.sessions_reaped")
        finally:
            h.stop()

    def test_clean_close_releases_publisher_id(self, harness):
        deployment = harness.broker.deployment
        session = connect(harness.url, "neat")
        publisher_id = session.publisher_id
        assert publisher_id in deployment._publisher_ids
        session.close()
        assert poll_until(
            lambda: publisher_id not in deployment._publisher_ids
        )


class TestGapRepair:
    def test_nack_serves_stored_records_and_reports_missing(self, harness):
        with connect(
            harness.url, "pub"
        ) as publisher, connect(harness.url, "sub") as subscriber:
            subscriber.subscribe(kind="temp")
            for index in range(4):
                publisher.publish(0, bytes([index]), kind="temp")
            assert poll_until(lambda: subscriber.deliveries == 4)
            stream = [publisher.publisher_id, 0]
            response = subscriber._request(
                NACK, {"stream_id": stream, "sequences": [1, 2, 9999]}
            )
            repaired = [
                subscriber._codec.decode(bytes.fromhex(frame)).sequence
                for frame in response["records"]
            ]
            assert sorted(repaired) == [1, 2]
            assert response["missing"] == [9999]
        assert harness.counters().get("transport.nack_records") == 2

    def test_late_arrival_counts_as_repaired_gap(self, harness):
        """Client-side ledger: a gap that later fills in is 'repaired'."""
        from repro.core.message import DataMessage, MessageCodec
        from repro.core.streamid import StreamId

        with connect(harness.url, "sub") as subscriber:
            subscriber.subscribe(sensor_id=7)
            codec = MessageCodec()
            udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                address = (harness.broker.host, harness.broker.data_port)
                for sequence in (0, 1, 3):  # skip 2: a visible gap
                    udp.sendto(
                        codec.encode(
                            DataMessage(
                                stream_id=StreamId(7, 0),
                                sequence=sequence,
                                payload=b"x",
                            )
                        ),
                        address,
                    )
                assert poll_until(lambda: subscriber.deliveries == 3)
                assert subscriber.stats.gaps_detected == 1
                udp.sendto(
                    codec.encode(
                        DataMessage(
                            stream_id=StreamId(7, 0),
                            sequence=2,
                            payload=b"x",
                        )
                    ),
                    address,
                )
                assert poll_until(
                    lambda: subscriber.stats.gaps_repaired == 1
                )
                assert subscriber.deliveries == 4
            finally:
                udp.close()


class TestSatelliteFixes:
    def test_raising_callback_is_isolated_and_counted(self, harness):
        with connect(
            harness.url, "pub"
        ) as publisher, connect(harness.url, "sub") as subscriber:
            received = []

            def bad_callback(arrival):
                raise RuntimeError("consumer bug")

            subscriber.on_data(bad_callback)
            subscriber.on_data(
                lambda arrival: received.append(arrival.message.sequence)
            )
            subscriber.subscribe(kind="temp")
            publisher.publish(0, b"\x00", kind="temp")
            publisher.publish(0, b"\x01", kind="temp")
            # Both deliveries reach the good callback: the reader thread
            # survived the raising one, which was counted instead.
            assert poll_until(lambda: received == [0, 1])
            assert subscriber.stats.callback_errors == 2

    def test_socket_errors_wrap_as_transport_error_naming_frame(self):
        h = BrokerHarness()
        session = connect(h.url, "solo")
        h.stop()
        try:
            with pytest.raises(TransportError) as excinfo:
                session.ping()
            assert "PING" in str(excinfo.value)
        finally:
            session.close()

    def test_bad_client_datagram_is_counted_not_fatal(self, harness):
        with connect(
            harness.url, "pub"
        ) as publisher, connect(harness.url, "sub") as subscriber:
            received = []
            subscriber.on_data(
                lambda arrival: received.append(arrival.message.sequence)
            )
            subscriber.subscribe(kind="temp")
            junk = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                junk.sendto(
                    b"junk-not-a-codec-frame",
                    ("127.0.0.1", subscriber._udp_port),
                )
                assert poll_until(
                    lambda: subscriber.stats.bad_datagrams == 1
                )
            finally:
                junk.close()
            # The reader thread survived the junk.
            publisher.publish(0, b"\x00", kind="temp")
            assert poll_until(lambda: received == [0])

    def test_kindless_publish_does_not_mark_stream_advertised(self, harness):
        with connect(harness.url, "pub") as publisher:
            publisher.publish(0, b"\x00")  # no kind: nothing to advertise
            assert publisher.discover(kind="temp") == []
            # The later publish WITH a kind must still send ADVERTISE —
            # the kindless publish must not have claimed the index.
            publisher.publish(0, b"\x01", kind="temp")
            streams = publisher.discover(kind="temp")
            assert [s["kind"] for s in streams] == ["temp"]

    def test_reconnect_off_keeps_fail_fast_behaviour(self):
        h = BrokerHarness()
        session = connect(h.url, "classic")
        assert session._housekeeper is None  # no threads, no surprises
        assert session.state == "connected"
        h.stop()
        try:
            with pytest.raises(TransportError):
                session.ping()
            # No reconnection machinery kicked in: the session never
            # left "connected" on its own and never re-dialled.
            assert session.stats.reconnects == 0
            assert session.state == "connected"
        finally:
            session.close()


class TestBrokerRestartResume:
    def test_resume_token_survives_broker_restart(self, tmp_path):
        """sessions.json + the file-backed store let a RESUME land on a
        freshly restarted broker process: same publisher id, replayed
        missed records, re-installed subscriptions."""
        store_dir = tmp_path / "store"
        sessions_path = tmp_path / "sessions.json"

        def make_deployment():
            return Garnet(
                config=GarnetConfig(
                    publish_location_stream=False,
                    store_enabled=True,
                    store_dir=str(store_dir),
                    transport_resume_grace=10.0,
                )
            )

        h = BrokerHarness(
            deployment=make_deployment(), sessions_path=sessions_path
        )
        control_port = h.broker.control_port
        data_port = h.broker.data_port
        received = []
        subscriber = connect(
            h.url,
            "sub",
            reconnect=BackoffPolicy(
                base=0.1,
                multiplier=1.5,
                max_delay=0.5,
                jitter=0.0,
                max_attempts=60,
            ),
            keepalive=0.1,
        )
        publisher = connect(h.url, "pub")
        try:
            subscriber.on_data(
                lambda arrival: received.append(arrival.message.sequence)
            )
            subscriber.subscribe(kind="temp")
            old_publisher_id = publisher.publisher_id
            for index in range(3):
                publisher.publish(0, bytes([index]), kind="temp")
            assert poll_until(lambda: len(received) == 3)

            h.stop()  # broker gone; sessions.json persisted
            assert sessions_path.exists()

            # Restart "the broker process": a fresh deployment over the
            # same store dir and session table, on the same ports.
            h2 = BrokerHarness(
                deployment=make_deployment(),
                control_port=control_port,
                data_port=data_port,
                sessions_path=sessions_path,
            )
            try:
                assert poll_until(
                    lambda: subscriber.stats.resumes == 1, timeout=15
                )
                assert poll_until(lambda: subscriber.state == "connected")
                # The revived session replays what the store retained
                # beyond the pre-restart cursor (nothing new yet) and
                # keeps serving: a new publisher session re-adopts its
                # persisted id and fresh publishes flow end to end.
                publisher2 = connect(h2.url, "pub2")
                try:
                    publisher2.publish(0, b"\x03", kind="temp")
                    assert poll_until(lambda: len(received) >= 4)
                    assert subscriber.stats.duplicates_dropped == 0
                    assert old_publisher_id != publisher2.publisher_id
                finally:
                    publisher2.close()
            finally:
                subscriber.close()
                publisher.close()
                h2.stop()
        except BaseException:
            subscriber.close()
            publisher.close()
            raise
