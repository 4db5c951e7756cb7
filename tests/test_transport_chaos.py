"""Scripted-fault chaos tests for the live transport.

A :class:`ChaosProxy` sits between :class:`LiveSession` clients and a
real :class:`LiveBroker`; scripted :class:`~repro.faults.plan.FaultPlan`
windows (datagram loss, connection resets, broker crashes) then
exercise the resilience machinery end to end — NACK gap repair against
the store, reconnect-and-resume through the proxy, and connection
refusal while the broker is down.  The publisher talks to the broker
directly so faults hit only the consumer under test.
"""

import asyncio
import socket
import threading
import time

import pytest

from repro.core.config import GarnetConfig
from repro.core.middleware import Garnet
from repro.errors import ConfigurationError, TransportError
from repro.faults import (
    BrokerCrash,
    ConnectionReset,
    DropBurst,
    FaultPlan,
    LatencySpike,
    NetworkPartition,
)
from repro.transport import LiveBroker, connect
from repro.transport.chaos import ChaosProxy
from repro.transport.framing import (
    HELLO,
    RESPONSE_FLAG,
    ControlFrameAssembler,
    encode_control_frame,
)
from repro.util.backoff import BackoffPolicy

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


class ChaosHarness:
    """A LiveBroker plus a ChaosProxy in front of it, on one loop."""

    def __init__(self, deployment=None, events=(), seed=0, **proxy_kwargs):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="chaos-loop", daemon=True
        )
        self.thread.start()
        self.broker = LiveBroker(deployment=deployment)
        self._run(self.broker.start())
        self.proxy = ChaosProxy(
            self.broker.url,
            plan=FaultPlan(events=tuple(events)),
            seed=seed,
            **proxy_kwargs,
        )
        self._run(self.proxy.start())

    def _run(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(10)

    @property
    def url(self):
        """The proxied endpoint clients should dial."""
        return self.proxy.url

    def counters(self):
        return self.broker.deployment.metrics_snapshot()["counters"]

    def faults(self, name):
        """The proxy's ``faults.<name>`` counter."""
        return self.proxy.metrics.snapshot()["counters"][f"faults.{name}"]

    def stop(self):
        self._run(self.proxy.stop())
        self._run(self.broker.stop())
        # The deployment ends with its broker: release its segments.
        if self.broker.deployment.store is not None:
            self.broker.deployment.store.close()
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


def chaos_deployment(**overrides):
    config = dict(
        publish_location_stream=False,
        store_enabled=True,
        transport_resume_grace=5.0,
    )
    config.update(overrides)
    return Garnet(config=GarnetConfig(**config))


class TestEventValidation:
    def test_loss_rate_must_be_a_probability(self):
        with pytest.raises(ConfigurationError):
            DropBurst(at=0.0, duration=1.0, extra_loss=1.5)
        with pytest.raises(ConfigurationError):
            DropBurst(at=0.0, duration=1.0, extra_loss=0.0)

    def test_events_must_be_fault_events(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(events=("drop everything",))

    @pytest.mark.parametrize(
        "event",
        [
            LatencySpike(at=0.0, duration=1.0),
            NetworkPartition(at=0.0, duration=1.0, endpoints=("c.a",)),
            BrokerCrash(at=0.0, duration=1.0, broker="b1"),
        ],
        ids=["latency-spike", "partition", "named-broker"],
    )
    def test_a_plan_the_proxy_cannot_apply_is_refused(self, event):
        # At construction: before start() binds any socket.
        with pytest.raises(ConfigurationError):
            ChaosProxy(
                "garnet://127.0.0.1:1", plan=FaultPlan(events=(event,))
            )

    def test_url_requires_start(self):
        proxy = ChaosProxy("garnet://127.0.0.1:1")
        with pytest.raises(TransportError):
            proxy.url


class TestPassthrough:
    def test_clean_proxy_is_transparent(self):
        """With no events scheduled, both planes flow end to end
        through the proxy: control exchanges and UDP deliveries."""
        h = ChaosHarness(deployment=chaos_deployment())
        try:
            received = []
            with connect(h.url, "sub") as subscriber, connect(
                h.url, "pub"
            ) as publisher:
                subscriber.on_data(
                    lambda arrival: received.append(
                        (arrival.message.sequence, arrival.message.payload)
                    )
                )
                subscriber.subscribe(kind="temp")
                for index in range(5):
                    publisher.publish(0, bytes([index]), kind="temp")
                assert poll_until(lambda: len(received) == 5)
                assert received == [(index, bytes([index])) for index in range(5)]
                assert subscriber.ping() >= 0.0
                # Publishes and deliveries may share §7 batch datagrams:
                # count what each side sent or was sent, bare frames and
                # batches alike.
                stats = subscriber.stats
                delivered = (
                    stats.deliveries - stats.batched_frames
                    + stats.batch_datagrams
                )
                out = publisher.stats
                published = (
                    out.published - out.batched_frames_out
                    + out.batch_datagrams_out
                )
            assert h.proxy.stats.connections_proxied == 2
            assert h.proxy.stats.datagrams_forwarded == published + delivered
            assert h.proxy.stats.datagrams_dropped == 0
        finally:
            h.stop()

    def test_malformed_handshake_reaches_the_broker(self):
        """A HELLO the broker refuses gets the same refusal through the
        proxy as without it, not a torn connection."""
        h = ChaosHarness(deployment=chaos_deployment())
        request = encode_control_frame(
            HELLO, {"name": "bad", "udp_port": "abc"}
        )

        def exchange(url):
            host, port = url.removeprefix("garnet://").split(":")
            with socket.create_connection((host, int(port)), 5.0) as sock:
                sock.sendall(request)
                assembler = ControlFrameAssembler()
                while True:
                    chunk = sock.recv(65536)
                    assert chunk, "connection closed without a response"
                    frames = assembler.feed(chunk)
                    if frames:
                        return frames[0]

        try:
            direct = exchange(h.broker.url)
            assert direct == (
                HELLO | RESPONSE_FLAG,
                {
                    "ok": False,
                    "error": "HELLO 'udp_port' must be integer "
                    "(1..65535), got 'abc'",
                },
            )
            assert exchange(h.url) == direct
        finally:
            h.stop()


class TestDatagramLoss:
    def test_loss_created_gaps_are_repaired_from_the_store(self):
        """Sustained delivery-side loss: every dropped record comes
        back through NACK repair against the broker's store, and the
        dedupe window keeps the callback stream duplicate-free."""
        h = ChaosHarness(
            deployment=chaos_deployment(),
            events=[DropBurst(at=0.0, duration=60.0, extra_loss=0.3)],
            seed=7,
        )
        try:
            received = []
            subscriber = connect(
                h.url, "sub", reconnect=FAST_RECONNECT, keepalive=0.5
            )
            # The publisher dials the broker directly: chaos applies
            # only to the consumer's link.
            publisher = connect(h.broker.url, "pub")
            try:
                subscriber.on_data(
                    lambda arrival: received.append(
                        arrival.message.sequence
                    )
                )
                subscriber.subscribe(kind="temp")
                total = 30
                for index in range(total):
                    publisher.publish(0, bytes([index]), kind="temp")
                    time.sleep(0.002)
                # Tail losses leave no later delivery to reveal the
                # gap; keep publishing flush records until the whole
                # original run has landed (each flush is a fresh
                # sequence, so an undropped one exposes everything
                # before it).
                deadline = time.monotonic() + 20.0
                flush = total
                while (
                    len(set(received) & set(range(total))) < total
                    and time.monotonic() < deadline
                ):
                    publisher.publish(0, b"\xff", kind="temp")
                    flush += 1
                    time.sleep(0.1)
                assert set(range(total)) <= set(received)
                # Exactly-once at the callback: no sequence twice.
                assert len(received) == len(set(received))
                assert subscriber.stats.duplicates_dropped == 0
                assert subscriber.stats.gaps_detected > 0
                assert subscriber.stats.gaps_repaired > 0
                assert h.proxy.stats.datagrams_dropped > 0
                assert h.counters().get("transport.nack_records", 0) > 0
            finally:
                subscriber.close()
                publisher.close()
        finally:
            h.stop()


class TestConnectionReset:
    def test_reset_mid_stream_triggers_resume(self):
        """An injected TCP reset kills the control connection; the
        client reconnects through the proxy and resumes, and records
        published during the outage are replayed from the store."""
        h = ChaosHarness(
            deployment=chaos_deployment(),
            events=[ConnectionReset(at=0.6)],
        )
        try:
            received = []
            subscriber = connect(
                h.url, "sub", reconnect=FAST_RECONNECT, keepalive=0.1
            )
            publisher = connect(h.broker.url, "pub")
            try:
                subscriber.on_data(
                    lambda arrival: received.append(
                        arrival.message.sequence
                    )
                )
                subscriber.subscribe(kind="temp")
                publisher.publish(0, b"\x00", kind="temp")
                assert poll_until(lambda: len(received) == 1)

                assert poll_until(lambda: h.faults("connection_resets") >= 1)
                # The lever counts its resets just after the window opens,
                # on the loop's thread: wait for it as for the window.
                assert poll_until(lambda: h.proxy.stats.resets_injected >= 1)
                # Publish into the outage, then wait for the resumed
                # session to catch up duplicate-free.
                for index in range(1, 4):
                    publisher.publish(0, bytes([index]), kind="temp")
                assert poll_until(
                    lambda: subscriber.stats.reconnects >= 1
                )
                assert poll_until(
                    lambda: set(received) == set(range(4)), timeout=15
                )
                assert len(received) == len(set(received))
            finally:
                subscriber.close()
                publisher.close()
        finally:
            h.stop()


class TestBlackhole:
    def test_blackhole_refuses_new_connections(self):
        h = ChaosHarness(
            deployment=chaos_deployment(),
            events=[BrokerCrash(at=0.0, duration=30.0)],
        )
        try:
            assert poll_until(lambda: h.faults("broker_crashes") >= 1)
            with pytest.raises(TransportError):
                connect(h.url, "late", timeout=2.0)
            assert h.proxy.stats.connections_refused >= 1
        finally:
            h.stop()

    def test_blackhole_swallows_datagrams(self):
        """Inside the window datagrams vanish instead of erroring —
        the peer looks frozen, not dead."""
        h = ChaosHarness(
            deployment=chaos_deployment(),
            events=[BrokerCrash(at=0.4, duration=30.0)],
        )
        try:
            received = []
            # The subscriber's close() runs inside the window, where its
            # CLOSE frame is swallowed: it waits out this timeout.
            subscriber = connect(h.url, "sub", timeout=1.0)
            publisher = connect(h.broker.url, "pub")
            try:
                subscriber.on_data(
                    lambda arrival: received.append(
                        arrival.message.sequence
                    )
                )
                subscriber.subscribe(kind="temp")
                publisher.publish(0, b"\x00", kind="temp")
                assert poll_until(lambda: len(received) == 1)
                # Into the window: deliveries are silently eaten.
                assert poll_until(lambda: h.faults("broker_crashes") >= 1)
                publisher.publish(0, b"\x01", kind="temp")
                time.sleep(0.3)
                assert received == [0]
                assert h.proxy.stats.datagrams_dropped >= 1
            finally:
                subscriber.close()
                publisher.close()
        finally:
            h.stop()


class TestBrokerRestart:
    def test_restart_callback_fires_once_at_window_start(self):
        fired = threading.Event()
        h = ChaosHarness(
            deployment=chaos_deployment(),
            events=[BrokerCrash(at=0.1, duration=0.5)],
            on_broker_restart=fired.set,
        )
        try:
            assert fired.wait(5.0)
            assert poll_until(lambda: h.faults("recovered") >= 1)
            assert h.faults("broker_crashes") == 1
        finally:
            h.stop()
