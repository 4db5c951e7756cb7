"""The §6 control protocol, driven with no socket, thread or sleep.

Broker half: ``LiveBroker._handle_frame`` is called directly on a broker
that was never started — a fake clock for ``_clock`` and the lease clock,
a recording ``_udp`` — so every handshake, RESUME, NACK and teardown
branch is a function call with an exact outcome. Each row asserts the
response, the datagrams handed to ``_udp``, the ``transport.*`` counters
and the four tables a client occupies (``_connections``, ``_states``,
``_udp_peers``, the dispatcher's subscriptions).

Client half: a ``LiveSession`` whose wire is the same broker in-process
(``Wire``), with no reader, housekeeping or flusher thread; the test
calls the ticks and the flushes the threads would.

``test_rows_reach_every_teardown_and_resume_branch`` runs the rows under
``sys.settrace`` and requires every line of ``_detach``, ``_unbind`` and
``_on_resume`` and every ``_HANDLERS`` entry to have executed, so a row
deleted here or a branch added there fails the suite.
"""

from __future__ import annotations

import collections
import copy
import dataclasses
import functools
import itertools
import socket
import sys
import threading
import time
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GarnetConfig
from repro.core.dispatching import DispatchingService
from repro.core.envelopes import StreamArrival
import repro.core.message as message_module
from repro.core.message import DataMessage, MessageCodec
from repro.core.middleware import Garnet
from repro.core.streamid import StreamId
from repro.errors import CodecError, FieldRangeError, GarnetError, TransportError
from repro.fanout.frames import (
    datagram_frames,
    decode_batch_datagram,
    encode_batch_datagrams,
    is_batch_datagram,
)
from repro.store import StoreTap
from repro.store.base import StreamStore
from repro.store.file import _FileSegment
from repro.transport import LiveBroker, LiveSession
from repro.transport import client as client_module
from repro.transport.framing import (
    ADVERTISE,
    CLOSE,
    CONTROL_BODIES,
    CONTROL_FRAME_NAMES,
    DISCOVER,
    HELLO,
    MAX_UDP_PAYLOAD,
    NACK,
    PING,
    QUERY,
    RESPONSE_FLAG,
    RESUME,
    SUBSCRIBE,
    UNSUBSCRIBE,
    ControlFrameAssembler,
    encode_control_frame,
)
from repro.util.backoff import BackoffPolicy
from repro.util.ids import SequenceWindow

HOST = "10.0.0.1"
DATA_PORT = 7000
GRACE = 5.0
LEASE = 2.0


@pytest.fixture(scope="module", autouse=True)
def no_outside_world():
    """Anything here that reaches for the outside world fails loudly."""

    def refuse(what):
        def refused(*args, **kwargs):
            raise AssertionError(f"test_transport_protocol used {what}")

        return refused

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(socket, "socket", refuse("socket.socket"))
        patch.setattr(socket, "create_connection", refuse("a TCP dial"))
        patch.setattr(time, "sleep", refuse("time.sleep"))
        patch.setattr(threading.Thread, "start", refuse("a thread"))
        yield


# ----------------------------------------------------------------------
# Fakes: a clock, the broker's UDP socket, a control connection
# ----------------------------------------------------------------------
class Clock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


class RecordingUdp:
    """Stands in for ``LiveBroker._udp``: keeps what it is handed, and
    passes it on to an in-process ``LiveSession`` listening there."""

    def __init__(self):
        self.sent = []
        self.listeners = {}
        self.drop = 0

    def sendto(self, data, address):
        self.sent.append((data, address))
        if self.drop:
            self.drop -= 1
        elif address in self.listeners:
            self.listeners[address](data)

    def take(self):
        sent, self.sent = self.sent, []
        return sent

    def close(self):
        self.closed = True


class Writer:
    """``connection.writer``: all the broker asks of it is an abort."""

    def __init__(self):
        self.aborted = False
        self.transport = self

    def abort(self):
        self.aborted = True


class Peer:
    """One control connection, driven by calls."""

    def __init__(self, world, host=HOST):
        self.world = world
        self.writer = Writer()
        self.connection = world.broker._accept(host, self.writer)

    def send(self, frame_type, **body):
        return self.world.broker._handle_frame(self.connection, frame_type, body)

    def ok(self, frame_type, **body):
        response = self.send(frame_type, **body)
        assert response["ok"] is True, response
        return response

    def refused(self, frame_type, fragment, **body):
        response = self.send(frame_type, **body)
        assert response["ok"] is False and fragment in response["error"], response
        return response

    def eof(self):
        self.world.broker._on_disconnect(self.connection)


class World:
    """A never-started broker with resume, leases and a store."""

    def __init__(self, sessions_path=None, **config):
        config = {
            "publish_location_stream": False,
            "transport_resume_grace": GRACE,
            "broker_lease_ttl": LEASE,
            "store_enabled": True,
            **config,
        }
        self.clock = Clock()
        self.deployment = Garnet(config=GarnetConfig(**config))
        self.broker = LiveBroker(self.deployment, sessions_path=sessions_path)
        # What start() would install, with the fakes in place of the
        # loop's clock and the bound socket.
        self.broker._clock = self.clock
        self.broker._udp = self.udp = RecordingUdp()
        self.broker.data_port = DATA_PORT
        self.deployment.broker.lease_clock = self.clock
        self.deployment.arrival_clock = self.clock
        self._baseline = self.counters()

    def hello(self, name, port=5000, **extra):
        peer = Peer(self)
        peer.welcome = peer.ok(HELLO, name=name, udp_port=port, **extra)
        peer.address = (HOST, port)
        peer.token = peer.welcome.get("resume_token")
        peer.stream = StreamId(peer.welcome["publisher_id"], 0)
        return peer

    def frame(self, stream, sequence, payload=b"p"):
        return self.deployment.codec.encode(
            DataMessage(stream_id=stream, sequence=sequence, payload=payload)
        )

    def publish(self, peer, *sequences):
        """Datagrams from ``peer``'s address, one socket drain."""
        frames = [self.frame(peer.stream, sequence) for sequence in sequences]
        self.broker._drain_stamp = self.clock()
        for frame in frames:
            self.broker._on_datagram(frame)
        self.broker._after_drain([peer.address] * len(frames))
        return frames

    def counters(self):
        counters = self.deployment.metrics_snapshot()["counters"]
        return {
            name[len("transport."):]: value
            for name, value in counters.items()
            if name.startswith("transport.")
        }

    def counted(self):
        """``transport.*`` counters that moved since the last call."""
        now = self.counters()
        moved = {
            name: value - self._baseline.get(name, 0)
            for name, value in now.items()
            if value != self._baseline.get(name, 0)
        }
        self._baseline = now
        return moved

    def tables(self):
        """The four tables a client occupies, by session name."""
        broker, dispatcher = self.broker, self.deployment.dispatcher

        def named(connection):
            return connection.state.name if connection.state else None

        endpoints = {
            session.endpoint: session.name
            for session in self.deployment.sessions()
        }
        subscriptions = {}
        for subscription in dispatcher._subscriptions.values():
            name = endpoints.get(subscription.endpoint, subscription.endpoint)
            subscriptions[name] = subscriptions.get(name, 0) + 1
        assert set(dispatcher._by_endpoint) == {
            subscription.endpoint
            for subscription in dispatcher._subscriptions.values()
        }
        return {
            "connections": sorted(
                map(named, broker._connections), key=lambda name: name or ""
            ),
            "states": {
                state.name: "parked" if state.parked_now else "bound"
                for state in broker._states.values()
            },
            "udp_peers": {
                address[1]: named(connection)
                for address, connection in broker._udp_peers.items()
            },
            "subscriptions": subscriptions,
        }

    def everything(self):
        """The tables plus what else a refused frame must leave alone."""
        return (
            self.tables(),
            [session.name for session in self.deployment.sessions()],
            sorted(self.deployment._publisher_ids._in_use),
            sorted(self.deployment.network.inbox_names()),
        )


EMPTY = {"connections": [], "states": {}, "udp_peers": {}, "subscriptions": {}}


# ----------------------------------------------------------------------
# Frame type × session state
# ----------------------------------------------------------------------
def attached(world):
    """One client, "a": a subscription and one retained record."""
    a = world.hello("a")
    a.subscription = a.ok(SUBSCRIBE, kind="temp")["subscription_id"]
    a.ok(ADVERTISE, stream_index=0, kind="temp")
    [a.frame] = world.publish(a, 0)
    assert world.udp.take() == [(a.frame, a.address)]
    return a


def before_hello(world):
    return Peer(world)


def beside_a_parked_session(world):
    """A fresh connection while "a" sits parked."""
    attached(world).eof()
    return Peer(world)


def resumed(world):
    a = attached(world)
    a.eof()
    again = Peer(world)
    again.ok(RESUME, token=a.token, udp_port=5000)
    again.address, again.stream, again.frame = a.address, a.stream, a.frame
    again.subscription = a.subscription
    return again


BOUND = {
    "connections": ["a"],
    "states": {"a": "bound"},
    "udp_peers": {5000: "a"},
    "subscriptions": {"a": 1},
}
PARKED = {
    "connections": [None],
    "states": {"a": "parked"},
    "udp_peers": {},
    "subscriptions": {"a": 1},
}
STATES = {
    # state: (setup, tables before == tables after a refusal)
    "before HELLO": (before_hello, {**EMPTY, "connections": [None]}),
    "beside a parked session": (beside_a_parked_session, PARKED),
    "attached": (attached, BOUND),
    "resumed": (resumed, BOUND),
}
UNBOUND = ("before HELLO", "beside a parked session")


def body_of(frame_type, peer):
    stream = list(getattr(peer, "stream", (1, 0)))
    return {
        HELLO: {"name": "b", "udp_port": 5001},
        RESUME: {"token": "0" * 32, "udp_port": 5001},
        SUBSCRIBE: {"sensor_id": 7},
        UNSUBSCRIBE: {"subscription_id": getattr(peer, "subscription", 1)},
        DISCOVER: {"kind": "temp"},
        ADVERTISE: {"stream_index": 1, "kind": "wind", "encrypted": True},
        PING: {},
        CLOSE: {},
        QUERY: {"stream_id": stream},
        NACK: {"stream_id": stream, "sequences": [0, 1]},
    }[frame_type]


def accepted(frame_type, peer, response, tables):
    """``(tables, counters)`` an accepted frame must leave behind."""
    counters = {"control_frames": 1}
    expected = copy.deepcopy(tables)
    if frame_type == HELLO:
        assert response["data_port"] == DATA_PORT
        assert response["lease_ttl"] == LEASE
        assert response["resume_grace"] == GRACE
        assert len(response["resume_token"]) == 32
        assert response["batch_datagrams"] is False  # the body did not ask
        expected["connections"] = ["b"]
        expected["states"]["b"] = "bound"
        expected["udp_peers"][5001] = "b"
        counters["pumps"] = 1
    elif frame_type == SUBSCRIBE:
        assert response["subscription_id"] == peer.subscription + 1
        expected["subscriptions"]["a"] = 2
        counters["pumps"] = 1
    elif frame_type == UNSUBSCRIBE:
        expected["subscriptions"] = {}
        counters["pumps"] = 1
    elif frame_type == DISCOVER:
        [stream] = response["streams"]
        assert (stream["sensor_id"], stream["kind"]) == (peer.stream[0], "temp")
    elif frame_type == ADVERTISE:
        assert response["stream_id"] == [peer.stream.sensor_id, 1]
        counters["pumps"] = 1
    elif frame_type == PING:
        assert response["time"] == peer.world.clock()
    elif frame_type == CLOSE:
        expected = {**EMPTY, "connections": [None]}
        counters["pumps"] = 1
    elif frame_type == QUERY:
        [record] = response["records"]
        assert bytes.fromhex(record["frame"]) == peer.frame
        assert response["truncated"] is False
    elif frame_type == NACK:
        assert response["records"] == [peer.frame.hex()]
        assert response["missing"] == [1]
        counters["nack_records"] = 1
    return expected, counters


def run_matrix_row(state, frame_type):
    setup, tables = STATES[state]
    world = World()
    peer = setup(world)
    assert world.tables() == tables
    world.counted()
    before = world.everything()
    response = peer.send(frame_type, **body_of(frame_type, peer))
    assert world.udp.take() == []  # no control frame here owes a datagram
    if state in UNBOUND and frame_type == HELLO:
        expected, counters = accepted(frame_type, peer, response, tables)
    elif state in UNBOUND:
        why = "resume token" if frame_type == RESUME else "HELLO must precede"
        assert response == {"ok": False, "error": response["error"]}
        assert why in response["error"]
        expected, counters = None, {"control_frames": 1}
    elif frame_type in (HELLO, RESUME):
        assert response == {"ok": False, "error": "session already established"}
        expected, counters = None, {"control_frames": 1}
    else:
        assert response["ok"] is True, response
        expected, counters = accepted(frame_type, peer, response, tables)
    if expected is None:
        assert world.everything() == before  # refused: nothing moved
    else:
        assert world.tables() == expected
    assert world.counted() == counters


MATRIX = [(state, frame_type) for state in STATES for frame_type in CONTROL_BODIES]


@pytest.mark.parametrize(
    "state, frame_type",
    MATRIX,
    ids=[f"{CONTROL_FRAME_NAMES[f]} {s}" for s, f in MATRIX],
)
def test_frame_in_state(state, frame_type):
    run_matrix_row(state, frame_type)


# ----------------------------------------------------------------------
# Lifecycle rows: how a client leaves, and how it comes back
# ----------------------------------------------------------------------
def row_close_drops_everything(tmp_path):
    world = World()
    a = attached(world)
    pid = a.stream.sensor_id
    world.counted()
    assert a.ok(CLOSE) == {"ok": True}
    assert world.tables() == {**EMPTY, "connections": [None]}
    assert world.deployment.sessions() == []
    assert pid not in world.deployment._publisher_ids._in_use
    a.eof()  # the EOF that follows finds nothing left to park
    assert world.tables() == EMPTY
    assert world.counted() == {"control_frames": 1, "pumps": 2}
    # The token died with the session.
    Peer(world).refused(RESUME, "resume token", token=a.token, udp_port=5000)


def row_eof_with_grace_parks(tmp_path):
    world = World()
    a = attached(world)
    world.counted()
    a.eof()
    assert world.tables() == {**PARKED, "connections": []}
    assert world.counted() == {"sessions_parked": 1, "pumps": 1}
    # Deliveries to a parked session wait; nothing goes to its old address.
    b = world.hello("b", port=5001)
    world.publish(b, 0)  # unadvertised: kind "" does not match "temp"
    b.ok(ADVERTISE, stream_index=0, kind="temp")
    [frame] = world.publish(b, 1)
    assert world.udp.take() == []
    [state] = [s for s in world.broker._states.values() if s.name == "a"]
    assert list(state.parked) == [frame]


def row_eof_without_grace_drops(tmp_path):
    world = World(transport_resume_grace=None)
    a = world.hello("a")
    assert a.token is None and "resume_grace" not in a.welcome
    a.ok(SUBSCRIBE, kind="temp")
    assert world.tables() == {**BOUND, "states": {}}
    world.counted()
    a.eof()
    assert world.tables() == EMPTY
    assert world.deployment.sessions() == []
    assert world.counted() == {"pumps": 1}
    Peer(world).refused(RESUME, "does not issue", token="0" * 32, udp_port=1)


def row_eof_before_hello_is_nothing(tmp_path):
    world = World()
    Peer(world).eof()
    assert world.tables() == EMPTY
    assert world.counted() == {"pumps": 1}


def row_resume_replays_parked_then_goes_live(tmp_path):
    world = World()
    a = attached(world)
    b = world.hello("b", port=5001)
    b.ok(ADVERTISE, stream_index=0, kind="temp")
    [seen] = world.publish(b, 0)
    assert world.udp.take() == [(seen, a.address)]
    a.eof()
    missed = world.publish(b, 1, 2)
    assert world.udp.take() == []
    world.counted()
    again = Peer(world)
    response = again.ok(
        RESUME,
        token=a.token,
        udp_port=5002,  # a new socket on the client side
        keepalive=0.5,
        cursors={f"{b.stream[0]}:0": 0},
    )
    assert response == {
        **a.welcome,  # the HELLO shape, echoed
        "restored": True,
        "replayed": 2,
        "replayed_store": 2,  # the store pass covers what was parked
        "replayed_parked": 0,
    }
    assert world.udp.take() == [(frame, (HOST, 5002)) for frame in missed]
    assert world.tables() == {
        "connections": ["a", "b"],
        "states": {"a": "bound", "b": "bound"},
        "udp_peers": {5002: "a", 5001: "b"},
        "subscriptions": {"a": 1},
    }
    assert again.connection.state.keepalive == 0.5
    assert world.counted() == {
        "control_frames": 1,
        "sessions_resumed": 1,
        "replayed_records": 2,
        "datagrams_out": 2,
        "pumps": 1,
    }
    # Live again, at the new address.
    [live] = world.publish(b, 3)
    assert world.udp.take() == [(live, (HOST, 5002))]


def row_resume_without_a_store_replays_the_parked_buffer(tmp_path):
    world = World(store_enabled=False)
    a = world.hello("a")
    a.ok(SUBSCRIBE, kind="temp")
    b = world.hello("b", port=5001)
    b.ok(ADVERTISE, stream_index=0, kind="temp")
    a.eof()
    parked = world.publish(b, 0, 1, 2)
    world.counted()
    response = Peer(world).ok(
        RESUME, token=a.token, udp_port=5000, cursors={f"{b.stream[0]}:0": 0}
    )
    assert (response["replayed_store"], response["replayed_parked"]) == (0, 2)
    assert world.udp.take() == [(frame, a.address) for frame in parked[1:]]
    assert world.counted()["replayed_records"] == 2


def row_expired_token_is_refused(tmp_path):
    world = World()
    a = attached(world)
    pid = a.stream.sensor_id
    a.eof()
    world.counted()
    world.clock.now += GRACE + 0.1
    world.broker._housekeeping_tick()  # grace expiry, under the fake clock
    assert world.tables() == EMPTY
    assert world.deployment.sessions() == []
    assert pid not in world.deployment._publisher_ids._in_use
    assert world.counted() == {"sessions_reaped": 1, "pumps": 1}
    late = Peer(world)
    before = world.everything()
    late.refused(RESUME, "unknown or expired", token=a.token, udp_port=5000)
    assert world.everything() == before
    # The name is free again.
    late.ok(HELLO, name="a", udp_port=5000)


def row_parked_session_outlives_its_lease_inside_the_grace(tmp_path):
    world = World()
    a = attached(world)
    a.eof()
    for _ in range(4):  # 4 s > LEASE, < GRACE
        world.clock.now += 1.0
        world.broker._housekeeping_tick()
    assert world.tables() == {**PARKED, "connections": []}
    Peer(world).ok(RESUME, token=a.token, udp_port=5000)


def row_rehello_over_a_parked_name(tmp_path):
    world = World()
    a = attached(world)
    a.eof()
    world.counted()
    again = Peer(world)
    welcome = again.ok(HELLO, name="a", udp_port=5003)
    assert welcome["resume_token"] != a.token
    # The ghost yielded: its subscription went with it.
    assert world.tables() == {
        "connections": ["a"],
        "states": {"a": "bound"},
        "udp_peers": {5003: "a"},
        "subscriptions": {},
    }
    assert world.counted() == {"control_frames": 1, "pumps": 1}
    Peer(world).refused(RESUME, "resume token", token=a.token, udp_port=5000)


def row_hello_under_a_live_name_is_refused(tmp_path):
    world = World()
    attached(world)
    intruder = Peer(world)
    before = world.everything()
    response = intruder.send(HELLO, name="a", udp_port=5009)
    assert response["ok"] is False
    assert world.everything() == before


def row_resume_overtakes_a_live_connection(tmp_path):
    world = World()
    a = attached(world)  # its socket is dead, the broker has not noticed
    world.counted()
    again = Peer(world)
    response = again.ok(RESUME, token=a.token, udp_port=5000)
    assert response["restored"] is True and response["replayed"] == 0
    assert a.writer.aborted and a.connection.state is None
    assert world.tables() == {**BOUND, "connections": [None, "a"]}
    assert world.broker._udp_peers[a.address] is again.connection
    assert world.counted() == {
        "control_frames": 1, "sessions_resumed": 1, "pumps": 1,
    }
    a.eof()  # the stale socket's EOF, late: nothing left for it to park
    assert world.tables() == BOUND
    assert world.counted() == {"pumps": 1}


def row_resume_after_a_broker_restart_revives_the_session(tmp_path):
    path = tmp_path / "sessions.json"
    world = World(sessions_path=path)
    a = attached(world)
    gone = a.ok(SUBSCRIBE, kind="gone")["subscription_id"]
    held = [a.subscription, a.ok(SUBSCRIBE, stream_id=[7, 1])["subscription_id"]]
    a.ok(UNSUBSCRIBE, subscription_id=gone)
    assert held == [1, 3]
    assert path.exists()
    # The broker dies; a new one comes up over the same sessions file.
    reborn = World(sessions_path=path)
    reborn.broker._load_sessions()
    assert reborn.tables() == {**EMPTY, "states": {"a": "parked"}}
    assert a.stream.sensor_id in reborn.deployment._publisher_ids._in_use
    reborn.counted()
    again = Peer(reborn)
    response = again.ok(RESUME, token=a.token, udp_port=5000)
    assert response["restored"] is False
    assert response["publisher_id"] == a.stream.sensor_id
    assert reborn.tables() == {**BOUND, "subscriptions": {"a": 2}}
    # Its advertisement came back with it.
    b = reborn.hello("b", port=5001)
    [advert] = b.ok(DISCOVER, kind="temp")["streams"]
    assert advert["sensor_id"] == a.stream.sensor_id
    # The ids the client held before the restart still name its
    # subscriptions, and a new one is not handed an old one's id.
    for subscription_id in held:
        again.ok(UNSUBSCRIBE, subscription_id=subscription_id)
    assert reborn.tables()["subscriptions"] == {}
    assert again.ok(SUBSCRIBE, kind="wind")["subscription_id"] == 4


#: A sessions file as brokers wrote it before subscription ids were per
#: session: the subscription keyed by the dispatcher's id the client held.
OLD_SESSIONS_FILE = """{"%s": {"advertised": {"0": ["temp", false]},
"name": "a", "publisher_id": 15728645, "subscriptions": {"7": {"derived":
null, "kind": "temp", "sensor_id": null, "stream_id": null,
"stream_index": null}}}}""" % ("ab" * 16)


def row_a_sessions_file_from_before_per_session_ids_resumes(tmp_path):
    path = tmp_path / "sessions.json"
    path.write_text(OLD_SESSIONS_FILE)
    world = World(sessions_path=path)
    world.broker._load_sessions()
    assert world.tables() == {**EMPTY, "states": {"a": "parked"}}
    again = Peer(world)
    response = again.ok(RESUME, token="ab" * 16, udp_port=5000)
    assert response["publisher_id"] == 15728645
    assert world.tables() == {**BOUND, "subscriptions": {"a": 1}}
    [advert] = world.hello("b", port=5001).ok(DISCOVER, kind="temp")["streams"]
    assert (advert["sensor_id"], advert["stream_index"]) == (15728645, 0)
    assert again.ok(SUBSCRIBE, kind="wind")["subscription_id"] == 8
    again.ok(UNSUBSCRIBE, subscription_id=7)
    assert world.tables()["subscriptions"] == {"a": 1}


def row_unsubscribe_of_another_sessions_id_is_refused(tmp_path):
    world = World()
    a = attached(world)
    b = world.hello("b", port=5001)
    before = world.everything()
    b.refused(UNSUBSCRIBE, "unknown subscription", subscription_id=a.subscription)
    assert world.everything() == before
    a.ok(UNSUBSCRIBE, subscription_id=a.subscription)
    assert world.tables()["subscriptions"] == {}


def row_revival_refused_leaves_the_state_parked(tmp_path):
    path = tmp_path / "sessions.json"
    world = World(sessions_path=path)
    a = attached(world)
    reborn = World(sessions_path=path)
    reborn.broker._load_sessions()
    reborn.deployment.broker.crash()
    late = Peer(reborn)
    before = reborn.everything()
    response = late.send(RESUME, token=a.token, udp_port=5000)
    assert response["ok"] is False
    assert reborn.everything() == before
    reborn.deployment.broker.restart()
    late.ok(RESUME, token=a.token, udp_port=5000)


def row_lease_reap_tears_down_silent_clients(tmp_path):
    # (a) the reap path forgot the peer table: one leaked entry a client.
    world = World()
    clients = [world.hello(f"c{n}", port=5000 + n) for n in range(5)]
    for client in clients:
        client.ok(SUBSCRIBE, kind="temp")
    world.counted()
    world.clock.now += LEASE + 0.1
    world.broker._housekeeping_tick()
    assert world.tables() == {**EMPTY, "connections": [None] * 5}
    assert all(client.writer.aborted for client in clients)
    assert world.deployment.sessions() == []
    assert world.deployment._publisher_ids._in_use == set()
    assert world.counted() == {"sessions_reaped": 5, "pumps": 1}
    late = Peer(world)
    for client in clients:
        client.eof()
        late.refused(RESUME, "resume token", token=client.token, udp_port=5000)
    assert world.tables() == {**EMPTY, "connections": [None]}


def row_traffic_on_either_plane_keeps_a_lease(tmp_path):
    world = World()
    talker, publisher, silent = (
        world.hello(name, port=5000 + n)
        for n, name in enumerate(("talker", "publisher", "silent"))
    )
    for _ in range(3):
        world.clock.now += LEASE * 0.6
        talker.ok(PING)
        world.publish(publisher, 0)
        world.broker._housekeeping_tick()
    assert world.tables()["connections"] == [None, "publisher", "talker"]
    assert silent.writer.aborted


def row_missed_keepalives_abort_then_park(tmp_path):
    world = World(broker_lease_ttl=None)
    a = world.hello("a", keepalive=0.5)
    assert "lease_ttl" not in a.welcome
    world.clock.now += 0.9
    world.broker._housekeeping_tick()
    assert not a.writer.aborted  # idle limit is max(3 keepalives, 1 s)
    world.clock.now += 0.7
    world.broker._housekeeping_tick()
    assert a.writer.aborted
    a.eof()  # what the abort causes
    assert world.tables()["states"] == {"a": "parked"}


def row_a_closing_connection_keeps_its_hands_off_a_reused_address(tmp_path):
    # (b) two HELLOs announce one UDP port; the first connection closes.
    world = World()
    first = world.hello("first", port=5000)
    second = world.hello("second", port=5000)
    first.eof()
    assert world.tables()["udp_peers"] == {5000: "second"}
    # The owner's datagrams still count as its activity and renew its
    # lease: it outlives several TTLs on data-plane traffic alone.
    for _ in range(4):
        world.clock.now += LEASE * 0.6
        world.publish(second, 0)
        world.broker._housekeeping_tick()
    assert second.connection.last_activity == world.clock()
    assert world.tables()["connections"] == ["second"]
    first_again = Peer(world)
    first_again.ok(RESUME, token=first.token, udp_port=5000)
    second.ok(CLOSE)
    assert world.tables()["udp_peers"] == {5000: "first"}


def row_a_refused_subscribe_installs_nothing(tmp_path):
    # (c) {"kind": 5} died after the dispatcher had recorded the
    # subscription; CLOSE then left the client's other one routed to a
    # dead endpoint, for the next "a" to inherit.
    world = World()
    a = world.hello("a")
    a.ok(SUBSCRIBE, kind="temp.*")
    before = world.everything()
    for body in ({"kind": 5}, {"stream_id": [1]}, {"sensor_id": [1]}):
        a.refused(SUBSCRIBE, "SUBSCRIBE", **body)
        assert world.everything() == before
    a.refused(QUERY, "QUERY", stream_id=[1])
    a.refused(NACK, "NACK", stream_id=[1], sequences=[0])
    a.ok(CLOSE)
    dispatcher = world.deployment.dispatcher
    assert dispatcher.subscription_count() == 0
    assert dispatcher._by_endpoint == {}
    # A second client named "a" receives nothing it did not subscribe to.
    heir = world.hello("a", port=5005)
    b = world.hello("b", port=5001)
    b.ok(ADVERTISE, stream_index=0, kind="temp.1")
    world.publish(b, 0)
    assert world.udp.take() == []
    heir.ok(SUBSCRIBE, kind="temp.*")
    [frame] = world.publish(b, 1)
    assert world.udp.take() == [(frame, (HOST, 5005))]


def row_storeless_nack_answers_ok_with_everything_missing(tmp_path):
    world = World(store_enabled=False)
    a = world.hello("a")
    assert a.ok(NACK, stream_id=[1, 0], sequences=[3, 1, 2]) == {
        "ok": True, "records": [], "missing": [1, 2, 3],
    }
    a.refused(QUERY, "no stream store", stream_id=[1, 0])
    a.refused(SUBSCRIBE, "store_enabled", kind="temp", replay="history")
    a.refused(SUBSCRIBE, "replay mode", kind="temp", replay="sideways")


def row_nack_overrunning_the_response_is_not_called_missing(tmp_path):
    # Five retained 60,000-byte records, room for four: the fifth used to
    # come back under ``missing``, which the client gives up on.
    world = World()
    a = world.hello("a")
    frames = [
        world.frame(a.stream, sequence, bytes(60_000)) for sequence in range(5)
    ]
    for frame in frames:
        world.broker._on_datagram(frame)
    world.broker._after_drain([a.address] * len(frames))
    response = a.ok(NACK, stream_id=list(a.stream), sequences=[0, 1, 2, 3, 4, 9])
    assert response["records"] == [frame.hex() for frame in frames[:4]]
    assert response["missing"] == [9]
    response = a.ok(NACK, stream_id=list(a.stream), sequences=[4])
    assert response == {"ok": True, "records": [frames[4].hex()], "missing": []}


def row_unknown_frame_types_are_counted_in_any_state(tmp_path):
    world = World()
    for peer in (Peer(world), world.hello("a")):
        world.counted()
        before = world.everything()
        peer.refused(0x7F, "unknown frame type 0x7f")
        assert world.everything() == before
        assert world.counted() == {
            "control_frames": 1, "unknown_control_frames": 1,
        }


def row_batching_is_the_brokers_to_grant(tmp_path):
    world = World()  # no fan-out: batching is per client, not per deployment
    plain = world.hello("plain", port=5001)
    batching = world.hello("batching", port=5002, batch_datagrams=True)
    assert plain.welcome["batch_datagrams"] is False
    assert batching.welcome["batch_datagrams"] is True
    for peer in (plain, batching):
        peer.ok(SUBSCRIBE, kind="temp")
    pub = world.hello("pub", port=5003)
    pub.ok(ADVERTISE, stream_index=0, kind="temp")
    world.udp.take()
    frames = world.publish(pub, 0, 1, 2)
    sent = world.udp.take()
    assert [d for d, address in sent if address[1] == 5001] == frames
    [batch] = [d for d, address in sent if address[1] == 5002]
    assert all(frame in batch for frame in frames)
    # Unflushed batched deliveries survive a park like any other.
    batching.connection.state.outbox.append(b"pending")
    batching.eof()
    assert batching.connection.state is None
    [state] = [s for s in world.broker._states.values() if s.parked_now]
    assert list(state.parked) == [b"pending"] and state.outbox == []


def row_one_drain_accounts_for_every_datagram_and_frame(tmp_path):
    """The data plane's ledger over one drain that holds a bad datagram,
    a good and a malformed inbound batch, a good batch with one frame
    that fails its CRC, a delivery that raises, a parked, a bare and a
    batching subscriber: ``datagrams_in = bare + batches +
    bad_datagrams`` and ``verified = bare + batched frames - bad_frames``
    (each frame that passed its checks enters the dispatcher once), and
    every frame queued for a client is sent bare, counted in a batch or
    parked."""
    world = World()
    broker = world.broker
    errors, queued = [], []
    broker._loop = types.SimpleNamespace(call_exception_handler=errors.append)
    forward = broker._forward_run
    arrivals = world.deployment.metrics().counter("dispatch.arrivals")

    def counting_forward(state, run):
        queued.extend((state.name, sequence) for sequence in run.sequences)
        forward(state, run)

    broker._forward_run = counting_forward

    def fail_on_one(arrival):
        if arrival.message.sequence == 1:
            raise RuntimeError("boom")

    # Subscribed first, so its leg of every route runs first.
    raiser = world.deployment.connect("raiser", heartbeat_period=None)
    raiser.deliver_inline()
    raiser.on_data(fail_on_one)
    raiser.subscribe(kind="temp")
    bare = world.hello("bare", port=5001)
    batching = world.hello("batching", port=5002, batch_datagrams=True)
    parked = world.hello("parked", port=5003)
    for peer in (bare, batching, parked):
        peer.ok(SUBSCRIBE, kind="temp")
    parked.eof()
    pub = world.hello("pub", port=5004)
    pub.ok(ADVERTISE, stream_index=0, kind="temp")
    world.counted()
    before = arrivals.value
    frames = [world.frame(pub.stream, sequence) for sequence in range(7)]
    [batch] = encode_batch_datagrams(frames[2:4])
    bad_crc = frames[5][:-1] + bytes([frames[5][-1] ^ 0xFF])
    [flawed] = encode_batch_datagrams([frames[4], bad_crc, frames[6]])
    inbound = [
        frames[0],
        b"junk-not-a-codec-frame",
        frames[1],
        batch,
        batch[:-1],  # a malformed batch: one bad datagram
        flawed,  # a good batch carrying one bad frame
    ]
    broker._drain_stamp = world.clock()
    for datagram in inbound:
        broker._on_datagram(datagram)
    broker._after_drain([pub.address] * len(inbound))

    counted = world.counted()
    bare_in = 2  # frames[0] and frames[1]
    assert counted["datagrams_in"] == (
        bare_in + counted["batch_datagrams_in"] + counted["bad_datagrams"]
    )
    verified = arrivals.value - before
    assert verified == (
        bare_in + counted["batched_frames_in"] - counted["bad_frames"]
    )
    assert (counted["batch_datagrams_in"], counted["batched_frames_in"]) == (2, 5)
    assert (verified, counted["bad_datagrams"], counted["bad_frames"]) == (
        6, 2, 1,
    )
    assert counted["dispatch_errors"] == 1
    assert [str(context["exception"]) for context in errors] == ["boom"]
    # The raiser's leg runs first and loses sequence 1; the legs routed
    # after it still get every frame.
    delivered = [frame for frame in frames if frame is not frames[5]]
    assert sorted(queued) == sorted(
        (name, sequence)
        for name in ("bare", "batching", "parked")
        for sequence in (0, 1, 2, 3, 4, 6)
    )
    sent = world.udp.take()
    assert [(d, a) for d, a in sent if a == bare.address] == [
        (frame, bare.address) for frame in delivered
    ]
    [batch] = [d for d, a in sent if a == batching.address]
    assert decode_batch_datagram(batch) == delivered
    [state] = [s for s in broker._states.values() if s.name == "parked"]
    assert list(state.parked) == delivered
    sent_bare = sum(not is_batch_datagram(d) for d, _ in sent)
    assert len(queued) == (
        sent_bare + counted["batched_frames"] + len(state.parked)
    )
    drains = world.deployment.metrics_snapshot()["histograms"][
        "transport.drain_datagrams"
    ]
    assert drains["count"] == 1 and drains["sum"] == len(inbound)
    assert drains["buckets"]["4"] == 0 and drains["buckets"]["8"] == 1


def row_stop_detaches_everyone_and_keeps_the_sessions_file(tmp_path):
    path = tmp_path / "sessions.json"
    world = World(sessions_path=path)
    a = attached(world)
    world.hello("b", port=5001).eof()  # one bound, one parked
    stopping = world.broker.stop()
    with pytest.raises(StopIteration):
        stopping.send(None)  # never started: nothing for it to await
    assert a.writer.aborted
    assert world.tables() == {**EMPTY, "connections": [None]}
    assert world.deployment.sessions() == []
    assert world.deployment._publisher_ids._in_use == set()
    # What a restarted broker may still honour was written first.
    reborn = World(sessions_path=path)
    reborn.broker._load_sessions()
    assert reborn.tables()["states"] == {"a": "parked", "b": "parked"}
    a.eof()  # the aborted socket's EOF: nothing to park, nothing persisted
    assert world.tables() == EMPTY


LIFECYCLE = [
    value for name, value in sorted(globals().items()) if name.startswith("row_")
]


@pytest.mark.parametrize("row", LIFECYCLE, ids=lambda row: row.__name__[4:])
def test_lifecycle(row, tmp_path):
    row(tmp_path)


# ----------------------------------------------------------------------
# Which branches the rows reach
# ----------------------------------------------------------------------
def test_rows_reach_every_teardown_and_resume_branch(tmp_path):
    """Every ``_HANDLERS`` entry is entered, and every line of the
    functions that attach and detach a client runs, under the rows above
    (no coverage tool here: ``sys.settrace`` over just those functions)."""
    handlers = {
        handler.__code__: CONTROL_FRAME_NAMES[frame_type]
        for frame_type, handler in LiveBroker._HANDLERS.items()
    }
    watched = {
        function.__code__: function.__name__
        for function in (
            LiveBroker._handle_frame,
            LiveBroker._bind,
            LiveBroker._unbind,
            LiveBroker._detach,
            LiveBroker._on_resume,
        )
    }
    entered, ran = set(), set()

    def on_call(frame, event, arg):
        code = frame.f_code
        if code in handlers:
            entered.add(handlers[code])
        if code not in watched:
            return None

        def on_line(frame, event, arg):
            ran.add((code, frame.f_lineno))
            return on_line

        return on_line

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        for state, frame_type in MATRIX:
            run_matrix_row(state, frame_type)
        for index, row in enumerate(LIFECYCLE):
            directory = tmp_path / str(index)
            directory.mkdir()
            row(directory)
    finally:
        sys.settrace(previous)
    assert entered == set(CONTROL_FRAME_NAMES.values())
    for code, name in watched.items():
        lines = {line for _, _, line in code.co_lines() if line is not None}
        lines.discard(code.co_firstlineno)  # the ``def``: a call, not a line
        missed = sorted(lines - {line for ran_in, line in ran if ran_in is code})
        assert missed == [], f"no row runs {name} lines {missed}"


# ----------------------------------------------------------------------
# Property: no body, on any frame type, escapes or half-applies
# ----------------------------------------------------------------------
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([0, 1, 255, 256, 65535, 65536, 1 << 24, 10**400, -1]),
    st.floats(allow_nan=True, allow_infinity=True),  # json.loads reads NaN
    st.text(max_size=6),
    st.sampled_from(["temp", "temp.*", "history", "1:0", "16777215:255", ":"]),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.lists(st.lists(SCALARS, max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=6), SCALARS, max_size=3),
)
FIELD_NAMES = sorted({name for spec in CONTROL_BODIES.values() for name in spec})
NOISE = st.dictionaries(
    st.one_of(st.sampled_from(FIELD_NAMES), st.text(max_size=6)),
    VALUES,
    max_size=4,
)


class Scene:
    """One attached client, one parked ghost, and the way back to exactly
    that after each kind of accepted frame — so two hundred examples run
    against one broker, each from the same start."""

    def __init__(self):
        self.world = World(broker_lease_ttl=None)
        self.bound = attached(self.world)
        self.ghost = self.world.hello("ghost", port=5001)
        self.ghost.eof()
        self.tried = dict.fromkeys([*CONTROL_BODIES, 0x7F], 0)

    def valid(self, frame_type):
        if frame_type == RESUME:
            return {"token": self.ghost.token, "udp_port": 5001}
        return body_of(frame_type, self.bound) if frame_type != 0x7F else {}

    def undo(self, frame_type, peer, response):
        if frame_type == HELLO:
            peer.ok(CLOSE)
        elif frame_type == SUBSCRIBE:
            peer.ok(UNSUBSCRIBE, subscription_id=response["subscription_id"])
        elif frame_type == UNSUBSCRIBE:
            peer.subscription = peer.ok(SUBSCRIBE, kind="temp")["subscription_id"]
        elif frame_type == CLOSE:
            peer.eof()
            self.bound = attached(self.world)
        # RESUME: the EOF below parks the ghost again, token and all.

    def send(self, frame_type, body):
        self.tried[frame_type] += 1
        world = self.world
        start = world.everything()
        handshake = frame_type in (HELLO, RESUME)
        peer = Peer(world) if handshake else self.bound
        before = world.everything()
        response = peer.send(frame_type, **body)  # must not raise
        if response["ok"]:
            self.undo(frame_type, peer, response)
        else:
            assert isinstance(response["error"], str)
            assert world.everything() == before  # refused: nothing moved
        if handshake:
            peer.eof()
        world.udp.take()
        assert world.everything() == start


SCENE = Scene()


@settings(max_examples=200, deadline=None, database=None)
@given(NOISE)
def test_no_body_escapes_or_half_applies(noise):
    """Each example goes to every frame type twice: as it is, and laid
    over that frame's valid body (so single fields go wrong in an
    otherwise acceptable request)."""
    for frame_type in SCENE.tried:
        SCENE.send(frame_type, noise)
        SCENE.send(frame_type, {**SCENE.valid(frame_type), **noise})


def test_the_property_ran_two_hundred_bodies_per_frame_type():
    assert min(SCENE.tried.values()) >= 200, SCENE.tried


def test_every_table_field_refuses_what_it_should():
    """The ranges the table states, at their edges."""
    world = World()
    a = attached(world)
    edges = {
        (HELLO, "udp_port"): ([1, 65535], [0, 65536, "5000", 5000.0, True]),
        (HELLO, "keepalive"): ([0.001, 5, None], [0, -1.0, "1", float("inf"), float("nan"), 10**400, True]),
        (HELLO, "name"): (["a-b"], ["", 5, None, ["a"]]),
        (HELLO, "batch_datagrams"): ([True, False, None], [1, "yes"]),
        (SUBSCRIBE, "sensor_id"): ([0, (1 << 24) - 1], [-1, 1 << 24, "7", 7.0]),
        (SUBSCRIBE, "stream_index"): ([0, 255], [-1, 256]),
        (SUBSCRIBE, "stream_id"): ([[0, 0], [(1 << 24) - 1, 255]], [[1], [1, 2, 3], [1 << 24, 0], [0, 256], "1:0", {"a": 1}, [[1], 0]]),
        (SUBSCRIBE, "kind"): (["temp", "temp.*", ""], [5, ["temp"]]),
        (SUBSCRIBE, "derived"): ([True, False], [0, "no"]),
        (UNSUBSCRIBE, "subscription_id"): ([], [-1, "1", None, 1.0]),
        (ADVERTISE, "stream_index"): ([0, 255], [256, None, "0"]),
        (QUERY, "stream_id"): ([], [None, [1], "1:0"]),
        (QUERY, "start"): ([0, 1.5, None], ["0", float("nan"), float("inf")]),
        (QUERY, "limit"): ([1, 10, None], [0, -1, 1.0]),
        (RESUME, "token"): ([], [None, "", 5]),
        (RESUME, "cursors"): (
            [{}, None, {"1:0": 0, "16777215:255": 65535}],
            [[], {"1": 0}, {"1:0": 65536}, {"1:0": -1}, {"x:0": 0}, {"1:256": 0}, {"16777216:0": 0}, {"1:0": "0"}, {" 1:0": 0}, {"١:0": 0}],
        ),
        (NACK, "sequences"): ([[0], [65535, 0]], [[], None, [65536], [-1], ["0"], 0, [[0]]]),
    }
    from repro.transport.framing import parse_control_body

    for (frame_type, field), (good, bad) in edges.items():
        valid = body_of(frame_type, a)
        if frame_type == RESUME:
            valid = {"token": "t", "udp_port": 1}
        for value in good:
            parse_control_body(frame_type, {**valid, field: value})
        for value in bad:
            with pytest.raises(TransportError, match=field):
                parse_control_body(frame_type, {**valid, field: value})
    with pytest.raises(TransportError, match="unknown frame type"):
        parse_control_body(0x7F, {})
    with pytest.raises(TransportError, match="object"):
        parse_control_body(PING, [])
    # Unknown fields are ignored; absent optional ones come back None.
    assert parse_control_body(PING, {"extra": 1}) == {}
    assert parse_control_body(DISCOVER, {}) == {
        "kind": None, "sensor_id": None, "derived": None,
    }


# ----------------------------------------------------------------------
# The data plane's runs: one pass per stream run, one outcome per frame
# ----------------------------------------------------------------------
def logging_loop(world):
    """What reaches the loop's exception handler, as strings."""
    errors = []
    world.broker._loop = types.SimpleNamespace(call_exception_handler=errors.append)
    return errors


def inline_session(world, name, callback):
    """An in-process consumer on kind "temp", delivered to by calls."""
    session = world.deployment.connect(name, heartbeat_period=None)
    session.deliver_inline()
    session.on_data(callback)
    session.subscribe(kind="temp")
    return session


def test_a_raising_consumer_costs_only_its_own_deliveries():
    """One run of five frames; a consumer subscribed first raises on the
    odd ones. It loses those two deliveries, each counted and logged
    once, and every consumer routed after it gets all five."""
    world = World()
    errors = logging_loop(world)
    seen = collections.defaultdict(list)

    def raising_on_odd(arrival):
        sequence = arrival.message.sequence
        if sequence % 2:
            raise RuntimeError(f"boom {sequence}")
        seen["raiser"].append(sequence)

    inline_session(world, "raiser", raising_on_odd)
    inline_session(
        world, "other", lambda arrival: seen["other"].append(arrival.message.sequence)
    )
    sub = world.hello("sub", port=5001)
    sub.ok(SUBSCRIBE, kind="temp")
    pub = world.hello("pub", port=5002)
    pub.ok(ADVERTISE, stream_index=0, kind="temp")
    world.udp.take()
    world.counted()
    frames = world.publish(pub, *range(5))
    assert seen == {"raiser": [0, 2, 4], "other": [0, 1, 2, 3, 4]}
    assert world.udp.take() == [(frame, sub.address) for frame in frames]
    assert world.counted()["dispatch_errors"] == 2
    assert [str(context["exception"]) for context in errors] == [
        "boom 1", "boom 3",
    ]


def test_a_run_whose_dispatch_raises_costs_only_that_run(monkeypatch):
    """A failure outside any delivery (here the store tap) loses its
    run, and only its run: the next stream's run in the same drain is
    stored and delivered."""
    world = World()
    errors = logging_loop(world)
    sub = world.hello("sub", port=5001)
    sub.ok(SUBSCRIBE, kind="temp")
    pub = world.hello("pub", port=5002)
    for index in (0, 1):
        pub.ok(ADVERTISE, stream_index=index, kind="temp")
    world.udp.take()
    world.counted()
    record = StoreTap.record_frames

    def failing_on_index_0(tap, stream_id, *rest):
        if stream_id.stream_index == 0:
            raise RuntimeError("disk full")
        return record(tap, stream_id, *rest)

    monkeypatch.setattr(StoreTap, "record_frames", failing_on_index_0)
    first, second = pub.stream, StreamId(pub.stream.sensor_id, 1)
    frames = [
        world.frame(stream, sequence)
        for stream, sequence in (
            (first, 0), (first, 1), (second, 0), (second, 1), (first, 2)
        )
    ]
    world.broker._drain_stamp = world.clock()
    for frame in frames:
        world.broker._on_datagram(frame)
    world.broker._after_drain([pub.address] * len(frames))
    assert world.udp.take() == [(frames[2], sub.address), (frames[3], sub.address)]
    assert world.counted()["dispatch_errors"] == 2
    assert [str(context["exception"]) for context in errors] == ["disk full"] * 2
    store = world.deployment.store
    assert [record.frame for record in store.read(second)] == frames[2:4]
    assert store.read(first) == []


def test_a_frame_too_large_for_udp_is_dropped_per_recipient_and_the_rest_flush():
    """An in-process publish can build a frame no datagram carries. It is
    counted once per recipient; the flush's other frames still go out."""
    world = World()
    subscribers = [
        world.hello(name, port=port, batch_datagrams=True)
        for name, port in (("one", 5001), ("two", 5002))
    ]
    for peer in subscribers:
        peer.ok(SUBSCRIBE, kind="big")
    world.udp.take()
    world.counted()
    maker = world.deployment.connect("maker", heartbeat_period=None)
    maker.publish(0, b"small", kind="big")
    maker.publish(0, bytes(65_530))
    world.broker._pump()
    sent = world.udp.take()
    assert [address for _, address in sent] == [
        peer.address for peer in subscribers
    ]
    assert {CODEC.decode(datagram).payload for datagram, _ in sent} == {b"small"}
    counted = world.counted()
    assert counted["datagrams_dropped"] == 2 and counted["datagrams_out"] == 2


#: Counters that count drains and the datagrams packed from them, not
#: frames: one drain and the same datagrams one drain each differ here.
DRAIN_SHAPED = {
    "transport.pumps",
    "transport.datagrams_out",
    "transport.batch_datagrams",
    "transport.batched_frames",
}


def run_world():
    """Bare, batching and parked subscribers on kind "temp"; a publisher
    with two "temp" streams and one "other" stream nobody wants."""
    world = World()
    peers = [
        world.hello("bare", port=5001),
        world.hello("batching", port=5002, batch_datagrams=True),
        world.hello("parked", port=5003),
    ]
    for peer in peers:
        peer.ok(SUBSCRIBE, kind="temp")
    peers[-1].eof()
    pub = world.hello("pub", port=5004)
    for index, kind in enumerate(("temp", "temp", "other")):
        pub.ok(ADVERTISE, stream_index=index, kind=kind)
    world.udp.take()
    return world, pub


def drain_outcome(datagrams, one_drain):
    """Everything a drain leaves behind that frames, not drains, decide."""
    world, pub = run_world()
    broker = world.broker
    broker._drain_stamp = world.clock()
    for drain in [datagrams] if one_drain else [[d] for d in datagrams]:
        for datagram in drain:
            broker._on_datagram(datagram)
        broker._after_drain([pub.address] * len(drain))
    received = collections.defaultdict(list)
    for datagram, address in world.udp.take():
        received[address[1]] += (
            decode_batch_datagram(datagram)
            if is_batch_datagram(datagram)
            else [datagram]
        )
    [parked] = [state for state in broker._states.values() if state.parked_now]
    counters = {
        name: value
        for name, value in world.deployment.metrics_snapshot()["counters"].items()
        if name.startswith(("transport.", "dispatch.", "store."))
        and name not in DRAIN_SHAPED
    }
    streams = [StreamId(pub.stream.sensor_id, index) for index in range(3)]
    store = world.deployment.store
    return {
        "received": dict(received),
        "parked": list(parked.parked),
        "counters": counters,
        "stream stats": [
            dataclasses.asdict(world.deployment.registry.detect(s).stats)
            for s in streams
        ],
        "store": [store.read(stream) for stream in streams],
    }


@settings(max_examples=80, deadline=None, database=None)
@given(
    frames=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 9)), min_size=1, max_size=40
    ),
    junk_at=st.integers(0, 40),
    copy_of=st.integers(0, 39),
    copy_at=st.integers(0, 41),
    unwanted_at=st.integers(0, 42),
)
def test_one_drain_is_its_datagrams_one_drain_each(
    frames, junk_at, copy_of, copy_at, unwanted_at
):
    """The oracle for runs: a drain over up to three interleaved streams
    — with a duplicate, a junk datagram and a frame of the stream nobody
    subscribes to — leaves what the same datagrams leave one drain each:
    every client's frames in order, the parked buffer, the counters,
    each stream's statistics and the store."""
    publisher_id = run_world()[1].stream.sensor_id
    encoded = [
        CODEC.encode(DataMessage(StreamId(publisher_id, index), sequence, b"p"))
        for index, sequence in frames
    ]
    encoded.insert(copy_at % (len(encoded) + 1), encoded[copy_of % len(encoded)])
    encoded.insert(
        unwanted_at % (len(encoded) + 1),
        CODEC.encode(DataMessage(StreamId(publisher_id, 2), 5, b"u")),
    )
    encoded.insert(junk_at % (len(encoded) + 1), b"junk-not-a-codec-frame")
    whole = drain_outcome(encoded, one_drain=True)
    assert whole == drain_outcome(encoded, one_drain=False)
    assert whole["counters"]["transport.bad_datagrams"] == 1


class ReferenceDrain:
    """The drain the frame walk replaced, kept here as the oracle:
    every frame decoded with ``MessageCodec.decode``, one
    ``StreamArrival`` per frame, ``on_arrival`` per run of arrivals."""

    def __init__(self, broker):
        self.broker = broker
        self.run = []

    def on_datagram(self, data):
        broker = self.broker
        try:
            frames = datagram_frames(data)
        except TransportError:
            broker._bad_datagrams.inc()
            return 1
        rejected = broker._bad_datagrams
        if len(frames) > 1:
            broker._batch_datagrams_in.inc()
            broker._batched_frames_in.inc(len(frames))
            rejected = broker._bad_frames
        for frame in frames:
            try:
                message = broker._codec.decode(frame)
            except GarnetError:
                rejected.inc()
                continue
            if self.run and self.run[-1].message.stream_id != message.stream_id:
                self.dispatch()
            self.run.append(StreamArrival(message, broker._drain_stamp, -1, 0.0))
        return len(frames)

    def dispatch(self):
        run, self.run = self.run, []
        try:
            self.broker.deployment.dispatcher.on_arrival(*run)
        except Exception as exc:
            self.broker._dispatch_failed(exc)

    def after_drain(self, senders):
        if self.run:
            self.dispatch()
        self.broker._after_drain(senders)


#: An unadvertised stream: its word is interned by no one but the drain.
STRANGER = StreamId(0xABCDE, 9)


def frame_of(kind, stream, sequence):
    """One inbound frame of ``kind``: a plain one, one with an optional
    field, or one the codec refuses."""
    fields = {
        "ack": {"ack_request_id": 7},
        "relayed": {"hop_count": 2},
        "extended": {"extensions": ((1, b"x"),)},
    }.get(kind, {})
    if kind == "stranger":
        stream = STRANGER
    frame = CODEC.encode(
        DataMessage(stream, sequence, b"p%d" % sequence, **fields)
    )
    if kind == "bad_crc":
        return frame[:-1] + bytes([frame[-1] ^ 0xFF])
    if kind == "truncated":
        return frame[:-3]
    return frame


def frame_path_outcome(datagrams_of, reference):
    """What one drain of ``datagrams_of(publisher id)`` leaves: a raising
    in-process consumer, a bare, a parked and a batching subscriber whose
    history replay primed its windows, an in-process callback, and a
    memory store. ``reference`` drives the drain through
    :class:`ReferenceDrain`."""
    world = World()
    errors = logging_loop(world)
    seen = []

    def raise_on_3(arrival):
        if arrival.message.sequence % 5 == 3:
            raise RuntimeError("boom")

    inline_session(world, "raiser", raise_on_3)
    bare = world.hello("bare", port=5001)
    bare.ok(SUBSCRIBE, kind="temp")
    parked = world.hello("parked", port=5003)
    parked.ok(SUBSCRIBE, kind="temp")
    parked.eof()
    pub = world.hello("pub", port=5004)
    for index in range(3):
        pub.ok(ADVERTISE, stream_index=index, kind="temp")
    world.publish(pub, 0, 1, 2, 3, 4)
    history = world.hello("history", port=5002, batch_datagrams=True)
    history.ok(SUBSCRIBE, kind="temp", replay="history")
    inline_session(world, "callback", lambda a: seen.append((a, a.message.wire)))
    world.udp.take()
    broker = world.broker
    drain = ReferenceDrain(broker) if reference else None
    on_datagram = drain.on_datagram if reference else broker._on_datagram
    after_drain = drain.after_drain if reference else broker._after_drain
    # Every stream word starts unknown, so each takes the decode path once.
    message_module._STREAM_ID_CACHE.clear()
    datagrams = datagrams_of(pub.stream.sensor_id)
    broker._drain_stamp = world.clock()
    for datagram in datagrams:
        on_datagram(datagram)
    after_drain([pub.address] * len(datagrams))
    streams = [StreamId(pub.stream.sensor_id, index) for index in range(3)]
    streams.append(STRANGER)
    [state] = [s for s in broker._states.values() if s.parked_now]
    registry, store = world.deployment.registry, world.deployment.store
    return {
        "sent": world.udp.take(),
        "parked": list(state.parked),
        "callback": seen,
        "errors": [str(context["exception"]) for context in errors],
        "counters": world.deployment.metrics_snapshot()["counters"],
        "stream stats": [
            dataclasses.asdict(registry.detect(s).stats) for s in streams
        ],
        "store": [store.read(stream) for stream in streams],
    }


FRAME_KINDS = (
    "plain", "plain", "plain", "ack", "relayed", "extended",
    "bad_crc", "truncated", "stranger",
)


@settings(max_examples=60, deadline=None, database=None)
@given(
    frames=st.lists(
        st.tuples(
            st.sampled_from(FRAME_KINDS), st.integers(0, 2), st.integers(0, 12)
        ),
        min_size=1,
        max_size=40,
    ),
    cuts=st.lists(st.integers(1, 6), min_size=40, max_size=40),
)
def test_the_frame_path_leaves_what_the_object_path_leaves(frames, cuts):
    """The oracle for the frame walk: a drain of bare and batched
    datagrams over up to three streams — with flagged frames, refused
    ones and a stream nobody advertised — sends the same bytes, parks,
    stores, counts and observes what decoding every frame and routing
    its arrivals leaves."""

    def datagrams_of(publisher_id):
        encoded = [
            frame_of(kind, StreamId(publisher_id, index), sequence)
            for kind, index, sequence in frames
        ]
        datagrams = []
        for size in cuts:
            group, encoded = encoded[:size], encoded[size:]
            if group:
                datagrams += encode_batch_datagrams(group)
        return datagrams

    assert frame_path_outcome(datagrams_of, reference=False) == (
        frame_path_outcome(datagrams_of, reference=True)
    )


def test_a_flood_of_stream_words_clears_the_cache_and_forwards_every_frame():
    """Over 4,096 distinct stream words in one drain, each between two
    frames of one known stream: the id cache is cleared wholesale while
    the drain's batches are being walked, and the subscriber still gets
    every frame once, in order."""
    world = World(store_enabled=False)
    sub = world.hello("sub", port=5001, batch_datagrams=True)
    sub.ok(SUBSCRIBE, derived=False)
    world.udp.take()
    message_module._STREAM_ID_CACHE.clear()
    known = StreamId(1, 0)
    frames = []
    for word in range(4500):
        frames += [
            CODEC.encode(DataMessage(known, 2 * word, b"k")),
            CODEC.encode(DataMessage(known, 2 * word + 1, b"k")),
            CODEC.encode(DataMessage(StreamId(2 + word // 4, word % 4), 0, b"f")),
        ]
    datagrams = encode_batch_datagrams(frames)
    world.broker._drain_stamp = world.clock()
    for datagram in datagrams:
        world.broker._on_datagram(datagram)
    world.broker._after_drain([(HOST, 5004)] * len(datagrams))
    assert len(message_module._STREAM_ID_CACHE) < len(frames)
    received = []
    for datagram, address in world.udp.take():
        assert address == sub.address
        received += datagram_frames(datagram)
    assert received == frames


def test_a_one_stream_drain_is_one_pass(tmp_path, monkeypatch):
    """A count, not a timing: once a stream has been heard, one 64-frame
    drain of it to one subscriber checks 64 CRCs and builds no message,
    enters the dispatcher once, makes one store append and one
    segment-file write, and forwards every frame it received
    (``encode_reuse`` 64)."""
    world = World(store_dir=str(tmp_path))
    sub = world.hello("sub", port=5001, batch_datagrams=True)
    sub.ok(SUBSCRIBE, kind="temp")
    pub = world.hello("pub", port=5002)
    pub.ok(ADVERTISE, stream_index=0, kind="temp")
    heard = world.publish(pub, 0)
    world.udp.take()
    world.counted()
    frames = [world.frame(pub.stream, sequence) for sequence in range(1, 65)]
    counts = collections.Counter()

    def count(owner, name):
        function = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(MessageCodec, "decode")
    count(message_module, "frame_messages")
    count(message_module, "crc_hqx")
    count(DispatchingService, "on_arrival")
    count(StreamStore, "append")
    count(_FileSegment, "_write")
    world.broker._drain_stamp = world.clock()
    for frame in frames:
        world.broker._on_datagram(frame)
    world.broker._after_drain([pub.address] * len(frames))
    assert counts == {"crc_hqx": 64, "on_arrival": 1, "append": 1, "_write": 1}
    assert world.counted()["encode_reuse"] == 64
    [(batch, address)] = world.udp.take()
    assert address == sub.address and decode_batch_datagram(batch) == frames
    assert [r.frame for r in world.deployment.store.read(pub.stream)] == (
        heard + frames
    )
    world.deployment.store.close()


def test_one_inbound_batch_is_dispatched_in_order_and_counted_once():
    """A publisher's 200-frame batch is one datagram in, 200 frames
    decoded and dispatched in order, and one drain."""
    world = World()
    sub = world.hello("sub", port=5001, batch_datagrams=True)
    sub.ok(SUBSCRIBE, kind="temp")
    pub = world.hello("pub", port=5002)
    pub.ok(ADVERTISE, stream_index=0, kind="temp")
    world.udp.take()
    world.counted()
    arrivals = world.deployment.metrics().counter("dispatch.arrivals")
    before = arrivals.value
    frames = [world.frame(pub.stream, sequence) for sequence in range(200)]
    [batch] = encode_batch_datagrams(frames)
    world.broker._drain_stamp = world.clock()
    assert world.broker._on_datagram(batch) == 200
    world.broker._after_drain([pub.address])
    moved = world.counted()
    assert {
        name: moved[name]
        for name in (
            "datagrams_in", "batch_datagrams_in", "batched_frames_in", "pumps"
        )
    } == {
        "datagrams_in": 1,
        "batch_datagrams_in": 1,
        "batched_frames_in": 200,
        "pumps": 1,
    }
    assert "bad_datagrams" not in moved
    assert arrivals.value - before == 200
    received = [
        frame
        for datagram, address in world.udp.take()
        if address == sub.address
        for frame in datagram_frames(datagram)
    ]
    assert received == frames


def reference_deliver(broker, state, arrival):
    """The per-arrival leg the run-level one replaced: one data callback
    per arrival, one encode and one queue or park per frame."""
    message = arrival.message
    remembered = message.wire
    frame = broker._codec.encode(message)
    if remembered is frame:
        broker._encode_reuse.inc()
    if state.udp_address is None:
        state.parked.append(frame)
    else:
        state.outbox.append(frame)
        broker._outboxes[state.token] = state


def leg_outcome(steps, reference):
    """Drive one server-side session's deliveries straight through its
    run entry point; what the leg left behind."""
    world = World()
    peer = world.hello("sub", port=5001)
    peer.ok(SUBSCRIBE, kind="temp")
    broker, state = world.broker, peer.connection.state
    session = state.session
    if reference:
        session._take_run = session._hand_over
        session.on_data(functools.partial(reference_deliver, broker, state))
    streams = [StreamId(900, 0), StreamId(900, 1)]
    for step, argument in steps:
        if step == "park":
            state.udp_address = None
        elif step == "unpark":
            state.udp_address = peer.address
        elif step == "replayed":
            index, sequence = argument
            session._history_windows.setdefault(
                streams[index], SequenceWindow(1024)
            ).add(sequence)
        else:
            index, frames = argument
            messages = [
                CODEC.decode(CODEC.encode(message)) if from_wire else message
                for sequence, from_wire in frames
                for message in [DataMessage(streams[index], sequence, b"p")]
            ]
            session._deliver(
                *(StreamArrival(message, 1000.0, -1, 1.0) for message in messages)
            )
    counters = world.deployment.metrics_snapshot()["counters"]
    return {
        "outbox": list(state.outbox),
        "parked": list(state.parked),
        "pending": state.token in broker._outboxes,
        "counters": {
            name: counters.get(name, 0)
            for name in (
                "transport.encode_reuse",
                "session.sub.deliveries",
                "session.sub.history_duplicates_dropped",
            )
        },
    }


LEG_STEPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["park", "unpark"]), st.none()),
        st.tuples(
            st.just("replayed"), st.tuples(st.integers(0, 1), st.integers(0, 12))
        ),
        st.tuples(
            st.just("run"),
            st.tuples(
                st.integers(0, 1),
                st.lists(
                    st.tuples(st.integers(0, 12), st.booleans()),
                    min_size=1,
                    max_size=8,
                ),
            ),
        ),
    ),
    max_size=12,
)


@settings(max_examples=150, deadline=None, database=None)
@given(steps=LEG_STEPS)
def test_the_run_leg_queues_what_the_per_arrival_leg_did(steps):
    """The oracle for the run-level leg: runs of decoded and in-process
    messages, a session parked and unparked between them, history
    windows primed in between, leave the same frames in the same order,
    split the same way between outbox and park buffer, with the same
    history-window drops and the same ``encode_reuse`` and
    ``deliveries`` counts as the per-arrival callback it replaced."""
    assert leg_outcome(steps, reference=False) == leg_outcome(
        steps, reference=True
    )


# ----------------------------------------------------------------------
# Client half: a threadless LiveSession wired to the broker in-process
# ----------------------------------------------------------------------
class Channel:
    """A control channel: requests go straight into ``_handle_frame``."""

    def __init__(self, wire):
        self.wire = wire
        self.peer = Peer(wire.world, HOST)
        self.assembler = ControlFrameAssembler()
        self.responses = []
        self.closed = False

    def sendall(self, data):
        if self.closed or self.peer.writer.aborted or self.wire.severed:
            raise ConnectionResetError("channel is dead")
        for frame_type, body in self.assembler.feed(data):
            self.wire.requests.append(CONTROL_FRAME_NAMES[frame_type])
            response = self.wire.world.broker._handle_frame(
                self.peer.connection, frame_type, body
            )
            self.responses.append(
                encode_control_frame(frame_type | RESPONSE_FLAG, response)
            )

    def recv(self, size):
        return self.responses.pop(0) if self.responses else b""

    def close(self):
        if not self.closed:
            self.closed = True
            self.peer.eof()


class Wire:
    """``client._SocketWire`` without the sockets: the same six things —
    dial, sendto, receive, clock, wait, soon — against a ``World``.
    ``soon`` runs the flusher's call inline, so every publish leaves
    before ``publish`` returns."""

    udp_port = 6000

    def __init__(self, world):
        self.world = world
        self.clock = world.clock
        self.requests = []
        self.waits = []
        self.severed = False  # the network: dials and requests fail
        self.closed = False
        self.control = self.dial()

    def dial(self):
        if self.severed:
            raise ConnectionRefusedError("no route to the broker")
        return Channel(self)

    def sendto(self, datagram, address):
        assert address == ("broker.test", DATA_PORT)
        if not self.severed:
            broker = self.world.broker
            broker._drain_stamp = self.clock()
            broker._on_datagram(datagram)
            broker._after_drain([(HOST, self.udp_port)])

    def wait(self, seconds):
        self.waits.append(seconds)
        self.clock.now += seconds
        return self.closed

    def soon(self, call):
        call()

    def receive(self):
        return None

    def close(self):
        self.closed = True


FAST = BackoffPolicy(base=0.05, multiplier=2.0, max_delay=0.2, jitter=0.0, max_attempts=3)


def live_session(world, name, monkeypatch, **options):
    monkeypatch.setattr(
        client_module, "_SocketWire", lambda host, port, timeout: Wire(world)
    )
    session = LiveSession("garnet://broker.test:7341", name, **options)
    assert session._reader is None and session._housekeeper is None
    world.udp.listeners[(HOST, Wire.udp_port)] = session._handle_datagram
    return session


def threadless_session(world, name, **options):
    """``live_session`` for callers without a function-scoped monkeypatch
    (a module-scoped fixture, a thread test): the patches last only as
    long as the handshake."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LiveSession, "_start_threads", lambda self: None)
        return live_session(world, name, patch, **options)


@pytest.fixture
def pair(monkeypatch):
    """A store-backed world, a raw publisher and a resilient subscriber."""
    monkeypatch.setattr(LiveSession, "_start_threads", lambda self: None)
    world = World()
    publisher = world.hello("pub", port=5001)
    publisher.ok(ADVERTISE, stream_index=0, kind="temp")
    subscriber = live_session(
        world, "sub", monkeypatch, reconnect=FAST, keepalive=0.5
    )
    subscriber.received = []
    subscriber.on_data(
        lambda arrival: subscriber.received.append(arrival.message.sequence)
    )
    subscriber.subscribe(kind="temp")
    return world, publisher, subscriber


class TestClientHalf:
    def test_duplicates_are_dropped_before_the_callbacks(self, pair):
        world, publisher, subscriber = pair
        [frame] = world.publish(publisher, 0)
        subscriber._handle_datagram(frame)  # the network repeats itself
        assert subscriber.received == [0]
        assert subscriber.stats.duplicates_dropped == 1
        assert subscriber.stats.deliveries == 1

    def test_gap_is_nacked_only_after_the_repair_delay(self, pair):
        world, publisher, subscriber = pair
        world.publish(publisher, 0)
        world.udp.drop = 1
        world.publish(publisher, 1)  # lost on the way out
        world.publish(publisher, 2)
        assert subscriber.received == [0, 2]
        assert subscriber.stats.gaps_detected == 1
        wire = subscriber._wire
        wire.requests.clear()
        world.clock.now += client_module._REPAIR_DELAY / 2
        subscriber._repair_tick()
        assert wire.requests == []  # too young to ask about
        world.clock.now += client_module._REPAIR_DELAY / 2
        subscriber._repair_tick()
        assert wire.requests == ["NACK"]
        assert subscriber.received == [0, 2, 1]
        assert subscriber.stats.gaps_repaired == 1
        subscriber._repair_tick()
        assert wire.requests == ["NACK"]  # repaired: nothing left to ask

    def test_a_tail_resend_past_the_window_is_not_delivered_again(
        self, monkeypatch
    ):
        # Regression: a window bounded by entries had forgotten 5 and
        # delivered the resend a second time.
        monkeypatch.setattr(LiveSession, "_start_threads", lambda self: None)
        world = World(store_enabled=False)  # the broker dedupes nothing
        publisher = world.hello("pub", port=5001)
        publisher.ok(ADVERTISE, stream_index=0, kind="temp")
        subscriber = live_session(world, "sub", monkeypatch)
        received = []
        subscriber.on_data(
            lambda arrival: received.append(arrival.message.sequence)
        )
        subscriber.subscribe(kind="temp")
        world.publish(publisher, *range(1100))
        world.publish(publisher, 5)  # 1,094 positions behind the newest
        assert received == list(range(1100))
        assert subscriber.stats.duplicates_dropped == 1

    def test_a_repair_past_the_window_is_delivered_once(self, pair):
        world, publisher, subscriber = pair
        world.publish(publisher, 0)
        world.udp.drop = 1
        world.publish(publisher, 1)  # lost on the way out
        world.publish(publisher, *range(2, 1100))
        world.clock.now += client_module._REPAIR_DELAY
        subscriber._repair_tick()
        assert subscriber.received == [0, *range(2, 1100), 1]
        assert subscriber.stats.gaps_repaired == 1
        world.publish(publisher, 1)  # and once more, late
        assert subscriber.received.count(1) == 1
        assert subscriber.stats.duplicates_dropped == 1

    def test_what_the_broker_cannot_repair_is_given_up_on(self, monkeypatch):
        monkeypatch.setattr(LiveSession, "_start_threads", lambda self: None)
        world = World(store_enabled=False)
        publisher = world.hello("pub", port=5001)
        publisher.ok(ADVERTISE, stream_index=0, kind="temp")
        subscriber = live_session(world, "sub", monkeypatch, reconnect=FAST)
        received = []
        subscriber.on_data(
            lambda arrival: received.append(
                (arrival.message.sequence, arrival.message.payload)
            )
        )
        subscriber.subscribe(kind="temp")
        world.publish(publisher, 0)
        world.udp.take()
        world.udp.drop = 1
        lost = world.publish(publisher, 1, 2)
        # One drain, one batch datagram: both frames were lost together.
        [(batch, _)] = world.udp.take()
        assert decode_batch_datagram(batch) == lost
        world.publish(publisher, 3)
        assert received == [(0, b"p"), (3, b"p")]
        assert subscriber.stats.gaps_detected == 2
        world.clock.now += client_module._REPAIR_DELAY
        subscriber._wire.requests.clear()
        subscriber._repair_tick()
        assert subscriber.stats.gaps_unrepairable == 2
        subscriber._repair_tick()
        assert subscriber._wire.requests == ["NACK"]  # asked once, not again

    def test_keepalive_pings_on_its_period_and_notices_a_dead_channel(
        self, pair
    ):
        world, _, subscriber = pair
        wire = subscriber._wire
        wire.requests.clear()
        subscriber._keepalive_tick()
        assert wire.requests == []
        world.clock.now += 0.5
        subscriber._keepalive_tick()
        assert wire.requests == ["PING"]
        states = []
        subscriber.on_state(states.append)
        wire.severed = True
        world.clock.now += 0.5
        subscriber._keepalive_tick()
        assert subscriber.stats.keepalive_failures == 1
        assert subscriber.state == "reconnecting" and states == ["reconnecting"]
        assert world.tables()["states"]["sub"] == "parked"

    def test_resume_replays_the_outage_and_resends_the_tail(self, pair):
        world, publisher, subscriber = pair
        watcher = world.hello("watcher", port=5002)
        mine = StreamId(subscriber.publisher_id, 0)
        watcher.ok(SUBSCRIBE, stream_id=list(mine))
        subscriber.publish(0, b"before")
        world.publish(publisher, 0)
        world.udp.take()
        subscriber._wire.severed = True
        with pytest.raises(TransportError):
            subscriber.ping()
        assert subscriber.state == "reconnecting"
        with pytest.raises(TransportError, match="reconnecting"):
            subscriber.ping()
        world.publish(publisher, 1, 2)  # missed: parked and stored
        subscriber.publish(0, b"during")  # buffered, sequence 1
        assert subscriber.stats.buffered_publishes == 1
        subscriber._wire.severed = False
        subscriber._wire.requests.clear()
        subscriber._run_reconnect()
        assert subscriber._wire.requests == ["RESUME"]
        assert subscriber.state == "connected"
        assert subscriber.received == [0, 1, 2]
        stats = subscriber.stats
        assert (stats.resumes, stats.rehellos, stats.replayed) == (1, 0, 2)
        assert (stats.reconnects, stats.tail_resends) == (1, 1)
        # The watcher saw "before" once more (the tail) and then "during".
        to_watcher = [
            world.deployment.codec.decode(data)
            for data, address in world.udp.take()
            if address == watcher.address
        ]
        assert [(m.sequence, m.payload) for m in to_watcher] == [
            (0, b"before"), (1, b"during"),
        ]

    def test_a_redial_that_close_overtakes_leaves_its_socket_closed(self, pair):
        """close() runs while a reconnect attempt is mid-handshake: the
        attempt's new control channel is closed, not adopted, and the
        session stays closed."""
        world, _, subscriber = pair
        subscriber._wire.severed = True
        with pytest.raises(TransportError):
            subscriber.ping()
        subscriber._wire.severed = False
        dialed = []
        dial = subscriber._wire.dial

        def dial_then_close():
            channel = dial()
            dialed.append(channel)
            subscriber.close()  # the caller's close, racing the redial
            return channel

        subscriber._wire.dial = dial_then_close
        subscriber._run_reconnect()
        assert len(dialed) == 1 and dialed[0].closed
        assert subscriber.state == "closed"
        assert subscriber.stats.reconnects == 0

    @staticmethod
    def redial_after_the_grace(world, publisher, subscriber):
        """Cut the subscriber off until its parked session expires, then
        let it redial: its token is refused and it falls back to HELLO."""
        subscriber._wire.severed = True
        with pytest.raises(TransportError):
            subscriber.ping()
        for _ in range(6):  # the parked session's grace runs out
            world.clock.now += 1.0
            publisher.ok(PING)
            world.broker._housekeeping_tick()
        assert world.tables()["states"] == {"pub": "bound"}
        subscriber._wire.severed = False
        subscriber._wire.requests.clear()
        subscriber._run_reconnect()

    def test_refused_token_falls_back_to_hello_and_reinstalls_the_ledgers(
        self, pair
    ):
        world, publisher, subscriber = pair
        subscriber.publish(3, b"x", kind="wind")  # an advertisement to redo
        old_token = subscriber.resume_token
        self.redial_after_the_grace(world, publisher, subscriber)
        assert subscriber._wire.requests == [
            "RESUME", "HELLO", "SUBSCRIBE", "ADVERTISE",
        ]
        assert (subscriber.stats.resumes, subscriber.stats.rehellos) == (0, 1)
        assert subscriber.resume_token not in (None, old_token)
        assert world.tables()["subscriptions"] == {"sub": 1}
        assert len(subscriber.subscription_ids) == 1
        [wind] = world.hello("w", port=5003).ok(DISCOVER, kind="wind")["streams"]
        assert wind["sensor_id"] == subscriber.publisher_id
        assert wind["stream_index"] == 3
        world.publish(publisher, 0)
        assert subscriber.received == [0]

    def test_a_held_id_still_unsubscribes_after_the_fallback_to_hello(
        self, pair
    ):
        world, publisher, subscriber = pair
        [first] = subscriber.subscription_ids
        held = subscriber.subscribe(kind="wind")
        subscriber.unsubscribe(first)
        self.redial_after_the_grace(world, publisher, subscriber)
        assert subscriber.stats.rehellos == 1
        assert world.tables()["subscriptions"] == {"sub": 1}
        # The broker's fresh session knows it as 1; the caller holds 2.
        assert subscriber.subscription_ids == (held,) == (2,)
        subscriber.unsubscribe(held)
        assert subscriber.subscription_ids == ()
        assert world.tables()["subscriptions"] == {}
        with pytest.raises(TransportError, match="unknown subscription"):
            subscriber.unsubscribe(held)

    def test_outage_buffer_overflow_drops_the_oldest(self, pair, monkeypatch):
        world, _, subscriber = pair
        monkeypatch.setattr(client_module, "_PUBLISH_BUFFER", 4)
        subscriber._wire.severed = True
        with pytest.raises(TransportError):
            subscriber.ping()
        for index in range(6):
            subscriber.publish(0, bytes([index]))
        assert subscriber.stats.buffered_publishes == 6
        assert subscriber.stats.buffer_overflows == 2
        assert [entry[1] for entry in subscriber._publish_buffer] == [2, 3, 4, 5]

    def test_a_flush_cut_short_keeps_what_it_did_not_send(self, pair):
        # The connection dies again mid-flush, at the ADVERTISE of a
        # stream first published during the outage. Their sequences are
        # spent, so that entry and every one behind it must stay buffered.
        world, _, subscriber = pair
        watcher = world.hello("watcher", port=5002)
        for index in (0, 1):
            watcher.ok(SUBSCRIBE, stream_id=[subscriber.publisher_id, index])
        subscriber.publish(0, b"before", kind="temp")
        wire = subscriber._wire
        wire.severed = True
        with pytest.raises(TransportError):
            subscriber.ping()
        subscriber.publish(0, b"a")
        subscriber.publish(1, b"b", kind="wind")  # advertised at the flush
        subscriber.publish(0, b"c")
        assert subscriber.stats.buffered_publishes == 3
        codec = world.deployment.codec
        sendto = wire.sendto

        def sever_after_a(datagram, address):
            sendto(datagram, address)
            if codec.decode(datagram).payload == b"a":
                wire.severed = True

        wire.sendto = sever_after_a
        wire.severed = False
        subscriber._run_reconnect()
        assert subscriber.state == "reconnecting"
        assert [entry[2] for entry in subscriber._publish_buffer] == [b"b", b"c"]
        wire.sendto, wire.severed = sendto, False
        subscriber._run_reconnect()
        assert subscriber.state == "connected" and not subscriber._publish_buffer
        firsts = []
        for data, address in world.udp.take():
            message = codec.decode(data)
            sent = (message.stream_id.stream_index, message.sequence, message.payload)
            if address == watcher.address and sent not in firsts:
                firsts.append(sent)
        assert firsts == [
            (0, 0, b"before"), (0, 1, b"a"), (1, 0, b"b"), (0, 2, b"c"),
        ]
        assert subscriber.stats.buffer_overflows == 0

    def test_gives_up_after_max_attempts(self, pair):
        world, _, subscriber = pair
        states = []
        subscriber.on_state(states.append)
        subscriber._wire.severed = True
        with pytest.raises(TransportError):
            subscriber.ping()
        subscriber._wire.waits.clear()
        subscriber._run_reconnect()
        assert subscriber._wire.waits == [0.05, 0.1, 0.2]  # FAST, no jitter
        assert subscriber.closed and subscriber.state == "closed"
        assert states == ["reconnecting", "closed"]
        assert subscriber._wire.closed
        with pytest.raises(TransportError, match="closed"):
            subscriber.publish(0, b"x")
        subscriber.close()  # idempotent
        assert states == ["reconnecting", "closed"]

    def test_close_says_close_once_and_frees_the_broker_side(self, pair):
        world, _, subscriber = pair
        subscriber._wire.requests.clear()
        subscriber.close()
        subscriber.close()
        assert subscriber._wire.requests == ["CLOSE"]
        assert world.tables() == {
            "connections": ["pub"],
            "states": {"pub": "bound"},
            "udp_peers": {5001: "pub"},
            "subscriptions": {},
        }

    def test_an_overlong_publish_is_refused_before_it_costs_anything(
        self, pair
    ):
        # (d) the codec builds it, UDP cannot carry it.
        world, _, subscriber = pair
        watcher = world.hello("watcher", port=5002)
        watcher.ok(SUBSCRIBE, stream_id=[subscriber.publisher_id, 0])
        world.udp.take()
        with pytest.raises(TransportError, match="datagram"):
            subscriber.publish(0, b"x" * 65535, kind="bulk")
        assert subscriber.stats.published == 0
        assert not subscriber._resend_tail
        assert subscriber._ledger.advertised == {}
        subscriber._wire.severed = True
        with pytest.raises(TransportError):
            subscriber.ping()
        with pytest.raises(TransportError, match="datagram"):
            subscriber.publish(0, b"x" * 65535)  # not buffered either
        assert not subscriber._publish_buffer
        subscriber._wire.severed = False
        subscriber._run_reconnect()
        subscriber.publish(0, b"fits")
        [(data, _)] = [
            sent for sent in world.udp.take() if sent[1] == watcher.address
        ]
        assert world.deployment.codec.decode(data).sequence == 0  # no gap


@pytest.fixture
def batching(monkeypatch):
    """A publishing session whose flusher calls wait in ``soon`` until the
    test runs them, a watcher on its stream, and a log of the wire:
    control requests by name, datagrams by the frames they carry."""
    monkeypatch.setattr(LiveSession, "_start_threads", lambda self: None)
    world = World()
    session = live_session(world, "pub", monkeypatch)
    watcher = world.hello("watcher", port=5002)
    watcher.ok(SUBSCRIBE, stream_id=[session.publisher_id, 0])
    session.publish(0, b"first", kind="temp")  # the ADVERTISE, done
    world.udp.take()
    wire = session._wire
    session.calls = []
    wire.soon = session.calls.append
    wire.requests = session.log = []
    sendto = wire.sendto

    def logged(datagram, address):
        session.log.append(len(datagram_frames(datagram)))
        sendto(datagram, address)

    wire.sendto = logged

    def to_watcher():
        return [
            CODEC.decode(frame)
            for datagram, address in world.udp.take()
            if address == watcher.address
            for frame in datagram_frames(datagram)
        ]

    session.to_watcher = to_watcher
    return world, session


class TestPublishBatching:
    def test_a_burst_leaves_as_one_in_order_batch(self, batching):
        world, session = batching
        for index in range(5):
            session.publish(0, bytes([index]))
        assert session.log == [] and len(session.calls) == 1
        session.calls.pop()()  # the flusher runs when the burst ends
        assert session.log == [5]
        assert [m.sequence for m in session.to_watcher()] == [1, 2, 3, 4, 5]
        stats = session.stats
        assert (stats.batch_datagrams_out, stats.batched_frames_out) == (1, 5)
        assert world.counted()["batched_frames_in"] == 5

    def test_a_control_request_sends_what_was_published_first(self, batching):
        world, session = batching
        session.publish(0, b"a")
        session.publish(0, b"b")
        session.ping()
        session.publish(0, b"c")
        # "c" rides the call "a" woke, still on its way.
        assert session.log == [2, "PING"] and len(session.calls) == 1
        session.calls.pop()()
        assert session.log == [2, "PING", 1]
        assert [m.payload for m in session.to_watcher()] == [b"a", b"b", b"c"]

    def test_close_flushes(self, batching):
        world, session = batching
        session.publish(0, b"a")
        session.publish(0, b"b")
        session.close()
        assert session.log == [2, "CLOSE"]
        assert [m.payload for m in session.to_watcher()] == [b"a", b"b"]

    def test_a_full_budget_leaves_inline(self, batching):
        world, session = batching
        payload = b"x" * 20_000  # two frames to a batch, not three
        for _ in range(5):
            session.publish(0, payload)
        assert session.log == [2, 2] and len(session.calls) == 1
        session.calls.pop()()
        assert session.log == [2, 2, 1]
        assert [m.sequence for m in session.to_watcher()] == [1, 2, 3, 4, 5]
        moved = world.counted()
        assert (moved["batch_datagrams_in"], moved["batched_frames_in"]) == (2, 4)
        assert "bad_datagrams" not in moved


# ----------------------------------------------------------------------
# Client hot path: the publish frame, the receive ledger, the counts
# ----------------------------------------------------------------------
CODEC = MessageCodec()


@pytest.fixture(scope="module")
def recording_session():
    """One threadless session, shared by a property's examples, whose
    datagrams are kept instead of sent."""
    session = threadless_session(World(), "frames")
    session.sent = []
    session._wire.sendto = (
        lambda datagram, address, sent=session.sent: sent.append(datagram)
    )
    session.sequences = collections.Counter()  # the test's own count
    return session


PUBLISHES = st.tuples(
    st.integers(0, 255),
    st.binary(max_size=300),
    st.booleans(),  # fused
    st.booleans(),  # encrypted
    st.lists(
        st.tuples(st.integers(0, 255), st.binary(max_size=8)), max_size=3
    ).map(tuple),
)


@settings(max_examples=200, deadline=None, database=None)
@given(publishes=st.lists(PUBLISHES, min_size=1, max_size=4))
def test_the_publish_frame_is_the_codecs_frame(recording_session, publishes):
    session = recording_session
    for index, payload, fused, encrypted, extensions in publishes:
        stream_id = StreamId(session.publisher_id, index)
        sequence = session.sequences[index]
        session.sequences[index] += 1
        returned = session.publish(
            index, payload, fused=fused, encrypted=encrypted,
            extensions=extensions,
        )
        assert returned == stream_id
        expected = CODEC.encode(
            DataMessage(
                stream_id, sequence, payload, fused=fused,
                encrypted=encrypted, extensions=extensions,
            )
        )
        assert session.sent.pop() == expected


def test_a_refused_publish_raises_what_the_codec_raises_and_spends_nothing():
    session = threadless_session(World(), "refused")
    sent = []
    session._wire.sendto = lambda datagram, address: sent.append(datagram)
    session.publish(1, b"framed")  # index 1 cached: True must not find it
    sent.clear()
    refusals = [
        (256, b"x", FieldRangeError),
        (-1, b"x", FieldRangeError),
        (True, b"x", FieldRangeError),
        (0, bytes(MAX_UDP_PAYLOAD - 10), TransportError),
        (0, bytes(65536), CodecError),
    ]
    for index, payload, error in refusals:
        with pytest.raises(error) as refused:
            session.publish(index, payload)
        assert refused.type is error
    assert sent == [] and session.stats.published == 1
    assert session._publish_sequences == {1: 1}
    session.publish(0, b"fits")
    [frame] = sent
    assert CODEC.decode(frame).sequence == 0


class ReferenceClient:
    """The client's receive ledger as the per-frame loop it used to be:
    each frame decoded, deduplicated, gap-tracked and delivered alone."""

    def __init__(self):
        self.counts = collections.Counter()
        self.delivered = []
        self.windows = {}
        self.latest = {}
        self.missing = {}

    def datagram(self, data):
        """Take one datagram; returns how many frames it counts as."""
        if is_batch_datagram(data):
            try:
                frames = decode_batch_datagram(data)
            except GarnetError:
                self.counts["bad_datagrams"] += 1
                return 1
            self.counts["batch_datagrams"] += 1
            self.counts["batched_frames"] += len(frames)
        else:
            frames = [data]
        for frame in frames:
            self.frame(frame)
        return len(frames)

    def frame(self, frame):
        try:
            message = CODEC.decode(frame)
        except GarnetError:
            self.counts["bad_datagrams"] += 1
            return
        key, sequence = tuple(message.stream_id), message.sequence
        window = self.windows.setdefault(key, SequenceWindow(1024))
        missing = self.missing.setdefault(key, set())
        latest = self.latest.get(key)
        jump = 0 if latest is None else (sequence - latest) % (1 << 16)
        if sequence in missing:
            # Never delivered: a repair is fresh however far behind.
            missing.discard(sequence)
            window.add(sequence)
            self.counts["gaps_repaired"] += 1
        elif not window.add(sequence):
            self.counts["duplicates_dropped"] += 1
            return
        elif 1 < jump < client_module._MAX_GAP_RUN:
            for offset in range(1, jump):
                missed = (latest + offset) % (1 << 16)
                if missed not in missing:
                    missing.add(missed)
                    self.counts["gaps_detected"] += 1
        if latest is None or jump < (1 << 15):
            self.latest[key] = sequence
        self.counts["deliveries"] += 1
        self.counts["callback_errors"] += raises_on(sequence)
        self.delivered.append((key, sequence, message.payload))


def raises_on(sequence):
    """Whether the ledger session's second callback raises."""
    return sequence % 7 == 3


FRAME = st.tuples(
    st.integers(0, 1), st.integers(0, 40), st.binary(max_size=6)
)
TRAFFIC = st.lists(
    st.one_of(
        st.tuples(st.just("bare"), st.lists(FRAME, min_size=1, max_size=1)),
        st.tuples(st.just("batch"), st.lists(FRAME, min_size=2, max_size=6)),
        st.tuples(st.just("again"), st.integers(0, 50)),
        st.tuples(
            st.just("flipped"),
            st.lists(FRAME, min_size=1, max_size=4),
            st.integers(1, 4),  # how many of the frames
            st.integers(0, 200),
            st.integers(1, 255),
        ),
        st.tuples(
            st.just("truncated"),
            st.lists(FRAME, min_size=2, max_size=4),
            st.integers(1, 40),
        ),
    ),
    min_size=1,
    max_size=12,
)


def datagrams_of(traffic, sensor):
    def frame(index, sequence, payload):
        return CODEC.encode(
            DataMessage(StreamId(sensor, index), sequence, payload)
        )

    datagrams = []
    for kind, frames, *rest in traffic:
        if kind == "again":
            if datagrams:
                datagrams.append(datagrams[frames % len(datagrams)])
            continue
        frames = [frame(*spec) for spec in frames]
        if kind == "flipped":  # one byte of each of the first ``count``
            count, position, mask = rest
            for index, flipped in enumerate(map(bytearray, frames[:count])):
                flipped[position % len(flipped)] ^= mask
                frames[index] = bytes(flipped)
        [datagram] = encode_batch_datagrams(frames)
        if kind == "truncated":
            datagram = datagram[: -(1 + rest[0] % (len(datagram) - 6))]
        datagrams.append(datagram)
    return datagrams


@pytest.fixture(scope="module")
def ledger_session():
    """One session for every example; each example publishes as a fresh
    sensor, so its streams start with no history."""
    session = threadless_session(World(), "ledger")
    session.sensors = itertools.count(1)
    session.seen = []
    session.on_data(
        lambda arrival: session.seen.append(
            (
                tuple(arrival.message.stream_id),
                arrival.message.sequence,
                arrival.message.payload,
            )
        )
    )

    def buggy(arrival):
        if raises_on(arrival.message.sequence):
            raise RuntimeError("a consumer bug")

    session.on_data(buggy)
    return session


@settings(max_examples=200, deadline=None, database=None)
@given(traffic=TRAFFIC)
def test_the_clients_ledger_is_the_per_frame_loops(ledger_session, traffic):
    """Datagram by datagram, the client delivers what the per-frame
    reference would, in its order, and counts what it would count; every
    frame received is a delivery, a duplicate or a bad frame (a batch too
    malformed to unpack is one bad datagram)."""
    session = ledger_session
    datagrams = datagrams_of(traffic, next(session.sensors))
    reference = ReferenceClient()
    before = session.stats.as_dict()
    session.seen.clear()
    received = 0
    for datagram in datagrams:
        session._handle_datagram(datagram)
        received += reference.datagram(datagram)
    moved = {
        name: value - before[name]
        for name, value in session.stats.as_dict().items()
    }
    assert session.seen == reference.delivered
    assert moved == {**dict.fromkeys(moved, 0), **reference.counts}
    assert received == (
        moved["deliveries"] + moved["duplicates_dropped"]
        + moved["bad_datagrams"]
    )


class CountingLock:
    def __init__(self, counts):
        self.counts = counts
        self.lock = threading.Lock()

    def __enter__(self):
        self.counts["lock acquisitions"] += 1
        return self.lock.__enter__()

    def __exit__(self, *exc_info):
        return self.lock.__exit__(*exc_info)


def test_the_client_hot_path_builds_no_message_and_locks_once_a_datagram(
    monkeypatch,
):
    """A count, not a timing: 1,000 publishes build no ``DataMessage`` and
    run no encoder; 100 ten-frame batches take the delivery lock and read
    the clock once each."""
    session = threadless_session(World(), "ratchet")
    sent, received = [], []
    session._wire.sendto = lambda datagram, address: sent.append(datagram)
    session.on_data(received.append)
    batches = [
        encode_batch_datagrams(
            [
                CODEC.encode(DataMessage(StreamId(9, 0), sequence, b"p"))
                for sequence in range(first, first + 10)
            ]
        )[0]
        for first in range(0, 1000, 10)
    ]
    counts = collections.Counter()

    def counting(name, function):
        def counted(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return counted

    monkeypatch.setattr(
        client_module, "DataMessage", counting("messages", DataMessage)
    )
    monkeypatch.setattr(
        MessageCodec,
        "_build_frame",
        counting("encoder runs", MessageCodec._build_frame),
    )
    monkeypatch.setattr(
        client_module,
        "time",
        types.SimpleNamespace(time=counting("clock reads", time.time)),
    )
    session._delivery_lock = CountingLock(counts)
    for _ in range(1000):
        session.publish(0, b"x")
    assert counts == {} and len(sent) == 1000
    for batch in batches:
        session._handle_datagram(batch)
    assert counts == {"lock acquisitions": 100, "clock reads": 100}
    assert len(received) == session.stats.deliveries == 1000
