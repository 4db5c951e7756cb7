"""The live broker forwards bytes, not objects: a call-count ratchet.

A socket-free broker (never started: the broker's own data-plane socket
wrapper around a recording socket, a fixed clock) takes a fixed number of drains, each one §7 batch datagram of 32 frames
from one publisher, and forwards them to one subscriber that asked for
batch datagrams. ``cProfile`` counts every Python and C call the drains
make — decode, routing, the store, the forwarding leg, the flush — and
the count per forwarded frame must stay within its budget. Call counts
repeat exactly run to run, unlike timings, so a change that adds one
call per frame fails here on any host.

The budgets are keyed by Python minor version (3.12 inlines list
comprehensions, which 3.11 calls) and sit less than one call per frame
above what the code makes today; a change that lowers the count lowers
its budget with it.
"""

from __future__ import annotations

import cProfile
import pstats
import sys

from repro.core.config import GarnetConfig
from repro.core.message import DataMessage
from repro.core.middleware import Garnet
from repro.core.streamid import StreamId
from repro.fanout.frames import encode_batch_datagrams
from repro.transport import LiveBroker
from repro.transport.broker import _DataPlaneSocket
from repro.transport.framing import ADVERTISE, HELLO, SUBSCRIBE

DRAINS = 100
FRAMES_PER_DRAIN = 32
#: Calls per forwarded frame, ``(storeless, memory store)``, by Python
#: minor version: 10.44 and 17.45 on 3.11, 10.34 and 17.23 on 3.12, where
#: the per-arrival broker made 32.3 and 40.1. Other versions get the
#: ceiling; the storeless budget never exceeds 15.
BUDGETS = {
    (3, 11): (11.0, 18.0),
    (3, 12): (11.0, 18.0),
}
CEILING = (15.0, 20.0)


class _RecordingSocket:
    """Stands in for the bound UDP socket; it never blocks."""

    def __init__(self):
        self.sent = []

    def fileno(self):
        return -1

    def sendto(self, data, address):
        self.sent.append((data, address))


class _NoLoop:
    """The event loop's reader hook, never fired: drains are driven by hand."""

    def add_reader(self, fd, callback):
        pass


def _hello(broker, name, port, **extra):
    connection = broker._accept("10.0.0.1")
    welcome = broker._handle_frame(
        connection, HELLO, {"name": name, "udp_port": port, **extra}
    )
    assert welcome["ok"], welcome
    return connection, welcome


def calls_per_frame(store: bool) -> float:
    """Calls per forwarded frame over ``DRAINS`` drains, after a warm-up
    that fills every cache the steady state reads."""
    clock = lambda: 1000.0  # noqa: E731 - a fixed clock
    deployment = Garnet(
        config=GarnetConfig(
            publish_location_stream=False,
            store_enabled=store,
            transport_resume_grace=5.0,
            broker_lease_ttl=2.0,
        )
    )
    broker = LiveBroker(deployment)
    broker._clock = deployment.broker.lease_clock = clock
    deployment.arrival_clock = clock
    udp = _RecordingSocket()
    broker._udp = _DataPlaneSocket(broker, _NoLoop(), udp)
    subscriber, _ = _hello(broker, "sub", 5001, batch_datagrams=True)
    assert broker._handle_frame(
        subscriber, SUBSCRIBE, {"kind": "temp"}
    )["ok"]
    publisher, welcome = _hello(broker, "pub", 5002)
    assert broker._handle_frame(
        publisher, ADVERTISE, {"stream_index": 0, "kind": "temp"}
    )["ok"]
    stream = StreamId(welcome["publisher_id"], 0)
    codec = deployment.codec
    warmup = 4
    batches = [
        encode_batch_datagrams(
            [
                codec.encode(DataMessage(stream, sequence & 0xFFFF, b"p" * 8))
                for sequence in range(first, first + FRAMES_PER_DRAIN)
            ]
        )[0]
        for first in range(0, (warmup + DRAINS) * FRAMES_PER_DRAIN, FRAMES_PER_DRAIN)
    ]

    def drain(batch):
        broker._drain_stamp = clock()
        broker._on_datagram(batch)
        broker._after_drain([("10.0.0.1", 5002)])

    for batch in batches[:warmup]:
        drain(batch)
    udp.sent.clear()
    profile = cProfile.Profile()
    profile.enable()
    for batch in batches[warmup:]:
        drain(batch)
    profile.disable()
    # Every frame reached the subscriber, one batch datagram per drain.
    assert len(udp.sent) == DRAINS
    assert {address for _, address in udp.sent} == {("10.0.0.1", 5001)}
    if store:
        assert len(deployment.store.read(stream)) == (
            (warmup + DRAINS) * FRAMES_PER_DRAIN
        )
    return pstats.Stats(profile).total_calls / (DRAINS * FRAMES_PER_DRAIN)


def _budget(store: bool) -> float:
    return BUDGETS.get(sys.version_info[:2], CEILING)[store]


def test_storeless_forwarding_stays_within_its_call_budget():
    assert calls_per_frame(store=False) <= _budget(False) <= 15.0


def test_stored_forwarding_stays_within_its_call_budget():
    assert calls_per_frame(store=True) <= _budget(True)
