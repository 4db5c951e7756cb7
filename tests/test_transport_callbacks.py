"""A LiveSession's callbacks never run concurrently; its flusher survives.

Two threads deliver into one session: the reader (each datagram) and the
housekeeper (what a NACK repairs). The session holds one lock across a
unit's tracking, counters *and* callbacks, so a repaired frame's
callbacks wait for the reader's and no count is lost. The flusher thread
that sends queued publishes outlives a send the OS refuses. No socket and no
sleep: the session is the threadless one of ``test_transport_protocol``,
the threads are started here, and every wait is bounded.
"""

from __future__ import annotations

import sys
import threading

from repro.core.message import DataMessage, MessageCodec
from repro.core.streamid import StreamId
from repro.fanout.frames import encode_batch_datagrams
from repro.transport import client as client_module
from repro.transport.framing import ADVERTISE
from tests.test_transport_protocol import FAST, World, threadless_session

#: Upper bound on any wait: a broken lock fails the test, never hangs it.
WAIT = 5.0


def test_a_repaired_frame_waits_for_the_readers_callbacks():
    world = World()
    publisher = world.hello("pub", port=5001)
    publisher.ok(ADVERTISE, stream_index=0, kind="temp")
    session = threadless_session(world, "sub", reconnect=FAST)
    inside, release, overlapped = (threading.Event() for _ in range(3))
    running, log = [], []

    def callback(arrival):
        sequence = arrival.message.sequence
        if running:
            overlapped.set()
        running.append(sequence)
        log.append(("enter", sequence))
        if sequence == 3:  # the reader's delivery holds here
            inside.set()
            release.wait(WAIT)
        log.append(("exit", sequence))
        running.remove(sequence)

    session.on_data(callback)
    session.subscribe(kind="temp")
    world.publish(publisher, 0)
    world.udp.drop = 1
    world.publish(publisher, 1)  # lost on the way: a gap to repair
    world.publish(publisher, 2)
    world.clock.now += client_module._REPAIR_DELAY
    log.clear()

    reader = threading.Thread(
        target=session._handle_datagram,
        args=(world.frame(publisher.stream, 3),),
    )
    housekeeper = threading.Thread(target=session._repair_tick)
    reader.start()
    assert inside.wait(WAIT)
    housekeeper.start()
    # The repair gets as far as the lock and no further while the
    # reader's callback is inside.
    assert not overlapped.wait(0.2)
    release.set()
    for thread in (reader, housekeeper):
        thread.join(WAIT)
        assert not thread.is_alive()
    assert not overlapped.is_set()
    assert log == [("enter", 3), ("exit", 3), ("enter", 1), ("exit", 1)]
    assert session.stats.gaps_repaired == 1


def test_deliveries_racing_on_four_threads_lose_no_count():
    """More delivering threads than cores, switching every microsecond.
    Each thread delivers a stream of its own and one stream all four
    share: every frame is delivered once and counted once, whichever
    thread wins it, and no two callbacks ever overlap."""
    world = World()
    session = threadless_session(world, "stress")
    codec = MessageCodec()

    def batches(stream_id):
        return [
            encode_batch_datagrams(
                [
                    codec.encode(DataMessage(stream_id, sequence, b"p"))
                    for sequence in range(first, first + 10)
                ]
            )[0]
            for first in range(0, 1000, 10)  # inside the dedupe window
        ]

    shared = batches(StreamId(8, 0))
    busy, overlaps, delivered = [0], [], []
    start = threading.Barrier(4)

    def deliver_all(own):
        start.wait(WAIT)
        for mine, everyones in zip(own, shared):
            session._handle_datagram(mine)
            session._handle_datagram(everyones)
        session._handle_datagram(b"junk-not-a-codec-frame")

    def callback(arrival):
        busy[0] += 1
        if busy[0] > 1:
            overlaps.append(arrival.message.sequence)
        for _ in range(20):  # a backward jump: a place to switch threads
            pass
        message = arrival.message
        delivered.append((*message.stream_id, message.sequence))
        busy[0] -= 1

    session.on_data(callback)
    threads = [
        threading.Thread(target=deliver_all, args=(batches(StreamId(9, n)),))
        for n in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(WAIT)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert overlaps == []
    streams = [(8, 0)] + [(9, n) for n in range(4)]
    assert sorted(delivered) == sorted(
        (*stream, sequence) for stream in streams for sequence in range(1000)
    )
    stats = session.stats
    assert (stats.deliveries, stats.duplicates_dropped) == (5000, 3000)
    assert stats.bad_datagrams == 4


def test_a_send_that_raises_on_the_flusher_is_counted_and_the_flusher_lives():
    """The one flusher thread a process runs: a publish's refused send is
    counted on its session, and the next publish still leaves."""
    world = World()
    session = threadless_session(world, "pub")
    flusher = client_module._Flusher()
    session._wire.soon = flusher.soon
    refused, sent = threading.Event(), threading.Event()
    sendto = session._wire.sendto

    def refuse_once(datagram, address):
        if not refused.is_set():
            refused.set()
            raise OSError("no buffer space")
        sendto(datagram, address)
        sent.set()

    session._wire.sendto = refuse_once
    session.publish(0, b"lost")
    assert refused.wait(WAIT)
    session.publish(0, b"after")
    assert sent.wait(WAIT)
    assert session.stats.send_errors == 1
    assert session.stats.published == 2
    assert flusher._thread.is_alive()
