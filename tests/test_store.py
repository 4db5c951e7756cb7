"""Tests for repro.store: segment codec, backends, tap, replay, queries.

Structure follows the subsystem bottom-up:

- record codec round-trips (including a hypothesis property) and
  torn-tail detection;
- backend parity: MemorySegmentStore and FileSegmentStore run the same
  rotation/retention/read contract;
- FileSegmentStore crash tolerance: kill mid-append, reopen, no corrupt
  records, ``store.truncated_tail`` counts the discard;
- the StoreTap dedupe window (cluster handoff writes the same message
  twice; the log keeps one);
- session-level behaviour: the unified ``replay=`` vocabulary, gap-free
  late-join over ``replay='history'``, ``session.query`` time ranges,
  and the cluster path through a broker crash + ownership handoff.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GarnetConfig
from repro.core.message import DataMessage, MessageCodec
from repro.core.middleware import Garnet
from repro.core.streamid import StreamId
from repro.errors import StoreError, SubscriptionError
from repro.store import (
    FileSegmentStore,
    MemorySegmentStore,
    StoreTap,
    build_store,
    decode_record,
    encode_record,
    scan_records,
)
from repro.store.segment import RECORD_META_BYTES, RECORD_PREFIX_BYTES

CODEC = MessageCodec()


def frame_for(sequence: int, payload: bytes = b"x") -> bytes:
    return CODEC.encode(
        DataMessage(
            stream_id=StreamId(1, 0), sequence=sequence, payload=payload
        )
    )


# ----------------------------------------------------------------------
# Record codec
# ----------------------------------------------------------------------
class TestRecordCodec:
    def test_roundtrip(self):
        encoded = encode_record(12.5, 3, b"frame-bytes")
        received_at, receiver_id, frame, offset = decode_record(encoded)
        assert (received_at, receiver_id, frame) == (12.5, 3, b"frame-bytes")
        assert offset == len(encoded)

    def test_empty_frame_refused(self):
        with pytest.raises(StoreError):
            encode_record(0.0, 0, b"")

    def test_every_truncation_raises_store_error(self):
        encoded = encode_record(1.0, -1, b"payload")
        for cut in range(len(encoded)):
            with pytest.raises(StoreError):
                decode_record(encoded[:cut])

    def test_scan_records_reports_clean_length_on_torn_tail(self):
        whole = encode_record(1.0, 2, b"aa") + encode_record(2.0, 3, b"bb")
        torn = whole + encode_record(3.0, 4, b"cc")[:-1]
        records, clean = scan_records(torn)
        assert [r[2] for r in records] == [b"aa", b"bb"]
        assert clean == len(whole)
        # A clean buffer scans to its full length.
        assert scan_records(whole)[1] == len(whole)

    def test_declared_length_counts_meta_plus_frame(self):
        frame = b"12345"
        encoded = encode_record(0.0, 0, frame)
        (declared,) = struct.unpack_from(">I", encoded)
        assert declared == RECORD_META_BYTES + len(frame)
        assert len(encoded) == RECORD_PREFIX_BYTES + declared

    @settings(max_examples=200, deadline=None)
    @given(
        received_at=st.floats(
            allow_nan=False, allow_infinity=False, width=64
        ),
        receiver_id=st.integers(min_value=-(2**31), max_value=2**31 - 1),
        frame=st.binary(min_size=1, max_size=512),
    )
    def test_roundtrip_property(self, received_at, receiver_id, frame):
        encoded = encode_record(received_at, receiver_id, frame)
        decoded_at, decoded_id, decoded_frame, offset = decode_record(
            encoded
        )
        assert decoded_at == received_at
        assert decoded_id == receiver_id
        assert decoded_frame == frame
        assert offset == len(encoded)
        # Concatenated records scan back out intact.
        records, clean = scan_records(encoded + encoded)
        assert len(records) == 2
        assert clean == 2 * len(encoded)


# ----------------------------------------------------------------------
# Backend contract (memory and file must behave identically)
# ----------------------------------------------------------------------
def make_store(backend: str, tmp_path, **kwargs):
    if backend == "memory":
        return MemorySegmentStore(**kwargs)
    return FileSegmentStore(tmp_path / "store", **kwargs)


@pytest.fixture(params=["memory", "file"])
def backend(request):
    return request.param


class TestStreamStoreContract:
    def test_append_read_last_streams(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        stream = StreamId(5, 1)
        for index in range(4):
            store.append(stream, float(index), index, frame_for(index))
        records = store.read(stream)
        assert [r.received_at for r in records] == [0.0, 1.0, 2.0, 3.0]
        assert [r.receiver_id for r in records] == [0, 1, 2, 3]
        assert records[-1].frame == frame_for(3)
        assert store.streams() == [stream]
        assert store.record_count(stream) == 4
        assert store.stats.appended == 4
        store.close()

    def test_time_range_and_limit(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        stream = StreamId(1, 0)
        for index in range(10):
            store.append(stream, float(index), -1, frame_for(index))
        inside = store.read(stream, start=3.0, end=6.0)
        assert [r.received_at for r in inside] == [3.0, 4.0, 5.0, 6.0]
        assert len(store.read(stream, limit=2)) == 2
        assert store.read(stream, start=99.0) == []
        assert store.read(StreamId(9, 9)) == []
        store.close()

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_is_refused(self, backend, tmp_path, limit):
        # It used to return one record: the cap was checked only after
        # the first append to the result.
        store = make_store(backend, tmp_path)
        store.append(StreamId(1, 0), 0.0, -1, frame_for(0))
        with pytest.raises(StoreError, match=f"got {limit}"):
            store.read(StreamId(1, 0), limit=limit)
        store.close()

    def test_rotation_by_segment_size(self, backend, tmp_path):
        record_len = len(encode_record(0.0, 0, frame_for(0)))
        store = make_store(
            backend, tmp_path, segment_bytes=record_len * 2
        )
        stream = StreamId(2, 0)
        for index in range(6):
            store.append(stream, float(index), -1, frame_for(index))
        # Two records fill a segment; the third append rotates.
        assert store.segment_count(stream) == 3
        assert store.stats.segments_rotated == 2
        # Reads stitch across segments in order.
        assert [r.received_at for r in store.read(stream)] == [
            float(i) for i in range(6)
        ]
        store.close()

    def test_retention_by_segment_count(self, backend, tmp_path):
        record_len = len(encode_record(0.0, 0, frame_for(0)))
        store = make_store(
            backend,
            tmp_path,
            segment_bytes=record_len,
            segments_per_stream=3,
        )
        stream = StreamId(3, 0)
        for index in range(8):
            store.append(stream, float(index), -1, frame_for(index))
        assert store.segment_count(stream) == 3
        assert store.stats.segments_evicted > 0
        assert store.stats.records_evicted > 0
        # Oldest records went first; the newest survive.
        kept = [r.received_at for r in store.read(stream)]
        assert kept == [5.0, 6.0, 7.0]
        store.close()

    def test_retention_by_max_bytes(self, backend, tmp_path):
        record_len = len(encode_record(0.0, 0, frame_for(0)))
        store = make_store(
            backend,
            tmp_path,
            segment_bytes=record_len,
            max_bytes=record_len * 3,
        )
        stream = StreamId(4, 0)
        for index in range(10):
            store.append(stream, float(index), -1, frame_for(index))
        assert store.total_bytes <= record_len * 3
        assert store.stats.segments_evicted >= 7
        store.close()

    def test_retention_by_age_against_injected_clock(self, backend, tmp_path):
        clock = {"now": 0.0}
        record_len = len(encode_record(0.0, 0, frame_for(0)))
        store = make_store(
            backend,
            tmp_path,
            segment_bytes=record_len,
            max_age=5.0,
            clock=lambda: clock["now"],
        )
        stream = StreamId(6, 0)
        for index in range(4):
            clock["now"] = float(index)
            store.append(stream, float(index), -1, frame_for(index))
        assert store.record_count(stream) == 4
        # Jump the clock: everything older than now-5 is evicted on the
        # next append (the active segment always survives).
        clock["now"] = 20.0
        store.append(stream, 20.0, -1, frame_for(4))
        kept = [r.received_at for r in store.read(stream)]
        assert kept == [20.0]
        assert store.stats.records_evicted == 4
        store.close()

    def test_closed_store_refuses_operations(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        store.close()
        store.close()  # idempotent
        with pytest.raises(StoreError):
            store.append(StreamId(1, 0), 0.0, -1, frame_for(0))
        with pytest.raises(StoreError):
            store.read(StreamId(1, 0))

    def test_gauges_track_occupancy(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        stream = StreamId(7, 0)
        store.append(stream, 0.0, -1, frame_for(0))
        snapshot = store.stats.registry.snapshot()
        assert snapshot["gauges"]["store.segments"] == 1.0
        assert snapshot["gauges"]["store.streams"] == 1.0
        assert snapshot["gauges"]["store.bytes"] == store.total_bytes
        store.close()


def test_memory_and_file_stores_agree_and_only_the_file_encodes(
    tmp_path, monkeypatch
):
    """Byte accounting comes from the frame sizes: the memory backend
    holds what the file backend writes, byte count for byte count,
    without encoding a record."""
    import repro.store.file as file_module
    import repro.store.segment as segment_module

    encoded = []

    def counting(*args):
        encoded.append(args)
        return encode_record(*args)

    monkeypatch.setattr(segment_module, "encode_record", counting)
    monkeypatch.setattr(file_module, "encode_record", counting)
    runs = [
        (StreamId(5, stream), float(at), at % 3, [
            frame_for(at * 10 + k, b"p" * (at % 7)) for k in range(1 + at % 5)
        ])
        for at in range(40)
        for stream in (0, 1)
    ]
    seen = {}
    for backend in ("memory", "file"):
        encoded.clear()
        store = make_store(backend, tmp_path, segment_bytes=150)
        for stream, at, receiver, frames in runs:
            store.append(stream, at, receiver, *frames)
        segments = {
            stream: [
                (segment.records_held, segment.bytes_held)
                for segment in store._logs[stream].segments
            ]
            for stream in store.streams()
        }
        if backend == "file":
            assert [
                segment.path.stat().st_size
                for log in store._logs.values()
                for segment in log.segments
            ] == [held for each in segments.values() for _, held in each]
        seen[backend] = (
            store.total_bytes,
            segments,
            {stream: store.read(stream) for stream in store.streams()},
            len(encoded),
        )
        store.close()
    assert seen["memory"][:3] == seen["file"][:3]
    assert sum(len(each) for each in seen["memory"][1].values()) > 2
    # One encode per segment a run lands in, on the file side only.
    assert seen["memory"][3] == 0 and seen["file"][3] >= len(runs)


# ----------------------------------------------------------------------
# File backend: persistence and crash tolerance
# ----------------------------------------------------------------------
class TestFileSegmentStore:
    def test_reopen_recovers_records_and_metadata(self, tmp_path):
        directory = tmp_path / "store"
        stream = StreamId(11, 2)
        record_len = len(encode_record(0.0, 0, frame_for(0)))
        with FileSegmentStore(
            directory, segment_bytes=record_len * 2
        ) as store:
            for index in range(5):
                store.append(stream, float(index), index, frame_for(index))
            expected = [(r.received_at, r.frame) for r in store.read(stream)]
            segments_before = store.segment_count(stream)
        reopened = FileSegmentStore(
            directory, segment_bytes=record_len * 2
        )
        assert [
            (r.received_at, r.frame) for r in reopened.read(stream)
        ] == expected
        assert reopened.segment_count(stream) == segments_before
        assert reopened.read(stream)[-1].receiver_id == 4
        # Appends continue in fresh segment indices, never clobbering.
        reopened.append(stream, 9.0, 9, frame_for(9))
        assert reopened.read(stream)[-1].received_at == 9.0
        reopened.close()

    def test_torn_tail_is_truncated_and_counted(self, tmp_path):
        directory = tmp_path / "store"
        stream = StreamId(12, 0)
        with FileSegmentStore(directory) as store:
            for index in range(3):
                store.append(stream, float(index), -1, frame_for(index))
        # Simulate a crash mid-append: chop bytes off the only segment
        # file so its final record is incomplete.
        [segment_path] = list(directory.rglob("seg-*.log"))
        raw = segment_path.read_bytes()
        segment_path.write_bytes(raw[:-3])
        reopened = FileSegmentStore(directory)
        records = reopened.read(stream)
        assert [r.received_at for r in records] == [0.0, 1.0]
        assert reopened.stats.truncated_tail == 1
        # The file itself was truncated back to the clean prefix, so a
        # further append produces a well-formed log.
        reopened.append(stream, 5.0, -1, frame_for(5))
        reopened.close()
        final = FileSegmentStore(directory)
        assert [r.received_at for r in final.read(stream)] == [
            0.0,
            1.0,
            5.0,
        ]
        assert final.stats.truncated_tail == 0
        final.close()

    def test_every_tear_point_recovers_cleanly(self, tmp_path):
        # Kill the "process" at every byte of the final record: reopen
        # must never surface a corrupt record, only drop the tail.
        stream = StreamId(13, 0)
        base = tmp_path / "tears"
        whole = [frame_for(i, payload=bytes([i]) * 4) for i in range(3)]
        for cut in range(1, len(encode_record(2.0, -1, whole[2]))):
            directory = base / f"cut{cut}"
            with FileSegmentStore(directory) as store:
                for index, frame in enumerate(whole):
                    store.append(stream, float(index), -1, frame)
            [segment_path] = list(directory.rglob("seg-*.log"))
            raw = segment_path.read_bytes()
            segment_path.write_bytes(raw[: len(raw) - cut])
            reopened = FileSegmentStore(directory)
            payloads = [r.frame for r in reopened.read(stream)]
            assert payloads == whole[:2]
            assert reopened.stats.truncated_tail == 1
            reopened.close()

    @pytest.mark.parametrize(
        "retention",
        [
            {},
            {"segments_per_stream": 2},
            {"max_bytes": 200},
            {"segments_per_stream": 3, "max_bytes": 420},
        ],
        ids=["none", "per-stream", "max-bytes", "both"],
    )
    def test_a_run_writes_and_evicts_as_its_records_one_at_a_time(
        self, tmp_path, retention
    ):
        """A run crossing ``segment_bytes`` several times leaves the same
        segment files, byte for byte, the same survivors and the same
        counts as appending its records one by one."""
        older, stream = StreamId(15, 0), StreamId(15, 1)
        frames = [
            frame_for(index, payload=bytes([index]) * (1 + index % 5))
            for index in range(23)
        ]

        def build(directory, as_run):
            store = FileSegmentStore(directory, segment_bytes=70, **retention)
            for index in range(6):  # sealed segments max_bytes may evict
                store.append(older, float(index), 4, frame_for(index))
            if as_run:
                store.append(stream, 9.0, -1, *frames)
            else:
                for frame in frames:
                    store.append(stream, 9.0, -1, frame)
            files = {
                str(path.relative_to(directory)): path.read_bytes()
                for path in sorted(directory.rglob("seg-*.log"))
            }
            kept = {
                key: [(r.received_at, r.receiver_id, r.frame)
                      for r in store.read(key)]
                for key in (older, stream)
            }
            counts = store.stats.as_dict()
            store.close()
            return files, kept, counts

        one_by_one = build(tmp_path / "records", as_run=False)
        assert build(tmp_path / "run", as_run=True) == one_by_one
        files, _, counts = one_by_one
        assert counts["segments_rotated"] >= 5 and len(files) >= 2
        assert bool(retention) == (counts["segments_evicted"] > 0)

    def test_a_run_cut_mid_record_reopens_to_its_whole_records(self, tmp_path):
        """A run is one write per segment; a crash inside it leaves whole
        records and at most one torn one, which the open drops."""
        stream = StreamId(16, 0)
        frames = [frame_for(i, payload=bytes([i]) * 4) for i in range(5)]
        record = len(encode_record(1.0, -1, frames[0]))
        with FileSegmentStore(tmp_path / "whole") as store:
            store.append(stream, 1.0, -1, *frames)
        [written] = list((tmp_path / "whole").rglob("seg-*.log"))
        raw = written.read_bytes()
        assert len(raw) == record * len(frames)
        for cut in range(1, len(raw)):
            directory = tmp_path / f"cut{cut}"
            path = directory / written.parent.name / written.name
            path.parent.mkdir(parents=True)
            path.write_bytes(raw[:cut])
            reopened = FileSegmentStore(directory)
            assert [r.frame for r in reopened.read(stream)] == frames[
                : cut // record
            ]
            assert reopened.stats.truncated_tail == (cut % record != 0)
            reopened.close()

    def test_eviction_removes_segment_files(self, tmp_path):
        directory = tmp_path / "store"
        record_len = len(encode_record(0.0, 0, frame_for(0)))
        store = FileSegmentStore(
            directory, segment_bytes=record_len, segments_per_stream=2
        )
        stream = StreamId(14, 0)
        for index in range(6):
            store.append(stream, float(index), -1, frame_for(index))
        assert len(list(directory.rglob("seg-*.log"))) == 2
        store.close()


# ----------------------------------------------------------------------
# build_store + config validation
# ----------------------------------------------------------------------
class TestBuildStore:
    def test_dispatches_on_backend(self, tmp_path):
        memory = build_store(GarnetConfig(store_enabled=True))
        assert isinstance(memory, MemorySegmentStore)
        file_backed = build_store(
            GarnetConfig(
                store_enabled=True, store_dir=str(tmp_path / "s")
            )
        )
        assert isinstance(file_backed, FileSegmentStore)
        memory.close()
        file_backed.close()

    def test_bounds_validated_when_enabled(self, tmp_path):
        # Segment size and age horizon are the store constructors'
        # parameters, and so are their range checks, on both backends.
        for bounds in ({"segment_bytes": 0}, {"max_age": 0.0}):
            with pytest.raises(StoreError):
                MemorySegmentStore(**bounds)
            with pytest.raises(StoreError):
                FileSegmentStore(tmp_path / "s", **bounds)


# ----------------------------------------------------------------------
# StoreTap dedupe
# ----------------------------------------------------------------------
class TestStoreTap:
    def test_duplicate_sequences_append_once(self):
        from repro.core.envelopes import StreamArrival

        store = MemorySegmentStore()
        tap = StoreTap(store, CODEC)
        stream = StreamId(1, 0)
        message = DataMessage(stream_id=stream, sequence=7, payload=b"x")
        first = StreamArrival(message=message, received_at=1.0, receiver_id=2)
        replayed = StreamArrival(
            message=message, received_at=1.5, receiver_id=3
        )
        assert tap.record(first) is True
        assert tap.record(replayed) is False
        assert store.record_count(stream) == 1
        assert store.stats.duplicates_skipped == 1
        store.close()


    @settings(max_examples=100, deadline=None, database=None)
    @given(
        runs=st.lists(
            st.lists(st.integers(0, 2100), max_size=12), min_size=1, max_size=12
        ),
        base=st.sampled_from([0, 65536 - 700]),
    )
    def test_a_frame_run_skips_what_per_item_adds_skip(self, runs, base):
        """``record_frames`` windows a run in one call; it keeps, stores
        and counts as skipped exactly what ``add`` per frame would, across
        the 16-bit wrap and behind the window."""
        from repro.util.ids import SEQUENCE_WINDOW, SequenceWindow

        store = MemorySegmentStore()
        tap = StoreTap(store, CODEC)
        stream = StreamId(1, 0)
        window, kept, skipped = SequenceWindow(SEQUENCE_WINDOW), [], 0
        for run in runs:
            sequences = [(base + offset) % 65536 for offset in run]
            frames = [frame_for(sequence) for sequence in sequences]
            accepted = [frame for frame, s in zip(frames, sequences) if window.add(s)]
            skipped += len(frames) - len(accepted)
            kept += accepted
            assert tap.record_frames(stream, 1.0, -1, frames, sequences) is bool(
                accepted
            )
        assert [record.frame for record in store.read(stream)] == kept
        assert store.stats.duplicates_skipped == skipped
        store.close()


# ----------------------------------------------------------------------
# Session surface: replay vocabulary, late join, query
# ----------------------------------------------------------------------
def deployment_with_store(**overrides) -> Garnet:
    config = GarnetConfig(
        store_enabled=True, publish_location_stream=False, **overrides
    )
    return Garnet(config=config, seed=5)


class TestReplayModes:
    def test_unknown_replay_mode_rejected(self):
        deployment = deployment_with_store()
        session = deployment.connect("app")
        with pytest.raises(SubscriptionError, match="replay mode"):
            session.subscribe(kind="x", replay="everything")

    def test_history_requires_store(self):
        deployment = Garnet(
            config=GarnetConfig(publish_location_stream=False)
        )
        session = deployment.connect("app")
        with pytest.raises(SubscriptionError, match="store_enabled"):
            session.subscribe(kind="x", replay="history")

    def test_each_mode_delivers_its_documented_set(self):
        """replay='none' sees only live traffic; 'orphans' adds the
        Orphanage backlog; 'history' adds everything the store retains."""
        deployment = deployment_with_store()
        publisher = deployment.connect("pub")
        # Publish 3 messages with no subscriber: they are stored AND
        # orphaned (no route), then a 4th after subscribers arrive.
        stream = publisher.publish(0, b"h0", kind="demo")
        publisher.publish(0, b"h1", kind="demo")
        publisher.publish(0, b"h2", kind="demo")
        deployment.run(0.5)
        assert deployment.store.record_count(stream) == 3

        sets: dict[str, list[bytes]] = {}
        for mode in ("none", "history"):
            session = deployment.connect(f"sub-{mode}")
            got: list[bytes] = []
            session.on_data(lambda a, g=got: g.append(a.message.payload))
            session.subscribe(stream_id=stream, replay=mode)
            sets[mode] = got
        # 'orphans' claims (and clears) the backlog, so it must come
        # after the other subscriptions are installed to compare fairly.
        orphan_session = deployment.connect("sub-orphans")
        orphan_got: list[bytes] = []
        orphan_session.on_data(
            lambda a: orphan_got.append(a.message.payload)
        )
        orphan_session.subscribe(stream_id=stream, replay="orphans")
        sets["orphans"] = orphan_got
        deployment.run(0.5)

        publisher.publish(0, b"live", kind="demo")
        deployment.run(0.5)

        assert sets["none"] == [b"live"]
        assert sets["history"] == [b"h0", b"h1", b"h2", b"live"]
        assert sets["orphans"] == [b"h0", b"h1", b"h2", b"live"]
        assert orphan_session.stats.orphans_replayed == 3
        stats = deployment.store.stats
        assert stats.replays == 1
        assert stats.records_replayed == 3


class TestLateJoinHistory:
    def test_late_join_gets_all_n_in_order_then_live(self):
        deployment = deployment_with_store()
        publisher = deployment.connect("pub")
        stream = None
        for index in range(12):
            stream = publisher.publish(0, bytes([index]), kind="demo")
            deployment.run(0.1)
        late = deployment.connect("late")
        got: list[int] = []
        late.on_data(lambda a: got.append(a.message.sequence))
        late.subscribe(stream_id=stream, replay="history")
        assert got == list(range(12))  # replay is synchronous
        for index in range(12, 15):
            publisher.publish(0, bytes([index]), kind="demo")
            deployment.run(0.2)
        assert got == list(range(15))  # no gap, no duplicate
        assert late.stats.history_replayed == 12

    def test_in_flight_message_is_not_double_delivered(self):
        # A message can be stored (dispatch ran) while its delivery to a
        # brand-new subscriber is impossible (it subscribed later), or
        # conversely in flight when the replay reads the store. Either
        # way the sequence window must keep the union exactly-once.
        deployment = deployment_with_store()
        publisher = deployment.connect("pub")
        stream = publisher.publish(0, b"a", kind="demo")
        deployment.run(0.2)
        late = deployment.connect("late")
        got: list[int] = []
        late.on_data(lambda a: got.append(a.message.sequence))
        late.subscribe(stream_id=stream, replay="history")
        # Replay served sequence 0; a straggling live copy of the same
        # sequence must be absorbed.
        from repro.core.envelopes import StreamArrival

        late._deliver(
            StreamArrival(
                message=DataMessage(stream_id=stream, sequence=0),
                received_at=0.0,
                receiver_id=-1,
            )
        )
        assert got == [0]
        assert late.stats.history_duplicates_dropped == 1


class Boom(Exception):
    pass


class TestHistoryReplayRaisingCallback:
    """A callback that raises on one replayed record costs that record
    only; the rest are delivered and the replay is counted."""

    def replay(self, install_hook: bool):
        deployment = deployment_with_store()
        publisher = deployment.connect("pub")
        for index in range(10):
            stream = publisher.publish(0, bytes([index]), kind="demo")
        deployment.run(0.5)
        errors: list = []
        if install_hook:
            deployment.dispatcher.install(delivery_errors=errors.append)
        late = deployment.connect("late")
        got: list[int] = []
        raised: list[int] = []

        def on_data(arrival):
            sequence = arrival.message.sequence
            if sequence == 2 and not raised:
                raised.append(sequence)
                raise Boom(sequence)
            got.append(sequence)

        late.on_data(on_data)
        return deployment, publisher, late, stream, got, errors

    def test_without_a_hook_the_error_propagates_after_the_rest(self):
        deployment, publisher, late, stream, got, _ = self.replay(False)
        with pytest.raises(Boom):
            late.subscribe(stream_id=stream, replay="history")
        assert got == [0, 1, *range(3, 10)]
        assert deployment.store.stats.replays == 1
        assert deployment.store.stats.records_replayed == 10
        assert late.stats.history_replayed == 10
        # Live delivery goes on where the replay ended.
        publisher.publish(0, b"\x0a", kind="demo")
        deployment.run(0.5)
        assert got[-1] == 10

    def test_with_a_hook_only_the_raising_record_is_lost(self):
        deployment, _, late, stream, got, errors = self.replay(True)
        late.subscribe(stream_id=stream, replay="history")
        assert got == [0, 1, *range(3, 10)]
        assert [error.args for error in errors] == [(2,)]
        assert deployment.store.stats.replays == 1


class TestQuery:
    def test_query_filters_and_decodes(self):
        deployment = deployment_with_store()
        publisher = deployment.connect("pub")
        reader = deployment.connect("reader")
        stream = None
        stamps = []
        for index in range(6):
            stream = publisher.publish(0, bytes([index]), kind="demo")
            deployment.run(0.5)
            stamps.append(deployment.sim.now)
        everything = reader.query(stream)
        assert [a.message.sequence for a in everything] == list(range(6))
        window = reader.query(
            stream,
            start=everything[2].received_at,
            end=everything[4].received_at,
        )
        assert [a.message.sequence for a in window] == [2, 3, 4]
        assert len(reader.query(stream, limit=3)) == 3
        assert reader.stats.queries == 3
        assert deployment.store.stats.queries == 3
        assert deployment.store.stats.records_queried == 6 + 3 + 3

    def test_query_limit_below_one_is_refused(self):
        # The in-sim door used to answer limit=0 with one arrival while
        # the live QUERY frame refused it; both now reach the store's
        # check.
        deployment = deployment_with_store()
        stream = deployment.connect("pub").publish(0, b"x", kind="demo")
        deployment.run(0.5)
        with pytest.raises(StoreError, match="got 0"):
            deployment.connect("reader").query(stream, limit=0)

    def test_query_without_store_raises(self):
        deployment = Garnet(
            config=GarnetConfig(publish_location_stream=False)
        )
        session = deployment.connect("reader")
        with pytest.raises(StoreError):
            session.query(StreamId(1, 0))


# ----------------------------------------------------------------------
# Cluster path: late join across a broker crash + handoff
# ----------------------------------------------------------------------
class TestClusterLateJoin:
    def test_history_survives_owner_crash_and_handoff(self):
        config = GarnetConfig(
            cluster_enabled=True,
            cluster_brokers=3,
            cluster_failover_check_period=0.5,
            store_enabled=True,
            publish_location_stream=False,
        )
        deployment = Garnet(config=config, seed=7)
        publisher = deployment.connect("pub", broker="b0")
        live_sub = deployment.connect("sub", broker="b2")
        live_got: list[int] = []
        live_sub.on_data(lambda a: live_got.append(a.message.sequence))
        live_sub.subscribe(kind="temp*")
        deployment.run(0.5)
        stream = publisher.publish(0, b"\x00", kind="temp")
        deployment.cluster.shards.pin(stream, "b1")
        for index in range(1, 5):
            publisher.publish(0, bytes([index]), kind="temp")
            deployment.run(0.3)
        deployment.cluster.node("b1").crash()
        for index in range(5, 10):
            publisher.publish(0, bytes([index]), kind="temp")
            deployment.run(0.7)
        # The live subscriber saw everything (the pre-store guarantee)...
        assert live_got == list(range(10))
        # ...and the store kept exactly one copy of each message even
        # though handoff replay re-processed some of them.
        assert deployment.store.record_count(stream) == 10

        late = deployment.connect("late", broker="b2")
        late_got: list[int] = []
        late.on_data(lambda a: late_got.append(a.message.sequence))
        late.subscribe(stream_id=stream, replay="history")
        assert late_got == list(range(10))
        for index in range(10, 13):
            publisher.publish(0, bytes([index]), kind="temp")
            deployment.run(0.7)
        assert late_got == list(range(13))  # gap-free, duplicate-free
