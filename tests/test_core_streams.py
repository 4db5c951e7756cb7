"""The stream registry and per-stream statistics."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.streamid import StreamId, VIRTUAL_SENSOR_FLOOR
from repro.core.streams import StreamRegistry, StreamStatistics
from repro.errors import RegistrationError


@pytest.fixture
def registry():
    return StreamRegistry()


class TestAdvertiseDetect:
    def test_advertise_creates_descriptor(self, registry):
        descriptor = registry.advertise(
            StreamId(1, 0), kind="water.level", attributes={"unit": "m"}
        )
        assert descriptor.kind == "water.level"
        assert descriptor.attributes["unit"] == "m"
        assert StreamId(1, 0) in registry

    def test_re_advertise_merges_metadata(self, registry):
        registry.advertise(StreamId(1, 0), kind="water.level")
        descriptor = registry.advertise(
            StreamId(1, 0), publisher="pub", attributes={"unit": "m"}
        )
        assert descriptor.kind == "water.level"
        assert descriptor.publisher == "pub"
        assert len(registry) == 1

    def test_detect_creates_bare_descriptor(self, registry):
        descriptor = registry.detect(StreamId(2, 1))
        assert descriptor.kind == ""
        assert StreamId(2, 1) in registry

    def test_detect_then_advertise_upgrades(self, registry):
        registry.detect(StreamId(2, 1))
        descriptor = registry.advertise(StreamId(2, 1), kind="late")
        assert descriptor.kind == "late"
        assert len(registry) == 1

    def test_get_unknown_raises(self, registry):
        with pytest.raises(RegistrationError):
            registry.get(StreamId(9, 9))
        assert registry.find(StreamId(9, 9)) is None

    def test_remove(self, registry):
        registry.detect(StreamId(1, 1))
        registry.remove(StreamId(1, 1))
        assert len(registry) == 0
        with pytest.raises(RegistrationError):
            registry.remove(StreamId(1, 1))

    def test_invalid_stream_id_rejected(self, registry):
        with pytest.raises(Exception):
            registry.advertise(StreamId(1 << 24, 0))


class TestMatch:
    @pytest.fixture
    def populated(self, registry):
        registry.advertise(StreamId(1, 0), kind="water.level")
        registry.advertise(StreamId(1, 1), kind="water.flow")
        registry.advertise(StreamId(2, 0), kind="air.temp")
        registry.advertise(
            StreamId(VIRTUAL_SENSOR_FLOOR, 0), kind="water.derived"
        )
        return registry

    def test_match_by_exact_kind(self, populated):
        results = populated.match(kind="water.level")
        assert [d.stream_id for d in results] == [StreamId(1, 0)]

    def test_match_by_kind_wildcard(self, populated):
        results = populated.match(kind="water.*")
        assert len(results) == 3

    def test_match_by_sensor(self, populated):
        results = populated.match(sensor_id=1)
        assert len(results) == 2

    def test_match_by_derived(self, populated):
        assert len(populated.match(derived=True)) == 1
        assert len(populated.match(derived=False)) == 3

    def test_match_with_predicate(self, populated):
        results = populated.match(
            predicate=lambda d: d.stream_id.stream_index == 1
        )
        assert [d.stream_id for d in results] == [StreamId(1, 1)]

    def test_match_conjunction(self, populated):
        assert populated.match(kind="water.*", sensor_id=2) == []

    def test_all_streams_sorted(self, populated):
        ids = [d.stream_id for d in populated.all_streams()]
        assert ids == sorted(ids)


class TestStatistics:
    def test_observe_accumulates(self):
        stats = StreamStatistics()
        stats.observe(10.0, 100, 1)
        stats.observe(12.0, 50, 2)
        assert stats.messages == 2
        assert stats.bytes == 150
        assert stats.first_seen_at == 10.0
        assert stats.last_seen_at == 12.0
        assert stats.last_sequence == 2

    def test_mean_rate(self):
        stats = StreamStatistics()
        for i in range(5):
            stats.observe(float(i), 10, i)
        assert stats.mean_rate == pytest.approx(1.0)

    def test_mean_rate_degenerate(self):
        stats = StreamStatistics()
        assert stats.mean_rate == 0.0
        stats.observe(1.0, 1, 0)
        assert stats.mean_rate == 0.0


def reference_fold(stats, time, messages):
    """The per-message fold a run observe replaces: one step per
    ``(payload_bytes, sequence)``, as ``observe`` did before runs."""
    for payload_bytes, sequence in messages:
        stats["messages"] += 1
        stats["bytes"] += payload_bytes
        if stats["first_seen_at"] is None:
            stats["first_seen_at"] = time
        stats["last_seen_at"] = time
        stats["last_sequence"] = sequence


RUNS = st.lists(
    st.tuples(
        st.floats(0, 1e9, allow_nan=False),
        st.lists(
            st.tuples(st.integers(0, 1 << 16), st.integers(0, 0xFFFF)),
            min_size=1,
            max_size=40,
        ),
    ),
    max_size=12,
)


class TestRunObserve:
    @settings(max_examples=300, deadline=None, database=None)
    @given(runs=RUNS)
    def test_one_observe_per_run_is_the_per_message_fold(self, runs):
        """Runs share a time, so one observe per run leaves exactly the
        per-message fold: counts, bytes, first/last seen, last sequence."""
        stats = StreamStatistics()
        expected = {
            "messages": 0,
            "bytes": 0,
            "duplicates_dropped": 0,
            "first_seen_at": None,
            "last_seen_at": None,
            "last_sequence": None,
        }
        for time, messages in runs:
            stats.observe(
                time,
                sum(size for size, _ in messages),
                messages[-1][1],
                len(messages),
            )
            reference_fold(expected, time, messages)
        assert dataclasses.asdict(stats) == expected
