"""The Orphanage: storage, analysis and replay of unclaimed data."""

import pytest

from repro.core.envelopes import StreamArrival
from repro.core.message import DataMessage
from repro.core.orphanage import Orphanage
from repro.core.streamid import StreamId


@pytest.fixture
def orphanage(network):
    return Orphanage(network, backlog_per_stream=4)


def arrival(stream: StreamId, sequence: int, at: float = 0.0, payload=b"pp"):
    return StreamArrival(
        message=DataMessage(
            stream_id=stream, sequence=sequence, payload=payload
        ),
        received_at=at,
        receiver_id=0,
    )


class TestStorage:
    def test_receives_and_counts(self, orphanage):
        orphanage.on_arrival(arrival(StreamId(1, 0), 0))
        orphanage.on_arrival(arrival(StreamId(1, 0), 1))
        assert orphanage.total_received == 2
        assert orphanage.orphan_streams() == [StreamId(1, 0)]

    def test_backlog_is_bounded_oldest_evicted(self, orphanage):
        for seq in range(10):
            orphanage.on_arrival(arrival(StreamId(1, 0), seq))
        report = orphanage.report(StreamId(1, 0))
        assert report.messages_seen == 10
        assert report.messages_retained == 4

    def test_evictions_are_counted(self, orphanage):
        # 10 arrivals into a 4-slot backlog: the deque silently displaces
        # six, the stats must say so.
        for seq in range(10):
            orphanage.on_arrival(arrival(StreamId(1, 0), seq))
        assert orphanage.stats.evicted == 6
        # A second stream below capacity evicts nothing.
        for seq in range(3):
            orphanage.on_arrival(arrival(StreamId(2, 0), seq))
        assert orphanage.stats.evicted == 6

    def test_stats_surface_in_metrics_registry(self, network):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        orphanage = Orphanage(network, backlog_per_stream=2, metrics=registry)
        for seq in range(5):
            orphanage.on_arrival(arrival(StreamId(1, 0), seq))
        counters = registry.snapshot()["counters"]
        assert counters["orphanage.received"] == 5.0
        assert counters["orphanage.evicted"] == 3.0

    def test_zero_backlog_never_counts_evictions(self, network):
        orphanage = Orphanage(network, backlog_per_stream=0)
        for seq in range(5):
            orphanage.on_arrival(arrival(StreamId(1, 0), seq))
        assert orphanage.stats.evicted == 0

    def test_streams_kept_separately(self, orphanage):
        orphanage.on_arrival(arrival(StreamId(1, 0), 0))
        orphanage.on_arrival(arrival(StreamId(2, 0), 0))
        assert orphanage.orphan_streams() == [StreamId(1, 0), StreamId(2, 0)]

    def test_zero_backlog_analyses_without_storing(self, network):
        orphanage = Orphanage(network, backlog_per_stream=0)
        orphanage.on_arrival(arrival(StreamId(1, 0), 0))
        report = orphanage.report(StreamId(1, 0))
        assert report.messages_seen == 1
        assert report.messages_retained == 0

    def test_negative_backlog_rejected(self, network):
        with pytest.raises(ValueError):
            Orphanage(network, backlog_per_stream=-1)


class TestAnalysis:
    def test_report_statistics(self, orphanage):
        for i, seq in enumerate(range(3)):
            orphanage.on_arrival(
                arrival(StreamId(1, 0), seq, at=float(i * 2), payload=b"abcd")
            )
        report = orphanage.report(StreamId(1, 0))
        assert report.first_seen_at == 0.0
        assert report.last_seen_at == 4.0
        assert report.mean_payload_bytes == 4.0
        assert report.mean_interarrival == 2.0
        assert report.estimated_rate == pytest.approx(0.5)

    def test_report_unknown_stream_is_none(self, orphanage):
        assert orphanage.report(StreamId(5, 5)) is None

    def test_single_message_rate_is_zero(self, orphanage):
        orphanage.on_arrival(arrival(StreamId(1, 0), 0))
        assert orphanage.report(StreamId(1, 0)).estimated_rate == 0.0

    def test_analyzer_hook_runs_per_arrival(self, orphanage):
        seen = []
        orphanage.add_analyzer(lambda a: seen.append(a.message.sequence))
        orphanage.on_arrival(arrival(StreamId(1, 0), 7))
        assert seen == [7]


class TestReplay:
    def test_replay_sends_backlog_to_endpoint(self, sim, network, orphanage):
        received = []
        network.register_inbox("late-consumer", received.append)
        for seq in range(3):
            orphanage.on_arrival(arrival(StreamId(1, 0), seq))
        count = orphanage.replay(StreamId(1, 0), "late-consumer")
        sim.run()
        assert count == 3
        assert [a.message.sequence for a in received] == [0, 1, 2]

    def test_replay_unknown_stream_is_zero(self, orphanage):
        assert orphanage.replay(StreamId(9, 9), "anywhere") == 0

    def test_discard_frees_state(self, orphanage):
        for seq in range(3):
            orphanage.on_arrival(arrival(StreamId(1, 0), seq))
        assert orphanage.discard(StreamId(1, 0)) == 3
        assert orphanage.orphan_streams() == []
        assert orphanage.discard(StreamId(1, 0)) == 0
