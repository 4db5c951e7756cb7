"""The unified observability layer: registry, stats views, tracing, export."""

import json
import math

import pytest

from repro.obs.export import prometheus_name, render_prometheus
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    format_bound,
)
from repro.obs.stats import RegistryBackedStats
from repro.obs.tracing import KernelProbe, Tracer
from repro.simnet.kernel import Simulator


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(MetricError):
            Counter("c").inc(-1.0)


class TestGauge:
    def test_moves_both_directions(self):
        gauge = Gauge("g")
        gauge.set(5.0)
        gauge.dec(2.0)
        gauge.inc(0.5)
        assert gauge.value == 3.5


class TestHistogram:
    def test_summary_statistics(self):
        histogram = Histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 2.0, 3.5):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == 6.0
        assert histogram.mean == 2.0
        assert histogram.minimum == 0.5
        assert histogram.maximum == 3.5

    def test_buckets_are_cumulative(self):
        histogram = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            histogram.observe(value)
        assert histogram.cumulative_buckets() == {
            "1": 1, "10": 2, "100": 3, "+Inf": 4,
        }

    def test_empty_histogram_nan_statistics(self):
        histogram = Histogram("h", buckets=(1.0,))
        assert math.isnan(histogram.mean)
        assert math.isnan(histogram.minimum)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(MetricError):
            Histogram("h", buckets=(10.0, 1.0))
        with pytest.raises(MetricError):
            Histogram("h", buckets=())

    def test_format_bound(self):
        assert format_bound(0.001) == "0.001"
        assert format_bound(math.inf) == "+Inf"


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_type_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(MetricError):
            registry.gauge("a")
        with pytest.raises(MetricError):
            registry.histogram("a")
        registry.histogram("h")
        with pytest.raises(MetricError):
            registry.counter("h")

    def test_value_and_names(self):
        registry = MetricsRegistry()
        registry.counter("b").inc(2)
        registry.gauge("a").set(7)
        assert registry.value("b") == 2.0
        assert registry.value("a") == 7.0
        assert registry.value("missing") == 0.0
        assert registry.names() == ["a", "b"]
        assert len(registry) == 2

    def test_timer_uses_virtual_clock(self):
        clock = {"now": 10.0}
        registry = MetricsRegistry(clock=lambda: clock["now"])
        with registry.timer("op.seconds"):
            clock["now"] = 10.25
        histogram = registry.histogram("op.seconds")
        assert histogram.count == 1
        assert histogram.sum == pytest.approx(0.25)

    def test_now_defaults_to_zero_without_clock(self):
        assert MetricsRegistry().now() == 0.0

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        registry.histogram("empty", buckets=(1.0,))
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 3.0}
        assert snapshot["gauges"] == {"g": 1.5}
        assert snapshot["histograms"]["h"]["count"] == 1.0
        assert snapshot["histograms"]["h"]["buckets"] == {"1": 1, "+Inf": 1}
        # Empty histograms must stay JSON-serialisable (no NaN).
        assert snapshot["histograms"]["empty"]["mean"] is None
        json.dumps(snapshot)


class _DemoStats(RegistryBackedStats):
    PREFIX = "demo"

    received: int = 0
    ratio: float = 0.0


class TestRegistryBackedStats:
    def test_write_through_to_registry(self):
        registry = MetricsRegistry()
        stats = _DemoStats(registry)
        stats.received += 1
        stats.received += 1
        stats.ratio = 0.5
        assert stats.received == 2
        assert isinstance(stats.received, int)
        assert registry.value("demo.received") == 2.0
        assert registry.value("demo.ratio") == 0.5

    def test_private_registry_when_unbound(self):
        stats = _DemoStats()
        stats.received = 3
        assert stats.registry.value("demo.received") == 3.0

    def test_prefix_derived_from_class_name(self):
        class ReorderBufferStats(RegistryBackedStats):
            held: int = 0

        assert ReorderBufferStats().prefix == "reorder_buffer"

    def test_explicit_prefix_overrides(self):
        stats = _DemoStats(prefix="consumer.alice")
        stats.received = 1
        assert stats.registry.value("consumer.alice.received") == 1.0

    def test_bind_moves_values_and_forgets_old_home(self):
        stats = _DemoStats()
        old = stats.registry
        stats.received = 4
        shared = MetricsRegistry()
        stats.bind(shared)
        assert stats.received == 4
        assert shared.value("demo.received") == 4.0
        assert old.value("demo.received") == 0.0
        assert "demo.received" not in old.names()
        stats.received += 1
        assert shared.value("demo.received") == 5.0

    def test_as_dict(self):
        stats = _DemoStats()
        stats.received = 2
        assert stats.as_dict() == {"received": 2, "ratio": 0.0}


class TestTracer:
    def test_span_lifecycle(self):
        clock = {"now": 1.0}
        registry = MetricsRegistry(clock=lambda: clock["now"])
        tracer = Tracer(registry)
        span = tracer.begin("hop", destination="x")
        assert tracer.open_spans == 1
        clock["now"] = 1.5
        tracer.finish(span, delivered=True)
        assert span.duration == pytest.approx(0.5)
        assert span.attributes == {"destination": "x", "delivered": True}
        assert tracer.open_spans == 0
        assert tracer.finished_spans("hop") == [span]
        assert registry.value("trace.spans_started") == 1.0
        assert registry.value("trace.spans_finished") == 1.0
        assert registry.histogram("trace.hop.seconds").count == 1

    def test_span_ids_sequential(self):
        tracer = Tracer()
        ids = [tracer.begin("s").span_id for _ in range(3)]
        assert ids == [1, 2, 3]

    def test_finish_is_idempotent(self):
        tracer = Tracer()
        span = tracer.finish(tracer.begin("s"))
        tracer.finish(span)
        assert tracer.registry.value("trace.spans_finished") == 1.0

    def test_ring_buffer_bounded(self):
        tracer = Tracer(max_spans=2)
        for _ in range(5):
            tracer.finish(tracer.begin("s"))
        assert len(tracer.finished_spans()) == 2
        assert tracer.registry.value("trace.spans_finished") == 5.0


class TestKernelProbe:
    def test_probe_counts_simulator_activity(self):
        sim = Simulator(seed=1)
        registry = MetricsRegistry(clock=lambda: sim.now)
        sim.set_probe(KernelProbe(registry))
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b"]
        assert registry.value("kernel.events_scheduled") == 2.0
        assert registry.value("kernel.events_executed") == 2.0
        delay = registry.histogram("kernel.schedule_delay_seconds")
        assert delay.count == 2
        assert delay.sum == pytest.approx(3.0)

    def test_invalid_probe_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            Simulator(seed=1).set_probe(object())


class TestExporters:
    @pytest.fixture
    def registry(self):
        registry = MetricsRegistry()
        registry.counter("filtering.received").inc(7)
        registry.gauge("kernel.queue_depth").set(3)
        registry.histogram("hop.seconds", buckets=(0.001, 0.01)).observe(
            0.005
        )
        return registry

    def test_prometheus_name(self):
        assert prometheus_name("filtering.received") == (
            "garnet_filtering_received"
        )
        assert prometheus_name("trace.hop-x.seconds") == (
            "garnet_trace_hop_x_seconds"
        )

    def test_render_prometheus(self, registry):
        text = render_prometheus(registry)
        assert "# TYPE garnet_filtering_received counter" in text
        assert "garnet_filtering_received 7" in text
        assert "# TYPE garnet_kernel_queue_depth gauge" in text
        assert "garnet_kernel_queue_depth 3" in text
        assert "# TYPE garnet_hop_seconds histogram" in text
        assert 'garnet_hop_seconds_bucket{le="0.001"} 0' in text
        assert 'garnet_hop_seconds_bucket{le="0.01"} 1' in text
        assert 'garnet_hop_seconds_bucket{le="+Inf"} 1' in text
        assert "garnet_hop_seconds_sum 0.005" in text
        assert "garnet_hop_seconds_count 1" in text
        assert text.endswith("\n")

    def test_render_prometheus_accepts_snapshot_dict(self, registry):
        assert render_prometheus(registry.snapshot()) == render_prometheus(
            registry
        )

    def test_buckets_ordered_after_json_round_trip(self):
        # A key-sorted JSON dump scrambles bucket bounds lexically
        # ("30" < "5"); re-rendering must restore increasing le order.
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "delay", buckets=(0.5, 1.0, 5.0, 30.0)
        )
        histogram.observe(3.0)
        reloaded = json.loads(json.dumps(registry.snapshot(), sort_keys=True))
        text = render_prometheus(reloaded)
        bucket_lines = [
            line for line in text.splitlines() if "_bucket" in line
        ]
        assert bucket_lines == [
            'garnet_delay_bucket{le="0.5"} 0',
            'garnet_delay_bucket{le="1"} 0',
            'garnet_delay_bucket{le="5"} 1',
            'garnet_delay_bucket{le="30"} 1',
            'garnet_delay_bucket{le="+Inf"} 1',
        ]
