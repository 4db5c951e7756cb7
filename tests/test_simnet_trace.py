"""The latency recorder behind ``actuation.ack_latency``."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simnet.trace import LatencyRecorder


class TestLatencyRecorder:
    def test_basic_statistics(self):
        recorder = LatencyRecorder("lat")
        for v in (3.0, 1.0, 2.0):
            recorder.record(v)
        assert recorder.count == 3
        assert recorder.mean == 2.0
        assert recorder.minimum == 1.0
        assert recorder.maximum == 3.0
        assert recorder.p50 == 2.0

    def test_quantile_interpolation(self):
        recorder = LatencyRecorder()
        for v in (0.0, 10.0):
            recorder.record(v)
        assert recorder.quantile(0.25) == 2.5

    def test_empty_quantiles_are_nan(self):
        recorder = LatencyRecorder()
        assert math.isnan(recorder.p50)
        assert math.isnan(recorder.mean)

    def test_single_sample(self):
        recorder = LatencyRecorder()
        recorder.record(7.0)
        assert recorder.quantile(0.0) == 7.0
        assert recorder.quantile(1.0) == 7.0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-0.1)

    def test_quantile_out_of_range_rejected(self):
        recorder = LatencyRecorder()
        recorder.record(1.0)
        with pytest.raises(ValueError):
            recorder.quantile(1.5)

    def test_summary_keys(self):
        recorder = LatencyRecorder()
        recorder.record(1.0)
        summary = recorder.summary()
        assert set(summary) == {"count", "mean", "min", "p50", "p99", "max"}

    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=100))
    def test_quantiles_are_monotone(self, values):
        recorder = LatencyRecorder()
        for v in values:
            recorder.record(v)
        quantiles = [recorder.quantile(q / 10.0) for q in range(11)]
        assert quantiles == sorted(quantiles)
        assert quantiles[0] == min(values)
        assert quantiles[-1] == max(values)
