"""Shared fixtures for the Garnet reproduction test suite."""

from __future__ import annotations

import pytest

from repro.core.config import GarnetConfig
from repro.core.middleware import Garnet
from repro.core.resource import StreamConfig
from repro.sensors.node import SensorStreamSpec
from repro.sensors.sampling import ConstantSampler, SampleCodec
from repro.simnet.fixednet import FixedNetwork
from repro.simnet.geometry import Rect
from repro.simnet.kernel import Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=1)


@pytest.fixture
def network(sim: Simulator) -> FixedNetwork:
    # Zero latency keeps unit-test causality trivial; integration tests
    # build their own networks with realistic latencies.
    return FixedNetwork(sim, message_latency=0.0)


def lossless_config(**overrides) -> GarnetConfig:
    """A deterministic deployment config: no radio loss, small field."""
    defaults = dict(
        area=Rect(0.0, 0.0, 400.0, 400.0),
        receiver_rows=2,
        receiver_cols=2,
        transmitter_rows=1,
        transmitter_cols=1,
        loss_model=None,
    )
    defaults.update(overrides)
    return GarnetConfig(**defaults)


@pytest.fixture
def deployment() -> Garnet:
    """A small lossless deployment with one generic sensor type defined."""
    garnet = Garnet(config=lossless_config(), seed=7)
    garnet.define_sensor_type(
        "generic",
        {"rate_limits": "rate >= 0.1 and rate <= 50"},
        default_config=StreamConfig(rate=1.0),
    )
    return garnet


CODEC = SampleCodec(0.0, 100.0)


def make_stream_spec(
    stream_index: int = 0,
    value: float = 42.0,
    rate: float = 1.0,
    kind: str = "test.stream",
) -> SensorStreamSpec:
    return SensorStreamSpec(
        stream_index=stream_index,
        sampler=ConstantSampler(value),
        codec=CODEC,
        config=StreamConfig(rate=rate),
        kind=kind,
    )
