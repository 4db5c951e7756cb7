"""Load-driven degradation: down-throttle under pressure, restore after."""

import pytest

from repro.core.adaptive import RateRequestGate
from repro.core.middleware import Garnet
from repro.core.resource import StreamConfig
from repro.core.security import Permission
from repro.errors import ConfigurationError
from repro.qos import QOS_CONSUMER, DegradationController
from repro.sensors.node import SensorStreamSpec
from repro.sensors.sampling import ConstantSampler, SampleCodec

from tests.conftest import lossless_config

CODEC = SampleCodec(0.0, 100.0)


class TestRateRequestGate:
    def test_within_hysteresis(self):
        gate = RateRequestGate(hysteresis=0.1)
        gate.record(2.0, approved=True)
        assert gate.within_hysteresis(2.05)
        assert not gate.within_hysteresis(2.5)

    def test_denied_memo_suppresses_identical_retry(self):
        gate = RateRequestGate()
        gate.record(1.5, approved=False)
        assert gate.is_denied(1.5)
        assert not gate.is_denied(1.6)
        gate.record(1.6, approved=True)
        assert not gate.is_denied(1.5)


def sensor_deployment(seed=7, rate=4.0, sensors=2, **overrides):
    deployment = Garnet(config=lossless_config(**overrides), seed=seed)
    deployment.define_sensor_type(
        "meter",
        {"rate_limits": "rate >= 0.5 and rate <= 20"},
        default_config=StreamConfig(rate=rate),
    )
    for index in range(sensors):
        deployment.add_sensor(
            "meter",
            [
                SensorStreamSpec(
                    0,
                    ConstantSampler(10.0 + index),
                    CODEC,
                    config=StreamConfig(rate=rate),
                    kind="meter.level",
                )
            ],
        )
    return deployment


def make_controller(deployment, pressure, **overrides):
    """A controller driven by a mutable pressure cell: tests set
    ``pressure[0]`` and tick the virtual clock."""
    token = deployment.auth.issue(QOS_CONSUMER, Permission.trusted_consumer())
    defaults = dict(
        period=1.0,
        degrade_after=2,
        restore_after=2,
        degrade_factor=0.5,
        min_rate=0.5,
    )
    defaults.update(overrides)
    return DegradationController(
        deployment.sim,
        deployment.network,
        deployment.control,
        deployment.resource_manager,
        token,
        deployment.metrics(),
        pressure_fn=lambda: pressure[0],
        **defaults,
    )


def believed_rates(deployment):
    return {
        stream_id: config.rate
        for stream_id, config in deployment.resource_manager.overview().items()
    }


class TestDegradationController:
    def test_sustained_pressure_halves_sensor_rates(self):
        deployment = sensor_deployment(rate=4.0)
        pressure = [5.0]
        controller = make_controller(deployment, pressure)
        deployment.run(2.5)  # two overloaded ticks
        rates = believed_rates(deployment)
        assert rates and all(r == pytest.approx(2.0) for r in rates.values())
        assert controller.stats.degradations == 2
        assert controller.overloaded
        assert len(controller.degraded_streams) == 2

    def test_single_spike_does_not_degrade(self):
        deployment = sensor_deployment(rate=4.0)
        pressure = [5.0]
        controller = make_controller(deployment, pressure, degrade_after=3)
        deployment.sim.schedule(1.5, lambda: pressure.__setitem__(0, 0.0))
        deployment.run(6.0)
        assert controller.stats.degradations == 0
        assert all(
            r == pytest.approx(4.0)
            for r in believed_rates(deployment).values()
        )

    def test_rates_restore_after_calm(self):
        deployment = sensor_deployment(rate=4.0)
        pressure = [5.0]
        controller = make_controller(deployment, pressure)
        deployment.run(2.5)
        assert controller.degraded_streams
        pressure[0] = 0.0
        deployment.run(3.0)  # restore_after=2 calm ticks
        assert not controller.degraded_streams
        assert controller.stats.restorations == 2
        assert not controller.overloaded
        assert all(
            r == pytest.approx(4.0)
            for r in believed_rates(deployment).values()
        )

    def test_degradation_respects_min_rate_floor(self):
        deployment = sensor_deployment(rate=1.0)
        pressure = [5.0]
        controller = make_controller(deployment, pressure, min_rate=0.8)
        deployment.run(6.0)  # several degrade rounds
        rates = believed_rates(deployment)
        assert all(r >= 0.8 for r in rates.values())

    def test_actuations_flow_through_real_sensors(self):
        deployment = sensor_deployment(rate=4.0)
        pressure = [5.0]
        make_controller(deployment, pressure)
        deployment.run(4.0)  # leave room for actuation acks
        for node in deployment.sensors():
            assert node.current_config(0).rate == pytest.approx(2.0)

    def test_state_reported_to_coordinator(self):
        deployment = sensor_deployment(rate=4.0)
        pressure = [5.0]
        make_controller(deployment, pressure)
        deployment.run(2.5)
        assert deployment.coordinator.consumer_state(QOS_CONSUMER) == (
            "overloaded"
        )
        pressure[0] = 0.0
        deployment.run(3.0)
        assert deployment.coordinator.consumer_state(QOS_CONSUMER) == "normal"

    def test_denied_requests_are_memoised(self):
        # Constraint floor is 0.5; min_rate below it makes every request
        # for 0.25 denied — the gate must stop identical retries.
        deployment = sensor_deployment(rate=0.5, sensors=1)
        pressure = [5.0]
        controller = make_controller(deployment, pressure, min_rate=0.25)
        deployment.run(6.5)
        assert controller.stats.denied == 1
        assert controller.stats.degradations == 0

    def test_validation(self):
        deployment = sensor_deployment()
        with pytest.raises(ConfigurationError):
            make_controller(deployment, [0.0], period=0.0)
        with pytest.raises(ConfigurationError):
            make_controller(deployment, [0.0], degrade_after=0)
        with pytest.raises(ConfigurationError):
            make_controller(deployment, [0.0], restore_after=0)
        with pytest.raises(ConfigurationError):
            make_controller(deployment, [0.0], degrade_factor=1.0)
        with pytest.raises(ConfigurationError):
            make_controller(deployment, [0.0], min_rate=0.0)


class TestConfigWiring:
    def test_qos_degradation_config_builds_controller(self):
        deployment = sensor_deployment(
            qos_degradation=True,
            qos_degradation_period=1.0,
            qos_ingress_rate=1000.0,
        )
        assert deployment.qos.degradation is not None
        assert deployment.qos.admission is not None
        deployment.run(3.0)
        # No pressure: nothing degraded, ticks counted.
        assert deployment.qos.degradation.stats.ticks >= 2
        assert deployment.qos.degradation.stats.degradations == 0

    def test_ingress_sheds_drive_config_wired_degradation(self):
        deployment = sensor_deployment(
            rate=4.0,
            qos_degradation=True,
            qos_degradation_period=1.0,
            # A starved ingress: everything beyond 0.5 msg/s queues and
            # then sheds, generating real qos.ingress.shed pressure.
            qos_ingress_rate=0.5,
            qos_ingress_burst=1.0,
            qos_ingress_queue=2,
        )
        deployment.run(6.0)
        controller = deployment.qos.degradation
        assert deployment.qos.admission.stats.shed > 0
        assert controller.stats.overloaded_ticks >= 2
        assert controller.stats.degradations > 0
        assert controller.degraded_streams
