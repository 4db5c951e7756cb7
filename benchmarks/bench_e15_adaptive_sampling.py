"""E15 — adaptive sampling: application knowledge improving the network.

Paper grounding (Section 1): the whole point of the return path is that
"application-level knowledge can be used to improve the overall
operation of the network". This experiment quantifies the claim with the
:class:`~repro.core.adaptive.AdaptiveRateController` closed loop.

Workload: a signal that alternates quiet plateaus with active bursts.
Three strategies sample it through identical deployments:

- **fixed-low** (0.3 Hz): cheap, blind to bursts;
- **fixed-high** (4 Hz): accurate, wasteful on plateaus;
- **adaptive**: the controller raises the rate only during bursts, via
  the real mediated control path.

Reported: sensor transmissions (the energy proxy E14 calibrates) and RMS
reconstruction error (linear interpolation of received samples against
dense ground truth). Expected shape: adaptive achieves near-fixed-high
accuracy at a fraction of fixed-high's transmissions — strictly
dominating fixed-low on error and fixed-high on cost.
"""

import functools
import math

from repro.core.adaptive import AdaptiveRateController
from repro.core.config import GarnetConfig
from repro.core.dispatching import SubscriptionPattern
from repro.core.middleware import Garnet
from repro.core.operators import CollectingConsumer
from repro.core.resource import StreamConfig
from repro.core.security import Permission
from repro.sensors.node import SensorStreamSpec
from repro.sensors.sampling import CallbackSampler, SampleCodec
from repro.simnet.geometry import Rect

from claims import Table, documents

CODEC = SampleCodec(-60.0, 60.0)
DURATION = 600.0
BURSTS = [(100.0, 160.0), (300.0, 360.0), (480.0, 540.0)]


def signal(t: float) -> float:
    """Quiet plateaus at 5.0, bursts of a fast +/-40 oscillation."""
    for start, end in BURSTS:
        if start <= t < end:
            return 40.0 * math.sin(2.0 * math.pi * (t - start) / 6.0)
    return 5.0


def run_strategy(strategy: str, seed: int = 3) -> dict:
    config = GarnetConfig(
        area=Rect(0, 0, 400, 400),
        receiver_rows=2,
        receiver_cols=2,
        loss_model=None,
        publish_location_stream=False,
    )
    deployment = Garnet(config=config, seed=seed)
    deployment.define_sensor_type(
        "g", {"rate_limits": "rate >= 0.05 and rate <= 10"}
    )
    initial_rate = {"fixed-low": 0.3, "fixed-high": 4.0, "adaptive": 0.3}[
        strategy
    ]
    node = deployment.add_sensor(
        "g",
        [
            SensorStreamSpec(
                0,
                CallbackSampler(lambda t, p: signal(t)),
                CODEC,
                config=StreamConfig(rate=initial_rate),
                kind="e15",
            )
        ],
    )
    sink = CollectingConsumer(
        "sink", SubscriptionPattern(kind="e15"), CODEC
    )
    deployment.add_consumer(sink)
    if strategy == "adaptive":
        controller = AdaptiveRateController(
            "controller",
            node.stream_ids()[0],
            CODEC,
            min_rate=0.3,
            max_rate=4.0,
            activity_scale=5.0,
            window=5,
        )
        deployment.add_consumer(
            controller, permissions=Permission.trusted_consumer()
        )
    deployment.run(DURATION)

    received = sorted(
        (CODEC.decode(a.message.payload).time_seconds,
         CODEC.decode(a.message.payload).value)
        for a in sink.arrivals
        if a.message.payload
    )
    return {
        "strategy": strategy,
        "transmissions": node.stats.messages_sent,
        "rms_error": reconstruction_rms(received),
    }


def reconstruction_rms(received: list[tuple[float, float]]) -> float:
    """RMS error of linear interpolation against 10 Hz ground truth."""
    if len(received) < 2:
        return float("inf")
    errors = []
    cursor = 0
    t = received[0][0]
    while t < received[-1][0]:
        while cursor + 1 < len(received) and received[cursor + 1][0] <= t:
            cursor += 1
        (t0, v0), (t1, v1) = received[cursor], received[cursor + 1]
        if t1 > t0:
            interpolated = v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        else:
            interpolated = v0
        errors.append((interpolated - signal(t)) ** 2)
        t += 0.1
    return math.sqrt(sum(errors) / len(errors))


@functools.cache
def strategy_sweep() -> list[dict]:
    return [run_strategy(s) for s in ("fixed-low", "fixed-high", "adaptive")]


@documents("E15")
def strategy_table() -> Table:
    return Table(
        "E15: adaptive sampling vs fixed rates (bursty signal, 600 s)",
        ["strategy", "sensor tx", "RMS error"],
        [
            [r["strategy"], r["transmissions"], r["rms_error"]]
            for r in strategy_sweep()
        ],
    )


def test_adaptive_vs_fixed():
    strategy_table().show()
    rows = strategy_sweep()
    by_name = {r["strategy"]: r for r in rows}
    low, high, adaptive = (
        by_name["fixed-low"],
        by_name["fixed-high"],
        by_name["adaptive"],
    )
    # Shape 1: the fixed strategies bracket the trade.
    assert high["rms_error"] < low["rms_error"]
    assert high["transmissions"] > 5 * low["transmissions"]
    # Shape 2: adaptive gets most of fixed-high's accuracy...
    assert adaptive["rms_error"] < 0.5 * low["rms_error"]
    # ...at well under half of fixed-high's transmission cost, and close
    # to the oracle budget (max rate during bursts, min rate otherwise).
    burst_seconds = sum(end - start for start, end in BURSTS)
    oracle_tx = 4.0 * burst_seconds + 0.3 * (DURATION - burst_seconds)
    assert adaptive["transmissions"] < 0.5 * high["transmissions"]
    assert adaptive["transmissions"] < 1.3 * oracle_tx
