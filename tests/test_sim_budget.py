"""The paper's Figure 1 path, in-sim: a calls-per-delivery ratchet.

A field shaped like the ``sim_journey`` workload — 200 stationary
sensors sampling once a second over a 2 km square, a 4x4 grid of
overlapping receivers, ten consumers of one kind — is built from the
public API, warmed up for a simulated second, then run for a fixed
simulated window under ``cProfile``. Each transmission is heard by
dozens of sensors and a few receivers; filtering, dispatch and the
consumer callbacks follow. Calls and kernel events are counted per
delivery to a consumer callback. Both repeat exactly run to run and
process to process, unlike timings, so a change that adds one call per
delivery fails here on any host.

The budgets are keyed by Python minor version (3.12 inlines list
comprehensions, which 3.11 calls) and sit less than one call per
delivery above what the code makes today; a change that lowers the
count lowers its budget with it.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import pstats
import subprocess
import sys
from pathlib import Path

from repro import (
    Garnet,
    GarnetConfig,
    SampleCodec,
    SensorStreamSpec,
    StreamConfig,
    SubscriptionPattern,
)
from repro.core.operators import CollectingConsumer
from repro.sensors.sampling import ConstantSampler
from repro.simnet.geometry import Point, Rect

SENSORS = 200
CONSUMERS = 10
WARMUP_S = 1.0
WINDOW_S = 2.0
#: Python calls per delivery, by Python minor version: 124.86 on 3.11
#: (124.96 while the encoder took ``len`` of every extension tuple) and
#: 123.41 on 3.12 (read before that change), where the medium handed
#: every plain sensor a copy of every data frame and the kernel heap
#: compared events in Python: 175.09 and 173.54. Other versions get the
#: ceiling.
BUDGETS = {
    (3, 11): 125.4,
    (3, 12): 124.0,
}
CEILING = 140.0
#: Kernel events per delivery (1.797: sampling ticks, one hand-over per
#: transmission, the fixed-network hops behind the receivers).
EVENTS_BUDGET = 1.8


def counts() -> dict[str, float]:
    """Calls and kernel events per delivery over the measured window."""
    area = Rect(0.0, 0.0, 2000.0, 2000.0)
    deployment = Garnet(
        config=GarnetConfig(
            area=area, receiver_rows=4, receiver_cols=4, receiver_overlap=1.5
        ),
        seed=1,
    )
    deployment.define_sensor_type("field", {})
    codec = SampleCodec(0.0, 100.0)
    for index in range(SENSORS):
        deployment.add_sensor(
            "field",
            [
                SensorStreamSpec(
                    0,
                    ConstantSampler(float(index % 100)),
                    codec,
                    config=StreamConfig(rate=1.0),
                    kind="field",
                )
            ],
            # A fixed pseudo-random scatter (multiplicative hashing of
            # the index), so the layout needs no RNG.
            mobility=Point(
                (index * 7919) % 2000 + 0.5, (index * 104729) % 2000 + 0.5
            ),
        )
    delivered = [0]

    def on_data(arrival) -> None:
        delivered[0] += 1

    for index in range(CONSUMERS):
        consumer = CollectingConsumer(
            f"c{index}", SubscriptionPattern(kind="field"), max_kept=8
        )
        deployment.add_consumer(consumer)
        deployment.session(consumer.name).on_data(on_data)
    deployment.run(WARMUP_S)
    sim = deployment.sim
    before, events = delivered[0], sim.events_processed
    # No collection in the window: it would run whatever ``gc.callbacks``
    # the host process installed, and cProfile would count them.
    collecting = gc.isenabled()
    gc.disable()
    profile = cProfile.Profile()
    try:
        profile.enable()
        deployment.run(WINDOW_S)
        profile.disable()
    finally:
        if collecting:
            gc.enable()
    deliveries = delivered[0] - before
    # Every sensor's reading reached every consumer but for radio loss.
    assert deliveries > 0.95 * SENSORS * CONSUMERS * WINDOW_S
    return {
        "deliveries": deliveries,
        "calls": pstats.Stats(profile).total_calls / deliveries,
        "events": (sim.events_processed - events) / deliveries,
    }


_MEASURED: dict[str, float] = {}


def _measured() -> dict[str, float]:
    if not _MEASURED:
        _MEASURED.update(counts())
    return _MEASURED


def test_in_sim_delivery_stays_within_its_call_budget():
    budget = BUDGETS.get(sys.version_info[:2], CEILING)
    assert _measured()["calls"] <= budget


def test_in_sim_delivery_stays_within_its_event_budget():
    assert _measured()["events"] <= EVENTS_BUDGET


def test_counts_repeat_in_another_process():
    """Another interpreter, with another string-hash seed, counts the
    same calls and events for the same deliveries."""
    env = dict(os.environ, PYTHONHASHSEED="12345")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json, sys; sys.path.insert(0, sys.argv[1]); "
            "import test_sim_budget as t; print(json.dumps(t.counts()))",
            str(Path(__file__).resolve().parent),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    assert json.loads(done.stdout.strip().splitlines()[-1]) == _measured()
