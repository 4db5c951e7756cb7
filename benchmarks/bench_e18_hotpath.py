"""E18: hot-path microbenchmarks with a tracked perf trajectory.

Standalone script (not a pytest benchmark): CI runs it as a perf smoke
job and the repo commits its JSON output as the baseline the next run is
checked against, so the optimization work in this experiment cannot
silently rot.

Sections
--------
- **codec**: `MessageCodec.encode`/`decode` (struct fast path) vs the
  validating `encode_reference`/`decode_reference`, in messages/second
  over a representative stream of plain sensor data messages.
- **broadcast**: `WirelessMedium.broadcast` frames/second with the
  uniform-grid spatial index on vs off (the exhaustive linear scan), at
  several static-listener counts.
- **broadcast_vector**: `WirelessMedium.broadcast` frames/second with
  ``vectorized`` on vs off in the *dense* regime (every listener in
  range, loss model enabled) where the per-listener RSSI + survival
  loop dominates.
- **dispatch**: `_compute_route` throughput under bucketed patterned
  subscriptions, and `remove_endpoint` churn (lease-reap shape). No
  kill switch exists for the dispatch indexes, so these are absolute
  trajectory numbers rather than A/B ratios.
- **e2e**: simulated-seconds-per-wall-second of the largest
  `bench_scale` deployment shape, run in a fresh subprocess against this
  repo's ``src``. Pass ``--e2e-baseline-src <path>`` (a ``src`` directory
  from a git worktree of an older commit) to run the identical program
  against that tree too and report ``speedup_vs_seed``; the two runs
  must process exactly the same number of events, which doubles as a
  cross-version determinism check. The committed baseline was measured
  against the pre-E18 seed commit::

      git worktree add .tmp-seed <seed-commit>
      PYTHONPATH=src python benchmarks/bench_e18_hotpath.py \\
          --e2e-baseline-src .tmp-seed/src
      git worktree remove .tmp-seed

- **e2e_vector**: the dense variant — 1200+ listeners every
  transmission reaches under a harsh loss model, run with
  ``wireless_vectorized`` on and off; ``--check`` enforces an absolute
  speedup floor of ``E2E_VECTOR_MIN_SPEEDUP``.

Usage::

    PYTHONPATH=src python benchmarks/bench_e18_hotpath.py [--quick]
        [--check] [--output BENCH_e18_hotpath.json]
        [--e2e-baseline-src PATH]

``--check`` compares the fresh numbers against the committed JSON and
exits non-zero when the codec or broadcast ratios regressed by more than
30% — the CI contract from DESIGN/E18.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from repro.core.dispatching import (
    DispatchingService,
    SubscriptionPattern,
)
from repro.core.message import DataMessage, MessageCodec
from repro.core.streamid import StreamId
from repro.core.streams import StreamRegistry
from repro.simnet.fixednet import FixedNetwork
from repro.simnet.geometry import Point
from repro.simnet.kernel import Simulator
from repro.simnet.wireless import LossModel, WirelessMedium

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_e18_hotpath.json"
REGRESSION_TOLERANCE = 0.7  # fresh ratio must be >= 70% of baseline
# The vectorized medium must beat the scalar loop end-to-end by at least
# this factor on the dense (every-listener-in-range) deployment; gated
# in --check runs so the numpy path cannot silently stop being used.
E2E_VECTOR_MIN_SPEEDUP = 2.0


def _best_rate(fn, items, seconds: float, repeats: int = 3) -> float:
    """Best-of-N items/second for ``fn`` applied to every item."""
    best = 0.0
    for _ in range(repeats):
        count = 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            for item in items:
                fn(item)
            count += len(items)
        best = max(best, count / (time.perf_counter() - start))
    return best


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
def bench_codec(seconds: float) -> dict:
    rng = random.Random(7)
    codec = MessageCodec(checksum=True)
    # The shape the hot path actually carries: plain data messages with
    # small sensor payloads, a handful of distinct streams.
    messages = [
        DataMessage(
            StreamId(rng.randrange(64), rng.randrange(4)),
            rng.randrange(0x10000),
            bytes(rng.randrange(256) for _ in range(24)),
        )
        for _ in range(200)
    ]
    wires = [codec.encode(m) for m in messages]
    for message, wire in zip(messages, wires):
        assert wire == codec.encode_reference(message)
        assert codec.decode(wire) == codec.decode_reference(wire)

    encode_fast = _best_rate(codec.encode, messages, seconds)
    encode_ref = _best_rate(codec.encode_reference, messages, seconds)
    decode_fast = _best_rate(codec.decode, wires, seconds)
    decode_ref = _best_rate(codec.decode_reference, wires, seconds)
    return {
        "encode_fast_per_s": round(encode_fast),
        "encode_reference_per_s": round(encode_ref),
        "encode_speedup": round(encode_fast / encode_ref, 2),
        "decode_fast_per_s": round(decode_fast),
        "decode_reference_per_s": round(decode_ref),
        "decode_speedup": round(decode_fast / decode_ref, 2),
    }


# ----------------------------------------------------------------------
# Broadcast
# ----------------------------------------------------------------------
class _NullListener:
    __slots__ = ("position", "received")

    def __init__(self, position: Point) -> None:
        self.position = position
        self.received = 0

    def on_radio_receive(self, frame) -> None:
        self.received += 1


def _broadcast_rate(listeners: int, indexed: bool, seconds: float) -> float:
    # 100 m range on a 2 km field: typical low-power sensor radio reach,
    # a handful of listeners hear each frame, the rest must be pruned.
    # Static listeners are grid-indexed; attached mobile, the same field
    # gets the exhaustive per-broadcast scan (the "linear" side).
    area = 2000.0
    tx_range = 100.0
    rng = random.Random(11)
    sim = Simulator(seed=1)
    medium = WirelessMedium(sim)
    for _ in range(listeners):
        medium.attach(
            _NullListener(
                Point(rng.uniform(0, area), rng.uniform(0, area))
            ),
            tx_range,
            static=indexed,
        )
    origins = [
        Point(rng.uniform(0, area), rng.uniform(0, area)) for _ in range(64)
    ]
    payload = b"x" * 24

    # Timed region covers only broadcast scheduling; the queue is
    # drained between passes (outside the clock) so heap depth stays
    # representative instead of growing across rounds.
    best = 0.0
    for _ in range(3):
        count = 0
        elapsed = 0.0
        while elapsed < seconds:
            start = time.perf_counter()
            for origin in origins:
                medium.broadcast(origin, payload, tx_range)
            elapsed += time.perf_counter() - start
            count += len(origins)
            sim.run()
        best = max(best, count / elapsed)
    return best


def bench_broadcast(counts: list[int], seconds: float) -> dict:
    results = {}
    for count in counts:
        indexed = _broadcast_rate(count, True, seconds)
        linear = _broadcast_rate(count, False, seconds)
        results[str(count)] = {
            "indexed_per_s": round(indexed),
            "linear_per_s": round(linear),
            "speedup": round(indexed / linear, 2),
        }
    return results


def _broadcast_rate_dense(
    listeners: int, vectorized: bool, seconds: float
) -> float:
    """Frames/second when *every* listener hears every frame.

    The opposite regime from :func:`_broadcast_rate`: a small field with
    long radio ranges, the log-distance loss model enabled, so the cost
    per broadcast is dominated by the per-listener RSSI + survival-draw
    loop — exactly what ``wireless_vectorized`` turns into array math.
    """
    area = 400.0
    tx_range = 2000.0
    rng = random.Random(13)
    sim = Simulator(seed=2)
    medium = WirelessMedium(
        sim, loss_model=LossModel(), vectorized=vectorized
    )
    for _ in range(listeners):
        medium.attach(
            _NullListener(
                Point(rng.uniform(0, area), rng.uniform(0, area))
            ),
            tx_range,
            static=True,
        )
    origins = [
        Point(rng.uniform(0, area), rng.uniform(0, area)) for _ in range(64)
    ]
    payload = b"x" * 24

    best = 0.0
    for _ in range(3):
        count = 0
        elapsed = 0.0
        while elapsed < seconds:
            start = time.perf_counter()
            for origin in origins:
                medium.broadcast(origin, payload, tx_range)
            elapsed += time.perf_counter() - start
            count += len(origins)
            sim.run()
        best = max(best, count / elapsed)
    return best


def bench_broadcast_vector(counts: list[int], seconds: float) -> dict:
    results = {}
    for count in counts:
        vector = _broadcast_rate_dense(count, True, seconds)
        scalar = _broadcast_rate_dense(count, False, seconds)
        results[str(count)] = {
            "vector_per_s": round(vector),
            "scalar_per_s": round(scalar),
            "speedup": round(vector / scalar, 2),
        }
    return results


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
def bench_dispatch(seconds: float) -> dict:
    sim = Simulator(seed=3)
    network = FixedNetwork(sim)
    registry = StreamRegistry()
    service = DispatchingService(network, registry)
    rng = random.Random(5)

    endpoints = []
    for index in range(100):
        endpoint = f"consumer.{index}"
        network.register_inbox(endpoint, lambda arrival: None)
        endpoints.append(endpoint)
        # Mix of selective patterns (the bucketed kinds) and a few
        # wildcards (always scanned) — the lease-churn workload shape.
        service.add_subscription(
            endpoint, SubscriptionPattern(sensor_id=rng.randrange(64))
        )
        service.add_subscription(
            endpoint, SubscriptionPattern(kind=f"kind.{rng.randrange(16)}")
        )
        if index % 10 == 0:
            service.add_subscription(
                endpoint, SubscriptionPattern(kind="kind.*")
            )
    stream_ids = [
        StreamId(rng.randrange(64), rng.randrange(4)) for _ in range(128)
    ]
    for stream_id in stream_ids:
        registry.detect(stream_id).kind = f"kind.{stream_id.sensor_id % 16}"

    def route(stream_id: StreamId) -> None:
        service.invalidate_routes(stream_id)
        service._compute_route(stream_id)

    routes = _best_rate(route, stream_ids, seconds)

    def churn(endpoint: str) -> None:
        count = service.remove_endpoint(endpoint)
        assert count == 0 or count >= 2
        service.add_subscription(
            endpoint, SubscriptionPattern(sensor_id=rng.randrange(64))
        )
        service.add_subscription(
            endpoint, SubscriptionPattern(kind=f"kind.{rng.randrange(16)}")
        )

    removals = _best_rate(churn, endpoints, seconds)
    return {
        "route_computations_per_s": round(routes),
        "endpoint_churn_per_s": round(removals),
        "subscriptions": service.subscription_count(),
    }


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------
# The e2e program runs in a subprocess with PYTHONPATH pointed at a
# chosen `src` tree, so the *same* deployment can be timed against this
# tree and against an older checkout (``--e2e-baseline-src``). It only
# uses APIs that exist at the pre-E18 seed commit.
_E2E_PROGRAM = """\
import json, sys, time
from repro.core.config import GarnetConfig
from repro.core.dispatching import SubscriptionPattern
from repro.core.middleware import Garnet
from repro.core.operators import CollectingConsumer
from repro.core.resource import StreamConfig
from repro.sensors.node import SensorStreamSpec
from repro.sensors.sampling import ConstantSampler, SampleCodec
from repro.simnet.geometry import Point, Rect

duration = float(sys.argv[1])
# The largest bench_scale shape (200 sensors, 10 consumers).
area = Rect(0.0, 0.0, 2000.0, 2000.0)
config = GarnetConfig(area=area, receiver_rows=4, receiver_cols=4,
                      receiver_overlap=1.5, loss_model=None,
                      publish_location_stream=False)
deployment = Garnet(config=config, seed=1)
deployment.define_sensor_type("g", {})
rng = deployment.sim.fork_rng()
sample_codec = SampleCodec(0.0, 100.0)
for _ in range(200):
    deployment.add_sensor(
        "g",
        [SensorStreamSpec(0, ConstantSampler(42.0), sample_codec,
                          config=StreamConfig(rate=1.0), kind="scale")],
        mobility=Point(rng.uniform(0.0, area.x_max),
                       rng.uniform(0.0, area.y_max)),
    )
for index in range(10):
    deployment.add_consumer(CollectingConsumer(
        f"c{index}", SubscriptionPattern(kind="scale"), max_kept=64))
start = time.perf_counter()
deployment.run(duration)
wall = time.perf_counter() - start
print(json.dumps({"sim_s_per_wall_s": round(duration / wall, 2),
                  "events": deployment.sim.events_processed}))
"""


def _e2e_once(src: Path, duration: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run(
        [sys.executable, "-c", _E2E_PROGRAM, str(duration)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench_e2e(
    duration: float, baseline_src: Path | None = None, repeats: int = 2
) -> dict:
    """Sim-seconds-per-wall-second, best of ``repeats`` subprocess runs.

    With ``baseline_src`` the optimized and baseline runs are
    interleaved (fairer on a noisy host) and the speedup is reported;
    identical event counts across trees are asserted — the optimized
    hot paths must not change what the simulation *does*.
    """
    here = Path(__file__).resolve().parent.parent / "src"
    best: dict = {"sim_s_per_wall_s": 0.0}
    seed_best: dict = {"sim_s_per_wall_s": 0.0}
    for _ in range(repeats):
        run = _e2e_once(here, duration)
        if run["sim_s_per_wall_s"] > best["sim_s_per_wall_s"]:
            best = run
        if baseline_src is not None:
            seed_run = _e2e_once(baseline_src, duration)
            if seed_run["sim_s_per_wall_s"] > seed_best["sim_s_per_wall_s"]:
                seed_best = seed_run
    results = {
        "sim_s_per_wall_s": best["sim_s_per_wall_s"],
        "events": best["events"],
    }
    if baseline_src is not None:
        assert seed_best["events"] == best["events"], (
            "optimized and baseline trees processed different event "
            f"counts: {best['events']} vs {seed_best['events']}"
        )
        results["seed_sim_s_per_wall_s"] = seed_best["sim_s_per_wall_s"]
        results["speedup_vs_seed"] = round(
            best["sim_s_per_wall_s"] / seed_best["sim_s_per_wall_s"], 2
        )
    return results


# The dense-field variant: 1200 receive-capable sensors whose transmit
# range spans the whole area, so every transmission fans out to 1200+
# candidate listeners, under a harsh loss model (most candidates draw a
# loss). Per-broadcast cost is then dominated by the per-listener
# RSSI + survival loop — the regime `wireless_vectorized` turns into
# one numpy pass and a single batched delivery event. The program runs
# once per flag setting in a fresh subprocess and the driver reports
# the on/off ratio.
_E2E_VECTOR_PROGRAM = """\
import json, sys, time
from repro.core.config import GarnetConfig
from repro.core.dispatching import SubscriptionPattern
from repro.core.middleware import Garnet
from repro.core.operators import CollectingConsumer
from repro.core.resource import StreamConfig
from repro.sensors.node import SensorStreamSpec
from repro.sensors.sampling import ConstantSampler, SampleCodec
from repro.simnet.geometry import Point, Rect
from repro.simnet.wireless import LossModel

duration = float(sys.argv[1])
vectorized = sys.argv[2] == "on"
sensors = 1200
area = Rect(0.0, 0.0, 600.0, 600.0)
config = GarnetConfig(area=area, receiver_rows=4, receiver_cols=4,
                      receiver_overlap=6.0,
                      loss_model=LossModel(base=0.93, edge=0.98,
                                           good_fraction=0.0),
                      publish_location_stream=False,
                      wireless_vectorized=vectorized)
deployment = Garnet(config=config, seed=1)
deployment.define_sensor_type("g", {})
rng = deployment.sim.fork_rng()
sample_codec = SampleCodec(0.0, 100.0)
for _ in range(sensors):
    deployment.add_sensor(
        "g",
        [SensorStreamSpec(0, ConstantSampler(42.0), sample_codec,
                          config=StreamConfig(rate=1.0), kind="scale")],
        mobility=Point(rng.uniform(0.0, area.x_max),
                       rng.uniform(0.0, area.y_max)),
        tx_range=2000.0,
    )
for index in range(2):
    deployment.add_consumer(CollectingConsumer(
        f"c{index}", SubscriptionPattern(kind="scale"), max_kept=64))
start = time.perf_counter()
deployment.run(duration)
wall = time.perf_counter() - start
stats = deployment.medium.stats
print(json.dumps({
    "sim_s_per_wall_s": round(duration / wall, 2),
    "events": deployment.sim.events_processed,
    "listeners": sensors + config.receiver_rows * config.receiver_cols,
    "transmissions": stats.transmissions,
    "deliveries": stats.deliveries,
    "losses": stats.losses,
}))
"""


def _e2e_vector_once(duration: float, vectorized: bool) -> dict:
    here = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(here)
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            _E2E_VECTOR_PROGRAM,
            str(duration),
            "on" if vectorized else "off",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench_e2e_vector(duration: float, repeats: int = 2) -> dict:
    """Dense-deployment sim-s/wall-s with the vectorized medium on vs off.

    Both settings run the identical program, interleaved; transmission
    and out-of-range counts must agree exactly (the flag may only change
    *which* survival randomness is drawn, never what is attempted).
    """
    vector_best: dict = {"sim_s_per_wall_s": 0.0}
    scalar_best: dict = {"sim_s_per_wall_s": 0.0}
    for _ in range(repeats):
        vector_run = _e2e_vector_once(duration, True)
        if vector_run["sim_s_per_wall_s"] > vector_best["sim_s_per_wall_s"]:
            vector_best = vector_run
        scalar_run = _e2e_vector_once(duration, False)
        if scalar_run["sim_s_per_wall_s"] > scalar_best["sim_s_per_wall_s"]:
            scalar_best = scalar_run
    assert vector_best["transmissions"] == scalar_best["transmissions"], (
        "vector and scalar runs attempted different transmission counts: "
        f"{vector_best['transmissions']} vs {scalar_best['transmissions']}"
    )
    return {
        "listeners": vector_best["listeners"],
        "vector_sim_s_per_wall_s": vector_best["sim_s_per_wall_s"],
        "scalar_sim_s_per_wall_s": scalar_best["sim_s_per_wall_s"],
        "vector_speedup": round(
            vector_best["sim_s_per_wall_s"]
            / scalar_best["sim_s_per_wall_s"],
            2,
        ),
        "transmissions": vector_best["transmissions"],
        "vector_deliveries": vector_best["deliveries"],
        "scalar_deliveries": scalar_best["deliveries"],
    }


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_all(quick: bool, e2e_baseline_src: Path | None = None) -> dict:
    seconds = 0.2 if quick else 0.8
    counts = [100, 1000] if quick else [100, 500, 1000, 2000]
    vector_counts = [1024] if quick else [256, 1024, 4096]
    duration = 5.0 if quick else 30.0
    vector_duration = 0.5 if quick else 2.0
    repeats = 2 if quick else 3
    return {
        "experiment": "E18 hot-path overhaul",
        "mode": "quick" if quick else "full",
        "codec": bench_codec(seconds),
        "broadcast": bench_broadcast(counts, seconds),
        "broadcast_vector": bench_broadcast_vector(vector_counts, seconds),
        "dispatch": bench_dispatch(seconds),
        "e2e": bench_e2e(duration, e2e_baseline_src, repeats),
        "e2e_vector": bench_e2e_vector(vector_duration, repeats),
    }


def check_against_baseline(fresh: dict, baseline: dict) -> list[str]:
    """Regression messages (empty = pass): codec + broadcast ratios must
    stay within REGRESSION_TOLERANCE of the committed baseline."""
    failures = []
    for metric in ("encode_speedup", "decode_speedup"):
        old = baseline.get("codec", {}).get(metric)
        new = fresh["codec"][metric]
        if old and new < old * REGRESSION_TOLERANCE:
            failures.append(
                f"codec.{metric} regressed: {new} < {REGRESSION_TOLERANCE} * {old}"
            )
    for count, entry in fresh["broadcast"].items():
        old = baseline.get("broadcast", {}).get(count, {}).get("speedup")
        new = entry["speedup"]
        if old and new < old * REGRESSION_TOLERANCE:
            failures.append(
                f"broadcast[{count}].speedup regressed: "
                f"{new} < {REGRESSION_TOLERANCE} * {old}"
            )
    for count, entry in fresh.get("broadcast_vector", {}).items():
        old = (
            baseline.get("broadcast_vector", {})
            .get(count, {})
            .get("speedup")
        )
        new = entry["speedup"]
        if old and new < old * REGRESSION_TOLERANCE:
            failures.append(
                f"broadcast_vector[{count}].speedup regressed: "
                f"{new} < {REGRESSION_TOLERANCE} * {old}"
            )
    vector_speedup = fresh.get("e2e_vector", {}).get("vector_speedup")
    if vector_speedup is not None and vector_speedup < E2E_VECTOR_MIN_SPEEDUP:
        # Absolute floor, not baseline-relative: the dense deployment
        # must keep paying for the vectorized medium at all.
        failures.append(
            f"e2e_vector.vector_speedup {vector_speedup} < "
            f"{E2E_VECTOR_MIN_SPEEDUP} (absolute floor)"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="short measurement windows (CI smoke mode)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail when codec/broadcast ratios regressed vs the committed "
        "baseline JSON",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help="where to write (and read the baseline) JSON",
    )
    parser.add_argument(
        "--e2e-baseline-src", type=Path, default=None,
        help="src directory of an older checkout (e.g. a worktree of the "
        "pre-E18 seed commit) to A/B the e2e deployment against",
    )
    parser.add_argument(
        "--fresh-output", type=Path, default=None,
        help="also write the freshly measured numbers here (useful in "
        "--check runs, which never touch the committed baseline)",
    )
    args = parser.parse_args(argv)
    if args.e2e_baseline_src is not None and not args.e2e_baseline_src.is_dir():
        parser.error(f"--e2e-baseline-src: no such directory: "
                     f"{args.e2e_baseline_src}")

    baseline = None
    if args.check and args.output.exists():
        baseline = json.loads(args.output.read_text())

    fresh = run_all(args.quick, args.e2e_baseline_src)
    print(json.dumps(fresh, indent=2))
    if args.fresh_output is not None:
        args.fresh_output.write_text(json.dumps(fresh, indent=2) + "\n")
        print(f"wrote {args.fresh_output}")

    if baseline is not None:
        failures = check_against_baseline(fresh, baseline)
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            return 1
        print("perf check: within tolerance of committed baseline")
    elif args.check:
        print(
            f"perf check: no baseline at {args.output}, skipping comparison",
            file=sys.stderr,
        )

    if not args.check:
        # Only non-check runs refresh the committed trajectory point, so
        # a CI smoke run never overwrites the baseline it compares against.
        args.output.write_text(json.dumps(fresh, indent=2) + "\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
