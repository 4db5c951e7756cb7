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
- **broadcast_dense**: `WirelessMedium.broadcast` frames/second in the
  *dense* regime (every listener in range, loss model enabled) where
  the per-listener RSSI + survival loop dominates. One implementation,
  so an absolute trajectory number.
- **dispatch**: `_compute_route` throughput under bucketed patterned
  subscriptions, and `remove_endpoint` churn (lease-reap shape). No
  kill switch exists for the dispatch indexes, so these are absolute
  trajectory numbers rather than A/B ratios.
- **e2e**: simulated-seconds-per-wall-second of the largest
  `bench_scale` deployment shape, run in a fresh subprocess against this
  repo's ``src``. Pass ``--e2e-baseline-src <path>`` (a ``src`` directory
  from a git worktree of an older commit) to run the identical program
  against that tree too and report ``speedup_vs_seed``; the two runs
  must make exactly the same transmissions and radio deliveries, which
  doubles as a cross-version determinism check (kernel event counts
  differ by design: a transmission's copies ride one event here, one
  event each at the seed). The committed baseline was measured
  against the pre-E18 seed commit::

      git worktree add .tmp-seed <seed-commit>
      PYTHONPATH=src python benchmarks/bench_e18_hotpath.py \\
          --e2e-baseline-src .tmp-seed/src
      git worktree remove .tmp-seed

- **e2e_dense**: the dense variant — 1200+ listeners every
  transmission reaches under a harsh loss model.

Usage::

    PYTHONPATH=src python benchmarks/bench_e18_hotpath.py [--quick]
        [--check] [--output BENCH_e18_hotpath.json]
        [--e2e-baseline-src PATH]

``--check`` compares the fresh numbers against the committed JSON and
exits non-zero when the codec or broadcast ratios, or the dense rates,
regressed by more than 30% — the CI contract from DESIGN/E18.
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
    codec = MessageCodec()
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


def _broadcast_rate_dense(listeners: int, seconds: float) -> float:
    """Frames/second when *every* listener hears every frame.

    The opposite regime from :func:`_broadcast_rate`: a small field with
    long radio ranges, the log-distance loss model enabled, so the cost
    per broadcast is dominated by the per-listener RSSI + survival-draw
    loop.
    """
    area = 400.0
    tx_range = 2000.0
    rng = random.Random(13)
    sim = Simulator(seed=2)
    medium = WirelessMedium(sim, loss_model=LossModel())
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


def bench_broadcast_dense(counts: list[int], seconds: float) -> dict:
    return {
        str(count): {"per_s": round(_broadcast_rate_dense(count, seconds))}
        for count in counts
    }


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
stats = deployment.medium.stats
print(json.dumps({"sim_s_per_wall_s": round(duration / wall, 2),
                  "events": deployment.sim.events_processed,
                  "transmissions": stats.transmissions,
                  "deliveries": stats.deliveries}))
"""

HERE_SRC = Path(__file__).resolve().parent.parent / "src"


def _e2e_once(program: str, src: Path, duration: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run(
        [sys.executable, "-c", program, str(duration)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _e2e_best(program: str, src: Path, duration: float, best: dict) -> dict:
    run = _e2e_once(program, src, duration)
    return run if run["sim_s_per_wall_s"] > best["sim_s_per_wall_s"] else best


def bench_e2e(
    duration: float, baseline_src: Path | None = None, repeats: int = 2
) -> dict:
    """Sim-seconds-per-wall-second, best of ``repeats`` subprocess runs.

    With ``baseline_src`` the optimized and baseline runs are
    interleaved (fairer on a noisy host) and the speedup is reported;
    identical transmission and radio-delivery counts across trees are
    asserted — the optimized hot paths must not change what the
    simulation *does*.
    """
    best: dict = {"sim_s_per_wall_s": 0.0}
    seed_best: dict = {"sim_s_per_wall_s": 0.0}
    for _ in range(repeats):
        best = _e2e_best(_E2E_PROGRAM, HERE_SRC, duration, best)
        if baseline_src is not None:
            seed_best = _e2e_best(
                _E2E_PROGRAM, baseline_src, duration, seed_best
            )
    results = dict(best)
    if baseline_src is not None:
        for count in ("transmissions", "deliveries"):
            assert seed_best[count] == best[count], (
                f"optimized and baseline trees made different {count}: "
                f"{best[count]} vs {seed_best[count]}"
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
# RSSI + survival loop.
_E2E_DENSE_PROGRAM = """\
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
sensors = 1200
area = Rect(0.0, 0.0, 600.0, 600.0)
config = GarnetConfig(area=area, receiver_rows=4, receiver_cols=4,
                      receiver_overlap=6.0,
                      loss_model=LossModel(base=0.93, edge=0.98,
                                           good_fraction=0.0),
                      publish_location_stream=False)
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
    "listeners": sensors + config.receiver_rows * config.receiver_cols,
    "sim_s_per_wall_s": round(duration / wall, 2),
    "transmissions": stats.transmissions,
    "deliveries": stats.deliveries,
}))
"""


def bench_e2e_dense(duration: float, repeats: int = 2) -> dict:
    """Dense-deployment sim-s/wall-s, best of ``repeats`` subprocess runs."""
    best: dict = {"sim_s_per_wall_s": 0.0}
    for _ in range(repeats):
        best = _e2e_best(_E2E_DENSE_PROGRAM, HERE_SRC, duration, best)
    return best


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_all(quick: bool, e2e_baseline_src: Path | None = None) -> dict:
    seconds = 0.2 if quick else 0.8
    counts = [100, 1000] if quick else [100, 500, 1000, 2000]
    dense_counts = [1024] if quick else [256, 1024, 4096]
    duration = 5.0 if quick else 30.0
    dense_duration = 0.5 if quick else 2.0
    repeats = 2 if quick else 3
    return {
        "experiment": "E18 hot-path overhaul",
        "mode": "quick" if quick else "full",
        "codec": bench_codec(seconds),
        "broadcast": bench_broadcast(counts, seconds),
        "broadcast_dense": bench_broadcast_dense(dense_counts, seconds),
        "dispatch": bench_dispatch(seconds),
        "e2e": bench_e2e(duration, e2e_baseline_src, repeats),
        "e2e_dense": bench_e2e_dense(dense_duration, repeats),
    }


def check_against_baseline(fresh: dict, baseline: dict) -> list[str]:
    """Regression messages (empty = pass): codec + broadcast ratios and
    the dense rates must stay within REGRESSION_TOLERANCE of the
    committed baseline."""
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
    dense = [
        (
            f"broadcast_dense[{count}].per_s",
            entry["per_s"],
            baseline.get("broadcast_dense", {}).get(count, {}).get("per_s"),
        )
        for count, entry in fresh["broadcast_dense"].items()
    ]
    dense.append((
        "e2e_dense.sim_s_per_wall_s",
        fresh["e2e_dense"]["sim_s_per_wall_s"],
        baseline.get("e2e_dense", {}).get("sim_s_per_wall_s"),
    ))
    for name, new, old in dense:
        if old and new < old * REGRESSION_TOLERANCE:
            failures.append(
                f"{name} regressed: {new} < {REGRESSION_TOLERANCE} * {old}"
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
