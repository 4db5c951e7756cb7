"""Determinism regression for the E18 hot-path optimizations.

The spatial broadcast index, struct-based codec, kernel tombstone
compaction and dispatch endpoint index are all required to be *bit-free*
optimizations: same seed ⇒ byte-identical delivery traces and metrics.
This module pins that down two ways:

- two same-seed runs of a ``bench_scale``-shaped deployment must produce
  identical digests (catches nondeterminism introduced by new index
  structures, e.g. set iteration order);
- the digest must equal a golden value recorded against the
  *pre-optimization* code paths (linear broadcast scan, validating
  codec, uncompacted kernel, unindexed dispatch), so every optimized
  path is proven to preserve RNG draw order and event ordering exactly.

The deployment deliberately mixes stationary and mobile sensors and
keeps the loss model enabled so the wireless RNG draw order — the most
fragile invariant under the spatial index — is exercised.
"""

from __future__ import annotations

import hashlib

from repro.core.config import GarnetConfig
from repro.core.dispatching import SubscriptionPattern
from repro.core.middleware import Garnet
from repro.core.operators import CollectingConsumer
from repro.core.resource import StreamConfig
from repro.sensors.node import SensorStreamSpec
from repro.sensors.sampling import ConstantSampler, SampleCodec
from repro.simnet.geometry import Point, Rect
from repro.simnet.mobility import RandomWaypoint
from repro.simnet.wireless import LossModel

# Digest of the delivery trace + metrics snapshot produced by the seed
# (pre-optimization) implementation at commit 6a3a43b. Do NOT update
# this constant to make a failing optimization pass: a mismatch means
# the optimized hot paths changed observable behaviour.
GOLDEN_DIGEST = (
    "4273315abc31463d34445fad8b20bbe26c6078f2863835d4485619767f2c2d3e"
)

# Digest of the same deployment with clustering enabled across two
# broker nodes (seed 2024). The trace differs from GOLDEN_DIGEST —
# messages take inter-broker hops and the summary gains cluster.* keys
# — but it must be reproducible bit-for-bit across runs and commits.
CLUSTER_GOLDEN_DIGEST = (
    "dc46d2cc64ca3595164b3baeda95e70d6208855cf46660b926fcc60b13d8e8cc"
)

# Digest of the same deployment with wireless_vectorized=True (seed
# 2024). The vectorized medium draws all of a broadcast's survival
# randomness with a single Generator.random(n) call in candidate-array
# order (static tier, then mobile) instead of n sequential draws in
# global attach order, so the trace legitimately differs from
# GOLDEN_DIGEST — but it must be reproducible bit-for-bit across runs,
# commits and platforms.
VECTOR_GOLDEN_DIGEST = (
    "32194fac3386692869eb5dba61561b854a0f267ba66c6ccf147a7e814143b1ee"
)

SEED = 2024
DURATION = 20.0
SENSORS = 24
CONSUMERS = 3
CODEC = SampleCodec(0.0, 100.0)


def build_deployment(
    seed: int,
    *,
    cluster: bool = False,
    store: bool = False,
    vectorized: bool = False,
    fanout: bool = False,
) -> tuple[Garnet, list[CollectingConsumer]]:
    area = Rect(0.0, 0.0, 1200.0, 1200.0)
    config = GarnetConfig(
        area=area,
        receiver_rows=4,
        receiver_cols=4,
        receiver_overlap=1.5,
        loss_model=LossModel(),
        publish_location_stream=False,
        wireless_vectorized=vectorized,
        cluster_enabled=cluster,
        cluster_brokers=2,
        store_enabled=store,
        fanout_enabled=fanout,
    )
    deployment = Garnet(config=config, seed=seed)
    deployment.define_sensor_type("g", {})
    rng = deployment.sim.fork_rng()
    for index in range(SENSORS):
        spec = SensorStreamSpec(
            0,
            ConstantSampler(42.0),
            CODEC,
            config=StreamConfig(rate=2.0),
            kind="scale",
        )
        position = Point(
            rng.uniform(0.0, area.x_max), rng.uniform(0.0, area.y_max)
        )
        if index % 3 == 0:
            # Every third sensor roams so the mobile (linear-scan) side
            # of the broadcast index is exercised alongside the grid.
            mobility = RandomWaypoint(
                area, deployment.sim.fork_rng(), start=position
            )
        else:
            mobility = position
        deployment.add_sensor("g", [spec], mobility=mobility)
    consumers = []
    for index in range(CONSUMERS):
        consumer = CollectingConsumer(
            f"c{index}", SubscriptionPattern(kind="scale")
        )
        deployment.add_consumer(consumer)
        consumers.append(consumer)
    return deployment, consumers


def run_digest(
    seed: int,
    *,
    cluster: bool = False,
    store: bool = False,
    vectorized: bool = False,
    fanout: bool = False,
    trace_only: bool = False,
) -> str:
    deployment, consumers = build_deployment(
        seed,
        cluster=cluster,
        store=store,
        vectorized=vectorized,
        fanout=fanout,
    )
    deployment.run(DURATION)
    hasher = hashlib.sha256()
    for consumer in consumers:
        for arrival in consumer.arrivals:
            message = arrival.message
            record = (
                f"{consumer.name}|{message.stream_id.pack()}|"
                f"{message.sequence}|{message.payload.hex()}|"
                f"{arrival.receiver_id}|{arrival.received_at!r}|"
                f"{arrival.delivered_at!r}\n"
            )
            hasher.update(record.encode())
    if not trace_only:
        for key, value in sorted(deployment.summary().items()):
            hasher.update(f"{key}={value!r}\n".encode())
    stats = deployment.medium.stats
    hasher.update(
        f"medium|{stats.transmissions}|{stats.deliveries}|"
        f"{stats.losses}|{stats.out_of_range}\n".encode()
    )
    return hasher.hexdigest()


def test_same_seed_runs_are_identical():
    assert run_digest(SEED) == run_digest(SEED)


def test_matches_pre_optimization_golden_digest():
    assert run_digest(SEED) == GOLDEN_DIGEST


def test_cluster_disabled_is_byte_identical():
    # The cluster kill switch: cluster_brokers configured but
    # cluster_enabled=False must not perturb a single event, RNG draw
    # or metric relative to the pre-cluster build.
    assert run_digest(SEED, cluster=False) == GOLDEN_DIGEST


def test_cluster_enabled_two_brokers_is_deterministic():
    assert run_digest(SEED, cluster=True) == run_digest(SEED, cluster=True)


def test_cluster_enabled_matches_recorded_digest():
    # Shard routing (blake2b, not the salted builtin hash), interest
    # broadcast and link forwarding must all be seed-stable across
    # processes and commits.
    assert run_digest(SEED, cluster=True) == CLUSTER_GOLDEN_DIGEST


def test_store_disabled_is_byte_identical():
    # The store kill switch: store_* config fields exist but
    # store_enabled=False must not perturb a single event, RNG draw or
    # metric relative to the pre-store build.
    assert run_digest(SEED, store=False) == GOLDEN_DIGEST


def test_store_enabled_leaves_the_delivery_trace_untouched():
    # Store appends are a synchronous write-through with no events and
    # no RNG draws: with the summary's store.* keys excluded, the
    # store-on run is byte-identical to the golden trace, single-broker
    # and clustered alike.
    assert run_digest(SEED, store=True, trace_only=True) == run_digest(
        SEED, trace_only=True
    )
    assert run_digest(
        SEED, cluster=True, store=True, trace_only=True
    ) == run_digest(SEED, cluster=True, trace_only=True)


def test_store_enabled_is_deterministic():
    assert run_digest(SEED, store=True) == run_digest(SEED, store=True)


def test_fanout_disabled_is_byte_identical():
    # The fanout kill switch: fanout_* config fields exist but
    # fanout_enabled=False must not perturb a single event, RNG draw or
    # metric relative to the pre-fanout build — the module is never
    # even imported.
    assert run_digest(SEED, fanout=False) == GOLDEN_DIGEST
    assert (
        run_digest(SEED, fanout=False, cluster=True)
        == CLUSTER_GOLDEN_DIGEST
    )


def test_fanout_enabled_leaves_flat_delivery_trace_untouched():
    # With no members attached, an enabled fanout subsystem adds relay
    # state and summary keys but zero events on the flat delivery path:
    # with the fanout.* summary keys excluded, the fanout-on run is
    # byte-identical to the golden trace.
    assert run_digest(SEED, fanout=True, trace_only=True) == run_digest(
        SEED, trace_only=True
    )


def test_fanout_enabled_is_deterministic():
    assert run_digest(SEED, fanout=True) == run_digest(SEED, fanout=True)


def test_vectorized_disabled_is_byte_identical():
    # The vectorization kill switch: wireless_vectorized=False (the
    # default) must not perturb a single event, RNG draw or metric —
    # including the np.random.Generator seeding, which must not consume
    # from any scalar stream when the flag is off.
    assert run_digest(SEED, vectorized=False) == GOLDEN_DIGEST
    assert (
        run_digest(SEED, vectorized=False, cluster=True)
        == CLUSTER_GOLDEN_DIGEST
    )


def test_vectorized_runs_are_deterministic():
    assert run_digest(SEED, vectorized=True) == run_digest(
        SEED, vectorized=True
    )


def test_vectorized_matches_recorded_digest():
    # Single-RNG-call survival draws, array-order candidate walks and
    # batched delivery must all be seed-stable across processes and
    # commits. Do NOT update this constant to make a change pass unless
    # the vectorized draw semantics changed *on purpose*.
    assert run_digest(SEED, vectorized=True) == VECTOR_GOLDEN_DIGEST


def test_vectorized_is_statistically_equivalent():
    # Same physics, different draw order: transmissions and the
    # (draw-free) out-of-range accounting must match the scalar medium
    # exactly; deliveries may differ only through loss randomness.
    scalar, _ = _run_deployment(vectorized=False)
    vector, _ = _run_deployment(vectorized=True)
    assert vector.transmissions == scalar.transmissions
    assert vector.out_of_range == scalar.out_of_range
    # deliveries counts *executed* deliveries, so in-flight frames at
    # the end-of-run boundary truncate differently between the modes
    # (scalar delivers copies one event each; vectorized delivers the
    # whole broadcast at its latest arrival). Allow that sliver.
    scalar_total = scalar.deliveries + scalar.losses
    vector_total = vector.deliveries + vector.losses
    assert abs(vector_total - scalar_total) <= 0.01 * scalar_total


def _run_deployment(*, vectorized: bool):
    deployment, consumers = build_deployment(SEED, vectorized=vectorized)
    deployment.run(DURATION)
    return deployment.medium.stats, consumers
