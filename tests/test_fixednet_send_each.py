"""FixedNetwork.send_each: several sends, one kernel event, same result.

A fan-out relay hands all of its children's frames to ``send_each``.
The batch must be indistinguishable from one ``send`` per pair in
everything but the kernel's event count: handler order and virtual
times, partitions, missing inboxes, jittered retries, breakers, dead
letters, counters, trace spans, ``extract_pending_for`` and a handler
that raises mid-batch. The oracle at the bottom runs random traffic both
ways and compares all of it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.qos.breaker import BreakerPolicy
from repro.simnet.fixednet import FixedNetwork
from repro.simnet.kernel import Simulator
from repro.util.backoff import BackoffPolicy


class Boom(Exception):
    pass


def traced_network(sim: Simulator) -> tuple[FixedNetwork, Tracer]:
    registry = MetricsRegistry(clock=lambda: sim.now)
    tracer = Tracer(registry)
    return FixedNetwork(sim, metrics=registry, tracer=tracer), tracer


class TestSendEach:
    def test_one_kernel_event_delivers_every_pair_in_order(self):
        sim = Simulator()
        network, tracer = traced_network(sim)
        log = []
        for name in ("a", "b"):
            network.register_inbox(name, lambda m, n=name: log.append((n, m)))
        network.send_each([("a", 1), ("b", 2), ("a", 3)])
        assert sim.run() == 1
        assert log == [("a", 1), ("b", 2), ("a", 3)]
        assert network.stats.messages == 3
        spans = tracer.finished_spans("fixednet.deliver")
        assert [span.attributes["destination"] for span in spans] == [
            "a", "b", "a"
        ]
        assert all(span.duration == pytest.approx(0.0005) for span in spans)

    def test_empty_batch_schedules_nothing(self, sim, network):
        network.send_each([])
        assert sim.pending_events == 0
        assert network.stats.messages == 0

    def test_raising_handler_keeps_the_tail_ahead_of_later_events(self, sim):
        network = FixedNetwork(sim, message_latency=1.0)
        log = []

        def boom(message):
            raise Boom(message)

        network.register_inbox("ok", log.append)
        network.register_inbox("boom", boom)
        network.send_each([("ok", 1), ("boom", 2), ("ok", 3)])
        sim.schedule(1.0, log.append, "later")
        with pytest.raises(Boom):
            sim.run()
        assert log == [1]
        sim.run()
        assert log == [1, 3, "later"]

    def test_extract_takes_only_the_matching_legs(self, sim, network):
        log = []
        network.register_inbox("stay", log.append)
        network.send_each([("go", 1), ("stay", 2), ("go", 3)])
        extracted = network.extract_pending_for({"go"})
        assert extracted == [(0.0, "go", 1), (0.0, "go", 3)]
        sim.run()
        assert log == [2]

    def test_extract_cancels_a_hop_it_empties(self, sim, network):
        network.send_each([("go", 1)])
        assert network.extract_pending_for({"go"}) == [(0.0, "go", 1)]
        assert sim.pending_events == 0

    def test_remote_routes_fall_back_to_one_send_per_pair(self, sim, network):
        shipped, log = [], []
        network.register_inbox("local", log.append)
        network.set_remote_route(
            "far", lambda when, dest, msg: shipped.append((when, dest, msg))
        )
        network.send_each([("far", 1), ("local", 2)])
        assert shipped == [(0.0, "far", 1)]
        assert sim.pending_events == 1
        sim.run()
        assert log == [2]
        assert network.stats.messages == 2


# ----------------------------------------------------------------------
# Oracle: send_each is send per pair, observed from outside the kernel
# ----------------------------------------------------------------------
_DESTINATIONS = ("a", "b", "boom", "cut", "gone")
_STEP = st.one_of(
    st.tuples(
        st.just("group"),
        st.integers(0, 4),
        st.lists(st.sampled_from(_DESTINATIONS), min_size=1, max_size=5),
    ),
    st.tuples(st.just("event"), st.integers(0, 4)),
    st.tuples(
        st.sampled_from(("partition", "heal", "unregister", "register")),
        st.integers(0, 4),
        st.sampled_from(_DESTINATIONS),
    ),
)


def _world(steps, batched: bool, extract: frozenset, extract_at: int):
    """Run ``steps`` on a fresh network; return everything observable."""
    sim = Simulator(seed=3)
    registry = MetricsRegistry(clock=lambda: sim.now)
    tracer = Tracer(registry)
    network = FixedNetwork(
        sim,
        message_latency=1.0,
        metrics=registry,
        tracer=tracer,
        retry_policy=BackoffPolicy(base=0.5, jitter=0.5, max_attempts=2),
    )
    network.set_breaker_policy(BreakerPolicy(failure_threshold=2, reset_timeout=1.0))
    log = []
    network.set_dead_letter(
        lambda dest, msg, reason: log.append(("dead", sim.now, dest, msg, reason))
    )

    def handler(name):
        def on_message(message):
            log.append((sim.now, name, message))
            if name == "boom" and message % 2:
                raise Boom(message)

        return on_message

    for name in ("a", "b", "boom", "cut"):
        network.register_inbox(name, handler(name))
    network.partition(["cut"])

    counter = iter(range(10**6))

    def group(destinations):
        sends = [(dest, next(counter)) for dest in destinations]
        if batched:
            network.send_each(sends)
        else:
            for dest, message in sends:
                network.send(dest, message)

    def control(kind, dest):
        log.append((sim.now, kind, dest))
        if kind == "partition":
            network.partition([dest])
        elif kind == "heal":
            network.heal([dest])
        elif kind == "unregister":
            network.unregister_inbox(dest)
        elif not network.has_inbox(dest):
            network.register_inbox(dest, handler(dest))

    for step in steps:
        if step[0] == "group":
            sim.schedule_at(float(step[1]), group, step[2])
        elif step[0] == "event":
            sim.schedule_at(float(step[1]), log.append, ("event", step[1]))
        else:
            sim.schedule_at(float(step[1]), control, step[0], step[2])

    extracted = None
    for _ in range(100):
        try:
            if extracted is None:
                sim.run(until=float(extract_at) + 0.5)
                extracted = network.extract_pending_for(extract)
            sim.run()
            break
        except Boom as error:
            log.append(("raised", sim.now, error.args[0]))
    counters = {
        name: value
        for name, value in registry.snapshot()["counters"].items()
        if name.startswith(("fixednet.", "resilience.", "qos.breaker_"))
    }
    spans = [
        (span.span_id, span.attributes, span.start, span.end)
        for span in tracer.finished_spans()
    ]
    return {
        "log": log,
        "extracted": extracted,
        "counters": counters,
        "spans": spans,
        "spans_started": registry.snapshot()["counters"]["trace.spans_started"],
        "rng": network._retry_rng.getstate(),
        "now": sim.now,
    }


class TestSendEachOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(_STEP, min_size=1, max_size=14),
        st.frozensets(st.sampled_from(_DESTINATIONS), min_size=1, max_size=3),
        st.integers(0, 4),
    )
    def test_send_each_matches_one_send_per_pair(self, steps, extract, extract_at):
        single = _world(steps, batched=False, extract=extract, extract_at=extract_at)
        batched = _world(steps, batched=True, extract=extract, extract_at=extract_at)
        assert batched == single
