"""E23: hierarchical fan-out at 100k+ concurrent sessions.

The scaling gate for ``repro.fanout``: one deployment tree (branching
64, three levels) carries 100,000 attached consumer sessions behind a
**single** dispatcher subscription, against a flat per-consumer
baseline where every subscriber holds its own dispatcher subscription
and fixed-network inbox.

Measured per mode:

- **per-delivery dispatch cost** (wall microseconds per member
  delivery over the whole publish+drain run);
- **dispatcher routing state** (subscription-table entries) at one
  tenth of the target population and at the full population — the
  sub-linearity gate: the tree aggregates shared interest into one
  root subscription, so dispatcher state must not track session count
  (relay overhead, ~1/branching per session, is reported alongside);
- **exactly-once correctness** — every session sees every message
  exactly once, at 100k sessions as at 10.

Hard ``--check`` gates (quick mode scales the populations down but
keeps every gate):

- sessions >= the mode's target (100,000 full / 5,000 quick);
- flat-vs-fanout per-delivery ``dispatch_speedup`` >= 3;
- dispatcher state grows <= 3x when the session count grows 10x (it
  actually stays at ONE subscription for the shared pattern);
- zero lost and zero duplicated member deliveries;
- ``attach_bytes_per_session`` (tracemalloc's peak over the attach
  loop, so a count of allocations, not a timing) <= 253 bytes;
- ``events_per_publish`` <= ``inner_relays`` + 1: the dispatcher's
  event, then one fixed-network event per relay hop (every relay that
  has children sends to all of them in one event), never one per
  relay. A count, not a timing.

Usage::

    PYTHONPATH=src python benchmarks/bench_e23_fanout.py [--quick]
        [--check] [--output BENCH_e23_fanout.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

from repro.core.config import GarnetConfig
from repro.core.dispatching import SubscriptionPattern
from repro.core.middleware import Garnet

DEFAULT_OUTPUT = (
    Path(__file__).resolve().parent.parent / "BENCH_e23_fanout.json"
)
SESSIONS_GATE = {"full": 100_000, "quick": 5_000}
SPEEDUP_GATE = 3.0
STATE_GROWTH_GATE = 3.0
#: Quick mode read 230 bytes per attached session on CPython 3.11 and
#: 222 on 3.12 when the gate was set (414 / 399 before the member became
#: its own handle); the gate is the 3.11 reading plus 10%.
ATTACH_BYTES_GATE = 253
#: Flat-baseline population: large enough for a stable per-delivery
#: cost, small enough that the baseline doesn't dominate the wall time.
FLAT_SESSIONS = {"full": 20_000, "quick": 2_000}
MESSAGES = {"full": 10, "quick": 5}


def _deployment(fanout: bool) -> Garnet:
    return Garnet(
        config=GarnetConfig(
            publish_location_stream=False,
            fanout_enabled=fanout,
        ),
        seed=23,
    )


class _Counter:
    """A per-session delivery counter cheap enough for 100k instances."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def __call__(self, arrival) -> None:
        self.count += 1


def run_fanout(sessions: int, messages: int) -> dict:
    deployment = _deployment(fanout=True)
    tree = deployment.fanout.tree
    pattern = SubscriptionPattern(kind="scale")
    counters = [_Counter() for _ in range(sessions)]

    tracemalloc.start()
    attach_start = time.perf_counter()
    tenth = sessions // 10
    for index in range(tenth):
        tree.attach(f"m{index}", pattern, counters[index])
    state_small = deployment.dispatcher.subscription_count()
    relays_small = tree.relay_count()
    for index in range(tenth, sessions):
        tree.attach(f"m{index}", pattern, counters[index])
    attach_wall = time.perf_counter() - attach_start
    state_large = deployment.dispatcher.subscription_count()
    _, attach_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    publisher = deployment.connect("pub")
    # Prime the advertisement and the per-stream route caches so the
    # timed loop measures steady-state dispatch, as the flat run does.
    publisher.publish(0, b"\x00", kind="scale")
    deployment.run_until_idle()

    events = deployment.sim.events_processed
    start = time.perf_counter()
    for sequence in range(messages):
        publisher.publish(0, sequence.to_bytes(2, "big"), kind="scale")
        deployment.run_until_idle()
    wall = time.perf_counter() - start
    events = deployment.sim.events_processed - events

    total = messages + 1  # the priming message also fanned out
    delivered = sum(counter.count for counter in counters)
    exactly_once = all(counter.count == total for counter in counters)
    return {
        "sessions": sessions,
        "messages": messages,
        "deliveries": sessions * messages,
        "delivered": delivered - sessions,  # net of the priming message
        "exactly_once": exactly_once,
        "dispatcher_subscriptions": deployment.dispatcher.subscription_count(),
        "relays": tree.relay_count(),
        "inner_relays": tree.relay_count() - tree.describe()["level_0"],
        "events_per_publish": events / messages,
        "relays_at_tenth": relays_small,
        "relays_per_1k_sessions": round(tree.relay_count() / sessions * 1e3, 2),
        "dispatcher_state_at_tenth": state_small,
        "dispatcher_state_at_full": state_large,
        "state_growth_x": round(state_large / max(state_small, 1), 2),
        "attach_wall_s": round(attach_wall, 3),
        "attach_bytes_per_session": int(attach_peak / sessions),
        "wall_s": round(wall, 3),
        "per_delivery_us": round(wall / (sessions * messages) * 1e6, 3),
        "root_batches": deployment.fanout.stats.root_batches,
        "leaf_deliveries": deployment.fanout.stats.leaf_deliveries,
    }


def run_flat(sessions: int, messages: int) -> dict:
    deployment = _deployment(fanout=False)
    network = deployment.network
    counters = [_Counter() for _ in range(sessions)]
    for index, counter in enumerate(counters):
        inbox = f"bench.flat.c{index}"
        network.register_inbox(inbox, counter)
        deployment.dispatcher.add_subscription(
            inbox, SubscriptionPattern(kind="scale")
        )
    publisher = deployment.connect("pub")
    publisher.publish(0, b"\x00", kind="scale")
    deployment.run_until_idle()

    start = time.perf_counter()
    for sequence in range(messages):
        publisher.publish(0, sequence.to_bytes(2, "big"), kind="scale")
        deployment.run_until_idle()
    wall = time.perf_counter() - start

    total = messages + 1
    delivered = sum(counter.count for counter in counters)
    return {
        "sessions": sessions,
        "messages": messages,
        "deliveries": sessions * messages,
        "delivered": delivered - sessions,
        "exactly_once": all(c.count == total for c in counters),
        "dispatcher_subscriptions": deployment.dispatcher.subscription_count(),
        "wall_s": round(wall, 3),
        "per_delivery_us": round(wall / (sessions * messages) * 1e6, 3),
    }


def run_all(quick: bool) -> dict:
    mode = "quick" if quick else "full"
    fanout = run_fanout(SESSIONS_GATE[mode], MESSAGES[mode])
    flat = run_flat(FLAT_SESSIONS[mode], MESSAGES[mode])
    return {
        "experiment": "E23 hierarchical fan-out (100k+ sessions)",
        "mode": mode,
        "fanout": fanout,
        "flat_baseline": flat,
        "dispatch_speedup": round(
            flat["per_delivery_us"] / fanout["per_delivery_us"], 2
        ),
    }


def check_acceptance(fresh: dict) -> list[str]:
    failures = []
    mode = fresh["mode"]
    fanout = fresh["fanout"]
    if fanout["sessions"] < SESSIONS_GATE[mode]:
        failures.append(
            f"only {fanout['sessions']} sessions "
            f"(gate: {SESSIONS_GATE[mode]})"
        )
    if not fanout["exactly_once"]:
        failures.append("fanout deliveries were not exactly-once")
    if not fresh["flat_baseline"]["exactly_once"]:
        failures.append("flat deliveries were not exactly-once")
    if fresh["dispatch_speedup"] < SPEEDUP_GATE:
        failures.append(
            f"dispatch speedup {fresh['dispatch_speedup']} "
            f"< {SPEEDUP_GATE}"
        )
    if fanout["state_growth_x"] > STATE_GROWTH_GATE:
        failures.append(
            f"routing state grew {fanout['state_growth_x']}x for 10x "
            f"sessions (gate: {STATE_GROWTH_GATE}x)"
        )
    if fanout["attach_bytes_per_session"] > ATTACH_BYTES_GATE:
        failures.append(
            f"{fanout['attach_bytes_per_session']} bytes allocated per "
            f"attached session (gate: {ATTACH_BYTES_GATE})"
        )
    if fanout["events_per_publish"] > fanout["inner_relays"] + 1:
        failures.append(
            f"{fanout['events_per_publish']} kernel events per publish "
            f"(gate: {fanout['inner_relays'] + 1}, one per relay hop)"
        )
    if fanout["dispatcher_subscriptions"] != 1:
        failures.append(
            f"{fanout['dispatcher_subscriptions']} dispatcher "
            "subscriptions for one shared pattern (expected 1)"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller populations (CI smoke mode); same gates",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail when the scaling gates are violated",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)

    fresh = run_all(args.quick)
    print(json.dumps(fresh, indent=2))

    if args.check:
        failures = check_acceptance(fresh)
        if failures:
            for failure in failures:
                print(f"E23 CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print("e23 check: scaling gates hold")
    else:
        args.output.write_text(json.dumps(fresh, indent=2) + "\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
