"""The message-journey benchmark: one command, five workloads.

Usage, from the checkout root::

    python3 benchmarks/journey/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1 | --traced] [--quick] [--output FILE]

Without ``--workload`` every workload of ``BENCHMARK.json`` runs, each
in a process of its own. With one, the run prints a report — every
metric by name with its unit, median and IQR over the timed windows —
and, as the last line of standard output, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

whose metrics are the ``end_to_end`` list of ``BENCHMARK.json`` (the
untraced run, ``--trace 0``) or its ``per_layer`` list (``--trace 1``:
a quarter of the time untraced for reference, the rest with spans
around the layers' entry points). The exit code is non-zero when an
output check fails. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import REPO, SRC, OUT_DIR, metadata  # noqa: E402

if not (SRC / "repro" / "__init__.py").is_file():
    print(f"journey: no product source under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
QUICK_SECONDS = 1.5


def _metric(value) -> dict:
    """A window summary as it is, a single reading as one sample."""
    if isinstance(value, dict):
        return dict(value)
    return {"value": float(value), "iqr": 0.0, "n": 1}


# ----------------------------------------------------------------------
# End-to-end metrics (the untraced run)
# ----------------------------------------------------------------------
def end_to_end(name: str, raw: dict) -> dict:
    if name.startswith("live_"):
        main = raw["phases"]["saturate"]
        ratio = raw["delivered"] / raw["sent"]
    else:
        main = raw["main"]
        ratio = raw["delivered"] / max(raw["owed"], 1)
    return {
        "delivered_per_s": _metric(main["delivered_per_s"]),
        "cpu_us_per_delivery": _metric(main["cpu_us_per_delivery"]),
        "delivery_ratio": _metric(ratio),
        "setup_s": _metric(raw["setup_s"]),
        "peak_rss_mb": _metric(raw["peak_rss_mb"]),
    }


# ----------------------------------------------------------------------
# Per-layer metrics (the traced run, plus its untraced reference)
# ----------------------------------------------------------------------
def _span(totals: dict, name: str, field: str = "self_ns") -> float:
    return float(totals.get(name, {}).get(field, 0))


def per_layer(name: str, reference: dict, traced: dict) -> tuple[dict, list]:
    """Every ``per_layer`` metric of BENCHMARK.json, 0 where a layer
    does no work on this workload; plus the budget table rows."""
    out = {entry["name"]: 0.0 for entry in SPEC["per_layer"]}
    live = name.startswith("live_")
    if live:
        # Per-delivery costs from the saturated phase alone, when the
        # broker was busy throughout; store reads and control frames
        # happen later, so those come from the whole run.
        trace = traced["broker_trace"]["saturated"]
        whole = traced["broker_trace"]["whole"]
        totals = trace["totals"]
        counters = trace["counters"]
        deliveries = max(counters.get("transport.datagrams_out", 0.0), 1.0)
        messages = max(counters.get("transport.datagrams_in", 0.0), 1.0)
        busy_ns = float(trace["wall_ns"])
        events = float(trace["events_processed"])
        kernel_span = "simnet.kernel.pump"
        subscriptions = whole["subscriptions"]
        main_ref = reference["phases"]["saturate"]
        main_traced = traced["phases"]["saturate"]
    else:
        totals = traced["trace"]["totals"]
        counters = traced["counters"]
        deliveries = max(float(traced["main"]["delivered"]), 1.0)
        messages = max(counters.get("dispatch.arrivals", 0.0), 1.0)
        busy_ns = traced["main"]["wall_s"] * 1e9
        events = float(traced["main"]["events"])
        kernel_span = "simnet.kernel.run"
        subscriptions = traced["subscriptions"]
        main_ref = reference["main"]
        main_traced = traced["main"]

    def per_delivery(span: str, field: str = "self_ns") -> float:
        return _span(totals, span, field) / deliveries

    covered = sum(entry["self_ns"] for entry in totals.values())
    out["simnet.kernel.pump_self_ns"] = per_delivery(kernel_span)
    out["simnet.kernel.events"] = events
    out["simnet.kernel.events_per_msg"] = events / messages
    out["simnet.kernel.self_ns_per_event"] = (
        _span(totals, kernel_span) / events if events else 0.0
    )
    out["simnet.fixednet.send_ns"] = per_delivery("simnet.fixednet.send")
    out["simnet.fixednet.sends"] = _span(
        totals, "simnet.fixednet.send", "calls"
    )
    out["core.message.encode_ns"] = per_delivery("core.message.encode")
    out["core.message.decode_ns"] = per_delivery("core.message.decode")
    out["core.message.encodes"] = _span(totals, "core.message.encode", "calls")
    out["core.message.decodes"] = _span(totals, "core.message.decode", "calls")
    out["core.dispatching.on_arrival_self_ns"] = per_delivery(
        "core.dispatching.on_arrival"
    ) + per_delivery("core.dispatching.process_remote_delivery")
    out["core.dispatching.arrivals"] = counters.get("dispatch.arrivals", 0.0)
    out["core.dispatching.deliveries"] = counters.get(
        "dispatch.deliveries", 0.0
    )
    out["core.dispatching.orphaned"] = counters.get("dispatch.orphaned", 0.0)
    out["core.dispatching.subscriptions"] = float(subscriptions)
    out["trace.overhead_share"] = 1.0 - (
        main_traced["delivered_per_s"]["value"]
        / main_ref["delivered_per_s"]["value"]
    )
    out["trace.residual_share"] = 1.0 - covered / busy_ns if busy_ns else 1.0

    if live:
        out["transport.broker.datagram_self_ns"] = per_delivery(
            "transport.broker.datagram"
        )
        out["transport.broker.sendto_ns"] = per_delivery(
            "transport.broker.sendto"
        )
        out["transport.broker.pumps_per_msg"] = (
            _span(totals, kernel_span, "calls") / messages
        )
        for key in ("datagrams_in", "datagrams_out", "bad_datagrams",
                    "encode_reuse"):
            out[f"transport.broker.{key}"] = counters.get(
                f"transport.{key}", 0.0
            )
        out["core.message.decode_errors"] = counters.get(
            "transport.bad_datagrams", 0.0
        )
        out["transport.broker.cpu_utilization"] = main_traced[
            "broker_cpu_utilization"
        ]
        out["transport.broker.control_rtt_p50_us"] = traced["phases"][
            "control_rtt_p50_us"
        ]
        # Everything the event loop does around the protocol callback:
        # polling, the receive system call, and its own bookkeeping.
        out["asyncio.loop_ns"] = (
            per_delivery("asyncio.select")
            + per_delivery("asyncio.read_ready")
            + (busy_ns - covered) / deliveries
        )
        out["transport.client.publish_ns"] = main_traced["client_publish_ns"]
        out["transport.client.cpu_us_per_msg"] = main_traced[
            "client_cpu_us_per_msg"
        ]
        paced = reference["phases"]["paced_r2000"]
        out["generator.max_late_us"] = paced["max_late_us"]
        out["generator.late_share"] = paced["late_share"]
        out["generator.busier_than_broker"] = float(
            main_ref["generator_cpu_utilization"]
            > main_ref["broker_cpu_utilization"]
        )
        out["info.latency_p50_us"] = paced["latency_p50_us"]["value"]
        out["info.latency_p99_us"] = paced["latency_p99_us"]
        out["transport.broker.minor_faults_per_msg"] = main_ref[
            "broker_minor_faults_per_msg"
        ]
        fast = reference["phases"].get("paced_r8000")
        if fast is not None:
            out["info.latency_p50_us_r8000"] = fast["latency_p50_us"]["value"]
            out["info.latency_p99_us_r8000"] = fast["latency_p99_us"]
        store = whole["store"]
        if store is not None:
            counted = whole["counters"]
            out["store.append_ns"] = per_delivery("store.append", "total_ns")
            out["store.appends"] = counted.get("store.appended", 0.0)
            out["store.rotations"] = counted.get("store.segments_rotated", 0.0)
            out["store.evictions"] = counted.get("store.segments_evicted", 0.0)
            out["store.bytes_on_disk"] = float(store["bytes_on_disk"])
            out["store.retained_records"] = float(store["retained_records"])
            read = counted.get("store.records_replayed", 0.0) + counted.get(
                "store.records_queried", 0.0
            )
            out["store.read_ns_per_record"] = (
                _span(whole["totals"], "store.read", "total_ns") / read
                if read
                else 0.0
            )
            out["store.query_p50_ms"] = traced["phases"]["replay"][
                "query_p50_ms"
            ]
            replay = reference["phases"]["replay"]
            out["info.replay_records_per_s"] = replay["replay_records_per_s"][
                "value"
            ]
            out["info.replay_p50_ms"] = replay["replay_p50_ms"]
    else:
        out["core.filtering.on_reception_self_ns"] = per_delivery(
            "core.filtering.on_reception"
        )
        received = counters.get("filtering.received", 0.0)
        out["core.filtering.receptions"] = received
        out["core.filtering.duplicates"] = counters.get(
            "filtering.duplicates", 0.0
        )
        out["core.filtering.useful_ratio"] = (
            counters.get("filtering.delivered", 0.0) / received
            if received
            else 0.0
        )
        out["simnet.wireless.broadcast_self_ns"] = per_delivery(
            "simnet.wireless.broadcast"
        )
        out["simnet.wireless.broadcasts"] = counters.get(
            "radio.transmissions", 0.0
        )
        out["simnet.wireless.deliveries"] = counters.get("radio.deliveries", 0.0)
        out["simnet.wireless.losses"] = counters.get("radio.losses", 0.0)
        out["radio.on_radio_receive_self_ns"] = per_delivery(
            "radio.on_radio_receive"
        )
        out["sensors.tick_self_ns"] = per_delivery("sensors.tick")
        out["sensors.on_radio_receive_self_ns"] = per_delivery(
            "sensors.on_radio_receive"
        )
        out["cluster.link.on_frame_self_ns"] = per_delivery(
            "cluster.link.on_frame"
        )
        out["cluster.link.crossings"] = _span(
            totals, "cluster.link.on_frame", "calls"
        )
        for key in ("forwards", "publish_forwards", "dedupe_hits"):
            out[f"cluster.{key}"] = counters.get(f"cluster.{key}", 0.0)
        out["cluster.mp.delivered_per_s_w2"] = traced.get(
            "mp_delivered_per_s_w2", 0.0
        )
        # Root leg plus relay hops; the members' callbacks run inside.
        out["fanout.deliver_root_self_ns"] = per_delivery(
            "fanout.deliver_root"
        ) + per_delivery("fanout.relay")
        out["fanout.root_batches"] = counters.get("fanout.root_batches", 0.0)
        out["fanout.leaf_deliveries"] = counters.get(
            "fanout.leaf_deliveries", 0.0
        )
        fanout = traced.get("fanout")
        if fanout is not None:
            out["fanout.attach_us_per_session"] = fanout["attach_us_per_session"]
            out["fanout.relays"] = float(fanout["relays"])
            out["fanout.bytes_per_session"] = fanout["bytes_per_session"]
        out["info.latency_p50_us"] = reference["latency"]["p50_us"]["value"]
        out["info.latency_p99_us"] = reference["latency"]["p99_us"]

    table = tracing.budget_table(totals, int(deliveries), busy_ns)
    return {key: _metric(value) for key, value in out.items()}, table


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, options: dict) -> dict:
    if name.startswith("live_"):
        import live as module
    else:
        import sim as module
    if not options["traced"]:
        raw = module.run(name, seed, seconds, options)
        return {
            "metrics": end_to_end(name, raw),
            "attempted": raw["attempted"],
            "failed": raw["failed"],
            "raw": raw,
            "budget": None,
        }
    untraced = dict(options, traced=False)
    reference = module.run(name, seed, seconds * 0.4, untraced)
    tracer = None
    if not name.startswith("live_"):
        tracer = tracing.Tracer()
    traced = module.run(
        name, seed, seconds * 0.6, dict(options, tracer=tracer)
    )
    metrics, table = per_layer(name, reference, traced)
    reports = (
        [traced["trace"]]
        if tracer is not None
        else [traced["broker_trace"][key] for key in ("saturated", "whole")]
    )
    # The raw spans go to a file of their own, not into --output.
    spans = [report.pop("spans") for report in reports][-1]
    tracing.write_spans(
        OUT_DIR / f"spans-{name}.json",
        {"workload": name, "seed": seed, "spans": spans},
    )
    return {
        "metrics": metrics,
        "attempted": reference["attempted"] + traced["attempted"],
        "failed": reference["failed"] + traced["failed"],
        "raw": {"reference": reference, "traced": traced},
        "budget": table,
    }


def report(name: str, result: dict, declared: list[dict]) -> str:
    lines = [f"== {name} =="]
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        lines.append(
            f"  {entry['name']:<40}{metric['value']:>16.4f} {entry['unit']:<6}"
            f" iqr {metric['iqr']:.4f} n={metric['n']}"
        )
    lines.append(
        f"  ops_attempted {result['attempted']}  ops_failed {result['failed']}"
    )
    raw = result["raw"]
    for rate in (2000, 8000):
        paced = raw.get("phases", {}).get(f"paced_r{rate}")
        if paced is None:
            continue
        lines.append(
            f"  paced r{rate}: p50 {paced['latency_p50_us']['value']:.1f} us, "
            f"p99 {paced['latency_p99_us']:.1f} us over {paced['samples']} "
            f"samples; generator max late {paced['max_late_us']:.0f} us, "
            f"late share {paced['late_share']:.4f}"
        )
        for attempt in paced["attempts"]:
            lines.append(
                f"    window: p50 {attempt['p50_us']:.1f} us over "
                f"{attempt['samples']} samples, generator max late "
                f"{attempt['max_late_us']:.0f} us, late share "
                f"{attempt['late_share']:.4f}"
            )
    if "latency" in raw:
        latency = raw["latency"]
        lines.append(
            f"  hand-over to callback: p50 {latency['p50_us']['value']:.1f} us, "
            f"p99 {latency['p99_us']:.1f} us over {latency['samples']} samples"
        )
    if "replay" in raw.get("phases", {}):
        replay = raw["phases"]["replay"]
        lines.append(
            f"  replay: {replay['joiners']} late joiners, "
            f"{replay['replay_records_per_s']['value']:.0f} records/s, "
            f"query p50 {replay['query_p50_ms']:.3f} ms"
        )
    if result["budget"] is not None:
        lines.append(tracing.format_budget(name, result["budget"]))
    return "\n".join(lines)


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of the length, smaller fan-out tree")
    parser.add_argument("--output", type=Path, default=None,
                        help="also write the full result as JSON")
    parser.add_argument("--inject-drop", action="store_true",
                        help="test hook: lose one delivery, expect failure")
    args = parser.parse_args(argv)
    args.traced = args.traced or args.trace == 1
    if args.seconds is None:
        args.seconds = (
            QUICK_SECONDS if args.quick else float(SPEC["run_seconds"])
        )
    return args


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    results = {}
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(HERE / "run.py"),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", "1" if args.traced else "0",
        ]
        if args.quick:
            command.append("--quick")
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=600
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[name] = None
        if done.returncode != 0:
            status = 1
    if args.output is not None:
        mode = "quick" if args.quick else "full"
        payload = {
            "meta": metadata(args.seed, mode, args.seconds),
            "traced": args.traced,
            "workloads": results,
        }
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    options = {
        # Read before any workload pins this process to one CPU.
        "cpus": sorted(os.sched_getaffinity(0)),
        "traced": args.traced,
        "quick": args.quick,
        "inject_drop": args.inject_drop,
    }
    # The build: byte-compile the product once per checkout. A broker
    # that loads byte code boots faster and, its allocator never having
    # freed a large block, runs at half the speed of one that compiled
    # its sources (README); an installed package has byte code.
    compileall.compile_dir(str(SRC), quiet=2)
    # Before the run: the workloads pin this process to one CPU.
    meta = metadata(args.seed, "quick" if args.quick else "full", args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, options)
    declared = SPEC["per_layer" if args.traced else "end_to_end"]
    print(json.dumps({"meta": meta}))
    print(report(args.workload, result, declared))
    if args.output is not None:
        args.output.write_text(
            json.dumps({"meta": meta, "workload": args.workload, **result},
                       indent=2) + "\n"
        )
    correct = result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {
                    entry["name"]: {
                        "value": result["metrics"][entry["name"]]["value"],
                        "unit": entry["unit"],
                    }
                    for entry in declared
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
