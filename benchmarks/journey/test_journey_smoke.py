"""Smoke test of the message-journey benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/journey -q

Runs every workload in ``--quick`` mode, untraced and traced, and checks
that what ``BENCHMARK.json`` declares is what ``run.py`` emits, and that
the output checks fire when a delivery goes missing.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import REPO, SEQUENCE_MODULUS, Payloads, StreamCheck  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run(*arguments: str) -> tuple[int, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", *arguments],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=REPO,
    )
    lines = done.stdout.strip().splitlines()
    assert lines, done.stderr
    return done.returncode, json.loads(lines[-1])


# ----------------------------------------------------------------------
# BENCHMARK.json itself
# ----------------------------------------------------------------------
def test_declaration_is_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[key]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower")
    for entry in SPEC["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    setup = [e for e in SPEC["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert SPEC["paths"] == ["benchmarks/journey"]


# ----------------------------------------------------------------------
# The output checks, directly
# ----------------------------------------------------------------------
def test_stream_check_accepts_order_across_the_wrap():
    check = StreamCheck(first=SEQUENCE_MODULUS - 3)
    for offset in range(10):
        check.observe((SEQUENCE_MODULUS - 3 + offset) % SEQUENCE_MODULUS)
    assert (check.delivered, check.failures()) == (10, 0)


def test_stream_check_flags_a_dropped_message():
    check = StreamCheck(first=0)
    for sequence in (0, 1, 2, 4, 5):
        check.observe(sequence)
    assert check.missing == 1 and check.failures() == 1


def test_stream_check_flags_duplicates_and_reordering():
    check = StreamCheck(first=0)
    for sequence in (0, 1, 1, 2, 0):
        check.observe(sequence)
    assert check.out_of_order == 2 and check.delivered == 3


def test_payloads_are_seeded_and_checked():
    payloads = Payloads(7, "x")
    assert payloads.make(5) == Payloads(7, "x").make(5)
    assert payloads.pad != Payloads(8, "x").pad
    assert payloads.intact(payloads.make(123))
    assert Payloads.stamp_of(payloads.make(123)) == 123
    assert not payloads.intact(payloads.make(1)[:-1] + b"\x00")


# ----------------------------------------------------------------------
# Every workload emits every declared metric
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_the_end_to_end_metrics(workload):
    status, result = run("--workload", workload, "--trace", "0")
    assert status == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {e["name"]: e["unit"] for e in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_the_per_layer_metrics(workload):
    status, result = run("--workload", workload, "--trace", "1")
    assert status == 0 and result["correct"] is True
    declared = {e["name"]: e["unit"] for e in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared

    def value(name: str) -> float:
        return metrics[name]["value"]

    # The budget table shows each layer where it works and only there.
    live = workload.startswith("live_")
    assert (value("transport.broker.datagram_self_ns") > 0) == live
    assert (value("transport.broker.sendto_ns") > 0) == live
    assert (value("store.append_ns") > 0) == (workload == "live_store")
    assert (value("core.filtering.on_reception_self_ns") > 0) == (
        workload == "sim_journey"
    )
    assert (value("cluster.link.on_frame_self_ns") > 0) == (
        workload == "sim_cluster"
    )
    assert (value("fanout.deliver_root_self_ns") > 0) == (
        workload == "sim_fanout"
    )
    assert value("core.dispatching.on_arrival_self_ns") > 0
    assert value("simnet.kernel.pump_self_ns") > 0


# ----------------------------------------------------------------------
# A lost delivery fails the run
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["live_oneway", "sim_journey",
                                      "sim_cluster", "sim_fanout"])
def test_a_dropped_delivery_fails_the_run(workload):
    status, result = run("--workload", workload, "--inject-drop")
    assert status != 0
    assert result["correct"] is False and result["failed"] >= 1
