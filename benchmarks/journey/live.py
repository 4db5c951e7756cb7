"""The live workloads: a ``garnet-broker`` subprocess over loopback.

``live_oneway`` and ``live_store`` drive the unmodified product —
``python -m repro.transport.cli`` as a child process, two
:class:`~repro.transport.client.LiveSession` clients in this process
(the publisher on the main thread, the subscriber's reader thread). The
traced variant swaps the child for ``traced_broker.py``, which serves
the same deployment with spans around the layers' entry points.

Loopback, not a real link: wire latency and link rate are not measured.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from common import (
    HERE,
    OUT_DIR,
    SRC,
    WINDOWS,
    Deadline,
    DropOne,
    Payloads,
    StreamCheck,
    now_ns,
    percentile,
    proc_usage,
    proc_peak_rss_mb,
    summarise,
)

from repro.core.streamid import StreamId
from repro.errors import TransportError
from repro.transport import connect
from repro.transport.cli import parse_announce

KIND = "journey"
#: App-layer flow control of the closed-loop phase: loopback UDP has
#: none, so at most WINDOW messages are in flight (sent minus delivered).
WINDOW = 1024
BURST = 32
#: The pause between bursts, as in E20. Spinning instead (``sleep(0)``)
#: was tried: window rates per fresh broker then range 10.6k-19.0k/s,
#: against 12.2k-13.5k/s with the pause.
BURST_PAUSE = 0.0005
TICK_NS = 1_000_000
#: A paced window whose generator ran more than LATE_NS behind schedule
#: on more than LATE_SHARE of its ticks is measured again (at most twice).
LATE_NS = 5_000_000
LATE_SHARE = 0.01
PACED_RETRIES = 2
ANNOUNCE_TIMEOUT = 30.0
DRAIN_TIMEOUT = 10.0


# ----------------------------------------------------------------------
# The broker child process
# ----------------------------------------------------------------------
class BrokerProcess:
    """``garnet-broker --port 0`` (or its traced twin) as a child."""

    def __init__(self, store: bool, traced: bool, cpu: int | None) -> None:
        self.store_dir = (
            tempfile.mkdtemp(prefix="store-", dir=_out_dir()) if store else None
        )
        self.trace_path = None
        if traced:
            handle, self.trace_path = tempfile.mkstemp(
                prefix="broker-trace-", suffix=".json", dir=_out_dir()
            )
            os.close(handle)
            command = [sys.executable, str(HERE / "traced_broker.py")]
            command += ["--trace-out", self.trace_path]
        else:
            command = [sys.executable, "-m", "repro.transport.cli"]
        command += ["--port", "0"]
        if self.store_dir is not None:
            command += ["--store-dir", self.store_dir]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        self._stderr = tempfile.TemporaryFile()
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=env,
        )
        try:
            self.url = self._read_announce()
        except BaseException:
            self.stop()
            raise
        if cpu is not None:
            os.sched_setaffinity(self.pid, {cpu})

    @property
    def pid(self) -> int:
        return self.process.pid

    def _read_announce(self) -> str:
        ready, _, _ = select.select(
            [self.process.stdout], [], [], ANNOUNCE_TIMEOUT
        )
        line = self.process.stdout.readline().decode() if ready else ""
        try:
            host, control_port, _ = parse_announce(line.strip())
        except TransportError as exc:
            raise RuntimeError(
                f"broker did not announce within {ANNOUNCE_TIMEOUT}s "
                f"({exc}); stderr:\n{self.stderr_text()}"
            ) from exc
        return f"garnet://{host}:{control_port}"

    def stderr_text(self) -> str:
        self._stderr.seek(0)
        return self._stderr.read().decode(errors="replace")[-4000:]

    def signal(self, signum: int) -> None:
        self.process.send_signal(signum)

    def peak_rss_mb(self) -> float:
        """Read it before :meth:`stop`."""
        return proc_peak_rss_mb(self.pid)

    def stop(self) -> dict | None:
        """Terminate, wait, clean up; the traced child's dump if any."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        self.process.stdout.close()
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
        trace, problem = None, None
        if self.trace_path is not None:
            try:
                with open(self.trace_path, encoding="utf-8") as handle:
                    trace = json.load(handle)
            except (OSError, ValueError) as exc:
                problem = f"{exc}; stderr:\n{self.stderr_text()}"
            os.unlink(self.trace_path)
            self.trace_path = None
        self._stderr.close()
        if problem is not None:
            raise RuntimeError(f"traced broker left no span dump: {problem}")
        return trace


def _out_dir() -> str:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return str(OUT_DIR)


class Closer:
    """Close LiveSessions off the measuring thread.

    ``LiveSession.close()`` blocks 2.0 s joining a reader thread that
    closing the socket does not wake; the CLOSE frame goes out at once,
    so closing on a helper thread frees the broker side immediately and
    keeps those two seconds out of every timed interval.
    """

    def __init__(self) -> None:
        self._threads: list[threading.Thread] = []

    def close(self, session) -> None:
        thread = threading.Thread(target=session.close, daemon=True)
        thread.start()
        self._threads.append(thread)

    def wait(self, timeout: float = 5.0) -> None:
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        self._threads.clear()


# ----------------------------------------------------------------------
# The subscriber's checks
# ----------------------------------------------------------------------
class Subscriber:
    """The consumer callback: count, verify, time."""

    def __init__(self, payloads: Payloads) -> None:
        self.count = 0
        self.check = StreamCheck(first=0)
        self.latencies: list[int] = []
        self._payloads = payloads

    def __call__(self, arrival) -> None:
        now = now_ns()
        message = arrival.message
        payload = message.payload
        self.check.observe(message.sequence)
        if self._payloads.intact(payload):
            self.latencies.append(now - Payloads.stamp_of(payload))
        else:
            self.check.corrupt += 1
        self.count += 1


class Rig:
    """One broker, one publisher session, one subscribed subscriber."""

    def __init__(
        self, store, traced, payloads, closer, broker_cpu, inject_drop=False
    ):
        self.closer = closer
        self.broker = BrokerProcess(store=store, traced=traced, cpu=broker_cpu)
        self.sessions = []
        try:
            self.publisher = self._connect("journey-pub")
            self.subscriber = self._connect("journey-sub")
            self.sink = Subscriber(payloads)
            self.subscriber.on_data(
                DropOne(self.sink, 500) if inject_drop else self.sink
            )
            self.subscriber.subscribe(kind=KIND)
            self.payloads = payloads
            self.sent = 0
            self.control_failures = 0
            # The first publish advertises the stream; once it is back
            # the subscription is live end to end.
            stream = self.publisher.publish(
                0, payloads.make(now_ns()), kind=KIND
            )
            self.stream_id = StreamId(*stream)
            self.sent += 1
            if not Deadline(DRAIN_TIMEOUT).wait_for(
                lambda: self.sink.count >= 1
            ):
                raise RuntimeError(
                    "warm-up message never arrived; broker stderr:\n"
                    + self.broker.stderr_text()
                )
        except BaseException:
            self.close()
            raise

    def _connect(self, name):
        session = connect(self.broker.url, name)
        self.sessions.append(session)
        return session

    def publish(self, stamp_ns: int) -> None:
        self.publisher.publish(0, self.payloads.make(stamp_ns))
        self.sent += 1

    def drain(self) -> bool:
        """Wait until every message sent is delivered or known lost."""
        sink = self.sink
        return Deadline(DRAIN_TIMEOUT).wait_for(
            lambda: sink.count + sink.check.missing >= self.sent
        )

    def close(self) -> dict | None:
        for session in self.sessions:
            self.closer.close(session)
        self.sessions = []
        return self.broker.stop()


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
def saturate(rig: Rig, duration: float) -> dict:
    """One closed-loop window: 1024 in flight, bursts of 32.

    The system sets the pace — a slower broker receives less load — so
    this phase reports throughput and CPU per delivery, not latency.
    The first tenth runs untimed so the route caches are warm.
    """
    sink = rig.sink
    pid = rig.broker.pid
    publish = rig.publish
    publish_ns = 0
    published = 0
    mark = None
    warm_until = time.perf_counter() + duration * 0.1
    end = warm_until + duration * 0.9
    while True:
        in_flight = rig.sent - sink.count
        if in_flight < WINDOW:
            burst = min(BURST, WINDOW - in_flight)
            began = now_ns()
            for _ in range(burst):
                publish(began)
            publish_ns += now_ns() - began
            published += burst
        time.sleep(BURST_PAUSE)
        now = time.perf_counter()
        if mark is None:
            if now >= warm_until:
                mark = (now, sink.count, proc_usage(pid), time.process_time())
                publish_ns = published = 0
        elif now >= end:
            break
    t0, n0, (c0, f0), g0 = mark
    elapsed = now - t0
    delivered = max(sink.count - n0, 1)
    c1, f1 = proc_usage(pid)
    broker_cpu = c1 - c0
    generator_cpu = time.process_time() - g0
    rig.drain()
    return {
        "delivered_per_s": delivered / elapsed,
        "cpu_us_per_delivery": broker_cpu / delivered * 1e6,
        "broker_cpu_utilization": broker_cpu / elapsed,
        "broker_minor_faults_per_msg": (f1 - f0) / delivered,
        "generator_cpu_utilization": generator_cpu / elapsed,
        "client_publish_ns": publish_ns / max(published, 1),
        "client_cpu_us_per_msg": generator_cpu / max(published, 1) * 1e6,
    }


def _paced_once(rig: Rig, rate: int, duration: float) -> dict:
    sink = rig.sink
    per_tick = max(1, rate * TICK_NS // 1_000_000_000)
    ticks = max(1, int(duration * 1e9 / TICK_NS))
    sink.latencies = latencies = []
    late = []
    publish = rig.publish
    start = now_ns() + TICK_NS
    for tick in range(ticks):
        due = start + tick * TICK_NS
        now = now_ns()
        if now < due:
            # Sleep, never spin: a spinning publisher keeps the GIL from
            # the subscriber's reader thread and inflates the latency it
            # is trying to measure.
            time.sleep((due - now) / 1e9)
            now = now_ns()
        late.append(now - due)
        for _ in range(per_tick):
            publish(due)
    rig.drain()
    return {
        "rate": rate,
        "latencies_ns": latencies,
        "p50_us": percentile(sorted(latencies), 0.5) / 1e3 if latencies else 0.0,
        "max_late_us": max(late) / 1e3,
        "late_ticks": sum(1 for ns in late if ns > LATE_NS),
        "ticks": ticks,
    }


def paced(rig: Rig, rate: int, duration: float, attempts: list) -> dict:
    """One open-loop window on a 1 ms tick schedule at ``rate`` msgs/s.

    Every message carries the time it was *due*, so a generator stall
    charges the messages queued behind it. A window whose generator ran
    late is measured again; every attempt is appended to ``attempts``,
    the last one counts.
    """
    for _ in range(1 + PACED_RETRIES):
        window = _paced_once(rig, rate, duration)
        attempts.append(
            {
                "rate": rate,
                "p50_us": window["p50_us"],
                "samples": len(window["latencies_ns"]),
                "max_late_us": window["max_late_us"],
                "late_share": window["late_ticks"] / window["ticks"],
            }
        )
        if window["late_ticks"] <= LATE_SHARE * window["ticks"]:
            break
    return window


def summarise_paced(windows: list[dict], attempts: list[dict]) -> dict:
    pooled = sorted(ns for window in windows for ns in window["latencies_ns"])
    ticks = sum(window["ticks"] for window in windows)
    return {
        "latency_p50_us": summarise([window["p50_us"] for window in windows]),
        "latency_p99_us": percentile(pooled, 0.99) / 1e3 if pooled else 0.0,
        "samples": len(pooled),
        "max_late_us": max(window["max_late_us"] for window in windows),
        "late_share": sum(window["late_ticks"] for window in windows) / ticks,
        "attempts": attempts,
    }


def replay(rig: Rig, duration: float, probes: int) -> dict:
    """Late joiners replay the retained history, one at a time.

    Uses the store the other way round: segment reads beside the
    writes. Each joiner is timed from its SUBSCRIBE call to the last
    replayed record and must see a gap-free suffix ending at the last
    published sequence — the same suffix for every joiner, since nothing
    is published meanwhile.
    """
    last_sequence = (rig.sent - 1) % (1 << 16)
    rates, waits_ms, firsts, failures = [], [], set(), 0
    records = 0
    stop_at = time.monotonic() + duration
    joiner = 0
    while joiner < 3 or (joiner < 20 and time.monotonic() < stop_at):
        session = connect(rig.broker.url, f"journey-late{joiner}")
        joiner += 1
        seen: list[tuple[int, int]] = []
        check = StreamCheck(first=None)

        def on_data(arrival, seen=seen, check=check):
            sequence = arrival.message.sequence
            check.observe(sequence)
            if not rig.payloads.intact(arrival.message.payload):
                check.corrupt += 1
            seen.append((sequence, now_ns()))

        session.on_data(on_data)
        called = now_ns()
        try:
            session.subscribe(kind=KIND, replay="history")
        except TransportError:
            rig.control_failures += 1
        complete = Deadline(DRAIN_TIMEOUT).wait_for(
            lambda: bool(seen) and seen[-1][0] == last_sequence
        )
        rig.closer.close(session)
        if not complete or check.failures():
            failures += 1 + check.failures()
            continue
        firsts.add(seen[0][0])
        records += len(seen)
        wait_ns = seen[-1][1] - called
        waits_ms.append(wait_ns / 1e6)
        rates.append(len(seen) / (wait_ns / 1e9))
    if len(firsts) > 1:
        failures += len(firsts) - 1  # joiners disagree on the suffix
    query_ms = []
    for _ in range(probes):
        began = now_ns()
        try:
            found = rig.publisher.query(rig.stream_id, limit=100)
        except TransportError:
            rig.control_failures += 1
            continue
        query_ms.append((now_ns() - began) / 1e6)
        sequences = [arrival.message.sequence for arrival in found]
        in_order = all(
            (b - a) % (1 << 16) == 1 for a, b in zip(sequences, sequences[1:])
        )
        if len(found) != 100 or not in_order:
            failures += 1
    return {
        "joiners": joiner,
        "records": records,
        "replay_records_per_s": summarise(rates or [0.0]),
        "replay_p50_ms": statistics.median(waits_ms) if waits_ms else 0.0,
        "query_p50_ms": statistics.median(query_ms) if query_ms else 0.0,
        "probes": probes,
        "failures": failures,
    }


def control_rtt(rig: Rig, pings: int) -> float:
    samples = []
    for _ in range(pings):
        began = now_ns()
        try:
            rig.publisher.ping()
        except TransportError:
            rig.control_failures += 1
            continue
        samples.append(now_ns() - began)
    return percentile(sorted(samples), 0.5) / 1e3 if samples else 0.0


# ----------------------------------------------------------------------
# The two workloads
# ----------------------------------------------------------------------
#: Share of ``--seconds`` each phase gets.
PLANS = {
    "live_oneway": {"saturate": 0.5, "paced_r2000": 0.25, "paced_r8000": 0.25},
    "live_store": {"saturate": 0.4, "paced_r2000": 0.25, "replay": 0.35},
}


def _merge(reports: list[dict]) -> dict:
    merged = {
        "totals": {},
        "counters": {},
        "spans": reports[0]["spans"],
        "subscriptions": reports[-1]["subscriptions"],
        "store": reports[-1]["store"],
    }
    for report in reports:
        for name, entry in report["totals"].items():
            into = merged["totals"].setdefault(
                name, {"calls": 0, "total_ns": 0, "self_ns": 0}
            )
            for key in into:
                into[key] += entry[key]
        for name, value in report["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0.0) + value
        for key in ("events_processed", "cpu_ns", "wall_ns"):
            merged[key] = merged.get(key, 0) + report[key]
    return merged


def merge_traces(dumps: list[dict]) -> dict:
    """Sum the traced brokers' dumps; raw spans from the first one."""
    return {
        part: _merge([dump[part] for dump in dumps])
        for part in ("saturated", "whole")
    }


def run(name: str, seed: int, seconds: float, options: dict) -> dict:
    """Run one live workload; returns its raw measurements.

    Each of the WINDOWS windows of a phase runs on a freshly booted
    broker with fresh sessions: what a broker's allocator does with the
    event loop's receive buffers is settled while it starts (README,
    "what moves the numbers besides the code"), so a fresh broker per
    window samples that instead of inheriting one draw for the whole
    run — and the boots are the set-up samples.
    """
    store = name == "live_store"
    traced = options["traced"]
    quick = options["quick"]
    plan = PLANS[name]
    payloads = Payloads(seed, name)
    closer = Closer()
    windows = 2 if quick else WINDOWS
    # One CPU each for the generator and the system under test: left to
    # the scheduler the subscriber's reader thread lands on the broker's
    # CPU now and then, and sharing one CPU on purpose is bimodal.
    cpus = options["cpus"]
    broker_cpu = None
    if len(cpus) >= 2:
        os.sched_setaffinity(0, {cpus[0]})
        broker_cpu = cpus[-1]

    setups, saturated, traces, rss = [], [], [], []
    paced_windows = {2000: [], 8000: []}
    paced_attempts = {2000: [], 8000: []}
    totals = {"sent": 0, "delivered": 0, "failed": 0, "control_failures": 0}
    check_totals = {"missing": 0, "out_of_order": 0, "corrupt": 0}
    extra = {}
    rig = None
    try:
        for index in range(windows):
            began = time.perf_counter()
            rig = Rig(
                store, traced, payloads, closer, broker_cpu,
                options["inject_drop"] and index == 0,
            )
            setups.append(time.perf_counter() - began)
            if traced:
                # Zero the child's spans and counters: set-up is not
                # part of the per-delivery budget.
                rig.broker.signal(signal.SIGUSR1)
                rig.publisher.ping()
            saturated.append(
                saturate(rig, seconds * plan["saturate"] / windows)
            )
            if traced:
                rig.broker.signal(signal.SIGUSR2)
                rig.publisher.ping()
            for rate in (2000, 8000):
                share = plan.get(f"paced_r{rate}")
                # Not 8000/s against the traced broker: spans halve its
                # capacity and an open loop above capacity only backlogs.
                if share is not None and not (traced and rate == 8000):
                    paced_windows[rate].append(
                        paced(
                            rig, rate, seconds * share / windows,
                            paced_attempts[rate],
                        )
                    )
            if index == windows - 1:
                if "replay" in plan:
                    extra["replay"] = replay(
                        rig, seconds * plan["replay"], 20 if quick else 200
                    )
                extra["control_rtt_p50_us"] = control_rtt(
                    rig, 50 if quick else 200
                )
            rss.append(rig.broker.peak_rss_mb())
            check = rig.sink.check
            totals["sent"] += rig.sent
            totals["delivered"] += rig.sink.count
            totals["control_failures"] += rig.control_failures
            totals["failed"] += (
                check.failures()
                + max(0, rig.sent - rig.sink.count - check.missing)
                + rig.control_failures
            )
            for key in check_totals:
                check_totals[key] += getattr(check, key)
            traces.append(rig.close())
            rig = None
    finally:
        if rig is not None:
            rig.close()
        closer.wait()

    def across(key: str) -> dict:
        return summarise([window[key] for window in saturated])

    phases = {
        "saturate": {
            "delivered_per_s": across("delivered_per_s"),
            "cpu_us_per_delivery": across("cpu_us_per_delivery"),
            "broker_cpu_utilization": across("broker_cpu_utilization")["value"],
            "broker_minor_faults_per_msg": across(
                "broker_minor_faults_per_msg"
            )["value"],
            "generator_cpu_utilization": across("generator_cpu_utilization")[
                "value"
            ],
            "client_publish_ns": across("client_publish_ns")["value"],
            "client_cpu_us_per_msg": across("client_cpu_us_per_msg")["value"],
        },
        **extra,
    }
    for rate, collected in paced_windows.items():
        if collected:
            phases[f"paced_r{rate}"] = summarise_paced(
                collected, paced_attempts[rate]
            )
    replayed = extra.get("replay", {})
    return {
        "setup_s": summarise(setups),
        "phases": phases,
        "sent": totals["sent"],
        "delivered": totals["delivered"],
        "attempted": totals["sent"]
        + replayed.get("records", 0)
        + replayed.get("probes", 0),
        "failed": totals["failed"] + replayed.get("failures", 0),
        "check": dict(check_totals, control_failures=totals["control_failures"]),
        "peak_rss_mb": max(rss),
        "broker_trace": merge_traces(traces) if traced else None,
    }
