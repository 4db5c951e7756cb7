"""Shared pieces of the message-journey benchmark.

Nothing in here imports ``repro``: the statistics, the output checkers,
the payload generator and the ``/proc`` readers are plain Python, so the
smoke test can exercise them without standing up a deployment.
"""

from __future__ import annotations

import os
import platform
import random
import resource
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

HARNESS_VERSION = 1

#: The benchmark lives two levels below the checkout root.
HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
OUT_DIR = HERE / "_out"

#: Every timed phase is cut into this many equal windows; a metric is
#: the median over the windows, its IQR is printed beside it.
WINDOWS = 5

PAYLOAD_BYTES = 32
_STAMP = struct.Struct(">Q")
SEQUENCE_MODULUS = 1 << 16

now_ns = time.perf_counter_ns


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(ordered: list, share: float):
    """Nearest-rank percentile of an already sorted, non-empty list."""
    index = min(len(ordered) - 1, int(len(ordered) * share))
    return ordered[index]


def summarise(samples: list[float]) -> dict:
    """Median, inter-quartile range and count of a metric's windows."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        iqr = q3 - q1
    else:
        iqr = 0.0
    return {
        "value": float(statistics.median(samples)),
        "iqr": float(iqr),
        "n": len(samples),
    }


def chunks(items: list, count: int) -> list[list]:
    """``items`` cut into ``count`` consecutive, near-equal pieces."""
    size = max(1, len(items) // count)
    pieces = [items[i * size : (i + 1) * size] for i in range(count)]
    return [piece for piece in pieces if piece]


def latency_summary(latencies_ns: list[int]) -> dict:
    """Per-window p50 (median of windows) plus whole-phase tail, in µs.

    The tail percentiles use every sample of the phase: p99 needs the
    whole phase to have enough samples beyond it.
    """
    if not latencies_ns:
        return {"p50_us": summarise([0.0]), "p99_us": 0.0, "samples": 0}
    window_p50 = [
        percentile(sorted(piece), 0.5) / 1e3
        for piece in chunks(latencies_ns, WINDOWS)
    ]
    ordered = sorted(latencies_ns)
    return {
        "p50_us": summarise(window_p50),
        "p99_us": percentile(ordered, 0.99) / 1e3,
        "samples": len(ordered),
    }


# ----------------------------------------------------------------------
# Generated inputs and output checks
# ----------------------------------------------------------------------
class Payloads:
    """32-byte payloads: an 8-byte due-stamp plus 24 seeded bytes."""

    def __init__(self, seed: int, label: str = "") -> None:
        rng = random.Random(f"journey:{seed}:{label}")
        self.pad = rng.randbytes(PAYLOAD_BYTES - _STAMP.size)

    def make(self, stamp_ns: int) -> bytes:
        return _STAMP.pack(stamp_ns) + self.pad

    @staticmethod
    def stamp_of(payload: bytes) -> int:
        return _STAMP.unpack_from(payload)[0]

    def intact(self, payload: bytes) -> bool:
        return len(payload) == PAYLOAD_BYTES and payload.endswith(self.pad)


class StreamCheck:
    """One consumer's view of one stream: exactly once, in order.

    ``observe`` expects sequences to advance by one, modulo the 16-bit
    wrap. A jump forward counts the skipped sequences as missing; a
    sequence at or behind the cursor is a duplicate or a reordering.
    """

    __slots__ = ("expected", "delivered", "missing", "out_of_order", "corrupt")

    def __init__(self, first: int | None = 0) -> None:
        self.expected = first
        self.delivered = 0
        self.missing = 0
        self.out_of_order = 0
        self.corrupt = 0

    def observe(self, sequence: int) -> None:
        expected = self.expected
        if sequence != expected and expected is not None:
            jump = (sequence - expected) % SEQUENCE_MODULUS
            if jump >= SEQUENCE_MODULUS // 2:
                self.out_of_order += 1
                return
            self.missing += jump
        self.expected = (sequence + 1) % SEQUENCE_MODULUS
        self.delivered += 1

    def failures(self) -> int:
        return self.missing + self.out_of_order + self.corrupt


class DropOne:
    """Test hook: swallow exactly one delivery before the checker.

    Stands in for a message the system lost, so the smoke test can show
    that the output checks fire (``--inject-drop``).
    """

    def __init__(self, callback, skip_after: int = 3) -> None:
        self._callback = callback
        self._countdown = skip_after

    def __call__(self, arrival) -> None:
        self._countdown -= 1
        if self._countdown == 0:
            return
        self._callback(arrival)


# ----------------------------------------------------------------------
# Process accounting
# ----------------------------------------------------------------------
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def proc_usage(pid: int) -> tuple[float, int]:
    """(user+system CPU seconds, minor page faults) of ``pid``.

    ``/proc/<pid>/stat`` rather than the scheduler's nanosecond run
    time: on kernels that account interrupt time separately the latter
    leaves out the loopback receive path, which runs as a softirq in the
    sender's context.
    """
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK, int(fields[7])


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Result metadata ("schema v2")
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def metadata(seed: int, mode: str, seconds: float) -> dict:
    return {
        "harness_version": HARNESS_VERSION,
        "host": platform.node(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "git_commit": _git_commit(),
        "seed": seed,
        "mode": mode,
        "seconds": seconds,
        "windows": WINDOWS,
    }


class Deadline:
    """A bounded wait: every poll loop in the harness runs under one."""

    def __init__(self, seconds: float) -> None:
        self._end = time.monotonic() + seconds

    def expired(self) -> bool:
        return time.monotonic() >= self._end

    def wait_for(self, predicate, poll: float = 0.001) -> bool:
        while not predicate():
            if self.expired():
                return predicate()
            time.sleep(poll)
        return True
