"""Outside-in tracing: spans around the layers' entry points.

The product carries no wall-clock spans, so the traced run patches the
entry points *from here*: :meth:`Tracer.patch` replaces a method on its
class with a wrapper that records one span per call (name, start, end,
parent, and a message id where the argument carries a sequence), then
:meth:`Tracer.restore` puts the originals back.

A span's **self time** is its duration minus the part its child spans
cover, so the self times of all spans under one root add up to the
root's duration. Totals are kept per span name for the whole run; the
first :data:`KEEP_SPANS` raw spans are kept as well and written out
when the benchmark ends.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter_ns

KEEP_SPANS = 20_000


def message_id(args: tuple) -> str | None:
    """``sensor:index:sequence`` when a call argument carries a message."""
    for arg in args:
        message = getattr(arg, "message", arg)
        sequence = getattr(message, "sequence", None)
        stream = getattr(message, "stream_id", None)
        if sequence is not None and stream is not None:
            return f"{stream.sensor_id}:{stream.stream_index}:{sequence}"
    return None


class Tracer:
    def __init__(self) -> None:
        #: name -> [calls, total_ns, self_ns]
        self.totals: dict[str, list[int]] = {}
        #: (name, start_ns, end_ns, parent name or None, message id)
        self.spans: list[tuple] = []
        #: Off while a workload builds, warms up or drains.
        self.enabled = True
        self._stack: list[list] = []
        self._patched: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    def wrap(self, name: str, function, with_id: bool = False):
        totals = self.totals.setdefault(name, [0, 0, 0])
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            frame = [name, 0]  # [name, ns covered by child spans]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                parent = None
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                if len(spans) < KEEP_SPANS:
                    spans.append(
                        (
                            name,
                            start,
                            end,
                            parent,
                            message_id(args) if with_id else None,
                        )
                    )

        traced.__wrapped__ = function
        return traced

    def patch(
        self, owner: type, method: str, name: str, with_id: bool = False
    ) -> bool:
        """Trace ``owner.method`` under ``name``; False if it is absent."""
        original = owner.__dict__.get(method)
        if original is None or not callable(original):
            return False
        self._patched.append((owner, method, original))
        setattr(owner, method, self.wrap(name, original, with_id))
        return True

    def restore(self) -> None:
        while self._patched:
            owner, method, original = self._patched.pop()
            setattr(owner, method, original)

    def reset(self) -> None:
        """Forget what was recorded so far."""
        for totals in self.totals.values():
            totals[0] = totals[1] = totals[2] = 0
        self.spans.clear()

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "totals": {
                name: {"calls": t[0], "total_ns": t[1], "self_ns": t[2]}
                for name, t in self.totals.items()
            },
            "spans": [list(span) for span in self.spans],
        }


def write_spans(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def budget_table(totals: dict, deliveries: int, busy_ns: float) -> list[dict]:
    """The per-layer budget: self ns per delivery, largest first.

    ``busy_ns`` is the wall time of the interval the spans were taken
    over, during which the system under test was saturated; the
    ``(outside spans)`` row is the part of it no span covered. Wall
    time, like the spans: CPU clocks on a guest leave out the loopback
    softirq work and the stalls of waking another CPU, both of which
    sit inside ``sendto``.
    """
    deliveries = max(deliveries, 1)
    rows = [
        {
            "layer": name,
            "calls": entry["calls"],
            "self_ns_per_delivery": entry["self_ns"] / deliveries,
            "share": entry["self_ns"] / busy_ns if busy_ns else 0.0,
        }
        for name, entry in totals.items()
        if entry["calls"]
    ]
    rows.sort(key=lambda row: -row["self_ns_per_delivery"])
    covered = sum(entry["self_ns"] for entry in totals.values())
    rows.append(
        {
            "layer": "(outside spans)",
            "calls": 0,
            "self_ns_per_delivery": (busy_ns - covered) / deliveries,
            "share": (busy_ns - covered) / busy_ns if busy_ns else 0.0,
        }
    )
    return rows


def format_budget(workload: str, rows: list[dict]) -> str:
    lines = [
        f"budget table: {workload} (self time per delivery)",
        f"  {'layer':<40}{'calls':>12}{'ns/delivery':>14}{'share':>8}",
    ]
    for row in rows:
        lines.append(
            f"  {row['layer']:<40}{row['calls']:>12}"
            f"{row['self_ns_per_delivery']:>14.1f}{row['share']:>8.1%}"
        )
    return "\n".join(lines)
