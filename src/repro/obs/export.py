"""Snapshot exporter: Prometheus text exposition format.

It operates on :meth:`MetricsRegistry.snapshot` output, so a live
registry and a snapshot dict render the same way.
"""

from __future__ import annotations

import math
import re

from repro.obs.registry import MetricsRegistry

_NAME_SANITISER = re.compile(r"[^a-zA-Z0-9_:]")


def _as_snapshot(source: MetricsRegistry | dict) -> dict:
    if isinstance(source, MetricsRegistry):
        return source.snapshot()
    return source


def prometheus_name(name: str) -> str:
    """``filtering.received`` -> ``garnet_filtering_received``."""
    flat = _NAME_SANITISER.sub("_", name.replace(".", "_"))
    if not flat.startswith("garnet_"):
        flat = f"garnet_{flat}"
    return flat


def render_prometheus(source: MetricsRegistry | dict) -> str:
    """The snapshot in Prometheus text exposition format.

    Counters/gauges become single samples; histograms expand into
    ``_bucket{le=...}`` series plus ``_sum`` and ``_count``, matching the
    cumulative-bucket convention scrapers expect.
    """
    snapshot = _as_snapshot(source)
    lines: list[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        flat = prometheus_name(name)
        lines.append(f"# TYPE {flat} counter")
        lines.append(f"{flat} {_fmt(value)}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        flat = prometheus_name(name)
        lines.append(f"# TYPE {flat} gauge")
        lines.append(f"{flat} {_fmt(value)}")
    for name, data in sorted(snapshot.get("histograms", {}).items()):
        flat = prometheus_name(name)
        lines.append(f"# TYPE {flat} histogram")
        # Snapshots loaded from JSON may carry buckets in key-sorted
        # (lexical) order; the exposition format requires increasing le.
        buckets = sorted(
            data.get("buckets", {}).items(),
            key=lambda item: (
                math.inf if item[0] == "+Inf" else float(item[0])
            ),
        )
        for bound, count in buckets:
            lines.append(f'{flat}_bucket{{le="{bound}"}} {int(count)}')
        lines.append(f"{flat}_sum {_fmt(data.get('sum', 0.0))}")
        lines.append(f"{flat}_count {int(data.get('count', 0))}")
    return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    if value is None:
        return "NaN"
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)
