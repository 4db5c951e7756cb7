"""Garnet's unified observability layer.

One :class:`MetricsRegistry` per deployment holds every service's
counters, gauges and histograms; :class:`RegistryBackedStats` keeps the
legacy ``service.stats`` attributes alive as write-through views;
:class:`Tracer`/:class:`KernelProbe` add span tracing over the fixed
network and the simulation kernel; :mod:`repro.obs.export` renders a
snapshot as Prometheus text.

>>> from repro.obs import MetricsRegistry
>>> registry = MetricsRegistry()
>>> registry.counter("demo.events").inc()
>>> registry.snapshot()["counters"]["demo.events"]
1.0
"""

from repro.obs.export import render_prometheus
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from repro.obs.stats import RegistryBackedStats
from repro.obs.tracing import KernelProbe, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "KernelProbe",
    "MetricError",
    "MetricsRegistry",
    "RegistryBackedStats",
    "Span",
    "Tracer",
    "render_prometheus",
]
