"""repro.store: the durable per-stream append-only segment log.

The pieces, bottom-up:

- :mod:`repro.store.segment` — the length-prefixed record codec and the
  Segment bookkeeping unit shared by every backend.
- :class:`StreamStore` (:mod:`repro.store.base`) — the pluggable ABC:
  rotation by segment size, retention by segment count / total bytes /
  age, ``store.*`` counters and gauges.
- :class:`MemorySegmentStore` / :class:`FileSegmentStore` — the two
  backends (``store_backend="memory" | "file"``); the file flavour is
  crash-tolerant on open (torn tails truncated, counted).
- :class:`StoreTap` — the write-through installed into the Dispatching
  Service(s); per-stream sequence windows keep the log duplicate-free
  across cluster handoff replay.

``build_store`` assembles a store from a :class:`GarnetConfig`; the
deployment facade calls it when ``store_enabled=True`` and leaves the
whole subsystem out of the data path otherwise (the golden digests pin
that).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.store.base import StoreStats, StreamStore
from repro.store.file import FileSegmentStore
from repro.store.memory import MemorySegmentStore
from repro.store.segment import (
    StoredRecord,
    decode_record,
    encode_record,
    iter_records,
    scan_records,
)
from repro.store.tap import StoreTap


def build_store(
    config,
    *,
    metrics: MetricsRegistry | None = None,
    clock: Callable[[], float] | None = None,
) -> StreamStore:
    """Assemble the configured StreamStore backend for a deployment."""
    kwargs = dict(
        segment_bytes=config.store_segment_bytes,
        max_age=config.store_max_age,
        clock=clock,
        metrics=metrics,
    )
    if config.store_backend == "memory":
        return MemorySegmentStore(**kwargs)
    if config.store_backend == "file":
        if not config.store_dir:
            raise ConfigurationError(
                "store_backend='file' needs store_dir to point at a "
                "directory"
            )
        return FileSegmentStore(config.store_dir, **kwargs)
    raise ConfigurationError(
        f"unknown store_backend {config.store_backend!r} "
        "(expected 'memory' or 'file')"
    )


__all__ = [
    "FileSegmentStore",
    "MemorySegmentStore",
    "StoreStats",
    "StoreTap",
    "StoredRecord",
    "StreamStore",
    "build_store",
    "decode_record",
    "encode_record",
    "iter_records",
    "scan_records",
]
