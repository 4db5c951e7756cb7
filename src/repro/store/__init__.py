"""repro.store: the durable per-stream append-only segment log.

The pieces, bottom-up:

- :mod:`repro.store.segment` — the length-prefixed record codec and the
  Segment bookkeeping unit shared by every backend.
- :class:`StreamStore` (:mod:`repro.store.base`) — the pluggable ABC:
  rotation by segment size, retention by segment count / total bytes /
  age, ``store.*`` counters and gauges.
- :class:`MemorySegmentStore` / :class:`FileSegmentStore` — the two
  backends (file segments when ``store_dir`` is set, memory otherwise);
  the file flavour is crash-tolerant on open (torn tails truncated,
  counted).
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
    """Assemble a deployment's StreamStore: on disk when ``store_dir`` is set."""
    if config.store_dir:
        return FileSegmentStore(config.store_dir, clock=clock, metrics=metrics)
    return MemorySegmentStore(clock=clock, metrics=metrics)


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
