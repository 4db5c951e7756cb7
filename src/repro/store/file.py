"""FileSegmentStore: the durable on-disk StreamStore backend.

Layout::

    <dir>/s<sensor_id>-<stream_index>/seg-<n>.log

Each segment file is a run of length-prefixed records
(:mod:`repro.store.segment`); the highest-numbered file per stream is
the active one, opened in append mode. Writes are a single
``write(record)`` + ``flush()`` per append — an interrupted process can
therefore leave at most one *torn tail record* in one file, and only in
the last segment of each stream.

Opening a directory is crash-tolerant: every segment file is scanned
record-by-record, and a file whose final record is incomplete is
truncated back to its last whole record (``store.truncated_tail``
counts each repair). No corrupt record ever surfaces through ``read``.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.core.streamid import StreamId
from repro.errors import StoreError
from repro.store.base import StreamStore, _StreamLog
from repro.store.segment import (
    RECORD_META_BYTES,
    RECORD_PREFIX_BYTES,
    Segment,
    scan_records,
)

_SEGMENT_PREFIX = "seg-"
_SEGMENT_SUFFIX = ".log"
_STREAM_PREFIX = "s"


def _stream_dirname(stream_id: StreamId) -> str:
    return f"{_STREAM_PREFIX}{stream_id.sensor_id}-{stream_id.stream_index}"


def _parse_stream_dirname(name: str) -> StreamId | None:
    if not name.startswith(_STREAM_PREFIX):
        return None
    sensor, _, index = name[len(_STREAM_PREFIX) :].partition("-")
    try:
        return StreamId(int(sensor), int(index))
    except ValueError:
        return None


class _FileSegment(Segment):
    __slots__ = ("path", "_handle")

    def __init__(self, index: int, path: Path) -> None:
        super().__init__(index)
        self.path = path
        self._handle = None

    def _ensure_handle(self):
        if self._handle is None:
            self._handle = open(self.path, "ab")
        return self._handle

    def _write(
        self,
        encoded: bytes,
        received_at: float,
        receiver_id: int,
        frame: bytes,
    ) -> None:
        handle = self._ensure_handle()
        handle.write(encoded)
        handle.flush()

    def records(self) -> list[tuple[float, int, bytes]]:
        if self._handle is not None:
            self._handle.flush()
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return []
        records, clean = scan_records(data)
        if clean != len(data):  # pragma: no cover - post-open tears only
            raise StoreError(
                f"torn record mid-store in {self.path} "
                f"(clean up to byte {clean} of {len(data)})"
            )
        return records

    def seal(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def delete(self) -> None:
        self.seal()
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        # Prune the stream directory once its last segment is gone.
        try:
            self.path.parent.rmdir()
        except OSError:
            pass


class FileSegmentStore(StreamStore):
    """Durable segment log under one directory, crash-tolerant on open."""

    def __init__(self, directory: str | os.PathLike, **kwargs) -> None:
        super().__init__(**kwargs)
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._load_existing()

    # ------------------------------------------------------------------
    def _open_segment(self, stream_id: StreamId, index: int) -> Segment:
        stream_dir = self._dir / _stream_dirname(stream_id)
        stream_dir.mkdir(exist_ok=True)
        return _FileSegment(
            index, stream_dir / f"{_SEGMENT_PREFIX}{index}{_SEGMENT_SUFFIX}"
        )

    # ------------------------------------------------------------------
    def _load_existing(self) -> None:
        """Rebuild in-memory metadata from disk, repairing torn tails."""
        for stream_dir in sorted(self._dir.iterdir()):
            if not stream_dir.is_dir():
                continue
            stream_id = _parse_stream_dirname(stream_dir.name)
            if stream_id is None:
                continue
            indexed: list[tuple[int, Path]] = []
            for path in stream_dir.iterdir():
                name = path.name
                if not (
                    name.startswith(_SEGMENT_PREFIX)
                    and name.endswith(_SEGMENT_SUFFIX)
                ):
                    continue
                try:
                    index = int(
                        name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
                    )
                except ValueError:
                    continue
                indexed.append((index, path))
            if not indexed:
                continue
            indexed.sort()
            log = None
            for index, path in indexed:
                data = path.read_bytes()
                records, clean = scan_records(data)
                if clean != len(data):
                    # Torn tail: truncate the file back to its last
                    # whole record so future appends extend clean bytes.
                    with open(path, "r+b") as handle:
                        handle.truncate(clean)
                    self.stats.truncated_tail += 1
                if log is None:
                    log = _StreamLog(stream_id)
                    self._logs[stream_id] = log
                segment = _FileSegment(index, path)
                for received_at, _receiver_id, frame in records:
                    segment.note(
                        received_at,
                        RECORD_PREFIX_BYTES + RECORD_META_BYTES + len(frame),
                    )
                log.segments.append(segment)
                self._total_segments += 1
                self._total_bytes += segment.bytes_held
            if log is not None:
                log.next_index = indexed[-1][0] + 1
        self._enforce_retention()
        self._update_gauges()


__all__ = ["FileSegmentStore"]
