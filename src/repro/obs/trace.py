"""Span tracing: per-process shared-memory ring buffers + Chrome trace export.

Every writer (the scorer and each propagation worker) owns one fixed-capacity
ring of trace records in a shared-memory segment.  A record is five float64s
— ``(kind, name_id, start_us, duration_us, arg)`` — appended with two NumPy
writes and a cursor bump; when the ring wraps, the oldest records are
overwritten (the exporter reports how many were dropped).  Span names are
interned into a fixed table at create time, so no strings ever cross process
boundaries after setup.

Timestamps are microseconds since a shared ``time.monotonic()`` epoch taken
at create.  ``CLOCK_MONOTONIC`` is system-wide on Linux, so spans recorded in
different processes line up on one timeline — which is exactly what the
Chrome trace-event exporter needs: :func:`chrome_trace_events` emits
``"ph": "X"`` complete events (plus process-name metadata), and
:func:`write_chrome_trace` wraps them in the JSON object format that
``chrome://tracing`` and Perfetto load directly.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._shm import BundleHandle, SharedArrayBundle

__all__ = ["TraceRing", "TraceRingHandle", "chrome_trace_events", "write_chrome_trace"]

KIND_SPAN = 0.0
KIND_MARK = 1.0

_RECORD_FIELDS = 5  # kind, name_id, start_us, duration_us, arg


@dataclass(frozen=True)
class TraceRingHandle:
    """Picklable attach recipe for :meth:`TraceRing.attach`."""

    names: tuple
    num_writers: int
    capacity: int
    epoch: float
    writer_labels: tuple
    bundle: BundleHandle = field(default_factory=BundleHandle)


class TraceRing:
    """Per-writer ring buffers of span/mark records over one shared epoch."""

    def __init__(self, names: tuple, num_writers: int, capacity: int,
                 epoch: float, writer_labels: tuple, writer: int,
                 bundle: SharedArrayBundle):
        if not 0 <= writer < num_writers:
            raise ValueError(f"writer must be in [0, {num_writers}), got {writer}")
        self.names = tuple(names)
        self.num_writers = num_writers
        self.capacity = capacity
        self.epoch = epoch
        self.writer_labels = tuple(writer_labels)
        self.writer = writer
        self._bundle = bundle
        self._name_ids = {name: i for i, name in enumerate(self.names)}
        # The ring's arrays (re-pointed at the private copies on release).
        self._records = bundle["records"]
        self._cursor = bundle["cursor"]
        self._pids = bundle["pids"]
        self._pids[writer] = os.getpid()

    # ------------------------------------------------------------------ #
    @classmethod
    def create(cls, names, num_writers: int, capacity: int = 32768,
               writer_labels=None, writer: int = 0) -> "TraceRing":
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate span names")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if writer_labels is None:
            writer_labels = tuple(f"writer-{i}" for i in range(num_writers))
        bundle = SharedArrayBundle.create({
            "records": ((num_writers, capacity, _RECORD_FIELDS), np.float64),
            "cursor": ((num_writers,), np.int64),
            "pids": ((num_writers,), np.int64),
        })
        return cls(names, num_writers, capacity, time.monotonic(),
                   tuple(writer_labels), writer, bundle)

    @classmethod
    def attach(cls, handle: TraceRingHandle, writer: int) -> "TraceRing":
        bundle = SharedArrayBundle.attach(handle.bundle)
        return cls(handle.names, handle.num_writers, handle.capacity,
                   handle.epoch, handle.writer_labels, writer, bundle)

    def handle(self) -> TraceRingHandle:
        return TraceRingHandle(names=self.names, num_writers=self.num_writers,
                               capacity=self.capacity, epoch=self.epoch,
                               writer_labels=self.writer_labels,
                               bundle=self._bundle.handle())

    def release(self) -> None:
        """Unmap (the owner also unlinks); the ring stays readable.

        The private copy takes only the rows some writer reached, into
        lazily zeroed memory: a run that wrote a few thousand records pays
        for those, not for copying and faulting in the whole capacity.
        """
        if not self._bundle.is_shared:
            return
        used = min(int(self._cursor.max()), self.capacity)
        records = np.zeros(self._records.shape, dtype=self._records.dtype)
        records[:, :used] = self._records[:, :used]
        self._records, self._cursor, self._pids = \
            records, np.array(self._cursor), np.array(self._pids)
        self._bundle.release(keep=False)

    @property
    def is_shared(self) -> bool:
        return self._bundle.is_shared

    # ------------------------------------------------------------------ #
    # Writer side
    # ------------------------------------------------------------------ #
    def name_id(self, name: str):
        return self._name_ids.get(name)

    def now_us(self) -> float:
        return (time.monotonic() - self.epoch) * 1e6

    def record(self, kind: float, name_id: int, start_us: float,
               duration_us: float, arg: float) -> None:
        w = self.writer
        cursor = self._cursor
        index = cursor[w] % self.capacity
        # Five scalar stores beat one tuple assignment (~6x on the hot path).
        row = self._records[w, index]
        row[0] = kind
        row[1] = name_id
        row[2] = start_us
        row[3] = duration_us
        row[4] = arg
        cursor[w] += 1

    # ------------------------------------------------------------------ #
    # Reader side
    # ------------------------------------------------------------------ #
    def dropped(self, writer: int) -> int:
        """Records lost to ring overflow for one writer."""
        return max(0, int(self._cursor[writer]) - self.capacity)

    def records(self, writer: int) -> np.ndarray:
        """This writer's surviving records, oldest first (copy)."""
        total = int(self._cursor[writer])
        ring = self._records[writer]
        if total <= self.capacity:
            return np.array(ring[:total])
        split = total % self.capacity
        return np.concatenate([ring[split:], ring[:split]])

    def chrome_events(self) -> list:
        return chrome_trace_events(self)


# ---------------------------------------------------------------------- #
# Chrome trace-event export
# ---------------------------------------------------------------------- #
def chrome_trace_events(ring: TraceRing) -> list:
    """Flatten every writer's ring into Chrome trace-event dicts.

    Emits ``"ph": "X"`` complete events for spans, ``"ph": "i"`` instants for
    marks, and ``"ph": "M"`` process-name metadata labelling each writer
    (scorer / worker-N).  Timestamps/durations are microseconds, the unit the
    trace-event format specifies.
    """
    events: list = []
    pids = ring._pids
    for writer in range(ring.num_writers):
        pid = int(pids[writer]) or (1000 + writer)
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": pid,
            "args": {"name": ring.writer_labels[writer]},
        })
        dropped = ring.dropped(writer)
        if dropped:
            events.append({
                "name": "trace_ring_dropped", "ph": "i", "s": "p",
                "ts": 0.0, "pid": pid, "tid": pid,
                "args": {"dropped_records": dropped},
            })
        for kind, name_id, start_us, duration_us, arg in ring.records(writer):
            name = ring.names[int(name_id)]
            event = {
                "name": name,
                "cat": "repro",
                "ts": float(start_us),
                "pid": pid,
                "tid": pid,
            }
            if kind == KIND_MARK:
                event["ph"] = "i"
                event["s"] = "t"
            else:
                event["ph"] = "X"
                event["dur"] = float(duration_us)
            if not np.isnan(arg):
                event["args"] = {"value": arg}
            events.append(event)
    events.sort(key=lambda e: (e.get("ts", -1.0), e["pid"]))
    return events


def write_chrome_trace(path, events: list, metadata: dict | None = None) -> Path:
    """Write events in the trace-event *object* format Perfetto accepts."""
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if metadata:
        document["metadata"] = metadata
    path = Path(path)
    path.write_text(json.dumps(document) + "\n")
    return path
