"""Append-only columnar event storage.

:class:`EventStore` is the storage half of the storage/view split (ROADMAP
item 2, following the openDG ``DGStorage``/``DGraph`` pattern): one immutable,
append-only home for the event stream's columns —

* ``src`` / ``dst`` — ``int64`` node ids,
* ``timestamps`` — ``float64``, non-decreasing (the streaming contract),
* ``labels`` — ``float64`` dynamic state labels,
* ``edge_features`` — ``float64`` matrix ``(num_events, edge_feature_dim)``

— shared zero-copy by any number of :class:`~repro.storage.graph_view.GraphView`
slices and :class:`~repro.graph.temporal_graph.TemporalGraph` façades.
Appends are bulk array writes into pre-sized extents (amortised doubling);
no per-event Python objects are ever created, which is what lets a 10M-event
stream build at memcpy speed inside bounded resident memory
(``benchmarks/test_storage_scale.py``).

Backings
--------
* **memory** (default) — plain NumPy arrays, grown by amortised doubling.
* **mmap** — every column lives in a raw binary file under a directory,
  mapped with ``np.memmap``.  The store hands its columns and header words
  out as plain ``np.ndarray`` views of those maps (every slice and word load
  stays in C, with no ``memmap.__getitem__`` / ``__array_finalize__`` per
  access) and keeps the ``np.memmap`` objects only to flush, remap and close
  them.  The writer grows a column by flushing,
  extending the file to the doubled capacity and remapping; readers in other
  processes attach the same files read-only with :meth:`open_mmap` and follow
  growth with :meth:`refresh`.  Because all maps share the OS page cache,
  there is exactly **one** physical copy of the event stream per machine no
  matter how many serving workers attach — the fix for the per-worker
  private event stores that were the scaling wall of the PR-6 runtime.

Publishing protocol (single writer, many readers): *after* the column files
have been extended and written, the writer publishes ``num_events``,
``capacity`` and ``last_timestamp`` through ``header.bin`` — four mmap'd
``int64`` words, the first a seqlock-style version: odd while the other three
change, even (and non-zero) once they are stable.  An append costs five word
stores, no file rewrite; a reader retries its four word loads until two equal
even version reads bracket them, so it never observes a ``num_events`` beyond
what the files hold, and fails loudly if the version stays odd (the writer
died mid-publish).  Stores reach readers in program order on x86; the serving
runtime's queue put orders them anywhere.  ``meta.json`` keeps the immutable
geometry plus a snapshot of the counts, rewritten atomically (temp + rename)
by ``create_mmap`` / ``save`` / ``flush`` only; a directory without a header
(``save(path)`` output, or the older layout) attaches from that snapshot.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..obs import NULL_TELEMETRY

__all__ = ["EventStore", "EventStoreHandle"]

_META_NAME = "meta.json"
_FORMAT_VERSION = 1
# int64 words: version, num_events, capacity, last_timestamp (float64 bits).
_HEADER_NAME = "header.bin"
_HEADER_READ_RETRIES = 1000  # backing off to 1 ms apart: about a second

# Column name -> (dtype, is_2d). Order fixes the on-disk layout.
_COLUMNS = (
    ("src", np.int64, False),
    ("dst", np.int64, False),
    ("timestamps", np.float64, False),
    ("labels", np.float64, False),
    ("edge_features", np.float64, True),
)


@dataclass(frozen=True)
class EventStoreHandle:
    """Picklable recipe for attaching an mmap-backed :class:`EventStore`.

    Produced by :meth:`EventStore.handle` in the writing process and consumed
    by :meth:`EventStore.open_mmap` in reader processes (e.g. the serving
    runtime's propagation workers).  Carries only the directory path — the
    geometry lives in the store's own ``meta.json``.
    """

    path: str

    def open(self) -> "EventStore":
        return EventStore.open_mmap(self.path, mode="r")


def _grow(array: np.ndarray, needed: int) -> np.ndarray:
    """Return ``array`` with capacity >= needed (amortised doubling)."""
    capacity = len(array)
    if needed <= capacity:
        return array
    new_capacity = max(needed, 2 * capacity, 8)
    new_shape = (new_capacity,) + array.shape[1:]
    grown = np.empty(new_shape, dtype=array.dtype)
    grown[:capacity] = array
    return grown


class EventStore:
    """Append-only columnar store of interaction events.

    Construct with ``EventStore(num_nodes, edge_feature_dim)`` for the
    in-memory backing, :meth:`create_mmap` for a fresh file-backed store, or
    :meth:`open_mmap` to attach an existing one.  :meth:`from_arrays` bulk
    loads either backing.
    """

    def __init__(self, num_nodes: int, edge_feature_dim: int):
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if edge_feature_dim < 0:
            raise ValueError("edge_feature_dim must be non-negative")
        self.num_nodes = num_nodes
        self.edge_feature_dim = edge_feature_dim
        self._num_events = 0
        self._capacity = 0
        self._last_timestamp = -np.inf
        self._path: Path | None = None
        # ``_header`` is a plain ndarray view of ``_header_map``; ``_maps``
        # holds each column's np.memmap behind its ``_columns`` view.
        self._header: np.ndarray | None = None
        self._header_map: np.memmap | None = None
        self._maps: dict[str, np.memmap] = {}
        self._writable = True
        # Observability sink; callers that want spans ("store.append",
        # "store.refresh") swap in a live Telemetry — the serving runtime
        # does for both the scorer's writer store and the workers' readers.
        self.telemetry = NULL_TELEMETRY
        self._columns: dict[str, np.ndarray] = {
            name: np.empty(self._column_shape(name, 0), dtype=dtype)
            for name, dtype, _ in _COLUMNS
        }

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_arrays(cls, src, dst, timestamps, edge_features, labels=None,
                    num_nodes: int | None = None,
                    path: str | Path | None = None) -> "EventStore":
        """Bulk-load a store from parallel event arrays (must be time-sorted).

        With ``path`` the store is created mmap-backed under that directory;
        otherwise it lives in memory.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        edge_features = np.asarray(edge_features, dtype=np.float64)
        if num_nodes is None:
            num_nodes = int(max(src.max(initial=0), dst.max(initial=0))) + 1
        feature_dim = edge_features.shape[1] if edge_features.ndim == 2 else 0
        if path is None:
            store = cls(num_nodes=num_nodes, edge_feature_dim=feature_dim)
        else:
            store = cls.create_mmap(path, num_nodes=num_nodes,
                                    edge_feature_dim=feature_dim,
                                    capacity=max(len(src), 1))
        store.append_batch(src, dst, timestamps, edge_features, labels)
        return store

    @classmethod
    def create_mmap(cls, path: str | Path, num_nodes: int, edge_feature_dim: int,
                    capacity: int = 1024) -> "EventStore":
        """Create a fresh writable mmap-backed store under ``path``."""
        store = cls(num_nodes, edge_feature_dim)
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        if (path / _META_NAME).exists():
            raise FileExistsError(f"{path} already holds an event store")
        store._path = path
        store._capacity = max(int(capacity), 1)
        store._columns = {}
        for name, dtype, _ in _COLUMNS:
            store._columns[name] = store._map_column(name, dtype,
                                                     store._capacity, "w+")
        store._create_header()
        store._write_meta()  # last: whoever can attach finds a published header
        return store

    @classmethod
    def open_mmap(cls, path: str | Path, mode: str = "r") -> "EventStore":
        """Attach an existing mmap-backed store.

        ``mode="r"`` attaches read-only (any number of processes may);
        ``mode="r+"`` re-opens for appending (single writer only — the
        publishing protocol assumes one).
        """
        if mode not in ("r", "r+"):
            raise ValueError("mode must be 'r' or 'r+'")
        path = Path(path)
        meta = json.loads((path / _META_NAME).read_text())
        if meta.get("version", 1) != _FORMAT_VERSION:
            raise ValueError(f"unsupported event store format: {meta.get('version')}")
        store = cls(meta["num_nodes"], meta["edge_feature_dim"])
        store._path = path
        store._writable = mode == "r+"
        store._num_events, store._capacity, store._last_timestamp = store._published()
        if store._header is None and store._writable:
            store._create_header()
        store._columns = {}
        for name, dtype, _ in _COLUMNS:
            store._columns[name] = store._map_column(name, dtype,
                                                     store._capacity, mode)
        return store

    def handle(self) -> EventStoreHandle:
        """Picklable attach recipe for worker processes (mmap stores only)."""
        if self._path is None:
            raise RuntimeError(
                "only mmap-backed stores can be attached from other processes; "
                "use create_mmap()/from_arrays(path=...) or save() first"
            )
        return EventStoreHandle(path=str(self._path))

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #
    def append_batch(self, src, dst, timestamps, edge_features,
                     labels=None) -> np.ndarray:
        """Append a chronological block of events; returns their edge ids.

        One validation pass and a handful of array copies regardless of block
        size.  The block must be internally time-sorted and must not precede
        the last stored event.
        """
        if not self._writable:
            raise RuntimeError("this store was attached read-only")
        src = np.asarray(src, dtype=np.int64).reshape(-1)
        dst = np.asarray(dst, dtype=np.int64).reshape(-1)
        timestamps = np.asarray(timestamps, dtype=np.float64).reshape(-1)
        edge_features = np.asarray(edge_features, dtype=np.float64)
        if edge_features.ndim == 1:
            edge_features = edge_features.reshape(len(src), -1) if self.edge_feature_dim \
                else edge_features.reshape(len(src), 0)
        if labels is None:
            labels = np.zeros(len(src))
        labels = np.asarray(labels, dtype=np.float64).reshape(-1)
        if not (len(src) == len(dst) == len(timestamps) == len(edge_features) == len(labels)):
            raise ValueError("event arrays must have equal length")
        if len(src) == 0:
            return np.empty(0, dtype=np.int64)
        if edge_features.shape[1] != self.edge_feature_dim:
            raise ValueError(
                f"edge feature dim mismatch: expected {self.edge_feature_dim}, "
                f"got {edge_features.shape[1]}"
            )
        if (timestamps[1:] < timestamps[:-1]).any():
            raise ValueError("events must be sorted by timestamp")
        if timestamps[0] < self._last_timestamp:
            raise ValueError(
                f"events must be appended in chronological order "
                f"(got {timestamps[0]} after {self._last_timestamp})"
            )
        for nodes in (src, dst):
            if len(nodes) and (nodes.min() < 0 or nodes.max() >= self.num_nodes):
                raise IndexError("node id out of range")

        with self.telemetry.span("store.append", arg=len(src)):
            count = self._num_events
            stop = count + len(src)
            self._reserve(stop)
            self._columns["src"][count:stop] = src
            self._columns["dst"][count:stop] = dst
            self._columns["timestamps"][count:stop] = timestamps
            self._columns["labels"][count:stop] = labels
            self._columns["edge_features"][count:stop] = edge_features
            self._num_events = stop
            self._last_timestamp = float(timestamps[-1])
            if self._header is not None:
                self._publish()
        return np.arange(count, stop, dtype=np.int64)

    def _reserve(self, needed: int) -> None:
        if needed <= self._capacity:
            return
        if self._path is None:
            for name in self._columns:
                self._columns[name] = _grow(self._columns[name], needed)
            self._capacity = len(self._columns["src"])
            return
        new_capacity = max(needed, 2 * self._capacity, 1024)
        for name, dtype, _ in _COLUMNS:
            self._remap_column(name, dtype, new_capacity, "r+")
        self._capacity = new_capacity

    # ------------------------------------------------------------------ #
    # Reader-side growth
    # ------------------------------------------------------------------ #
    def refresh(self) -> "EventStore":
        """Re-read the header and follow the writer's growth (mmap readers).

        Cheap no-op when nothing changed.  Views handed out earlier keep
        referencing the old (still valid) maps; new column reads see the
        appended events.
        """
        if self._path is None:
            return self
        with self.telemetry.span("store.refresh"):
            num_events, capacity, last_timestamp = self._published()
            if capacity != self._capacity:
                for name, dtype, _ in _COLUMNS:
                    self._remap_column(name, dtype, capacity,
                                       "r+" if self._writable else "r")
                self._capacity = capacity
            self._num_events, self._last_timestamp = num_events, last_timestamp
        return self

    def ensure_visible(self, num_events: int) -> "EventStore":
        """Refresh until at least ``num_events`` events are visible."""
        if num_events > self._num_events:
            self.refresh()
        if num_events > self._num_events:
            raise RuntimeError(
                f"store at {self._path} holds {self._num_events} events; "
                f"{num_events} were requested (writer not yet published?)"
            )
        return self

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path | None = None) -> Path:
        """Persist the store under ``path`` (flush, for mmap backings).

        For a memory-backed store, writes a complete mmap layout that
        :meth:`open_mmap` can attach.  For an mmap store called without
        ``path``, flushes the maps and meta in place.
        """
        if path is None:
            if self._path is None:
                raise ValueError("a memory-backed store needs an explicit path")
            self.flush()
            return self._path
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        capacity = max(self._num_events, 1)
        for name, dtype, _ in _COLUMNS:
            shape = self._column_shape(name, capacity)
            out = np.memmap(path / f"{name}.bin", dtype=dtype, mode="w+", shape=shape) \
                if self._column_nbytes(name, capacity) else None
            if out is not None:
                out[:self._num_events] = self._columns[name][:self._num_events]
                out.flush()
                del out
        # The snapshot below is this directory's truth, not an earlier header.
        (path / _HEADER_NAME).unlink(missing_ok=True)
        self._write_meta(path=path, capacity=capacity)
        return path

    def flush(self) -> None:
        """Flush mmap pages and the meta to disk (no-op for memory backing)."""
        if self._path is None:
            return
        for column_map in self._maps.values():
            column_map.flush()
        if self._writable:
            self._header_map.flush()
            self._write_meta()

    def close(self) -> None:
        """Drop the column and header maps (detach).  The store object is dead."""
        self._columns = {}
        self._maps = {}
        self._header = self._header_map = None
        self._capacity = 0
        self._num_events = 0

    # ------------------------------------------------------------------ #
    # Accessors (zero-copy views of the live prefix)
    # ------------------------------------------------------------------ #
    @property
    def num_events(self) -> int:
        return self._num_events

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def last_timestamp(self) -> float:
        return self._last_timestamp

    @property
    def backing(self) -> str:
        return "memory" if self._path is None else "mmap"

    @property
    def path(self) -> Path | None:
        return self._path

    @property
    def src(self) -> np.ndarray:
        return self._columns["src"][:self._num_events]

    @property
    def dst(self) -> np.ndarray:
        return self._columns["dst"][:self._num_events]

    @property
    def timestamps(self) -> np.ndarray:
        return self._columns["timestamps"][:self._num_events]

    @property
    def labels(self) -> np.ndarray:
        return self._columns["labels"][:self._num_events]

    @property
    def edge_features(self) -> np.ndarray:
        return self._columns["edge_features"][:self._num_events]

    def memory_footprint_bytes(self) -> int:
        """Bytes of column storage currently reserved (files for mmap)."""
        return sum(self._column_nbytes(name, self._capacity)
                   for name, _, _ in _COLUMNS)

    def __len__(self) -> int:
        return self._num_events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EventStore(num_nodes={self.num_nodes}, "
                f"num_events={self._num_events}, "
                f"edge_feature_dim={self.edge_feature_dim}, "
                f"backing={self.backing!r})")

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _column_shape(self, name: str, capacity: int) -> tuple:
        is_2d = next(flag for cname, _, flag in _COLUMNS if cname == name)
        return (capacity, self.edge_feature_dim) if is_2d else (capacity,)

    def _column_nbytes(self, name: str, capacity: int) -> int:
        dtype = next(d for cname, d, _ in _COLUMNS if cname == name)
        shape = self._column_shape(name, capacity)
        return int(np.prod(shape)) * np.dtype(dtype).itemsize

    def _map_column(self, name: str, dtype, capacity: int, mode: str) -> np.ndarray:
        shape = self._column_shape(name, capacity)
        if self._column_nbytes(name, capacity) == 0:
            # np.memmap cannot map zero bytes (edge_feature_dim == 0).
            return np.zeros(shape, dtype=dtype)
        column_map = np.memmap(self._path / f"{name}.bin", dtype=dtype,
                               mode=mode, shape=shape)
        self._maps[name] = column_map
        return column_map.view(np.ndarray)

    def _remap_column(self, name: str, dtype, capacity: int, mode: str) -> None:
        self._columns.pop(name, None)
        old = self._maps.pop(name, None)
        if old is not None and self._writable:
            old.flush()
        del old
        if self._writable and self._column_nbytes(name, capacity):
            # Extend the file before remapping; readers only learn the new
            # capacity from the header, which is published after this returns.
            with open(self._path / f"{name}.bin", "r+b") as handle:
                handle.truncate(self._column_nbytes(name, capacity))
        self._columns[name] = self._map_column(name, dtype, capacity, mode)

    def _create_header(self) -> None:
        """Writer: create ``header.bin`` (born all zeros: version 0, which
        readers treat as unstable and retry) and publish the current counts."""
        self._map_header("w+")
        self._publish()

    def _map_header(self, mode: str) -> None:
        self._header_map = np.memmap(self._path / _HEADER_NAME, dtype=np.int64,
                                     mode=mode, shape=(4,))
        self._header = self._header_map.view(np.ndarray)

    def _publish(self) -> None:
        """Seqlock write: the version word is odd while the counts change."""
        header = self._header
        header[0] += 1
        header[1] = self._num_events
        header[2] = self._capacity
        header[3] = np.float64(self._last_timestamp).view(np.int64)
        header[0] += 1

    def _published(self) -> tuple[int, int, float]:
        """``(num_events, capacity, last_timestamp)`` as the writer last published."""
        if self._header is None:
            header_path = self._path / _HEADER_NAME
            if not header_path.exists():  # this directory's JSON snapshot
                meta = json.loads((self._path / _META_NAME).read_text())
                return (int(meta["num_events"]), int(meta["capacity"]),
                        float(meta["last_timestamp"]))
            self._map_header("r+" if self._writable else "r")
        header = self._header
        for attempt in range(_HEADER_READ_RETRIES):
            version = int(header[0])  # before the counts, then once more after
            num_events, capacity, time_bits = header[1:].tolist()
            if version and version % 2 == 0 and header[0] == version:
                return num_events, capacity, float(np.int64(time_bits).view(np.float64))
            time.sleep(min(attempt, 10) * 1e-4)  # yield to a preempted writer
        raise RuntimeError(
            f"no stable read of {self._path / _HEADER_NAME} in {_HEADER_READ_RETRIES} "
            f"tries: version word stuck at {version} (odd: the writer died mid-publish)")

    def _write_meta(self, path: Path | None = None, capacity: int | None = None) -> None:
        path = path if path is not None else self._path
        meta = {
            "version": _FORMAT_VERSION,
            "num_nodes": self.num_nodes,
            "edge_feature_dim": self.edge_feature_dim,
            "num_events": self._num_events,
            "capacity": capacity if capacity is not None else self._capacity,
            "last_timestamp": self._last_timestamp,  # -Infinity while empty
        }
        temporary = path / (_META_NAME + ".tmp")
        temporary.write_text(json.dumps(meta))
        os.replace(temporary, path / _META_NAME)
