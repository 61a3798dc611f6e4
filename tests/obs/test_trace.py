"""Trace rings and the Chrome trace-event exporter."""

import json
import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.obs import TraceRing, write_chrome_trace
from repro.obs.trace import KIND_MARK, KIND_SPAN, chrome_trace_events


@pytest.fixture
def ring():
    ring = TraceRing.create(("alpha", "beta"), num_writers=2, capacity=8,
                            writer_labels=("scorer", "worker-0"))
    yield ring
    ring.release()


class TestRing:
    def test_create_validates(self):
        with pytest.raises(ValueError, match="duplicate"):
            TraceRing.create(("a", "a"), num_writers=1)
        with pytest.raises(ValueError, match="capacity"):
            TraceRing.create(("a",), num_writers=1, capacity=0)
        with pytest.raises(ValueError, match="writer"):
            TraceRing.create(("a",), num_writers=1, writer=1)

    def test_records_in_order(self, ring):
        for i in range(3):
            ring.record(KIND_SPAN, 0, float(i), 1.0, float(i * 10))
        records = ring.records(0)
        assert records.shape == (3, 5)
        assert list(records[:, 2]) == [0.0, 1.0, 2.0]
        assert ring.dropped(0) == 0

    def test_overflow_keeps_newest(self, ring):
        for i in range(11):  # capacity 8 -> first 3 overwritten
            ring.record(KIND_SPAN, 0, float(i), 1.0, 0.0)
        records = ring.records(0)
        assert len(records) == 8
        assert list(records[:, 2]) == [float(i) for i in range(3, 11)]
        assert ring.dropped(0) == 3

    def test_overflow_reported_in_export(self, ring):
        for i in range(10):
            ring.record(KIND_SPAN, 0, float(i), 1.0, 0.0)
        drops = [e for e in chrome_trace_events(ring)
                 if e["name"] == "trace_ring_dropped"]
        assert len(drops) == 1
        assert drops[0]["args"]["dropped_records"] == 2

    @pytest.mark.parametrize("writes", [(3, 2), (11, 0), (0, 0)])
    def test_release_keeps_every_record(self, writes):
        """The private copy holds only the rows written, and reads alike."""
        ring = TraceRing.create(("a", "b"), num_writers=2, capacity=8)
        other = TraceRing.attach(ring.handle(), writer=1)
        for i in range(writes[0]):
            ring.record(KIND_SPAN, 0, float(i), 1.0, float(i))
        for i in range(writes[1]):
            other.record(KIND_MARK, 1, float(i) + 0.5, 0.0, float("nan"))
        other.release()
        shared = [ring.records(w) for w in (0, 1)]
        dropped = [ring.dropped(w) for w in (0, 1)]
        events = chrome_trace_events(ring)
        ring.release()
        assert not ring.is_shared
        for w in (0, 1):
            assert np.array_equal(ring.records(w), shared[w], equal_nan=True)
            assert ring.dropped(w) == dropped[w]
        assert chrome_trace_events(ring) == events
        ring.record(KIND_SPAN, 0, 99.0, 1.0, 0.0)  # still writable
        assert ring.records(0)[-1, 2] == 99.0

    def test_cross_process_rings_share_epoch(self, ring):
        handle = ring.handle()

        def child():
            attached = TraceRing.attach(handle, writer=1)
            attached.record(KIND_SPAN, 1, attached.now_us(), 5.0, float("nan"))
            attached.release()

        proc = mp.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == 0
        records = ring.records(1)
        assert len(records) == 1
        assert records[0, 2] > 0  # stamped against the shared epoch


class TestChromeExport:
    def test_span_and_mark_events(self, ring):
        ring.record(KIND_SPAN, 0, 10.0, 4.0, 17.0)
        ring.record(KIND_MARK, 1, 20.0, 0.0, float("nan"))
        events = chrome_trace_events(ring)
        spans = [e for e in events if e.get("ph") == "X"]
        marks = [e for e in events if e.get("ph") == "i"]
        metas = [e for e in events if e.get("ph") == "M"]
        assert len(spans) == 1 and spans[0]["name"] == "alpha"
        assert spans[0]["dur"] == 4.0 and spans[0]["ts"] == 10.0
        assert spans[0]["args"] == {"value": 17.0}
        assert len(marks) == 1 and marks[0]["name"] == "beta"
        assert "args" not in marks[0]  # NaN arg omitted
        labels = {m["args"]["name"] for m in metas}
        assert labels == {"scorer", "worker-0"}

    def test_events_sorted_by_timestamp(self, ring):
        for ts in (30.0, 10.0, 20.0):
            ring.record(KIND_SPAN, 0, ts, 1.0, 0.0)
        events = [e for e in chrome_trace_events(ring) if e.get("ph") == "X"]
        assert [e["ts"] for e in events] == [10.0, 20.0, 30.0]

    def test_pid_labels_each_writer(self, ring):
        ring.record(KIND_SPAN, 0, 1.0, 1.0, 0.0)
        events = chrome_trace_events(ring)
        span = next(e for e in events if e.get("ph") == "X")
        assert span["pid"] == os.getpid()

    def test_write_chrome_trace_object_format(self, ring, tmp_path):
        ring.record(KIND_SPAN, 0, 1.0, 2.0, 0.0)
        path = write_chrome_trace(tmp_path / "trace.json",
                                  chrome_trace_events(ring),
                                  metadata={"run": "test"})
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert document["metadata"] == {"run": "test"}
        assert isinstance(document["traceEvents"], list)
        assert document["traceEvents"]  # non-empty

    def test_export_survives_release(self):
        ring = TraceRing.create(("a",), num_writers=1, capacity=4)
        ring.record(KIND_SPAN, 0, 1.0, 2.0, 0.0)
        ring.release()
        events = [e for e in chrome_trace_events(ring) if e.get("ph") == "X"]
        assert len(events) == 1
