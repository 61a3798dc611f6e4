"""EventStore: columnar append-only storage, in memory and mmap-backed."""

import json
import os
import pickle
import shutil

import numpy as np
import pytest

from repro.storage import EventStore
from repro.storage import event_store as event_store_module


def make_events(n, num_nodes=20, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, n)
    dst = rng.integers(0, num_nodes, n)
    timestamps = np.sort(rng.uniform(0.0, 100.0, n))
    edge_features = rng.normal(size=(n, dim))
    labels = rng.integers(0, 2, n).astype(np.float64)
    return src, dst, timestamps, edge_features, labels


class TestMemoryStore:
    def test_append_and_read_back(self):
        src, dst, ts, ef, lab = make_events(50)
        store = EventStore(20, 4)
        edge_ids = store.append_batch(src, dst, ts, ef, lab)
        assert np.array_equal(edge_ids, np.arange(50))
        assert store.num_events == 50
        assert np.array_equal(store.src, src)
        assert np.array_equal(store.dst, dst)
        assert np.array_equal(store.timestamps, ts)
        assert np.array_equal(store.edge_features, ef)
        assert np.array_equal(store.labels, lab)
        assert store.last_timestamp == ts[-1]

    def test_incremental_appends_grow_capacity(self):
        src, dst, ts, ef, lab = make_events(500)
        store = EventStore(20, 4)
        for start in range(0, 500, 7):
            stop = min(start + 7, 500)
            ids = store.append_batch(src[start:stop], dst[start:stop],
                                     ts[start:stop], ef[start:stop],
                                     lab[start:stop])
            assert np.array_equal(ids, np.arange(start, stop))
        assert np.array_equal(store.timestamps, ts)
        assert np.array_equal(store.edge_features, ef)

    def test_default_labels_are_zero(self):
        src, dst, ts, ef, _ = make_events(10)
        store = EventStore(20, 4)
        store.append_batch(src, dst, ts, ef)
        assert np.array_equal(store.labels, np.zeros(10))

    def test_from_arrays(self):
        src, dst, ts, ef, lab = make_events(30)
        store = EventStore.from_arrays(src, dst, ts, ef, lab)
        assert store.num_nodes == int(max(src.max(), dst.max())) + 1
        assert np.array_equal(store.src, src)

    def test_chronological_order_enforced(self):
        store = EventStore(5, 0)
        store.append_batch([0], [1], [5.0], np.zeros((1, 0)))
        with pytest.raises(ValueError, match="chronological"):
            store.append_batch([1], [2], [4.0], np.zeros((1, 0)))
        with pytest.raises(ValueError, match="sorted by timestamp"):
            store.append_batch([0, 1], [1, 2], [7.0, 6.0], np.zeros((2, 0)))

    def test_node_range_enforced(self):
        store = EventStore(5, 0)
        with pytest.raises(IndexError):
            store.append_batch([0], [5], [0.0], np.zeros((1, 0)))
        with pytest.raises(IndexError):
            store.append_batch([-1], [0], [0.0], np.zeros((1, 0)))

    def test_feature_dim_enforced(self):
        store = EventStore(5, 3)
        with pytest.raises(ValueError):
            store.append_batch([0], [1], [0.0], np.zeros((1, 2)))

    def test_zero_feature_dim(self):
        store = EventStore(5, 0)
        store.append_batch([0, 1], [1, 2], [0.0, 1.0], np.zeros((2, 0)))
        assert store.edge_features.shape == (2, 0)

    def test_properties_are_views_not_copies(self):
        src, dst, ts, ef, lab = make_events(20)
        store = EventStore(20, 4)
        store.append_batch(src, dst, ts, ef, lab)
        assert np.shares_memory(store.src, store.src)
        a = store.timestamps
        b = store.timestamps
        assert np.shares_memory(a, b)

    def test_memory_footprint_positive(self):
        src, dst, ts, ef, lab = make_events(20)
        store = EventStore(20, 4)
        store.append_batch(src, dst, ts, ef, lab)
        assert store.memory_footprint_bytes() > 0


class TestMmapStore:
    def test_create_append_reopen(self, tmp_path):
        src, dst, ts, ef, lab = make_events(200)
        store = EventStore.create_mmap(tmp_path / "events", num_nodes=20,
                                       edge_feature_dim=4, capacity=16)
        for start in range(0, 200, 33):
            stop = min(start + 33, 200)
            store.append_batch(src[start:stop], dst[start:stop], ts[start:stop],
                               ef[start:stop], lab[start:stop])
        store.close()

        reader = EventStore.open_mmap(tmp_path / "events")
        assert reader.num_events == 200
        assert np.array_equal(reader.src, src)
        assert np.array_equal(reader.edge_features, ef)
        reader.close()

    def test_reader_follows_writer_growth(self, tmp_path):
        src, dst, ts, ef, lab = make_events(100)
        writer = EventStore.create_mmap(tmp_path / "events", num_nodes=20,
                                        edge_feature_dim=4, capacity=8)
        writer.append_batch(src[:10], dst[:10], ts[:10], ef[:10], lab[:10])
        reader = EventStore.open_mmap(tmp_path / "events")
        assert reader.num_events == 10

        # Writer grows past the reader's mapped capacity; refresh follows.
        writer.append_batch(src[10:], dst[10:], ts[10:], ef[10:], lab[10:])
        reader.ensure_visible(100)
        assert reader.num_events == 100
        assert np.array_equal(reader.timestamps, ts)
        writer.close()
        reader.close()

    def test_ensure_visible_raises_when_unpublished(self, tmp_path):
        writer = EventStore.create_mmap(tmp_path / "events", num_nodes=5,
                                        edge_feature_dim=0)
        reader = EventStore.open_mmap(tmp_path / "events")
        with pytest.raises(RuntimeError, match="events"):
            reader.ensure_visible(1)
        writer.close()
        reader.close()

    def test_save_roundtrip_from_memory(self, tmp_path):
        src, dst, ts, ef, lab = make_events(40)
        store = EventStore(20, 4)
        store.append_batch(src, dst, ts, ef, lab)
        store.save(tmp_path / "saved")

        loaded = EventStore.open_mmap(tmp_path / "saved")
        assert loaded.num_events == 40
        assert np.array_equal(loaded.src, src)
        assert np.array_equal(loaded.edge_features, ef)
        assert np.array_equal(loaded.labels, lab)
        loaded.close()

    def test_handle_is_picklable_attach_recipe(self, tmp_path):
        src, dst, ts, ef, lab = make_events(25)
        store = EventStore.create_mmap(tmp_path / "events", num_nodes=20,
                                       edge_feature_dim=4)
        store.append_batch(src, dst, ts, ef, lab)
        handle = pickle.loads(pickle.dumps(store.handle()))
        attached = handle.open()
        assert np.array_equal(attached.src, src)
        attached.close()
        store.close()

    def test_memory_store_has_no_handle(self):
        store = EventStore(5, 0)
        with pytest.raises(RuntimeError, match="mmap"):
            store.handle()

    def test_read_only_attach_rejects_appends(self, tmp_path):
        writer = EventStore.create_mmap(tmp_path / "events", num_nodes=5,
                                        edge_feature_dim=0)
        writer.append_batch([0], [1], [0.0], np.zeros((1, 0)))
        reader = EventStore.open_mmap(tmp_path / "events", mode="r")
        with pytest.raises((RuntimeError, ValueError)):
            reader.append_batch([1], [2], [1.0], np.zeros((1, 0)))
        writer.close()
        reader.close()

    @staticmethod
    def assert_plain_ndarrays(store):
        for name in ("src", "dst", "timestamps", "labels", "edge_features"):
            assert type(getattr(store, name)) is np.ndarray, name
        assert type(store._header) is np.ndarray

    def test_columns_and_header_are_plain_ndarrays(self, tmp_path):
        """Hot-path reads and slices never go through ``np.memmap``."""
        src, dst, ts, ef, lab = make_events(100)
        writer = EventStore.create_mmap(tmp_path / "events", num_nodes=20,
                                        edge_feature_dim=4, capacity=8)
        writer.append_batch(src[:5], dst[:5], ts[:5], ef[:5], lab[:5])
        reader = EventStore.open_mmap(tmp_path / "events")
        self.assert_plain_ndarrays(writer)
        self.assert_plain_ndarrays(reader)

        writer.append_batch(src[5:], dst[5:], ts[5:], ef[5:], lab[5:])
        reader.ensure_visible(100)  # both sides remapped after growth
        assert writer.capacity == reader.capacity > 8
        self.assert_plain_ndarrays(writer)
        self.assert_plain_ndarrays(reader)
        assert type(reader.src[10:20]) is np.ndarray
        assert np.array_equal(reader.edge_features, ef)
        writer.close()
        reader.close()

        for mode in ("r", "r+"):
            reopened = EventStore.open_mmap(tmp_path / "events", mode=mode)
            self.assert_plain_ndarrays(reopened)
            assert np.array_equal(reopened.timestamps, ts)
            reopened.close()

    def test_flush_is_durable(self, tmp_path):
        src, dst, ts, ef, lab = make_events(60)
        writer = EventStore.create_mmap(tmp_path / "events", num_nodes=20,
                                        edge_feature_dim=4, capacity=16)
        writer.append_batch(src, dst, ts, ef, lab)
        writer.flush()
        meta = json.loads((tmp_path / "events" / "meta.json").read_text())
        assert (meta["num_events"], meta["last_timestamp"]) == (60, ts[-1])
        on_disk = np.fromfile(tmp_path / "events" / "edge_features.bin")
        assert np.array_equal(on_disk[:60 * 4].reshape(60, 4), ef)
        writer.close()

        reopened = EventStore.open_mmap(tmp_path / "events")
        for name, column in (("src", src), ("dst", dst), ("timestamps", ts),
                             ("labels", lab), ("edge_features", ef)):
            assert np.array_equal(getattr(reopened, name), column), name
        reopened.close()

    def test_zero_feature_dim_mmap(self, tmp_path):
        store = EventStore.create_mmap(tmp_path / "events", num_nodes=5,
                                       edge_feature_dim=0)
        store.append_batch([0, 1], [1, 2], [0.0, 1.0], np.zeros((2, 0)))
        store.close()
        reader = EventStore.open_mmap(tmp_path / "events")
        assert reader.edge_features.shape == (2, 0)
        reader.close()


class TestHeaderPublish:
    """The binary header is the per-append publish; JSON is geometry + fallback."""

    def make_store(self, tmp_path, capacity=4096):
        return EventStore.create_mmap(tmp_path / "events", num_nodes=20,
                                      edge_feature_dim=4, capacity=capacity)

    def test_non_growing_append_rewrites_no_json(self, tmp_path, monkeypatch):
        """Update cost depends on the update only: no file rewrite per append."""
        calls = {"replace": 0, "dumps": 0}
        real_replace, real_dumps = os.replace, json.dumps

        def counting_replace(*args, **kwargs):
            calls["replace"] += 1
            return real_replace(*args, **kwargs)

        def counting_dumps(*args, **kwargs):
            calls["dumps"] += 1
            return real_dumps(*args, **kwargs)

        src, dst, ts, ef, lab = make_events(200)
        store = self.make_store(tmp_path)
        monkeypatch.setattr(event_store_module.os, "replace", counting_replace)
        monkeypatch.setattr(event_store_module.json, "dumps", counting_dumps)
        for start in range(0, 200, 2):
            store.append_batch(src[start:start + 2], dst[start:start + 2],
                               ts[start:start + 2], ef[start:start + 2],
                               lab[start:start + 2])
        assert calls == {"replace": 0, "dumps": 0}
        monkeypatch.undo()

        reader = EventStore.open_mmap(tmp_path / "events")
        assert reader.num_events == 200
        assert reader.last_timestamp == ts[-1]
        assert np.array_equal(reader.timestamps, ts)
        reader.close()
        store.close()

    def test_odd_version_is_a_loud_error_then_recovers(self, tmp_path, monkeypatch):
        """A writer that died mid-publish must not make readers spin forever."""
        monkeypatch.setattr(event_store_module, "_HEADER_READ_RETRIES", 5)
        src, dst, ts, ef, lab = make_events(30)
        writer = self.make_store(tmp_path)
        writer.append_batch(src[:10], dst[:10], ts[:10], ef[:10], lab[:10])
        reader = EventStore.open_mmap(tmp_path / "events")

        writer._header[0] += 1  # what a crash between the two bumps leaves
        stuck = int(writer._header[0])
        assert stuck % 2 == 1
        with pytest.raises(RuntimeError,
                           match=rf"header\.bin.*stuck at {stuck}.*mid-publish"):
            reader.refresh()
        with pytest.raises(RuntimeError, match="mid-publish"):
            EventStore.open_mmap(tmp_path / "events")
        assert reader.num_events == 10  # the failed refresh changed nothing

        writer._header[0] += 1  # the publish completes after all
        writer.append_batch(src[10:], dst[10:], ts[10:], ef[10:], lab[10:])
        assert reader.refresh().num_events == 30
        assert reader.last_timestamp == ts[-1]
        writer.close()
        reader.close()

    def test_close_drops_the_header_map(self, tmp_path):
        writer = self.make_store(tmp_path)
        reader = EventStore.open_mmap(tmp_path / "events")
        for store in (writer, reader):  # mapped before close ...
            assert isinstance(store._header_map, np.memmap)
            assert np.shares_memory(store._header, store._header_map)
        writer.close()
        reader.close()
        for store in (writer, reader):  # ... and dropped after
            assert store._header is None and store._header_map is None
        shutil.rmtree(tmp_path / "events")
        assert not (tmp_path / "events").exists()

    def test_saved_directory_attaches_from_the_json_snapshot(self, tmp_path):
        src, dst, ts, ef, lab = make_events(40)
        store = self.make_store(tmp_path)
        store.append_batch(src, dst, ts, ef, lab)
        store.save(tmp_path / "saved")
        assert not (tmp_path / "saved" / "header.bin").exists()
        store.close()

        loaded = EventStore.open_mmap(tmp_path / "saved")
        assert (loaded.num_events, loaded.capacity) == (40, 40)
        assert loaded.last_timestamp == ts[-1]
        assert np.array_equal(loaded.dst, dst)
        assert loaded.refresh().num_events == 40
        loaded.close()

    def test_old_layout_directory_attaches_and_upgrades(self, tmp_path):
        """meta.json only (the pre-header layout): readers fall back to it;
        the first ``r+`` attach creates the header and publishes through it."""
        src, dst, ts, ef, lab = make_events(60)
        old = self.make_store(tmp_path, capacity=16)
        old.append_batch(src[:25], dst[:25], ts[:25], ef[:25], lab[:25])
        old.flush()
        capacity = old.capacity
        old.close()
        (tmp_path / "events" / "header.bin").unlink()

        reader = EventStore.open_mmap(tmp_path / "events")
        assert (reader.num_events, reader.capacity) == (25, capacity)
        assert reader.last_timestamp == ts[24]
        assert reader._header is None

        writer = EventStore.open_mmap(tmp_path / "events", mode="r+")
        assert (writer.num_events, writer.capacity) == (25, capacity)
        writer.append_batch(src[25:], dst[25:], ts[25:], ef[25:], lab[25:])
        # The old reader finds the new header on its next refresh.
        assert reader.refresh().num_events == 60
        assert np.array_equal(reader.timestamps, ts)
        assert np.array_equal(reader.edge_features, ef)
        writer.close()
        reader.close()

    def test_save_over_a_live_layout_discards_the_stale_header(self, tmp_path):
        src, dst, ts, ef, lab = make_events(30)
        first = self.make_store(tmp_path)
        first.append_batch(src, dst, ts, ef, lab)
        first.close()

        second = EventStore(20, 4)
        second.append_batch(src[:7], dst[:7], ts[:7], ef[:7], lab[:7])
        second.save(tmp_path / "events")
        loaded = EventStore.open_mmap(tmp_path / "events")
        assert loaded.num_events == 7
        loaded.close()
