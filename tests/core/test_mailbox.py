"""Tests for the fixed-slot FIFO mailbox."""

import multiprocessing as mp
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.core.mailbox import Mailbox


class TestConstruction:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            Mailbox(0, 4, 8)
        with pytest.raises(ValueError):
            Mailbox(4, 0, 8)
        with pytest.raises(ValueError):
            Mailbox(4, 4, 0)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            Mailbox(4, 4, 8, update_policy="lifo")

    def test_starts_empty(self):
        box = Mailbox(5, 3, 2)
        assert box.occupancy().sum() == 0
        mails, times, valid = box.read(np.arange(5))
        assert mails.shape == (5, 3, 2)
        assert not valid.any()


class TestDelivery:
    def test_single_delivery(self):
        box = Mailbox(4, 3, 2)
        box.deliver(np.array([1]), np.array([[1.0, 2.0]]), np.array([5.0]))
        mails, times, valid = box.read(np.array([1]))
        assert valid[0, 0]
        np.testing.assert_allclose(mails[0, 0], [1.0, 2.0])
        assert times[0, 0] == 5.0
        assert box.occupancy(np.array([1]))[0] == 1

    def test_vectorised_delivery_to_distinct_nodes(self):
        box = Mailbox(6, 2, 3)
        nodes = np.array([0, 2, 4])
        mails = np.arange(9.0).reshape(3, 3)
        box.deliver(nodes, mails, np.array([1.0, 2.0, 3.0]))
        read_mails, _, valid = box.read(nodes)
        assert valid[:, 0].all()
        np.testing.assert_allclose(read_mails[:, 0], mails)

    def test_fifo_eviction_keeps_newest(self):
        box = Mailbox(2, 3, 1)
        for t in range(1, 6):
            box.deliver(np.array([0]), np.array([[float(t)]]), np.array([float(t)]))
        mails, times, valid = box.read(np.array([0]))
        assert valid.all()
        assert set(times[0].tolist()) == {3.0, 4.0, 5.0}

    def test_read_sorted_by_time(self):
        box = Mailbox(2, 4, 1)
        for t in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]:
            box.deliver(np.array([0]), np.array([[t]]), np.array([t]))
        _, times, valid = box.read(np.array([0]), sort_by_time=True)
        assert np.all(np.diff(times[0][valid[0]]) >= 0)

    def test_read_unsorted_preserves_slots(self):
        box = Mailbox(2, 2, 1)
        box.deliver(np.array([0]), np.array([[1.0]]), np.array([1.0]))
        box.deliver(np.array([0]), np.array([[2.0]]), np.array([2.0]))
        box.deliver(np.array([0]), np.array([[3.0]]), np.array([3.0]))  # overwrites slot 0
        _, times, _ = box.read(np.array([0]), sort_by_time=False)
        np.testing.assert_allclose(times[0], [3.0, 2.0])

    def test_out_of_order_arrival_is_sorted_on_read(self):
        """The robustness property of §3.6: mails sorted by timestamp at readout."""
        box = Mailbox(1, 4, 1)
        for t in [5.0, 1.0, 3.0]:
            box.deliver(np.array([0]), np.array([[t]]), np.array([t]))
        mails, times, valid = box.read(np.array([0]))
        np.testing.assert_allclose(times[0][valid[0]], [1.0, 3.0, 5.0])
        np.testing.assert_allclose(mails[0][valid[0], 0], [1.0, 3.0, 5.0])

    @pytest.mark.parametrize("sort_by_time", [True, False])
    def test_read_returns_private_copies(self, sort_by_time):
        """Later deliveries (a worker's, on shared state) cannot reach a
        stack that was already read."""
        box = Mailbox(3, 2, 1)
        box.deliver(np.array([0, 2]), np.array([[2.0], [1.0]]), np.array([2.0, 1.0]))
        result = box.read(np.array([2, 0, 2]), sort_by_time=sort_by_time)
        for array, state in zip(result, (box.mails, box.mail_times, box.valid)):
            assert not np.shares_memory(array, state)
        before = [array.copy() for array in result]
        box.deliver(np.array([0, 2]), np.array([[9.0], [9.0]]), np.array([9.0, 9.0]))
        for array, kept in zip(result, before):
            assert np.array_equal(array, kept)

    def test_duplicate_nodes_in_one_call(self):
        box = Mailbox(2, 4, 1)
        box.deliver(np.array([1, 1]), np.array([[1.0], [2.0]]), np.array([1.0, 2.0]))
        assert box.occupancy(np.array([1]))[0] == 2

    def test_shape_validation(self):
        box = Mailbox(3, 2, 2)
        with pytest.raises(ValueError):
            box.deliver(np.array([0]), np.array([[1.0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            box.deliver(np.array([0]), np.array([[1.0, 2.0]]), np.array([1.0, 2.0]))
        with pytest.raises(IndexError):
            box.deliver(np.array([5]), np.array([[1.0, 2.0]]), np.array([1.0]))

    def test_empty_delivery_is_noop(self):
        box = Mailbox(3, 2, 2)
        box.deliver(np.array([], dtype=np.int64), np.zeros((0, 2)), np.array([]))
        assert box.occupancy().sum() == 0

    def test_read_out_of_range(self):
        with pytest.raises(IndexError):
            Mailbox(3, 2, 2).read(np.array([3]))


class TestPolicies:
    def test_newest_overwrite_keeps_one_slot(self):
        box = Mailbox(1, 4, 1, update_policy="newest_overwrite")
        for t in [1.0, 2.0, 3.0]:
            box.deliver(np.array([0]), np.array([[t]]), np.array([t]))
        assert box.occupancy(np.array([0]))[0] == 1
        mails, _, valid = box.read(np.array([0]))
        np.testing.assert_allclose(mails[0][valid[0]], [[3.0]])

    def test_reservoir_fills_then_samples(self):
        box = Mailbox(1, 3, 1, update_policy="reservoir", seed=0)
        for t in range(1, 50):
            box.deliver(np.array([0]), np.array([[float(t)]]), np.array([float(t)]))
        assert box.occupancy(np.array([0]))[0] == 3
        _, times, valid = box.read(np.array([0]))
        kept = times[0][valid[0]]
        # Reservoir sampling keeps some older mails with high probability.
        assert kept.min() < 47.0

    def test_reservoir_is_independent_of_batching(self):
        """Slot draws are a pure function of (seed, node, delivery index):
        one batch with duplicates == event by event == any chunking."""
        rng = np.random.default_rng(0)
        nodes = rng.integers(0, 5, 300)
        times = np.arange(300, dtype=np.float64)
        boxes = [Mailbox(5, 3, 1, update_policy="reservoir", seed=4)
                 for _ in range(3)]
        boxes[0].deliver(nodes, times[:, None], times)
        for i in range(300):
            boxes[1].deliver(nodes[i:i + 1], times[i:i + 1, None], times[i:i + 1])
        for start in range(0, 300, 7):
            boxes[2].deliver(nodes[start:start + 7], times[start:start + 7, None],
                             times[start:start + 7])
        for box in boxes[1:]:
            for key, array in boxes[0].snapshot().items():
                assert np.array_equal(box.snapshot()[key], array)
        other = Mailbox(5, 3, 1, update_policy="reservoir", seed=5)
        other.deliver(nodes, times[:, None], times)
        assert not np.array_equal(other.mail_times, boxes[0].mail_times)

    def test_unseeded_reservoir_draws_its_seed_once(self):
        box = Mailbox(2, 2, 1, update_policy="reservoir")
        assert isinstance(box.seed, int)
        twin = Mailbox(2, 2, 1, update_policy="reservoir", seed=box.seed)
        for t in range(20):
            for target in (box, twin):
                target.deliver(np.array([0, 1]), np.full((2, 1), float(t)),
                               np.full(2, float(t)))
        assert np.array_equal(box.mail_times, twin.mail_times)


class TestUtilities:
    def test_reset(self):
        box = Mailbox(3, 2, 2)
        box.deliver(np.array([0]), np.array([[1.0, 1.0]]), np.array([1.0]))
        box.reset()
        assert box.occupancy().sum() == 0
        assert box._delivered.sum() == 0

    def test_memory_footprint_scales_with_nodes_not_edges(self):
        small = Mailbox(100, 10, 8).memory_footprint_bytes()
        large = Mailbox(200, 10, 8).memory_footprint_bytes()
        assert large == pytest.approx(2 * small, rel=0.01)


def _random_deliveries(rng, num_nodes, mail_dim, rounds=6, batch=12):
    for _ in range(rounds):
        nodes = rng.integers(0, num_nodes, batch)
        mails = rng.normal(size=(batch, mail_dim))
        times = np.sort(rng.uniform(0.0, 100.0, batch))
        yield nodes, mails, times


def _state(box):
    return (box.mails, box.mail_times, box.valid, box._next_slot,
            box._delivered)


def _assert_same_state(got, want):
    for got_array, want_array in zip(_state(got), _state(want)):
        assert np.array_equal(got_array, want_array)


def _segment_paths(handle):
    return [Path("/dev/shm") / name
            for name, _, _ in handle.bundle.segments.values()]


def _deliver_in_child(handle, node, mail_dim):
    attached = Mailbox.attach(handle)
    try:
        attached.deliver(np.asarray([node]), np.full((1, mail_dim), 7.0),
                         np.asarray([1.0]))
    finally:
        attached.release_shared()


class TestSharedMemory:
    """The one mailbox every serving worker writes into, through shared pages."""

    NODES, SLOTS, DIM = 40, 3, 5

    def make(self, **kwargs):
        return Mailbox(self.NODES, self.SLOTS, self.DIM, **kwargs)

    @pytest.mark.parametrize("policy", ["fifo", "newest_overwrite", "reservoir"])
    def test_delivery_in_shared_memory_equals_private(self, policy):
        rng = np.random.default_rng(0)
        private = self.make(update_policy=policy, seed=9)
        shared = self.make(update_policy=policy, seed=9)
        deliveries = list(_random_deliveries(rng, self.NODES, self.DIM))
        for nodes, mails, times in deliveries[:3]:
            private.deliver(nodes, mails, times)
            shared.deliver(nodes, mails, times)
        shared.share_memory()
        try:
            _assert_same_state(shared, private)
            for nodes, mails, times in deliveries[3:]:
                private.deliver(nodes, mails, times)
                shared.deliver(nodes, mails, times)
            _assert_same_state(shared, private)
        finally:
            shared.release_shared()
        _assert_same_state(shared, private)

    def test_double_share_raises(self):
        box = self.make()
        box.share_memory()
        try:
            with pytest.raises(RuntimeError, match="already"):
                box.share_memory()
        finally:
            box.release_shared()

    def test_release_unlinks_segments_and_keeps_state(self):
        box = self.make()
        box.deliver(np.array([3]), np.ones((1, self.DIM)), np.array([2.0]))
        handle = box.share_memory()
        assert box.is_shared
        paths = _segment_paths(handle)
        assert len(paths) == 5 and all(path.exists() for path in paths)
        box.release_shared()
        assert not box.is_shared
        assert not any(path.exists() for path in paths)
        assert all(array.base is None for array in _state(box))
        assert box.occupancy(np.array([3]))[0] == 1

    def test_release_unlinks_when_a_segment_cannot_unmap(self, monkeypatch):
        """Some NumPy versions make ``close`` raise ``BufferError`` while a
        view is alive; the owner's release still unlinks every segment and
        keeps the state in private memory."""
        from multiprocessing import shared_memory
        box = self.make()
        box.deliver(np.array([3]), np.ones((1, self.DIM)), np.array([2.0]))
        handle = box.share_memory()
        pinned_name, pinned = handle.bundle.segments["mails"][0], []
        real_close = shared_memory.SharedMemory.close

        def close(segment):
            if segment.name == pinned_name:
                pinned.append(segment)
                raise BufferError("cannot close: exported pointers exist")
            real_close(segment)

        monkeypatch.setattr(shared_memory.SharedMemory, "close", close)
        box.release_shared()
        assert pinned and not box.is_shared
        assert not any(path.exists() for path in _segment_paths(handle))
        assert all(array.base is None for array in _state(box))
        assert box.occupancy(np.array([3]))[0] == 1
        monkeypatch.undo()
        pinned[0].close()

    def test_release_of_private_mailbox_is_noop(self):
        box = self.make()
        before = [array.copy() for array in _state(box)]
        box.release_shared()
        assert not box.is_shared
        for got, want in zip(_state(box), before):
            assert np.array_equal(got, want)

    def test_attached_mailbox_sees_owner_state_and_writes(self):
        rng = np.random.default_rng(1)
        owner = self.make()
        for nodes, mails, times in _random_deliveries(rng, self.NODES, self.DIM):
            owner.deliver(nodes, mails, times)
        handle = owner.share_memory()
        try:
            attached = Mailbox.attach(handle)
            try:
                _assert_same_state(attached, owner)
                owner.deliver(np.array([0, 1]), np.full((2, self.DIM), 3.0),
                              np.array([200.0, 201.0]))
                _assert_same_state(attached, owner)
            finally:
                attached.release_shared()
        finally:
            owner.release_shared()

    def test_owner_sees_attached_writes(self):
        owner = self.make()
        handle = owner.share_memory()
        try:
            attached = Mailbox.attach(handle)
            attached.deliver(np.array([5]), np.full((1, self.DIM), 4.0),
                             np.array([1.5]))
            attached.release_shared()
            mails, times, valid = owner.read(np.array([5]))
            assert valid[0].sum() == 1
            assert np.all(mails[0, 0] == 4.0) and times[0, 0] == 1.5
        finally:
            owner.release_shared()

    def test_attached_release_leaves_segments_to_owner(self):
        owner = self.make()
        handle = owner.share_memory()
        try:
            Mailbox.attach(handle).release_shared()
            assert owner.is_shared
            assert all(path.exists() for path in _segment_paths(handle))
            # A second attach after the first detached still maps live pages.
            again = Mailbox.attach(handle)
            again.deliver(np.array([2]), np.ones((1, self.DIM)), np.array([1.0]))
            again.release_shared()
            assert owner.occupancy(np.array([2]))[0] == 1
        finally:
            owner.release_shared()

    def test_handle_survives_pickling(self):
        owner = self.make(update_policy="newest_overwrite")
        handle = owner.share_memory()
        try:
            copy = pickle.loads(pickle.dumps(handle))
            assert copy == handle
            attached = Mailbox.attach(copy)
            assert attached.update_policy == "newest_overwrite"
            assert (attached.num_nodes, attached.num_slots, attached.mail_dim) \
                == (self.NODES, self.SLOTS, self.DIM)
            attached.release_shared()
        finally:
            owner.release_shared()

    def test_reset_clears_shared_state_in_place(self):
        owner = self.make()
        owner.deliver(np.arange(4), np.ones((4, self.DIM)), np.arange(4.0))
        handle = owner.share_memory()
        try:
            attached = Mailbox.attach(handle)
            owner.reset()
            assert owner.is_shared
            assert attached.occupancy().sum() == 0
            assert attached._next_slot.sum() == 0
            attached.release_shared()
        finally:
            owner.release_shared()

    def test_gather_many_through_attached_matches_owner(self):
        rng = np.random.default_rng(2)
        owner = self.make()
        for nodes, mails, times in _random_deliveries(rng, self.NODES, self.DIM):
            owner.deliver(nodes, mails, times)
        groups = (rng.integers(0, self.NODES, 8), rng.integers(0, self.NODES, 6))
        want = owner.gather_many(*groups)
        handle = owner.share_memory()
        try:
            attached = Mailbox.attach(handle)
            got = attached.gather_many(*groups)
            attached.release_shared()
        finally:
            owner.release_shared()
        for name in ("nodes", "inverse", "mails", "times", "valid"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_child_process_delivery_is_visible_to_owner(self):
        owner = self.make()
        handle = owner.share_memory()
        try:
            proc = mp.get_context("fork").Process(
                target=_deliver_in_child, args=(handle, 11, self.DIM))
            proc.start()
            proc.join(timeout=30)
            assert proc.exitcode == 0
            mails, _, valid = owner.read(np.asarray([11]))
            assert valid[0].sum() == 1
            assert np.allclose(mails[0][valid[0]][0], 7.0)
        finally:
            owner.release_shared()
        assert owner.occupancy(np.asarray([11]))[0] == 1
