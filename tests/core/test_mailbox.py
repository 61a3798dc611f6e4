"""Tests for the fixed-slot FIFO mailbox."""

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
