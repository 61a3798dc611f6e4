"""Unit tests for the incremental views and the ViewRegistry protocol."""

import numpy as np
import pytest

from repro.analytics import (
    DegreeVelocity,
    StaleStoreError,
    TopKView,
    ViewRegistry,
    WindowAggregator,
)


def fold_events(view, events):
    """events: list of (src, dst, t, label) folded as one block."""
    src, dst, ts, lab = (np.asarray(col) for col in zip(*events))
    view.fold(src, dst, ts, lab)


class TestWindowAggregator:
    def test_validation(self):
        with pytest.raises(ValueError):
            WindowAggregator(0, 1.0)
        with pytest.raises(ValueError):
            WindowAggregator(5, 0.0)
        with pytest.raises(ValueError):
            WindowAggregator(5, 1.0, num_buckets=0)

    def test_counts_both_endpoints(self):
        win = WindowAggregator(4, window=10.0, num_buckets=5)
        fold_events(win, [(0, 1, 0.0, 1.0), (1, 2, 1.0, 0.0)])
        assert win.count([0, 1, 2, 3]).tolist() == [1.0, 2.0, 1.0, 0.0]
        assert win.label_sum([0, 1, 2, 3]).tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_rate_is_label_mean_and_zero_when_idle(self):
        win = WindowAggregator(3, window=10.0, num_buckets=5)
        fold_events(win, [(0, 1, 0.0, 1.0), (0, 1, 1.0, 0.0)])
        assert win.rate([0]).tolist() == [0.5]
        assert win.rate([2]).tolist() == [0.0]  # never seen: no NaN

    def test_watermark_advance_expires_old_buckets(self):
        # window 10, 5 buckets of width 2: events at t=0 expire once the
        # watermark passes t >= 10.
        win = WindowAggregator(2, window=10.0, num_buckets=5)
        fold_events(win, [(0, 1, 0.0, 0.0)])
        assert win.count([0]).tolist() == [1.0]
        win.advance_watermark(9.9)           # still inside the window
        assert win.count([0]).tolist() == [1.0]
        win.advance_watermark(10.0)          # bucket 0 falls out
        assert win.count([0]).tolist() == [0.0]
        assert win.label_sums.sum() == 0.0

    def test_huge_watermark_jump_clears_everything_once(self):
        win = WindowAggregator(2, window=10.0, num_buckets=5)
        fold_events(win, [(0, 1, 0.0, 1.0), (0, 1, 5.0, 1.0)])
        win.advance_watermark(1e9)  # crosses ~1e8 buckets; clears at most 5
        assert win.counts.sum() == 0.0
        assert win.count([0, 1]).tolist() == [0.0, 0.0]

    def test_watermark_never_moves_backwards(self):
        win = WindowAggregator(2, window=10.0, num_buckets=5)
        fold_events(win, [(0, 1, 8.0, 0.0)])
        watermark = win.watermark_bucket
        fold_events(win, [(0, 1, 3.0, 0.0)])  # late, but within the window
        assert win.watermark_bucket == watermark
        assert win.watermark_time == 8.0

    def test_late_event_within_horizon_folds_normally(self):
        win = WindowAggregator(2, window=10.0, num_buckets=5)
        fold_events(win, [(0, 1, 8.0, 0.0)])
        fold_events(win, [(0, 1, 3.0, 1.0)])  # bucket 1: still live
        assert win.count([0]).tolist() == [2.0]
        assert win.label_sum([0]).tolist() == [1.0]
        assert win.late_dropped == 0

    def test_late_event_beyond_horizon_is_dropped_and_counted(self):
        win = WindowAggregator(2, window=10.0, num_buckets=5)
        fold_events(win, [(0, 1, 20.0, 0.0)])   # watermark bucket 10
        fold_events(win, [(0, 1, 2.0, 1.0)])    # bucket 1 < horizon 6: dropped
        assert win.count([0]).tolist() == [1.0]
        assert win.label_sum([0]).tolist() == [0.0]
        assert win.late_dropped == 1
        assert win.num_folded == 2  # dropped events still count as folded

    def test_empty_fold_is_noop(self):
        win = WindowAggregator(2, window=10.0, num_buckets=5)
        win.fold(np.array([]), np.array([]), np.array([]), np.array([]))
        assert win.num_folded == 0
        assert win.watermark_bucket is None

    def test_memory_footprint_independent_of_events(self):
        win = WindowAggregator(50, window=10.0, num_buckets=8)
        before = win.memory_footprint_bytes()
        rng = np.random.default_rng(0)
        ts = np.sort(rng.uniform(0, 100.0, 500))
        win.fold(rng.integers(0, 50, 500), rng.integers(0, 50, 500),
                 ts, np.zeros(500))
        assert win.memory_footprint_bytes() == before


class TestDegreeVelocity:
    def test_validation(self):
        with pytest.raises(ValueError):
            DegreeVelocity(0)

    def test_degrees_count_direction(self):
        vel = DegreeVelocity(3)
        vel.fold(np.array([0, 0]), np.array([1, 2]), np.array([0.0, 1.0]))
        assert vel.out_degree.tolist() == [2, 0, 0]
        assert vel.in_degree.tolist() == [0, 1, 1]
        assert vel.degree([0, 1, 2]).tolist() == [2, 1, 1]

    def test_interarrival_statistics_by_hand(self):
        # Node 0 appears (as either endpoint) at t = 0, 1, 3:
        # deltas 1 and 2, mean 1.5, last 2.
        vel = DegreeVelocity(3)
        vel.fold(np.array([0, 1, 0]), np.array([1, 0, 2]),
                 np.array([0.0, 1.0, 3.0]))
        assert vel.mean_interarrival([0]).tolist() == [1.5]
        assert vel.last_delta[0] == 2.0
        assert vel.burst_score([0]).tolist() == [0.75]  # 1.5 / 2.0

    def test_single_appearance_scores_zero(self):
        vel = DegreeVelocity(4)
        vel.fold(np.array([0]), np.array([1]), np.array([5.0]))
        assert vel.mean_interarrival([0, 2]).tolist() == [0.0, 0.0]
        assert vel.burst_score([0, 2]).tolist() == [0.0, 0.0]

    def test_zero_last_delta_saturates(self):
        # Node 0 at t = 0, 5, 5: mean 2.5, last delta 0 -> burst saturates.
        vel = DegreeVelocity(3)
        vel.fold(np.array([0, 0, 0]), np.array([1, 1, 1]),
                 np.array([0.0, 5.0, 5.0]))
        assert vel.burst_score([0]).tolist() == [np.inf]

    def test_negative_last_delta_scores_undefined(self):
        # Occurrence times of a late stream, folded in arrival order: node 0
        # at t = 0, 5, 3 gives deltas 5 and -2 (mean 1.5, last -2).  The
        # latest arrival happened before the one ahead of it: no burst.
        vel = DegreeVelocity(4)
        vel.fold(np.array([0, 0, 0]), np.array([1, 2, 3]),
                 np.array([0.0, 5.0, 3.0]))
        assert vel.mean_interarrival([0]).tolist() == [1.5]
        assert vel.last_delta[0] == -2.0
        assert vel.burst_score([0, 1]).tolist() == [0.0, 0.0]

    def test_all_simultaneous_appearances_score_on_trend(self):
        vel = DegreeVelocity(3)
        vel.fold(np.array([0, 0]), np.array([1, 1]), np.array([2.0, 2.0]))
        assert vel.burst_score([0]).tolist() == [1.0]  # mean 0 / last 0

    def test_self_loop_counts_twice(self):
        vel = DegreeVelocity(2)
        vel.fold(np.array([0]), np.array([0]), np.array([1.0]))
        assert vel.degree([0]).tolist() == [2]
        # Two occurrences at the same instant: one delta of zero.
        assert vel.delta_count[0] == 1
        assert vel.last_delta[0] == 0.0


class TestTopKView:
    def test_validation(self):
        with pytest.raises(ValueError):
            TopKView(0)
        with pytest.raises(ValueError):
            TopKView(3, compact_factor=1)
        view = TopKView(3)
        with pytest.raises(ValueError):
            view.update(np.array([1, 2]), np.array([0.5]))

    def test_top_sorts_by_score_then_node(self):
        view = TopKView(3)
        view.update(np.array([5, 2, 9]), np.array([0.5, 0.9, 0.5]))
        assert view.top() == [(2, 0.9), (5, 0.5), (9, 0.5)]

    def test_latest_score_wins(self):
        view = TopKView(2)
        view.update(np.array([1, 2]), np.array([0.9, 0.1]))
        view.update(np.array([1]), np.array([0.05]))  # 1 drops below 2
        assert view.top() == [(2, 0.1), (1, 0.05)]
        assert view.score_of(1) == 0.05

    def test_queries_do_not_perturb_state(self):
        view = TopKView(2)
        view.update(np.array([1, 2, 3]), np.array([0.3, 0.2, 0.1]))
        first = view.top()
        assert view.top() == first == [(1, 0.3), (2, 0.2)]

    def test_lazy_eviction_shrinks_heap_on_query(self):
        view = TopKView(2, compact_factor=1000)  # effectively no compaction
        for _ in range(10):
            view.update(np.array([7]), np.array([0.5]))
        assert view.heap_size == 10  # nine stale entries linger
        assert view.top() == [(7, 0.5)]
        assert view.heap_size == 1  # the stale ones met on the way out died

    def test_compaction_bounds_heap(self):
        view = TopKView(2, compact_factor=4)
        for step in range(200):
            view.update(np.array([0, 1]), np.array([0.1, 0.2]) + step)
        assert view.num_compactions > 0
        assert view.heap_size <= view.compact_factor * max(view.num_tracked,
                                                           view.k)
        assert view.top() == [(1, 199.2), (0, 199.1)]

    def test_top_with_fewer_tracked_than_k(self):
        view = TopKView(5)
        view.update(np.array([3]), np.array([1.0]))
        assert view.top() == [(3, 1.0)]
        assert view.top(2) == [(3, 1.0)]
        assert len(view) == view.num_tracked == 1

    def test_duplicate_nodes_in_one_update_resolve_left_to_right(self):
        view = TopKView(2)
        view.update(np.array([4, 4]), np.array([0.9, 0.2]))
        assert view.top() == [(4, 0.2)]


class _ArrayStore:
    """In-memory store-like object (the duck type ViewRegistry folds from)."""

    def __init__(self, src, dst, timestamps, labels, num_nodes):
        self._data = (np.asarray(src, dtype=np.int64),
                      np.asarray(dst, dtype=np.int64),
                      np.asarray(timestamps, dtype=np.float64),
                      np.asarray(labels, dtype=np.float64))
        self.num_nodes = num_nodes
        self.visible = len(self._data[0])  # rows "published" so far

    @property
    def num_events(self):
        return self.visible

    @property
    def src(self):
        return self._data[0][:self.visible]

    @property
    def dst(self):
        return self._data[1][:self.visible]

    @property
    def timestamps(self):
        return self._data[2][:self.visible]

    @property
    def labels(self):
        return self._data[3][:self.visible]


def make_store(n=40, num_nodes=8, seed=3):
    rng = np.random.default_rng(seed)
    return _ArrayStore(rng.integers(0, num_nodes, n),
                       rng.integers(0, num_nodes, n),
                       np.sort(rng.uniform(0.0, 30.0, n)),
                       rng.integers(0, 2, n), num_nodes)


class _CountingView:
    def __init__(self):
        self.rows = []

    def fold(self, src, dst, timestamps, labels, first_row=0):
        self.rows.extend(range(first_row, first_row + len(src)))


class TestViewRegistry:
    def test_register_validates(self):
        reg = ViewRegistry(make_store())
        reg.register("a", _CountingView())
        with pytest.raises(ValueError, match="already registered"):
            reg.register("a", _CountingView())
        with pytest.raises(TypeError, match="fold"):
            reg.register("b", object())

    def test_register_after_advance_refused(self):
        reg = ViewRegistry(make_store())
        reg.register("a", _CountingView())
        reg.advance(10)
        with pytest.raises(RuntimeError, match="already published"):
            reg.register("late", _CountingView())

    def test_each_row_folds_exactly_once(self):
        store = make_store(n=40)
        reg = ViewRegistry(store)
        view = _CountingView()
        reg.register("count", view)
        reg.advance(10)
        reg.advance(25)
        reg.advance(25)   # idempotent no-op
        reg.advance(7)    # backwards: no-op, never re-folds
        reg.advance()     # follow the store to its end
        assert reg.folded == 40
        assert view.rows == list(range(40))

    def test_advance_past_published_prefix_raises(self):
        store = make_store(n=40)
        reg = ViewRegistry(store)
        reg.register("count", view := _CountingView())
        with pytest.raises(StaleStoreError, match="only 40 rows are visible"):
            reg.advance(41)
        assert reg.folded == 0 and view.rows == []  # nothing partially folded

    def test_advance_refuses_silently_clamped_columns(self):
        # A store whose num_events lies ahead of its columns — the NumPy
        # silent-clamp hazard advance() must turn into a loud error.
        store = make_store(n=40)
        store.visible = 50  # claims rows the columns do not have
        reg = ViewRegistry(store)
        reg.register("count", _CountingView())
        with pytest.raises(StaleStoreError, match="clamped"):
            reg.advance(45)

    def test_registry_getitem_and_views(self):
        reg = ViewRegistry(make_store())
        win = WindowAggregator(8, window=10.0)
        reg.register("window", win)
        assert reg["window"] is win
        assert "window" in reg and "other" not in reg
        assert reg.views == {"window": win}

    def test_memory_footprint_sums_views(self):
        reg = ViewRegistry(make_store())
        win = WindowAggregator(8, window=10.0)
        vel = DegreeVelocity(8)
        reg.register("w", win).register("v", vel)
        assert reg.memory_footprint_bytes() == (win.memory_footprint_bytes()
                                                + vel.memory_footprint_bytes())
