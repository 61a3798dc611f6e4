"""The segment adjacency index equals the one-shot merge oracle, always.

However a stream is chunked — through a range view or a selection view —
``CsrIndex.view()`` must be bit-equal to one fold of the index it replaced
(``_csr_oracle.MergeCsrIndex``), ``sample_many`` rows must equal ``sample``
for every strategy, and the arenas must stay within the asserted space bound
at every fold, and within the asserted allocation bound while compacting.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from _csr_oracle import oracle_csr
from repro.graph.neighbor_sampler import _segment_searchsorted, make_sampler
from repro.storage import CsrIndex, EventStore, GraphView

SPACE_BOUND = 4  # touched arena slots per live entry, at every fold
STRATEGIES = ("recent", "uniform", "time_weighted")


@st.composite
def chunked_streams(draw):
    """``(num_nodes, src, dst, timestamps, cuts)``; ``cuts`` are fold points
    (repeats make empty blocks), timestamps are tie-heavy."""
    num_nodes = draw(st.integers(2, 12))
    n = draw(st.integers(0, 120))
    node = st.integers(0, num_nodes - 1)
    src = np.asarray(draw(st.lists(node, min_size=n, max_size=n)), dtype=np.int64)
    dst = np.asarray(draw(st.lists(node, min_size=n, max_size=n)), dtype=np.int64)
    timestamps = np.sort(np.asarray(
        draw(st.lists(st.integers(0, 25), min_size=n, max_size=n)),
        dtype=np.float64))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=12))) + [n]
    return num_nodes, src, dst, timestamps, cuts


def make_store(num_nodes, src, dst, timestamps):
    store = EventStore(num_nodes, 0)
    store.append_batch(src, dst, timestamps, np.zeros((len(src), 0)))
    return store


def assert_views_equal(got, want):
    for got_array, want_array in zip(got, want):
        assert got_array.dtype == want_array.dtype
        assert np.array_equal(got_array, want_array)


def fold_chunks(index, src, dst, timestamps, cuts):
    """Fold ``[0, cuts[-1])`` block by block, checking the space bound."""
    lo = 0
    for hi in cuts:
        index.extend(src[lo:hi], dst[lo:hi], timestamps[lo:hi], first_edge_id=lo)
        assert index.touched_slots <= SPACE_BOUND * index.num_entries
        lo = hi
    return index


def follow_chunks(view, cuts):
    """Advance a range view cut by cut, folding (and checking) at each."""
    for hi in cuts:
        index = view.extend_to(hi).adjacency()
        assert index.touched_slots <= SPACE_BOUND * index.num_entries
    return view


class TestChunkingInvariance:
    @given(chunked_streams())
    @settings(max_examples=150, deadline=None)
    def test_chunked_view_equals_oracle(self, stream):
        num_nodes, src, dst, timestamps, cuts = stream
        view = follow_chunks(
            GraphView(make_store(num_nodes, src, dst, timestamps), 0, 0), cuts)
        assert_views_equal(view.csr_view(),
                           oracle_csr(num_nodes, src, dst, timestamps))

    @given(chunked_streams(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_selection_view_equals_oracle(self, stream, data):
        num_nodes, src, dst, timestamps, cuts = stream
        keep = np.asarray(data.draw(st.lists(
            st.booleans(), min_size=len(src), max_size=len(src))), dtype=bool)
        rows = np.flatnonzero(keep)
        want = oracle_csr(num_nodes, src[rows], dst[rows], timestamps[rows])
        selected = GraphView(make_store(num_nodes, src, dst, timestamps)) \
            .select(rows)
        assert_views_equal(selected.csr_view(), want)
        # The same rows folded block by block, as a growing selection would.
        chunked = fold_chunks(CsrIndex(num_nodes), src[rows], dst[rows],
                              timestamps[rows],
                              [min(cut, len(rows)) for cut in cuts])
        assert_views_equal(chunked.view(), want)

    @given(chunked_streams(), st.sampled_from(STRATEGIES), st.data())
    @settings(max_examples=100, deadline=None)
    def test_sample_many_rows_equal_sample(self, stream, strategy, data):
        num_nodes, src, dst, timestamps, cuts = stream
        store = make_store(num_nodes, src, dst, timestamps)
        view = follow_chunks(GraphView(store, 0, 0), cuts)
        one_shot = GraphView(store)
        queries = data.draw(st.lists(
            st.tuples(st.integers(-1, num_nodes - 1), st.integers(-1, 27)),
            min_size=1, max_size=20))
        nodes = np.asarray([node for node, _ in queries], dtype=np.int64)
        times = np.asarray([time for _, time in queries], dtype=np.float64)

        def sampler(graph):
            return make_sampler(strategy, graph, num_neighbors=3, seed=5,
                                stateless=True)

        batch = sampler(view).sample_many(nodes, times)
        for i, (node, time) in enumerate(queries):
            # Row i is `sample` on this layout and on a one-fold layout alike.
            for reference in (sampler(view), sampler(one_shot)):
                want = reference.sample(node, float(time))
                got = batch.row(i)
                assert np.array_equal(got.mask, want.mask)
                assert np.array_equal(got.neighbors, want.neighbors)
                assert np.array_equal(got.edge_ids, want.edge_ids)
                assert np.array_equal(got.timestamps, want.timestamps)


def star_block(hub, count, first_partner=1):
    """``count`` events partner -> hub with distinct partners."""
    partners = np.arange(first_partner, first_partner + count, dtype=np.int64)
    return partners, np.full(count, hub, dtype=np.int64)


class TestExplicitLayouts:
    def check(self, index, src, dst, timestamps):
        assert_views_equal(index.view(), oracle_csr(index.num_nodes, src, dst,
                                                    timestamps))

    def test_node_crosses_capacity_inside_one_block(self):
        # Node 0: 3 entries (block of 4), then +3 in one fold -> 6 (block of 8).
        src, dst = star_block(0, 6)
        timestamps = np.arange(6, dtype=np.float64)
        index = fold_chunks(CsrIndex(8), src, dst, timestamps, [3, 6])
        assert index.degrees[0] == 6
        self.check(index, src, dst, timestamps)

    def test_hub_receives_more_than_its_capacity_in_one_block(self):
        src, dst = star_block(0, 52, first_partner=1)
        timestamps = np.arange(52, dtype=np.float64)
        index = fold_chunks(CsrIndex(64), src, dst, timestamps, [2, 52])
        assert index.degrees[0] == 52
        self.check(index, src, dst, timestamps)
        lo, hi = index.segments(0)
        assert np.array_equal(index.edge_ids[lo:hi], np.arange(52))

    def test_empty_blocks_touch_nothing(self):
        src = np.asarray([0, 2, 3, 4, 1], dtype=np.int64)
        dst = np.asarray([1, 3, 4, 5, 0], dtype=np.int64)
        timestamps = np.arange(5, dtype=np.float64)
        index = CsrIndex(6)
        for lo, hi in ((0, 0), (0, 1), (1, 1), (1, 5), (5, 5)):
            before = index.touched_slots, index.num_entries
            index.extend(src[lo:hi], dst[lo:hi], timestamps[lo:hi],
                         first_edge_id=lo)
            if lo == hi:
                assert (index.touched_slots, index.num_entries) == before
        self.check(index, src, dst, timestamps)

    def test_compaction_fires_mid_stream(self):
        # Every fold grows 32 segments by one entry: they cross 1, 2, 4, 8...
        # together, and the abandoned blocks soon outnumber the live entries.
        num_nodes, rounds = 64, 12
        src = np.tile(np.arange(0, 32, dtype=np.int64), rounds)
        dst = np.tile(np.arange(32, 64, dtype=np.int64), rounds)
        timestamps = np.repeat(np.arange(rounds, dtype=np.float64), 32)
        index = CsrIndex(num_nodes)
        had_dead_blocks, compactions = False, 0
        for hi in range(32, len(src) + 1, 32):
            index.extend(src[hi - 32:hi], dst[hi - 32:hi],
                         timestamps[hi - 32:hi], first_edge_id=hi - 32)
            assert index.touched_slots <= SPACE_BOUND * index.num_entries
            # Without abandoned blocks the arenas hold exactly one
            # power-of-two block per segment.
            blocks = sum(1 << (int(degree) - 1).bit_length()
                         for degree in index.degrees if degree)
            compactions += had_dead_blocks and index.touched_slots == blocks
            had_dead_blocks = index.touched_slots > blocks
            self.check(index, src[:hi], dst[:hi], timestamps[:hi])
        assert compactions >= 1

    def test_compaction_allocates_at_most_one_arena(self):
        # Pair (0, 1) crosses 2**16 entries: both segments move and the
        # grown arenas keep slack.  Pair (2, 3) then fills that slack one
        # event at a time until the abandoned blocks outnumber the live
        # entries, so the last fold compacts without growing.
        pair_events = 1 << 16
        src = np.concatenate([np.zeros(pair_events + 1, dtype=np.int64),
                              np.full(5, 2, dtype=np.int64)])
        dst = np.concatenate([np.ones(pair_events + 1, dtype=np.int64),
                              np.full(5, 3, dtype=np.int64)])
        timestamps = np.arange(len(src), dtype=np.float64)
        cuts = [pair_events] + list(range(pair_events + 1, len(src)))
        index = fold_chunks(CsrIndex(4), src, dst, timestamps, cuts)
        arena_slots = len(index.neighbors)
        tail_before = index.touched_slots
        tracemalloc.start()
        try:
            index.extend(src[-1:], dst[-1:], timestamps[-1:],
                         first_edge_id=len(src) - 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(index.neighbors) == arena_slots  # no growth in this fold
        assert index.touched_slots < tail_before    # ...but a compaction
        # Beyond the arenas already held: at most one more arena plus the
        # slot temporaries (source slots, target slots, one gathered column
        # and one transient, 8 bytes per live entry each) and a small fixed
        # allowance for the block's own entries.
        one_arena = arena_slots * 8
        slot_temporaries = 4 * 8 * index.num_entries
        assert peak <= one_arena + slot_temporaries + (64 << 10)
        self.check(index, src, dst, timestamps)

    def test_growth_replaces_one_arena_at_a_time(self):
        # Pair (0, 1) fills the arenas exactly (two segments of 2**15); one
        # event on the fresh pair (2, 3) then outgrows them while moving
        # nothing, so the fold's allocations are the three grown arenas.
        pair_events = 1 << 15
        src = np.append(np.zeros(pair_events, dtype=np.int64), 2)
        dst = np.append(np.ones(pair_events, dtype=np.int64), 3)
        timestamps = np.arange(len(src), dtype=np.float64)
        tracemalloc.start()
        try:
            index = fold_chunks(CsrIndex(4), src, dst, timestamps,
                                [pair_events])
            old_bytes = [arena.nbytes for arena in index._arenas]
            assert index.touched_slots == len(index.neighbors)  # full
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            index.extend(src[-1:], dst[-1:], timestamps[-1:],
                         first_edge_id=pair_events)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        new_bytes = [arena.nbytes for arena in index._arenas]
        assert all(new > old for new, old in zip(new_bytes, old_bytes))
        # Each old arena is freed once its replacement is filled, so the
        # peak holds every grown arena but at most one old arena beside
        # them; growing all three before freeing any would hold all three.
        growth = sum(new_bytes) - sum(old_bytes)
        assert peak - before <= growth + max(old_bytes) + (64 << 10)
        self.check(index, src, dst, timestamps)

    def test_fold_after_extend_to_with_zero_new_rows(self):
        src, dst = star_block(0, 10)
        store = make_store(16, src, dst, np.arange(10, dtype=np.float64))
        view = GraphView(store, 0, 0)
        index = view.extend_to(7).adjacency()
        before = [array.copy() for array in index.view()]
        touched = index.touched_slots
        assert view.extend_to(7).adjacency() is index
        assert index.touched_slots == touched
        assert_views_equal(index.view(), before)
        assert_views_equal(view.extend_to(10).csr_view(),
                           oracle_csr(16, src, dst, store.timestamps))

    def test_memory_footprint_counts_touched_slots_not_reservation(self):
        src, dst = star_block(0, 100)
        index = CsrIndex(128)
        index.extend(src, dst, np.arange(100, dtype=np.float64), 0)
        per_node = 2 * 8 * index.num_nodes  # start + length
        assert index.memory_footprint_bytes() \
            == index.touched_slots * 24 + per_node
        assert index.memory_footprint_bytes() \
            <= SPACE_BOUND * index.num_entries * 24 + per_node


class TestSegmentSearch:
    @given(st.lists(st.lists(st.integers(0, 9), max_size=9), min_size=1,
                    max_size=8),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_searchsorted_per_segment(self, segments, data):
        segments = [np.sort(np.asarray(s, dtype=np.float64)) for s in segments]
        lengths = np.asarray([len(s) for s in segments], dtype=np.int64)
        hi = np.cumsum(lengths)
        lo = hi - lengths
        times = np.concatenate(segments) if hi[-1] else np.empty(0)
        targets = np.asarray(data.draw(st.lists(
            st.integers(-1, 10), min_size=len(segments),
            max_size=len(segments))), dtype=np.float64)
        want = [lo[i] + np.searchsorted(segments[i], targets[i], side="left")
                for i in range(len(segments))]
        got = _segment_searchsorted(times, lo, hi, targets)
        assert np.array_equal(got, want)
        assert np.array_equal(lo, hi - lengths)  # inputs untouched
