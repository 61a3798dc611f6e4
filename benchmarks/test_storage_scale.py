"""Storage subsystem at scale: 10M-event append + slice throughput, peak RSS.

The tentpole claim of the storage split is that a 1M-node / 10M-event stream
builds through :class:`~repro.storage.EventStore` / `GraphView` with *no
per-event Python objects* — appends are chunked array copies into an
mmap-backed columnar store, and the only resident index is one shard's
adjacency (``shard_csr_mb``: the bytes it touched, recorded with their ratio
to a compact CSR of the same entries).
This benchmark runs that workload in a fresh subprocess (so its ``VmHWM`` is
the workload's own peak, not the test session's), asserts the peak RSS stays
under a CI-enforced ceiling, and records append/slice/query throughput in
``BENCH_storage.json`` under ``benchmarks/out/`` (see ``make bench-storage``).

Environment knobs::

    STORAGE_BENCH_EVENTS   stream length        (default 10_000_000)
    STORAGE_BENCH_NODES    node-id space        (default 1_000_000)
    STORAGE_BENCH_RSS_MB   peak-RSS ceiling     (default 2048)
"""

from __future__ import annotations

import multiprocessing as mp
import os
import resource
import tempfile
import time

import numpy as np

from .harness import OUT_DIR, write_bench_record

NUM_EVENTS = int(os.environ.get("STORAGE_BENCH_EVENTS", 10_000_000))
NUM_NODES = int(os.environ.get("STORAGE_BENCH_NODES", 1_000_000))
RSS_CEILING_MB = float(os.environ.get("STORAGE_BENCH_RSS_MB", 2048))
FEATURE_DIM = 4
CHUNK = 100_000
NUM_SHARDS = 8
NUM_SLICE_QUERIES = 2_000
NUM_NODE_QUERIES = 2_000

_RESULT_PATH = OUT_DIR / "BENCH_storage.json"


def _peak_rss_mb() -> float:
    """This process's own peak RSS.

    ``VmHWM`` belongs to the address space created by the spawn's exec;
    ``ru_maxrss`` also carries over the parent's RSS at fork time, so inside
    a tier-1 session it reports pytest's footprint (~1.6 GB), not the
    workload's.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _workload(store_dir: str, result_queue) -> None:
    """Runs in a fresh subprocess; reports its own peak RSS."""
    from repro.storage import EventStore, GraphView, ShardMap

    store = EventStore.create_mmap(store_dir, num_nodes=NUM_NODES,
                                   edge_feature_dim=FEATURE_DIM,
                                   capacity=NUM_EVENTS)
    shard_map = ShardMap(NUM_NODES, num_shards=NUM_SHARDS)
    # A sharded serving worker's resident state: one shard's adjacency over
    # the shared store; the event columns themselves stay on disk.
    shard_view = GraphView(store, 0, 0).for_shard(shard_map, shard=0)

    # ---- chunked append (no per-event Python objects) ------------------ #
    rng = np.random.default_rng(0)
    t = 0.0
    append_begin = time.perf_counter()
    for start in range(0, NUM_EVENTS, CHUNK):
        size = min(CHUNK, NUM_EVENTS - start)
        timestamps = np.sort(rng.uniform(t, t + 100.0, size))
        t = float(timestamps[-1])
        store.append_batch(
            rng.integers(0, NUM_NODES, size),
            rng.integers(0, NUM_NODES, size),
            timestamps,
            rng.normal(size=(size, FEATURE_DIM)),
        )
        # Fold the chunk into the shard index as a serving worker would.
        shard_view.extend_to(store.num_events).adjacency()
    append_elapsed = time.perf_counter() - append_begin
    assert store.num_events == NUM_EVENTS

    # ---- zero-copy time slicing ---------------------------------------- #
    full_view = GraphView(store)
    last_time = store.last_timestamp
    slice_starts = rng.uniform(0.0, last_time * 0.9, NUM_SLICE_QUERIES)
    slice_begin = time.perf_counter()
    sliced_events = 0
    for start_time in slice_starts:
        window = full_view.slice_time(start_time, start_time + last_time * 0.01)
        sliced_events += window.num_events
    slice_elapsed = time.perf_counter() - slice_begin

    # ---- per-node temporal queries against the shard CSR --------------- #
    shard_nodes = shard_map.nodes_of(0)
    query_nodes = rng.choice(shard_nodes, NUM_NODE_QUERIES)
    query_times = rng.uniform(0.0, last_time, NUM_NODE_QUERIES)
    query_begin = time.perf_counter()
    touched = 0
    for node, before in zip(query_nodes, query_times):
        neighbors, _, _ = shard_view.node_events(int(node), before=float(before))
        touched += len(neighbors)
    query_elapsed = time.perf_counter() - query_begin

    peak_rss_mb = _peak_rss_mb()
    shard_index = shard_view.adjacency()
    # What the same entries cost as a compact CSR: three 8-byte columns plus
    # indptr — the floor the index's slack and per-node arrays are paid over.
    compact_bytes = shard_index.num_entries * 24 + (NUM_NODES + 1) * 8
    index_bytes = shard_index.memory_footprint_bytes()
    result_queue.put({
        "append_events_per_sec": NUM_EVENTS / append_elapsed,
        "append_elapsed_s": append_elapsed,
        "slice_ops_per_sec": NUM_SLICE_QUERIES / slice_elapsed,
        "sliced_events_total": int(sliced_events),
        "node_queries_per_sec": NUM_NODE_QUERIES / query_elapsed,
        "neighbors_touched": int(touched),
        "peak_rss_mb": peak_rss_mb,
        "shard_csr_mb": index_bytes / 2**20,
        "shard_csr_over_compact": index_bytes / compact_bytes,
        "store_disk_mb": store.memory_footprint_bytes() / 2**20,
    })


def test_storage_scale():
    # spawn: the child starts from a clean interpreter, so its peak RSS is
    # the storage workload's alone, not the inherited test-session footprint.
    ctx = mp.get_context("spawn" if "spawn" in mp.get_all_start_methods()
                         else "fork")
    with tempfile.TemporaryDirectory(prefix="storage-bench-") as store_dir:
        result_queue = ctx.Queue()
        proc = ctx.Process(target=_workload, args=(store_dir, result_queue))
        proc.start()
        try:
            metrics = result_queue.get(timeout=1800)
        finally:
            proc.join(timeout=60)
    assert proc.exitcode == 0

    record = {
        "workload": {
            "num_events": NUM_EVENTS, "num_nodes": NUM_NODES,
            "feature_dim": FEATURE_DIM, "append_chunk": CHUNK,
            "num_shards": NUM_SHARDS,
        },
        "append_events_per_sec": round(metrics["append_events_per_sec"], 1),
        "append_elapsed_s": round(metrics["append_elapsed_s"], 2),
        "slice_ops_per_sec": round(metrics["slice_ops_per_sec"], 1),
        "node_queries_per_sec": round(metrics["node_queries_per_sec"], 1),
        "peak_rss_mb": round(metrics["peak_rss_mb"], 1),
        "rss_ceiling_mb": RSS_CEILING_MB,
        "shard_csr_mb": round(metrics["shard_csr_mb"], 1),
        "shard_csr_over_compact": round(metrics["shard_csr_over_compact"], 2),
        "store_disk_mb": round(metrics["store_disk_mb"], 1),
    }
    write_bench_record(_RESULT_PATH, record)
    print(f"\nappend: {record['append_events_per_sec']:12,.0f} events/s "
          f"({record['append_elapsed_s']}s for {NUM_EVENTS:,})")
    print(f"slice:  {record['slice_ops_per_sec']:12,.0f} ops/s")
    print(f"query:  {record['node_queries_per_sec']:12,.0f} node histories/s")
    print(f"peak RSS {record['peak_rss_mb']:.0f} MB "
          f"(ceiling {RSS_CEILING_MB:.0f} MB); "
          f"shard index {record['shard_csr_mb']:.0f} MB touched "
          f"({record['shard_csr_over_compact']:.2f}x a compact CSR); "
          f"store on disk {record['store_disk_mb']:.0f} MB")

    assert metrics["peak_rss_mb"] < RSS_CEILING_MB, (
        f"peak RSS {metrics['peak_rss_mb']:.0f} MB exceeds the "
        f"{RSS_CEILING_MB:.0f} MB ceiling — the build path is holding "
        f"per-event state in memory instead of streaming through the store"
    )
