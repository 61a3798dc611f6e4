"""Encoder engine throughput: vectorized vs. reference.

After PR 1 moved mail routing to whole-frontier array ops, the encoder was
the last per-event Python loop on the hot path.  The vectorized encoder
engine removes it: one masked multi-head-attention / LayerNorm / MLP pass
covers a whole batch of nodes (see
:meth:`repro.core.encoder.APANEncoder.encode_many`).  This benchmark streams
a synthetic 10k-encode workload — pre-filled mailboxes, paper-default
dimensions (10 slots, 2 heads, batch 200) — through both engines under
``no_grad`` and asserts the speedup floor that future PRs must not regress
below.  The measured numbers are written to ``BENCH_encoder.json`` at the
repo root so the perf trajectory is recorded alongside the code (see
``make bench``).

A second record covers the other end of the size range: the serving path
encodes ~4 nodes per decision under ``no_grad()``, where the call is
overhead- not FLOP-bound, so ``encode_many`` takes an ndarray-only inference
forward there.  ``test_inference_forward_speedup`` times it against the
``Tensor`` forward it shortcuts (bit-equal, see
``tests/core/test_encoder_equivalence.py``) and writes the ratio to the
untracked ``benchmarks/out/encoder_inference.json``.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.encoder import APANEncoder
from repro.core.mailbox import Mailbox
from repro.nn.tensor import Tensor, no_grad

from .harness import write_bench_record

NUM_ENCODES = 10_000
NUM_NODES = 2_000
FEATURE_DIM = 16
NUM_SLOTS = 10
BATCH_SIZE = 200
# Measured locally: reference ~3k encodes/s, vectorized ~200k encodes/s
# (>60x).  The floor is deliberately far below the measured ratio so CI noise
# cannot flake, while still failing if the fast path ever degenerates to
# per-node work.
MIN_SPEEDUP = 3.0

# The serving micro-batch: ~2 events -> ~4 distinct nodes per decision.
# Measured 2.7-3.2x on the 2-core CI VM; the floor fails if the inference
# forward stops being taken (ratio 1.0) with margin for a noisy neighbour.
INFERENCE_NODES = 4
INFERENCE_CALLS = 2_000
INFERENCE_REPS = 5  # min-of-reps absorbs scheduler noise
MIN_INFERENCE_SPEEDUP = 1.5

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_encoder.json"
_INFERENCE_RESULT_PATH = (Path(__file__).resolve().parent / "out"
                          / "encoder_inference.json")


def prefilled_mailbox(seed: int = 0) -> Mailbox:
    """A mailbox warmed with a few deliveries per node (mixed occupancy)."""
    rng = np.random.default_rng(seed)
    mailbox = Mailbox(NUM_NODES, NUM_SLOTS, FEATURE_DIM)
    for _ in range(3):
        nodes = rng.permutation(NUM_NODES)[: NUM_NODES // 2].astype(np.int64)
        mailbox.deliver(nodes, rng.normal(size=(len(nodes), FEATURE_DIM)),
                        np.sort(rng.uniform(0.0, 1_000.0, len(nodes))))
    return mailbox


def measure_encodes_per_second(engine: str) -> float:
    rng = np.random.default_rng(1)
    mailbox = prefilled_mailbox()
    encoder = APANEncoder(embedding_dim=FEATURE_DIM, num_slots=NUM_SLOTS,
                          num_heads=2, hidden_dim=80, dropout=0.0,
                          engine=engine, rng=np.random.default_rng(0))
    encoder.eval()
    node_state = rng.normal(size=(NUM_NODES, FEATURE_DIM))
    batches = [rng.integers(0, NUM_NODES, BATCH_SIZE).astype(np.int64)
               for _ in range(NUM_ENCODES // BATCH_SIZE)]
    gathers = [mailbox.gather_many(nodes) for nodes in batches]

    begin = time.perf_counter()
    with no_grad():
        for gather in gathers:
            encoder.encode_many(Tensor(node_state[gather.nodes]),
                                gather.mails, gather.times, gather.valid,
                                current_time=1_000.0)
    elapsed = time.perf_counter() - begin
    return NUM_ENCODES / elapsed


@pytest.fixture(scope="module")
def throughput():
    return {engine: measure_encodes_per_second(engine)
            for engine in ("reference", "vectorized")}


def test_encoder_throughput(throughput):
    reference = throughput["reference"]
    vectorized = throughput["vectorized"]
    speedup = vectorized / reference
    record = {
        "workload": {
            "num_encodes": NUM_ENCODES, "num_nodes": NUM_NODES,
            "feature_dim": FEATURE_DIM, "batch_size": BATCH_SIZE,
            "num_slots": NUM_SLOTS, "num_heads": 2,
        },
        "reference_encodes_per_sec": round(reference, 1),
        "vectorized_encodes_per_sec": round(vectorized, 1),
        "speedup": round(speedup, 2),
        "min_speedup_asserted": MIN_SPEEDUP,
    }
    write_bench_record(_RESULT_PATH, record)
    print(f"\nreference:  {reference:10,.0f} encodes/s")
    print(f"vectorized: {vectorized:10,.0f} encodes/s  ({speedup:.1f}x)")
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized encoder is only {speedup:.2f}x the reference "
        f"(floor {MIN_SPEEDUP}x) — the fast path has regressed"
    )


def test_inference_forward_speedup():
    """4-node ``no_grad`` encode: ndarray inference forward vs ``Tensor`` forward."""
    rng = np.random.default_rng(2)
    encoder = APANEncoder(embedding_dim=FEATURE_DIM, num_slots=NUM_SLOTS,
                          num_heads=2, hidden_dim=80, dropout=0.0,
                          rng=np.random.default_rng(0))
    encoder.eval()
    gather = prefilled_mailbox().gather_many(
        rng.integers(0, NUM_NODES, INFERENCE_NODES).astype(np.int64))
    assert len(gather) == INFERENCE_NODES
    last = Tensor(rng.normal(size=(INFERENCE_NODES, FEATURE_DIM)))
    args = (last, gather.mails, gather.times, gather.valid, 1_000.0)

    def best_ms_per_call(forward) -> float:
        best = float("inf")
        for _ in range(INFERENCE_REPS):
            begin = time.perf_counter()
            for _ in range(INFERENCE_CALLS):
                forward(*args)
            best = min(best, time.perf_counter() - begin)
        return 1000.0 * best / INFERENCE_CALLS

    with no_grad():
        assert np.array_equal(encoder.encode_many(*args).data,
                              encoder._encode_vectorized(*args).data)
        inference_ms = best_ms_per_call(encoder.encode_many)
        tensor_ms = best_ms_per_call(encoder._encode_vectorized)
    speedup = tensor_ms / inference_ms
    record = {
        "workload": {
            "nodes_per_call": INFERENCE_NODES, "calls": INFERENCE_CALLS,
            "reps": INFERENCE_REPS, "feature_dim": FEATURE_DIM,
            "num_slots": NUM_SLOTS, "num_heads": 2,
        },
        "tensor_forward_ms_per_call": round(tensor_ms, 5),
        "inference_forward_ms_per_call": round(inference_ms, 5),
        "speedup": round(speedup, 2),
        "min_speedup_asserted": MIN_INFERENCE_SPEEDUP,
    }
    _INFERENCE_RESULT_PATH.parent.mkdir(exist_ok=True)
    write_bench_record(_INFERENCE_RESULT_PATH, record)
    print(f"\ntensor forward:    {tensor_ms:.4f} ms / {INFERENCE_NODES}-node call")
    print(f"inference forward: {inference_ms:.4f} ms  ({speedup:.1f}x)")
    assert speedup >= MIN_INFERENCE_SPEEDUP, (
        f"the no_grad inference forward is only {speedup:.2f}x the Tensor "
        f"forward at {INFERENCE_NODES} nodes (floor {MIN_INFERENCE_SPEEDUP}x) "
        f"— is encode_many still dispatching to it?"
    )
