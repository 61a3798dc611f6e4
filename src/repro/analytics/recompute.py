"""Recompute-from-scratch oracles for the incremental views.

Each function here rebuilds a view's state by **one batch pass over the full
event prefix** — the O(events) computation the incremental views exist to
avoid.  They are the semantic ground truth: at every publish point, the
incrementally-maintained state must equal the oracle **bit for bit** (same
dtypes, same float accumulation order), which the hypothesis suite in
``tests/analytics/`` asserts for arbitrary batch partitions and advance
split points.

The equivalence argument, per view:

* :func:`recompute_window` — ring expiry commutes with folding: a bucket
  survives to the final state iff it is within ``num_buckets`` of the final
  watermark bucket, regardless of *when* its events were folded; per-cell
  float additions happen in stream order in both the chunked and the
  one-shot pass (``np.add.at`` applies in index order).
* :func:`recompute_velocity` — inter-arrival deltas are differences of
  consecutive appearance times, which do not depend on where batch
  boundaries fall; per-node scatter order is row order in both.
* :func:`recompute_topk` — "latest score wins, ties by node id" is a pure
  function of the update sequence.
"""

from __future__ import annotations

import numpy as np

from .velocity import DegreeVelocity
from .windows import WindowAggregator

__all__ = ["recompute_window", "recompute_velocity", "recompute_topk"]


def recompute_window(num_nodes: int, window: float, num_buckets: int,
                     src, dst, timestamps, labels,
                     policy=None) -> WindowAggregator:
    """A fresh :class:`WindowAggregator` fed the whole stream in one fold.

    ``policy`` (a :class:`~repro.analytics.watermark.WatermarkPolicy`)
    applies the same late-event admission the incremental aggregator used:
    lateness is a prefix property of the stream, so the admitted set — and
    therefore the folded state — is identical regardless of chunking.
    """
    oracle = WindowAggregator(num_nodes, window, num_buckets=num_buckets,
                              policy=policy)
    oracle.fold(np.asarray(src), np.asarray(dst), np.asarray(timestamps),
                np.asarray(labels))
    return oracle


def recompute_velocity(num_nodes: int, src, dst, timestamps) -> DegreeVelocity:
    """A fresh :class:`DegreeVelocity` fed the whole stream in one fold."""
    oracle = DegreeVelocity(num_nodes)
    oracle.fold(np.asarray(src), np.asarray(dst), np.asarray(timestamps))
    return oracle


def recompute_topk(k: int, nodes, scores) -> list[tuple[int, float]]:
    """The top-k of "latest score per node" from a full update replay.

    ``nodes``/``scores`` are the concatenated update stream in submission
    order (later entries supersede earlier ones for the same node).  Returns
    at most ``k`` (node, score) pairs sorted by descending score, ties by
    ascending node id — exactly what :meth:`TopKView.top` must produce.
    """
    nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    latest: dict[int, float] = {}
    for node, score in zip(nodes.tolist(), scores.tolist()):
        latest[node] = score
    ranked = sorted(latest.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]
