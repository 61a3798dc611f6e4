"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import APAN, APANConfig
from repro.datasets import TemporalDataset, bipartite_interaction_dataset


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_dataset() -> TemporalDataset:
    """A small but non-trivial bipartite temporal dataset (deterministic)."""
    return bipartite_interaction_dataset(
        name="tiny", num_users=30, num_items=12, num_events=400,
        edge_feature_dim=16, label_rate=0.02, seed=7,
    )


@pytest.fixture(scope="session")
def tiny_graph(tiny_dataset):
    return tiny_dataset.to_temporal_graph()


@pytest.fixture(scope="session")
def tiny_split(tiny_dataset):
    return tiny_dataset.split()


@pytest.fixture
def small_config() -> APANConfig:
    """APAN configuration sized for fast unit tests."""
    return APANConfig(
        num_mailbox_slots=4, num_neighbors=4, num_hops=2,
        mlp_hidden_dim=16, batch_size=50, max_epochs=1, seed=0,
    )


@pytest.fixture
def small_apan(tiny_dataset, small_config) -> APAN:
    return APAN(tiny_dataset.num_nodes, tiny_dataset.edge_feature_dim, small_config)


def make_event_batch(num_events=8, num_nodes=20, feature_dim=16, seed=0, start_time=0.0):
    """Construct a synthetic EventBatch for unit tests."""
    from repro.graph.batching import EventBatch

    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes // 2, size=num_events)
    dst = rng.integers(num_nodes // 2, num_nodes, size=num_events)
    timestamps = np.sort(rng.uniform(start_time, start_time + 100.0, size=num_events))
    return EventBatch(
        src=src.astype(np.int64),
        dst=dst.astype(np.int64),
        timestamps=timestamps,
        edge_features=rng.normal(size=(num_events, feature_dim)),
        labels=np.zeros(num_events),
        edge_ids=np.arange(num_events),
    )


@pytest.fixture
def event_batch_factory():
    return make_event_batch


@pytest.fixture
def graph_query_spy(monkeypatch):
    """Records every temporal-neighbourhood read against any GraphView.

    Returns the list the reads are appended to (by method name): per-node
    history scans (``node_events``) and adjacency-index reads (``adjacency``,
    ``csr_view``) — the queries a graph database would serve.  Every graph
    is a :class:`GraphView` (owned by a model, or attached by a serving
    worker), so no read path escapes the spy.
    """
    from repro.storage import GraphView

    calls = []
    for name in ("node_events", "adjacency", "csr_view"):
        original = getattr(GraphView, name)

        def spy(self, *args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(GraphView, name, spy)
    return calls
