"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper.  The
datasets are the synthetic stand-ins from :mod:`repro.datasets.synthetic`,
generated at a small ``BENCH_SCALE`` so the whole harness runs in minutes on a
laptop CPU; the *shape* of each result (orderings, ratios, trends) is what is
asserted and what EXPERIMENTS.md records against the paper's numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.obs import run_metadata

from repro.baselines import (
    CTDNE,
    DeepWalk,
    DyRep,
    GAEBaseline,
    GATBaseline,
    GraphSAGEBaseline,
    JODIE,
    Node2Vec,
    TGAT,
    TGN,
    VGAEBaseline,
    evaluate_static_link_prediction,
    evaluate_static_node_classification,
)
from repro.core import APAN, APANConfig, LinkPredictionTrainer
from repro.datasets import TemporalDataset, get_dataset
from repro.eval import evaluate_node_classification, evaluate_edge_classification

# Scale of the synthetic datasets relative to the published sizes.  Kept small
# so `pytest benchmarks/ --benchmark-only` completes quickly; raise the scales
# (e.g. 10x) to run a heavier, closer-to-paper evaluation.
BENCH_SCALES = {"wikipedia": 0.01, "reddit": 0.003, "alipay": 0.0008}
BATCH_SIZE = 50
EPOCHS = 5
LEARNING_RATE = 2e-3
SEED = 0


def bench_dataset(name: str) -> TemporalDataset:
    """The benchmark-scale stand-in for one of the paper's datasets."""
    return get_dataset(name, scale=BENCH_SCALES[name])


def make_apan(dataset: TemporalDataset, num_hops: int = 2, **overrides) -> APAN:
    """APAN with paper-default hyper-parameters scaled for the bench datasets."""
    parameters = dict(
        num_mailbox_slots=10, num_neighbors=10, num_hops=num_hops,
        mlp_hidden_dim=80, dropout=0.0, learning_rate=LEARNING_RATE,
        batch_size=BATCH_SIZE, seed=SEED,
    )
    parameters.update(overrides)
    return APAN(dataset.num_nodes, dataset.edge_feature_dim, APANConfig(**parameters))


def dynamic_model_zoo(dataset: TemporalDataset) -> dict[str, object]:
    """The dynamic models compared throughout the evaluation."""
    n, d = dataset.num_nodes, dataset.edge_feature_dim
    return {
        "JODIE": JODIE(n, d, seed=SEED),
        "DyRep": DyRep(n, d, num_neighbors=10, seed=SEED),
        "TGAT": TGAT(n, d, num_layers=1, num_neighbors=10, seed=SEED),
        "TGN": TGN(n, d, num_layers=1, num_neighbors=10, seed=SEED),
        "APAN": make_apan(dataset),
    }


def static_model_zoo() -> dict[str, object]:
    """The static / walk-based baselines of Table 2."""
    return {
        "GAE": GAEBaseline(epochs=20, seed=SEED),
        "VGAE": VGAEBaseline(epochs=20, seed=SEED),
        "DeepWalk": DeepWalk(seed=SEED),
        "Node2Vec": Node2Vec(seed=SEED),
        "GAT": GATBaseline(epochs=20, seed=SEED),
        "SAGE": GraphSAGEBaseline(epochs=20, seed=SEED),
        "CTDNE": CTDNE(seed=SEED),
    }


@dataclass
class DynamicRunResult:
    """Link-prediction outcome of one dynamic model on one dataset."""

    name: str
    val_ap: float
    val_accuracy: float
    test_ap: float
    test_accuracy: float
    train_seconds_per_epoch: float
    model: object


def train_dynamic_model(name: str, model, dataset: TemporalDataset,
                        epochs: int = EPOCHS, batch_size: int = BATCH_SIZE,
                        learning_rate: float = LEARNING_RATE) -> DynamicRunResult:
    """Train a dynamic model on link prediction with the shared trainer."""
    split = dataset.split()
    graph = dataset.to_temporal_graph()
    trainer = LinkPredictionTrainer(
        model, graph, split.train_end, split.val_end,
        batch_size=batch_size, learning_rate=learning_rate,
        max_epochs=epochs, patience=epochs, seed=SEED,
    )
    outcome = trainer.fit()
    return DynamicRunResult(
        name=name,
        val_ap=outcome.best_val.average_precision,
        val_accuracy=outcome.best_val.accuracy,
        test_ap=outcome.test_at_best.average_precision,
        test_accuracy=outcome.test_at_best.accuracy,
        train_seconds_per_epoch=outcome.train_seconds_per_epoch,
        model=model,
    )


def run_static_baseline(name: str, model, dataset: TemporalDataset):
    """Fit + evaluate a static baseline; returns (ap, accuracy)."""
    split = dataset.split()
    model.fit(dataset, split)
    result = evaluate_static_link_prediction(model, dataset, split, batch_size=BATCH_SIZE)
    return result.average_precision, result.accuracy


def node_classification_auc(model, dataset: TemporalDataset) -> float:
    split = dataset.split()
    return evaluate_node_classification(model, dataset, split, epochs=10,
                                        batch_size=BATCH_SIZE, seed=SEED).test_auc


def edge_classification_auc(model, dataset: TemporalDataset) -> float:
    split = dataset.split()
    return evaluate_edge_classification(model, dataset, split, epochs=10,
                                        batch_size=BATCH_SIZE, seed=SEED).test_auc


def static_node_classification_auc(model, dataset: TemporalDataset) -> float:
    split = dataset.split()
    return evaluate_static_node_classification(model, dataset, split, seed=SEED)


def percent(value: float) -> float:
    """Convert a [0, 1] metric to the percentage form the paper's tables use."""
    return 100.0 * value


# Every record and trace the benchmarks write lands here (ignored by git), so
# a full test run leaves the working tree clean.
OUT_DIR = Path(__file__).resolve().parent / "out"


def write_bench_record(path: str | Path, record: dict) -> Path:
    """Write a BENCH_*.json result, stamped with run provenance.

    Every benchmark result ships with ``record["provenance"]`` (git sha +
    dirty flag, UTC timestamp, hostname, interpreter and NumPy versions) so
    two BENCH files are always comparable: same commit, or knowably not.
    """
    record = dict(record)
    record["provenance"] = run_metadata()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path
