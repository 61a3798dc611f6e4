"""repro — a from-scratch reproduction of APAN (SIGMOD 2021).

APAN (Asynchronous Propagation Attention Network) is a continuous-time
dynamic graph embedding model that decouples model inference from graph
querying so it can serve millisecond-level decisions online.  This package
contains the model, every substrate it needs (a NumPy neural-network
framework, an append-only event store with zero-copy graph views, dataset
generators), the baselines it is compared against, the evaluation protocol
and a measured serving loop.

Quickstart::

    from repro import APAN, APANConfig, get_dataset, LinkPredictionTrainer

    dataset = get_dataset("wikipedia", scale=0.01)
    split = dataset.split()
    graph = dataset.to_temporal_graph()  # a GraphView over an EventStore
    model = APAN(dataset.num_nodes, dataset.edge_feature_dim, APANConfig(max_epochs=3))
    trainer = LinkPredictionTrainer(model, graph, split.train_end, split.val_end)
    result = trainer.fit()
    print(result.as_dict())
"""

# analytics imports the serving layer, so it comes after the core chain;
# scenarios imports analytics + baselines, so it comes last.
from . import baselines, core, datasets, eval, graph, nn, serving, utils
from . import analytics
from . import scenarios
from .core import APAN, APANConfig, LinkPredictionTrainer, TemporalEmbeddingModel
from .datasets import TemporalDataset, get_dataset

__version__ = "1.0.0"

__all__ = [
    "APAN",
    "APANConfig",
    "LinkPredictionTrainer",
    "TemporalEmbeddingModel",
    "TemporalDataset",
    "get_dataset",
    "nn",
    "graph",
    "datasets",
    "core",
    "baselines",
    "eval",
    "serving",
    "analytics",
    "scenarios",
    "utils",
    "__version__",
]
