"""Columnar event storage and zero-copy graph views.

The storage/view split (ROADMAP item 2): an append-only columnar
:class:`EventStore` (optionally ``np.memmap``-backed so processes share one
physical copy) and cheap :class:`GraphView` slice trackers over it, each
owning one :class:`CsrIndex` of its window's adjacency.  Every graph in the
package is a :class:`GraphView` over an :class:`EventStore`: an owned graph
is ``GraphView(EventStore(num_nodes, edge_feature_dim))`` and grows through
``view.store.append_batch``.
"""

from .event_store import EventStore, EventStoreHandle
from .graph_view import CsrIndex, GraphView

__all__ = [
    "EventStore",
    "EventStoreHandle",
    "CsrIndex",
    "GraphView",
]
