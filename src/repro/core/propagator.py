"""Asynchronous mail propagator (paper §3.5, Eq. 6).

Given the embeddings produced by the encoder for a batch of interactions, the
propagator performs, *off the synchronous critical path*:

1. **Mail generation (φ)** — summarise each interaction as a mail.  The paper
   default is the sum ``z_i(t) + e_ij(t) + z_j(t)``; concatenation (projected
   back to the mail dimension) is provided for the ablation study.
2. **Temporal neighbour sampling (N^k_ij)** — find the k-hop temporal
   neighbourhood of the two interacting nodes using most-recent sampling.
3. **Mail passing (f)** — the identity function in APAN; an exponential
   time-decay variant is included for ablation.
4. **Mail reducing (ρ)** — a node that receives several mails within one batch
   reduces them to a single mail (mean by default; last/max for ablation).
5. **Mailbox updating (ψ)** — FIFO insertion into the receivers' mailboxes
   (delegated to :class:`repro.core.mailbox.Mailbox`).

The propagator owns the model's internal graph, a live
:class:`~repro.storage.graph_view.GraphView` over a private
:class:`~repro.storage.event_store.EventStore`.  The batch's events are
appended to that store *after* propagation, so mails are routed along edges
that existed strictly before the batch, mirroring the deployed system in
which the graph database lags the event stream.

Routing (steps 2–3) expands whole frontiers per hop with array ops
(:meth:`~repro.graph.neighbor_sampler.TemporalNeighborSampler.sample_many`,
then one stable argsort per hop that keeps each ``(event, node)`` key's first
occurrence) and never loops over events.  ρ (:meth:`MailPropagator._reduce`)
is one sort of the receivers, segment maxima over that order, and a
``np.bincount`` mean that accumulates in receiver-list order.

The paper's per-event, per-neighbour pseudocode is kept as a test oracle
(``tests/_engine_oracles.py``): the equivalence suites inject it in place of
:meth:`MailPropagator._route_mails` and assert byte-equal mailboxes for
every φ/ρ/ψ/sampling combination.  They can, because the samplers run
stateless (per-query derived RNGs): a neighbourhood is a pure function of
``(node, time, seed)``, not of the order queries are issued in.
"""

from __future__ import annotations

import numpy as np

from ..graph.batching import EventBatch
from ..graph.neighbor_sampler import make_sampler
from ..storage import EventStore, GraphView
from .mailbox import Mailbox

__all__ = ["MailPropagator", "PropagationReport"]

_PHI_CHOICES = ("sum", "concat_project")
_RHO_CHOICES = ("mean", "last", "max")
_F_CHOICES = ("identity", "time_decay")


def _run_heads(sorted_values: np.ndarray) -> np.ndarray:
    """True at the first element of every run of equal values."""
    heads = np.empty(len(sorted_values), dtype=bool)
    heads[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=heads[1:])
    return heads


class PropagationReport:
    """Bookkeeping about one propagation round (used by tests and examples)."""

    __slots__ = ("num_mails_generated", "num_receivers", "num_mails_delivered", "hop_sizes")

    def __init__(self, num_mails_generated: int, num_receivers: int,
                 num_mails_delivered: int, hop_sizes: list[int]):
        self.num_mails_generated = num_mails_generated
        self.num_receivers = num_receivers
        self.num_mails_delivered = num_mails_delivered
        self.hop_sizes = hop_sizes


class MailPropagator:
    """Generates mails for a batch of events and delivers them k hops away."""

    def __init__(self, mailbox: Mailbox, num_nodes: int, edge_feature_dim: int,
                 num_hops: int = 2, num_neighbors: int = 10,
                 sampling: str = "recent", phi: str = "sum", rho: str = "mean",
                 mail_passing: str = "identity", time_decay: float = 1e-6,
                 seed: int | None = None, graph=None):
        if num_hops < 1:
            raise ValueError("num_hops must be at least 1")
        if phi not in _PHI_CHOICES:
            raise ValueError(f"phi must be one of {_PHI_CHOICES}")
        if rho not in _RHO_CHOICES:
            raise ValueError(f"rho must be one of {_RHO_CHOICES}")
        if mail_passing not in _F_CHOICES:
            raise ValueError(f"mail_passing must be one of {_F_CHOICES}")
        self.mailbox = mailbox
        self.num_nodes = num_nodes
        self.edge_feature_dim = edge_feature_dim
        self.num_hops = num_hops
        self.num_neighbors = num_neighbors
        self.sampling = sampling
        self.phi = phi
        self.rho = rho
        self.mail_passing = mail_passing
        self.time_decay = time_decay
        # Draw entropy for seed=None once, here: a worker rebuilding this
        # propagator from its spec must sample and project like it does.
        if seed is None:
            seed = int(np.random.SeedSequence().entropy)
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        # Event store used for neighbour lookups.  By default the propagator
        # owns a private, incrementally grown EventStore (behind a live view)
        # that it ingests into after each propagated batch.  A serving worker instead injects
        # a shared read-only view (GraphView over an mmap-attached
        # EventStore): the runtime's writer appends events once, and every
        # worker routes against the same physical pages.
        if graph is None:
            self.graph = GraphView(EventStore(num_nodes, edge_feature_dim))
            self._owns_graph = True
        else:
            self.graph = graph
            self._owns_graph = False
        self._sampler = self._make_sampler()
        # Optional projection used when phi == 'concat_project'.
        if phi == "concat_project":
            scale = 1.0 / np.sqrt(3 * edge_feature_dim)
            self._concat_projection = self._rng.normal(
                0.0, scale, size=(3 * edge_feature_dim, mailbox.mail_dim)
            )
        else:
            self._concat_projection = None

    def _make_sampler(self):
        # Stateless sampling makes each neighbourhood a pure function of
        # (node, time, seed), whatever order the queries come in.
        return make_sampler(self.sampling, self.graph,
                            num_neighbors=self.num_neighbors, seed=self._seed,
                            stateless=True)

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Clear the internal event store and all mailboxes.

        An injected (shared) graph is left alone — its lifecycle belongs to
        the storage writer, not to this propagator.
        """
        self.mailbox.reset()
        if self._owns_graph:
            self.graph = GraphView(EventStore(self.num_nodes, self.edge_feature_dim))
        self._sampler = self._make_sampler()

    # ------------------------------------------------------------------ #
    # φ — mail generation
    # ------------------------------------------------------------------ #
    def generate_mails(self, batch: EventBatch, src_embeddings: np.ndarray,
                       dst_embeddings: np.ndarray) -> np.ndarray:
        """Create one mail per event in the batch."""
        src_embeddings = np.asarray(src_embeddings, dtype=np.float64)
        dst_embeddings = np.asarray(dst_embeddings, dtype=np.float64)
        if self.phi == "sum":
            return src_embeddings + batch.edge_features + dst_embeddings
        concatenated = np.concatenate(
            [src_embeddings, batch.edge_features, dst_embeddings], axis=1
        )
        return concatenated @ self._concat_projection

    # ------------------------------------------------------------------ #
    # N^k_ij + f + ρ + ψ — propagate and deliver
    # ------------------------------------------------------------------ #
    def route_and_reduce(self, batch: EventBatch, src_embeddings: np.ndarray,
                         dst_embeddings: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray, PropagationReport]:
        """φ + N^k_ij + f + ρ for one batch, **without** delivering or ingesting.

        Returns ``(nodes, mails, times, report)`` ready for
        :meth:`Mailbox.deliver`.  This is the compute-heavy part of the
        asynchronous link and is a pure function of the batch, the embeddings
        and the event store's current contents — the serving runtime's worker
        processes run it concurrently and serialise only the (cheap) delivery.
        """
        mails = self.generate_mails(batch, src_embeddings, dst_embeddings)
        receivers, receiver_mails, receiver_times, hop_sizes = self._route_mails(batch, mails)
        reduced_nodes, reduced_mails, reduced_times = self._reduce(
            receivers, receiver_mails, receiver_times
        )
        report = PropagationReport(
            num_mails_generated=len(mails),
            num_receivers=len(reduced_nodes),
            num_mails_delivered=len(receivers),
            hop_sizes=hop_sizes,
        )
        return reduced_nodes, reduced_mails, reduced_times, report

    def propagate(self, batch: EventBatch, src_embeddings: np.ndarray,
                  dst_embeddings: np.ndarray) -> PropagationReport:
        """Run the full asynchronous link for one batch and ingest its events."""
        nodes, mails, times, report = self.route_and_reduce(
            batch, src_embeddings, dst_embeddings
        )
        self.mailbox.deliver(nodes, mails, times)
        self._ingest_events(batch)
        return report

    def ingest_only(self, batch: EventBatch) -> None:
        """Append the batch's events to the internal store without propagating.

        Used by warm-up passes that replay history to rebuild the graph store
        without touching mailboxes.
        """
        self._ingest_events(batch)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def _route_mails(self, batch: EventBatch, mails: np.ndarray):
        """Whole-frontier routing with array ops; no per-event Python loop.

        Each hop expands the entire batch frontier with one ``sample_many``
        call and flattens the candidates in the order the paper's per-event
        loop visits them.  Per-event de-duplication ("a node receives each
        event's mail at most once") works on ``event * num_nodes + node`` keys: one
        stable argsort of the keys already reached followed by the hop's
        candidate keys puts every key's earliest occurrence first in its run,
        so a candidate survives exactly when no earlier receiver of its event
        and no earlier candidate holds its key.  The receiver list is finally
        re-sorted to the per-event loop's (event, hop, discovery) order, so
        the downstream ρ reduction accumulates in the same order and the
        result equals that loop's to the last bit.
        """
        hop_sizes = [0] * self.num_hops
        num_events = len(batch)
        if num_events == 0:
            return (np.empty(0, dtype=np.int64), np.zeros((0, self.mailbox.mail_dim)),
                    np.empty(0), hop_sizes)

        src = np.asarray(batch.src, dtype=np.int64)
        dst = np.asarray(batch.dst, dtype=np.int64)
        timestamps = np.asarray(batch.timestamps, dtype=np.float64)

        # Hop 0: both endpoints of every event, in (event, src, dst) order.
        hop0_events = np.repeat(np.arange(num_events), 2)
        hop0_nodes = np.empty(2 * num_events, dtype=np.int64)
        hop0_nodes[0::2] = src
        hop0_nodes[1::2] = dst
        hop_sizes[0] = len(hop0_nodes)

        event_blocks = [hop0_events]
        node_blocks = [hop0_nodes]
        decay_blocks = [np.zeros(len(hop0_nodes), dtype=np.int64)]

        # Every (event * N + node) key reached so far, in discovery order.
        reached = hop0_events * self.num_nodes + hop0_nodes
        frontier_events, frontier_nodes = hop0_events, hop0_nodes

        for hop in range(1, self.num_hops):
            sample = self._sampler.sample_many(frontier_nodes,
                                               timestamps[frontier_events])
            # Flatten row-major: frontier order, then slot order — the exact
            # order the per-event loop visits candidates within each event.
            flat_valid = sample.mask.ravel()
            flat_events = np.repeat(frontier_events, self.num_neighbors)[flat_valid]
            flat_nodes = sample.neighbors.ravel()[flat_valid]
            keys = np.concatenate((reached, flat_events * self.num_nodes + flat_nodes))
            order = np.argsort(keys, kind="stable")
            fresh = np.empty(len(keys), dtype=bool)
            fresh[order] = _run_heads(keys[order])
            fresh = fresh[len(reached):]
            flat_events = flat_events[fresh]
            flat_nodes = flat_nodes[fresh]
            if len(flat_nodes) == 0:
                break

            hop_sizes[hop] = len(flat_nodes)
            event_blocks.append(flat_events)
            node_blocks.append(flat_nodes)
            decay_blocks.append(np.full(len(flat_nodes), hop, dtype=np.int64))
            if hop + 1 < self.num_hops:
                reached = np.concatenate((reached, keys[len(reached):][fresh]))
            frontier_events, frontier_nodes = flat_events, flat_nodes

        events = np.concatenate(event_blocks)
        receivers = np.concatenate(node_blocks)
        hops = np.concatenate(decay_blocks)
        # Stable sort by event restores the per-event (event, hop, discovery)
        # order: within one event the blocks already appear hop-by-hop.
        order = np.argsort(events, kind="stable")
        events, receivers, hops = events[order], receivers[order], hops[order]

        receiver_mails = mails[events]
        if self.mail_passing != "identity":
            receiver_mails = receiver_mails * np.exp(-self.time_decay * hops)[:, None]
        receiver_times = timestamps[events]
        return receivers, receiver_mails, receiver_times, hop_sizes

    def _reduce(self, receivers: np.ndarray, mails: np.ndarray, times: np.ndarray):
        """ρ — reduce multiple mails per receiver to a single mail."""
        if len(receivers) == 0:
            return receivers, mails, times
        # One sort makes each receiver's mails a contiguous segment (the max
        # reductions are exact in any order, and the mean below sums in list
        # order); "last" orders each segment by time, then list position, so
        # the latest mail ends it.
        if self.rho == "last":
            order = np.lexsort((times, receivers))
        else:
            order = np.argsort(receivers)
        sorted_receivers = receivers[order]
        segment_head = _run_heads(sorted_receivers)
        starts = np.flatnonzero(segment_head)
        ends = np.append(starts[1:], len(order))
        unique_nodes = sorted_receivers[starts]
        reduced_times = np.maximum.reduceat(times[order], starts)

        if self.rho == "mean":
            # Flattened (receiver, column) bins summed in list order from +0.0.
            inverse = np.empty(len(order), dtype=np.int64)
            inverse[order] = np.cumsum(segment_head) - 1
            dim = mails.shape[1]
            bins = (inverse[:, None] * dim + np.arange(dim)).ravel()
            sums = np.bincount(bins, weights=mails.ravel(),
                               minlength=len(unique_nodes) * dim)
            counts = ends - starts
            reduced_mails = sums.reshape(len(unique_nodes), dim) / counts[:, None]
        elif self.rho == "max":
            reduced_mails = np.maximum.reduceat(mails[order], starts, axis=0)
        else:  # "last": keep the chronologically latest mail per receiver
            reduced_mails = mails[order[ends - 1]]
        return unique_nodes, reduced_mails, reduced_times

    def _ingest_events(self, batch: EventBatch) -> None:
        if len(batch) == 0:
            return
        if not self._owns_graph:
            raise RuntimeError(
                "this propagator routes against a shared event store it does "
                "not own; append events through the store's writer instead")
        self.graph.store.append_batch(batch.src, batch.dst, batch.timestamps,
                                      batch.edge_features, batch.labels)

