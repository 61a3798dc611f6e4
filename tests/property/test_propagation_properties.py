"""Property suite (hypothesis) for k-hop mail routing and the ρ reduction.

Two oracles pin the array routing path:

* **Routing** — the per-event loop of ``tests/_engine_oracles.py``.  Random
  streams over a handful of nodes make the awkward cases common: self-loop
  events (``src == dst``), sample rows that repeat a neighbour or lead back
  to the event's own endpoints, equal and negative timestamps, empty,
  single-event and many-event batches.  For every hop count in 1..4 and every ρ, both
  paths must leave byte-identical mailboxes and report identical
  ``PropagationReport`` bookkeeping, per-hop sizes included.
* **ρ** — :func:`scatter_reduce`, the ``np.add.at`` / ``np.maximum.at``
  reduction that :meth:`MailPropagator._reduce` replaced, kept here as a
  test oracle (its receiver times start from ``-inf``, not the clamping
  ``0.0`` the old code had).  The mean and "last" must match it byte for
  byte, signed zeros included.  Max and the receiver-time max must match it
  in value: IEEE 754 leaves the sign of ``max(-0.0, +0.0)`` to the
  implementation, and NumPy's contiguous reduction loop and its scalar
  ``.at`` loop pick differently.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from _engine_oracles import use_reference_routing
from repro.core.mailbox import Mailbox
from repro.core.propagator import MailPropagator
from repro.graph.batching import EventBatch
from repro.graph.neighbor_sampler import make_sampler

DIM = 3
RHO = ("mean", "last", "max")
PSI = ("fifo", "reservoir", "newest_overwrite")


def scatter_reduce(rho, receivers, mails, times):
    """The scatter-based ρ the sort-based one must reproduce."""
    unique_nodes, inverse = np.unique(receivers, return_inverse=True)
    reduced_mails = np.zeros((len(unique_nodes), mails.shape[1]))
    reduced_times = np.full(len(unique_nodes), -np.inf)
    if rho == "mean":
        counts = np.bincount(inverse, minlength=len(unique_nodes)).astype(np.float64)
        np.add.at(reduced_mails, inverse, mails)
        reduced_mails /= counts[:, None]
    elif rho == "max":
        reduced_mails.fill(-np.inf)
        np.maximum.at(reduced_mails, inverse, mails)
    else:
        ranks = np.empty(len(times), dtype=np.int64)
        ranks[np.argsort(times, kind="stable")] = np.arange(len(times))
        group_max = np.full(len(unique_nodes), -1, dtype=np.int64)
        np.maximum.at(group_max, inverse, ranks)
        winners = ranks == group_max[inverse]
        reduced_mails[inverse[winners]] = mails[winners]
    np.maximum.at(reduced_times, inverse, times)
    return unique_nodes, reduced_mails, reduced_times


@st.composite
def event_streams(draw):
    """``(num_nodes, batches)``: a chronological stream over a few nodes."""
    num_nodes = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.sampled_from([0, 1, 2, 5, 12]), min_size=1, max_size=6))
    total = sum(sizes)
    node = st.integers(0, num_nodes - 1)
    src = np.array(draw(st.lists(node, min_size=total, max_size=total)), dtype=np.int64)
    dst = np.array(draw(st.lists(node, min_size=total, max_size=total)), dtype=np.int64)
    start = draw(st.sampled_from([-50.0, -0.5, 0.0, 3.0]))
    gaps = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=total, max_size=total))
    timestamps = start + np.cumsum(gaps)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    features = rng.normal(size=(total, DIM))
    batches, begin = [], 0
    for size in sizes:
        stop = begin + size
        batches.append(EventBatch(
            src=src[begin:stop], dst=dst[begin:stop], timestamps=timestamps[begin:stop],
            edge_features=features[begin:stop], labels=np.zeros(size),
            edge_ids=np.arange(begin, stop)))
        begin = stop
    return num_nodes, batches


def stream_through(engine, num_nodes, batches, **kwargs):
    psi = kwargs.pop("psi")
    mailbox = Mailbox(num_nodes, 3, DIM, update_policy=psi, seed=0)
    propagator = MailPropagator(mailbox, num_nodes, DIM, seed=0, **kwargs)
    if engine == "reference":
        use_reference_routing(propagator)
    rng = np.random.default_rng(5)
    reports = []
    for batch in batches:
        z_src = rng.normal(size=(len(batch), DIM))
        z_dst = rng.normal(size=(len(batch), DIM))
        report = propagator.propagate(batch, z_src, z_dst)
        reports.append((report.num_mails_generated, report.num_receivers,
                        report.num_mails_delivered, tuple(report.hop_sizes)))
    return mailbox, reports


def assert_engines_byte_equal(num_nodes, batches, **kwargs):
    box_ref, rep_ref = stream_through("reference", num_nodes, batches, **kwargs)
    box_vec, rep_vec = stream_through("vectorized", num_nodes, batches, **kwargs)
    assert rep_vec == rep_ref
    assert box_vec.mails.tobytes() == box_ref.mails.tobytes()
    assert box_vec.mail_times.tobytes() == box_ref.mail_times.tobytes()
    np.testing.assert_array_equal(box_vec.valid, box_ref.valid)
    np.testing.assert_array_equal(box_vec._next_slot, box_ref._next_slot)
    np.testing.assert_array_equal(box_vec._delivered, box_ref._delivered)


class TestRoutingMatchesReferenceEngine:
    @given(event_streams(), st.integers(1, 4), st.sampled_from(RHO),
           st.sampled_from(PSI), st.integers(1, 4),
           st.sampled_from(["recent", "uniform"]),
           st.sampled_from(["identity", "time_decay"]))
    @settings(max_examples=150, deadline=None)
    def test_engines_byte_equal(self, stream, num_hops, rho, psi, num_neighbors,
                                sampling, mail_passing):
        num_nodes, batches = stream
        assert_engines_byte_equal(num_nodes, batches, num_hops=num_hops, rho=rho,
                                  psi=psi, num_neighbors=num_neighbors,
                                  sampling=sampling, mail_passing=mail_passing,
                                  time_decay=0.5)

    def test_repeated_neighbours_and_reached_endpoints(self):
        """The de-duplication cases, constructed rather than left to chance.

        Node 0 met node 1 twice and itself once, so its most-recent sample
        row holds 1 twice and 0 itself; the batch event (0, 1) then reaches
        both of its own endpoints again at hop 1, next to a self-loop event.
        """
        history = EventBatch(
            src=np.array([0, 0, 0, 2]), dst=np.array([1, 1, 0, 1]),
            timestamps=np.array([1.0, 2.0, 3.0, 4.0]), edge_features=np.ones((4, DIM)),
            labels=np.zeros(4), edge_ids=np.arange(4))
        batch = EventBatch(
            src=np.array([0, 2]), dst=np.array([1, 2]), timestamps=np.array([5.0, 5.0]),
            edge_features=np.full((2, DIM), 2.0), labels=np.zeros(2),
            edge_ids=np.arange(4, 6))
        probe = MailPropagator(Mailbox(3, 3, DIM), 3, DIM, num_neighbors=4)
        probe.ingest_only(history)
        row = make_sampler("recent", probe.graph, num_neighbors=4).sample(0, 5.0)
        neighbors = row.neighbors[row.mask].tolist()
        assert neighbors.count(1) == 2 and 0 in neighbors
        for num_hops in (1, 2, 3, 4):
            for rho in RHO:
                assert_engines_byte_equal(3, [history, batch], num_hops=num_hops,
                                          rho=rho, psi="fifo", num_neighbors=4)


# Signed zeros, plus magnitudes whose sums depend on the order they are added.
ZERO_HEAVY = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1e16, -1e16]),
                       st.floats(-1e3, 1e3, allow_nan=False))


@st.composite
def receiver_lists(draw):
    """``(receivers, mails, times)`` with repeats, signed zeros and ties."""
    size = draw(st.integers(1, 40))
    receivers = draw(arrays(np.int64, size, elements=st.integers(0, 7)))
    mails = draw(arrays(np.float64, (size, draw(st.integers(1, 4))), elements=ZERO_HEAVY))
    zero_rows = draw(arrays(np.bool_, size))
    mails[zero_rows] = -0.0
    times = draw(arrays(np.float64, size, elements=ZERO_HEAVY))
    return receivers, mails, times


class TestReduceMatchesScatterOracle:
    @given(receiver_lists(), st.sampled_from(RHO))
    @settings(max_examples=200, deadline=None)
    def test_reduce_matches_scatter_oracle(self, case, rho):
        receivers, mails, times = case
        propagator = MailPropagator(Mailbox(8, 2, mails.shape[1]), 8, mails.shape[1],
                                    rho=rho)
        nodes, reduced_mails, reduced_times = propagator._reduce(receivers, mails, times)
        oracle_nodes, oracle_mails, oracle_times = scatter_reduce(rho, receivers,
                                                                  mails, times)
        np.testing.assert_array_equal(nodes, oracle_nodes)
        np.testing.assert_array_equal(reduced_times, oracle_times)
        if rho == "max":
            np.testing.assert_array_equal(reduced_mails, oracle_mails)
        else:
            assert reduced_mails.tobytes() == oracle_mails.tobytes()
