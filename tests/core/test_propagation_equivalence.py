"""Propagation equivalence: the array routing path vs. the per-event oracle.

Vectorized routing exists to make propagation fast; the per-event oracle
(``tests/_engine_oracles.py``, injected with ``use_reference_routing``)
exists so these tests can prove the fast path computes *the same thing*.
For every φ/ρ/ψ/sampling combination, across seeds, batch sizes and hop
counts, streaming the same events through both must leave behind:

* byte-identical mailbox state — mails and mail times compared with
  ``tobytes()`` (signed zeros included: both feed ρ the same receiver list
  in the same order), valid masks, FIFO ``_next_slot`` cursors and
  ``_delivered`` counters;
* identical :class:`PropagationReport` bookkeeping (mail counts, receiver
  counts, per-hop frontier sizes) for every batch.

Randomised sampling strategies agree because the propagator runs its sampler
in stateless mode (per-query derived RNGs), making each neighbourhood a pure
function of ``(node, time)`` rather than of the order queries are issued in.
"""

import itertools

import numpy as np
import pytest

from _engine_oracles import use_reference_routing
from repro.core.mailbox import Mailbox
from repro.core.model import APAN
from repro.core.config import APANConfig
from repro.core.propagator import MailPropagator
from repro.graph.batching import EventBatch
from repro.serving.service import ServingLoop

ENGINES = ("reference", "vectorized")

PHI = ("sum", "concat_project")
RHO = ("mean", "last", "max")
PSI = ("fifo", "reservoir", "newest_overwrite")
SAMPLING = ("recent", "uniform", "time_weighted")


def make_stream(num_events, num_nodes, dim, seed, batch_size):
    """A random chronological event stream chopped into EventBatches."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, num_events).astype(np.int64)
    dst = rng.integers(0, num_nodes, num_events).astype(np.int64)
    timestamps = np.sort(rng.uniform(0.0, 500.0, num_events))
    features = rng.normal(size=(num_events, dim))
    batches = []
    for begin in range(0, num_events, batch_size):
        stop = min(begin + batch_size, num_events)
        batches.append(EventBatch(
            src=src[begin:stop], dst=dst[begin:stop],
            timestamps=timestamps[begin:stop],
            edge_features=features[begin:stop],
            labels=np.zeros(stop - begin),
            edge_ids=np.arange(begin, stop),
        ))
    return batches


def make_propagator(engine, *args, **kwargs):
    """A ``MailPropagator``; ``engine="reference"`` routes through the oracle."""
    propagator = MailPropagator(*args, **kwargs)
    return use_reference_routing(propagator) if engine == "reference" else propagator


def run_engine(engine, batches, num_nodes, dim, *, psi="fifo", seed=0,
               embed_seed=11, **propagator_kwargs):
    """Stream all batches through one path; return (mailbox, reports)."""
    mailbox = Mailbox(num_nodes, propagator_kwargs.pop("num_slots", 5), dim,
                      update_policy=psi, seed=seed)
    propagator = make_propagator(engine, mailbox, num_nodes, dim, seed=seed,
                                 **propagator_kwargs)
    rng = np.random.default_rng(embed_seed)
    reports = []
    for batch in batches:
        z_src = rng.normal(size=(len(batch), dim))
        z_dst = rng.normal(size=(len(batch), dim))
        report = propagator.propagate(batch, z_src, z_dst)
        reports.append((report.num_mails_generated, report.num_receivers,
                        report.num_mails_delivered, tuple(report.hop_sizes)))
    return mailbox, reports


def assert_mailboxes_match(reference: Mailbox, vectorized: Mailbox):
    assert vectorized.mails.tobytes() == reference.mails.tobytes()
    np.testing.assert_array_equal(vectorized.valid, reference.valid)
    assert vectorized.mail_times.tobytes() == reference.mail_times.tobytes()
    np.testing.assert_array_equal(vectorized._next_slot, reference._next_slot)
    np.testing.assert_array_equal(vectorized._delivered, reference._delivered)


def assert_engines_equivalent(batches, num_nodes, dim, **kwargs):
    box_ref, rep_ref = run_engine("reference", batches, num_nodes, dim, **kwargs)
    box_vec, rep_vec = run_engine("vectorized", batches, num_nodes, dim, **kwargs)
    assert rep_vec == rep_ref
    assert_mailboxes_match(box_ref, box_vec)


class TestAllComponentCombinations:
    @pytest.mark.parametrize("phi,rho,psi,sampling",
                             list(itertools.product(PHI, RHO, PSI, SAMPLING)))
    def test_engines_agree(self, phi, rho, psi, sampling):
        batches = make_stream(180, num_nodes=40, dim=4, seed=3, batch_size=45)
        assert_engines_equivalent(batches, 40, 4, phi=phi, rho=rho, psi=psi,
                                  sampling=sampling, num_hops=2, num_neighbors=4)


class TestAcrossConfigurations:
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_across_seeds(self, seed):
        batches = make_stream(200, num_nodes=30, dim=5, seed=seed, batch_size=40)
        assert_engines_equivalent(batches, 30, 5, seed=seed, num_hops=2,
                                  num_neighbors=5)

    @pytest.mark.parametrize("batch_size", [1, 3, 50, 200])
    def test_across_batch_sizes(self, batch_size):
        batches = make_stream(200, num_nodes=30, dim=5, seed=2,
                              batch_size=batch_size)
        assert_engines_equivalent(batches, 30, 5, num_hops=2, num_neighbors=5)

    @pytest.mark.parametrize("num_hops", [1, 2, 3, 4])
    def test_across_hop_counts(self, num_hops):
        batches = make_stream(200, num_nodes=25, dim=4, seed=5, batch_size=50)
        assert_engines_equivalent(batches, 25, 4, num_hops=num_hops,
                                  num_neighbors=3)

    def test_time_decay_mail_passing(self):
        batches = make_stream(150, num_nodes=25, dim=4, seed=8, batch_size=30)
        assert_engines_equivalent(batches, 25, 4, num_hops=3, num_neighbors=4,
                                  mail_passing="time_decay", time_decay=0.5)


class TestEdgeCases:
    def test_empty_batch(self):
        empty = EventBatch(
            src=np.empty(0, dtype=np.int64), dst=np.empty(0, dtype=np.int64),
            timestamps=np.empty(0), edge_features=np.zeros((0, 4)),
            labels=np.empty(0), edge_ids=np.empty(0, dtype=np.int64),
        )
        warm = make_stream(60, num_nodes=20, dim=4, seed=1, batch_size=20)
        stream = warm[:2] + [empty] + warm[2:]
        assert_engines_equivalent(stream, 20, 4, num_hops=2, num_neighbors=4)

    def test_duplicate_endpoints_and_self_loops(self):
        """Events repeating the same pair, and src == dst, in one batch."""
        rng = np.random.default_rng(0)
        batches = make_stream(80, num_nodes=8, dim=4, seed=2, batch_size=16)
        last_time = batches[-1].timestamps[-1]
        src = np.array([0, 0, 3, 3, 5, 0], dtype=np.int64)
        dst = np.array([1, 1, 3, 4, 5, 1], dtype=np.int64)
        timestamps = last_time + np.arange(1.0, 7.0)
        batches.append(EventBatch(src=src, dst=dst, timestamps=timestamps,
                                  edge_features=rng.normal(size=(6, 4)),
                                  labels=np.zeros(6), edge_ids=np.arange(6)))
        assert_engines_equivalent(batches, 8, 4, num_hops=3, num_neighbors=3)

    def test_isolated_nodes_never_touched(self):
        """Most of the node range never appears in any event."""
        batches = make_stream(100, num_nodes=10, dim=3, seed=6, batch_size=25)
        box_ref, _ = run_engine("reference", batches, 1000, 3, num_hops=2,
                                num_neighbors=4)
        box_vec, _ = run_engine("vectorized", batches, 1000, 3, num_hops=2,
                                num_neighbors=4)
        assert_mailboxes_match(box_ref, box_vec)
        assert not box_vec.valid[10:].any()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_negative_event_time_is_not_clamped(self, engine):
        """ρ keeps a receiver's latest mail time even when it is below 0."""
        mailbox = Mailbox(4, 3, 2)
        propagator = make_propagator(engine, mailbox, 4, 2, num_hops=1)
        batch = EventBatch(src=np.array([0]), dst=np.array([1]),
                           timestamps=np.array([-5.0]),
                           edge_features=np.zeros((1, 2)), labels=np.zeros(1),
                           edge_ids=np.arange(1))
        propagator.propagate(batch, np.zeros((1, 2)), np.zeros((1, 2)))
        assert mailbox.mail_times[0, 0] == -5.0
        assert mailbox.mail_times[1, 0] == -5.0

    def test_single_event_batches(self):
        batches = make_stream(40, num_nodes=12, dim=3, seed=9, batch_size=1)
        assert_engines_equivalent(batches, 12, 3, num_hops=2, num_neighbors=4)


class TestEngineWiring:
    def test_no_engine_option(self):
        """The oracle lives in the tests: no production knob selects it."""
        with pytest.raises(TypeError):
            MailPropagator(Mailbox(10, 3, 4), 10, 4, engine="reference")

    def test_serving_loop_state_matches_across_engines(self, tiny_graph):
        """Streaming through the serving path leaves equivalent mailboxes."""
        reports = {}
        models = {}
        for engine in ENGINES:
            config = APANConfig(num_mailbox_slots=4, num_neighbors=4, num_hops=2,
                                mlp_hidden_dim=16, dropout=0.0, seed=0)
            model = APAN(tiny_graph.num_nodes, tiny_graph.edge_feature_dim, config)
            if engine == "reference":
                use_reference_routing(model.propagator)
            loop = ServingLoop(model, tiny_graph, batch_size=50)
            reports[engine] = loop.run(max_batches=4)
            models[engine] = model
        assert reports["vectorized"].num_decisions == reports["reference"].num_decisions
        reference_box = models["reference"].mailbox
        vectorized_box = models["vectorized"].mailbox
        np.testing.assert_array_equal(vectorized_box.valid, reference_box.valid)
        # Mails flow through the encoder between batches, so allow fp noise
        # to amplify slightly beyond the single-round tolerance.
        np.testing.assert_allclose(vectorized_box.mails, reference_box.mails,
                                   atol=1e-6)
