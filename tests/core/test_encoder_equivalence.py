"""Encoder equivalence: the batched ``encode_many`` vs. the per-node oracle.

The batched encoder exists to make the inference/training hot path fast; the
per-node oracle (a Python loop over the same module stack, kept in
``tests/_engine_oracles.py`` and injected with ``use_reference_encoder``)
exists so these tests can prove the fast path computes *the same thing*.
Both share one parameter set, so with dropout inactive their outputs,
attention weights and parameter gradients must agree to within ``ATOL``
across positional-encoding modes, ragged batch sizes and empty-mailbox rows.
``Mailbox.gather_many`` — the storage half of the batched path — is covered
here too, and so is the ndarray-only inference
forward that ``no_grad()`` serving takes (``TestInferenceForward``: bit-equal
to the ``Tensor`` forward, and never taken when that forward is needed).

(The propagation twin of this suite is
``tests/core/test_propagation_equivalence.py``.)
"""

import numpy as np
import pytest

from _engine_oracles import use_reference_encoder
from repro.core.config import APANConfig
from repro.core.decoder import LinkPredictionDecoder
from repro.core.encoder import APANEncoder
from repro.core.mailbox import Mailbox, MailboxGather
from repro.core.model import APAN
from repro.graph.batching import EventBatch
from repro.nn.tensor import Tensor, no_grad

ATOL = 1e-9

POSITIONAL_MODES = ("learned", "time")
BATCH_SIZES = (1, 3, 37, 200)


def make_encoder(engine, positional="learned", dim=8, slots=5, dropout=0.0,
                 seed=0):
    """An encoder with deterministic parameters shared across engines;
    ``engine="reference"`` encodes through the per-node oracle."""
    encoder = APANEncoder(
        embedding_dim=dim, num_slots=slots, num_heads=2, hidden_dim=16,
        dropout=dropout, positional_encoding=positional,
        rng=np.random.default_rng(seed),
    )
    encoder.eval()
    return use_reference_encoder(encoder) if engine == "reference" else encoder


def make_inputs(batch, slots=5, dim=8, seed=0, empty_rows=(), ragged=False):
    """Random z(t-) plus a mailbox stack with partially-valid slots."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(batch, dim))
    mails = rng.normal(size=(batch, slots, dim))
    times = np.sort(rng.uniform(0.0, 100.0, size=(batch, slots)), axis=1)
    valid = np.ones((batch, slots), dtype=bool)
    if ragged:
        # Each node holds a different number of valid mails (0..slots).
        counts = rng.integers(0, slots + 1, size=batch)
        valid = np.arange(slots)[None, :] < counts[:, None]
    for row in empty_rows:
        valid[row] = False
    mails[~valid] = 0.0
    times[~valid] = 0.0
    return z, mails, times, valid


def encode(engine, z, mails, times, valid, positional="learned", seed=0,
           current_time=100.0):
    encoder = make_encoder(engine, positional=positional, dim=z.shape[1],
                           slots=mails.shape[1], seed=seed)
    out = encoder.encode_many(Tensor(z), mails, times, valid, current_time)
    return out.data, encoder.last_attention_weights


class TestEngineEquivalence:
    @pytest.mark.parametrize("positional", POSITIONAL_MODES)
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_outputs_and_attention_match(self, positional, batch):
        z, mails, times, valid = make_inputs(batch, seed=batch, ragged=True)
        out_ref, att_ref = encode("reference", z, mails, times, valid,
                                  positional=positional)
        out_vec, att_vec = encode("vectorized", z, mails, times, valid,
                                  positional=positional)
        np.testing.assert_allclose(out_vec, out_ref, atol=ATOL)
        np.testing.assert_allclose(att_vec, att_ref, atol=ATOL)

    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_empty_mailbox_rows_match_and_are_finite(self, seed):
        z, mails, times, valid = make_inputs(6, seed=seed, empty_rows=(0, 3))
        out_ref, _ = encode("reference", z, mails, times, valid, seed=seed)
        out_vec, _ = encode("vectorized", z, mails, times, valid, seed=seed)
        assert np.isfinite(out_vec).all()
        np.testing.assert_allclose(out_vec, out_ref, atol=ATOL)

    def test_all_rows_empty(self):
        z, mails, times, valid = make_inputs(4, empty_rows=range(4))
        out_ref, _ = encode("reference", z, mails, times, valid)
        out_vec, _ = encode("vectorized", z, mails, times, valid)
        np.testing.assert_allclose(out_vec, out_ref, atol=ATOL)

    def test_dropout_off_determinism(self):
        """With dropout inactive, repeated encodes are bit-identical."""
        z, mails, times, valid = make_inputs(12, seed=4, ragged=True)
        for engine in ("reference", "vectorized"):
            first, _ = encode(engine, z, mails, times, valid)
            second, _ = encode(engine, z, mails, times, valid)
            np.testing.assert_array_equal(first, second)

    def test_gradients_match(self):
        """Both engines push the same gradients into every parameter."""
        z, mails, times, valid = make_inputs(9, seed=5, ragged=True)
        grads = {}
        for engine in ("reference", "vectorized"):
            encoder = make_encoder(engine, seed=3)
            encoder.train()  # dropout=0.0, so training mode is still exact
            out = encoder.encode_many(Tensor(z), mails, times, valid, 100.0)
            (out * out).sum().backward()
            grads[engine] = [p.grad.copy() for p in encoder.parameters()]
        for grad_ref, grad_vec in zip(grads["reference"], grads["vectorized"]):
            np.testing.assert_allclose(grad_vec, grad_ref, atol=ATOL)


class TestInferenceForward:
    """``no_grad()`` serving takes an ndarray-only forward; it must be
    *bit*-equal to the ``Tensor`` forward it shortcuts, and nothing that
    needs the ``Tensor`` path (gradients, time encoding, live dropout, the
    reference oracle) may be routed onto it."""

    @staticmethod
    def both_forwards(encoder, z, mails, times, valid):
        with no_grad():
            fast = encoder.encode_many(Tensor(z), mails, times, valid, 100.0)
            fast_attention = encoder.last_attention_weights
            slow = encoder._encode_tensor(Tensor(z), mails, times, valid, 100.0)
            slow_attention = encoder.last_attention_weights
        assert isinstance(fast, Tensor) and not fast.requires_grad
        return fast.data, fast_attention, slow.data, slow_attention

    @pytest.fixture
    def tensor_path_only(self, monkeypatch):
        """Make the inference forward unusable: reaching it fails the test."""
        def forbidden(self, *args, **kwargs):
            raise AssertionError("inference forward taken")
        monkeypatch.setattr(APANEncoder, "_encode_inference", forbidden)

    @pytest.mark.parametrize("heads,dim", [(1, 8), (2, 8), (2, 16), (4, 16), (3, 9)])
    @pytest.mark.parametrize("batch", [0, 1, 4, 185, 400])
    def test_bit_equal_to_tensor_forward(self, batch, heads, dim):
        slots = 10 if dim == 16 else 5
        encoder = APANEncoder(embedding_dim=dim, num_slots=slots,
                              num_heads=heads, hidden_dim=2 * dim, dropout=0.0,
                              rng=np.random.default_rng(heads))
        encoder.eval()
        z, mails, times, valid = make_inputs(batch, slots=slots, dim=dim,
                                             seed=batch, ragged=True)
        fast, fast_att, slow, slow_att = self.both_forwards(
            encoder, z, mails, times, valid)
        assert fast.shape == (batch, dim)
        assert fast_att.shape == (batch, heads, 1, slots)
        assert np.array_equal(fast, slow)
        assert np.array_equal(fast_att, slow_att)

    @pytest.mark.parametrize("empty_rows", [(0, 3), range(6)])
    def test_bit_equal_with_empty_mailboxes(self, empty_rows):
        encoder = make_encoder("vectorized", seed=2)
        z, mails, times, valid = make_inputs(6, seed=3, empty_rows=empty_rows)
        fast, fast_att, slow, slow_att = self.both_forwards(
            encoder, z, mails, times, valid)
        assert np.isfinite(fast).all()
        assert np.array_equal(fast, slow)
        assert np.array_equal(fast_att, slow_att)
        # Empty mailboxes attend uniformly (and contribute nothing).
        assert np.array_equal(fast_att[list(empty_rows)],
                              np.full((len(empty_rows), 2, 1, 5), 1.0 / 5))

    def test_eval_mode_with_dropout_layers_is_bit_equal(self):
        """dropout > 0 builds Dropout layers into the head; eval() idles them."""
        encoder = make_encoder("vectorized", dropout=0.3, seed=4)
        z, mails, times, valid = make_inputs(37, seed=6, ragged=True)
        fast, fast_att, slow, slow_att = self.both_forwards(
            encoder, z, mails, times, valid)
        assert np.array_equal(fast, slow)
        assert np.array_equal(fast_att, slow_att)

    def test_link_decoder_inference_is_bit_equal(self):
        for dropout in (0.0, 0.3):
            decoder = LinkPredictionDecoder(8, hidden_dim=16, dropout=dropout,
                                            rng=np.random.default_rng(0))
            decoder.eval()
            rng = np.random.default_rng(1)
            for batch in (0, 1, 2, 200):
                src = Tensor(rng.normal(size=(batch, 8)))
                dst = Tensor(rng.normal(size=(batch, 8)))
                with no_grad():
                    fast = decoder(src, dst)
                slow = decoder(src, dst)  # grad enabled: the Tensor path
                assert slow.requires_grad and not fast.requires_grad
                assert fast.shape == slow.shape == (batch,)
                assert np.array_equal(fast.data, slow.data)

    def test_grad_enabled_takes_tensor_path(self, tensor_path_only):
        """Gradients are those of the Tensor forward, unchanged."""
        z, mails, times, valid = make_inputs(9, seed=5, ragged=True)
        encoder = make_encoder("vectorized", seed=3)
        out = encoder.encode_many(Tensor(z), mails, times, valid, 100.0)
        assert out.requires_grad
        (out * out).sum().backward()
        oracle = make_encoder("reference", seed=3)
        ref = oracle.encode_many(Tensor(z), mails, times, valid, 100.0)
        (ref * ref).sum().backward()
        for grad, grad_ref in zip((p.grad for p in encoder.parameters()),
                                  (p.grad for p in oracle.parameters())):
            np.testing.assert_allclose(grad, grad_ref, atol=ATOL)

    def test_time_encoding_takes_tensor_path(self, tensor_path_only):
        encoder = make_encoder("vectorized", positional="time")
        z, mails, times, valid = make_inputs(5, ragged=True)
        with no_grad():
            out = encoder.encode_many(Tensor(z), mails, times, valid, 100.0)
        assert out.shape == (5, 8)

    def test_live_dropout_takes_tensor_path(self, tensor_path_only):
        encoder = make_encoder("vectorized", dropout=0.5)
        encoder.train()
        z, mails, times, valid = make_inputs(64, ragged=True)
        with no_grad():
            first = encoder.encode_many(Tensor(z), mails, times, valid, 100.0)
            second = encoder.encode_many(Tensor(z), mails, times, valid, 100.0)
        assert not np.array_equal(first.data, second.data)  # masks were drawn

    def test_reference_engine_takes_tensor_path(self, tensor_path_only):
        """The oracle is compared against the inference forward, never via it."""
        z, mails, times, valid = make_inputs(4, ragged=True)
        with no_grad():
            make_encoder("reference").encode_many(Tensor(z), mails, times,
                                                  valid, 100.0)

    def test_inference_forward_is_actually_taken(self, tensor_path_only):
        """The guard fixture bites: eval + no_grad + learned does dispatch."""
        z, mails, times, valid = make_inputs(4, ragged=True)
        with no_grad(), pytest.raises(AssertionError, match="inference forward"):
            make_encoder("vectorized").encode_many(Tensor(z), mails, times,
                                                   valid, 100.0)


class TestEngineWiring:
    def test_no_engine_option(self):
        """The oracle lives in the tests: no production knob selects it."""
        with pytest.raises(TypeError):
            APANEncoder(embedding_dim=8, num_slots=5, engine="reference")
        z, mails, times, valid = make_inputs(2)
        with pytest.raises(TypeError):
            make_encoder("vectorized").encode_many(
                Tensor(z), mails, times, valid, 0.0, engine="reference")


class TestGatherMany:
    def test_matches_read_and_inverse_roundtrip(self):
        rng = np.random.default_rng(0)
        mailbox = Mailbox(num_nodes=30, num_slots=4, mail_dim=6)
        nodes = rng.integers(0, 30, 50).astype(np.int64)
        mailbox.deliver(nodes, rng.normal(size=(50, 6)),
                        np.sort(rng.uniform(0, 10, 50)))

        src = rng.integers(0, 30, 8)
        dst = rng.integers(0, 30, 8)
        neg = rng.integers(0, 30, 8)
        gather = mailbox.gather_many(src, dst, neg)
        assert isinstance(gather, MailboxGather)
        flat = np.concatenate([src, dst, neg])
        # Distinct nodes only, each query row served by its node's stack row.
        assert len(gather.nodes) == len(np.unique(flat))
        assert len(gather) == len(gather.nodes)
        np.testing.assert_array_equal(gather.nodes[gather.inverse], flat)
        mails, times, valid = mailbox.read(gather.nodes)
        np.testing.assert_array_equal(gather.mails, mails)
        np.testing.assert_array_equal(gather.times, times)
        np.testing.assert_array_equal(gather.valid, valid)

    def test_requires_a_group_and_validates_range(self):
        mailbox = Mailbox(num_nodes=5, num_slots=2, mail_dim=3)
        with pytest.raises(ValueError):
            mailbox.gather_many()
        with pytest.raises(IndexError):
            mailbox.gather_many(np.array([0, 7]))


class TestModelLevelEquivalence:
    def test_streamed_embeddings_match_across_encoder_engines(self):
        """Full APAN streaming path: both encoder engines, same embeddings."""
        rng = np.random.default_rng(7)
        num_nodes, dim, num_events, batch_size = 25, 6, 120, 30
        src = rng.integers(0, num_nodes, num_events).astype(np.int64)
        dst = rng.integers(0, num_nodes, num_events).astype(np.int64)
        timestamps = np.sort(rng.uniform(0.0, 300.0, num_events))
        features = rng.normal(size=(num_events, dim))

        outputs = {}
        for engine in ("reference", "vectorized"):
            config = APANConfig(num_mailbox_slots=4, num_neighbors=4,
                                num_hops=2, mlp_hidden_dim=16, dropout=0.0,
                                seed=0)
            model = APAN(num_nodes, dim, config)
            if engine == "reference":
                use_reference_encoder(model.encoder)
            model.eval()
            collected = []
            for begin in range(0, num_events, batch_size):
                stop = begin + batch_size
                batch = EventBatch(
                    src=src[begin:stop], dst=dst[begin:stop],
                    timestamps=timestamps[begin:stop],
                    edge_features=features[begin:stop],
                    labels=np.zeros(stop - begin),
                    edge_ids=np.arange(begin, stop),
                )
                embeddings = model.compute_embeddings(batch)
                collected.append(embeddings.src.data.copy())
                collected.append(embeddings.dst.data.copy())
                model.update_state(batch, embeddings)
            outputs[engine] = np.concatenate(collected)
        np.testing.assert_allclose(outputs["vectorized"], outputs["reference"],
                                   atol=1e-8)
