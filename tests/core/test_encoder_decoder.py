"""Tests for the APAN attention encoder, decoders and configuration."""

import numpy as np
import pytest

from repro.core.config import APANConfig
from repro.core.decoder import (
    EdgeClassificationDecoder,
    LinkPredictionDecoder,
    NodeClassificationDecoder,
)
from repro.core.encoder import APANEncoder
from repro.nn.tensor import Tensor


def read_like_mailbox(batch=3, slots=5, dim=8, seed=0, empty_rows=()):
    rng = np.random.default_rng(seed)
    mails = rng.normal(size=(batch, slots, dim))
    times = np.sort(rng.uniform(0, 100, size=(batch, slots)), axis=1)
    valid = np.ones((batch, slots), dtype=bool)
    for row in empty_rows:
        valid[row] = False
        mails[row] = 0.0
        times[row] = 0.0
    return mails, times, valid


class TestAPANEncoder:
    def test_output_shape(self, rng):
        encoder = APANEncoder(embedding_dim=8, num_slots=5, rng=rng)
        mails, times, valid = read_like_mailbox()
        out = encoder(Tensor(rng.normal(size=(3, 8))), mails, times, valid, 100.0)
        assert out.shape == (3, 8)

    def test_rejects_mailbox_shape_mismatch(self, rng):
        encoder = APANEncoder(embedding_dim=8, num_slots=5, rng=rng)
        mails, times, valid = read_like_mailbox(slots=4)
        with pytest.raises(ValueError):
            encoder(Tensor(rng.normal(size=(3, 8))), mails, times, valid, 0.0)

    def test_rejects_bad_positional_mode(self, rng):
        with pytest.raises(ValueError):
            APANEncoder(embedding_dim=8, num_slots=5, positional_encoding="fourier", rng=rng)

    def test_empty_mailbox_rows_are_finite_and_depend_on_last_embedding(self, rng):
        encoder = APANEncoder(embedding_dim=8, num_slots=5, dropout=0.0, rng=rng)
        encoder.eval()
        mails, times, valid = read_like_mailbox(empty_rows=(0,))
        z1 = rng.normal(size=(3, 8))
        out1 = encoder(Tensor(z1), mails, times, valid, 100.0).data
        assert np.isfinite(out1).all()
        z2 = z1.copy()
        # Perturb a single coordinate (layer norm is invariant to adding a
        # constant to every coordinate, so the perturbation must not be uniform).
        z2[0, 0] += 1.0
        out2 = encoder(Tensor(z2), mails, times, valid, 100.0).data
        assert not np.allclose(out1[0], out2[0])

    def test_mail_content_changes_output(self, rng):
        encoder = APANEncoder(embedding_dim=8, num_slots=5, dropout=0.0, rng=rng)
        encoder.eval()
        mails, times, valid = read_like_mailbox()
        z = rng.normal(size=(3, 8))
        out1 = encoder(Tensor(z), mails, times, valid, 100.0).data
        out2 = encoder(Tensor(z), mails + 1.0, times, valid, 100.0).data
        assert not np.allclose(out1, out2)

    def test_positional_encoding_breaks_permutation_invariance(self, rng):
        """Learned position embeddings make slot order matter (Eq. 2)."""
        encoder = APANEncoder(embedding_dim=8, num_slots=4, dropout=0.0, rng=rng)
        encoder.eval()
        mails, times, valid = read_like_mailbox(batch=1, slots=4)
        z = rng.normal(size=(1, 8))
        out1 = encoder(Tensor(z), mails, times, valid, 100.0).data
        out2 = encoder(Tensor(z), mails[:, ::-1].copy(), times[:, ::-1].copy(), valid, 100.0).data
        assert not np.allclose(out1, out2)

    def test_time_encoding_variant(self, rng):
        encoder = APANEncoder(embedding_dim=8, num_slots=5, dropout=0.0,
                              positional_encoding="time", rng=rng)
        encoder.eval()
        mails, times, valid = read_like_mailbox()
        out = encoder(Tensor(rng.normal(size=(3, 8))), mails, times, valid, 200.0)
        assert out.shape == (3, 8)
        assert np.isfinite(out.data).all()

    def test_attention_weights_exposed(self, rng):
        encoder = APANEncoder(embedding_dim=8, num_slots=5, dropout=0.0, rng=rng)
        encoder.eval()
        mails, times, valid = read_like_mailbox()
        encoder(Tensor(rng.normal(size=(3, 8))), mails, times, valid, 100.0)
        weights = encoder.last_attention_weights
        assert weights.shape[0] == 3
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-8)

    def test_gradients_flow_to_all_parameters(self, rng):
        encoder = APANEncoder(embedding_dim=8, num_slots=5, dropout=0.0, rng=rng)
        mails, times, valid = read_like_mailbox()
        out = encoder(Tensor(rng.normal(size=(3, 8))), mails, times, valid, 100.0)
        (out * out).sum().backward()
        grads = [p.grad is not None for p in encoder.parameters()]
        assert all(grads)


class TestDecoders:
    def test_link_decoder_shape(self, rng):
        decoder = LinkPredictionDecoder(8, rng=rng)
        out = decoder(Tensor(rng.normal(size=(5, 8))), Tensor(rng.normal(size=(5, 8))))
        assert out.shape == (5,)

    def test_link_decoder_is_asymmetric_in_inputs(self, rng):
        decoder = LinkPredictionDecoder(8, dropout=0.0, rng=rng)
        decoder.eval()
        a, b = rng.normal(size=(1, 8)), rng.normal(size=(1, 8))
        assert decoder(Tensor(a), Tensor(b)).item() != pytest.approx(
            decoder(Tensor(b), Tensor(a)).item(), abs=1e-9)

    def test_edge_decoder_shapes(self, rng):
        decoder = EdgeClassificationDecoder(8, 6, rng=rng)
        out = decoder(Tensor(rng.normal(size=(4, 8))), rng.normal(size=(4, 6)),
                      Tensor(rng.normal(size=(4, 8))))
        assert out.shape == (4,)

    def test_edge_decoder_multiclass(self, rng):
        decoder = EdgeClassificationDecoder(8, 6, num_classes=3, rng=rng)
        out = decoder(Tensor(rng.normal(size=(4, 8))), rng.normal(size=(4, 6)),
                      Tensor(rng.normal(size=(4, 8))))
        assert out.shape == (4, 3)

    def test_edge_decoder_uses_edge_features(self, rng):
        decoder = EdgeClassificationDecoder(8, 6, dropout=0.0, rng=rng)
        decoder.eval()
        z = rng.normal(size=(1, 8))
        e1, e2 = rng.normal(size=(1, 6)), rng.normal(size=(1, 6))
        assert decoder(Tensor(z), e1, Tensor(z)).item() != pytest.approx(
            decoder(Tensor(z), e2, Tensor(z)).item(), abs=1e-9)

    def test_node_decoder_shapes(self, rng):
        decoder = NodeClassificationDecoder(8, rng=rng)
        assert decoder(Tensor(rng.normal(size=(7, 8)))).shape == (7,)
        multi = NodeClassificationDecoder(8, num_classes=4, rng=rng)
        assert multi(Tensor(rng.normal(size=(7, 8)))).shape == (7, 4)


class TestAPANConfig:
    def test_defaults_match_paper(self):
        config = APANConfig()
        assert config.num_mailbox_slots == 10
        assert config.num_neighbors == 10
        assert config.num_attention_heads == 2
        assert config.num_hops == 2
        assert config.mlp_hidden_dim == 80
        assert config.learning_rate == pytest.approx(1e-4)
        assert config.batch_size == 200
        assert config.dropout == pytest.approx(0.1)
        assert config.early_stopping_patience == 5

    def test_validate_accepts_defaults(self):
        assert APANConfig().validate() is not None

    @pytest.mark.parametrize("field,value", [
        ("num_mailbox_slots", 0),
        ("num_neighbors", -1),
        ("num_hops", 0),
        ("dropout", 1.5),
        ("learning_rate", 0.0),
        ("batch_size", 0),
        ("num_attention_heads", 0),
    ])
    def test_validate_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            APANConfig(**{field: value}).validate()

    def test_replace_creates_modified_copy(self):
        base = APANConfig()
        changed = base.replace(batch_size=500, num_hops=1)
        assert changed.batch_size == 500 and changed.num_hops == 1
        assert base.batch_size == 200

    @pytest.mark.parametrize("removed", ["propagation_engine",
                                         "encoder_engine", "extra"])
    def test_replace_changes_one_field_and_rejects_removed_ones(self, removed):
        base = APANConfig()
        changed = base.replace(dropout=0.25)
        assert changed.dropout == 0.25 and base.dropout == pytest.approx(0.1)
        assert changed == APANConfig(dropout=0.25)
        with pytest.raises(TypeError):
            base.replace(**{removed: "reference"})
        with pytest.raises(TypeError):
            APANConfig(**{removed: "reference"})
        assert base == APANConfig()

    def test_as_dict_roundtrip(self):
        config = APANConfig(num_mailbox_slots=7)
        rebuilt = APANConfig(**config.as_dict())
        assert rebuilt == config and rebuilt.num_mailbox_slots == 7
