"""Tests for checkpoint save/load."""

import numpy as np
import pytest

from repro.core import APAN, APANConfig
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.nn.layers import MLP
from repro.nn.tensor import Tensor, no_grad


def make_model(seed=0):
    return APAN(15, 6, APANConfig(num_mailbox_slots=3, num_neighbors=3,
                                  mlp_hidden_dim=8, dropout=0.0, seed=seed))


def warm_up(model, event_batch_factory):
    batch = event_batch_factory(num_events=6, num_nodes=15, feature_dim=6)
    with no_grad():
        embeddings = model.compute_embeddings(batch)
        model.update_state(batch, embeddings)
    return batch


class TestCheckpoint:
    def test_roundtrip_restores_parameters_and_state(self, tmp_path, event_batch_factory):
        model = make_model(seed=0)
        warm_up(model, event_batch_factory)
        path = save_checkpoint(model, tmp_path / "ckpt.npz", metadata={"epoch": 3})

        restored = make_model(seed=9)
        metadata = load_checkpoint(restored, path)
        assert metadata == {"epoch": 3.0}

        probe = event_batch_factory(num_events=4, num_nodes=15, feature_dim=6,
                                    seed=2, start_time=500.0)
        model.eval(), restored.eval()
        with no_grad():
            expected = model.compute_embeddings(probe).src.data
            actual = restored.compute_embeddings(probe).src.data
        np.testing.assert_allclose(actual, expected)
        np.testing.assert_array_equal(restored.mailbox.valid, model.mailbox.valid)

    def test_checkpoint_format_is_pinned(self, tmp_path, event_batch_factory):
        """The exact keys a checkpoint holds: renaming one would stop older
        checkpoints from loading.  The mailbox round trip is byte-equal."""
        model = make_model(seed=0)
        warm_up(model, event_batch_factory)
        path = save_checkpoint(model, tmp_path / "ckpt.npz")
        with np.load(path) as stored:
            keys = set(stored.files)
        assert {key for key in keys if not key.startswith("param::")} == {
            "state::node_state", "state::last_update", "state::mailbox_mails",
            "state::mailbox_times", "state::mailbox_valid",
            "state::mailbox_next_slot", "state::mailbox_delivered"}
        assert {key for key in keys if key.startswith("param::")} == {
            "param::" + key for key in model.state_dict()}

        restored = make_model(seed=9)
        load_checkpoint(restored, path)
        for attribute in ("mails", "mail_times", "valid", "_next_slot",
                          "_delivered"):
            saved = getattr(model.mailbox, attribute)
            loaded = getattr(restored.mailbox, attribute)
            assert loaded.dtype == saved.dtype
            assert loaded.tobytes() == saved.tobytes()
        assert model.mailbox._delivered.sum() > 0

    def test_checkpoint_without_metadata(self, tmp_path, event_batch_factory):
        model = make_model()
        warm_up(model, event_batch_factory)
        path = save_checkpoint(model, tmp_path / "no_meta.npz")
        assert load_checkpoint(make_model(seed=4), path) == {}

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(make_model(), tmp_path / "absent.npz")

    def test_non_checkpoint_file_raises(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, something=np.zeros(3))
        with pytest.raises(ValueError):
            load_checkpoint(make_model(), path)

    def test_architecture_mismatch_raises(self, tmp_path):
        model = make_model()
        path = save_checkpoint(model, tmp_path / "ckpt.npz")
        other = APAN(15, 8, APANConfig(num_mailbox_slots=3, num_neighbors=3,
                                       mlp_hidden_dim=8, seed=0))
        with pytest.raises((ValueError, KeyError)):
            load_checkpoint(other, path)

    def test_plain_module_without_streaming_state(self, tmp_path, rng):
        source = MLP(4, 8, 2, rng=rng)
        path = save_checkpoint(source, tmp_path / "mlp.npz")
        target = MLP(4, 8, 2, rng=np.random.default_rng(77))
        load_checkpoint(target, path)
        x = Tensor(rng.normal(size=(3, 4)))
        np.testing.assert_allclose(target(x).data, source(x).data)

    def test_creates_parent_directories(self, tmp_path):
        model = make_model()
        path = save_checkpoint(model, tmp_path / "nested" / "dir" / "ckpt.npz")
        assert path.exists()
