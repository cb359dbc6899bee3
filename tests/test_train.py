"""Training loop: selection, determinism, invariants."""

import weakref

import numpy as np
import pytest

from patchformer.config import ModelConfig
from patchformer.data import LosoFold, loso_split
from patchformer.errors import TrainingDivergedError
from patchformer.model import build
from patchformer.losses import cross_entropy
from patchformer.optim import AdamState, adam_step
from patchformer.rng import Rng
from patchformer.synth import SynthEffect, synth_generate
from patchformer.tensor import Tensor, softmax
from patchformer.train import TrainConfig, evaluate_segments, predict_proba, train


@pytest.fixture
def small_fold(small_loso_config, high_snr_dataset):
    return loso_split(high_snr_dataset, "S01", rng=Rng(1))


def quick_tc(**kw):
    base = dict(epochs=2, batch_size=16, seed=5)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_history_structure_and_epoch_one(self, small_loso_config, small_fold):
        model = build(small_loso_config, Rng(2))
        best_state, best_epoch, history = train(model, small_fold, quick_tc(epochs=1), Rng(3))
        assert len(history) == 1 and best_epoch == 0
        assert set(history[0]) == {"epoch", "lr", "train_loss", "val_acc"}
        assert best_state is not None and "head.weight" in best_state

    def test_same_seed_identical_history(self, small_loso_config, small_fold):
        h = []
        for _ in range(2):
            model = build(small_loso_config, Rng(2))
            _, _, history = train(model, small_fold, quick_tc(), Rng(3))
            h.append(history)
        assert h[0] == h[1]

    def test_lr_zero_freezes_parameters(self, small_loso_config, small_fold):
        model = build(small_loso_config, Rng(2))
        before = {n: p.data.copy() for n, p in model.parameters.items()}
        bn_before = model.buffers["tcnn.bn.running_mean"].copy()
        train(model, small_fold, quick_tc(lr0=1e-30, epochs=1), Rng(3))
        for name, p in model.parameters.items():
            np.testing.assert_allclose(p.data, before[name], atol=1e-20)
        # BN running statistics still move in train mode
        assert not np.allclose(model.buffers["tcnn.bn.running_mean"], bn_before)

    def test_selection_prefers_earliest_tie(self, small_loso_config, small_fold):
        model = build(small_loso_config, Rng(2))
        _, best_epoch, history = train(model, small_fold, quick_tc(epochs=3), Rng(3))
        accs = [row["val_acc"] for row in history]
        assert best_epoch == accs.index(max(accs))

    def test_empty_train_rejected(self, small_loso_config, high_snr_dataset):
        empty = high_snr_dataset.subset(np.array([], dtype=int))
        some = high_snr_dataset.subset(np.arange(4))
        fold = LosoFold("S01", empty, some, some)
        with pytest.raises(ValueError, match="empty"):
            train(build(small_loso_config, Rng(0)), fold, quick_tc(), Rng(0))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_reports_epoch(self, small_loso_config, small_fold):
        model = build(small_loso_config, Rng(2))
        model.parameters["head.weight"].data[...] = 1e38  # force overflow
        with pytest.raises(TrainingDivergedError, match="epoch 0"):
            train(model, small_fold, quick_tc(lr0=1e3), Rng(3))

    def test_best_state_restores_best_val_acc(self, small_loso_config, small_fold):
        model = build(small_loso_config, Rng(2))
        best_state, best_epoch, history = train(model, small_fold, quick_tc(epochs=3), Rng(3))
        model.load_state(best_state)
        probs = predict_proba(model, small_fold.val.X, 16)
        from patchformer.metrics import accuracy

        acc = accuracy(probs.argmax(axis=1), small_fold.val.y)
        assert acc == pytest.approx(history[best_epoch]["val_acc"])

    def test_a_step_graph_is_freed_before_the_next_forward(self, small_loso_config,
                                                           small_fold, monkeypatch):
        # the loss holds the logits, and the logits their data: the data's
        # weakref is dead only once neither the logits nor the loss is held
        model = build(small_loso_config, Rng(2))
        forward, refs = model.forward, []

        def checked_forward(x, mode="eval", rng=None):
            if mode == "train":
                assert all(ref() is None for ref in refs), f"step {len(refs) - 1} still held"
            logits = forward(x, mode, rng)
            if mode == "train":
                refs.append(weakref.ref(logits.data))
            return logits

        monkeypatch.setattr(model, "forward", checked_forward)
        train(model, small_fold, quick_tc(epochs=1, batch_size=8), Rng(3))
        assert len(refs) > 2


class TestTinyOverfit:
    def test_memorizes_eight_segments(self):
        cfg = ModelConfig(c=4, l=64, f_s=16.0, k=4, local_graphs=[[0, 1], [2], [3]],
                          l_t=4, l_step=2, l_token=8, n_head=2, n_layers=1,
                          dropout_p=0.0)
        ds = synth_generate(1, 4, 4, 64, 16.0, SynthEffect(freq_hz=4.0, amplitude=2.0), Rng(5))
        assert ds.n == 8
        model = build(cfg, Rng(1))
        state = AdamState.for_params(model.parameters)
        X = ds.X[:, None, :, :].astype(np.float32)
        reached = None
        for step in range(300):
            logits = model.forward(Tensor(X), mode="train", rng=Rng(100 + step))
            loss = cross_entropy(logits, ds.y)
            model.zero_grad()
            loss.backward()
            adam_step(model.parameters, state, 1e-3)
            preds = model.forward(Tensor(X)).data.argmax(axis=1)
            if (preds == ds.y).all():
                reached = step
                break
        assert reached is not None, "failed to reach 100% train accuracy in 300 steps"


class TestEvaluate:
    def test_probability_rows(self, small_loso_config, high_snr_dataset):
        model = build(small_loso_config, Rng(2))
        probs = predict_proba(model, high_snr_dataset.X[:10], batch_size=4)
        assert probs.shape == (10, 2)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-5)

    def test_probabilities_match_a_recorded_forward_bit_for_bit(self, small_loso_config,
                                                                high_snr_dataset):
        model = build(small_loso_config, Rng(2))
        X = high_snr_dataset.X[:8]
        logits = model.forward(Tensor(X[:, None].astype(model.dtype)), mode="eval")
        assert logits.requires_grad  # this forward recorded a graph
        np.testing.assert_array_equal(predict_proba(model, X, batch_size=8),
                                      softmax(logits, axis=-1).data)

    def test_metric_bundle(self, small_loso_config, high_snr_dataset):
        model = build(small_loso_config, Rng(2))
        ev = evaluate_segments(model, high_snr_dataset.subset(np.arange(24)), 8)
        assert set(ev) >= {"acc", "auc", "macro_f1", "preds", "probs"}
        assert 0.0 <= ev["auc"] <= 1.0
