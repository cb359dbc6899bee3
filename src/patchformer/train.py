"""Training loop with validation-selected checkpointing."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import LosoFold, SegmentSet
from .errors import ConfigurationError, TrainingDivergedError
from .losses import cross_entropy
from .metrics import accuracy, macro_f1, roc_auc
from .model import PatchFormerModel
from .optim import AdamState, adam_step, cosine_lr
from .rng import Rng
from .tensor import Tensor, no_grad, softmax


@dataclass
class TrainConfig:
    """The full optimization recipe; defaults match the reference setup."""

    lr0: float = 1e-3
    weight_decay: float = 1e-5
    epochs: int = 200
    batch_size: int = 64
    eta_min: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    decoupled_decay: bool = False

    def validate(self) -> "TrainConfig":
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr0 <= 0:
            raise ConfigurationError(f"lr0 must be positive, got {self.lr0}")
        return self

    def to_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)


def predict_proba(model: PatchFormerModel, X: np.ndarray, batch_size: int = 64) -> np.ndarray:
    """Eval-mode class probabilities, batched; X is (n, c, l). Records no graph."""
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    probs = []
    with no_grad():
        for start in range(0, len(X), batch_size):
            xb = X[start : start + batch_size][:, None, :, :]
            logits = model.forward(Tensor(xb.astype(model.dtype)), mode="eval")
            probs.append(softmax(logits, axis=-1).data)
    return np.concatenate(probs) if probs else np.empty((0, model.config.n_classes))


def evaluate_segments(model: PatchFormerModel, ds: SegmentSet, batch_size: int = 64) -> dict:
    """Accuracy / AUC / macro-F1 of eval-mode predictions on a segment set."""
    probs = predict_proba(model, ds.X, batch_size)
    preds = probs.argmax(axis=1)
    return {
        "acc": accuracy(preds, ds.y),
        "auc": roc_auc(probs[:, 1], ds.y),
        "macro_f1": macro_f1(preds, ds.y, model.config.n_classes),
        "preds": preds,
        "probs": probs,
    }


def step(model: PatchFormerModel, adam: AdamState, xb: np.ndarray, yb: np.ndarray, lr: float,
         tc: TrainConfig, rng: Rng) -> float:
    """One optimization step on the batch xb (B, 1, c, l), labels yb:
    train-mode forward with dropout drawn from `rng`, cross-entropy, backward
    and an Adam update at learning rate `lr`. Returns the loss; a non-finite
    loss is returned before backward, and no update is made."""
    logits = model.forward(Tensor(xb), mode="train", rng=rng)
    loss = cross_entropy(logits, yb)
    loss_val = float(loss.data)
    if not math.isfinite(loss_val):
        return loss_val
    model.zero_grad()
    loss.backward()
    # backward has freed the step's graph; this drops its two end nodes,
    # whose arrays would otherwise live on through the update
    del logits, loss
    adam_step(
        model.parameters, adam, lr,
        beta1=tc.beta1, beta2=tc.beta2, eps=tc.eps,
        weight_decay=tc.weight_decay, decoupled_decay=tc.decoupled_decay,
    )
    return loss_val


def train(model: PatchFormerModel, fold: LosoFold, tc: TrainConfig, rng: Rng,
          log_fn=None):
    """Fit on fold.train, select the epoch with the best validation accuracy.

    Returns (best_state, best_epoch, history) where best_state is a full
    parameter+buffer snapshot (ties resolve to the earliest epoch) and
    history holds one {epoch, lr, train_loss, val_acc} row per epoch.
    """
    tc.validate()
    if fold.train.n == 0:
        raise ValueError("training set is empty")
    if fold.val.n == 0:
        raise ValueError("validation set is empty; cannot select a checkpoint")

    state = AdamState.for_params(model.parameters)
    batch_rng = rng.spawn("batches")
    drop_rng = rng.spawn("dropout")
    n = fold.train.n

    best_acc = -math.inf
    best_epoch = -1
    best_state = None
    history = []

    for epoch in range(tc.epochs):
        lr = cosine_lr(epoch, tc.epochs, tc.lr0, tc.eta_min)
        order = batch_rng.permutation(n)
        losses = []
        for start in range(0, n, tc.batch_size):
            idx = order[start : start + tc.batch_size]
            xb = fold.train.X[idx][:, None, :, :].astype(model.dtype)
            loss_val = step(model, state, xb, fold.train.y[idx], lr, tc, drop_rng)
            if not math.isfinite(loss_val):
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
            losses.append(loss_val)

        val_probs = predict_proba(model, fold.val.X, tc.batch_size)
        val_acc = accuracy(val_probs.argmax(axis=1), fold.val.y)
        row = {
            "epoch": epoch,
            "lr": lr,
            "train_loss": float(np.mean(losses)),
            "val_acc": val_acc,
        }
        history.append(row)
        if log_fn is not None:
            log_fn(row)
        if val_acc > best_acc:
            best_acc = val_acc
            best_epoch = epoch
            best_state = model.state_dict()

    return best_state, best_epoch, history
