"""Training loss."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of the true class, log-sum-exp stable.

    logits (B, K), labels (B,) integer class ids in [0, K). One recorded op
    whose backward is (softmax - onehot) * g / B, with softmax recovered from
    the stored log-probabilities.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"logits must be (B, K), got shape {logits.shape}")
    b, k = logits.shape
    if labels.shape != (b,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {b}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"labels must lie in [0, {k})")

    rows = np.arange(b)
    logp = logits.data - logits.data.max(axis=-1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=-1, keepdims=True))

    def bw(g):
        scale = g / b
        grad = np.exp(logp) * scale
        grad[rows, labels] -= scale
        return (grad,)

    return Tensor._from_op(-logp[rows, labels].mean(), (logits,), bw)
