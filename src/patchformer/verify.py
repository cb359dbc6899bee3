"""Gradient-check suites: per-kernel randomized trials and the full model.

Every check runs in float64 with eps=1e-5 central differences; anything
above 1e-5 max relative error counts as a failure.
"""

from __future__ import annotations

import numpy as np

from .config import ModelConfig
from .errors import ConfigurationError
from .gradcheck import grad_check
from .losses import cross_entropy
from .model import aggregate, build
from .rng import Rng
from .tensor import (
    BatchNormState,
    Tensor,
    avg_pool_time,
    batch_norm,
    conv_spatial,
    conv_temporal,
    dropout,
    layer_norm,
    leaky_relu,
    linear,
    multi_head_attention,
    relu,
    sliding_windows,
    softmax,
)

THRESHOLD = 1e-5


def _t(rng, *shape, scale=1.0):
    return Tensor(scale * rng.normal(0.0, 1.0, shape), dtype=np.float64)


def _check_conv_temporal(rng):
    b, fi, c, t = rng.integers(1, 3), rng.integers(1, 3), rng.integers(1, 4), rng.integers(3, 9)
    fo, k = rng.integers(1, 4), rng.integers(1, int(t) + 1)
    x, ker, bias = _t(rng, b, fi, c, t), _t(rng, fo, fi, 1, k), _t(rng, fo)
    w = rng.normal(0.0, 1.0, (b, fo, c, t))
    return lambda x, ker, bias: (conv_temporal(x, ker, bias) * Tensor(w)).sum(), [x, ker, bias]


def _check_conv_spatial(rng):
    b, fi, c, t = rng.integers(1, 3), rng.integers(1, 3), rng.integers(1, 4), rng.integers(2, 7)
    fo = rng.integers(1, 4)
    x, ker, bias = _t(rng, b, fi, c, t), _t(rng, fo, fi, c, 1), _t(rng, fo)
    w = rng.normal(0.0, 1.0, (b, fo, 1, t))
    return lambda x, ker, bias: (conv_spatial(x, ker, bias) * Tensor(w)).sum(), [x, ker, bias]


def _check_avg_pool(rng):
    b, t = rng.integers(1, 3), rng.integers(4, 10)
    length = rng.integers(1, int(t) + 1)
    step = rng.integers(1, 4)
    x = _t(rng, b, t)
    n = (int(t) - int(length)) // int(step) + 1
    w = rng.normal(0.0, 1.0, (b, n))
    return lambda x: (avg_pool_time(x, int(length), int(step)) * Tensor(w)).sum(), [x]


def _check_sliding_windows(rng):
    b, t = rng.integers(1, 3), rng.integers(4, 10)
    size = rng.integers(1, int(t) + 1)
    step = rng.integers(1, 4)
    x = _t(rng, b, t)
    n = (int(t) - int(size)) // int(step) + 1
    w = rng.normal(0.0, 1.0, (b, n, int(size)))
    return lambda x: (sliding_windows(x, int(size), int(step)) * Tensor(w)).sum(), [x]


def _check_batch_norm_train(rng):
    b, nf, c, t = rng.integers(2, 4), rng.integers(1, 4), rng.integers(1, 3), rng.integers(2, 5)
    x, gamma, beta = _t(rng, b, nf, c, t), _t(rng, nf), _t(rng, nf)
    w = rng.normal(0.0, 1.0, (b, nf, c, t))

    def f(x, gamma, beta):
        bn = BatchNormState(gamma, beta, np.zeros(int(nf)), np.ones(int(nf)))
        return (batch_norm(x, bn, "train") * Tensor(w)).sum()

    return f, [x, gamma, beta]


def _check_batch_norm_eval(rng):
    b, nf, c, t = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 3), rng.integers(2, 5)
    x, gamma, beta = _t(rng, b, nf, c, t), _t(rng, nf), _t(rng, nf)
    rm = rng.normal(0.0, 1.0, int(nf))
    rv = rng.uniform(0.5, 2.0, int(nf))
    w = rng.normal(0.0, 1.0, (b, nf, c, t))

    def f(x, gamma, beta):
        bn = BatchNormState(gamma, beta, rm, rv)
        return (batch_norm(x, bn, "eval") * Tensor(w)).sum()

    return f, [x, gamma, beta]


def _check_layer_norm(rng):
    b, d = rng.integers(1, 5), rng.integers(2, 7)
    x, gamma, beta = _t(rng, b, d), _t(rng, d), _t(rng, d)
    w = rng.normal(0.0, 1.0, (b, d))
    return lambda x, g, bt: (layer_norm(x, g, bt) * Tensor(w)).sum(), [x, gamma, beta]


def _check_linear(rng):
    b, din, dout = rng.integers(1, 4), rng.integers(1, 5), rng.integers(1, 5)
    x, wgt, bias = _t(rng, b, din), _t(rng, din, dout), _t(rng, dout)
    w = rng.normal(0.0, 1.0, (b, dout))
    return lambda x, wgt, bias: (linear(x, wgt, bias) * Tensor(w)).sum(), [x, wgt, bias]


def _check_relu(rng):
    x = _t(rng, rng.integers(2, 6), rng.integers(2, 6))
    # keep activations away from the kink so central differences stay valid
    x.data[np.abs(x.data) < 1e-3] += 0.1
    w = rng.normal(0.0, 1.0, x.shape)
    return lambda x: (relu(x) * Tensor(w)).sum(), [x]


def _check_leaky_relu(rng):
    x = _t(rng, rng.integers(2, 6), rng.integers(2, 6))
    x.data[np.abs(x.data) < 1e-3] += 0.1
    slope = float(rng.uniform(0.005, 0.3))
    w = rng.normal(0.0, 1.0, x.shape)
    return lambda x: (leaky_relu(x, slope) * Tensor(w)).sum(), [x]


def _check_softmax(rng):
    x = _t(rng, rng.integers(1, 4), rng.integers(2, 6), scale=3.0)
    w = rng.normal(0.0, 1.0, x.shape)
    return lambda x: (softmax(x, -1) * Tensor(w)).sum(), [x]


def _check_dropout(rng):
    x = _t(rng, rng.integers(2, 6), rng.integers(2, 6))
    p = float(rng.uniform(0.1, 0.7))
    seed = int(rng.integers(0, 2**31))
    w = rng.normal(0.0, 1.0, x.shape)
    # a fresh Rng per call replays the same mask, keeping f pure
    return lambda x: (dropout(x, p, Rng(seed), "train") * Tensor(w)).sum(), [x]


def _check_attention(rng):
    heads = int(rng.integers(1, 3))
    d = heads * int(rng.integers(1, 4))
    s = int(rng.integers(1, 5))
    x = _t(rng, s, d)
    mats = [_t(rng, d, d, scale=0.5) for _ in range(4)]
    biases = [_t(rng, d, scale=0.1) for _ in range(4)]
    w = rng.normal(0.0, 1.0, (s, d))

    def f(x, wq, bq, wk, bk, wv, bv, wo, bo):
        out = multi_head_attention(x, heads, wq, bq, wk, bk, wv, bv, wo, bo)
        return (out * Tensor(w)).sum()

    return f, [x, mats[0], biases[0], mats[1], biases[1], mats[2], biases[2], mats[3], biases[3]]


def _check_attention_dropout(rng):
    # train mode with dropout on the weights, at both head widths in every
    # trial: width 1 (the fused op) and width 2 (the composite graph); a
    # fresh Rng per call replays the same masks, keeping f pure
    b, s, d = int(rng.integers(1, 3)), int(rng.integers(2, 6)), 2 * int(rng.integers(1, 3))
    x = _t(rng, b, s, d)
    mats = [_t(rng, d, d, scale=0.5) for _ in range(4)]
    biases = [_t(rng, d, scale=0.1) for _ in range(4)]
    p = float(rng.uniform(0.1, 0.7))
    seed = int(rng.integers(0, 2**31))
    w = rng.normal(0.0, 1.0, (2, b, s, d))

    def f(x, *params):
        return sum((multi_head_attention(x, heads, *params, dropout_p=p, rng=Rng(seed + j),
                                         mode="train") * Tensor(w[j])).sum()
                   for j, heads in enumerate((d, d // 2)))

    return f, [x, mats[0], biases[0], mats[1], biases[1], mats[2], biases[2], mats[3], biases[3]]


def _check_aggregate(rng):
    b, c, d = int(rng.integers(1, 3)), int(rng.integers(3, 6)), int(rng.integers(2, 5))
    perm = rng.permutation(c)
    cut = int(rng.integers(1, c))
    regions = [perm[:cut].tolist(), perm[cut:].tolist()]
    x = _t(rng, b, c, d)
    w = rng.normal(0.0, 1.0, (b, 2, d))
    return lambda x: (aggregate(x, regions) * Tensor(w)).sum(), [x]


def _check_cross_entropy(rng):
    b, k = int(rng.integers(2, 5)), int(rng.integers(2, 4))
    x = _t(rng, b, k, scale=2.0)
    labels = rng.integers(0, k, b)
    return lambda x: cross_entropy(x, labels), [x]


def _check_arithmetic(rng):
    a = _t(rng, 3, 4)
    b = _t(rng, 3, 4)
    c = _t(rng, 4, 2)
    w = rng.normal(0.0, 1.0, (3, 2))

    def f(a, b, c):
        mixed = (a * b + a - b * 0.5) @ c
        return (mixed * Tensor(w)).sum() + (a * a).mean()

    return f, [a, b, c]


OP_CHECKS = {
    "conv_temporal": _check_conv_temporal,
    "conv_spatial": _check_conv_spatial,
    "avg_pool_time": _check_avg_pool,
    "sliding_windows": _check_sliding_windows,
    "batch_norm_train": _check_batch_norm_train,
    "batch_norm_eval": _check_batch_norm_eval,
    "layer_norm": _check_layer_norm,
    "linear": _check_linear,
    "relu": _check_relu,
    "leaky_relu": _check_leaky_relu,
    "softmax": _check_softmax,
    "dropout": _check_dropout,
    "multi_head_attention": _check_attention,
    "multi_head_attention_dropout": _check_attention_dropout,
    "aggregate": _check_aggregate,
    "cross_entropy": _check_cross_entropy,
    "arithmetic": _check_arithmetic,
}


def trial_rng(name: str, trial: int, seed: int = 0) -> np.random.Generator:
    """Generator of one randomized gradient trial, the same in every process."""
    return np.random.default_rng(Rng(seed).spawn(f"{name}:{trial}").seed)


def op_grad_checks(trials: int = 20, eps: float = 1e-5, seed: int = 0) -> dict:
    """Worst relative error per op over `trials` randomized shapes/values."""
    if trials < 1:
        raise ConfigurationError(f"gradient checks need at least 1 trial, got {trials}")
    results = {}
    for name, make in OP_CHECKS.items():
        worst = 0.0
        for trial in range(trials):
            f, inputs = make(trial_rng(name, trial, seed))
            worst = max(worst, grad_check(f, inputs, eps=eps))
        results[name] = worst
    return results


def toy_config() -> ModelConfig:
    """Smallest full-pipeline configuration used for whole-model checking."""
    return ModelConfig(
        c=4, l=64, f_s=16.0, k=4, local_graphs=[[0, 1], [2], [3]],
        l_t=4, l_step=2, l_token=8, n_head=2, n_layers=1, dropout_p=0.0,
    )


def full_model_grad_check(eps: float = 1e-5, seed: int = 3) -> float:
    """Finite-difference check of the entire pipeline in float64.

    Eval-mode batch norm (stats warmed by one train-mode pass beforehand),
    no dropout; the loss is cross entropy against fixed labels. Checks the
    gradient w.r.t. every parameter and the input batch. Parameters are
    jittered off their initial values first: the identity-start local filter
    (weights 1, bias 0) otherwise parks a dense cluster of activations on
    the ReLU kink, where central differences are invalid.
    """
    cfg = toy_config()
    model = build(cfg, Rng(seed), dtype=np.float64)
    jitter = np.random.default_rng(seed + 1000)
    for p in model.parameters.values():
        p.data[...] += jitter.uniform(-0.1, 0.1, p.data.shape)
    data_rng = np.random.default_rng(seed)
    x_np = data_rng.normal(size=(2, 1, cfg.c, cfg.l))
    labels = np.array([0, 1])
    model.forward(Tensor(x_np), mode="train", rng=Rng(seed))  # warm BN stats

    x = Tensor(x_np, dtype=np.float64)
    inputs = [x, *model.parameters.values()]

    def f(*tensors):
        return cross_entropy(model.forward(tensors[0], mode="eval"), labels)

    return grad_check(f, inputs, eps=eps)
