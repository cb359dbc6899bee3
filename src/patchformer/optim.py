"""Adam optimizer with bias correction, plus the cosine learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TrainingDivergedError
from .tensor import Tensor, pack


def cosine_lr(t: int, period: int, lr0: float, eta_min: float = 0.0) -> float:
    """Annealed rate at epoch t of `period`: lr0 at t=0, eta_min at t=period."""
    if not 0 <= t <= period:
        raise ValueError(f"epoch {t} outside [0, {period}]")
    return eta_min + 0.5 * (lr0 - eta_min) * (1.0 + math.cos(math.pi * t / period))


@dataclass
class AdamState:
    """First/second moments laid out like the parameters' flat array, and the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: dict[str, Tensor]) -> "AdamState":
        flat = pack(params)
        return cls(np.zeros_like(flat), np.zeros_like(flat))


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
              weight_decay: float = 0.0, decoupled_decay: bool = False) -> None:
    """One bias-corrected update over all parameters, in place.

    Weight decay is coupled by default (added to the gradient, classic Adam
    usage); set decoupled_decay to subtract lr*wd*w directly instead. A grad
    of None counts as zero. The update runs on the parameters' flat array
    (see `pack`); being elementwise, it equals one update per parameter bit
    for bit.
    """
    w = pack(params)
    g = np.concatenate([np.zeros(p.data.size, w.dtype) if p.grad is None else np.ravel(p.grad)
                        for p in params.values()], dtype=w.dtype, casting="same_kind")
    if not np.isfinite(g).all():
        first = int(np.argmin(np.isfinite(g)))
        for name, p in params.items():
            if first < p.data.size:
                raise TrainingDivergedError(f"non-finite gradient for parameter {name!r}")
            first -= p.data.size
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    if weight_decay and not decoupled_decay:
        g += w.dtype.type(weight_decay) * w
    m, v = state.m, state.v
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    g *= g
    g *= 1.0 - beta2
    v += g
    # g's buffer is free from here on; it holds the denominator, then the decay
    denom = np.divide(v, bc2, out=g)
    np.sqrt(denom, out=denom)
    denom += eps
    update = m / bc1
    update /= denom
    if weight_decay and decoupled_decay:
        update += np.multiply(w, weight_decay, out=denom)
    update *= w.dtype.type(lr)
    w -= update
