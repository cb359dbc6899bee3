"""Adam optimizer with bias correction, plus the cosine learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingDivergedError
from .tensor import Tensor


def cosine_lr(t: int, period: int, lr0: float, eta_min: float = 0.0) -> float:
    """Annealed rate at epoch t of `period`: lr0 at t=0, eta_min at t=period."""
    if not 0 <= t <= period:
        raise ValueError(f"epoch {t} outside [0, {period}]")
    return eta_min + 0.5 * (lr0 - eta_min) * (1.0 + math.cos(math.pi * t / period))


@dataclass
class AdamState:
    """Per-parameter first/second moments and the shared step counter."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0

    @classmethod
    def for_params(cls, params: dict[str, Tensor]) -> "AdamState":
        state = cls()
        for name, p in params.items():
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        return state


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
              weight_decay: float = 0.0, decoupled_decay: bool = False) -> None:
    """One bias-corrected update over all parameters, in place.

    Weight decay is coupled by default (added to the gradient, classic Adam
    usage); set decoupled_decay to subtract lr*wd*w directly instead. A grad
    of None counts as zero.
    """
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        elif not np.isfinite(g).all():
            raise TrainingDivergedError(f"non-finite gradient for parameter {name!r}")
        g = np.asarray(g, dtype=p.data.dtype)
        if weight_decay and not decoupled_decay:
            g = g + p.data.dtype.type(weight_decay) * p.data
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        if weight_decay and decoupled_decay:
            update = update + weight_decay * p.data
        p.data[...] -= p.data.dtype.type(lr) * update
