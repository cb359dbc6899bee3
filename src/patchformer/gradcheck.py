"""Finite-difference verification of analytic gradients.

Runs entirely in float64: central differences at eps=1e-5 give roughly 1e-10
truncation error, so a correct backward pass lands far below the 1e-5
acceptance threshold while an off-by-a-factor bug lands far above it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError
from .tensor import Tensor


def grad_check(f, inputs, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    f maps the input tensors to a scalar Tensor and must be re-runnable
    (no state mutation that changes its value between calls). Every input
    must be float64; each element is perturbed by +-eps in turn. Returns
    max over elements of |analytic - numeric| / max(1, |analytic|, |numeric|),
    or inf if any value involved is non-finite.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ConfigurationError(f"finite-difference step eps must be finite and > 0, got {eps}")
    inputs = [t if isinstance(t, Tensor) else Tensor(t, dtype=np.float64) for t in inputs]
    for t in inputs:
        if t.data.dtype != np.float64:
            raise ValueError("grad_check requires float64 inputs")
        t.requires_grad = True
        t.grad = None

    out = f(*inputs)
    if out.data.size != 1:
        raise ValueError(f"grad_check target must be scalar, got shape {out.shape}")
    out.backward()
    analytic = [
        np.zeros_like(t.data) if t.grad is None else np.array(t.grad, dtype=np.float64)
        for t in inputs
    ]

    worst = 0.0
    for t, ana in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        ana_flat = ana.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            f_plus = float(f(*inputs).data)
            flat[i] = saved - eps
            f_minus = float(f(*inputs).data)
            flat[i] = saved
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float(ana_flat[i])
            if not (math.isfinite(numeric) and math.isfinite(a)):
                return math.inf
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if err > worst:
                worst = err
    return worst
