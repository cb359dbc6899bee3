"""Deterministic random streams.

All randomness in the package flows through :class:`Rng`, a thin wrapper
around numpy's counter-based Philox generator: the same seed and the same
call sequence produce the same bits on every platform. Child streams are
derived statelessly from (seed, label), so e.g. per-fold streams do not
depend on how much the parent stream was consumed.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


class Rng:
    """Counter-based deterministic generator keyed by a 64-bit seed."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def spawn(self, label: str) -> "Rng":
        """Derive an independent child stream from (seed, label)."""
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        return Rng(int.from_bytes(digest[:8], "little"))

    def uniform(self, low: float, high: float, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def normal(self, loc: float, scale: float, size=None) -> np.ndarray:
        return self._gen.normal(loc, scale, size)

    def integers(self, low, high=None, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def keep_mask(self, p_drop: float, shape) -> np.ndarray:
        """Boolean keep-mask where each element survives with prob 1 - p_drop.

        Drawn from float32 uniforms (24-bit resolution), which cost less than float64.
        """
        return self._gen.random(shape, dtype=np.float32) >= p_drop

    def __repr__(self):
        return f"Rng(seed={self.seed})"
