"""Deterministic random streams.

All randomness in the package flows through :class:`Rng`, a thin wrapper
around numpy's counter-based Philox generator: the same seed and the same
call sequence produce the same bits on every platform. Child streams are
derived statelessly from (seed, label), so e.g. per-fold streams do not
depend on how much the parent stream was consumed.
"""

from __future__ import annotations

import hashlib
import math

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

        Equal, bit for bit and in the generator state it leaves, to
        `random(shape, dtype=float32) >= p_drop`. A float32 uniform is
        `(u >> 8) * 2**-24` of one 32-bit draw u, so comparing the raw draws
        with `ceil(float32(p_drop) * 2**24) << 8` skips the conversion.
        """
        keep = np.empty(shape, dtype=bool)
        flat = keep.reshape(-1)
        n = flat.size
        if n == 0:
            return keep
        steps = math.ceil(float(np.float32(p_drop)) * 2**24)
        threshold = min(max(steps, 0), 1 << 24) << 8  # 2**32 keeps nothing
        bitgen = self._gen.bit_generator
        state = bitgen.state
        head = 0
        if state["has_uint32"]:  # the half-word an earlier odd draw left buffered
            flat[0] = state["uinteger"] >= threshold
            state["has_uint32"] = 0
            bitgen.state = state
            head = 1
        pairs = (n - head) // 2
        words = bitgen.random_raw(pairs).view(np.uint32)
        np.greater_equal(words, threshold, out=flat[head:head + 2 * pairs])
        if (n - head) % 2:
            flat[-1] = int(self._gen.integers(0, 2**32, dtype=np.uint32)) >= threshold
        return keep

    def __repr__(self):
        return f"Rng(seed={self.seed})"
