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

# Chunk widths of the bit-mask path: divisors of 8, so no chunk straddles a byte.
_CHUNK_BITS = (1, 2, 4, 8)


def _dyadic(p: float):
    """(bits, threshold) with p == threshold / 2**bits for the narrowest chunk
    width in _CHUNK_BITS, or None when p in [0, 1) needs more than 8 bits."""
    if not 0.0 <= p < 1.0:
        return None
    for bits in _CHUNK_BITS:
        scaled = p * (1 << bits)
        if scaled == int(scaled):
            return bits, int(scaled)
    return None


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

        A dyadic p_drop = m / 2**r with r <= 8 takes r' bits per element, r'
        being r rounded up to 1, 2, 4 or 8: `ceil(n * r' / 64)` raw Philox
        words are read as consecutive little-endian r'-bit chunks, and an
        element is kept where its chunk is >= p_drop * 2**r'. At r' = 1 the
        mask is `keep_bits` unpacked; wider chunks are compared in place, so
        the mask is the unpacked array itself. This path leaves alone the
        half-word that an earlier odd float32 draw may have buffered; the
        next float32 draw still starts with it.

        Any other p_drop is equal, bit for bit and in the generator state it
        leaves, to `random(shape, dtype=float32) >= p_drop`. A float32 uniform
        is `(u >> 8) * 2**-24` of one 32-bit draw u, so comparing the raw
        draws with `ceil(float32(p_drop) * 2**24) << 8` skips the conversion.
        """
        shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
        n = math.prod(shape)
        if n == 0:
            return np.empty(shape, dtype=bool)
        dyadic = _dyadic(float(p_drop))
        if dyadic is not None and dyadic[0] == 1:
            bits = self.keep_bits(p_drop, shape)
            return np.unpackbits(bits, count=n, bitorder="little").view(bool).reshape(shape)
        if dyadic is not None:
            return self._bit_mask(*dyadic, n).reshape(shape)
        keep = np.empty(shape, dtype=bool)
        flat = keep.reshape(-1)
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

    def keep_bits(self, p_drop: float, shape) -> np.ndarray:
        """`keep_mask(p_drop, shape)` packed as little-endian bits: element i
        of the flattened mask is bit i % 8 of byte i // 8 of this uint8 array
        of ceil(n / 8) bytes (bits past n are unspecified). The draws, and
        the generator state left, are keep_mask's. At p_drop = 0.5 the bytes
        are the raw Philox words themselves, so no bool array is built; any
        other p_drop packs keep_mask's result."""
        shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
        n = math.prod(shape)
        dyadic = _dyadic(float(p_drop))
        if n == 0 or dyadic is None or dyadic[0] != 1:
            return np.packbits(self.keep_mask(p_drop, shape), bitorder="little")
        # 1-bit chunks: a set bit keeps (threshold 1), or every element is kept (0)
        words = self._gen.bit_generator.random_raw(-(-n // 64))
        octets = words.astype("<u8", copy=False).view(np.uint8)[:-(-n // 8)]
        return octets if dyadic[1] else np.full_like(octets, 0xFF)

    def _bit_mask(self, bits: int, threshold: int, n: int) -> np.ndarray:
        """Flat keep-mask of n elements from `bits`-bit chunks (2, 4 or 8) of raw words."""
        words = self._gen.bit_generator.random_raw(-(-n * bits // 64))
        octets = words.astype("<u8", copy=False).view(np.uint8)
        if bits == 8:
            chunks = octets[:n]
        else:
            per = 8 // bits
            chunks = np.empty((octets.size, per), dtype=np.uint8)
            for j in range(per):
                np.right_shift(octets, j * bits, out=chunks[:, j])
            chunks &= (1 << bits) - 1
            chunks = chunks.reshape(-1)[:n]
        return np.greater_equal(chunks, threshold, out=chunks.view(bool))

    def __repr__(self):
        return f"Rng(seed={self.seed})"
