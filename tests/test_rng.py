"""Deterministic replay of every random stream."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchformer.rng import Rng


def test_same_seed_same_sequence():
    a, b = Rng(123), Rng(123)
    np.testing.assert_array_equal(a.uniform(-1, 1, 100), b.uniform(-1, 1, 100))
    np.testing.assert_array_equal(a.normal(0, 1, 50), b.normal(0, 1, 50))
    np.testing.assert_array_equal(a.permutation(37), b.permutation(37))


def test_different_seeds_differ():
    assert not np.array_equal(Rng(1).uniform(0, 1, 64), Rng(2).uniform(0, 1, 64))


def test_keep_mask_bit_identical():
    np.testing.assert_array_equal(Rng(9).keep_mask(0.5, (128,)),
                                  Rng(9).keep_mask(0.5, (128,)))


SHAPES = [(), (0,), (1,), (7,), (8,), (3, 5), (2, 0, 3), (4, 3, 7), (9, 65)]


def _same_state(a: dict, b: dict) -> bool:
    if a.keys() != b.keys():
        return False
    for key in a:
        x, y = a[key], b[key]
        if isinstance(x, dict):
            if not (isinstance(y, dict) and _same_state(x, y)):
                return False
        elif not np.array_equal(x, y):
            return False
    return True


@given(p=st.sampled_from([0.1, 0.3, 0.999999]), shape=st.sampled_from(SHAPES),
       before=st.integers(0, 7), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=150, deadline=None)
def test_keep_mask_equals_float32_uniforms(p, shape, before, seed):
    """Raw-word masks for a p that is no multiple of 2**-8 equal
    `random(float32) >= p` and leave the same stream, also after an odd
    number of float32 draws left a half-word buffered."""
    rng = Rng(seed)
    twin = np.random.Generator(np.random.Philox(key=rng.seed))
    rng._gen.random(before, dtype=np.float32)
    twin.random(before, dtype=np.float32)
    mask = rng.keep_mask(p, shape)
    expected = twin.random(shape, dtype=np.float32) >= p
    assert mask.dtype == np.bool_ and mask.shape == np.shape(expected)
    np.testing.assert_array_equal(mask, expected)
    np.testing.assert_array_equal(rng._gen.random(9, dtype=np.float32),
                                  twin.random(9, dtype=np.float32))


def _bit_chunk_mask(bitgen, p, shape):
    """Keep-mask of a dyadic p built one element at a time from raw words:
    element i reads bits [i*r, (i+1)*r) of the words taken as one
    little-endian bit string, r being the narrowest of 1, 2, 4, 8 bits with
    p * 2**r whole, and is kept where that chunk is >= p * 2**r."""
    r = next(r for r in (1, 2, 4, 8) if (p * 2**r).is_integer())
    n = math.prod(shape)
    if n == 0:
        return np.zeros(shape, dtype=bool)
    words = [int(w) for w in bitgen.random_raw(math.ceil(n * r / 64))]
    keep = [(words[i * r // 64] >> (i * r % 64)) & (2**r - 1) >= p * 2**r for i in range(n)]
    return np.array(keep, dtype=bool).reshape(shape)


@given(p=st.sampled_from([0.5, 0.25, 0.125, 0.75, 3 / 256]), shape=st.sampled_from(SHAPES),
       before=st.integers(0, 7), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=150, deadline=None)
def test_dyadic_keep_mask_equals_the_bit_chunk_reference(p, shape, before, seed):
    """A dyadic p reads r-bit chunks of raw words and leaves the generator as
    a twin that drew the same words, a half-word buffered before the draw
    (odd `before`) included: the next float32 draw still starts with it."""
    rng = Rng(seed)
    twin = np.random.Generator(np.random.Philox(key=rng.seed))
    rng._gen.random(before, dtype=np.float32)
    twin.random(before, dtype=np.float32)
    mask = rng.keep_mask(p, shape)
    expected = _bit_chunk_mask(twin.bit_generator, p, shape)
    assert mask.dtype == np.bool_ and mask.shape == expected.shape
    np.testing.assert_array_equal(mask, expected)
    assert _same_state(rng._gen.bit_generator.state, twin.bit_generator.state)
    np.testing.assert_array_equal(rng._gen.random(9, dtype=np.float32),
                                  twin.random(9, dtype=np.float32))


@given(p=st.sampled_from([0.5, 0.25, 0.125, 0.75, 3 / 256, 0.1, 0.3]),
       shape=st.sampled_from(SHAPES), before=st.integers(0, 7), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=150, deadline=None)
def test_keep_bits_are_the_packed_keep_mask(p, shape, before, seed):
    """keep_bits holds keep_mask's mask, one little-endian bit per element,
    and draws what keep_mask draws, a half-word buffered before the draw
    (odd `before`) included."""
    rng, twin = Rng(seed), Rng(seed)
    rng._gen.random(before, dtype=np.float32)
    twin._gen.random(before, dtype=np.float32)
    bits = rng.keep_bits(p, shape)
    mask = twin.keep_mask(p, shape)
    packed = np.packbits(mask, bitorder="little")
    assert bits.dtype == np.uint8 and bits.shape == packed.shape
    # the first n bits; those past n in the last byte are unspecified
    np.testing.assert_array_equal(np.unpackbits(bits, count=mask.size, bitorder="little"),
                                  np.unpackbits(packed, count=mask.size, bitorder="little"))
    assert _same_state(rng._gen.bit_generator.state, twin._gen.bit_generator.state)
    np.testing.assert_array_equal(rng._gen.random(9, dtype=np.float32),
                                  twin._gen.random(9, dtype=np.float32))


@pytest.mark.parametrize("p", [0.5, 0.0])
@pytest.mark.parametrize("n", [1, 63, 64, 70, 1000])
def test_one_bit_keep_bits_are_the_raw_words(p, n):
    """At p = 0.5 the packed mask is the raw Philox words' own bytes; p = 0
    keeps everything and draws the same words."""
    rng = Rng(3)
    bits = rng.keep_bits(p, (n,))
    bitgen = np.random.Philox(key=rng.seed)
    words = bitgen.random_raw(-(-n // 64)).astype("<u8").tobytes()[:-(-n // 8)]
    assert bits.tobytes() == (words if p else b"\xff" * len(words))
    assert _same_state(rng._gen.bit_generator.state, bitgen.state)


def test_spawn_is_stateless():
    # child streams depend only on (seed, label), not on parent consumption
    parent_a, parent_b = Rng(42), Rng(42)
    parent_b.uniform(0, 1, 1000)
    np.testing.assert_array_equal(parent_a.spawn("x").normal(0, 1, 16),
                                  parent_b.spawn("x").normal(0, 1, 16))


def test_spawn_labels_independent():
    r = Rng(7)
    assert r.spawn("a").seed != r.spawn("b").seed
    assert not np.array_equal(r.spawn("a").uniform(0, 1, 32),
                              r.spawn("b").uniform(0, 1, 32))


@pytest.mark.parametrize("p", [0.25, 0.5, 0.125, 3 / 256, 0.1])
def test_keep_mask_type_and_rate(p):
    mask = Rng(5).keep_mask(p, (1000, 1000))
    assert mask.dtype == np.bool_ and mask.shape == (1000, 1000)
    sigma = math.sqrt(p * (1.0 - p) / mask.size)
    assert abs(mask.mean() - (1.0 - p)) < 5 * sigma
