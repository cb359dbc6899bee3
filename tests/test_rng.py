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


@given(p=st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5, 0.999999]),
       shape=st.sampled_from([(), (0,), (1,), (7,), (8,), (3, 5), (2, 0, 3), (4, 3, 7)]),
       before=st.integers(0, 7), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=150, deadline=None)
def test_keep_mask_equals_float32_uniforms(p, shape, before, seed):
    """Raw-word masks equal `random(float32) >= p` and leave the same stream,
    also after an odd number of float32 draws left a half-word buffered."""
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


@pytest.mark.parametrize("p", [0.25, 0.5])
def test_keep_mask_type_and_rate(p):
    mask = Rng(5).keep_mask(p, (1000, 1000))
    assert mask.dtype == np.bool_ and mask.shape == (1000, 1000)
    sigma = math.sqrt(p * (1.0 - p) / mask.size)
    assert abs(mask.mean() - (1.0 - p)) < 5 * sigma
