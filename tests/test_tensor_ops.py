"""Forward semantics of the differentiable kernels."""

import contextlib
import ctypes
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchformer import tensor
from patchformer.config import reference_config
from patchformer.errors import ConfigurationError, ShapeError
from patchformer.gradcheck import grad_check
from patchformer.model import build
from patchformer.rng import Rng
from patchformer.tensor import (
    BatchNormState,
    Tensor,
    avg_pool_time,
    batch_norm,
    concat,
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
from patchformer.verify import THRESHOLD

import oracles


@pytest.fixture
def pool_sizes():
    """Kernel pool sizes a memory bound must hold at, larger than most
    hosts' CPU counts; the default size is restored afterwards."""
    yield (1, 2, 4, 8)
    tensor.set_pool_threads(tensor.cpu_count())


# Agreement of a kernel with the float64 composite ops it replaced, as a
# fraction of each result's largest magnitude: float64 rounding, and in
# float32 a bound above the closed-form width-1 attention's largest reading
# over these tests (~1.1e-6).
AGREEMENT = {np.float64: 1e-12, np.float32: 4e-6}


def _assert_agree(dtype, outputs, gradients=None, floor=0.0):
    """Each (got, want) pair of `outputs` and `gradients` ({name: pair}, got
    in `dtype`, want float64) agrees to AGREEMENT[dtype] of want's largest
    magnitude. For a gradient that is at least `floor` and the largest
    magnitude of all the gradients, since some are 0 in exact arithmetic
    (bk's: softmax ignores a shift of a row's scores)."""
    gradients = gradients or {}
    floor = max([floor, *(np.abs(want).max() for _, want in gradients.values())])
    for name, (got, want) in {**outputs, **gradients}.items():
        assert got.dtype == dtype and got.shape == want.shape, name
        scale = max(np.abs(want).max(), floor if name in gradients else 0.0)
        np.testing.assert_allclose(got, want, rtol=0, atol=AGREEMENT[dtype] * scale, err_msg=name)


def t4(values):
    return Tensor(np.asarray(values, dtype=np.float64).reshape(1, 1, 1, -1))


class TestConvTemporal:
    def test_hand_example_even_kernel(self):
        # [1,2,3] with kernel [1,1]: trailing zero pad -> [3,5,3]
        out = conv_temporal(t4([1, 2, 3]), t4([1, 1]), Tensor(np.zeros(1)))
        np.testing.assert_allclose(out.data.ravel(), [3, 5, 3])

    def test_k1_unit_kernel_is_identity(self, np_rng):
        x = Tensor(np_rng.normal(size=(2, 1, 3, 7)))
        out = conv_temporal(x, t4([1.0]), Tensor(np.zeros(1)))
        np.testing.assert_array_equal(out.data[:, 0], x.data[:, 0])

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 11])
    def test_same_padding_preserves_length(self, np_rng, k):
        x = Tensor(np_rng.normal(size=(1, 2, 3, 11)))
        kernels = Tensor(np_rng.normal(size=(4, 2, 1, k)))
        out = conv_temporal(x, kernels, Tensor(np.zeros(4)))
        assert out.shape == (1, 4, 3, 11)

    def test_matches_naive_oracle(self, np_rng):
        for _ in range(10):
            b, fi, c, t = np_rng.integers(1, 3), np_rng.integers(1, 3), np_rng.integers(1, 4), np_rng.integers(2, 9)
            fo, k = np_rng.integers(1, 4), np_rng.integers(1, t + 1)
            x = np_rng.normal(size=(b, fi, c, t))
            w = np_rng.normal(size=(fo, fi, 1, k))
            bias = np_rng.normal(size=fo)
            got = conv_temporal(Tensor(x), Tensor(w), Tensor(bias)).data
            want = oracles.conv_temporal_naive(x, w, bias)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_reference_shape(self, np_rng):
        x = Tensor(np_rng.normal(size=(1, 1, 28, 1000)).astype(np.float32))
        kernels = Tensor(np_rng.normal(size=(32, 1, 1, 125)).astype(np.float32))
        out = conv_temporal(x, kernels, Tensor(np.zeros(32, dtype=np.float32)))
        assert out.shape == (1, 32, 28, 1000)

    def test_shape_mismatch_raises(self, np_rng):
        x = Tensor(np_rng.normal(size=(1, 2, 3, 5)))
        kernels = Tensor(np_rng.normal(size=(4, 3, 1, 2)))  # wrong F_in
        with pytest.raises(ShapeError):
            conv_temporal(x, kernels, Tensor(np.zeros(4)))


class TestConvSpatial:
    def test_unit_kernel_sums_channels(self):
        x = Tensor(np.array([[1, 2, 3], [3, 2, 1]], dtype=np.float64).reshape(1, 1, 2, 3))
        out = conv_spatial(x, Tensor(np.ones((1, 1, 2, 1))), Tensor(np.zeros(1)))
        np.testing.assert_allclose(out.data.ravel(), [4, 4, 4])

    def test_selector_kernel_picks_row(self, np_rng):
        x = Tensor(np_rng.normal(size=(1, 1, 3, 6)))
        w = np.zeros((1, 1, 3, 1))
        w[0, 0, 0, 0] = 1.0
        out = conv_spatial(x, Tensor(w), Tensor(np.zeros(1)))
        np.testing.assert_allclose(out.data[0, 0, 0], x.data[0, 0, 0])

    def test_matches_naive_oracle(self, np_rng):
        for _ in range(10):
            b, fi, c, t = np_rng.integers(1, 3), np_rng.integers(1, 3), np_rng.integers(1, 5), np_rng.integers(1, 7)
            fo = np_rng.integers(1, 4)
            x = np_rng.normal(size=(b, fi, c, t))
            w = np_rng.normal(size=(fo, fi, c, 1))
            bias = np_rng.normal(size=fo)
            got = conv_spatial(Tensor(x), Tensor(w), Tensor(bias)).data
            np.testing.assert_allclose(got, oracles.conv_spatial_naive(x, w, bias),
                                       rtol=1e-12, atol=1e-12)

    def test_reference_shape_and_height_check(self, np_rng):
        x = Tensor(np_rng.normal(size=(1, 32, 28, 125)).astype(np.float32))
        k = Tensor(np_rng.normal(size=(32, 32, 28, 1)).astype(np.float32))
        assert conv_spatial(x, k, Tensor(np.zeros(32, dtype=np.float32))).shape == (1, 32, 1, 125)
        bad = Tensor(np_rng.normal(size=(32, 32, 27, 1)).astype(np.float32))
        with pytest.raises(ShapeError):
            conv_spatial(x, bad, Tensor(np.zeros(32, dtype=np.float32)))


class TestAvgPool:
    def test_two_element_means(self):
        out = avg_pool_time(Tensor(np.array([1.0, 2.0, 3.0, 4.0])), 2, 2)
        np.testing.assert_allclose(out.data, [1.5, 3.5])

    def test_constant_input(self):
        out = avg_pool_time(Tensor(np.full((2, 9), 3.25)), 3, 2)
        np.testing.assert_allclose(out.data, 3.25)

    def test_reference_length(self, np_rng):
        out = avg_pool_time(Tensor(np_rng.normal(size=(1, 1000))), 4, 4)
        assert out.shape == (1, 250)

    @given(t=st.integers(1, 40), length=st.integers(1, 40), step=st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_length_law(self, t, length, step):
        if length > t:
            return
        out = avg_pool_time(Tensor(np.zeros(t)), length, step)
        assert out.shape[-1] == (t - length) // step + 1

    def test_window_longer_than_axis_raises(self):
        with pytest.raises(ShapeError):
            avg_pool_time(Tensor(np.zeros(3)), 4, 1)

    def test_matches_naive(self, np_rng):
        x = np_rng.normal(size=(2, 13))
        got = avg_pool_time(Tensor(x), 4, 3).data
        np.testing.assert_allclose(got, oracles.avg_pool_naive(x, 4, 3), rtol=1e-12)


class TestBatchNorm:
    def _bn(self, f, dtype=np.float64):
        return BatchNormState(Tensor(np.ones(f, dtype=dtype)), Tensor(np.zeros(f, dtype=dtype)),
                              np.zeros(f, dtype=dtype), np.ones(f, dtype=dtype))

    def test_constant_input_gives_zeros(self):
        x = Tensor(np.full((2, 3, 2, 4), 7.0))
        out = batch_norm(x, self._bn(3), "train")
        np.testing.assert_allclose(out.data, 0.0, atol=1e-4)

    def test_train_normalizes_per_feature(self, np_rng):
        x = Tensor(np_rng.normal(2.0, 3.0, size=(4, 3, 2, 5)))
        out = batch_norm(x, self._bn(3), "train").data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-4)

    def test_affine_law(self, np_rng):
        x = np_rng.normal(size=(4, 2, 3, 5))
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
        bn = BatchNormState(Tensor(np.full(2, 2.0)), Tensor(np.full(2, 3.0)),
                            np.zeros(2), np.ones(2))
        out = batch_norm(Tensor(x), bn, "train").data
        np.testing.assert_allclose(out, 2.0 * x + 3.0, atol=1e-4)

    def test_train_then_eval_close(self, np_rng):
        # one train pass at momentum 1 makes eval reproduce train stats exactly
        x = Tensor(np_rng.normal(size=(4, 3, 2, 5)))
        bn = self._bn(3)
        bn.momentum = 1.0
        train_out = batch_norm(x, bn, "train").data
        eval_out = batch_norm(x, bn, "eval").data
        n = x.data.size // 3
        # running var is the unbiased estimate; undo the factor for comparison
        np.testing.assert_allclose(eval_out, train_out * np.sqrt((n - 1) / n), atol=1e-4)

    def test_running_stats_update(self, np_rng):
        x = np_rng.normal(1.5, 2.0, size=(8, 2, 4, 8))
        bn = self._bn(2)
        for _ in range(200):
            batch_norm(Tensor(x), bn, "train")
        np.testing.assert_allclose(bn.running_mean, x.mean(axis=(0, 2, 3)), atol=1e-6)

    def test_insufficient_statistics(self):
        x = Tensor(np.ones((1, 3, 1, 1)))
        with pytest.raises(ShapeError):
            batch_norm(x, self._bn(3), "train")

    def test_eval_does_not_touch_running_stats(self, np_rng):
        bn = self._bn(2)
        before = bn.running_mean.copy(), bn.running_var.copy()
        batch_norm(Tensor(np_rng.normal(size=(2, 2, 2, 2))), bn, "eval")
        np.testing.assert_array_equal(bn.running_mean, before[0])
        np.testing.assert_array_equal(bn.running_var, before[1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(4, 3, 2, 5), (16, 8, 6, 40), (3, 2, 1, 9)])
    def test_train_matches_composite_formulas(self, np_rng, dtype, shape):
        f = shape[1]
        x = np_rng.normal(1.5, 2.0, size=shape).astype(dtype)
        g = np_rng.normal(size=shape).astype(dtype)
        gamma, beta = np_rng.normal(size=f).astype(dtype), np_rng.normal(size=f).astype(dtype)
        rm, rv = np_rng.normal(size=f).astype(dtype), np_rng.uniform(0.5, 2, f).astype(dtype)
        bn = BatchNormState(Tensor(gamma, requires_grad=True), Tensor(beta, requires_grad=True),
                            rm.copy(), rv.copy())
        xt = Tensor(x, requires_grad=True)
        out = batch_norm(xt, bn, "train")
        want = oracles.batch_norm_composite(x, gamma, beta, rm, rv, "train", g)
        np.testing.assert_array_equal(out.data, want[0])
        np.testing.assert_array_equal(bn.running_mean, rm)
        np.testing.assert_array_equal(bn.running_var, rv)
        (out * Tensor(g)).sum().backward()
        tol = 1e-12 if dtype == np.float64 else 1e-5
        for got, ref in zip((xt.grad, bn.gamma.grad, bn.beta.grad), want[1:]):
            assert got.dtype == dtype
            np.testing.assert_allclose(got, ref, rtol=tol, atol=tol)

    def test_eval_matches_composite_formulas(self, np_rng):
        shape = (4, 3, 2, 5)
        x, g = np_rng.normal(1.5, 2.0, size=shape), np_rng.normal(size=shape)
        gamma, beta = np_rng.normal(size=3), np_rng.normal(size=3)
        rm, rv = np_rng.normal(size=3), np_rng.uniform(0.5, 2, 3)
        bn = BatchNormState(Tensor(gamma, requires_grad=True), Tensor(beta, requires_grad=True),
                            rm.copy(), rv.copy())
        xt = Tensor(x, requires_grad=True)
        out = batch_norm(xt, bn, "eval")
        (out * Tensor(g)).sum().backward()
        want = oracles.batch_norm_composite(x, gamma, beta, rm, rv, "eval", g)
        for got, ref in zip((out.data, xt.grad, bn.gamma.grad, bn.beta.grad), want):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    def test_eval_zero_input_fully_determined_by_params(self, np_rng):
        # gamma*(0-mu)/sqrt(var+eps)+beta broadcast over each feature map
        gamma, beta = np_rng.normal(size=3), np_rng.normal(size=3)
        rm, rv = np_rng.normal(size=3), np_rng.uniform(0.5, 2.0, 3)
        bn = BatchNormState(Tensor(gamma), Tensor(beta), rm, rv)
        out = batch_norm(Tensor(np.zeros((2, 3, 4, 5))), bn, "eval").data
        expected = gamma * (-rm) / np.sqrt(rv + bn.eps) + beta
        np.testing.assert_allclose(out, expected.reshape(1, 3, 1, 1) *
                                   np.ones((2, 3, 4, 5)), rtol=1e-6)


def _conv_block_inputs(dtype, k=5, t=23):
    rng = np.random.default_rng(k)
    x, kernels, bias, gamma, beta = (Tensor(rng.normal(size=shape).astype(dtype)) for shape in (
        (3, 2, 4, t), (5, 2, 1, k), (5,), (5,), (5,)))
    bn = BatchNormState(gamma, beta, rng.normal(size=5).astype(dtype),
                        rng.uniform(0.5, 2.0, size=5).astype(dtype))
    return x, kernels, bias, bn


def _composite_block(x, kernels, bias, bn, slope, pool):
    z = batch_norm(conv_temporal(x, kernels, bias), bn, "eval")
    return avg_pool_time(leaky_relu(z, slope), pool, pool).data


class TestConvBlock:
    """The no-graph front-end block against the ops it fuses."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("pool", [1, 2, 3, 4, 7])
    def test_bit_identical_to_the_composite_ops(self, dtype, k, pool):
        args = _conv_block_inputs(dtype, k)
        want = _composite_block(*args, 0.01, pool)
        got = tensor._conv_block(*args, 0.01, pool)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", ["pool_over_t", "pool_0", "slope", "gamma", "bias", "f_in"])
    def test_raises_the_composite_ops_errors(self, bad):
        x, kernels, bias, bn = _conv_block_inputs(np.float32)
        slope, pool = 0.01, 2
        if bad == "pool_over_t":
            pool = 24
        elif bad == "pool_0":
            pool = 0
        elif bad == "slope":
            slope = 1.0
        elif bad == "gamma":
            bn.gamma = Tensor(np.ones(4, dtype=np.float32))
        elif bad == "bias":
            bias = Tensor(np.ones(4, dtype=np.float32))
        else:
            x = Tensor(np.ones((3, 1, 4, 23), dtype=np.float32))
        with pytest.raises((ShapeError, ValueError)) as composite:
            _composite_block(x, kernels, bias, bn, slope, pool)
        with pytest.raises(type(composite.value)) as fused:
            tensor._conv_block(x, kernels, bias, bn, slope, pool)
        assert str(fused.value) == str(composite.value)


class TestActivations:
    @pytest.mark.parametrize("x,expect", [(2.0, 2.0), (-1.0, -0.01), (0.0, 0.0)])
    def test_leaky_relu_values(self, x, expect):
        assert leaky_relu(Tensor(np.array(x)), 0.01).data == pytest.approx(expect)

    @pytest.mark.parametrize("x,expect", [(3.0, 3.0), (-3.0, 0.0), (0.0, 0.0)])
    def test_relu_values(self, x, expect):
        assert relu(Tensor(np.array(x))).data == pytest.approx(expect)

    def test_leaky_slope_validation(self):
        with pytest.raises(ValueError):
            leaky_relu(Tensor(np.zeros(2)), 1.5)

    def test_leaky_relu_preserves_dtype(self):
        assert leaky_relu(Tensor(np.zeros(3, dtype=np.float32))).dtype == np.float32


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax(Tensor(np.zeros(2))).data, [0.5, 0.5])

    def test_large_values_stable(self):
        out = softmax(Tensor(np.array([1000.0, 1000.0]))).data
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_shift_invariance(self, np_rng):
        x = np_rng.normal(size=(3, 5))
        a = softmax(Tensor(x), -1).data
        b = softmax(Tensor(x + 17.5), -1).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_sums_to_one(self, values):
        out = softmax(Tensor(np.asarray(values, dtype=np.float32))).data
        assert abs(out.sum() - 1.0) < 1e-6
        assert (out > 0).all()

    @staticmethod
    def _forward_backward(x, axis, g):
        out = softmax(Tensor(x, requires_grad=True), axis)
        (dx,) = out._backward(g)
        return out.data, dx

    @staticmethod
    def _assert_bit_identical(got, want):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(np.signbit(a), np.signbit(b))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1000, 1, 7, 8], ids=["1000-rows", "1-row", "7-rows", "8-rows"])
    def test_any_score_budget_takes_the_whole_array_formulas(self, monkeypatch, dtype, rows):
        # 105 rows of 13, under budgets of whole, single and odd row counts:
        # softmax stays one whole-array pass on the calling thread
        x = _signed_values(dtype, (3, 5, 7, 13), 5) * dtype(4)
        g = _signed_values(dtype, x.shape, 6)
        monkeypatch.setattr(tensor, "_SCORE_BYTES", 4 * rows * 13 * x.itemsize)

        def no_fan_out(task, parts):
            raise AssertionError("softmax fanned out")

        monkeypatch.setattr(tensor, "_fan_out", no_fan_out)
        for axis in (-1, 3):
            self._assert_bit_identical(self._forward_backward(x, axis, g),
                                       oracles.softmax_composite(x, axis, g))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_other_axes_and_strided_arrays_take_the_whole_array_formulas(
            self, dtype):
        x = _signed_values(dtype, (6, 5, 13), 7)
        g = _signed_values(dtype, x.shape, 8)
        strided = x.transpose(2, 1, 0)
        assert not strided.flags.c_contiguous
        cases = [(x, -1, g), (x, 2, g), (x, 0, g), (x, 1, g),  # every axis
                 (strided, -1, g.transpose(2, 1, 0)),
                 (x, -1, g.transpose(2, 1, 0).copy().transpose(2, 1, 0))]  # strided g
        for a, axis, ga in cases:
            self._assert_bit_identical(self._forward_backward(a, axis, ga),
                                       oracles.softmax_composite(a, axis, ga))


class TestMatmul:
    """Forward and backward are numpy's matmul, also at length-1 axes."""

    @staticmethod
    def _grads(a, b, g):
        at, bt = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        out = at @ bt
        ga, gb = out._backward(g)
        return out.data, ga, gb

    @staticmethod
    def _reference(a, b, g):
        unb = tensor._unbroadcast
        return (np.matmul(a, b), unb(np.matmul(g, np.swapaxes(b, -1, -2)), a.shape),
                unb(np.matmul(np.swapaxes(a, -1, -2), g), b.shape))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("a_shape, b_shape", [
        ((5, 1), (1, 4)), ((2, 1, 5, 1), (3, 1, 4)), ((3, 2, 6, 1), (3, 2, 1, 6)),
    ], ids=["2d", "broadcast-batch", "heads"])
    def test_outer_product_forward_equals_matmul(self, dtype, a_shape, b_shape):
        a = _signed_values(dtype, a_shape, 1)
        b = _signed_values(dtype, b_shape, 2)
        out = (Tensor(a) @ Tensor(b)).data
        assert out.flags.c_contiguous and out.dtype == dtype
        np.testing.assert_array_equal(out, np.matmul(a, b))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_outer_product_of_transposed_head_views_is_contiguous(self, dtype):
        # q and k^T as attention takes them: (B, S, H, 1) split into heads
        q = _signed_values(dtype, (2, 9, 3, 1), 3).transpose(0, 2, 1, 3)
        k = _signed_values(dtype, (2, 9, 3, 1), 4).transpose(0, 2, 3, 1)
        assert not q.flags.c_contiguous and not k.flags.c_contiguous
        out = (Tensor(q) @ Tensor(k)).data
        assert out.flags.c_contiguous
        np.testing.assert_array_equal(out, np.matmul(q, k))

    @pytest.mark.parametrize("a_shape, b_shape", [((3, 1), (3, 4)), ((4, 4), (1, 4))])
    def test_a_length_one_axis_that_is_not_contracted_still_mismatches(self, a_shape, b_shape):
        with pytest.raises(ValueError):
            Tensor(np.ones(a_shape)) @ Tensor(np.ones(b_shape))

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((2, 3, 7, 1), (2, 3, 1, 5)),   # forward: q @ k^T
        ((2, 3, 7, 5), (2, 3, 5, 1)),   # input gradient g @ b^T: attn @ v
        ((2, 3, 1, 5), (2, 3, 5, 4)),   # weight gradient a^T @ g
        ((3, 1, 4, 1), (2, 1, 6)),      # all of it with broadcast batch axes
    ], ids=["forward", "input-grad", "weight-grad", "broadcast"])
    def test_each_product_of_forward_and_backward_equals_matmul(self, a_shape, b_shape):
        a = _signed_values(np.float64, a_shape, 5)
        b = _signed_values(np.float64, b_shape, 6)
        g = _signed_values(np.float64, np.matmul(a, b).shape, 7)
        for got, want in zip(self._grads(a, b, g), self._reference(a, b, g)):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)
        # the same through transposed views of the operands
        at = np.swapaxes(np.swapaxes(a, -1, -2).copy(), -1, -2)
        bt = np.swapaxes(np.swapaxes(b, -1, -2).copy(), -1, -2)
        for got, want in zip(self._grads(at, bt, g), self._reference(at, bt, g)):
            np.testing.assert_array_equal(got, want)


class TestDropout:
    def test_p_zero_identity(self, np_rng):
        x = Tensor(np_rng.normal(size=(5, 5)))
        assert dropout(x, 0.0, Rng(0), "train") is x

    def test_eval_identity(self, np_rng):
        x = Tensor(np_rng.normal(size=(5, 5)))
        assert dropout(x, 0.9, None, "eval") is x

    def test_inverted_scaling_mean(self):
        x = Tensor(np.ones(100_000, dtype=np.float64))
        out = dropout(x, 0.5, Rng(7), "train")
        assert abs(out.data.mean() - 1.0) < 0.01

    def test_p_one_rejected(self):
        with pytest.raises(ValueError):
            dropout(Tensor(np.zeros(3)), 1.0, Rng(0), "train")

    def test_mask_replay(self):
        x = Tensor(np.ones((64, 64)))
        a = dropout(x, 0.3, Rng(5), "train").data
        b = dropout(x, 0.3, Rng(5), "train").data
        np.testing.assert_array_equal(a, b)


class TestLinear:
    def test_identity(self, np_rng):
        x = np_rng.normal(size=(3, 4))
        out = linear(Tensor(x), Tensor(np.eye(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, x)

    def test_hand_sum(self):
        out = linear(Tensor(np.array([[1.0, 2.0]])), Tensor(np.array([[1.0], [1.0]])),
                     Tensor(np.array([1.0])))
        np.testing.assert_allclose(out.data, [[4.0]])

    def test_reference_shape(self, np_rng):
        x = Tensor(np_rng.normal(size=(264, 640)).astype(np.float32))
        w = Tensor(np_rng.normal(size=(640, 32)).astype(np.float32))
        assert linear(x, w, Tensor(np.zeros(32, dtype=np.float32))).shape == (264, 32)

    def test_axis_mismatch(self, np_rng):
        with pytest.raises(ShapeError):
            linear(Tensor(np_rng.normal(size=(3, 4))), Tensor(np_rng.normal(size=(5, 2))))


class TestLayerNorm:
    def test_constant_row_zeros(self):
        out = layer_norm(Tensor(np.full((2, 5), 3.0)), Tensor(np.ones(5)), Tensor(np.zeros(5)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-3)

    def test_moments(self, np_rng):
        x = Tensor(np_rng.normal(2.0, 5.0, size=(6, 32)))
        out = layer_norm(x, Tensor(np.ones(32)), Tensor(np.zeros(32))).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-3)

    def test_beta_on_constant_row(self):
        out = layer_norm(Tensor(np.full((1, 4), 2.0)), Tensor(np.ones(4)),
                         Tensor(np.full(4, 5.0)))
        np.testing.assert_allclose(out.data, 5.0, atol=1e-3)


class TestAttention:
    def _params(self, np_rng, d, identity=False):
        if identity:
            mats = [Tensor(np.eye(d)) for _ in range(4)]
        else:
            mats = [Tensor(np_rng.normal(size=(d, d)) * 0.5) for _ in range(4)]
        biases = [Tensor(np.zeros(d)) for _ in range(4)]
        return [v for pair in zip(mats, biases) for v in pair]

    def test_single_token_weight_is_one(self, np_rng):
        # a lone token attends only to itself, so its output is its value projected
        x = np_rng.normal(size=(1, 6))
        params = self._params(np_rng, 6)
        arrays = [p.data for p in params]
        out = multi_head_attention(Tensor(x), 2, *params).data
        assert out.shape == (1, 6)
        np.testing.assert_allclose(out, oracles.attention_naive(x, 2, *arrays),
                                   rtol=1e-12, atol=1e-12)
        wv, bv, wo, bo = arrays[4:]
        np.testing.assert_allclose(out, (x @ wv + bv) @ wo + bo, rtol=1e-12, atol=1e-12)

    def test_matches_naive_oracle(self, np_rng):
        for _ in range(5):
            d, heads, s = 6, 2, 4
            x = np_rng.normal(size=(s, d))
            params = self._params(np_rng, d)
            got = multi_head_attention(Tensor(x), heads, *params).data
            want = oracles.attention_naive(
                x, heads, *[p.data for p in params])
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_identity_projection_two_orthogonal_tokens(self):
        x = np.array([[2.0, 0.0], [0.0, 2.0]])
        params = self._params(None, 2, identity=True)
        got = multi_head_attention(Tensor(x), 1, *params).data
        want = oracles.attention_naive(x, 1, *[p.data for p in params])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_permutation_equivariance(self, np_rng):
        x = np_rng.normal(size=(5, 8))
        params = self._params(np_rng, 8)
        perm = np.array([3, 1, 4, 0, 2])
        out = multi_head_attention(Tensor(x), 4, *params).data
        out_perm = multi_head_attention(Tensor(x[perm]), 4, *params).data
        np.testing.assert_allclose(out_perm, out[perm], rtol=1e-6, atol=1e-9)

    def test_weight_rows_sum_to_one(self, np_rng):
        # every token's value is bv, so each context row is its weight row's sum times bv
        params = self._params(np_rng, 8)
        bv = np_rng.normal(size=8)
        params[4], params[5] = Tensor(np.zeros((8, 8))), Tensor(bv)
        out = multi_head_attention(Tensor(np_rng.normal(size=(2, 7, 8))), 2, *params).data
        want = bv @ params[6].data + params[7].data
        np.testing.assert_allclose(out, np.broadcast_to(want, out.shape), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_grad_path_equals_recording_path(self, np_rng, dtype):
        x = Tensor(np_rng.normal(size=(2, 7, 8)).astype(dtype), requires_grad=True)
        params = [Tensor(p.data.astype(dtype), requires_grad=True)
                  for p in self._params(np_rng, 8)]
        out = multi_head_attention(x, 2, *params)
        assert out.requires_grad
        with tensor.no_grad():
            out_ng = multi_head_attention(x, 2, *params)
        assert not out_ng.requires_grad and out_ng.dtype == dtype
        np.testing.assert_array_equal(out_ng.data, out.data)

    # -- the blocked no-graph width-1 op against the composite graph ----------

    @staticmethod
    def _both_paths(x, n_head, params):
        """(recorded, blocked) outputs: the float64 composite graph of public
        ops, then the layer without a graph in x's dtype (blocked at width 1)."""
        leaves = [Tensor(p.astype(np.float64), requires_grad=True) for p in params]
        recorded = oracles.attention_composite(Tensor(x.astype(np.float64), requires_grad=True),
                                               n_head, *leaves)
        assert recorded.requires_grad
        with tensor.no_grad():
            blocked = multi_head_attention(Tensor(x), n_head, *(Tensor(p) for p in params))
        assert blocked.dtype == x.dtype
        return recorded.data, blocked.data

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("per_block", [1, 5, 12, 100])
    @pytest.mark.parametrize("d, n_head", [(4, 4)], ids=["dh1"])
    def test_blocked_core_agrees_with_the_composite_ops(self, np_rng, monkeypatch, dtype,
                                                        per_block, d, n_head):
        # B*H = 3*n_head slices, grouped per_block at a time (5 divides neither 6 nor 12)
        b, s = 3, 10
        monkeypatch.setattr(tensor, "_SCORE_BYTES", per_block * s * s * np.dtype(dtype).itemsize)
        x = np_rng.normal(size=(b, s, d)).astype(dtype)
        params = [p.data.astype(dtype) for p in self._params(np_rng, d)]
        recorded, blocked = self._both_paths(x, n_head, params)
        _assert_agree(dtype, {"output": (blocked, recorded)})

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocked_core_row_max_from_the_sign_of_q(self, np_rng, dtype):
        # d_head = 1 and identity projections: q = x, k = x - 5 < 0 everywhere,
        # with zero, negative-zero and negative entries of q
        d = 4
        x = np_rng.normal(size=(2, 9, d)).clip(-3, 3).astype(dtype)
        x[0, :3] = 0.0
        x[1, 2] = -0.0
        x[1, 5:] = -np.abs(x[1, 5:])
        eye, zero = np.eye(d, dtype=dtype), np.zeros(d, dtype=dtype)
        params = [eye, zero, eye, np.full(d, -5.0, dtype), eye, zero, eye, zero]
        recorded, blocked = self._both_paths(x, d, params)
        _assert_agree(dtype, {"output": (blocked, recorded)})

    def test_blocked_core_unbatched_input(self, np_rng):
        x = np_rng.normal(size=(7, 8))
        params = [p.data for p in self._params(np_rng, 8)]
        recorded, blocked = self._both_paths(x, 8, params)
        assert blocked.shape == (7, 8)
        _assert_agree(np.float64, {"output": (blocked, recorded)})

    # a negative p and an unknown mode are rejected at p <= 0 too
    @pytest.mark.parametrize("p, mode", [(1.0, "eval"), (0.1, "test"), (-0.1, "train"),
                                         (0.0, "bogus")])
    def test_no_graph_attention_still_checks_dropout(self, np_rng, p, mode):
        with tensor.no_grad(), pytest.raises(ValueError, match="dropout|mode"):
            multi_head_attention(Tensor(np_rng.normal(size=(3, 8))), 2,
                                 *self._params(np_rng, 8), dropout_p=p, mode=mode)

    def test_no_graph_attention_keeps_no_score_array(self, np_rng, pool_sizes):
        # the reference shape: 264 tokens, 32 heads of width 1; one
        # (4, 32, 264, 264) float32 score array is 34 MiB
        x = Tensor(np_rng.normal(size=(4, 264, 32)).astype(np.float32))
        params = [Tensor(p.data.astype(np.float32)) for p in self._params(np_rng, 32)]
        for size in pool_sizes:
            tensor.set_pool_threads(size)
            tracemalloc.start()
            try:
                with tensor.no_grad():
                    out = multi_head_attention(x, 32, *params)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.shape == (4, 264, 32)
            assert peak < 4 * 32 * 264 * 264 * 4 // 8, size

    # -- one path per head width ----------------------------------------------

    @pytest.mark.parametrize("run", ["train", "eval", "no_grad"])
    @pytest.mark.parametrize("n_head", [8, 2], ids=["dh1", "dh4"])
    def test_path_depends_on_the_head_width_alone(self, np_rng, monkeypatch, run, n_head):
        # the other path raises: width 1 never puts S x S weights through
        # softmax or dropout, and wider heads never call the fused op
        b, s, d = 2, 7, 8
        calls = []

        def spy(name, real):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapped

        def refuse(name):
            def wrapped(*args, **kwargs):
                raise AssertionError(f"heads of width {d // n_head} called {name}")
            return wrapped

        fused, composite = ["_attention_dh1", "_dh1_forward"], ["softmax", "dropout"]
        used, other = (fused, composite) if n_head == d else (composite, fused)
        for name in used:
            monkeypatch.setattr(tensor, name, spy(name, getattr(tensor, name)))
        for name in other:
            monkeypatch.setattr(tensor, name, refuse(name))
        x = Tensor(np_rng.normal(size=(b, s, d)), requires_grad=True)
        params = [Tensor(p.data, requires_grad=True) for p in self._params(np_rng, d)]
        mode = "train" if run == "train" else "eval"
        with tensor.no_grad() if run == "no_grad" else contextlib.nullcontext():
            out = multi_head_attention(x, n_head, *params, dropout_p=0.5, rng=Rng(1), mode=mode)
        assert out.requires_grad == (run != "no_grad")
        assert sorted(calls) == sorted(used)
        if out.requires_grad:
            out.sum().backward()
            assert x.grad is not None

    def test_head_divisibility(self, np_rng):
        with pytest.raises(ConfigurationError):
            multi_head_attention(Tensor(np_rng.normal(size=(3, 7))), 2,
                                 *self._params(np_rng, 7))


class TestFusedAttention:
    """Heads of width 1 run softmax(q k^T) -> dropout -> @ v as one op, in
    closed form; it agrees with the float64 composite ops to rounding."""

    @staticmethod
    def _heads(dtype, b, s, h, seed):
        # a (B, H, S, 1) head view of a (B, S, H) projection, as
        # multi_head_attention splits it
        return _signed_values(dtype, (b, s, h), seed).reshape(b, s, h, 1).transpose(0, 2, 1, 3)

    @classmethod
    def _inputs(cls, dtype, b, s, h, seed=0):
        """(q, k, v) heads and a (B, S, H) cotangent."""
        return [cls._heads(dtype, b, s, h, seed + j) for j in range(3)], \
            _signed_values(dtype, (b, s, h), seed + 4)

    @staticmethod
    def _run(fused, heads, g, p, seed=3):
        """(output, dq, dk, dv) of one recorded forward and backward of
        (q, k, v) heads and cotangent g, fused or as the composite of public
        ops, in the heads' dtype; the keep-mask is Rng(seed)'s first draw."""
        q, k, v = (Tensor(a, requires_grad=True) for a in heads)
        b, h, s, _ = q.shape
        rng = Rng(seed)
        if fused:
            keep = rng.keep_bits(p, (b, h, s, s)) if p > 0 else None
            out = tensor._attention_dh1(q, k, v, keep, q.dtype.type(1.0 / (1.0 - p)))
        else:
            weights = softmax(q @ k.transpose(0, 1, 3, 2))
            out = (dropout(weights, p, rng, "train") if p > 0 else weights) @ v
        # the cotangent reaches the op as a strided view, as it does in the model
        (out.transpose(0, 2, 1, 3).reshape(b, s, h) * Tensor(g)).sum().backward()
        return [out.data, q.grad, k.grad, v.grad]

    @classmethod
    def _assert_agrees(cls, dtype, heads, g, p, floor=0.0):
        """The fused op in `dtype` agrees with the float64 composite ops."""
        got = cls._run(True, heads, g, p)
        want = cls._run(False, [a.astype(np.float64) for a in heads], g.astype(np.float64), p)
        assert all(np.isfinite(a).all() for a in got)
        _assert_agree(dtype, {"output": (got[0], want[0])},
                      dict(zip(("dq", "dk", "dv"), zip(got[1:], want[1:]))), floor)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p", [0.0, 0.5, 0.25, 0.3], ids=["p0", "1-bit", "2-bit", "non-dyadic"])
    @pytest.mark.parametrize("b", [1, 2, 3])
    @pytest.mark.parametrize("heads_per_group", [1, 2, 100])
    @pytest.mark.parametrize("s", [5, 7, 11, 13])
    def test_agrees_with_the_composite_ops(self, monkeypatch, dtype, p, b, heads_per_group, s):
        # 3 heads per sample, so groups of 2 heads cut every sample unevenly
        # and a grouping of the flattened (sample, head) slices would
        # straddle samples; S * S is odd, so every group but the first
        # starts its run of keep bits mid-byte
        monkeypatch.setattr(tensor, "_SCORE_BYTES",
                            heads_per_group * s * s * np.dtype(dtype).itemsize)
        self._assert_agrees(dtype, *self._inputs(dtype, b, s, 3), p)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p", [0.5, 0.25, 0.3], ids=["1-bit", "2-bit", "non-dyadic"])
    @pytest.mark.parametrize("heads_per_group", [1, 2, 100])
    def test_reference_length_agrees_with_the_composite_ops(self, monkeypatch, dtype, p,
                                                           heads_per_group):
        # 264 tokens: every group's keep bits start on a byte
        monkeypatch.setattr(tensor, "_SCORE_BYTES",
                            heads_per_group * 264 * 264 * np.dtype(dtype).itemsize)
        self._assert_agrees(dtype, *self._inputs(dtype, 2, 264, 3), p)

    def test_reference_shape_agrees_with_the_composite_ops(self):
        # 32 heads of 264 tokens: 3 heads a group at the default _SCORE_BYTES
        self._assert_agrees(np.float32, *self._inputs(np.float32, 1, 264, 32), 0.5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p", [0.0, 0.5], ids=["p0", "1-bit"])
    def test_large_logits_stay_finite_and_agree(self, dtype, p):
        # integer q and k of up to 100: scores |q k| up to 1e4, whose exp
        # overflows unshifted, yet exact in both dtypes, so only the op's
        # own rounding separates it from the composite
        (_, _, v), g = self._inputs(dtype, 2, 40, 3)
        ints = np.random.default_rng(5).integers(-100, 101, size=(2, 2, 3, 40, 1))
        q, k = (a.astype(dtype) for a in ints)
        assert np.abs(q * k.swapaxes(-1, -2)).max() > 5e3
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            np.exp(q.astype(np.float64) * k.swapaxes(-1, -2))
        # the closed form's dq and dk each subtract two terms of up to
        # |g| |v| max(|q|, |k|), which cancel where the softmax saturates:
        # in float32 the gradients agree to that size
        terms = np.abs(g).max() * np.abs(v).max() * 100 if dtype == np.float32 else 0.0
        self._assert_agrees(dtype, [q, k, v], g, p, terms)

    @pytest.mark.parametrize("p", [0.0, 0.5, 0.3], ids=["p0", "1-bit", "non-dyadic"])
    def test_gradients_pass_the_finite_difference_check(self, p):
        # 2 samples, 3 heads of 6 tokens; a fresh keep-mask from the same
        # seed per call keeps f pure
        b, h, s = 2, 3, 6
        (q, k, v), g = self._inputs(np.float64, b, s, h)
        scale = 1.0 / (1.0 - p)

        def f(q, k, v):
            keep = Rng(7).keep_bits(p, (b, h, s, s)) if p > 0 else None
            out = tensor._attention_dh1(q, k, v, keep, scale)
            return (out.transpose(0, 2, 1, 3).reshape(b, s, h) * Tensor(g)).sum()

        assert grad_check(f, [q.copy(), k.copy(), v.copy()]) < THRESHOLD

    @pytest.mark.parametrize("s", [7, 16])
    def test_recorded_op_holds_the_keep_mask_as_bits(self, s):
        # the backward captures no bool or float array of B*H*S*S elements,
        # no more mask than one bit per weight, and no more (B, H, S, .)
        # float arrays than q, k, v, the row maxima and sums and the output
        b, h = 3, 5
        q, k, v = (Tensor(self._heads(np.float32, b, s, h, j), requires_grad=True)
                   for j in range(3))
        keep = Rng(1).keep_bits(0.5, (b, h, s, s))
        out = tensor._attention_dh1(q, k, v, keep, np.float32(2.0))
        weights = b * h * s * s
        captured = [c.cell_contents for c in out._backward.__closure__
                    if isinstance(c.cell_contents, np.ndarray)]
        assert any(a is keep for a in captured)
        assert any(a is out.data for a in captured)
        floats = 0
        for a in captured:
            owner = a if a.base is None else a.base
            if a.dtype.kind in "bf":
                assert a.size < weights and owner.size < weights, (a.dtype, a.shape)
                assert a.size == owner.size == b * h * s, (a.dtype, a.shape)
                floats += 1
            else:
                assert a.dtype == np.uint8 and a.nbytes <= -(-weights // 8)
                assert owner.nbytes < -(-weights // 8) + 8  # whole 64-bit words
        assert floats <= 6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p", [0.0, 0.5, 0.25, 0.3], ids=["p0", "1-bit", "2-bit", "non-dyadic"])
    @pytest.mark.parametrize("b", [1, 2, 3])
    @pytest.mark.parametrize("heads_per_group", [1, 2, 100])
    @pytest.mark.parametrize("s", [5, 7, 9, 13])
    def test_layer_gradients_agree_with_the_composite_graph(self, monkeypatch, dtype, p,
                                                            b, heads_per_group, s):
        # through the projections: the gradients of x (which the q, k and v
        # projections add up) and of every weight, against the float64
        # composite; bk's gradient is 0 in exact arithmetic, so the gradients'
        # floor is the largest of them. The dropout stream's next draw is the
        # composite's. S * S is odd, so the groups' runs of keep bits start
        # mid-byte
        d = 6
        monkeypatch.setattr(tensor, "_SCORE_BYTES",
                            heads_per_group * s * s * np.dtype(dtype).itemsize)
        x = _signed_values(dtype, (b, s, d), 1)
        params = [_signed_values(dtype, shape, 2 + j) * dtype(0.5)
                  for j, shape in enumerate([(d, d), (d,)] * 4)]
        g = _signed_values(dtype, (b, s, d), 10)
        results = []
        for layer, kind in ((multi_head_attention, dtype), (oracles.attention_composite, np.float64)):
            leaves = [Tensor(a.astype(kind), requires_grad=True) for a in [x, *params]]
            rng = Rng(11)
            out = layer(leaves[0], d, *leaves[1:], dropout_p=p, rng=rng, mode="train")
            (out * Tensor(g.astype(kind))).sum().backward()
            results.append([out.data, *(t.grad for t in leaves), rng.uniform(0.0, 1.0, 3)])
        (out, *grads, draw), (want_out, *want_grads, want_draw) = results
        np.testing.assert_array_equal(draw, want_draw)
        names = ["x", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo"]
        _assert_agree(dtype, {"output": (out, want_out)},
                      dict(zip(names, zip(grads, want_grads))))

    def test_train_mode_dropout_needs_an_rng(self, np_rng):
        with pytest.raises(ValueError, match="Rng"):
            multi_head_attention(Tensor(np_rng.normal(size=(3, 4))), 4,
                                 *TestAttention()._params(np_rng, 4), dropout_p=0.5, mode="train")

    def test_recorded_step_keeps_no_score_array(self, np_rng, pool_sizes):
        # the reference shape: 264 tokens, 32 heads of width 1, dropout 0.5;
        # one (4, 32, 264, 264) float32 array is 34 MiB, a bool keep-mask
        # 8.5 and the packed bits the op keeps 1.1
        x = Tensor(np_rng.normal(size=(4, 264, 32)).astype(np.float32), requires_grad=True)
        params = [Tensor(p.data.astype(np.float32), requires_grad=True)
                  for p in TestAttention()._params(np_rng, 32)]
        g = Tensor(np_rng.normal(size=(4, 264, 32)).astype(np.float32))
        score_bytes = 4 * 32 * 264 * 264 * 4
        for size in pool_sizes:
            tensor.set_pool_threads(size)
            tracemalloc.start()
            try:
                out = multi_head_attention(x, 32, *params, dropout_p=0.5, rng=Rng(size), mode="train")
                (out * g).sum().backward()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert x.grad is not None and np.isfinite(x.grad).all()
            # a quarter of one score array: the bool keep-mask alone would break it
            assert peak < score_bytes // 4, (size, peak)
            x.grad = None
            for p in params:
                p.grad = None


class TestShapeOps:
    def test_sliding_windows_values(self):
        out = sliding_windows(Tensor(np.arange(7.0)), 3, 2)
        np.testing.assert_array_equal(out.data, [[0, 1, 2], [2, 3, 4], [4, 5, 6]])

    def test_concat_roundtrip(self, np_rng):
        a, b = np_rng.normal(size=(2, 3)), np_rng.normal(size=(2, 2))
        out = concat([Tensor(a), Tensor(b)], axis=1)
        np.testing.assert_array_equal(out.data, np.concatenate([a, b], axis=1))

    def test_finite_forward(self, np_rng):
        # finite inputs keep every op finite
        x = Tensor(np_rng.normal(size=(2, 4, 3, 8)).astype(np.float32) * 50)
        k = Tensor(np_rng.normal(size=(4, 4, 1, 3)).astype(np.float32))
        out = conv_temporal(x, k, Tensor(np.zeros(4, dtype=np.float32)))
        assert np.isfinite(out.data).all()


def _with_input(kernel, x_requires_grad):
    """Run a float64 kernel on fixed data; return (param grads, input grad)."""
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(2, 3, 4, 9)), requires_grad=x_requires_grad, dtype=np.float64)
    if kernel == "conv_temporal":
        params = [rng.normal(size=(5, 3, 1, 4)), rng.normal(size=5)]
        fn = conv_temporal
    elif kernel == "conv_spatial":
        params = [rng.normal(size=(5, 3, 4, 1)), rng.normal(size=5)]
        fn = conv_spatial
    else:
        params = [rng.normal(size=(9, 6)), rng.normal(size=6)]
        fn = linear

    params = [Tensor(p, requires_grad=True, dtype=np.float64) for p in params]
    out = fn(x, *params)
    (out * Tensor(rng.normal(size=out.shape))).sum().backward()
    return [p.grad for p in params], x.grad


@pytest.mark.parametrize("kernel", ["conv_temporal", "conv_spatial", "linear"])
def test_skipped_input_gradient_leaves_parameter_gradients_unchanged(kernel):
    with_input, gx = _with_input(kernel, True)
    without_input, gx_skipped = _with_input(kernel, False)
    assert gx is not None and gx_skipped is None
    for a, b in zip(with_input, without_input):
        np.testing.assert_array_equal(a, b)


def test_conv_temporal_backward_never_builds_the_dead_input_window():
    # the input gradient goes through a (B, F_out, C, T+K-1, K) window; for an
    # input that needs no gradient the backward pass must stay well below it
    b, f_out, c, t, k = 2, 16, 4, 2000, 64
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(b, 1, c, t)).astype(np.float32))
    w = Tensor(rng.normal(size=(f_out, 1, 1, k)).astype(np.float32), requires_grad=True)
    bias = Tensor(np.zeros(f_out, dtype=np.float32), requires_grad=True)
    loss = conv_temporal(x, w, bias).sum()
    tracemalloc.start()
    try:
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < b * f_out * c * (t + k - 1) * k * 4 // 2
    assert w.grad is not None and x.grad is None


# -- the rewritten front-end kernels against their former formulations --------


def _conv_grads(fn, x, w, bias, g):
    """(out, gx, gw, gb) of a float64 convolution and its backward for cotangent g."""
    xt, wt, bt = (Tensor(a, requires_grad=True, dtype=np.float64) for a in (x, w, bias))
    out = fn(xt, wt, bt)
    (out * Tensor(g)).sum().backward()
    return out.data, xt.grad, wt.grad, bt.grad


def _assert_close(got, want):
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())


@pytest.mark.parametrize("k", [1, 4, 7])
def test_conv_temporal_matches_the_einsum_formulation(monkeypatch, k):
    b, f_in, c, t, f_out = 5, 3, 2, 13, 4
    rng = np.random.default_rng(k)
    x, w = rng.normal(size=(b, f_in, c, t)), rng.normal(size=(f_out, f_in, 1, k))
    bias, g = rng.normal(size=f_out), rng.normal(size=(b, f_out, c, t))
    want = oracles.conv_temporal_einsum(x, w, bias, g)
    _assert_close(_conv_grads(conv_temporal, x, w, bias, g), want)  # one block of 5 samples
    monkeypatch.setattr(tensor, "_PART_BYTES", 1)  # blocks of one sample
    _assert_close(_conv_grads(conv_temporal, x, w, bias, g), want)


# (B, F_in, C, T, F_out, K) around the segment length L (8 below K = 32, 32
# from there on): T < L, T not a multiple of L, the reference T and K (K > L,
# five overlap-add passes), even K (one more trailing than leading zero),
# K = 1 and F_in > 1
SEGMENT_CASES = {
    "t_under_l": (2, 1, 3, 5, 4, 5),
    "t_under_l_long_k": (2, 1, 3, 13, 4, 33),
    "t33": (2, 2, 3, 33, 3, 6),
    "t1000_k125": (1, 1, 2, 1000, 3, 125),
    "k_over_l": (2, 2, 2, 70, 2, 40),
    "even_k": (2, 3, 2, 64, 4, 8),
    "even_long_k": (2, 1, 2, 50, 3, 34),
    "k1": (3, 4, 2, 33, 5, 1),
}


@pytest.mark.parametrize("case", list(SEGMENT_CASES))
def test_conv_temporal_segments_match_the_einsum_formulation(case):
    b, f_in, c, t, f_out, k = SEGMENT_CASES[case]
    rng = np.random.default_rng(t + k)
    x, w = rng.normal(size=(b, f_in, c, t)), rng.normal(size=(f_out, f_in, 1, k))
    bias, g = rng.normal(size=f_out), rng.normal(size=(b, f_out, c, t))
    _assert_close(_conv_grads(conv_temporal, x, w, bias, g),
                  oracles.conv_temporal_einsum(x, w, bias, g))


@pytest.mark.parametrize("pool", [2, 4])
@pytest.mark.parametrize("t", [33, 70])
@pytest.mark.parametrize("k", [9, 33])
def test_conv_block_pools_segments_bit_identically(pool, t, k):
    # the model's pools divide L (8 at K = 9, 32 at K = 33), so they average
    # rows of the products; T % L != 0 leaves a partial last segment
    args = _conv_block_inputs(np.float32, k, t)
    want = _composite_block(*args, 0.01, pool)
    got = tensor._conv_block(*args, 0.01, pool)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_conv_spatial_matches_the_einsum_formulation():
    rng = np.random.default_rng(5)
    x, w = rng.normal(size=(3, 4, 5, 11)), rng.normal(size=(6, 4, 5, 1))
    bias, g = rng.normal(size=6), rng.normal(size=(3, 6, 1, 11))
    _assert_close(_conv_grads(conv_spatial, x, w, bias, g),
                  oracles.conv_spatial_einsum(x, w, bias, g))


def _signed_values(dtype, shape, seed):
    """Random values with exact zeros of both signs and both signs elsewhere."""
    a = np.random.default_rng(seed).normal(size=shape).astype(dtype)
    a.flat[::7] = 0.0
    a.flat[3::11] = -0.0
    return a


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_relu_is_bit_identical_to_the_where_formulation(dtype):
    x = _signed_values(dtype, (4, 3, 5, 16), 1)
    g = _signed_values(dtype, x.shape, 2)
    s = dtype(0.01)
    xt = Tensor(x, requires_grad=True)
    out = leaky_relu(xt, 0.01)
    (out * Tensor(g)).sum().backward()
    want = np.where(x >= 0, x, s * x)
    np.testing.assert_array_equal(out.data, want)
    assert np.array_equal(np.signbit(out.data), np.signbit(want))
    np.testing.assert_array_equal(xt.grad, g * np.where(x >= 0, dtype(1.0), s))


@pytest.mark.parametrize("size,step,t", [(4, 4, 16), (4, 4, 18), (2, 1, 9), (3, 5, 17),
                                         (1, 1, 6), (5, 2, 12)])
def test_sliding_windows_backward_is_bit_identical_to_the_index_scatter(size, step, t):
    x = Tensor(_signed_values(np.float32, (2, 3, t), 3), requires_grad=True)
    win = sliding_windows(x, size, step)
    g = _signed_values(np.float32, win.shape, 4)
    (win * Tensor(g)).sum().backward()
    want = np.zeros_like(x.data)
    starts = np.arange(win.shape[-2]) * step
    for j in range(size):
        want[..., starts + j] += g[..., j]
    np.testing.assert_array_equal(x.grad, want)


def test_sliding_windows_returns_its_own_copy():
    x = np.arange(2 * 16, dtype=np.float32).reshape(2, 16)
    win = sliding_windows(Tensor(x), 4, 4)  # windows tile the axis: the view is contiguous
    assert not np.shares_memory(win.data, x) and win.data.flags.writeable


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", range(1, 10))
def test_short_axis_mean_is_bit_identical_to_numpy(dtype, n):
    a = _signed_values(dtype, (3, 5, 7, n), n) * dtype(1e3)
    for x in (a, np.swapaxes(np.swapaxes(a, 0, 3).copy(), 0, 3)):  # C order and strided
        for axis in (-1, 3):
            np.testing.assert_array_equal(Tensor(x).mean(axis=axis).data, x.mean(axis=-1))
        np.testing.assert_array_equal(Tensor(x).mean(axis=-1, keepdims=True).data,
                                      x.mean(axis=-1, keepdims=True))
    xt = Tensor(a, requires_grad=True)
    g = _signed_values(dtype, a.shape[:-1], n + 1)
    (xt.mean(axis=-1) * Tensor(g)).sum().backward()
    np.testing.assert_array_equal(xt.grad, np.broadcast_to(g[..., None], a.shape).copy() / n)


# Per-feature sums of (sample, feature map) rows must add whole-row sums
# over samples in sample order, as x3.sum(axis=(0, 2)) does: in float32,
# sums over the per-feature slices x3[:, j:j+1] differ from it at the first
# four shapes
REDUCTION_SHAPES = [(3, 5, 7, 33), (4, 4, 4, 64), (16, 8, 6, 160), (4, 32, 1, 125),
                    (4, 32, 28, 1000)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", REDUCTION_SHAPES)
def test_row_block_sums_keep_the_whole_array_order(monkeypatch, dtype, shape):
    """batch_norm's train-mode mean, variance, dgamma and dbeta and
    conv_temporal's bias gradient, summed in blocks of one row, are the
    whole-array formulas' bit for bit."""
    monkeypatch.setattr(tensor, "_SCORE_BYTES", 1)
    totals, sample_sums = [], tensor._sample_sums
    monkeypatch.setattr(tensor, "_sample_sums",
                        lambda *args: totals.append(sample_sums(*args)) or totals[-1])
    b, f, c, t = shape
    n = b * c * t
    x, g = _signed_values(dtype, shape, 5), _signed_values(dtype, shape, 6)
    rng = np.random.default_rng(7)
    bn = BatchNormState(*(Tensor(rng.normal(size=f).astype(dtype), requires_grad=True)
                          for _ in range(2)), np.zeros(f, dtype), np.ones(f, dtype))
    out = batch_norm(Tensor(x, requires_grad=True), bn, "train")
    _, dgamma, dbeta = out._backward(g)
    x3, g3 = x.reshape(b, f, c * t), g.reshape(b, f, c * t)
    mean = x3.sum(axis=(0, 2)) / n
    xhat = x3 - mean[:, None]
    var = np.multiply(xhat, xhat).sum(axis=(0, 2)) / n
    xhat *= (1.0 / np.sqrt(var + bn.eps))[:, None]
    assert len(totals) == 4  # the statistics' sums, then dbeta and dgamma
    for got, want in [(totals[0] / n, mean), (totals[1] / n, var),
                      (dgamma, (g3 * xhat).sum(axis=(0, 2))), (dbeta, g3.sum(axis=(0, 2)))]:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # a 1x1 convolution of one input map: only the bias needs a gradient
    conv = conv_temporal(Tensor(x[:, :1]), Tensor(np.ones((f, 1, 1, 1), dtype)),
                         Tensor(np.zeros(f, dtype), requires_grad=True))
    gb = conv._backward(g)[2]
    assert gb.dtype == dtype and gb.tobytes() == g.sum(axis=(0, 2, 3)).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_bias_gradient_keeps_the_whole_array_order_at_the_paper_batch(monkeypatch, dtype):
    # B=64 of the reference shape; batch norm's sums take the same path, but
    # its arrays at this shape would hold five times the memory
    monkeypatch.setattr(tensor, "_SCORE_BYTES", 1)
    b, f, c, t = 64, 32, 28, 1000
    bw = conv_temporal(Tensor(np.zeros((b, 1, c, t), dtype)), Tensor(np.ones((f, 1, 1, 1), dtype)),
                       Tensor(np.zeros(f, dtype), requires_grad=True))._backward
    g = np.random.default_rng(8).standard_normal((b, f, c, t), dtype=dtype)
    g.reshape(-1)[::7] = 0.0
    g.reshape(-1)[3::11] = -0.0
    assert bw(g)[2].tobytes() == g.sum(axis=(0, 2, 3)).tobytes()


def test_conv_temporal_memory_grows_with_the_batch_by_arrays_not_columns(monkeypatch, pool_sizes):
    f_in, c, t, k, f_out = 2, 4, 256, 33, 2
    seg = tensor._conv_segment(k)
    span, nb = seg + k - 1, -(-t // seg)
    sample_segments = f_in * span * c * nb * 4
    sample_cols = f_in * k * c * t * 4  # what im2col would copy
    # one sample's segments alone fill _PART_BYTES: blocks of one sample, fanned out
    monkeypatch.setattr(tensor, "_PART_BYTES", sample_segments)

    def peak(b):
        rng = np.random.default_rng(b)
        x = Tensor(rng.normal(size=(b, f_in, c, t)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(f_out, f_in, 1, k)).astype(np.float32), requires_grad=True)
        bias = Tensor(np.zeros(f_out, dtype=np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            conv_temporal(x, w, bias).sum().backward()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # output, cotangent, padded input and input gradient, a few times over
    arrays = 6 * max(f_in, f_out) * c * (t + k - 1) * 4
    for size in pool_sizes:
        tensor.set_pool_threads(size)
        # both batches span every part, so they hold the same segment scratch
        per_sample = (peak(24) - peak(8)) / 16
        assert per_sample < arrays < sample_cols / 2, size


def test_conv_temporal_reads_its_k1_columns_in_place():
    # a 1x1 convolution multiplies its input itself: no padded or segment copy
    x = np.random.default_rng(0).normal(size=(5, 3, 2, 7))
    cols = tensor._segments(tensor._conv_pad(x, 1)[1:4], tensor._conv_segment(1), 7, None)
    assert np.shares_memory(cols, x)
    np.testing.assert_array_equal(cols, x[1:4].reshape(3, 3, 14).transpose(0, 2, 1))


def test_no_graph_reference_conv_block_holds_no_full_size_activation(pool_sizes):
    cfg = reference_config()
    model = build(cfg, Rng(0))
    f, c, t, k = cfg.k, cfg.c, cfg.l, cfg.kernel_len
    sample = f * c * t * 4  # one sample of (B, F, C, T) float32 activations
    seg = tensor._conv_segment(k)
    span, nb = seg + k - 1, -(-t // seg)
    # one sample's segments and products: more than _PART_BYTES, so a block
    # is one sample, and each part holds one block's
    block = (span + f * seg) * c * nb * 4
    assert block > tensor._PART_BYTES
    rng = np.random.default_rng(1)

    def peak(b):
        x = Tensor(rng.normal(size=(b, 1, c, t)).astype(np.float32))
        tracemalloc.start()
        try:
            with tensor.no_grad():
                out = model.temporal_cnn(x)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for size in pool_sizes:
        tensor.set_pool_threads(size)
        out, at_4 = peak(4)
        assert out.shape == (4, f, c, t // 4)
        # the pooled output and one block's segments and products a part;
        # slack: LeakyReLU's temporaries (a row block a part), the padded
        # input and 1 MiB
        parts = min(4, size)
        scratch = parts * block
        slack = parts * tensor._SCORE_BYTES + 4 * c * (t + k - 1) * 4 + (1 << 20)
        assert at_4 <= out.data.nbytes + scratch + slack, size
        # a sample more costs its pooled output and padded input, not a
        # (F, C, T) array; both batches span every part, so they hold the
        # same segment scratch
        _, at_8 = peak(8)
        _, at_16 = peak(16)
        assert (at_16 - at_8) / 8 < sample / 2, size


class _Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


def test_large_arrays_come_from_the_reusable_heap():
    """After import, a 64 MiB array is not mmapped, and freeing it keeps its
    bytes on malloc's free lists for the next one."""
    try:
        mallinfo2 = ctypes.CDLL(None).mallinfo2
    except (OSError, TypeError, AttributeError):
        pytest.skip("the C library has no mallinfo2 (glibc >= 2.33 only)")
    mallinfo2.restype = _Mallinfo2
    mallinfo2.argtypes = []
    assert tensor.HEAP_REUSE
    before = mallinfo2()
    a = np.ones(64 << 17)  # 64 MiB of float64
    held = mallinfo2()
    del a
    after = mallinfo2()
    assert held.hblkhd <= before.hblkhd
    assert after.fordblks - held.fordblks >= 64 << 20
