"""Forward semantics of the differentiable kernels."""

import ctypes
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchformer import tensor
from patchformer.errors import ConfigurationError, ShapeError
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

import oracles


@pytest.fixture
def pool_sizes():
    """Kernel pool sizes a memory bound must hold at, larger than most
    hosts' CPU counts; the default size is restored afterwards."""
    yield (1, 2, 4, 8)
    tensor.set_pool_threads(tensor.cpu_count())


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
    @pytest.mark.parametrize("rows_per_block", [1000, 1, 7, 8],
                             ids=["one-block", "row-blocks", "even-blocks", "partial-last"])
    def test_row_blocks_are_bit_identical_to_the_whole_array_formulas(
            self, monkeypatch, dtype, rows_per_block):
        # 105 rows of 13. Backward blocks hold four arrays, so they get
        # rows_per_block rows: 7 divide 105 evenly, 8 leave a last block of 1.
        # Forward blocks hold two and get twice as many: 14 and 16 leave one.
        x = _signed_values(dtype, (3, 5, 7, 13), 5) * dtype(4)
        g = _signed_values(dtype, x.shape, 6)
        monkeypatch.setattr(tensor, "_SCORE_BYTES", 4 * rows_per_block * 13 * x.itemsize)
        for axis in (-1, 3):
            self._assert_bit_identical(self._forward_backward(x, axis, g),
                                       oracles.softmax_composite(x, axis, g))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_other_axes_and_strided_arrays_take_the_whole_array_formulas(
            self, monkeypatch, dtype):
        monkeypatch.setattr(tensor, "_SCORE_BYTES", 2 * 13 * np.dtype(dtype).itemsize)
        x = _signed_values(dtype, (6, 5, 13), 7)
        g = _signed_values(dtype, x.shape, 8)
        strided = x.transpose(2, 1, 0)
        assert not strided.flags.c_contiguous
        cases = [(x, 0, g), (x, 1, g), (strided, -1, g.transpose(2, 1, 0)),
                 (x, -1, g.transpose(2, 1, 0).copy().transpose(2, 1, 0))]  # strided g
        for a, axis, ga in cases:
            self._assert_bit_identical(self._forward_backward(a, axis, ga),
                                       oracles.softmax_composite(a, axis, ga))

    def test_backward_holds_no_full_size_temporary(self, pool_sizes):
        x = np.random.default_rng(0).normal(size=(32, 128, 256))  # 8 MiB of float64
        g = np.random.default_rng(1).normal(size=x.shape)
        out = softmax(Tensor(x, requires_grad=True))
        for size in pool_sizes:
            tensor.set_pool_threads(size)
            tracemalloc.start()
            try:
                (dx,) = out._backward(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the result and the per-row sums of each part's block
            assert peak < dx.nbytes + 2 * tensor._SCORE_BYTES, size


class TestMatmul:
    """Products whose contracted axis has length 1 are outer products."""

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

    # -- the blocked no-graph core against the recording path -----------------

    @staticmethod
    def _both_paths(x, n_head, params):
        """(recorded, blocked) outputs: the composite graph, then the no-graph core."""
        leaves = [Tensor(p, requires_grad=True) for p in params]
        recorded = multi_head_attention(Tensor(x, requires_grad=True), n_head, *leaves)
        assert recorded.requires_grad
        with tensor.no_grad():
            blocked = multi_head_attention(Tensor(x), n_head, *leaves)
        return recorded.data, blocked.data

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("per_block", [1, 5, 12, 100])
    @pytest.mark.parametrize("d, n_head", [(8, 2), (4, 4)], ids=["dh4", "dh1"])
    def test_blocked_core_is_bit_identical(self, np_rng, monkeypatch, dtype, per_block,
                                           d, n_head):
        # B*H = 3*n_head slices, grouped per_block at a time (5 divides neither 6 nor 12)
        b, s = 3, 10
        monkeypatch.setattr(tensor, "_SCORE_BYTES", per_block * s * s * np.dtype(dtype).itemsize)
        x = np_rng.normal(size=(b, s, d)).astype(dtype)
        params = [p.data.astype(dtype) for p in self._params(np_rng, d)]
        recorded, blocked = self._both_paths(x, n_head, params)
        assert blocked.dtype == dtype
        np.testing.assert_array_equal(blocked, recorded)

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
        np.testing.assert_array_equal(blocked, recorded)

    def test_blocked_core_unbatched_input(self, np_rng):
        x = np_rng.normal(size=(7, 8))
        params = [p.data for p in self._params(np_rng, 8)]
        recorded, blocked = self._both_paths(x, 2, params)
        assert blocked.shape == (7, 8)
        np.testing.assert_array_equal(blocked, recorded)

    @pytest.mark.parametrize("p, mode", [(1.0, "eval"), (0.1, "test")])
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

    def test_head_divisibility(self, np_rng):
        with pytest.raises(ConfigurationError):
            multi_head_attention(Tensor(np_rng.normal(size=(3, 7))), 2,
                                 *self._params(np_rng, 7))


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
    # a column block of two samples: the batch of 5 runs as chunks of 2, 2 and 1
    monkeypatch.setattr(tensor, "_COLUMN_BYTES", 2 * f_in * k * c * t * 8)
    assert [s.indices(b) for s in tensor._blocks(0, b, tensor._batch_step(f_in * k * c * t * 8))] \
        == [(0, 2, 1), (2, 4, 1), (4, 5, 1)]
    rng = np.random.default_rng(k)
    x, w = rng.normal(size=(b, f_in, c, t)), rng.normal(size=(f_out, f_in, 1, k))
    bias, g = rng.normal(size=f_out), rng.normal(size=(b, f_out, c, t))
    _assert_close(_conv_grads(conv_temporal, x, w, bias, g),
                  oracles.conv_temporal_einsum(x, w, bias, g))


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


def test_conv_temporal_memory_grows_with_the_batch_by_arrays_not_columns(monkeypatch, pool_sizes):
    f_in, c, t, k, f_out = 2, 4, 256, 33, 2
    sample_cols = f_in * k * c * t * 4
    monkeypatch.setattr(tensor, "_COLUMN_BYTES", 2 * sample_cols)
    monkeypatch.setattr(tensor, "_PART_BYTES", sample_cols)  # a chunk's samples fan out

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
        per_sample = (peak(20) - peak(4)) / 16
        assert per_sample < arrays < sample_cols / 2, size


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
