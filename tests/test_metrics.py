"""Metrics and loss against definition-level oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchformer.errors import MetricUndefinedError
from patchformer.losses import cross_entropy
from patchformer.metrics import accuracy, macro_f1, roc_auc
from patchformer.optim import AdamState, adam_step, cosine_lr
from patchformer.tensor import Tensor

import oracles


class TestAccuracy:
    def test_all_match(self):
        assert accuracy([1, 0, 1], [1, 0, 1]) == 100.0

    def test_none_match(self):
        assert accuracy([1, 1], [0, 0]) == 0.0

    def test_two_thirds(self):
        assert accuracy([1, 0, 1], [1, 1, 1]) == pytest.approx(66.6667, abs=1e-3)

    def test_empty_undefined(self):
        with pytest.raises(MetricUndefinedError):
            accuracy([], [])

    def test_matches_definition(self, np_rng):
        for _ in range(50):
            n = int(np_rng.integers(1, 50))
            preds = np_rng.integers(0, 2, n)
            labels = np_rng.integers(0, 2, n)
            assert accuracy(preds, labels) == oracles.accuracy_from_definition(preds, labels)


class TestRocAuc:
    def test_perfectly_ranked(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_perfectly_reversed(self):
        assert roc_auc([0.9, 0.8, 0.1, 0.2], [0, 0, 1, 1]) == 0.0

    def test_all_tied(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_single_class_undefined(self):
        with pytest.raises(MetricUndefinedError):
            roc_auc([0.1, 0.9], [1, 1])

    def test_matches_pair_count_exactly(self, np_rng):
        for _ in range(200):
            n = int(np_rng.integers(2, 51))
            labels = np_rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(np_rng.uniform(0, 1, n), 2)  # rounding forces ties
            assert roc_auc(scores, labels) == oracles.auc_pair_count(scores, labels)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_transform_invariance(self, data):
        n = data.draw(st.integers(4, 30))
        # a coarse grid keeps the transforms strictly monotone in float64 too
        scores = np.round(np.asarray(data.draw(st.lists(
            st.floats(-5, 5, allow_nan=False), min_size=n, max_size=n))), 3)
        labels = np.asarray(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        base = roc_auc(scores, labels)
        assert roc_auc(3.0 * scores + 2.0, labels) == pytest.approx(base, abs=1e-12)
        assert roc_auc(np.exp(scores / 5.0), labels) == pytest.approx(base, abs=1e-12)


class TestMacroF1:
    def test_perfect(self):
        assert macro_f1([0, 1, 0, 1], [0, 1, 0, 1]) == 100.0

    def test_all_predicted_one_on_balanced(self):
        # class 1: F1 = 2/3, class 0: F1 = 0 -> macro 33.33
        preds = [1, 1, 1, 1]
        labels = [0, 0, 1, 1]
        assert macro_f1(preds, labels) == pytest.approx(100.0 / 3.0, abs=1e-9)

    def test_relabeling_symmetry(self, np_rng):
        preds = np_rng.integers(0, 2, 40)
        labels = np_rng.integers(0, 2, 40)
        assert macro_f1(preds, labels) == pytest.approx(
            macro_f1(1 - preds, 1 - labels), abs=1e-12)

    def test_empty_undefined(self):
        with pytest.raises(MetricUndefinedError):
            macro_f1([], [])

    def test_matches_definition(self, np_rng):
        for _ in range(100):
            n = int(np_rng.integers(1, 50))
            preds = np_rng.integers(0, 2, n)
            labels = np_rng.integers(0, 2, n)
            assert macro_f1(preds, labels) == pytest.approx(
                oracles.f1_from_definition(preds, labels, 2), abs=1e-12)


class TestCrossEntropy:
    def test_uniform_two_classes(self):
        loss = cross_entropy(Tensor(np.zeros((1, 2))), [0])
        assert float(loss.data) == pytest.approx(math.log(2.0), abs=1e-7)

    def test_uniform_k_classes(self):
        for k in (2, 3, 5):
            loss = cross_entropy(Tensor(np.zeros((2, k))), [0, k - 1])
            assert float(loss.data) == pytest.approx(math.log(k), abs=1e-6)

    def test_saturated_logit_no_overflow(self):
        loss = cross_entropy(Tensor(np.array([[1000.0, 0.0]])), [0])
        assert float(loss.data) == pytest.approx(0.0, abs=1e-6)

    def test_shift_invariance(self, np_rng):
        logits = np_rng.normal(size=(8, 2))
        labels = np_rng.integers(0, 2, 8)
        a = float(cross_entropy(Tensor(logits, dtype=np.float64), labels).data)
        b = float(cross_entropy(Tensor(logits + 123.456, dtype=np.float64), labels).data)
        assert abs(a - b) < 1e-9

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((1, 2))), [2])

    def test_loss_nonnegative_and_differentiable(self, np_rng):
        logits = Tensor(np_rng.normal(size=(4, 2)), requires_grad=True, dtype=np.float64)
        loss = cross_entropy(logits, [0, 1, 0, 1])
        assert float(loss.data) >= 0.0
        loss.backward()
        assert logits.grad is not None
        # gradient rows sum to zero: softmax minus one-hot
        np.testing.assert_allclose(logits.grad.sum(axis=1), 0.0, atol=1e-12)


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 200, 1e-3) == pytest.approx(1e-3)
        assert cosine_lr(200, 200, 1e-3) == pytest.approx(0.0, abs=1e-18)
        assert cosine_lr(100, 200, 1e-3) == pytest.approx(5e-4)

    def test_monotone_decreasing(self):
        values = [cosine_lr(t, 50, 1.0) for t in range(51)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_eta_min_floor(self):
        assert cosine_lr(10, 10, 1e-3, eta_min=1e-5) == pytest.approx(1e-5)


class TestAdam:
    def _param(self, value):
        return {"w": Tensor(np.array(value, dtype=np.float64), requires_grad=True)}

    def test_zero_grad_no_decay_keeps_params(self):
        params = self._param([1.0, -2.0])
        params["w"].grad = np.zeros(2)
        state = AdamState.for_params(params)
        adam_step(params, state, lr=0.1, weight_decay=0.0)
        np.testing.assert_array_equal(params["w"].data, [1.0, -2.0])

    def test_first_step_magnitude(self):
        # w=0, g=1, lr=0.1: bias-corrected first step is lr/(1+eps) ~ 0.1
        params = self._param(0.0)
        params["w"].grad = np.array(1.0)
        state = AdamState.for_params(params)
        adam_step(params, state, lr=0.1)
        assert float(params["w"].data) == pytest.approx(-0.1, rel=1e-6)
        assert state.t == 1

    def test_decay_shrinks_toward_zero(self):
        params = self._param(4.0)
        state = AdamState.for_params(params)
        previous = 4.0
        for _ in range(20):
            params["w"].grad = np.array(0.0)
            adam_step(params, state, lr=0.01, weight_decay=0.1)
            value = float(params["w"].data)
            assert 0.0 < value < previous
            previous = value

    def test_nan_grad_aborts_with_name(self):
        from patchformer.errors import TrainingDivergedError

        params = self._param(1.0)
        params["w"].grad = np.array(np.nan)
        with pytest.raises(TrainingDivergedError, match="'w'"):
            adam_step(params, AdamState.for_params(params), lr=0.1)

    def test_nan_grad_names_its_parameter_among_several(self):
        from patchformer.errors import TrainingDivergedError

        params = {name: Tensor(np.ones(shape), requires_grad=True)
                  for name, shape in (("a", (2, 3)), ("b", ()), ("c", (4,)))}
        state = AdamState.for_params(params)
        params["a"].grad = np.ones((2, 3))
        params["c"].grad = np.array([0.0, 1.0, np.inf, 2.0])
        with pytest.raises(TrainingDivergedError, match="'c'"):
            adam_step(params, state, lr=0.1)
        np.testing.assert_array_equal(params["a"].data, 1.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("decoupled", [False, True])
    def test_flat_update_matches_per_parameter_loop(self, dtype, decoupled):
        rng = np.random.default_rng(7)
        shapes = {"kernel": (3, 1, 2), "scalar": (), "unused": (5,), "bias": (4,)}
        params = {name: Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
                  for name, shape in shapes.items()}
        ref = {name: p.data.copy() for name, p in params.items()}
        m = {name: np.zeros_like(w) for name, w in ref.items()}
        v = {name: np.zeros_like(w) for name, w in ref.items()}
        state = AdamState.for_params(params)
        for step in range(1, 51):
            grads = {name: None if name == "unused" else rng.normal(size=shape).astype(dtype)
                     for name, shape in shapes.items()}
            for name, p in params.items():
                p.grad = grads[name]
            lr = 1e-2 / step
            adam_step(params, state, lr, weight_decay=1e-2, decoupled_decay=decoupled)
            oracles.adam_loop(ref, grads, m, v, step, lr, weight_decay=1e-2,
                              decoupled_decay=decoupled)
            for name, p in params.items():
                assert p.data.dtype == dtype
                np.testing.assert_array_equal(p.data, ref[name], err_msg=f"{name} step {step}")
        assert state.t == 50
        np.testing.assert_array_equal(state.m, np.concatenate([a.ravel() for a in m.values()]))
        np.testing.assert_array_equal(state.v, np.concatenate([a.ravel() for a in v.values()]))

    def test_none_grad_counts_as_zero(self):
        params = self._param(3.0)
        state = AdamState.for_params(params)
        adam_step(params, state, lr=0.5, weight_decay=0.0)
        assert float(params["w"].data) == 3.0

    def test_lr_zero_is_a_no_op(self):
        params = self._param([1.0, -2.0])
        params["w"].grad = np.array([5.0, -7.0])
        adam_step(params, AdamState.for_params(params), lr=0.0, weight_decay=1e-5)
        np.testing.assert_array_equal(params["w"].data, [1.0, -2.0])

    def test_decoupled_decay_exact_shrinkage(self):
        params = self._param(4.0)
        state = AdamState.for_params(params)
        params["w"].grad = np.array(0.0)
        adam_step(params, state, lr=0.1, weight_decay=0.01, decoupled_decay=True)
        assert float(params["w"].data) == pytest.approx(4.0 - 0.1 * 0.01 * 4.0)
