"""Reverse-mode differentiation: accumulation semantics and numeric checks."""

import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import patchformer
from patchformer.errors import ConfigurationError, GraphFreedError, PatchFormerError
from patchformer.gradcheck import grad_check
from patchformer.losses import cross_entropy
from patchformer.model import build
from patchformer.rng import Rng
from patchformer.tensor import Tensor, linear, no_grad
from patchformer.verify import OP_CHECKS, THRESHOLD, op_grad_checks, trial_rng


class TestBackwardBasics:
    def test_square_at_three(self):
        x = Tensor(np.array(3.0), requires_grad=True, dtype=np.float64)
        (x * x).backward()
        assert x.grad == pytest.approx(6.0)

    def test_linear_grad_outer_product_structure(self, np_rng):
        x = np_rng.normal(size=(4, 3))
        w = Tensor(np_rng.normal(size=(3, 2)), requires_grad=True, dtype=np.float64)
        loss = (Tensor(x) @ w).sum()
        loss.backward()
        # d(sum(xW))/dW = x^T @ ones
        np.testing.assert_allclose(w.grad, x.T @ np.ones((4, 2)), rtol=1e-12)

    def test_two_graphs_accumulate(self):
        x = Tensor(np.array(3.0), requires_grad=True, dtype=np.float64)
        (x * x).backward()
        (x * x).backward()
        assert x.grad == pytest.approx(12.0)

    def test_a_freed_graph_raises(self):
        x = Tensor(np.array(3.0), requires_grad=True, dtype=np.float64)
        y = x * x
        loss = y * 2.0
        loss.backward()
        with pytest.raises(GraphFreedError, match="already freed by an earlier backward"):
            loss.backward()
        with pytest.raises(GraphFreedError):
            (y + 1.0).backward()  # a new loss on a freed interior node
        assert x.grad == pytest.approx(12.0)  # d(2x^2)/dx, left as the first call set it
        assert issubclass(GraphFreedError, PatchFormerError)
        assert issubclass(GraphFreedError, RuntimeError)

    def test_a_freed_graph_raises_before_any_gradient_flows(self):
        # w's branch would be walked first; the freed y is found before then
        x = Tensor(np.array(3.0), requires_grad=True, dtype=np.float64)
        w = Tensor(np.array(1.0), requires_grad=True, dtype=np.float64)
        y = x * x
        y.backward()
        with pytest.raises(GraphFreedError):
            (w * 5.0 + y).backward()
        assert w.grad is None
        assert x.grad == pytest.approx(6.0)

    def test_interior_arrays_die_during_backward(self):
        def scaled(t, factor):
            # t * factor as an op whose backward closure alone holds `factor`
            return Tensor._from_op(t.data * factor, (t,), lambda g: (g * factor,))

        alive = []

        def probe_backward(g):
            alive.append(held() is not None)
            return (g,)

        x = Tensor(np.arange(1.0, 4.0), requires_grad=True, dtype=np.float64)
        probe = Tensor._from_op(x.data.copy(), (x,), probe_backward)
        factor = np.full(3, 2.0)
        held = weakref.ref(factor)
        mid = scaled(probe, factor)
        del factor
        assert held() is not None
        mid.sum().backward()
        # mid's backward ran before probe's, and the walk had dropped its
        # closure by then, though the test still holds mid itself
        assert alive == [False]
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])
        assert mid._parents == () and probe._parents == ()

    def test_zeroing_resets(self):
        x = Tensor(np.array(2.0), requires_grad=True, dtype=np.float64)
        (x * 5.0).backward()
        x.grad = None
        (x * 5.0).backward()
        assert x.grad == pytest.approx(5.0)

    def test_non_scalar_rejected(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_unreached_input_gets_no_gradient(self, np_rng):
        a = Tensor(np_rng.normal(size=3), requires_grad=True, dtype=np.float64)
        b = Tensor(np_rng.normal(size=3), requires_grad=True, dtype=np.float64)
        (a * 2.0).sum().backward()
        assert b.grad is None  # treated as zero downstream

    def test_reduction_gradient_reaches_leaves_writeable(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True, dtype=np.float64)
        (x.sum() + x.mean(axis=0).sum()).backward()
        x.grad += 1.0  # owned by the leaf, not a broadcast view
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.5))

    def test_shared_subexpression(self):
        x = Tensor(np.array(2.0), requires_grad=True, dtype=np.float64)
        y = x * x
        (y + y).backward()  # d/dx 2x^2 = 4x
        assert x.grad == pytest.approx(8.0)

    def test_broadcast_add_gradient(self, np_rng):
        x = Tensor(np_rng.normal(size=(4, 3)), requires_grad=True, dtype=np.float64)
        b = Tensor(np_rng.normal(size=(3,)), requires_grad=True, dtype=np.float64)
        (x + b).sum().backward()
        np.testing.assert_allclose(b.grad, np.full(3, 4.0))
        np.testing.assert_allclose(x.grad, np.ones((4, 3)))

    def test_model_backward_fills_leaves_only(self, tiny_config, np_rng):
        model = build(tiny_config, Rng(0), dtype=np.float64)
        x = Tensor(np_rng.normal(size=(2, 1, tiny_config.c, tiny_config.l)))
        loss = cross_entropy(model.forward(x, mode="train", rng=Rng(1)), [0, 1])
        interior, stack = {}, [loss]
        while stack:
            node = stack.pop()
            if id(node) in interior or node._backward is None:
                continue
            interior[id(node)] = node
            stack.extend(node._parents)
        loss.backward()
        assert all(p.grad is not None for p in model.parameters.values())
        assert x.grad is None
        assert len(interior) > 50
        for node in interior.values():
            assert node.grad is None and node._parents == ()


class TestNoGrad:
    def test_outputs_record_no_graph(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with no_grad():
            out = linear(w, w) * 2.0
        assert not out.requires_grad
        assert out._parents == () and out._backward is None

    def test_flag_restored_after_nesting(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            with no_grad():
                pass
            assert not (w * 2.0).requires_grad
        assert (w * 2.0).requires_grad

    def test_flag_restored_after_exception(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside no_grad")
        out = (w * 2.0).sum()
        out.backward()
        np.testing.assert_array_equal(w.grad, [2.0, 2.0])


class TestGradCheckHarness:
    def test_linear_layer_exact(self, np_rng):
        x = Tensor(np_rng.normal(size=(3, 4)), dtype=np.float64)
        w = Tensor(np_rng.normal(size=(4, 2)), dtype=np.float64)
        b = Tensor(np_rng.normal(size=2), dtype=np.float64)
        proj = np_rng.normal(size=(3, 2))
        err = grad_check(lambda x, w, b: (linear(x, w, b) * Tensor(proj)).sum(), [x, w, b])
        assert err < 1e-7

    def test_detects_corrupted_gradient(self, np_rng):
        # scale one backward path by 1.01: must be flagged well above threshold
        x = Tensor(np_rng.normal(size=(5,)), dtype=np.float64)

        def corrupted_mul(t, factor):
            data = t.data * factor

            def bw(g):
                return (g * factor * 1.01,)

            return Tensor._from_op(data, (t,), bw)

        err = grad_check(lambda x: corrupted_mul(x, 3.0).sum(), [x])
        assert err > 1e-3

    def test_requires_float64(self, np_rng):
        x = Tensor(np_rng.normal(size=3).astype(np.float32))
        with pytest.raises(ValueError):
            grad_check(lambda x: x.sum(), [x])

    def test_non_finite_reports_failure(self):
        x = Tensor(np.array([1.0, 2.0]), dtype=np.float64)

        def reciprocal(t):
            def bw(g):
                return (-g / (t.data * t.data),)

            return Tensor._from_op(1.0 / t.data, (t,), bw)

        def f(x):
            return reciprocal(x - 1.0).sum()  # pole at x=1 -> non-finite

        with np.errstate(divide="ignore"):
            assert grad_check(f, [x]) == np.inf

    @pytest.mark.parametrize("eps", [0.0, -1e-5, float("nan"), float("inf")])
    def test_rejects_a_step_that_is_not_finite_and_positive(self, eps):
        x = Tensor(np.array([1.0, 2.0]), dtype=np.float64)
        with pytest.raises(ConfigurationError, match="eps"):
            grad_check(lambda x: (x * x).sum(), [x], eps=eps)


@pytest.mark.parametrize("op_name", sorted(OP_CHECKS))
def test_each_op_passes_randomized_trials(op_name):
    """Every differentiable op stays under 1e-5 across randomized shapes."""
    worst = 0.0
    for trial in range(20):
        f, inputs = OP_CHECKS[op_name](trial_rng(op_name, trial))
        worst = max(worst, grad_check(f, inputs))
    assert worst < THRESHOLD, f"{op_name} worst error {worst:.3e}"


def _leaf_grads(f, inputs):
    for t in inputs:
        t.requires_grad = True
        t.grad = None
    f(*inputs).backward()
    assert all(t.grad is None or t.grad.flags.writeable for t in inputs)
    return [t.grad for t in inputs]


def test_backward_never_writes_into_its_incoming_gradient(monkeypatch):
    """Every op's backward gives the same gradients when handed a read-only one."""
    from_op = Tensor._from_op

    def read_only_gradients(data, parents, backward):
        def bw(g):
            g = np.array(g)
            g.setflags(write=False)
            return backward(g)

        return from_op(data, parents, bw)

    for name, make in OP_CHECKS.items():
        for trial in range(3):
            f, inputs = make(trial_rng(name, trial))
            expected = _leaf_grads(f, inputs)
            with monkeypatch.context() as m:
                m.setattr(Tensor, "_from_op", staticmethod(read_only_gradients))
                got = _leaf_grads(f, inputs)
            for e, g in zip(expected, got):
                np.testing.assert_array_equal(g, e, err_msg=f"{name} trial {trial}")


def test_trial_inputs_do_not_depend_on_the_hash_salt():
    """A failing trial replays in a new process whatever its hash salt."""
    code = "from patchformer.verify import trial_rng; print(trial_rng('softmax', 3).integers(2**62))"
    env = dict(os.environ, PYTHONPATH=str(Path(patchformer.__file__).parents[1]))
    seen = {
        subprocess.run([sys.executable, "-c", code], env=dict(env, PYTHONHASHSEED=salt),
                       capture_output=True, text=True, check=True, timeout=60).stdout.strip()
        for salt in ("1", "2")
    }
    assert seen == {str(trial_rng("softmax", 3).integers(2**62))}


def test_suite_runner_reports_all_ops():
    results = op_grad_checks(trials=3)
    assert set(results) == set(OP_CHECKS)
    assert {"batch_norm_train", "batch_norm_eval"} <= set(results)
    assert all(v < THRESHOLD for v in results.values())
