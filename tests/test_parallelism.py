"""The kernel pool and the OpenBLAS pin: results do not depend on threads."""

import multiprocessing
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import patchformer
from patchformer import optim, tensor
from patchformer.config import ABLATIONS, reference_config
from patchformer.model import build
from patchformer.rng import Rng
from patchformer.tensor import (BatchNormState, Tensor, avg_pool_time, batch_norm, conv_temporal,
                                dropout, leaky_relu, multi_head_attention, no_grad,
                                sliding_windows, softmax)
from patchformer.train import TrainConfig, step

POOL_SIZES = (1, 2, 3)  # 3 cuts the blocks unevenly


@pytest.fixture
def pool_size():
    """set(n) sizes the kernel pool; the default size is restored afterwards."""
    yield tensor.set_pool_threads
    tensor.set_pool_threads(tensor.cpu_count())


def _values(dtype, shape, seed):
    """Random values with exact zeros of both signs."""
    a = np.random.default_rng(seed).normal(size=shape).astype(dtype)
    a.flat[::7] = 0.0
    a.flat[3::11] = -0.0
    return a


def _attention_core_dh1():
    q, k, v = (_values(np.float32, (3, 5, 20, 1), seed) for seed in (1, 2, 3))
    return list(tensor._dh1_forward(q, k, v, None, None))


def _attention_train_dh1():
    q, k, v = (Tensor(_values(np.float32, (3, 20, 5), seed).reshape(3, 20, 5, 1)
                      .transpose(0, 2, 1, 3), requires_grad=True) for seed in (1, 2, 3))
    out = tensor._attention_dh1(q, k, v, Rng(4).keep_bits(0.5, (3, 5, 20, 20)), np.float32(2.0))
    return [out.data, *out._backward(_values(np.float32, out.shape, 5))]


def _softmax():
    x = Tensor(_values(np.float32, (5, 7, 13), 4), requires_grad=True)
    y = softmax(x)
    return [y.data, *y._backward(_values(np.float32, x.shape, 5))]


def _dropout(p):
    x = Tensor(_values(np.float32, (3, 5, 40), 6), requires_grad=True)
    y = dropout(x, p, Rng(7))
    return [y.data, *y._backward(_values(np.float32, x.shape, 8))]


def _matmul(a_shape, b_shape):
    a = Tensor(_values(np.float32, a_shape, 9), requires_grad=True)
    b = Tensor(_values(np.float32, b_shape, 10).swapaxes(-1, -2), requires_grad=True)
    out = a @ b
    return [out.data, *out._backward(_values(np.float32, out.shape, 11))]


def _conv_inputs(k, t=17):
    return [Tensor(_values(np.float32, shape, seed), requires_grad=True)
            for shape, seed in (((7, 2, 3, t), 12), ((4, 2, 1, k), 13), ((4,), 14))]


def _conv_temporal(k, t=17):
    out = conv_temporal(*_conv_inputs(k, t))
    return [out.data, *out._backward(_values(np.float32, out.shape, 15))]


def _conv_block(k, pool=3, t=17):
    rng = np.random.default_rng(16)
    bn = BatchNormState(*(Tensor(rng.normal(size=4).astype(np.float32)) for _ in range(2)),
                        rng.normal(size=4).astype(np.float32),
                        rng.uniform(0.5, 2.0, size=4).astype(np.float32))
    return [tensor._conv_block(*_conv_inputs(k, t), bn, 0.01, pool)]


def _unary(op, shape=(7, 4, 3, 17)):
    """Output and input gradient of op(x) for a recorded x of `shape`."""
    x = Tensor(_values(np.float32, shape, 17), requires_grad=True)
    out = op(x)
    return [out.data, *out._backward(_values(np.float32, out.shape, 18))]


def _batch_norm_train():
    rng = np.random.default_rng(19)
    bn = BatchNormState(*(Tensor(rng.normal(size=4).astype(np.float32), requires_grad=True)
                          for _ in range(2)), np.zeros(4, np.float32), np.ones(4, np.float32))
    return _unary(lambda x: batch_norm(x, bn, "train")) + [bn.running_mean, bn.running_var]


# kernel -> (run, byte caps): caps that cut each case into more blocks than
# the largest pool has threads
CONV_CAPS = {"_PART_BYTES": 1}  # blocks of one sample
ROW_CAPS = {"_SCORE_BYTES": 1}  # blocks of one row
CASES = {
    # one S x S array per (sample, head) slice: groups of 2 heads of 5, so
    # 9 groups, and of 3 heads, so 6 groups, in both passes
    "attention_core_dh1": (_attention_core_dh1, {"_SCORE_BYTES": 2 * 20 * 20 * 4}),
    "attention_train_dh1": (_attention_train_dh1, {"_SCORE_BYTES": 3 * 20 * 20 * 4}),
    "softmax": (_softmax, {"_SCORE_BYTES": 4 * 3 * 13 * 4}),
    "dropout_dyadic": (lambda: _dropout(0.5), {"_SCORE_BYTES": 16 * 8}),
    "dropout_words": (lambda: _dropout(0.3), {"_SCORE_BYTES": 16 * 8}),
    "matmul": (lambda: _matmul((7, 3, 10, 6), (7, 3, 10, 6)), {"_SCORE_BYTES": 3 * 10 * 10 * 4}),
    "matmul_outer": (lambda: _matmul((7, 3, 10, 1), (7, 3, 10, 1)),
                     {"_SCORE_BYTES": 3 * 10 * 10 * 4}),
    "conv_temporal": (lambda: _conv_temporal(5), CONV_CAPS),
    "conv_temporal_k1": (lambda: _conv_temporal(1), CONV_CAPS),
    "conv_block": (lambda: _conv_block(5), CONV_CAPS),
    "conv_block_k1": (lambda: _conv_block(1), CONV_CAPS),
    # segments past L = 32 steps: two whole ones and a partial one, K > L
    "conv_temporal_segments": (lambda: _conv_temporal(40, 70), CONV_CAPS),
    "conv_block_segments": (lambda: _conv_block(40, 4, 70), CONV_CAPS),
    # the front end's row-block passes: (sample, feature map) rows, one a
    # block, 28 blocks; the convolution itself is one sample block
    "batch_norm_train": (_batch_norm_train, ROW_CAPS),
    "leaky_relu": (lambda: _unary(lambda x: leaky_relu(x, 0.01)), ROW_CAPS),
    "sliding_windows_tiled": (lambda: _unary(lambda x: sliding_windows(x, 4, 4)), ROW_CAPS),
    "sliding_windows_overlapping": (lambda: _unary(lambda x: sliding_windows(x, 5, 2)), ROW_CAPS),
    "avg_pool_time": (lambda: _unary(lambda x: avg_pool_time(x, 3, 3)), ROW_CAPS),
    "conv_temporal_bias": (lambda: _conv_temporal(5), ROW_CAPS),
}
# composite ops run on the calling thread: even under the small caps above
# they fan out at no pool size
UNPOOLED = {"softmax", "dropout_dyadic", "dropout_words", "matmul", "matmul_outer"}


@pytest.mark.parametrize("case", list(CASES))
def test_pooled_kernels_are_bit_identical_at_every_pool_size(monkeypatch, pool_size, case):
    run, caps = CASES[case]
    for name, value in caps.items():
        monkeypatch.setattr(tensor, name, value)
    fan_out, widths = tensor._fan_out, []

    def spy(task, parts):
        widths.append(len(parts))
        fan_out(task, parts)

    monkeypatch.setattr(tensor, "_fan_out", spy)
    results = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a misplaced write shows
    try:
        for size in POOL_SIZES:
            pool_size(size)
            widths.clear()
            results[size] = run()
            if case in UNPOOLED:
                assert widths == []
            else:
                assert max(widths) == size  # every case spans more blocks than threads
    finally:
        sys.setswitchinterval(interval)
    for size in POOL_SIZES[1:]:
        for got, want in zip(results[size], results[1]):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    kernel_threads = [t for t in threading.enumerate() if t.name.startswith("patchformer-kernel")]
    assert len(kernel_threads) <= POOL_SIZES[-1]


# 1: ranges of one sample's feature maps, one map a block; 1000: whole
# samples of the (7, 4, 3, 17) float32 cases (816 bytes), one a block, and
# map ranges for the overlapping windows' (1680 bytes a sample). The conv
# block's epilogue cuts its product rows the same way: at 1000, whole
# samples at K = 1 (816 bytes), ranges of 3 maps and 1 map at K = 5 (1152
# bytes a sample), and one map a block at K = 40
@pytest.mark.parametrize("cap", [1, 1000])
@pytest.mark.parametrize("case", [case for case, (_, caps) in CASES.items() if caps is ROW_CAPS]
                         + ["conv_block", "conv_block_k1", "conv_block_segments"])
def test_row_blocks_give_the_bytes_of_one_block(monkeypatch, pool_size, case, cap):
    run = CASES[case][0]
    whole = run()  # each array fits one block: one call on the calling thread
    monkeypatch.setattr(tensor, "_SCORE_BYTES", cap)
    pool_size(POOL_SIZES[-1])
    for got, want in zip(run(), whole):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(b=st.integers(0, 9), units=st.integers(1, 9), unit_bytes=st.integers(1, 64),
       cap=st.integers(1, 700))
def test_grid_tiles_the_samples_and_units_once(b, units, unit_bytes, cap):
    blocks = tensor._grid(b, units, unit_bytes, cap)
    cells = [(i, j) for samples, unit_range in blocks
             for i in range(samples.start, samples.stop)
             for j in range(unit_range.start, unit_range.stop)]
    assert cells == [(i, j) for i in range(b) for j in range(units)]  # once, row-major
    fits = units * unit_bytes <= cap
    sizes = []
    for samples, unit_range in blocks:
        n, m = samples.stop - samples.start, unit_range.stop - unit_range.start
        assert n >= 1 and m >= 1
        assert (unit_range == slice(0, units)) if fits else (n == 1)  # whole samples iff one fits
        assert n * m * unit_bytes <= cap or n * m == 1
        sizes.append(n * m)
    assert tensor._block_units(blocks) == max(sizes, default=0) == (sizes[0] if sizes else 0)


@settings(max_examples=300, deadline=None)
@given(total=st.integers(0, 40), pool=st.integers(1, 8), most=st.none() | st.integers(0, 10))
def test_parts_are_contiguous_runs_of_blocks(total, pool, most):
    tensor.set_pool_threads(pool)
    try:
        parts = tensor._parts(total, most)
    finally:
        tensor.set_pool_threads(tensor.cpu_count())
    assert 1 <= len(parts) <= max(1, min(pool, total, total if most is None else most))
    assert parts[0][0] == 0 and parts[-1][1] == total
    assert all(lo <= hi for lo, hi in parts)
    assert all(a[1] == b[0] for a, b in zip(parts, parts[1:]))
    if total:
        assert all(lo < hi for lo, hi in parts)


def _empty(shape):
    return Tensor(np.zeros(shape, np.float32), requires_grad=True)


def _empty_attention():
    d = 4  # heads of width 1
    x = _empty((0, 9, d))
    params = [Tensor(_values(np.float32, shape, 21 + j), requires_grad=True)
              for j, shape in enumerate([(d, d), (d,)] * 4)]
    out = multi_head_attention(x, d, *params, dropout_p=0.3, rng=Rng(22), mode="train")
    out.sum().backward()
    assert all(p.grad.shape == p.shape and not p.grad.any() for p in params)
    return [(out.data, (0, 9, d)), (x.grad, (0, 9, d))]


def _empty_conv(k):
    x, kernels, bias = _empty((0, 2, 3, 17)), *_conv_inputs(k)[1:]
    out = conv_temporal(x, kernels, bias)
    grads = out._backward(np.zeros(out.shape, np.float32))
    assert grads[1].shape == kernels.shape and not grads[1].any()
    assert grads[2].shape == bias.shape and not grads[2].any()
    return [(out.data, (0, 4, 3, 17)), (grads[0], (0, 2, 3, 17))]


def _empty_unary(op, shape):
    x = _empty((0, 4, 3, 17))
    out = op(x)
    return [(out.data, shape), (out._backward(np.zeros(out.shape, np.float32))[0], x.shape)]


def _empty_conv_block():
    rng = np.random.default_rng(23)
    bn = BatchNormState(*(Tensor(rng.normal(size=4).astype(np.float32)) for _ in range(2)),
                        np.zeros(4, np.float32), np.ones(4, np.float32))
    kernels, bias = _conv_inputs(5)[1:]
    return [(tensor._conv_block(_empty((0, 2, 3, 17)), kernels, bias, bn, 0.01, 3), (0, 4, 3, 5))]


EMPTY_BATCH = {
    "conv_temporal_k1": lambda: _empty_conv(1),
    "conv_temporal": lambda: _empty_conv(5),
    "conv_temporal_segments": lambda: _empty_conv(40),
    "conv_block": _empty_conv_block,
    "leaky_relu": lambda: _empty_unary(lambda x: leaky_relu(x, 0.01), (0, 4, 3, 17)),
    "sliding_windows": lambda: _empty_unary(lambda x: sliding_windows(x, 5, 2), (0, 4, 3, 7, 5)),
    "attention_dh1": _empty_attention,
}


@pytest.mark.parametrize("case", list(EMPTY_BATCH))
def test_pooled_kernels_take_an_empty_batch(pool_size, case):
    pool_size(POOL_SIZES[-1])
    for got, shape in EMPTY_BATCH[case]():
        assert got.dtype == np.float32 and got.shape == shape


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", ["small", "reference"])
def test_pooled_front_end_blocks_equal_the_recorded_ops(pool_size, front_end_state,
                                                        small_loso_config, shape, dtype):
    """temporal_cnn and feature_enhance without a graph (one pooled pass
    each) give the bytes of the recorded composite ops, at every pool size."""
    config, ablations = ((small_loso_config, ABLATIONS) if shape == "small"
                         else (reference_config(), ("full",)))
    for ablation in ablations:
        model = build(replace(config, ablation=ablation), Rng(5), dtype=dtype)
        front_end_state(model, 6)
        for b in (1, 2, 3, 16):
            x = np.random.default_rng(b).normal(size=(b, 1, config.c, config.l))
            x = Tensor(x.astype(dtype))
            stages = [model.temporal_cnn] + ([model.feature_enhance] if model.config.has_fem else [])
            recorded = [x]
            for stage in stages:
                recorded.append(stage(recorded[-1]))
                assert recorded[-1].requires_grad
            for size in POOL_SIZES:
                pool_size(size)
                z = x
                for stage, want in zip(stages, recorded[1:]):
                    with no_grad():
                        z = stage(z)
                    assert not z.requires_grad
                    assert z.dtype == want.dtype and z.shape == want.shape
                    assert z.data.tobytes() == want.data.tobytes(), (ablation, b, size, stage)


def test_small_config_train_step_runs_the_front_end_inline(monkeypatch, small_loso_config):
    """A train step of the small acceptance config (B=16) cuts none of its
    front-end arrays, 480 KiB at most, into more than one part."""
    walked, widths = [], []
    walk_rows, fan_out = tensor._walk_rows, tensor._fan_out

    def walk_spy(task, rows):
        walked.append(rows.nbytes)
        walk_rows(task, rows)

    def fan_out_spy(task, parts):
        widths.append(len(parts))
        fan_out(task, parts)

    monkeypatch.setattr(tensor, "_walk_rows", walk_spy)
    monkeypatch.setattr(tensor, "_fan_out", fan_out_spy)
    model = build(small_loso_config, Rng(1))
    cfg, b = model.config, 16
    x = np.random.default_rng(2).normal(size=(b, 1, cfg.c, cfg.l)).astype(np.float32)
    tc = TrainConfig()
    step(model, optim.AdamState.for_params(model.parameters), x, np.arange(b) % 2, tc.lr0, tc,
         Rng(3))
    assert walked and max(walked) <= b * cfg.k * cfg.c * cfg.l * 4 == 480 << 10
    assert widths and set(widths) == {1}


def _conv_in_child(conn, inputs):
    conn.send((conv_temporal(*inputs).data.tobytes(), tensor._pool[0] == os.getpid()))
    conn.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_runs_pooled_kernels_on_its_own_pool(monkeypatch, pool_size):
    for name, value in CONV_CAPS.items():
        monkeypatch.setattr(tensor, name, value)
    pool_size(2)
    inputs = _conv_inputs(5)
    want = conv_temporal(*inputs).data.tobytes()  # the parent's pool now has threads
    assert tensor._pool is not None and tensor._pool[0] == os.getpid()
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_conv_in_child, args=(send, inputs))
    child.start()
    try:
        finished = recv.poll(60)
        got = recv.recv() if finished else None
    finally:
        if child.is_alive() and not finished:
            child.kill()
        child.join(10)
    assert finished, "a pooled kernel in the forked child did not finish"
    assert got == (want, True)
    assert child.exitcode == 0


# One reference-config train step at B=2; prints a digest of its loss and
# every parameter gradient.
REFERENCE_STEP = """
import hashlib
import numpy as np
from patchformer import losses
from patchformer.config import reference_config
from patchformer.model import build
from patchformer.rng import Rng
from patchformer.tensor import Tensor

model = build(reference_config(), Rng(3))
x = np.random.default_rng(3).normal(size=(2, 1, 28, 1000)).astype(np.float32)
loss = losses.cross_entropy(model.forward(Tensor(x), mode="train", rng=Rng(4)), np.array([0, 1]))
loss.backward()
digest = hashlib.sha256(loss.data.tobytes())
for p in model.parameters.values():
    digest.update(p.grad.tobytes())
print(digest.hexdigest())
"""


def test_reference_step_does_not_depend_on_openblas_threads():
    src = str(Path(patchformer.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", REFERENCE_STEP], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]
