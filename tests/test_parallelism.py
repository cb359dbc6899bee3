"""The kernel pool and the OpenBLAS pin: results do not depend on threads."""

import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import patchformer
from patchformer import tensor
from patchformer.rng import Rng
from patchformer.tensor import Tensor, conv_temporal, dropout, softmax

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


def _attention_core(dh):
    q, k, v = (_values(np.float32, (3, 5, 20, dh), seed) for seed in (1, 2, 3))
    return [tensor._attention_core(q, k, v)]


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


def _conv_temporal():
    x, w, bias = (Tensor(_values(np.float32, shape, seed), requires_grad=True)
                  for shape, seed in (((7, 2, 3, 17), 12), ((4, 2, 1, 5), 13), ((4,), 14)))
    out = conv_temporal(x, w, bias)
    return [out.data, *out._backward(_values(np.float32, out.shape, 15))]


# kernel -> (run, byte caps): caps that cut each case into more blocks than
# the largest pool has threads
SAMPLE_COLS = 2 * 5 * 3 * 17 * 4  # column bytes of one sample of _conv_temporal
CASES = {
    "attention_core_dh1": (lambda: _attention_core(1), {"_SCORE_BYTES": 2 * 20 * 20 * 4}),
    "attention_core_dh4": (lambda: _attention_core(4), {"_SCORE_BYTES": 2 * 20 * 20 * 4}),
    "softmax": (_softmax, {"_SCORE_BYTES": 4 * 3 * 13 * 4}),
    "dropout_dyadic": (lambda: _dropout(0.5), {"_SCORE_BYTES": 16 * 8}),
    "dropout_words": (lambda: _dropout(0.3), {"_SCORE_BYTES": 16 * 8}),
    "matmul": (lambda: _matmul((7, 3, 10, 6), (7, 3, 10, 6)), {"_SCORE_BYTES": 3 * 10 * 10 * 4}),
    "matmul_outer": (lambda: _matmul((7, 3, 10, 1), (7, 3, 10, 1)),
                     {"_SCORE_BYTES": 3 * 10 * 10 * 4}),
    # chunks of 4 and 3 samples, one sample a part
    "conv_temporal": (_conv_temporal, {"_COLUMN_BYTES": 4 * SAMPLE_COLS,
                                       "_PART_BYTES": SAMPLE_COLS}),
}


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
            assert max(widths) == size  # every case spans more blocks than threads
    finally:
        sys.setswitchinterval(interval)
    for size in POOL_SIZES[1:]:
        for got, want in zip(results[size], results[1]):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    kernel_threads = [t for t in threading.enumerate() if t.name.startswith("patchformer-kernel")]
    assert len(kernel_threads) <= POOL_SIZES[-1]


def _softmax_in_child(conn, x):
    conn.send((softmax(Tensor(x)).data.tobytes(), tensor._pool[0] == os.getpid()))
    conn.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_runs_pooled_kernels_on_its_own_pool(monkeypatch, pool_size):
    monkeypatch.setattr(tensor, "_SCORE_BYTES", 4 * 3 * 13 * 4)
    pool_size(2)
    x = _values(np.float32, (5, 7, 13), 16)
    want = softmax(Tensor(x)).data.tobytes()  # the parent's pool now has threads
    assert tensor._pool is not None and tensor._pool[0] == os.getpid()
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_softmax_in_child, args=(send, x))
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
