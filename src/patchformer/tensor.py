"""Dense tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a numpy array and records the operation that produced
it; ``backward()`` on a scalar walks the recorded graph in reverse topological
order and accumulates gradients into the leaves that require them. float32 is
the working precision for training and inference; gradient checking builds the
same graphs in float64. Inside ``with no_grad():`` no graph is recorded.

All differentiable kernels the network composes live here as free functions
(convolutions, pooling, normalization, attention, dropout, ...). Each keeps
the rule: finite inputs must give finite outputs.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, ShapeError

DEFAULT_DTYPE = np.float32

# glibc serves blocks of at least 32 MiB from fresh mmaps and unmaps them on
# free, so every attention-sized array of a reference train step
# ((4, 32, 264, 264) float32 is 34 MiB) was faulted in page by page. Only
# recording (training) forwards build these S x S arrays; a no-graph forward
# scores attention in _SCORE_BYTES blocks. Raising the mmap and trim
# thresholds to 1 GiB, above the 571 MiB largest array of the paper's B=64
# recipe, keeps freed step arrays on malloc's free lists for the next step to
# reuse. malloc also keeps one arena: each kernel pool thread would otherwise
# get its own, whose freed blocks the other threads never reuse (6-13 MiB more
# peak in a reference train step). Set once per process; forked fold workers
# inherit it.
_HEAP_THRESHOLD = 1 << 30
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8


def _reuse_freed_heap() -> bool:
    """Raise glibc's mmap and trim thresholds and cap its arenas at one;
    False where the C library has no `mallopt` or refuses a value (macOS,
    musl, Windows)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return all([mallopt(param, value) == 1 for param, value in (
        (_M_MMAP_THRESHOLD, _HEAP_THRESHOLD), (_M_TRIM_THRESHOLD, _HEAP_THRESHOLD),
        (_M_ARENA_MAX, 1))])


HEAP_REUSE = _reuse_freed_heap()


def _openblas(verb: str):
    """numpy's bundled OpenBLAS `<verb>_num_threads` function, or None where
    numpy bundles no OpenBLAS that exports one."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*blas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in (f"scipy_openblas_{verb}_num_threads64_", f"openblas_{verb}_num_threads64_",
                       f"openblas_{verb}_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return fn
    return None


def _set_blas_threads(n: int) -> None:
    """Cap numpy's bundled OpenBLAS at `n` threads in this process; does
    nothing without an OpenBLAS thread setter."""
    setter = _openblas("set")
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(n)


def blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS runs with, read back from it; None
    without an OpenBLAS thread getter."""
    getter = _openblas("get")
    if getter is None:
        return None
    getter.argtypes, getter.restype = [], ctypes.c_int
    return int(getter())


# The package runs its own CPU parallelism: the blocked kernels below fan
# their blocks out over one thread pool. OpenBLAS runs on one thread, because
# (a) its idle workers keep spinning on the other CPUs after each call and
# starve the pool, and (b) its results depend on its thread count, so
# OPENBLAS_NUM_THREADS and the machine's CPU count would change a train
# step's bits. Set once per process, for all of its numpy work (a program
# that imports the package included); forked fold workers inherit it.
_set_blas_threads(1)


def cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Size of the kernel pool (None until first asked: one thread per CPU), and
# (pid, executor) of the pool itself, created on first use. A forked child
# sees the parent's pid there and makes its own: it has none of the parent's
# threads, so work sent to the parent's executor might never run.
_pool_size: int | None = None
_pool: tuple | None = None
_pool_lock = threading.Lock()


def pool_threads() -> int:
    """Threads the blocked kernels of this process fan out over."""
    global _pool_size
    if _pool_size is None:
        _pool_size = cpu_count()
    return _pool_size


def set_pool_threads(n: int) -> None:
    """Size the kernel pool of this process at `n` threads (at least 1)."""
    global _pool_size, _pool
    with _pool_lock:
        if _pool is not None and _pool[0] == os.getpid():
            _pool[1].shutdown()
        _pool_size, _pool = max(1, int(n)), None


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():
            _pool = (os.getpid(), ThreadPoolExecutor(pool_threads(),
                                                     thread_name_prefix="patchformer-kernel"))
        return _pool[1]


def _parts(total: int, step: int, most: int | None = None) -> list:
    """(lo, hi) ranges covering range(total), one per pool thread, at most
    one per block of `step` items and at most `most` (at least one); every
    cut falls on a block boundary, so a part walks exactly the blocks a
    single loop would."""
    blocks = -(-total // step)
    n = max(1, min(blocks, pool_threads(), blocks if most is None else most))
    return [(min(total, blocks * i // n * step), min(total, blocks * (i + 1) // n * step))
            for i in range(n)]


def _blocks(lo: int, hi: int, step: int):
    """The blocks of `step` items of part [lo, hi), as slices."""
    return (slice(i, min(i + step, hi)) for i in range(lo, hi, step))


def _fan_out(task, parts: list) -> None:
    """task(i, lo, hi) for each part (lo, hi): inline when there is one part,
    else one pool task each. Tasks write only into arrays the caller
    allocated and call no public kernel; every task has ended when this
    returns or raises."""
    if len(parts) == 1:
        task(0, *parts[0])
        return
    pool = _executor()
    futures = [pool.submit(task, i, lo, hi) for i, (lo, hi) in enumerate(parts)]
    wait(futures)
    for future in futures:
        future.result()


# Whether op results record their parents; switched off by `no_grad`.
_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Run ops without recording a graph: results have no parents and no
    backward, so their inputs can be freed as soon as the caller drops them."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


# Trailing axes shorter than this are averaged slice by slice. numpy reduces
# fewer than 8 elements in the same left-to-right order, so the result is
# bit-identical; from 8 on it switches to pairwise summation.
_SHORT_AXIS = 8

# Cap on the im2col column block of a temporal convolution: samples are
# lowered to columns in chunks whose block stays below this many bytes. One
# block exists at a time, whatever the kernel pool's size: the samples of a
# chunk are fanned out over the pool, in parts of at least _PART_BYTES of
# columns, so a chunk smaller than that (every convolution of the small
# acceptance config) runs inline.
_COLUMN_BYTES = 32 << 20
_PART_BYTES = 4 << 20

# Cap on the score block of the no-graph attention core: (batch, head) slices
# are scored, normalized and applied to v in groups whose S x S scores fit
# this many bytes, so each group's passes stay in a per-core L2 cache. The
# recorded softmax walks its rows in blocks of the same size.
_SCORE_BYTES = 1 << 20

# Cap on the score blocks the no-graph attention core holds at once: it fans
# out over as many parts (one block each) as fit, so its scratch does not
# grow with the kernel pool's size.
_SCORE_SCRATCH_BYTES = 3 << 20


def _short_axis_mean(a: np.ndarray) -> np.ndarray:
    """Mean over the short last axis of `a`, one strided slice at a time."""
    n = a.shape[-1]
    out = a[..., 0] + a[..., 1] if n > 1 else a[..., 0].copy()
    for j in range(2, n):
        out += a[..., j]
    out /= n
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if keep:
        grad = grad.sum(axis=keep, keepdims=True)
    return grad.reshape(shape)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for operands of at least 2 axes. When the contracted axis has
    length 1 the product is an outer product: one multiply per element, as
    matmul computes it, so the values are equal (an exact-zero product may
    keep a sign matmul drops). order="C" keeps the result contiguous even
    when the operands are transposed views.

    4-D operands with the same leading axis (the attention products) are
    cut along it into blocks of about _SCORE_BYTES, fanned out over the
    kernel pool; a product of one block is computed whole. Every slice
    keeps its operand's strides and each matrix product is computed on its
    own, so the values do not depend on the cut.
    """
    outer = a.shape[-1] == 1 and b.shape[-2] == 1
    blocks = 1
    if a.ndim == b.ndim == 4 and a.shape[0] == b.shape[0] > 1:
        shape = (a.shape[0], b.shape[1] if a.shape[1] == 1 else a.shape[1],
                 a.shape[2], b.shape[3])
        dtype = np.result_type(a, b)
        row_bytes = max(math.prod(shape), a.size, b.size) // shape[0] * dtype.itemsize
        step = max(1, _SCORE_BYTES // max(1, row_bytes))
        blocks = -(-shape[0] // step)
    if blocks == 1:
        return np.multiply(a, b, order="C") if outer else a @ b
    out = np.empty(shape, dtype=dtype)
    product = np.multiply if outer else np.matmul

    def task(_, lo, hi):
        product(a[lo:hi], b[lo:hi], out=out[lo:hi])

    _fan_out(task, _parts(shape[0], step))
    return out


class Tensor:
    """Multi-axis float array, optionally tracking gradients."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype != np.float32 and arr.dtype != np.float64:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    # -- construction of op results ------------------------------------

    @staticmethod
    def _from_op(data, parents, backward):
        """Result of an op; `backward(g)` returns one gradient (or None) per parent.

        `Tensor.backward` drops gradients for parents that do not require
        grad; kernels whose gradients cost real work (convolutions, matmul)
        return None for such parents without computing them.
        """
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        return out

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    # -- basic introspection ---------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        data = self.data + other.data

        def bw(g):
            return _unbroadcast(g, self.shape), _unbroadcast(g, other.shape)

        return Tensor._from_op(data, (self, other), bw)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        data = self.data - other.data

        def bw(g):
            return _unbroadcast(g, self.shape), _unbroadcast(-g, other.shape)

        return Tensor._from_op(data, (self, other), bw)

    def __mul__(self, other):
        other = self._coerce(other)
        data = self.data * other.data

        def bw(g):
            return (
                _unbroadcast(g * other.data, self.shape),
                _unbroadcast(g * self.data, other.shape),
            )

        return Tensor._from_op(data, (self, other), bw)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = self._coerce(other)
        if self.ndim < 2 or other.ndim < 2:
            raise ShapeError("matmul operands must have at least 2 axes")
        data = _matmul(self.data, other.data)

        def bw(g):
            ga = gb = None
            if self.requires_grad:
                ga = _unbroadcast(_matmul(g, np.swapaxes(other.data, -1, -2)), self.shape)
            if other.requires_grad:
                gb = _unbroadcast(_matmul(np.swapaxes(self.data, -1, -2), g), other.shape)
            return ga, gb

        return Tensor._from_op(data, (self, other), bw)

    # -- shape ops ----------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        data = self.data.reshape(shape)

        def bw(g):
            return (g.reshape(old),)

        return Tensor._from_op(data, (self,), bw)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = tuple(np.argsort(axes))
        data = self.data.transpose(axes)

        def bw(g):
            return (g.transpose(inverse),)

        return Tensor._from_op(data, (self,), bw)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.shape

        def bw(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape),)

        return Tensor._from_op(data, (self,), bw)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if self.ndim and axis in (-1, self.ndim - 1) and 0 < self.shape[-1] < _SHORT_AXIS:
            data = _short_axis_mean(self.data)
            if keepdims:
                data = data[..., None]
        else:
            data = self.data.mean(axis=axis, keepdims=keepdims)
        shape = self.shape
        count = self.data.size // data.size if data.size else 1

        def bw(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g / count, shape),)

        return Tensor._from_op(data, (self,), bw)

    # -- reverse pass -----------------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(leaf) into .grad for every reachable leaf.

        Leaves are tensors no op produced (inputs and parameters); interior
        nodes keep no .grad. Repeated calls without zeroing keep accumulating
        (gradients add up), which the optimizer relies on being able to reset
        explicitly.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() expects a scalar, got shape {self.shape}")
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that does not require grad")

        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        # Per-call gradient flow lives in `flowing`; a node's total is complete
        # when it is popped, and only leaf totals are added into .grad. No
        # backward writes into its incoming gradient, so flowing arrays may be
        # read-only views (a reduction's broadcast); a leaf's .grad never is.
        flowing = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = flowing.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                if node.grad is not None:
                    node.grad = node.grad + g
                else:
                    node.grad = g if g.flags.writeable else g.copy()
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                cur = flowing.get(id(parent))
                flowing[id(parent)] = pg if cur is None else cur + pg


# ---------------------------------------------------------------------------
# flat storage
# ---------------------------------------------------------------------------


def split(flat: np.ndarray, shapes) -> list:
    """Consecutive views of the 1-D array `flat`, one per shape, in order."""
    views, offset = [], 0
    for shape in shapes:
        n = math.prod(shape)
        views.append(flat[offset:offset + n].reshape(shape))
        offset += n
    return views


def pack(tensors: dict) -> np.ndarray:
    """The flat array whose consecutive views are the tensors' data, in dict order.

    Tensors packed before (every .data a view of one 1-D array holding exactly
    their elements) give that array back untouched. Otherwise their values are
    copied into a new array and each .data becomes its view, so an update of
    the flat array is an update of every tensor.
    """
    datas = [t.data for t in tensors.values()]
    base = datas[0].base
    if (isinstance(base, np.ndarray) and base.ndim == 1
            and base.size == sum(d.size for d in datas)
            and all(d.base is base for d in datas)):
        return base
    flat = np.concatenate([d.ravel() for d in datas])
    for t, view in zip(tensors.values(), split(flat, [d.shape for d in datas])):
        t.data = view
    return flat


# ---------------------------------------------------------------------------
# activations and simple elementwise ops
# ---------------------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0)

    def bw(g):
        return (g * (x.data > 0),)

    return Tensor._from_op(data, (x,), bw)


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must be in (0, 1), got {slope}")
    s = x.data.dtype.type(slope)
    data = np.maximum(x.data, s * x.data)  # s * x <= x exactly where x >= 0

    def bw(g):
        # the factor is exactly 1 where x >= 0 and s elsewhere, since 0 < s < 1
        return (g * np.maximum(x.data >= 0, s),)

    return Tensor._from_op(data, (x,), bw)


def _softmax(a: np.ndarray, axis: int, out: np.ndarray | None = None,
             amax: np.ndarray | None = None) -> np.ndarray:
    """Stable softmax of `a` along one axis, into `out` (which may be `a`);
    `amax`, when given, is `a.max(axis, keepdims=True)`."""
    if amax is None:
        amax = a.max(axis=axis, keepdims=True)
    y = np.subtract(a, amax, out=out)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    return y


def _row_step(row_bytes: int) -> int:
    """Rows per block when each row takes `row_bytes`: as many as fit in
    _SCORE_BYTES, at least one."""
    return max(1, _SCORE_BYTES // row_bytes)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along one axis (max subtraction before exponentiation).

    Over the last axis of a C-contiguous input, forward and backward walk
    blocks of rows whose arrays (input and output; cotangent, output and
    gradient) fit in _SCORE_BYTES together, so each row's passes stay in
    cache and backward makes no full-size temporary. The blocks are fanned
    out over the kernel pool. The per-row operations are those of the
    whole-array formulas, so the values are bit-identical to them; other
    inputs use those formulas.
    """
    a = x.data
    blocked = a.ndim > 0 and a.size > 0 and a.flags.c_contiguous and axis in (-1, a.ndim - 1)
    if blocked:
        width = a.shape[-1]
        y = np.empty_like(a)
        rows, y_rows = a.reshape(-1, width), y.reshape(-1, width)
        step = _row_step(2 * width * a.itemsize)

        def task(_, lo, hi):
            for block in _blocks(lo, hi, step):
                _softmax(rows[block], -1, out=y_rows[block])

        _fan_out(task, _parts(len(rows), step))
    else:
        y = _softmax(a, axis)

    def bw(g):
        if not (blocked and g.flags.c_contiguous):
            dot = (g * y).sum(axis=axis, keepdims=True)
            return ((g - dot) * y,)
        return (_softmax_grad_rows(g, y),)

    return Tensor._from_op(y, (x,), bw)


def _softmax_grad_rows(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """`(g - (g * y).sum(-1, keepdims=True)) * y` for C-contiguous g and y,
    one block of rows at a time, `g * y` held in the block's rows of the
    result; the blocks are fanned out over the kernel pool."""
    width = y.shape[-1]
    g_rows, y_rows = g.reshape(-1, width), y.reshape(-1, width)
    dx = np.empty(g_rows.shape, dtype=np.result_type(g, y))
    step = _row_step(3 * width * dx.itemsize)

    def task(_, lo, hi):
        for block in _blocks(lo, hi, step):
            g_block, y_block, out = g_rows[block], y_rows[block], dx[block]
            dot = np.multiply(g_block, y_block, out=out).sum(axis=-1, keepdims=True)
            np.subtract(g_block, dot, out=out)
            out *= y_block

    _fan_out(task, _parts(len(dx), step))
    return dx.reshape(g.shape)


def _check_dropout(p: float, mode: str) -> None:
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")


def dropout(x: Tensor, p: float, rng=None, mode: str = "train") -> Tensor:
    """Inverted dropout: zero with prob p and rescale survivors; eval is identity."""
    _check_dropout(p, mode)
    if mode == "eval" or p == 0.0:
        return x
    if rng is None:
        raise ValueError("train-mode dropout needs an Rng")
    keep = rng.keep_mask(p, x.shape)
    scale = x.data.dtype.type(1.0 / (1.0 - p))
    if _blocked(x.data, x.data):
        factor, data = np.empty_like(x.data), np.empty_like(x.data)
        _blocked_product(x.data, factor, data, keep, scale)
    else:
        factor = np.multiply(keep, scale, dtype=x.data.dtype)
        data = x.data * factor

    def bw(g):
        if not _blocked(g, factor):
            return (g * factor,)
        gx = np.empty(g.shape, dtype=np.result_type(g, factor))
        _blocked_product(g, factor, gx)
        return (gx,)

    return Tensor._from_op(data, (x,), bw)


def _blocked(a: np.ndarray, factor: np.ndarray) -> bool:
    """Whether `a * factor` takes _blocked_product: C-contiguous arrays of one
    shape spanning more than one block."""
    return (a.flags.c_contiguous and a.shape == factor.shape
            and a.size * 2 * factor.itemsize > _SCORE_BYTES)


def _blocked_product(a: np.ndarray, factor: np.ndarray, out: np.ndarray,
                     keep: np.ndarray | None = None, scale=None) -> None:
    """out = a * factor for C-contiguous arrays of one shape, in blocks of
    _SCORE_BYTES / 2 bytes of factor, fanned out over the kernel pool.
    With `keep`, each block of factor is first set to keep * scale, so both
    passes find the block in cache. Elementwise, so the values do not depend
    on the blocks."""
    a, f, o = a.reshape(-1), factor.reshape(-1), out.reshape(-1)
    k = None if keep is None else keep.reshape(-1)
    step = max(1, _SCORE_BYTES // (2 * f.itemsize))

    def task(_, lo, hi):
        for block in _blocks(lo, hi, step):
            if k is not None:
                np.multiply(k[block], scale, out=f[block], dtype=f.dtype)
            np.multiply(a[block], f[block], out=o[block])

    _fan_out(task, _parts(len(o), step))


# ---------------------------------------------------------------------------
# shape utilities
# ---------------------------------------------------------------------------


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor._from_op(data, tensors, bw)


def sliding_windows(x: Tensor, size: int, step: int) -> Tensor:
    """Strided windows over the last axis: (..., T) -> (..., n, size)."""
    if size < 1 or step < 1:
        raise ValueError(f"window size and step must be >= 1, got ({size}, {step})")
    t = x.shape[-1]
    if size > t:
        raise ShapeError(f"window size {size} exceeds axis length {t}")
    n = (t - size) // step + 1
    starts = np.arange(n) * step
    # a copy even when the windows tile the axis and the view is contiguous
    data = sliding_window_view(x.data, size, axis=-1)[..., ::step, :].copy()

    def bw(g):
        gx = np.zeros_like(x.data)
        for j in range(size):
            # offset j of every window: distinct positions, one strided slice
            gx[..., j:starts[-1] + j + 1:step] += g[..., j]
        return (gx,)

    return Tensor._from_op(data, (x,), bw)


# ---------------------------------------------------------------------------
# linear and convolution kernels
# ---------------------------------------------------------------------------


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """y = x W + b along the last axis; x (..., D_in), W (D_in, D_out)."""
    if x.shape[-1] != weight.shape[0]:
        raise ShapeError(
            f"linear: input last axis {x.shape[-1]} != weight rows {weight.shape[0]}"
        )
    out = x @ weight
    if bias is not None:
        if bias.shape != (weight.shape[1],):
            raise ShapeError(f"linear: bias shape {bias.shape} != ({weight.shape[1]},)")
        out = out + bias
    return out


def _batch_step(sample_bytes: int) -> int:
    """Samples per chunk whose column block fits in _COLUMN_BYTES, at least one."""
    return max(1, _COLUMN_BYTES // max(1, sample_bytes))


def _chunk_parts(total: int, sample_bytes: int):
    """(step, chunks): chunks of `step` samples whose column blocks fit in
    _COLUMN_BYTES, as (rows, parts) with the chunk's samples cut into (lo, hi)
    ranges of at least _PART_BYTES of columns, one per pool thread."""
    step = _batch_step(sample_bytes)
    per_part = max(1, _PART_BYTES // max(1, sample_bytes))
    return step, [(rows, [(rows.start + lo, rows.start + hi)
                          for lo, hi in _parts(rows.stop - rows.start, per_part)])
                  for rows in _blocks(0, total, step)]


def _im2col(win: np.ndarray, rows: slice, out: np.ndarray) -> np.ndarray:
    """Column block of samples `rows`, windows (B, F_in, C, T, K) -> (n, F_in*K, C*T),
    written into the first n entries of `out`."""
    part = win[rows]
    n, f_in, c, t, k = part.shape
    cols = out[:n]
    cols.reshape(n, f_in, k, c, t)[...] = part.transpose(0, 1, 4, 2, 3)
    return cols


def conv_temporal(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """1-D convolution along time with same padding.

    x (B, F_in, C, T), kernels (F_out, F_in, 1, K), bias (F_out,).
    Time is padded with floor((K-1)/2) leading and ceil((K-1)/2) trailing
    zeros, so the output time length equals T; the channel axis is untouched.
    Each chunk of samples is lowered to an im2col column block and multiplied
    by the (F_out, F_in*K) kernel matrix, forward and backward. The chunks
    run in order through one column buffer the calling thread allocates;
    the samples of a chunk are fanned out over the kernel pool. Each sample
    is its own matrix product, and the weight gradient adds the per-chunk
    sums in chunk order, so the values do not depend on the pool's size.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv_temporal expects rank-4 input, got shape {x.shape}")
    if kernels.ndim != 4 or kernels.shape[2] != 1:
        raise ShapeError(f"conv_temporal kernels must be (F_out, F_in, 1, K), got {kernels.shape}")
    b_, f_in, c, t = x.shape
    f_out, kf_in, _, k = kernels.shape
    if kf_in != f_in:
        raise ShapeError(f"kernel F_in {kf_in} != input F_in {f_in}")
    if bias.shape != (f_out,):
        raise ShapeError(f"bias shape {bias.shape} != ({f_out},)")
    pad_l = (k - 1) // 2
    xpad = np.zeros((b_, f_in, c, t + k - 1), dtype=x.data.dtype)
    xpad[..., pad_l:pad_l + t] = x.data
    win = sliding_window_view(xpad, k, axis=3)  # (B, F_in, C, T, K)
    w = kernels.data.reshape(f_out, f_in * k)
    step, chunks = _chunk_parts(b_, f_in * k * c * t * xpad.itemsize)
    col_shape = (min(step, b_), f_in * k, c * t)
    data = np.empty((b_, f_out, c * t), dtype=np.result_type(xpad, w))
    cols = np.empty(col_shape, dtype=xpad.dtype)

    # a part (lo, hi) of a chunk uses rows lo % step onwards of its buffers
    def forward(_, lo, hi):
        np.matmul(w, _im2col(win, slice(lo, hi), cols[lo % step:]), out=data[lo:hi])

    for _, parts in chunks:
        _fan_out(forward, parts)
    del cols
    data = data.reshape(b_, f_out, c, t)
    data += bias.data.reshape(1, f_out, 1, 1)

    def bw(g):
        gx = gw = gb = None
        g3 = g.reshape(b_, f_out, c * t)
        if x.requires_grad:
            # col2im: each kernel tap j adds its column rows back at time shift j
            gx = np.empty(x.shape, dtype=np.result_type(g, w))
            gcols = np.empty(col_shape, dtype=gx.dtype)
            gxpad = np.empty((col_shape[0], f_in, c, t + k - 1), dtype=gx.dtype)

            def grad_input(_, lo, hi):
                n, at = hi - lo, lo % step
                gcol = np.matmul(w.T, g3[lo:hi], out=gcols[at:at + n]).reshape(n, f_in, k, c, t)
                pad = gxpad[at:at + n]
                pad.fill(0)
                for j in range(k):
                    pad[..., j:j + t] += gcol[:, :, j]
                gx[lo:hi] = pad[..., pad_l:pad_l + t]

            for _, parts in chunks:
                _fan_out(grad_input, parts)
            del gcols, gxpad
        if kernels.requires_grad:
            cols = np.empty(col_shape, dtype=win.dtype)
            prods = np.empty((col_shape[0],) + w.shape, dtype=np.result_type(g, win))
            gw = np.zeros(w.shape, dtype=prods.dtype)

            def grad_weight(_, lo, hi):
                at = lo % step
                np.matmul(g3[lo:hi], _im2col(win, slice(lo, hi), cols[at:]).transpose(0, 2, 1),
                          out=prods[at:at + hi - lo])

            for rows, parts in chunks:
                _fan_out(grad_weight, parts)
                gw += prods[:rows.stop - rows.start].sum(axis=0)
            gw = gw.reshape(kernels.shape)
        if bias.requires_grad:
            gb = g.sum(axis=(0, 2, 3))
        return gx, gw, gb

    return Tensor._from_op(data, (x, kernels, bias), bw)


def conv_spatial(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Convolution with kernel height equal to the channel count.

    x (B, F_in, C, T), kernels (F_out, F_in, C, 1), bias (F_out,).
    Collapses the channel axis to 1; time is unchanged. Each sample is one
    (F_out, F_in*C) @ (F_in*C, T) matmul.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv_spatial expects rank-4 input, got shape {x.shape}")
    b_, f_in, c, t = x.shape
    if kernels.ndim != 4 or kernels.shape[3] != 1:
        raise ShapeError(f"conv_spatial kernels must be (F_out, F_in, C, 1), got {kernels.shape}")
    f_out, kf_in, kc, _ = kernels.shape
    if kc != c:
        raise ShapeError(f"kernel height {kc} != channel count {c}")
    if kf_in != f_in:
        raise ShapeError(f"kernel F_in {kf_in} != input F_in {f_in}")
    if bias.shape != (f_out,):
        raise ShapeError(f"bias shape {bias.shape} != ({f_out},)")
    w = kernels.data.reshape(f_out, f_in * c)
    data = w @ x.data.reshape(b_, f_in * c, t)
    data += bias.data.reshape(1, f_out, 1)
    data = data[:, :, None, :]

    def bw(g):
        g3 = g.reshape(b_, f_out, t)
        gx = gw = gb = None
        if x.requires_grad:
            gx = (w.T @ g3).reshape(x.shape)
        if kernels.requires_grad:
            x3 = x.data.reshape(b_, f_in * c, t)
            gw = (g3 @ x3.transpose(0, 2, 1)).sum(axis=0).reshape(kernels.shape)
        if bias.requires_grad:
            gb = g3.sum(axis=(0, 2))
        return gx, gw, gb

    return Tensor._from_op(data, (x, kernels, bias), bw)


def avg_pool_time(x: Tensor, length: int, step: int) -> Tensor:
    """Mean over sliding windows on the last axis; trailing remainder dropped."""
    return sliding_windows(x, length, step).mean(axis=-1)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


@dataclass
class BatchNormState:
    """Affine parameters plus running statistics for one batch-norm layer."""

    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5
    momentum: float = 0.1


def batch_norm(x: Tensor, bn: BatchNormState, mode: str = "train") -> Tensor:
    """Normalize per feature map over (B, C, T); x is (B, F, C, T).

    Train mode normalizes with batch statistics and updates the running
    estimates in place; eval mode normalizes with the running estimates.
    Statistics and gradients reduce over a (B, F, C*T) view of x.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if x.ndim != 4:
        raise ShapeError(f"batch_norm expects rank-4 input, got shape {x.shape}")
    b, f, c, t = x.shape
    if bn.gamma.shape != (f,):
        raise ShapeError(f"gamma shape {bn.gamma.shape} != ({f},)")
    x3 = x.data.reshape(b, f, c * t)
    gamma = bn.gamma.data
    n = b * c * t

    if mode == "train":
        if n < 2:
            raise ShapeError("train-mode batch norm needs at least 2 values per feature map")
        # the same sums and divisions as numpy's mean and var, so bit-identical
        mean = x3.sum(axis=(0, 2)) / n
        xhat = x3 - mean[:, None]
        out = np.multiply(xhat, xhat)
        var = out.sum(axis=(0, 2)) / n  # biased, used for normalization
        m = bn.momentum
        bn.running_mean *= 1.0 - m
        bn.running_mean += m * mean
        bn.running_var *= 1.0 - m
        bn.running_var += m * var * (n / (n - 1))  # unbiased running estimate
        inv = 1.0 / np.sqrt(var + bn.eps)
        xhat *= inv[:, None]
        np.multiply(gamma[:, None], xhat, out=out)
        out += bn.beta.data[:, None]

        def bw(g):
            # with dxhat = g * gamma, the two means of the composite formula
            # are gamma * dbeta / n and gamma * dgamma / n
            g3 = g.reshape(b, f, c * t)
            dbeta = g3.sum(axis=(0, 2))
            dx = g3 * xhat
            dgamma = dx.sum(axis=(0, 2))
            np.multiply(xhat, (dgamma / n)[:, None], out=dx)
            np.subtract(g3, dx, out=dx)
            dx -= (dbeta / n)[:, None]
            dx *= (gamma * inv)[:, None]
            return dx.reshape(x.shape), dgamma, dbeta

        return Tensor._from_op(out.reshape(x.shape), (x, bn.gamma, bn.beta), bw)

    running_mean = bn.running_mean.copy()  # a later train-mode call updates it in place
    inv = 1.0 / np.sqrt(bn.running_var + bn.eps)
    scale = gamma * inv
    out = x3 * scale[:, None]
    out += (bn.beta.data - running_mean * scale)[:, None]

    def bw(g):
        # xhat is recomputed here rather than held by the graph
        g3 = g.reshape(b, f, c * t)
        dgamma = (g3 * ((x3 - running_mean[:, None]) * inv[:, None])).sum(axis=(0, 2))
        return (g3 * scale[:, None]).reshape(x.shape), dgamma, g3.sum(axis=(0, 2))

    return Tensor._from_op(out.reshape(x.shape), (x, bn.gamma, bn.beta), bw)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if d < 1:
        raise ShapeError("layer_norm needs a non-empty last axis")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm affine shapes {gamma.shape}/{beta.shape} != ({d},)")
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv
    data = xhat * gamma.data + beta.data
    lead = tuple(range(x.ndim - 1))

    def bw(g):
        dgamma = (g * xhat).sum(axis=lead)
        dbeta = g.sum(axis=lead)
        dxhat = g * gamma.data
        dx = (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        ) * inv
        return dx, dgamma, dbeta

    return Tensor._from_op(data, (x, gamma, beta), bw)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


def _attention_core(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """softmax(q k^T) v over the last two axes of (B, H, S, dh) arrays, no graph.

    (batch, head) slices go in groups through a reused _SCORE_BYTES buffer,
    one per part of the kernel pool (as many parts as fit in
    _SCORE_SCRATCH_BYTES), so the (B, H, S, S) scores never exist at once. Each group runs the same
    per-slice matmuls and the same per-row max, subtract, exp, sum and
    divide as `_softmax(q @ k^T) @ v`, so the result is bit-identical to it.
    """
    b, h, s, dh = q.shape
    n = b * h
    q, k, v = (np.ascontiguousarray(a).reshape(n, s, dh) for a in (q, k, v))
    score_dtype = np.result_type(q, k)
    ctx = np.empty((n, s, dh), dtype=np.result_type(score_dtype, v))
    step = max(1, _SCORE_BYTES // (s * s * score_dtype.itemsize))
    parts = _parts(n, step, _SCORE_SCRATCH_BYTES // (step * s * s * score_dtype.itemsize))
    bufs = np.empty((len(parts), min(step, n), s, s), dtype=score_dtype)
    if dh == 1:
        # a score is the single product q_i * k_j, and rounding is monotone,
        # so a row's max is q_i * max(k) where q_i >= 0 and q_i * min(k) elsewhere
        kt = k.reshape(n, 1, s)
        rowmax = q * np.where(q >= 0, kt.max(axis=-1, keepdims=True),
                              kt.min(axis=-1, keepdims=True))
    else:
        kt = k.transpose(0, 2, 1)

    def task(p, lo, hi):
        for group in _blocks(lo, hi, step):
            block = bufs[p, :group.stop - group.start]
            if dh == 1:
                np.multiply(q[group], kt[group], out=block)
                _softmax(block, -1, out=block, amax=rowmax[group])
            else:
                _softmax(np.matmul(q[group], kt[group], out=block), -1, out=block)
            np.matmul(block, v[group], out=ctx[group])

    _fan_out(task, parts)
    return ctx.reshape(b, h, s, dh)


def multi_head_attention(
    x: Tensor,
    n_head: int,
    wq: Tensor, bq: Tensor,
    wk: Tensor, bk: Tensor,
    wv: Tensor, bv: Tensor,
    wo: Tensor, bo: Tensor,
    dropout_p: float = 0.0,
    rng=None,
    mode: str = "eval",
) -> Tensor:
    """Full bidirectional scaled dot-product attention over tokens.

    x is (S, D) or (B, S, D); the model width D must divide evenly into
    n_head heads, each scoring with 1/sqrt(D / n_head) scaling. Dropout, when
    requested, is applied to the attention weights. When no graph is recorded
    and dropout is off, the blocked `_attention_core` computes the same values
    without the (B, H, S, S) arrays.
    """
    squeeze = x.ndim == 2
    if squeeze:
        x = x.reshape(1, *x.shape)
    if x.ndim != 3:
        raise ShapeError(f"attention expects (S, D) or (B, S, D), got {x.shape}")
    b, s, d = x.shape
    if d % n_head != 0:
        raise ConfigurationError(f"model width {d} is not divisible by {n_head} heads")
    if dropout_p > 0:
        _check_dropout(dropout_p, mode)
    dh = d // n_head

    def split_heads(t: Tensor) -> Tensor:
        return t.reshape(b, s, n_head, dh).transpose(0, 2, 1, 3)

    # scaling q up front touches S*dh values instead of the S*S score matrix
    q = split_heads(linear(x, wq, bq)) * (1.0 / math.sqrt(dh))
    k = split_heads(linear(x, wk, bk))
    v = split_heads(linear(x, wv, bv))

    if (q.requires_grad or k.requires_grad or v.requires_grad
            or (dropout_p > 0 and mode == "train")):
        weights = softmax(q @ k.transpose(0, 1, 3, 2), axis=-1)
        attn = dropout(weights, dropout_p, rng, mode) if dropout_p > 0 else weights
        ctx = attn @ v
    else:
        ctx = Tensor(_attention_core(q.data, k.data, v.data))
    out = linear(ctx.transpose(0, 2, 1, 3).reshape(b, s, d), wo, bo)
    return out.reshape(s, d) if squeeze else out
