"""Dense tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a numpy array and records the operation that produced
it; ``backward()`` on a scalar walks the recorded graph in reverse topological
order, freeing it as it goes, and accumulates gradients into the leaves that
require them. float32 is the working precision for training and inference;
gradient checking builds the same graphs in float64. Inside
``with no_grad():`` no graph is recorded.

All differentiable kernels the network composes live here as free functions
(convolutions, pooling, normalization, attention, dropout, ...). Each keeps
the rule: finite inputs must give finite outputs.
"""

from __future__ import annotations

import contextlib
import functools
import ctypes
import glob
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, GraphFreedError, ShapeError

DEFAULT_DTYPE = np.float32

# glibc serves blocks of 32 MiB and more from fresh mmaps and unmaps them on
# free, so each such array is faulted in page by page every time. The paper's
# B=64 recipe has (64, 32, 28, 1000) float32 feature maps of 219 MiB, and
# heads wider than 1 build (B, H, S, S) arrays (571 MiB at B=64 with 32
# heads and S = 264; width-1 heads build none). Raising the mmap and trim
# thresholds to 1 GiB, above both, keeps freed step arrays on malloc's free
# lists for the next step to reuse. malloc also keeps one arena: each kernel
# pool thread would otherwise get its own, whose freed blocks the other
# threads never reuse (6-13 MiB more peak in a reference train step). Set
# once per process; forked fold workers inherit it.
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


@functools.lru_cache(maxsize=128)
def _grid(b: int, units: int, unit_bytes: int, cap: int) -> tuple:
    """The blocks (samples, units), as slices, of a pass over b samples of
    `units` units of `unit_bytes` each: as many whole samples as fit in
    `cap` where one fits, else ranges of one sample's units that fit (at
    least one unit). Row-major, the first block the largest; the blocks
    depend on the shape alone, so the results of a pass do not depend on
    the kernel pool's size, and each shape's blocks are made once."""
    whole = units * unit_bytes
    if whole <= cap:
        n = max(1, cap // max(1, whole))
        return tuple((slice(i, min(i + n, b)), slice(0, units)) for i in range(0, b, n))
    n = max(1, cap // unit_bytes)
    return tuple((slice(i, i + 1), slice(j, min(j + n, units)))
                 for i in range(b) for j in range(0, units, n))


def _block_units(blocks: tuple) -> int:
    """(sample, unit) cells of the first, largest block of a `_grid`; 0
    for no blocks."""
    if not blocks:
        return 0
    samples, units = blocks[0]
    return (samples.stop - samples.start) * (units.stop - units.start)


def _parts(total: int, most: int | None = None) -> list:
    """(lo, hi) runs of consecutive blocks covering range(total), one per
    pool thread and at most `most` (at least one)."""
    n = max(1, min(total, pool_threads(), total if most is None else most))
    return [(total * i // n, total * (i + 1) // n) for i in range(n)]


def _part_buffers(blocks: tuple, parts: list, dtype, *shapes) -> list:
    """Scratch of a pass over `blocks`, allocated by the calling thread: for
    each per-cell shape (None: no buffer), a buffer (parts, cells of the
    largest block, *shape) whose [p] is part p's."""
    n = _block_units(blocks)
    return [None if shape is None else np.empty((len(parts), n) + shape, dtype=dtype)
            for shape in shapes]


def _run_blocks(task, blocks: tuple, parts: list) -> None:
    """task(part, samples, units) for each block of each part through
    `_fan_out`."""
    def run(i, lo, hi):
        for samples, units in blocks[lo:hi]:
            task(i, samples, units)

    _fan_out(run, parts)


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


def recording(*tensors) -> bool:
    """Whether an op on `tensors` records a graph: outside `no_grad`, when
    any of them requires grad."""
    return _grad_enabled and any(t.requires_grad for t in tensors)


# Trailing axes shorter than this are averaged slice by slice. numpy reduces
# fewer than 8 elements in the same left-to-right order, so the result is
# bit-identical; from 8 on it switches to pairwise summation.
_SHORT_AXIS = 8

# Output steps L of one segment of a temporal convolution (`conv_temporal`,
# `_conv_segment`): each padded input row is copied into overlapping
# segments of L+K-1 samples, (L+K-1)/L times over (4.9 at the reference
# K = 125), where im2col would copy it K times.
_SEGMENT = 32

# The two caps of the `_grid` blocks that every pooled pass walks. A
# convolution's block is as many samples as fit their segments and products
# in _PART_BYTES (at least one), and each part holds one block's scratch.
# Every other pass cuts (sample, unit) rows at _SCORE_BYTES: the width-1
# attention op's (sample, head) slices, one S x S array exp(q k^T - m) each
# (3 heads at S = 264 in float32), so the exp and the matrix products that
# read it stay in a per-core L2 cache; the no-graph conv block's (sample,
# feature map) product rows; and the train-mode front end's (sample, feature
# map) rows (`_walk_rows`: batch norm, LeakyReLU, the pools' window copy and
# mean, and the convolution's bias). A pass that fits one block (every one
# of the small acceptance config, whose front-end arrays are 480 KiB at
# most) runs inline.
_PART_BYTES = 4 << 20
_SCORE_BYTES = 1 << 20

# Cap on the group buffers one pass of the width-1 attention op, forward or
# backward, holds at once: it fans out over as many parts (one buffer each)
# as fit, so its scratch does not grow with the kernel pool's size. Wider
# heads run the composite graph, whose S x S arrays are whole (B, H, S, S)
# arrays.
_SCORE_SCRATCH_BYTES = 3 << 20


def _short_axis_mean(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Mean over the short last axis of `a`, one strided slice at a time,
    into `out` when given."""
    n = a.shape[-1]
    if n > 1:
        out = np.add(a[..., 0], a[..., 1], out=out)
    elif out is None:
        out = a[..., 0].copy()
    else:
        out[...] = a[..., 0]
    for j in range(2, n):
        out += a[..., j]
    out /= n
    return out


def _walk_rows(task, rows: np.ndarray) -> None:
    """task(samples, maps) for each `_grid` block of the (sample, feature
    map) rows of `rows` (B, F, ...) under _SCORE_BYTES, fanned out over the
    kernel pool; `rows` that fit in one block are one call on the calling
    thread. Tasks write only block [samples, maps] of arrays the caller
    allocated."""
    b, f = rows.shape[:2]
    blocks = _grid(b, f, rows.itemsize * math.prod(rows.shape[2:]), _SCORE_BYTES)
    _run_blocks(lambda i, samples, maps: task(samples, maps), blocks, _parts(len(blocks)))


def _maps(a: np.ndarray) -> np.ndarray:
    """`a` as (sample, feature map) rows for `_walk_rows`: a view of at
    least rank 3, with leading axes of length 1 below that."""
    return a.reshape((1,) * (3 - a.ndim) + a.shape) if a.ndim < 3 else a


def _sample_sums(row_sums: np.ndarray) -> np.ndarray:
    """Per-feature totals of (B, F) row sums, added over samples in sample
    order. numpy's x.sum(axis=(0, 2)) of a C-contiguous (B, F, N) x sums
    each row pairwise, then adds the rows in that order, so totals of
    whole-row sums are bit-identical to it."""
    return row_sums.sum(axis=0)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if keep:
        grad = grad.sum(axis=keep, keepdims=True)
    return grad.reshape(shape)


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
        out.requires_grad = recording(*parents)
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
        data = self.data @ other.data

        def bw(g):
            ga = gb = None
            if self.requires_grad:
                ga = _unbroadcast(g @ np.swapaxes(other.data, -1, -2), self.shape)
            if other.requires_grad:
                gb = _unbroadcast(np.swapaxes(self.data, -1, -2) @ g, other.shape)
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
            rows = _maps(self.data)
            data = np.empty(self.shape[:-1], dtype=self.dtype)
            out = data.reshape(rows.shape[:-1])
            _walk_rows(lambda bs, fs: _short_axis_mean(rows[bs, fs], out[bs, fs]), rows)
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
        """Accumulate d(self)/d(leaf) into .grad for every reachable leaf,
        freeing the graph as it is walked.

        Leaves are tensors no op produced (inputs and parameters); interior
        nodes keep no .grad. A leaf's .grad adds up over calls until it is
        reset (the optimizer's zero_grad). Each interior node drops its
        parents and its backward closure as soon as its gradient has flowed
        on, so a graph is used once: a second backward() through any of its
        nodes, or through a new graph built on one, raises GraphFreedError
        before any gradient flows, leaving every .grad as it was.
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
            if node._backward is _freed_backward:
                _freed_backward(None)  # before any gradient flows, so no leaf changes
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        # Per-call gradient flow lives in `flowing`; a node's total is complete
        # when it is popped, and only leaf totals are added into .grad. No
        # backward writes into its incoming gradient, so flowing arrays may be
        # read-only views (a reduction's broadcast); a leaf's .grad never is.
        # Every key left in `flowing` is the id of a parent not yet popped, so
        # `topo` still holds it: a node freed mid-walk cannot hand its id to a
        # new object while that id is a live key.
        flowing = {id(self): np.ones_like(self.data)}
        while topo:
            node = topo.pop()
            g = flowing.pop(id(node), None)
            if node._backward is None:  # a leaf
                if g is None:
                    continue
                if node.grad is not None:
                    node.grad = node.grad + g
                else:
                    node.grad = g if g.flags.writeable else g.copy()
                continue
            if g is not None:
                for parent, pg in zip(node._parents, node._backward(g)):
                    if pg is None or not parent.requires_grad:
                        continue
                    cur = flowing.get(id(parent))
                    flowing[id(parent)] = pg if cur is None else cur + pg
            node._parents = ()
            node._backward = _freed_backward
            # left bound, these would pin this node's arrays through the next
            # node's backward
            node = g = parent = pg = cur = None


def _freed_backward(g):
    """Stands in for the backward closure of a node whose graph is freed."""
    raise GraphFreedError("backward through a graph already freed by an earlier backward()")


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


def _check_slope(slope: float) -> None:
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must be in (0, 1), got {slope}")


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    _check_slope(slope)
    s = x.data.dtype.type(slope)
    xs = _maps(x.data)
    data = np.empty(x.shape, dtype=x.dtype)
    out = _maps(data)

    def forward(bs, fs):
        np.multiply(s, xs[bs, fs], out=out[bs, fs])
        np.maximum(xs[bs, fs], out[bs, fs], out=out[bs, fs])  # s * x <= x exactly where x >= 0

    _walk_rows(forward, xs)

    def bw(g):
        xs, gs = _maps(x.data), _maps(g)
        gx = np.empty(x.shape, dtype=np.result_type(g, x.data))
        gxs = _maps(gx)

        def backward(bs, fs):
            # the factor is exactly 1 where x >= 0 and s elsewhere, since 0 < s < 1
            np.maximum(xs[bs, fs] >= 0, s, out=gxs[bs, fs])
            gxs[bs, fs] *= gs[bs, fs]

        _walk_rows(backward, gxs)
        return (gx,)

    return Tensor._from_op(data, (x,), bw)


def _softmax(a: np.ndarray, axis: int) -> np.ndarray:
    """Stable softmax of `a` along one axis, no graph."""
    y = a - a.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    return y


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along one axis (max subtraction before exponentiation)."""
    y = _softmax(x.data, axis)

    def bw(g):
        return ((g - (g * y).sum(axis=axis, keepdims=True)) * y,)

    return Tensor._from_op(y, (x,), bw)


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
    factor = np.multiply(keep, scale, dtype=x.data.dtype)
    data = x.data * factor

    def bw(g):
        return (g * factor,)

    return Tensor._from_op(data, (x,), bw)


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


def _windows(size: int, step: int, t: int) -> int:
    """Number of windows of `size` every `step` along an axis of length t."""
    if size < 1 or step < 1:
        raise ValueError(f"window size and step must be >= 1, got ({size}, {step})")
    if size > t:
        raise ShapeError(f"window size {size} exceeds axis length {t}")
    return (t - size) // step + 1


def sliding_windows(x: Tensor, size: int, step: int) -> Tensor:
    """Strided windows over the last axis: (..., T) -> (..., n, size)."""
    n = _windows(size, step, x.shape[-1])
    starts = np.arange(n) * step
    win = sliding_window_view(_maps(x.data), size, axis=-1)[..., ::step, :]
    # a copy even when the windows tile the axis and the view is contiguous
    data = np.empty(x.shape[:-1] + (n, size), dtype=x.dtype)
    out = data.reshape(win.shape)

    def forward(bs, fs):
        out[bs, fs] = win[bs, fs]

    _walk_rows(forward, out)

    def bw(g):
        gx = np.empty(x.shape, dtype=x.dtype)
        gxs = _maps(gx)
        gs = g.reshape(gxs.shape[:-1] + (n, size))

        def tiled(bs, fs):  # the windows tile the axis: each position is written once
            tiles = gxs[bs, fs, ..., :n * size].reshape(gs[bs, fs].shape)
            for j in range(size):
                # + 0 turns a -0.0 gradient into the +0.0 that zeros + g gives
                np.add(gs[bs, fs, ..., j], 0, out=tiles[..., j])
            gxs[bs, fs, ..., n * size:] = 0

        def overlapping(bs, fs):
            gxs[bs, fs] = 0
            for j in range(size):
                # offset j of every window: distinct positions, one strided slice
                gxs[bs, fs, ..., j:starts[-1] + j + 1:step] += gs[bs, fs, ..., j]

        _walk_rows(tiled if step == size else overlapping, gs)
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


def _conv_pad(x: np.ndarray, k: int) -> np.ndarray:
    """x (B, F_in, C, T) padded in time with floor((K-1)/2) leading and
    ceil((K-1)/2) trailing zeros; x itself at K = 1."""
    if k == 1:
        return x
    xpad = np.zeros(x.shape[:3] + (x.shape[3] + k - 1,), dtype=x.dtype)
    xpad[..., (k - 1) // 2:(k - 1) // 2 + x.shape[3]] = x
    return xpad


def _conv_segment(k: int) -> int:
    """Output steps L of one segment of a temporal convolution of length K:
    _SEGMENT, or a quarter of it for kernels shorter than that, so that the
    L - 1 zeros a row of the Toeplitz matrix holds stay below its K taps
    (from K = 8 on); 1 at K = 1, whose segments are its input itself."""
    if k == 1:
        return 1
    return _SEGMENT if k >= _SEGMENT else _SEGMENT // 4


def _strided(a: np.ndarray, shape: tuple, strides: tuple) -> np.ndarray:
    """A view of the memory of C-contiguous `a` with the given shape and
    byte strides: `as_strided` without its per-call cost, and bounds-checked
    against `a`."""
    return np.ndarray(shape, a.dtype, a, 0, strides)


def _toeplitz(w: np.ndarray, seg: int) -> np.ndarray:
    """Kernels w (F_out, F_in, K) as one banded (F_out*L, F_in*(L+K-1))
    matrix, L = seg: row (o, l) holds w[o, i, j] in column (i, l + j) and
    zeros elsewhere, so it maps a segment of L+K-1 input samples of each
    input map to L output steps of each output map."""
    f_out, f_in, k = w.shape
    toe = np.zeros((f_out, seg, f_in, seg + k - 1), dtype=w.dtype)
    s = toe.strides
    _strided(toe, (f_out, seg, f_in, k), (s[0], s[1] + s[3], s[2], s[3]))[...] = w[:, None]
    return toe.reshape(f_out * seg, f_in * (seg + k - 1))


def _segments(a: np.ndarray, seg: int, t: int, out: np.ndarray | None) -> np.ndarray:
    """Segments of rows a (n, F, C, T'), one row of (n, C*nb, F*S) per
    (channel, segment): segment b of row (f, c) is a[f, c, b*L:b*L + S],
    zero past the row's end, for L = seg, S = out.shape[-1] and nb =
    ceil(t / L) segments. `out` (n, C, nb, F, S) receives them, copied in
    runs of S contiguous samples; with S = L = 1 (out None) they are a
    itself."""
    n, f, c = a.shape[:3]
    if out is None:
        return a.reshape(n, f, c * t).transpose(0, 2, 1)
    a = np.ascontiguousarray(a)
    nb, span, full = out.shape[2], out.shape[-1], t // seg
    s = a.strides
    out[:, :, :full] = _strided(a, (n, c, full, f, span), (s[0], s[2], seg * s[3], s[1], s[3]))
    if full < nb:
        tail = a[..., full * seg:]
        out[:, :, full, :, :tail.shape[-1]] = tail.transpose(0, 2, 1, 3)
        out[:, :, full, :, tail.shape[-1]:] = 0
    return out.reshape(n, c * nb, f * span)


def _unsegment(prods: np.ndarray, seg: int, out: np.ndarray) -> None:
    """Write products (n, F*L, C*nb) of segments of L = seg output steps back
    in time order into out (n, F, C, T)."""
    n, f, c, t = out.shape
    p = prods.reshape(n, f, seg, c, -1)
    full = t // seg
    out[..., :full * seg].reshape(n, f, c, full, seg)[...] = p[..., :full].transpose(0, 1, 3, 4, 2)
    if full < p.shape[-1]:
        out[..., full * seg:] = p[:, :, :t - full * seg, :, full].transpose(0, 1, 3, 2)


def _overlap_add(grads: np.ndarray, seg: int, k: int, acc: np.ndarray | None,
                 out: np.ndarray) -> None:
    """Add gradients (n, F*(L+K-1), C*nb) of the segments of padded rows
    (`_segments` with L = seg, S = L+K-1) back at their offsets in acc (n,
    F, C, nb + ceil(S / L) - 1, L), one strided pass per L samples of a
    segment, and write the unpadded T steps into out (n, F, C, T); at K = 1
    (acc None) the one pass writes out itself."""
    n, f, c, t = out.shape
    span = seg + k - 1
    nb = grads.shape[-1] // c
    g = grads.reshape(n, f, span, c, nb)
    if acc is None:
        acc = out.reshape(n, f, c, t, 1)
    # + 0 turns a -0.0 gradient into +0.0, as zeros + g would
    np.add(g[:, :, :seg].transpose(0, 1, 3, 4, 2), 0, out=acc[..., :nb, :])
    acc[..., nb:, :] = 0
    for j in range(1, acc.shape[3] - nb + 1):
        width = min(seg, span - j * seg)
        acc[..., j:j + nb, :width] += g[:, :, j * seg:j * seg + width].transpose(0, 1, 3, 4, 2)
    if k > 1:
        pad_l = (k - 1) // 2
        out[...] = acc.reshape(n, f, c, -1)[..., pad_l:pad_l + t]


def _conv_forward(xpad: np.ndarray, w: np.ndarray, t: int, seg: int,
                  epilogue=None) -> np.ndarray | None:
    """The convolution of padded input xpad (B, F_in, C, T+K-1) with kernels
    w (F_out, F_in, K), lowered to segments of L = seg output steps: the
    Toeplitz matrix of w @ the segments of each sample, one matrix product a
    sample, in `_grid` blocks of samples (one unit a sample, under
    _PART_BYTES) fanned out over the kernel pool. Without `epilogue`,
    returns the (B, F_out, C, T) output. With it, each block's products
    (n, F_out*L, C*nb) go to its part's buffer, where epilogue(prods, rows)
    consumes those of samples `rows`; returns None."""
    b, f_in, c, _ = xpad.shape
    f_out, _, k = w.shape
    toe = _toeplitz(w, seg)
    span, nb = seg + k - 1, -(-t // seg)
    dtype = np.result_type(xpad, w)
    direct = epilogue is None and seg == 1  # products in time order already
    out = None if epilogue is not None else np.empty((b, f_out, c, t), dtype=dtype)
    blocks = _grid(b, 1, (f_in * span + f_out * seg) * c * nb * dtype.itemsize, _PART_BYTES)
    parts = _parts(len(blocks))
    segs, prods = _part_buffers(blocks, parts, dtype,
                                None if seg == 1 else (c, nb, f_in, span),
                                None if direct else (f_out * seg, c * nb))

    def task(i, rows, _):
        m = rows.stop - rows.start
        cols = _segments(xpad[rows], seg, t, None if segs is None else segs[i, :m])
        cols = cols.transpose(0, 2, 1)
        if direct:
            np.matmul(toe, cols, out=out[rows].reshape(m, f_out, c * t))
            return
        p = np.matmul(toe, cols, out=prods[i, :m])
        if epilogue is None:
            _unsegment(p, seg, out[rows])
        else:
            epilogue(p, rows)

    _run_blocks(task, blocks, parts)
    return out


def _check_conv_temporal(x, kernels, bias) -> None:
    if x.ndim != 4:
        raise ShapeError(f"conv_temporal expects rank-4 input, got shape {x.shape}")
    if kernels.ndim != 4 or kernels.shape[2] != 1:
        raise ShapeError(f"conv_temporal kernels must be (F_out, F_in, 1, K), got {kernels.shape}")
    if kernels.shape[1] != x.shape[1]:
        raise ShapeError(f"kernel F_in {kernels.shape[1]} != input F_in {x.shape[1]}")
    if bias.shape != (kernels.shape[0],):
        raise ShapeError(f"bias shape {bias.shape} != ({kernels.shape[0]},)")


def conv_temporal(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """1-D convolution along time with same padding.

    x (B, F_in, C, T), kernels (F_out, F_in, 1, K), bias (F_out,).
    Time is padded with floor((K-1)/2) leading and ceil((K-1)/2) trailing
    zeros, so the output time length equals T; the channel axis is untouched.
    Each padded row is cut into nb = ceil(T / L) overlapping segments of
    L+K-1 samples (`_segments`; L = `_conv_segment(K)`, and at K = 1 the
    segments are x itself), and the kernels into one banded (F_out*L,
    F_in*(L+K-1)) Toeplitz matrix (`_toeplitz`). With G the cotangent cut
    into blocks of L steps (its segments at K = 1):
      output          Toeplitz @ segments
      weight gradient G @ segments^T, its K diagonals summed
      input gradient  Toeplitz^T @ G, the segments added back (`_overlap_add`)
    Each sample is its own matrix product, in `_grid` blocks of samples
    under _PART_BYTES fanned out over the kernel pool. The weight gradient
    sums a block's products in sample order before taking the diagonals, and
    adds the blocks in order; the blocks do not depend on the pool's size,
    so neither do the values. The graph holds the padded input (as its
    window view, whose rows backward copies out again) and the kernels, not
    the Toeplitz matrix or the segments, which backward builds again.
    """
    _check_conv_temporal(x, kernels, bias)
    b_, f_in, c, t = x.shape
    f_out, _, _, k = kernels.shape
    seg = _conv_segment(k)
    xpad = _conv_pad(x.data, k)
    w = kernels.data.reshape(f_out, f_in, k)
    data = _conv_forward(xpad, w, t, seg)
    bias_maps = bias.data.reshape(f_out, 1, 1)

    def add_bias(bs, fs):
        data[bs, fs] += bias_maps[fs]

    _walk_rows(add_bias, data)
    # the graph keeps the padded input as its (B, F_in, C, T, K) window view
    win = sliding_window_view(xpad, k, axis=3)

    def bw(g):
        gx = gw = gb = None
        if x.requires_grad or kernels.requires_grad:
            padded = win[..., 0]  # the padded rows: the first tap, then the last window's rest
            if k > 1:
                padded = np.concatenate((padded, win[..., -1, 1:]), axis=-1)
            toe = _toeplitz(w, seg) if x.requires_grad else None
            dtype = np.result_type(g, w, padded)
            span, nb = seg + k - 1, -(-t // seg)
            # G blocks, segments, G @ segments^T, Toeplitz^T @ G, overlap-add
            shapes = [(c, nb, f_out, seg), (c, nb, f_in, span), (f_out * seg, f_in * span),
                      (f_in * span, c * nb), (f_in, c, nb + -(-span // seg) - 1, seg)]
            blocks = _grid(b_, 1, sum(map(math.prod, shapes)) * dtype.itemsize, _PART_BYTES)
            parts, step = _parts(len(blocks)), _block_units(blocks)
            if seg == 1:  # the G blocks and the segments are g and x, the sums gx itself
                shapes[0] = shapes[1] = shapes[4] = None
            if not kernels.requires_grad:
                shapes[1:3] = None, None
            if not x.requires_grad:
                shapes[3:] = None, None
            bufs = _part_buffers(blocks, parts, dtype, *shapes)
            gx = np.empty(x.shape, dtype=dtype) if x.requires_grad else None
            gws = np.empty((len(blocks), f_out, f_in, k), dtype=dtype)  # one a block
            dsums = np.empty((len(parts), f_out * seg, f_in * span), dtype=dtype)

            def task(i, rows, _):
                gsegs_, xsegs_, dws_, dsegs_, accs_ = (
                    None if buf is None else buf[i, :rows.stop - rows.start] for buf in bufs)
                gcols = _segments(g[rows], seg, t, gsegs_)
                if x.requires_grad:
                    dseg = np.matmul(toe.T, gcols.transpose(0, 2, 1), out=dsegs_)
                    _overlap_add(dseg, seg, k, accs_, gx[rows])
                if kernels.requires_grad:
                    cols = _segments(padded[rows], seg, t, xsegs_)
                    d = np.matmul(gcols.transpose(0, 2, 1), cols, out=dws_).sum(axis=0,
                                                                               out=dsums[i])
                    # the K diagonals of the block's (F_out, L, F_in, L+K-1) sum
                    s = d.reshape(f_out, seg, f_in, span).strides
                    _strided(d, (f_out, f_in, k, seg), (s[0], s[2], s[3], s[1] + s[3])
                             ).sum(axis=-1, out=gws[rows.start // step])

            _run_blocks(task, blocks, parts)
            if kernels.requires_grad:
                gw = gws.sum(axis=0).reshape(kernels.shape)
        if bias.requires_grad:  # the order of g.sum(axis=(0, 2, 3)), see _sample_sums
            g3 = g.reshape(b_, f_out, c * t)
            sums = np.empty((b_, f_out), dtype=g3.dtype)
            _walk_rows(lambda bs, fs: g3[bs, fs].sum(axis=-1, out=sums[bs, fs]), g3)
            gb = _sample_sums(sums)
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


def _check_gamma(bn: BatchNormState, f: int) -> None:
    if bn.gamma.shape != (f,):
        raise ShapeError(f"gamma shape {bn.gamma.shape} != ({f},)")


def _running_affine(bn: BatchNormState) -> tuple:
    """Eval-mode batch norm as x * scale + shift per feature map:
    (mean, inv, scale, shift), where mean is a copy of the running mean (a
    later train-mode call updates it in place) and inv = 1 / sqrt(var + eps)."""
    mean = bn.running_mean.copy()
    inv = 1.0 / np.sqrt(bn.running_var + bn.eps)
    scale = bn.gamma.data * inv
    return mean, inv, scale, bn.beta.data - mean * scale


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
    _check_gamma(bn, f)
    x3 = x.data.reshape(b, f, c * t)
    gamma = bn.gamma.data
    n = b * c * t

    if mode == "train":
        if n < 2:
            raise ShapeError("train-mode batch norm needs at least 2 values per feature map")
        # the (sample, feature map) rows of x3 in `_walk_rows` blocks, one
        # pass per whole-array step below; the per-feature sums are
        # `_sample_sums` of row sums, so the statistics are bit-identical to
        # x3.sum(axis=(0, 2)) and to numpy's mean and var
        sums = np.empty((b, f), dtype=x3.dtype)
        _walk_rows(lambda bs, fs: x3[bs, fs].sum(axis=-1, out=sums[bs, fs]), x3)
        mean = _sample_sums(sums) / n
        xhat, out = np.empty(x3.shape, dtype=x3.dtype), np.empty(x3.shape, dtype=x3.dtype)

        def centre(bs, fs):
            np.subtract(x3[bs, fs], mean[fs, None], out=xhat[bs, fs])
            np.multiply(xhat[bs, fs], xhat[bs, fs], out=out[bs, fs])
            out[bs, fs].sum(axis=-1, out=sums[bs, fs])

        _walk_rows(centre, x3)
        var = _sample_sums(sums) / n  # biased, used for normalization
        m = bn.momentum
        bn.running_mean *= 1.0 - m
        bn.running_mean += m * mean
        bn.running_var *= 1.0 - m
        bn.running_var += m * var * (n / (n - 1))  # unbiased running estimate
        inv = 1.0 / np.sqrt(var + bn.eps)
        beta = bn.beta.data

        def normalize(bs, fs):
            xhat[bs, fs] *= inv[fs, None]
            np.multiply(gamma[fs, None], xhat[bs, fs], out=out[bs, fs])
            out[bs, fs] += beta[fs, None]

        _walk_rows(normalize, x3)

        def bw(g):
            # with dxhat = g * gamma, the two means of the composite formula
            # are gamma * dbeta / n and gamma * dgamma / n
            g3 = g.reshape(b, f, c * t)
            dx = np.empty(xhat.shape, dtype=np.result_type(g3, xhat))
            gsums, dsums = np.empty((b, f), dtype=g3.dtype), np.empty((b, f), dtype=dx.dtype)

            def row_sums(bs, fs):
                g3[bs, fs].sum(axis=-1, out=gsums[bs, fs])
                np.multiply(g3[bs, fs], xhat[bs, fs], out=dx[bs, fs])
                dx[bs, fs].sum(axis=-1, out=dsums[bs, fs])

            _walk_rows(row_sums, dx)
            dbeta, dgamma = _sample_sums(gsums), _sample_sums(dsums)
            dgamma_n, dbeta_n, scale = dgamma / n, dbeta / n, gamma * inv

            def dx_rows(bs, fs):
                np.multiply(xhat[bs, fs], dgamma_n[fs, None], out=dx[bs, fs])
                np.subtract(g3[bs, fs], dx[bs, fs], out=dx[bs, fs])
                dx[bs, fs] -= dbeta_n[fs, None]
                dx[bs, fs] *= scale[fs, None]

            _walk_rows(dx_rows, dx)
            return dx.reshape(x.shape), dgamma, dbeta

        return Tensor._from_op(out.reshape(x.shape), (x, bn.gamma, bn.beta), bw)

    running_mean, inv, scale, shift = _running_affine(bn)
    out = x3 * scale[:, None]
    out += shift[:, None]

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
# no-graph kernels
# ---------------------------------------------------------------------------


def _conv_block(x: Tensor, kernels: Tensor, bias: Tensor, bn: BatchNormState,
                slope: float, pool: int) -> np.ndarray:
    """conv_temporal -> batch_norm(mode="eval") -> leaky_relu(slope) ->
    avg_pool_time(pool, pool) of x (B, F_in, C, T), no graph: (B, F, C, T // pool).

    The convolution runs `conv_temporal`'s lowering. Each sample block's
    products (sample, feature map, L, C*nb) are finished in its part's
    buffer, one `_grid` block of (sample, feature map) rows under
    _SCORE_BYTES at a time, while still in cache: + bias, * scale, + shift
    (per-feature broadcasts), LeakyReLU, then the mean of each pool's rows,
    written straight into the pooled result.
    (A pool that does not divide L pools a time-ordered copy of the row
    block instead; the model's pools divide it. At K = 1, L = 1 and the
    columns are in time order.) So the (B, F, C, T) activations, a
    time-ordered copy of them and the pool's window copy never exist;
    scratch is one block's segments and products, and one row block's
    LeakyReLU temporary, a part. Each sample is one matrix product, and the
    elementwise ops are the composite ops' own, in their order and dtypes
    (the model's parameters and buffers share one dtype), so the result is
    bit-identical to theirs for pools shorter than _SHORT_AXIS (the model's
    are 4 and 2; from 8 on `Tensor.mean` sums pairwise). Shape errors are
    theirs too.
    """
    _check_conv_temporal(x, kernels, bias)
    b, f_in, c, t = x.shape
    f_out, _, _, k = kernels.shape
    _check_gamma(bn, f_out)
    _check_slope(slope)
    n = _windows(pool, pool, t)
    _, _, scale, shift = _running_affine(bn)
    # per feature map: its bias, scale and shift
    map_bias, map_scale, map_shift = (a.reshape(f_out, 1, 1) for a in (bias.data, scale, shift))
    seg = _conv_segment(k)
    nb = -(-t // seg)
    w = kernels.data.reshape(f_out, f_in, k)
    dtype = np.result_type(x.data, w)
    s = dtype.type(slope)
    pooled = np.empty((b, f_out, c, n), dtype=dtype)

    def pool_rows(z, out):
        """Pooled means of rows z (r, L, C*nb) into out (r, C, n)."""
        r = len(z)
        if seg % pool:  # in time order: a copy, except at L = 1
            z = z.reshape(r, seg, c, nb).transpose(0, 2, 3, 1).reshape(r, c, nb * seg)
            _short_axis_mean(z[..., :n * pool].reshape(r, c, n, pool), out)
            return
        # the means in the products' layout, then in time order into out: a
        # segment of L steps pools to one of L / pool
        per = seg // pool
        means = _short_axis_mean(z.reshape(r, per, pool, c, nb).transpose(0, 1, 3, 4, 2))
        _unsegment(means.reshape(r, per, c * nb), per, out.reshape(r, 1, c, n))

    def epilogue(prods, rows):
        z4 = prods.reshape(-1, f_out, seg, c * nb)
        out = pooled[rows]
        # a block is whole samples or one sample's range of maps: contiguous
        # rows, so the reshapes below are views
        for samples, maps in _grid(len(z4), f_out, seg * c * nb * dtype.itemsize, _SCORE_BYTES):
            z = z4[samples, maps]
            z += map_bias[maps]
            z *= map_scale[maps]
            z += map_shift[maps]
            np.maximum(z, s * z, out=z)
            pool_rows(z.reshape(-1, seg, c * nb), out[samples, maps].reshape(-1, c, n))

    _conv_forward(_conv_pad(x.data, k), w, t, seg, epilogue)
    return pooled


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


def _group_run(shape: tuple, group: tuple) -> tuple:
    """(dims, start) of one group (samples, heads) of (B, H, S, S) weights:
    its (samples, heads, S, S) shape and the index of its first weight in
    the flattened weights."""
    samples, heads = group
    _, h, s, _ = shape
    dims = (samples.stop - samples.start, heads.stop - heads.start, s, s)
    return dims, (samples.start * h + heads.start) * s * s


def _group_keep(keep: np.ndarray, dims: tuple, start: int) -> np.ndarray:
    """The 0/1 keep-mask (uint8) of one group of weights (`_group_run`'s dims
    and start), unpacked from the little-endian packed bits `keep`
    (`Rng.keep_bits`); the group's run starts mid-byte when S * S is not a
    multiple of 8."""
    n = math.prod(dims)
    lo, skip = divmod(start, 8)
    bits = np.unpackbits(keep[lo:-(-(start + n) // 8)], count=skip + n, bitorder="little")
    return bits[skip:].reshape(dims)


def _dh1_products(q: np.ndarray, k: np.ndarray, rowmax: np.ndarray, keep: np.ndarray | None,
                  operands: list) -> list:
    """[P a] or [P a, P^T b] of `operands` [a] or [a, b], (B, H, S, c) arrays,
    for (B, H, S, 1) heads q, k with row maxima m: P is E = exp(q k^T - m)
    in the last column of each product and W = E * M in the others, M being
    the keep-mask of (B, H, S, S) weights given as packed bits `keep`
    (`Rng.keep_bits`; None: W = E).

    The (sample, head) slices go in `_grid` groups under _SCORE_BYTES, one
    S x S array a slice: whole samples where one fits, else a range of one
    sample's heads, so a group is a 4-D view of a strided head view and one
    run of the flattened (B, H, S, S) weights. The groups fan out over as
    many parts of the kernel pool as fit their buffers in
    _SCORE_SCRATCH_BYTES. Each group builds E in its part's one buffer: the
    shifted scores q_i k_j - m_i as one rank-2 product [q, -m] @ [k^T; 1],
    then exp in place. It runs the E products first, then multiplies E in
    place by its unpacked keep bits, then runs the W products; without
    dropout that is one product per operand. So no (B, H, S, S) array
    exists, and the results do not depend on the pool's size.
    """
    dtype = operands[0].dtype
    qm = np.concatenate((q, -rowmax), axis=-1, dtype=dtype)
    kt1 = np.ones(k.shape[:2] + (2, k.shape[2]), dtype=dtype)
    kt1[..., 0, :] = k[..., 0]
    b, h, s, _ = q.shape
    slice_bytes = s * s * dtype.itemsize
    groups = _grid(b, h, slice_bytes, _SCORE_BYTES)
    parts = _parts(len(groups),
                   _SCORE_SCRATCH_BYTES // max(1, _block_units(groups) * slice_bytes))
    (bufs,) = _part_buffers(groups, parts, dtype, (s * s,))
    outs = [np.empty_like(a) for a in operands]

    def task(p, *group):
        dims, start = _group_run(q.shape, group)
        e = bufs[p, :dims[0] * dims[1]].reshape(dims)
        np.matmul(qm[group], kt1[group], out=e)
        np.exp(e, out=e)

        def products(cols):
            for mat, a, out in zip((e, e.swapaxes(-1, -2)), operands, outs):
                np.matmul(mat, a[group][..., cols], out=out[group][..., cols])

        if keep is None:
            products(slice(None))
        else:
            products(slice(-1, None))
            e *= _group_keep(keep, dims, start)
            products(slice(None, -1))

    _run_blocks(task, groups, parts)
    return outs


def _dh1_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray, keep: np.ndarray | None,
                 scale) -> tuple:
    """(ctx, rowmax, rowsum) of (B, H, S, 1) heads, no graph: ctx is
    softmax(q k^T) v, or with a keep-mask M of (B, H, S, S) weights, given as
    packed bits (`Rng.keep_bits`), softmax(q k^T) * (M * scale) v; the rest
    is what backward needs, each row's max m and softmax denominator l
    (B, H, S, 1). The row maxima come without the scores: rounding is
    monotone, so a row's max is q_i * max(k) where q_i >= 0 and q_i * min(k)
    elsewhere.

    In closed form, with E = exp(q k^T - m), l = E 1 and W = E * M:
    ctx = scale * (W v) / l, with the division and the scale applied to S
    values. `_dh1_products` gives W v and l as [W v, E 1] = P [v, 1]. The
    values agree with `dropout(softmax(q @ k^T)) @ v` to rounding.
    """
    dtype = np.result_type(q, k, v)
    rowmax = q * np.where(q >= 0, k.max(axis=-2, keepdims=True), k.min(axis=-2, keepdims=True))
    (prods,) = _dh1_products(q, k, rowmax, keep,
                             [np.concatenate((v, np.ones_like(v)), axis=-1, dtype=dtype)])
    rowsum = prods[..., 1:].copy()
    ctx = np.divide(prods[..., :1], rowsum)
    if scale is not None:
        ctx *= scale
    return ctx, rowmax, rowsum


def _attention_dh1(q: Tensor, k: Tensor, v: Tensor, keep: np.ndarray | None, scale) -> Tensor:
    """dropout(softmax(q k^T)) @ v of (B, H, S, 1) heads as one op, the
    dropout given as its keep-mask in packed bits (`Rng.keep_bits`; None:
    no dropout) and scale.

    Forward is `_dh1_forward`. The graph holds q, k, v, each row's max m
    and softmax denominator l, the output o and the packed keep-mask, one
    bit per weight: no (B, H, S, S) float or bool array. At width 1 the
    softmax backward has a closed form (FlashAttention's D = rowsum(dO * O),
    here D = g * o). With E, W and the scale as in `_dh1_forward`:
      dv = scale * W^T (g / l)
      dq = (g / l) * (scale * W (v * k)) - (D / l) * (E k)
      dk = v * (scale * W^T (g * q / l)) - E^T (D * q / l)
    Backward rebuilds E group by group (`_dh1_products`) for the products
    P [v * k, k] and P^T [g / l, g * q / l, D * q / l], whose last columns
    take E and the others W; the scale is applied to their S values. The
    gradients agree with the composite graph's to rounding.
    """
    qd, kd, vd = q.data, k.data, v.data
    ctx, rowmax, rowsum = _dh1_forward(qd, kd, vd, keep, scale)

    def bw(g):
        dtype = np.result_type(g, qd, kd, vd)
        left = np.empty(qd.shape[:3] + (3,), dtype=dtype)  # [g / l, g q / l, D q / l]
        gl = np.divide(g, rowsum, out=left[..., :1])
        np.multiply(gl, qd, out=left[..., 1:2])
        np.multiply(left[..., 1:2], ctx, out=left[..., 2:])
        # [W (v k), E k] and [W^T (g / l), W^T (g q / l), E^T (D q / l)]
        right_prods, left_prods = _dh1_products(
            qd, kd, rowmax, keep, [np.concatenate((vd * kd, kd), axis=-1, dtype=dtype), left])
        if scale is not None:
            right_prods[..., :1] *= scale
            left_prods[..., :2] *= scale
        # dq = (g / l) (scale W (v k) - o E k), as D / l = (g / l) o
        dq = right_prods[..., :1] - ctx * right_prods[..., 1:]
        dq *= gl
        dk = vd * left_prods[..., 1:2]
        dk -= left_prods[..., 2:]
        return dq, dk, left_prods[..., :1]

    return Tensor._from_op(ctx, (q, k, v), bw)


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
    requested, is applied to the attention weights. The path depends on the
    head width alone, in every mode (train, eval, no_grad):
    - heads of width 1 (the paper's 32 heads on 32-dim tokens) run one op,
      `_attention_dh1`, which holds no (B, H, S, S) float or bool array (its
      keep-mask is drawn as packed bits, `Rng.keep_bits`);
    - wider heads run q @ k^T -> softmax -> dropout -> @ v as plain numpy
      ops, which build whole (B, H, S, S) arrays, also in a forward that
      records no graph.
    Both agree with the composite's values to rounding and draw the same
    keep-mask.
    """
    squeeze = x.ndim == 2
    if squeeze:
        x = x.reshape(1, *x.shape)
    if x.ndim != 3:
        raise ShapeError(f"attention expects (S, D) or (B, S, D), got {x.shape}")
    b, s, d = x.shape
    if d % n_head != 0:
        raise ConfigurationError(f"model width {d} is not divisible by {n_head} heads")
    _check_dropout(dropout_p, mode)
    dh = d // n_head

    def split_heads(t: Tensor) -> Tensor:
        return t.reshape(b, s, n_head, dh).transpose(0, 2, 1, 3)

    # scaling q up front touches S*dh values instead of the S*S score matrix
    q = split_heads(linear(x, wq, bq)) * (1.0 / math.sqrt(dh))
    k = split_heads(linear(x, wk, bk))
    v = split_heads(linear(x, wv, bv))

    if dh == 1:
        keep = scale = None
        if dropout_p > 0 and mode == "train":
            if rng is None:
                raise ValueError("train-mode dropout needs an Rng")
            keep = rng.keep_bits(dropout_p, (b, n_head, s, s))
            scale = np.result_type(q.data, k.data).type(1.0 / (1.0 - dropout_p))
        ctx = _attention_dh1(q, k, v, keep, scale)
    else:
        weights = softmax(q @ k.transpose(0, 1, 3, 2), axis=-1)
        ctx = dropout(weights, dropout_p, rng, mode) @ v
    out = linear(ctx.transpose(0, 2, 1, 3).reshape(b, s, d), wo, bo)
    return out.reshape(s, d) if squeeze else out
