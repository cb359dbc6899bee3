"""Spans and per-layer counts, recorded from outside the program.

A :class:`Tracer` replaces public callables of the ``patchformer`` modules
with timing wrappers for the length of a traced run and puts the originals
back afterwards. Every wrapped call becomes a span (name, start, end,
parent); kernel calls also carry shape-derived FLOP and byte counts, and the
backward closures of the graph nodes a kernel created are wrapped so that
their time is attributed to that kernel. While ``tracemalloc`` is tracing,
each span also records its peak of traced bytes above its start.

Spans stay in memory and are written when the run ends. Fold workers forked
by ``runners.run_loso(parallel_folds>1)`` inherit the wrappers; each worker
writes its spans to a file when a fold ends, and :meth:`Tracer.collect_workers`
merges them. ``time.perf_counter`` reads one system-wide monotonic clock on
Linux, so worker spans nest inside the parent's spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from patchformer import (
    checkpoint, data, losses, metrics, model, optim, rng, runners, segio, synth, tensor,
)
from patchformer.tensor import Tensor

# `patchformer.train` is shadowed by the function the package re-exports
# under the same name, so the module comes from the import system.
train = importlib.import_module("patchformer.train")

MIB = float(1 << 20)

# Kernels of the autodiff engine that get calls / fwd / bwd / peak / flops /
# bytes; `aggregate` is the spatial-patching kernel and lives in `model`.
KERNELS = (
    "conv_temporal", "conv_spatial", "multi_head_attention", "batch_norm",
    "layer_norm", "linear", "sliding_windows", "softmax", "dropout", "aggregate",
)

# PatchFormerModel stage method -> span name
MODEL_STAGES = {
    "temporal_cnn": "model.tcnn",
    "feature_enhance": "model.fem",
    "spm": "model.spm",
    "tpm": "model.tpm",
    "transformer_encode": "model.encoder",
}
# (owner, attribute, span name) of every other wrapped callable
LAYER_CALLS = (
    (tensor.Tensor, "backward", "tensor.backward"),
    (rng.Rng, "keep_mask", "rng.keep_mask"),
    (losses, "cross_entropy", "losses.cross_entropy"),
    (optim, "adam_step", "optim.adam_step"),
    (train, "train", "train.train"),
    (train, "predict_proba", "train.predict_proba"),
    (optim, "cosine_lr", "train.cosine_lr"),
    (data, "loso_split", "data.loso_split"),
    (synth, "synth_generate", "synth.generate"),
    (segio, "save_segments", "segio.save"),
    (segio, "load_segments", "segio.load"),
    (checkpoint, "save_model", "checkpoint.save"),
    (checkpoint, "load_model", "checkpoint.load"),
    (metrics, "roc_auc", "metrics.roc_auc"),
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "mem0", "peak", "attrs")

    def __init__(self, sid, name, parent):
        self.id = sid
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = None
        self.mem0 = 0
        self.peak = 0
        self.attrs = None

    def to_dict(self):
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "peak_bytes": self.peak - self.mem0,
                **(self.attrs or {})}


# ---------------------------------------------------------------------------
# computed counts
# ---------------------------------------------------------------------------


def _root_buffer(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def graph_stats(out: Tensor) -> tuple[int, int]:
    """(op nodes, bytes held) of the autodiff graph that ends at `out`.

    Bytes count every distinct buffer the graph keeps alive: node values,
    leaves (inputs and parameters) and arrays captured by backward closures.
    Views are charged once, to the buffer they look into.
    """
    buffers = {}
    seen = set()
    nodes = 0
    stack = [out]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        root = _root_buffer(t.data)
        buffers[id(root)] = root.nbytes
        if t._backward is None:
            continue
        nodes += 1
        for cell in inspect.unwrap(t._backward).__closure__ or ():
            try:
                value = cell.cell_contents
            except ValueError:  # cell not yet bound
                continue
            if isinstance(value, np.ndarray):
                root = _root_buffer(value)
                buffers[id(root)] = root.nbytes
            elif isinstance(value, Tensor):
                stack.append(value)
        stack.extend(t._parents)
    return nodes, sum(buffers.values())


def kernel_counts(op: str, args: tuple, kwargs: dict, out) -> tuple[int, int]:
    """Forward FLOPs and bytes of one kernel call, computed from shapes.

    Bytes are one read of every tensor argument plus one write of the output.
    FLOPs count multiply-adds as two and keep the dominant terms only.
    """
    x = args[0]
    result = out[0] if isinstance(out, tuple) else out
    tensors = [a for a in (*args, *kwargs.values()) if isinstance(a, Tensor)]
    if op == "batch_norm":
        tensors += [args[1].gamma, args[1].beta]
    nbytes = sum(t.data.nbytes for t in tensors)
    if result is not x:
        nbytes += result.data.nbytes
    n = x.data.size
    if op == "conv_temporal":
        b, f_in, c, t = x.shape
        f_out, _, _, k = args[1].shape
        flops = 2 * b * f_out * f_in * c * t * k
    elif op == "conv_spatial":
        b, f_in, c, t = x.shape
        flops = 2 * b * args[1].shape[0] * f_in * c * t
    elif op == "linear":
        rows = n // x.shape[-1]
        d_in, d_out = args[1].shape
        bias = args[2] if len(args) > 2 else kwargs.get("bias")
        flops = 2 * rows * d_in * d_out + (0 if bias is None else rows * d_out)
    elif op == "multi_head_attention":
        s, d = x.shape[-2:]
        b = n // (s * d)
        heads = args[1]
        flops = 8 * b * s * d * d + 4 * b * s * s * d + 4 * b * heads * s * s
    elif op == "batch_norm":
        flops = 6 * n
    elif op == "layer_norm":
        flops = 8 * n
    elif op == "softmax":
        flops = 4 * n
    elif op == "dropout":
        flops = 0 if result is x else n
    elif op == "sliding_windows":
        flops = 0
    elif op == "aggregate":
        b, _, d = x.shape
        regions = args[1]
        flops = b * d * (sum(len(g) for g in regions) + len(regions))
    else:
        raise KeyError(op)
    return int(flops), int(nbytes)


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------


class Tracer:
    """Records spans around patchformer callables between install() and uninstall()."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._pid = os.getpid()
        self._seq = 0
        self._patches: list = []
        self._mem = False

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> Span:
        pid = os.getpid()
        if pid != self._pid:
            # first span in a forked worker: keep the inherited stack as the
            # parent context, drop the copy of the parent's finished spans
            self._pid = pid
            self.spans = []
        self._seq += 1
        parent = self._stack[-1] if self._stack else None
        span = Span(f"{pid}-{self._seq}", name, parent.id if parent else None)
        if self._mem:
            cur, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
            span.mem0 = span.peak = cur
        self._stack.append(span)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order (open: {popped.name})")
        if self._mem:
            span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
            if self._stack:
                self._stack[-1].peak = max(self._stack[-1].peak, span.peak)
            tracemalloc.reset_peak()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.enter(name)
        try:
            yield span
        finally:
            self.exit(span)

    # -- wrapping --------------------------------------------------------------

    def _timed(self, fn, name: str, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit(span)
            if after is not None:
                after(span, args, kwargs, out)
            return out

        return wrapper

    def _patch(self, owner, attr: str, wrapper, original) -> None:
        """Point `owner.attr` and every patchformer module alias of it at `wrapper`."""
        targets = [owner]
        if not isinstance(owner, type):
            targets = [m for name, m in sorted(sys.modules.items())
                       if name == "patchformer" or name.startswith("patchformer.")]
        for target in targets:
            if target.__dict__.get(attr) is original:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapper)

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        original = owner.__dict__[attr]
        self._patch(owner, attr, self._timed(original, name, after), original)

    def _kernel_after(self, op: str):
        bwd_name = f"tensor.{op}.bwd"

        def after(span, args, kwargs, out):
            flops, nbytes = kernel_counts(op, args, kwargs, out)
            span.attrs = {"flops": flops, "bytes": nbytes}
            inputs = {id(a) for a in (*args, *kwargs.values())}
            if op == "batch_norm":
                inputs |= {id(args[1].gamma), id(args[1].beta)}
            # wrap the backward of every node this call created, nested calls included
            stack = [out[0] if isinstance(out, tuple) else out]
            seen = set()
            while stack:
                t = stack.pop()
                if id(t) in seen or id(t) in inputs or t._backward is None:
                    continue
                seen.add(id(t))
                t._backward = self._timed(t._backward, bwd_name)
                stack.extend(t._parents)

        return after

    def _forward_after(self, span, args, kwargs, out):
        nodes, held = graph_stats(out)
        span.attrs = {"nodes": nodes, "tape_bytes": held}

    def _fold(self, fn):
        """Wrap runners._run_fold; in a forked worker, flush spans when the fold ends."""
        inner = self._timed(fn, "runners.fold")
        tracer = self
        parent_pid = os.getpid()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            finally:
                if os.getpid() != parent_pid:
                    tracer._flush_worker()

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for op in KERNELS:
            owner = model if op == "aggregate" else tensor
            self._wrap(owner, op, f"tensor.{op}", self._kernel_after(op))
        for method, name in MODEL_STAGES.items():
            self._wrap(model.PatchFormerModel, method, name)
        self._wrap(model.PatchFormerModel, "forward", "model.forward", self._forward_after)
        for owner, attr, name in LAYER_CALLS:
            self._wrap(owner, attr, name)
        original = runners.__dict__["_run_fold"]
        self._patch(runners, "_run_fold", self._fold(original), original)
        self._mem = tracemalloc.is_tracing()

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches = []

    # -- output ------------------------------------------------------------------

    def _flush_worker(self) -> None:
        done = [s for s in self.spans if s.end is not None]
        if not done:
            return
        path = self.out_dir / "workers" / f"{os.getpid()}-{self._seq}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([s.to_dict() for s in done]))
        self.spans = [s for s in self.spans if s.end is None]

    def collect_workers(self) -> list[dict]:
        """Read and delete the span files that fold workers wrote."""
        merged = []
        for path in sorted((self.out_dir / "workers").glob("*.json")):
            merged.extend(json.loads(path.read_text()))
            path.unlink()
        return merged

    def records(self, worker_spans=()) -> list[dict]:
        return [s.to_dict() for s in self.spans] + list(worker_spans)


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

PHASES = ("setup", "warmup", "op")
STAGE_METRICS = ("tcnn", "fem", "spm", "tpm", "encoder")
PER_CALL = {
    "data.loso_split_ms": "data.loso_split",
    "synth.generate_ms": "synth.generate",
    "segio.save_ms": "segio.save",
    "segio.load_ms": "segio.load",
    "checkpoint.save_ms": "checkpoint.save",
    "checkpoint.load_ms": "checkpoint.load",
    "metrics.roc_auc_ms": "metrics.roc_auc",
}


def per_layer_units() -> dict:
    """Name -> (unit, better) of every per-layer metric, in report order."""
    lower = "lower"
    units = {"model.forward_ms": ("ms", lower)}
    units.update({f"model.{s}.fwd_ms": ("ms", lower) for s in (*STAGE_METRICS, "head")})
    units["model.ref_b64_tape_gb_est"] = ("GiB", lower)
    units["tensor.backward_ms"] = ("ms", lower)
    units["tensor.nodes"] = ("count", lower)
    units["tensor.tape_mb"] = ("MiB", lower)
    for k in KERNELS:
        units[f"tensor.{k}.calls"] = ("count", lower)
        units[f"tensor.{k}.fwd_ms"] = ("ms", lower)
        units[f"tensor.{k}.bwd_ms"] = ("ms", lower)
        units[f"tensor.{k}.peak_mb"] = ("MiB", lower)
        units[f"tensor.{k}.flops"] = ("flop", lower)
        units[f"tensor.{k}.bytes"] = ("B", lower)
    units["rng.keep_mask_ms"] = ("ms", lower)
    units["rng.keep_mask_mb"] = ("MiB", lower)
    units["losses.cross_entropy_ms"] = ("ms", lower)
    units["optim.adam_ms"] = ("ms", lower)
    units["train.steps"] = ("count", lower)
    units["train.epoch_ms"] = ("ms", lower)
    units["train.val_ms"] = ("ms", lower)
    units["runners.fold_s"] = ("s", lower)
    units["runners.pool_busy_frac"] = ("fraction", "higher")
    units.update({name: ("ms", lower) for name in PER_CALL})
    units["trace.op_ms_p50"] = ("ms", lower)
    units["trace.spans_per_op"] = ("count", lower)
    return units


def _phases(records: list[dict]) -> dict:
    """Span id -> name of the phase span (setup, warmup or op) it runs in."""
    by_id = {r["id"]: r for r in records}
    phase: dict = {}
    for r in records:
        path = []
        while r is not None and r["id"] not in phase:
            if r["name"] in PHASES:
                phase[r["id"]] = r["name"]
                break
            path.append(r["id"])
            r = by_id.get(r["parent"])
        found = None if r is None else phase.get(r["id"])
        for sid in path:
            phase[sid] = found
    return phase


def _dur(r: dict) -> float:
    return r["end"] - r["start"]


def check_nesting(records: list[dict]) -> list[str]:
    """Every span lies inside its parent's interval and has a known parent."""
    by_id = {r["id"]: r for r in records}
    problems = []
    for r in records:
        if r["end"] is None or r["end"] < r["start"]:
            problems.append(f"span {r['name']} ({r['id']}) never closed")
            continue
        if r["parent"] is None:
            continue
        parent = by_id.get(r["parent"])
        if parent is None:
            problems.append(f"span {r['name']} ({r['id']}) has unknown parent {r['parent']}")
        elif r["start"] < parent["start"] or r["end"] > parent["end"]:
            problems.append(f"span {r['name']} ({r['id']}) is outside its parent {parent['name']}")
    return problems


def self_times(records: list[dict]) -> dict:
    """Span name -> (calls, inclusive s, self s) over the measured operations.

    Self time is a span's duration minus the time its child spans cover; a
    span whose children run in parallel workers is clipped at zero.
    """
    phase = _phases(records)
    child_time: dict = {}
    for r in records:
        if r["parent"] is not None:
            child_time[r["parent"]] = child_time.get(r["parent"], 0.0) + _dur(r)
    table: dict = {}
    for r in records:
        if phase.get(r["id"]) != "op":
            continue
        calls, incl, own = table.get(r["name"], (0, 0.0, 0.0))
        d = _dur(r)
        table[r["name"]] = (calls + 1, incl + d, own + max(0.0, d - child_time.get(r["id"], 0.0)))
    return table


def layer_metrics(records: list[dict], workers: int, ref_b64_tape_bytes: int) -> dict:
    """Every per-layer metric, from the spans of one traced run.

    Times and counts are per measured operation (train step, eval batch or
    LOSO run) unless the name says otherwise: `train.epoch_ms` and
    `train.val_ms` are per epoch, `runners.fold_s` is the median fold, and the
    set-up layers in PER_CALL are per call over set-up and operations.
    """
    phase = _phases(records)
    ops = [r for r in records if r["name"] == "op"]
    n_ops = len(ops)
    if n_ops == 0:
        raise ValueError("no measured operation was traced")
    by_name: dict = {}
    for r in records:
        if phase.get(r["id"]) == "op":
            by_name.setdefault(r["name"], []).append(r)
    by_id = {r["id"]: r for r in records}

    def spans(name):
        return by_name.get(name, [])

    def per_op(name, key=None):
        rs = spans(name)
        return sum(_dur(r) if key is None else r.get(key, 0) for r in rs) / n_ops

    def under_train(name):
        return [r for r in spans(name) if by_id.get(r["parent"], {}).get("name") == "train.train"]

    out = {"model.forward_ms": 1e3 * per_op("model.forward")}
    for s in STAGE_METRICS:
        out[f"model.{s}.fwd_ms"] = 1e3 * per_op(f"model.{s}")
    out["model.head.fwd_ms"] = out["model.forward_ms"] - sum(
        out[f"model.{s}.fwd_ms"] for s in STAGE_METRICS)
    out["model.ref_b64_tape_gb_est"] = ref_b64_tape_bytes / float(1 << 30)
    out["tensor.backward_ms"] = 1e3 * per_op("tensor.backward")
    out["tensor.nodes"] = per_op("model.forward", "nodes")
    out["tensor.tape_mb"] = max((r["tape_bytes"] for r in spans("model.forward")), default=0) / MIB
    for k in KERNELS:
        fwd, bwd = spans(f"tensor.{k}"), spans(f"tensor.{k}.bwd")
        out[f"tensor.{k}.calls"] = len(fwd) / n_ops
        out[f"tensor.{k}.fwd_ms"] = 1e3 * per_op(f"tensor.{k}")
        out[f"tensor.{k}.bwd_ms"] = 1e3 * per_op(f"tensor.{k}.bwd")
        out[f"tensor.{k}.peak_mb"] = max((r["peak_bytes"] for r in fwd + bwd), default=0) / MIB
        out[f"tensor.{k}.flops"] = per_op(f"tensor.{k}", "flops")
        out[f"tensor.{k}.bytes"] = per_op(f"tensor.{k}", "bytes")
    out["rng.keep_mask_ms"] = 1e3 * per_op("rng.keep_mask")
    out["rng.keep_mask_mb"] = per_op("rng.keep_mask", "peak_bytes") / MIB
    out["losses.cross_entropy_ms"] = 1e3 * per_op("losses.cross_entropy")
    out["optim.adam_ms"] = 1e3 * per_op("optim.adam_step")
    out["train.steps"] = len(under_train("optim.adam_step")) / n_ops
    epochs = len(under_train("train.cosine_lr"))
    out["train.epoch_ms"] = 1e3 * sum(map(_dur, spans("train.train"))) / epochs if epochs else 0.0
    out["train.val_ms"] = (1e3 * sum(map(_dur, under_train("train.predict_proba"))) / epochs
                           if epochs else 0.0)
    folds = spans("runners.fold")
    out["runners.fold_s"] = float(np.median([_dur(r) for r in folds])) if folds else 0.0
    busy = []
    for op in ops:
        in_op = [_dur(f) for f in folds if _op_of(f, by_id) is op]
        busy.append(sum(in_op) / (_dur(op) * workers))
    out["runners.pool_busy_frac"] = float(np.mean(busy))
    for metric, name in PER_CALL.items():
        calls = [r for r in records if r["name"] == name and phase.get(r["id"]) in ("setup", "op")]
        out[metric] = 1e3 * sum(map(_dur, calls)) / len(calls) if calls else 0.0
    out["trace.op_ms_p50"] = 1e3 * float(np.median([_dur(r) for r in ops]))
    out["trace.spans_per_op"] = sum(len(v) for v in by_name.values()) / n_ops
    return out


def _op_of(r: dict, by_id: dict):
    while r is not None and r["name"] != "op":
        r = by_id.get(r["parent"])
    return r
