"""The benchmark's workloads: inputs made from a seed, one operation, its checks.

Each workload is a closed loop driven by one process: the next operation
starts when the previous one has returned. Constructing a workload object is
its set-up (synthetic data through a segment-file round trip, the model, and
for evaluation a checkpoint round trip); `run(first)` performs one operation
and returns the segments it processed and the problems its output check
found. The program only sees the inputs generated here from the seed.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from patchformer import checkpoint, losses, optim, runners, segio, synth
from patchformer.config import ModelConfig, reference_config
from patchformer.model import build
from patchformer.rng import Rng
from patchformer.synth import SynthEffect
from patchformer.tensor import Tensor
from patchformer.train import TrainConfig, evaluate_segments, predict_proba
from patchformer.verify import toy_config
from tracer import graph_stats

EFFECT = SynthEffect(amplitude=3.0)
# Probability tolerance of the float32 model against the float64 model loaded
# from the same checkpoint (float32 rounding through the network is ~1e-7).
F64_TOL = 1e-4
# Rows of the float64 check per forward call: eval-mode rows are independent,
# and small chunks keep the float64 graph well below the float32 batch's.
F64_CHUNK = 4
ROW_SUM_TOL = 1e-5
# Acceptance criterion 6: mean LOSO accuracy and AUC on high-SNR synthetic data.
MIN_ACC, MIN_AUC = 90.0, 0.95


def small_config() -> ModelConfig:
    """The acceptance suite's small LOSO configuration."""
    return ModelConfig(c=6, l=160, f_s=40.0, k=8, local_graphs=[[0, 1], [2, 3], [4, 5]],
                       l_t=8, l_step=4, l_token=16, n_head=4, n_layers=1, dropout_p=0.25)


@dataclass(frozen=True)
class Size:
    ref: ModelConfig     # model of the two reference workloads
    loso_data: tuple     # synth_generate(n_subjects, segs_per_class, c, l, f_s)
    loso_epochs: int


SIZES = {
    "full": Size(reference_config(), (6, 40, 6, 160, 40.0), 6),
    # one-operation smoke runs; dropout on so the train step draws masks
    "toy": Size(replace(toy_config(), dropout_p=0.5), (4, 12, 6, 160, 40.0), 6),
}


def _segments(n_subjects, segs_per_class, c, l, f_s, seed: int, path: Path):
    """Synthetic segments, written to a segment file and read back."""
    ds = synth.synth_generate(n_subjects, segs_per_class, c, l, f_s, EFFECT, Rng(seed))
    segio.save_segments(ds, path)
    return segio.load_segments(path)


class RefTrain:
    """Back-to-back reference train steps: forward, loss, backward, Adam."""

    batch = 4

    def __init__(self, seed: int, size: Size, workdir: Path):
        ref = size.ref
        self.ds = _segments(2, 4, ref.c, ref.l, ref.f_s, seed, workdir / "train.seg")
        self.model = build(size.ref, Rng(seed))
        self.tc = TrainConfig(seed=seed)
        self.adam = optim.AdamState.for_params(self.model.parameters)
        self.dropout_rng = Rng(seed).spawn("dropout")
        self.order = Rng(seed).spawn("batches").permutation(self.ds.n)
        self.losses: list[float] = []

    def run(self, first: bool):
        step = len(self.losses)
        start = step * self.batch % self.ds.n
        idx = self.order[start:start + self.batch]
        logits = self.model.forward(Tensor(self.ds.X[idx][:, None]), mode="train",
                                    rng=self.dropout_rng)
        loss = losses.cross_entropy(logits, self.ds.y[idx])
        self.model.zero_grad()
        loss.backward()
        value = float(loss.data)
        self.losses.append(value)
        problems = []
        if not math.isfinite(value):
            problems.append(f"step {step}: loss is {value}")
        bad = [name for name, p in self.model.parameters.items()
               if p.grad is None or not np.isfinite(p.grad).all()]
        if bad:
            problems.append(f"step {step}: missing or non-finite gradient for {bad[:3]}")
        if not problems:
            optim.adam_step(self.model.parameters, self.adam, self.tc.lr0,
                            beta1=self.tc.beta1, beta2=self.tc.beta2, eps=self.tc.eps,
                            weight_decay=self.tc.weight_decay)
        return self.batch, problems

    def facts(self) -> dict:
        # the loss after a fixed step count repeats for a seed whatever the run length
        return {"steps": len(self.losses),
                "loss_after_5_steps": self.losses[4] if len(self.losses) >= 5 else None}


class RefEval:
    """Eval batches of a checkpointed reference model through evaluate_segments."""

    batch = 16

    def __init__(self, seed: int, size: Size, workdir: Path):
        ref = size.ref
        ds = _segments(2, 16, ref.c, ref.l, ref.f_s, seed, workdir / "eval.seg")
        self.ckpt = workdir / "model.ckpt"
        checkpoint.save_model(build(ref, Rng(seed)), self.ckpt)
        self.model = checkpoint.load_model(self.ckpt)
        # every batch holds both classes, so its AUC is defined
        half = self.batch // 2
        neg, pos = np.flatnonzero(ds.y == 0), np.flatnonzero(ds.y == 1)
        self.batches = [ds.subset(np.concatenate([neg[i:i + half], pos[i:i + half]]))
                        for i in range(0, min(len(neg), len(pos)) - half + 1, half)]
        self.done = 0
        self.f64_max_abs_diff = None

    def run(self, first: bool):
        batch = self.batches[self.done % len(self.batches)]
        self.done += 1
        probs = evaluate_segments(self.model, batch, self.batch)["probs"]
        problems = []
        if probs.shape != (batch.n, 2) or not np.isfinite(probs).all():
            problems.append(f"probabilities have shape {probs.shape} or are not finite")
        else:
            err = float(np.abs(probs.sum(axis=1) - 1.0).max())
            if err > ROW_SUM_TOL:
                problems.append(f"probability rows sum to 1 only within {err:.2e}")
        if first:
            ref = checkpoint.load_model(self.ckpt, dtype=np.float64)
            diff = float(np.abs(predict_proba(ref, batch.X, F64_CHUNK) - probs).max())
            self.f64_max_abs_diff = diff
            if not diff <= F64_TOL:
                problems.append(f"float32 and float64 probabilities differ by {diff:.2e}")
        return batch.n, problems

    def facts(self) -> dict:
        return {"batches": self.done, "f64_max_abs_diff": self.f64_max_abs_diff,
                "f64_tolerance": F64_TOL}


class Loso:
    """Full leave-one-subject-out runs of the small configuration."""

    def __init__(self, seed: int, size: Size, workdir: Path, parallel_folds: int):
        self.ds = _segments(*size.loso_data, seed, workdir / "loso.seg")
        self.mc = small_config()
        self.tc = TrainConfig(epochs=size.loso_epochs, batch_size=16, seed=seed)
        self.parallel_folds = parallel_folds
        self.out_dir = workdir / "loso"
        self.fold_s: list[float] = []
        self.digest = None
        self.summary = None

    def run(self, first: bool):
        marks = [time.perf_counter()]
        report = runners.run_loso(self.ds, self.mc, self.tc, parallel_folds=self.parallel_folds,
                                  out_dir=self.out_dir,
                                  log_fn=lambda row: marks.append(time.perf_counter()))
        # run_loso logs each fold as it ends only when folds run sequentially
        self.fold_s.extend(np.diff(marks).tolist())
        self.summary = report.summary()
        problems = []
        acc, auc = report.aggregate["acc"]["mean"], report.aggregate["auc"]["mean"]
        if not acc >= MIN_ACC:
            problems.append(f"mean accuracy {acc:.2f}% < {MIN_ACC}%")
        if not auc >= MIN_AUC:
            problems.append(f"mean AUC {auc:.4f} < {MIN_AUC}")
        digest = hashlib.sha256(report.canonical_bytes()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append("report bytes differ between runs of the same seed")
        missing = [s for s in self.ds.subjects
                   if not (self.out_dir / "checkpoints" / f"{s}.ckpt").is_file()]
        if missing:
            problems.append(f"no fold checkpoint for {missing}")
        return self.ds.n, problems

    def facts(self) -> dict:
        return {"digest": self.digest, "summary": self.summary}


@dataclass(frozen=True)
class Workload:
    setup: Callable         # (seed, size, workdir) -> object with run(first) and facts()
    op: str                 # what one operation is
    warmup: bool            # one untimed operation before the measured ones
    # what op_ms_p50 (name, unit, scale from seconds) and seg_per_s are
    # called on this workload in its printed report
    op_metric: tuple
    seg_metric: str | None = None
    workers: int = 1        # processes the operation keeps busy


WORKLOADS = {
    "ref_train_b4": Workload(RefTrain, "train step", True, ("train_step_ms_p50", "ms", 1e3),
                             "train_seg_per_s"),
    "ref_eval_b16": Workload(RefEval, "eval batch", True, ("eval_batch_ms_p50", "ms", 1e3),
                             "eval_seg_per_s"),
    "small_loso": Workload(partial(Loso, parallel_folds=1), "LOSO run", False,
                           ("loso_wall_s", "s", 1.0)),
    "small_loso_par2": Workload(partial(Loso, parallel_folds=2), "LOSO run", False,
                                ("loso_wall_s", "s", 1.0), workers=2),
}


def ref_b64_tape_bytes(size: Size, seed: int) -> int:
    """Estimated graph bytes of a B=64 reference train step.

    One train-mode forward at B=4 gives the bytes the graph holds; the
    parameters are held once, everything else is charged per sample and
    scaled to 64 samples.
    """
    cfg = size.ref
    model = build(cfg, Rng(seed))
    x = np.random.default_rng(seed).normal(size=(4, 1, cfg.c, cfg.l)).astype(np.float32)
    _, held = graph_stats(model.forward(Tensor(x), mode="train", rng=Rng(seed)))
    params = sum(p.data.nbytes for p in model.parameters.values())
    return params + (held - params) * 64 // 4
