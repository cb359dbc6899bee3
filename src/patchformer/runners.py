"""Experiment runners: full LOSO evaluation, ablations, patch-length sweep."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import ABLATIONS, ModelConfig
from .container import canonical_json, write_atomic
from .data import SegmentSet, loso_split
from .errors import FoldError, PatchFormerError
from .model import build
from .rng import Rng
from .tensor import cpu_count, set_pool_threads
from .train import TrainConfig, evaluate_segments, train

METRICS = ("acc", "auc", "macro_f1")


@dataclass
class SubjectResult:
    subject: str
    acc: float
    auc: float
    macro_f1: float
    best_epoch: int
    n_test: int


@dataclass
class ExperimentReport:
    """Per-subject metrics plus their mean and population std over subjects."""

    label: str
    rows: list
    aggregate: dict
    config_fingerprint: str
    wall_clock_s: float
    metric_note: str = "aggregate std is the population std over subjects"
    histories: dict = field(default_factory=dict)

    @staticmethod
    def aggregate_rows(rows: list) -> dict:
        out = {}
        for metric in METRICS:
            values = np.asarray([getattr(r, metric) for r in rows], dtype=np.float64)
            out[metric] = {"mean": float(values.mean()), "std": float(values.std())}
        return out

    def summary(self) -> str:
        agg = self.aggregate
        return (
            f"[{self.label}] "
            f"ACC {agg['acc']['mean']:.2f}+-{agg['acc']['std']:.2f}%  "
            f"AUC {agg['auc']['mean']:.3f}+-{agg['auc']['std']:.3f}  "
            f"F1-macro {agg['macro_f1']['mean']:.2f}+-{agg['macro_f1']['std']:.2f}%"
        )

    def to_dict(self) -> dict:
        """Everything but the wall time, which differs from run to run."""
        return {
            "format_version": 1,
            "label": self.label,
            "rows": [asdict(r) for r in self.rows],
            "aggregate": self.aggregate,
            "config_fingerprint": self.config_fingerprint,
            "metric_note": self.metric_note,
            "metric_definitions": {
                "acc": "percent correctly classified",
                "auc": "area under the ROC curve of class-1 probabilities",
                "macro_f1": "unweighted mean of per-class F1, percent",
            },
            "histories": self.histories,
        }

    def canonical_bytes(self) -> bytes:
        """Deterministic serialization, for reproducibility checks."""
        return canonical_json(self.to_dict())

    def save_json(self, path) -> None:
        write_atomic(path, json.dumps(self.to_dict(), indent=2, sort_keys=True))

    def save_csv(self, path) -> None:
        fh = io.StringIO()
        writer = csv.writer(fh)
        writer.writerow(["subject", "acc_percent", "auc", "macro_f1_percent",
                         "best_epoch", "n_test"])
        for r in self.rows:
            writer.writerow([r.subject, f"{r.acc:.4f}", f"{r.auc:.6f}",
                             f"{r.macro_f1:.4f}", r.best_epoch, r.n_test])
        agg = self.aggregate
        writer.writerow(["mean", f"{agg['acc']['mean']:.4f}", f"{agg['auc']['mean']:.6f}",
                         f"{agg['macro_f1']['mean']:.4f}", "", ""])
        writer.writerow(["std", f"{agg['acc']['std']:.4f}", f"{agg['auc']['std']:.6f}",
                         f"{agg['macro_f1']['std']:.4f}", "", ""])
        write_atomic(path, fh.getvalue())


def config_fingerprint(mc: ModelConfig, tc: TrainConfig) -> str:
    blob = canonical_json({"model": mc.to_dict(), "train": tc.to_dict()})
    return hashlib.sha256(blob).hexdigest()[:16]


def _run_fold(ds: SegmentSet, mc: ModelConfig, tc: TrainConfig, subject: str,
              checkpoint_path=None, log_fn=None):
    """One LOSO fold, self-contained so folds can run in worker processes.

    Returns (SubjectResult, history); `log_fn` receives each epoch's row.
    """
    try:
        root = Rng(tc.seed)
        fold = loso_split(ds, subject, val_frac=0.2, rng=root.spawn(f"split:{subject}"))
        model = build(mc, root.spawn(f"init:{subject}"))
        best_state, best_epoch, history = train(model, fold, tc, root.spawn(f"train:{subject}"),
                                                log_fn=log_fn)
        model.load_state(best_state)
        ev = evaluate_segments(model, fold.test, tc.batch_size)
        if checkpoint_path is not None:
            from .checkpoint import save_model

            save_model(model, checkpoint_path)
    except PatchFormerError as exc:
        # every package error takes one message, so its type survives the rebuild
        raise type(exc)(f"fold for subject {subject!r} failed: {exc}") from exc
    except Exception as exc:
        raise FoldError(
            f"fold for subject {subject!r} failed: {type(exc).__name__}: {exc}"
        ) from exc
    row = SubjectResult(
        subject=subject,
        acc=ev["acc"],
        auc=ev["auc"],
        macro_f1=ev["macro_f1"],
        best_epoch=best_epoch,
        n_test=fold.test.n,
    )
    return row, history


# What every fold of the run shares, set in each fold worker by the pool's
# initializer: forked workers inherit it, so no task pickles the dataset.
_fold_inputs: tuple | None = None


def _init_fold_worker(pool_threads: int, ds: SegmentSet, mc: ModelConfig,
                      tc: TrainConfig) -> None:
    global _fold_inputs
    set_pool_threads(pool_threads)
    _fold_inputs = (ds, mc, tc)


def _run_worker_fold(subject: str, checkpoint_path):
    return _run_fold(*_fold_inputs, subject, checkpoint_path)


def run_loso(ds: SegmentSet, mc: ModelConfig, tc: TrainConfig,
             label: str | None = None, parallel_folds: int = 1,
             out_dir=None, log_fn=None) -> ExperimentReport:
    """Train and test once per subject; aggregate mean +- std over subjects.

    With `parallel_folds` > 1, folds run in up to that many forked worker
    processes (never more than there are subjects), and each worker gets an
    equal share of the CPUs as kernel pool threads. `log_fn` receives one row per
    fold as the fold finishes; the report keeps subject order either way.
    """
    mc.validate()
    tc.validate()
    subjects = ds.subjects
    if len(subjects) < 2:
        raise ValueError("LOSO needs at least 2 subjects")
    if parallel_folds < 1:
        raise ValueError(f"parallel_folds must be at least 1, got {parallel_folds}")

    ckpt_dir = None
    if out_dir is not None:
        ckpt_dir = Path(out_dir) / "checkpoints"
        ckpt_dir.mkdir(parents=True, exist_ok=True)

    def ckpt_path(subject):
        return None if ckpt_dir is None else ckpt_dir / f"{subject}.ckpt"

    def log(row):
        if log_fn is not None:
            log_fn({"subject": row.subject, "acc": row.acc, "auc": row.auc,
                    "macro_f1": row.macro_f1, "best_epoch": row.best_epoch})

    started = time.perf_counter()
    workers = min(parallel_folds, len(subjects))
    if workers > 1:
        # left at one kernel thread per CPU, N workers would run N per CPU
        share = max(1, cpu_count() // workers)
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_fold_worker,
                                 initargs=(share, ds, mc, tc)) as pool:
            futures = [pool.submit(_run_worker_fold, s, ckpt_path(s)) for s in subjects]
            for future in as_completed(futures):
                if future.exception() is None:
                    log(future.result()[0])
            # raises the error of the first failed fold in subject order
            results = [future.result() for future in futures]
    else:
        results = []
        for s in subjects:
            row, history = _run_fold(ds, mc, tc, s, ckpt_path(s))
            log(row)
            results.append((row, history))
    wall = time.perf_counter() - started

    rows = [r for r, _ in results]  # subjects are in sorted order already
    return ExperimentReport(
        label=label if label is not None else mc.ablation,
        rows=rows,
        aggregate=ExperimentReport.aggregate_rows(rows),
        config_fingerprint=config_fingerprint(mc, tc),
        wall_clock_s=wall,
        histories={r.subject: h for (r, h) in results},
    )


def ablate(ds: SegmentSet, mc: ModelConfig, tc: TrainConfig, variant: str,
           **run_kwargs) -> ExperimentReport:
    """Run LOSO with one architecture component disabled."""
    if variant not in ABLATIONS or variant == "full":
        raise ValueError(f"unknown ablation variant {variant!r}; "
                         f"expected one of {[a for a in ABLATIONS if a != 'full']}")
    return run_loso(ds, replace(mc, ablation=variant), tc, label=variant, **run_kwargs)


def sweep_patch_length(ds: SegmentSet, mc: ModelConfig, tc: TrainConfig,
                       lengths=(10, 20, 30, 40, 50), **run_kwargs) -> list:
    """One LOSO report per temporal patch length; every length is checked first."""
    configs = sweep_configs(mc, lengths)
    return [run_loso(ds, c, tc, label=f"l_t={c.l_t}", **run_kwargs) for c in configs]


def sweep_configs(mc: ModelConfig, lengths) -> list:
    """`mc` at each patch length; ConfigurationError names the first invalid one."""
    return [replace(mc, l_t=l_t).validate() for l_t in lengths]


def sweep_table(reports: list) -> str:
    """Render a sweep as CSV text: one row per patch length, three metric pairs."""
    lines = ["patch_length,acc_mean,acc_std,auc_mean,auc_std,macro_f1_mean,macro_f1_std"]
    for rep in reports:
        agg = rep.aggregate
        length = rep.label.split("=", 1)[1] if "=" in rep.label else rep.label
        lines.append(
            f"{length},{agg['acc']['mean']:.4f},{agg['acc']['std']:.4f},"
            f"{agg['auc']['mean']:.6f},{agg['auc']['std']:.6f},"
            f"{agg['macro_f1']['mean']:.4f},{agg['macro_f1']['std']:.4f}"
        )
    return "\n".join(lines) + "\n"
