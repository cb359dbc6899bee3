"""Classification metrics: accuracy, ROC AUC and macro-F1."""

from __future__ import annotations

import numpy as np

from .errors import MetricUndefinedError


def accuracy(preds, labels) -> float:
    """Percentage of exact matches."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ValueError(f"shape mismatch: preds {preds.shape} vs labels {labels.shape}")
    if preds.size == 0:
        raise MetricUndefinedError("accuracy is undefined on an empty set")
    return 100.0 * int((preds == labels).sum()) / preds.size


def roc_auc(scores, labels) -> float:
    """Area under the ROC curve via rank statistics.

    Equals (#concordant pairs + 0.5 * #tied pairs) / (n_pos * n_neg): the
    probability that a random positive outranks a random negative, with ties
    handled by average ranks.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError(f"shape mismatch: scores {scores.shape} vs labels {labels.shape}")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError("ROC AUC needs both classes present")

    # ties share the average 1-based rank of the sorted positions they span,
    # a half-integer and so exact; a stable sort and `!=` keep NaNs untied
    n = len(scores)
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    first = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    last = np.r_[first[1:], n] - 1
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    rank_sum_pos = ranks[labels == 1].sum()
    return float((rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def macro_f1(preds, labels, n_classes: int = 2) -> float:
    """Unweighted mean of per-class F1 scores, in percent; 0/0 counts as 0."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ValueError(f"shape mismatch: preds {preds.shape} vs labels {labels.shape}")
    if preds.size == 0:
        raise MetricUndefinedError("macro F1 is undefined on an empty set")
    if ((preds < 0) | (preds >= n_classes) | (labels < 0) | (labels >= n_classes)).any():
        raise ValueError(f"predictions and labels must lie in [0, {n_classes})")

    f1s = []
    for cls in range(n_classes):
        tp = int(((preds == cls) & (labels == cls)).sum())
        fp = int(((preds == cls) & (labels != cls)).sum())
        fn = int(((preds != cls) & (labels == cls)).sum())
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return 100.0 * float(np.mean(f1s))
