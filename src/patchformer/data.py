"""EEG segment data model, preprocessing and leave-one-subject-out splitting."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ShapeError
from .rng import Rng


@dataclass
class Recording:
    """One continuous task period from one subject, labels and all."""

    subject_id: str
    channels: list
    samples: np.ndarray  # (c, n_samples), microvolts
    f_s: float
    task_label: int
    task_onset: int = 0
    task_offset: int | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2:
            raise ShapeError(f"samples must be (c, n), got shape {self.samples.shape}")
        if len(self.channels) != self.samples.shape[0]:
            raise ShapeError(
                f"{len(self.channels)} channel names but {self.samples.shape[0]} sample rows"
            )
        self.task_offset = resolve_task_offset(self.samples.shape[1], self.task_label,
                                               self.task_onset, self.task_offset)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


@dataclass
class SegmentSet:
    """Labeled EEG segments: X (n, c, l), y (n,), subject ids (n,)."""

    X: np.ndarray
    y: np.ndarray
    subject_ids: np.ndarray
    f_s: float
    channel_names: list
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.X = np.ascontiguousarray(self.X, dtype=np.float32)
        self.y = np.asarray(self.y, dtype=np.int64)
        self.subject_ids = np.asarray(self.subject_ids, dtype=str)
        if self.X.ndim != 3:
            raise ShapeError(f"X must be (n, c, l), got shape {self.X.shape}")
        n = self.X.shape[0]
        if self.y.shape != (n,) or self.subject_ids.shape != (n,):
            raise ShapeError("X, y and subject_ids must share their first axis")
        if n and not np.isin(self.y, (0, 1)).all():
            raise ValueError("labels must be 0 (low attention) or 1 (high attention)")
        if len(self.channel_names) != self.X.shape[1]:
            raise ShapeError(
                f"{len(self.channel_names)} channel names but {self.X.shape[1]} channel rows"
            )

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def c(self) -> int:
        return self.X.shape[1]

    @property
    def l(self) -> int:
        return self.X.shape[2]

    @property
    def subjects(self) -> list:
        return sorted(set(self.subject_ids.tolist()))

    def class_counts(self) -> dict:
        return {int(k): int(v) for k, v in zip(*np.unique(self.y, return_counts=True))}

    def subset(self, idx) -> "SegmentSet":
        return SegmentSet(
            self.X[idx], self.y[idx], self.subject_ids[idx],
            self.f_s, list(self.channel_names), dict(self.metadata),
        )


@dataclass
class LosoFold:
    """One leave-one-subject-out fold: the held-out subject never leaks."""

    test_subject: str
    train: SegmentSet
    val: SegmentSet
    test: SegmentSet


def _finite_positive(name: str, value: float) -> None:
    if not 0 < value < float("inf"):
        raise ConfigurationError(f"{name} must be finite and positive, got {value}")


def decimation_factor(f_s: float, target_fs: float) -> int:
    """The integer factor taking `f_s` down to `target_fs`; a
    ConfigurationError names the rates otherwise."""
    _finite_positive("sampling rate", f_s)
    _finite_positive("target sampling rate", target_fs)
    ratio = f_s / target_fs
    factor = int(round(ratio))
    if abs(ratio - factor) > 1e-9 or factor < 1:
        raise ConfigurationError(f"sampling rate {f_s} is not an integer multiple of {target_fs}")
    return factor


def resolve_task_offset(n_samples: int, label: int, onset: int, offset: int | None) -> int:
    """The task period's offset (None: the recording's end); a
    ConfigurationError names a label other than 0/1 or an onset/offset
    outside the recording's `n_samples`."""
    if label not in (0, 1):
        raise ConfigurationError(
            f"task label must be 0 (low attention) or 1 (high attention), got {label}")
    if offset is None:
        offset = n_samples
    if not 0 <= onset <= offset <= n_samples:
        raise ConfigurationError(
            f"onset/offset ({onset}, {offset}) out of range for {n_samples} samples")
    return offset


def window_samples(f_s: float, win_s: float, overlap: float, keep_s: float) -> tuple:
    """Window length, window step and kept length in samples at `f_s`; a
    ConfigurationError names a value that gives none."""
    _finite_positive("sampling rate", f_s)
    _finite_positive("window length", win_s)
    l_f = win_s * f_s
    l = int(round(l_f))
    if abs(l_f - l) > 1e-9 or l < 1:
        raise ConfigurationError(f"window of {win_s}s at {f_s}Hz is not an integer sample count")
    if not 0.0 <= overlap < 1.0:
        raise ConfigurationError(f"overlap must be in [0, 1), got {overlap}")
    step_f = l * (1.0 - overlap)
    step = int(round(step_f))
    if abs(step_f - step) > 1e-9 or step < 1:
        raise ConfigurationError(f"overlap {overlap} gives a non-integer step for window {l}")
    if not 0 <= keep_s < float("inf"):
        raise ConfigurationError(f"kept length must be finite and >= 0 seconds, got {keep_s}")
    keep = int(round(keep_s * f_s))
    if keep < l:
        raise ConfigurationError(
            f"kept length of {keep_s}s ({keep} samples) is shorter than one window ({l} samples)")
    return l, step, keep


def _usable_samples(r: "Recording", keep: int) -> int:
    """Samples of the task period within `keep` samples after onset."""
    return min(r.task_onset + keep, r.task_offset, r.n_samples) - r.task_onset


def check_segmentable(r: "Recording", win_s: float, overlap: float, keep_s: float) -> None:
    """A ConfigurationError when `segment` would cut no window from `r`."""
    l, _, keep = window_samples(r.f_s, win_s, overlap, keep_s)
    available = _usable_samples(r, keep)
    if available < l:
        raise ConfigurationError(f"recording {r.subject_id}: {available} usable samples "
                                 f"after onset < window {l}; no segments")


def downsample(r: Recording, target_fs: float) -> Recording:
    """Integer decimation after a moving-average anti-alias filter.

    Implemented as a block mean over each group of `factor` samples, which is
    the length-`factor` moving average evaluated at the decimation points.
    """
    factor = decimation_factor(r.f_s, target_fs)
    if factor == 1:
        return r
    n_out = r.n_samples // factor
    blocks = r.samples[:, : n_out * factor].reshape(r.samples.shape[0], n_out, factor)
    return Recording(
        subject_id=r.subject_id,
        channels=list(r.channels),
        samples=blocks.mean(axis=2),
        f_s=target_fs,
        task_label=r.task_label,
        task_onset=r.task_onset // factor,
        task_offset=min(r.task_offset // factor, n_out),
    )


def segment(r: Recording, win_s: float = 4.0, overlap: float = 0.5,
            keep_s: float = 20.0) -> SegmentSet:
    """Slide a window over the first keep_s seconds after task onset.

    Window length l = win_s * f_s, step l * (1 - overlap); both must come out
    integral. Every window inherits the recording's label and subject id.
    """
    l, step, keep = window_samples(r.f_s, win_s, overlap, keep_s)
    start = r.task_onset
    available = _usable_samples(r, keep)
    if available < l:
        warnings.warn(
            f"recording {r.subject_id}: {available} usable samples < window {l}; no segments",
            stacklevel=2,
        )
        empty = np.empty((0, len(r.channels), l), dtype=np.float32)
        return SegmentSet(empty, np.empty(0, dtype=np.int64),
                          np.empty(0, dtype=str), r.f_s, list(r.channels))

    count = (available - l) // step + 1
    X = np.stack([r.samples[:, start + i * step : start + i * step + l] for i in range(count)])
    return SegmentSet(
        X,
        np.full(count, r.task_label, dtype=np.int64),
        np.full(count, r.subject_id, dtype=object),
        r.f_s,
        list(r.channels),
    )


def loso_split(ds: SegmentSet, test_subject: str, val_frac: float = 0.2,
               rng: Rng | None = None) -> LosoFold:
    """Hold one subject out; split the rest 80:20 stratified by label."""
    if rng is None:
        rng = Rng(0)
    subjects = ds.subjects
    if str(test_subject) not in subjects:
        raise ValueError(f"unknown subject {test_subject!r}; dataset has {subjects}")
    if len(subjects) < 2:
        raise ValueError("leave-one-subject-out needs at least 2 subjects")

    is_test = ds.subject_ids == str(test_subject)
    rest_idx = np.flatnonzero(~is_test)
    val_parts, train_parts = [], []
    for label in np.unique(ds.y[rest_idx]):
        cls_idx = rest_idx[ds.y[rest_idx] == label]
        n_val = int(round(val_frac * len(cls_idx)))
        n_val = min(n_val, len(cls_idx) - 1)  # never drain a class from training
        perm = rng.permutation(len(cls_idx))
        val_parts.append(cls_idx[perm[:n_val]])
        train_parts.append(cls_idx[perm[n_val:]])
    val_idx = np.sort(np.concatenate(val_parts))
    train_idx = np.sort(np.concatenate(train_parts))

    return LosoFold(
        test_subject=str(test_subject),
        train=ds.subset(train_idx),
        val=ds.subset(val_idx),
        test=ds.subset(np.flatnonzero(is_test)),
    )
