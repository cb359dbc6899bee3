"""Spatial-temporal EEG patch transformer for attention-state decoding."""

__version__ = "0.1.0"

from .config import ModelConfig, reference_config
from .data import LosoFold, Recording, SegmentSet, downsample, loso_split, segment
from .errors import (
    ConfigurationError,
    DataFormatError,
    FoldError,
    GraphFreedError,
    MetricUndefinedError,
    PatchFormerError,
    ShapeError,
    TrainingDivergedError,
)
from .losses import cross_entropy
from .metrics import accuracy, macro_f1, roc_auc
from .model import PatchFormerModel, aggregate, build, param_count
from .rng import Rng
from .runners import ExperimentReport, ablate, run_loso, sweep_patch_length
from .synth import SynthEffect, synth_generate
from .tensor import Tensor
from .train import TrainConfig, evaluate_segments, train

__all__ = [
    "ConfigurationError",
    "DataFormatError",
    "ExperimentReport",
    "FoldError",
    "GraphFreedError",
    "LosoFold",
    "MetricUndefinedError",
    "ModelConfig",
    "PatchFormerError",
    "PatchFormerModel",
    "Recording",
    "Rng",
    "SegmentSet",
    "ShapeError",
    "SynthEffect",
    "Tensor",
    "TrainConfig",
    "TrainingDivergedError",
    "__version__",
    "ablate",
    "accuracy",
    "aggregate",
    "build",
    "cross_entropy",
    "downsample",
    "evaluate_segments",
    "loso_split",
    "macro_f1",
    "param_count",
    "reference_config",
    "roc_auc",
    "run_loso",
    "segment",
    "sweep_patch_length",
    "synth_generate",
    "train",
]
