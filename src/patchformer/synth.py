"""Synthetic EEG-like datasets with a controllable class effect.

Both classes share 1/f-shaped background noise; class 1 additionally carries
a band-limited oscillation on a subset of channels, scaled by a per-subject
gain. With a large amplitude a simple bandpower threshold separates the
classes, which makes the generator a useful end-to-end oracle; with amplitude
zero the classes are statistically identical (null dataset).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .data import SegmentSet
from .errors import ConfigurationError
from .rng import Rng


@dataclass
class SynthEffect:
    """Discriminative structure added to class-1 segments."""

    freq_hz: float = 10.0
    amplitude: float = 1.0
    channels: tuple | None = None  # default: first half of the montage
    gain_jitter: float = 0.2       # per-subject multiplicative spread
    noise_scale: float = 1.0

    def resolve_channels(self, c: int) -> list:
        if self.channels is not None:
            return [int(i) for i in self.channels]
        return list(range((c + 1) // 2))


# Segments are shaped, transformed and normalized in groups whose complex
# spectra take about this many bytes, so each group's passes stay in cache.
_GROUP_BYTES = 1 << 20


def _pink_noise(draws: np.ndarray, l: int) -> np.ndarray:
    """1/f-amplitude noise from normal draws (m, 2, c, n_f) of m segments, the
    real and imaginary spectra of each, normalized to unit standard
    deviation per channel: (m, c, l)."""
    n_f = draws.shape[-1]
    spectrum = draws[:, 0] + 1j * draws[:, 1]
    shaping = np.zeros(n_f)
    shaping[1:] = 1.0 / np.sqrt(np.arange(1, n_f))
    signal = np.fft.irfft(spectrum * shaping, n=l, axis=-1)
    return signal / (signal.std(axis=-1, keepdims=True) + 1e-12)


def check_request(n_subjects: int, segs_per_class: int, c: int, l: int, f_s: float,
                  effect: SynthEffect) -> list:
    """The effect's channels of a request `synth_generate` can serve; a
    ConfigurationError names what it cannot."""
    if n_subjects < 1 or segs_per_class < 1 or c < 1 or l < 1:
        raise ConfigurationError("n_subjects, segs_per_class, c and l must all be >= 1, "
                                 f"got {n_subjects}, {segs_per_class}, {c}, {l}")
    if not 0 < f_s < float("inf"):
        raise ConfigurationError(f"sampling rate f_s must be finite and positive, got {f_s}")
    for name in ("freq_hz", "amplitude", "gain_jitter", "noise_scale"):
        if not np.isfinite(getattr(effect, name)):
            raise ConfigurationError(f"effect {name} must be finite, got {getattr(effect, name)}")
    target = effect.resolve_channels(c)
    if any(not 0 <= ch < c for ch in target):
        raise ConfigurationError(f"effect channels {target} out of range for c={c}")
    return target


def synth_generate(n_subjects: int, segs_per_class: int, c: int, l: int,
                   f_s: float, effect: SynthEffect | None = None,
                   rng: Rng | None = None) -> SegmentSet:
    """Balanced labeled segments for n_subjects; deterministic given the seed."""
    effect = effect or SynthEffect()
    rng = rng or Rng(0)
    target = check_request(n_subjects, segs_per_class, c, l, f_s, effect)

    n = n_subjects * segs_per_class * 2
    X = np.empty((n, c, l), dtype=np.float64)
    y = np.empty(n, dtype=np.int64)
    ids = np.empty(n, dtype=object)
    t = np.arange(l) / f_s

    n_f = l // 2 + 1
    group = max(1, _GROUP_BYTES // (c * n_f * 16))
    waves = effect.amplitude != 0.0
    row = 0
    for s in range(n_subjects):
        subject = f"S{s + 1:02d}"
        srng = rng.spawn(f"subject:{subject}")
        gain = 1.0 + effect.gain_jitter * srng.uniform(-1.0, 1.0)
        for label in (0, 1):
            # the stream order of one segment after another: its two spectra,
            # then, for a class-1 wave, its phase
            if label == 1 and waves:
                draws = np.empty((segs_per_class, 2, c, n_f))
                phases = np.empty(segs_per_class)
                for i in range(segs_per_class):
                    draws[i, 0] = srng.normal(0.0, 1.0, (c, n_f))
                    draws[i, 1] = srng.normal(0.0, 1.0, (c, n_f))
                    phases[i] = srng.uniform(0.0, 2.0 * np.pi)
            else:
                draws = srng.normal(0.0, 1.0, (segs_per_class, 2, c, n_f))
            for i in range(0, segs_per_class, group):
                j = min(i + group, segs_per_class)
                segs = X[row + i:row + j]
                segs[:] = effect.noise_scale * _pink_noise(draws[i:j], l)
                if label == 1 and waves:
                    wave = np.sin(2.0 * np.pi * effect.freq_hz * t + phases[i:j, None])
                    segs[:, target] += (effect.amplitude * gain * wave)[:, None]
            y[row:row + segs_per_class] = label
            ids[row:row + segs_per_class] = subject
            row += segs_per_class

    metadata = {
        "generator": "synth",
        "n_subjects": n_subjects,
        "segs_per_class": segs_per_class,
        "effect": asdict(effect) | {"channels": target},
        "null_effect": effect.amplitude == 0.0,
        "seed": rng.seed,
    }
    return SegmentSet(X, y, ids, f_s, [f"CH{i + 1}" for i in range(c)], metadata)


def bandpower(x: np.ndarray, f_s: float, freq_hz: float, half_width_hz: float = 1.0) -> np.ndarray:
    """Mean spectral power in a band, per segment; reference statistic for oracles."""
    x = np.asarray(x, dtype=np.float64)
    spec = np.abs(np.fft.rfft(x, axis=-1)) ** 2
    freqs = np.fft.rfftfreq(x.shape[-1], d=1.0 / f_s)
    band = (freqs >= freq_hz - half_width_hz) & (freqs <= freq_hz + half_width_hz)
    if not band.any():
        raise ValueError(f"band around {freq_hz}Hz is empty at resolution {freqs[1]:.3f}Hz")
    return spec[..., band].mean(axis=(-2, -1))
