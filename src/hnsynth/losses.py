"""Spectral training losses and objective metrics as pure functions.

Norm reductions are mean-based throughout so values are comparable across
clip lengths: L1 terms are mean absolute error, L2 terms are root mean
square error. Nothing here owns state or randomness.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .spectral import MelConfig, mel_spectrogram
from .types import F0Contour, Waveform


@dataclass(frozen=True)
class LossWeights:
    """Scale factor of the DSP mel loss."""

    lambda_dsp: float = 45.0

    def __post_init__(self):
        if not math.isfinite(self.lambda_dsp) or self.lambda_dsp < 0:
            raise ValueError(f"lambda_dsp must be finite and >= 0, got {self.lambda_dsp}")


@dataclass(frozen=True)
class DurationPair:
    """Per-phoneme and per-note duration sequences, in frames."""

    phone: np.ndarray
    note: np.ndarray

    def __post_init__(self):
        for name in ("phone", "note"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"{name} durations must be 1-D, got shape {arr.shape}")
            if not np.isfinite(arr).all() or (arr < 0).any():
                raise ValueError(f"{name} durations must be finite and >= 0")
            object.__setattr__(self, name, arr)


def _rms(err: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(err)))) if err.size else 0.0


def mel_l1(a: Waveform, b: Waveform, mel: MelConfig) -> float:
    """Mean absolute log-mel difference between two equal-length waveforms."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)} samples")
    if a.sample_rate != b.sample_rate:
        raise ValueError(f"sample rate mismatch: {a.sample_rate} vs {b.sample_rate}")
    return float(np.abs(mel_spectrogram(a, mel) - mel_spectrogram(b, mel)).mean())


def dsp_loss(y_dsp: Waveform, y: Waveform, mel: MelConfig, w: LossWeights) -> float:
    """Weighted log-mel L1 between the DSP waveform and the reference."""
    return w.lambda_dsp * mel_l1(y_dsp, y, mel)


def aux_feature_loss(
    lf0_pred: np.ndarray,
    lf0_true: np.ndarray,
    voiced: np.ndarray,
    mel_pred: np.ndarray,
    mel_true: np.ndarray,
) -> float:
    """Log-F0 RMSE over voiced frames plus log-mel mean absolute error.

    voiced marks the frames on which log-F0 is defined for both contours;
    unvoiced frames contribute nothing to the F0 term.
    """
    lf0_pred = np.asarray(lf0_pred, dtype=float)
    lf0_true = np.asarray(lf0_true, dtype=float)
    voiced = np.asarray(voiced, dtype=bool)
    mel_pred = np.asarray(mel_pred, dtype=float)
    mel_true = np.asarray(mel_true, dtype=float)
    if lf0_pred.shape != lf0_true.shape or lf0_pred.shape != voiced.shape:
        raise ValueError(
            f"log-F0 shape mismatch: {lf0_pred.shape} vs {lf0_true.shape} vs mask {voiced.shape}"
        )
    if mel_pred.shape != mel_true.shape:
        raise ValueError(f"mel shape mismatch: {mel_pred.shape} vs {mel_true.shape}")
    f0_term = _rms(lf0_pred[voiced] - lf0_true[voiced])
    mel_term = float(np.abs(mel_pred - mel_true).mean()) if mel_pred.size else 0.0
    return f0_term + mel_term


def duration_loss(pred: DurationPair, truth: DurationPair) -> float:
    """RMSE of phoneme durations plus RMSE of note durations."""
    if pred.phone.shape != truth.phone.shape:
        raise ValueError(f"phone length mismatch: {pred.phone.shape} vs {truth.phone.shape}")
    if pred.note.shape != truth.note.shape:
        raise ValueError(f"note length mismatch: {pred.note.shape} vs {truth.note.shape}")
    return _rms(pred.phone - truth.phone) + _rms(pred.note - truth.note)


def f0_rmse(pred: F0Contour, truth: F0Contour) -> float:
    """Root-mean-square F0 error in Hz over mutually voiced frames.

    Frames unvoiced in either contour are ignored. When the contours share no
    voiced frames the metric is undefined; a warning is emitted and 0.0
    returned.
    """
    if pred.frames != truth.frames:
        raise ValueError(f"frame count mismatch: {pred.frames} vs {truth.frames}")
    both = pred.voiced & truth.voiced
    if not both.any():
        warnings.warn("no mutually voiced frames; F0 RMSE is undefined, returning 0.0")
        return 0.0
    return _rms(pred.values[both] - truth.values[both])


def duration_rmse(pred: DurationPair, truth: DurationPair) -> float:
    """Root-mean-square error of per-phoneme durations, in frames."""
    if pred.phone.shape != truth.phone.shape:
        raise ValueError(f"phone length mismatch: {pred.phone.shape} vs {truth.phone.shape}")
    return _rms(pred.phone - truth.phone)
