"""Core domain types: waveforms and the frame-level features that drive synthesis.

All array fields are normalized to contiguous float64 numpy arrays at
construction time, and the dataclasses validate their invariants eagerly so the
synthesis and analysis code can assume well-formed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_float_array(values, name: str, ndim: int) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or Inf")
    return arr


@dataclass(frozen=True)
class Waveform:
    """Mono sample sequence with its sample rate.

    Samples are dimensionless amplitudes, nominally in [-1, 1]; values outside
    that range are legal in memory and only clipped when written as PCM.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "samples", _as_float_array(self.samples, "samples", 1))
        if int(self.sample_rate) <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class F0Contour:
    """Frame-level fundamental frequency in Hz; 0 encodes an unvoiced frame."""

    hop_size: int
    values: np.ndarray

    def __post_init__(self):
        if int(self.hop_size) <= 0:
            raise ValueError(f"hop_size must be positive, got {self.hop_size}")
        object.__setattr__(self, "hop_size", int(self.hop_size))
        values = _as_float_array(self.values, "f0 values", 1)
        if values.size and values.min() < 0:
            raise ValueError("f0 values must be non-negative")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_values(cls, values, hop_size: int) -> "F0Contour":
        """Build a contour from raw per-frame Hz values."""
        return cls(hop_size=hop_size, values=values)

    @property
    def voiced(self) -> np.ndarray:
        """Per-frame voicing flags, values > 0."""
        return self.values > 0

    @property
    def frames(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class HarmonicAmplitudes:
    """frames x K matrix of non-negative per-harmonic amplitudes."""

    values: np.ndarray

    def __post_init__(self):
        values = _as_float_array(self.values, "harmonic amplitudes", 2)
        if values.shape[1] < 1:
            raise ValueError("need at least one harmonic")
        if values.size and values.min() < 0:
            raise ValueError("harmonic amplitudes must be non-negative")
        object.__setattr__(self, "values", values)

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def k_max(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class NoiseMagnitudeSpectrum:
    """frames x bins non-negative magnitude matrix driving the noise branch."""

    values: np.ndarray

    def __post_init__(self):
        values = _as_float_array(self.values, "noise magnitudes", 2)
        if values.size and values.min() < 0:
            raise ValueError("noise magnitudes must be non-negative")
        object.__setattr__(self, "values", values)

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def bins(self) -> int:
        return self.values.shape[1]
