"""Core domain types: waveforms and the frame-level features that drive synthesis.

All array fields are normalized to contiguous float64 numpy arrays at
construction time, but for the harmonic and noise matrices, which hold the
float32 values a feature bundle stores, rounded from any other float input.
The dataclasses validate their invariants eagerly so the synthesis and
analysis code can assume well-formed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_float_array(values, name: str, ndim: int, dtype=np.float64, signed: bool = False) -> np.ndarray:
    """values as a contiguous dtype array, non-negative unless signed; a value beyond dtype's range raises."""
    arr = np.asarray(values)
    if arr.dtype.kind != "f":
        arr = arr.astype(np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or Inf")
    if not signed and arr.size and arr.min() < 0:
        raise ValueError(f"{name} must be non-negative")
    if arr.max(initial=0.0) > np.finfo(dtype).max:
        raise ValueError(f"a feature value lies beyond {np.dtype(dtype).name}'s range")
    return np.ascontiguousarray(arr, dtype=dtype)


@dataclass(frozen=True)
class Waveform:
    """Mono sample sequence with its sample rate.

    Samples are dimensionless amplitudes, nominally in [-1, 1]; values outside
    that range are legal in memory and only clipped when written as PCM.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "samples", _as_float_array(self.samples, "samples", 1, signed=True))
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
        object.__setattr__(self, "values", _as_float_array(self.values, "f0 values", 1))

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
    """frames x K float32 matrix of non-negative per-harmonic amplitudes."""

    values: np.ndarray

    def __post_init__(self):
        values = _as_float_array(self.values, "harmonic amplitudes", 2, np.float32)
        if values.shape[1] < 1:
            raise ValueError("need at least one harmonic")
        object.__setattr__(self, "values", values)

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def k_max(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class NoiseMagnitudeSpectrum:
    """frames x bins float32 non-negative magnitude matrix driving the noise branch."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_float_array(self.values, "noise magnitudes", 2, np.float32))

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def bins(self) -> int:
        return self.values.shape[1]
