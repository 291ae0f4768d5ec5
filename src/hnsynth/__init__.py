"""Harmonic-plus-noise analysis and resynthesis toolkit.

The package splits into a synthesis core (sinusoidal bank plus random-phase
noise), an analysis front-end that estimates the features driving it from
audio, spectral losses and metrics as pure functions, and file/CLI plumbing.
"""

from .analysis import (
    AnalysisConfig,
    analyze,
    estimate_f0,
    estimate_harmonics,
    estimate_initial_phases,
    estimate_noise,
)
from .config import SCHEMA, ToolConfig, build_tool_config, parse_config_file
from .errors import FormatError, UnsupportedAudioError
from .features import FeatureBundle, analyze_bundle, load_features, render_bundle, save_features
from .losses import (
    DurationPair,
    LossWeights,
    aux_feature_loss,
    dsp_loss,
    duration_loss,
    duration_rmse,
    f0_rmse,
    mel_l1,
)
from .spectral import (
    MelConfig,
    SpectralConfig,
    default_spectral,
    istft,
    mel_filterbank,
    mel_spectrogram,
    multi_resolution_configs,
    multi_resolution_spectrograms,
    stft,
)
from .synth import cumulative_phase, harmonic_synthesize, noise_synthesize
from .types import F0Contour, HarmonicAmplitudes, NoiseMagnitudeSpectrum, Waveform
from .wavio import read_wav, write_wav

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "DurationPair",
    "F0Contour",
    "FeatureBundle",
    "FormatError",
    "HarmonicAmplitudes",
    "LossWeights",
    "MelConfig",
    "NoiseMagnitudeSpectrum",
    "SCHEMA",
    "SpectralConfig",
    "ToolConfig",
    "UnsupportedAudioError",
    "Waveform",
    "analyze",
    "analyze_bundle",
    "aux_feature_loss",
    "build_tool_config",
    "cumulative_phase",
    "default_spectral",
    "dsp_loss",
    "duration_loss",
    "duration_rmse",
    "estimate_f0",
    "estimate_harmonics",
    "estimate_initial_phases",
    "estimate_noise",
    "f0_rmse",
    "harmonic_synthesize",
    "istft",
    "load_features",
    "mel_filterbank",
    "mel_l1",
    "mel_spectrogram",
    "multi_resolution_configs",
    "multi_resolution_spectrograms",
    "noise_synthesize",
    "parse_config_file",
    "read_wav",
    "render_bundle",
    "save_features",
    "stft",
    "write_wav",
]
