"""Flat key=value tool configuration with documented schema and precedence.

Precedence is: per-rate defaults, then config file, then CLI flags. The
schema below is the full key set; every tunable design parameter of the
pipeline appears here so runs are reproducible from a config file alone.

File syntax: one `key = value` per line, `#` starts a comment, blank lines
ignored. The f_max key also accepts `none` (meaning Nyquist), and
mrs_fft_sizes takes a comma-separated list.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .analysis import AnalysisConfig
from .errors import FormatError
from .losses import LossWeights
from .spectral import MRS_FFT_SIZES, MelConfig, SpectralConfig, default_spectral, mel_band
from .spectral import multi_resolution_configs, require_cola


def _parse_optional_float(text: str):
    return None if text.lower() in ("none", "nyquist") else float(text)


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in text.split(","))


# key -> (parser, description); the description doubles as the schema doc.
SCHEMA = {
    "fft_size": (int, "STFT size in samples, power of two"),
    "hop_size": (int, "hop between frames in samples, shared by all stages"),
    "win_size": (int, "analysis window length in samples"),
    "window": (str, "window family: hann, hamming, blackman, blackmanharris"),
    "n_mels": (int, "mel band count"),
    "f_min": (float, "lowest mel band edge in Hz"),
    "f_max": (_parse_optional_float, "highest mel band edge in Hz, or none for Nyquist"),
    "log_floor": (float, "magnitude floor inside the mel log compression"),
    "mrs_fft_sizes": (_parse_int_list, "comma-separated FFT sizes for multi-resolution metrics"),
    "f0_min": (float, "lowest trackable F0 in Hz"),
    "f0_max": (float, "highest trackable F0 in Hz"),
    "k_max": (int, "number of harmonics analyzed and synthesized"),
    "peak_halfwidth_bins": (int, "half-width of the spectral peak search around k*f0"),
    "refine_iters": (int, "multiplicative amplitude refinement passes"),
    "voicing_threshold": (float, "minimum normalized autocorrelation for a voiced frame"),
    "silence_rms": (float, "frame RMS below which frames are unvoiced outright"),
    "median_width": (int, "odd length of the F0 median/mean smoothing windows"),
    "lambda_dsp": (float, "weight of the DSP mel loss"),
    "seed": (int, "noise-phase RNG seed"),
}


@dataclass(frozen=True)
class ToolConfig:
    """Resolved configuration for one CLI run."""

    spectral: SpectralConfig
    mel: MelConfig
    analysis: AnalysisConfig
    weights: LossWeights
    mrs_fft_sizes: tuple[int, ...]
    seed: int


def parse_config_file(path) -> dict:
    """Read a key=value file into a typed overrides dict, validating keys."""
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise FormatError(f"expected 'key = value', got {raw.strip()!r}", line=lineno)
            key, _, value = text.partition("=")
            key, value = key.strip(), value.strip()
            if key not in SCHEMA:
                known = ", ".join(sorted(SCHEMA))
                raise FormatError(f"unknown config key {key!r} (known: {known})", line=lineno)
            parser = SCHEMA[key][0]
            try:
                overrides[key] = parser(value)
            except ValueError as exc:
                raise FormatError(f"bad value for {key}: {exc}", line=lineno) from exc
    return overrides


def _fields(cls, overrides: dict) -> dict:
    """The overrides named after fields of the config dataclass cls."""
    return {f.name: overrides[f.name] for f in fields(cls) if f.name in overrides}


def build_tool_config(sample_rate: int, overrides: dict | None = None) -> ToolConfig:
    """Resolve per-rate defaults plus overrides into a ToolConfig.

    Unknown keys raise; domain violations (negative sizes, a window/hop pair
    that fails constant overlap-add, a mel band past the rate's Nyquist and
    the like) surface as ValueError from the component config constructors,
    spectral.require_cola and spectral.mel_band.
    """
    overrides = dict(overrides or {})
    unknown = set(overrides) - set(SCHEMA)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    spectral = replace(default_spectral(sample_rate), **_fields(SpectralConfig, overrides))
    require_cola(spectral)  # the noise branch's inverse STFT needs it
    mel = MelConfig(spectral=spectral, **_fields(MelConfig, overrides))
    mel_band(sample_rate, mel)  # rejects a band outside 0 <= f_min < f_max <= Nyquist
    analysis = AnalysisConfig(**{**_fields(AnalysisConfig, overrides), "hop_size": spectral.hop_size})
    weights = LossWeights(**_fields(LossWeights, overrides))
    mrs = tuple(overrides.get("mrs_fft_sizes", MRS_FFT_SIZES))
    for i, size in enumerate(mrs, start=1):
        try:
            multi_resolution_configs((size,))  # each size must make a valid quarter-hop STFT config
        except ValueError as exc:
            raise ValueError(f"mrs_fft_sizes entry {i} ({size}): {exc}") from exc
    seed = int(overrides.get("seed", 0))
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return ToolConfig(
        spectral=spectral,
        mel=mel,
        analysis=analysis,
        weights=weights,
        mrs_fft_sizes=mrs,
        seed=seed,
    )


def describe_schema() -> str:
    """Human-readable schema listing for --help and the README."""
    width = max(len(k) for k in SCHEMA)
    return "\n".join(f"{k.ljust(width)}  {doc}" for k, (_, doc) in sorted(SCHEMA.items()))
