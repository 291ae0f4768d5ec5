"""Feature bundles: built from audio, rendered back to audio, and stored on disk.

Container layout (all integers little-endian):

    bytes 0..3    magic "HNSF"
    bytes 4..7    uint32 header length in bytes
    header        UTF-8 JSON: version, sample_rate, shapes, and the configs
    payload       raw float32 matrices in C order: f0 (frames,),
                  harmonics (frames, k_max), noise (frames, n_bins)

The JSON header keeps the file greppable while the payload stays compact.
Values are stored as float32, so a bundle whose arrays are exactly
representable in float32 round trips losslessly.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass

import numpy as np

from .analysis import AnalysisConfig, analyze
from .errors import FormatError
from .ioutil import atomic_write
from .spectral import SpectralConfig, require_cola
from .synth import harmonic_synthesize, noise_synthesize
from .types import F0Contour, HarmonicAmplitudes, NoiseMagnitudeSpectrum, Waveform

MAGIC = b"HNSF"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class FeatureBundle:
    """Everything analysis extracts and synthesis needs, with its configs."""

    f0: F0Contour
    harmonics: HarmonicAmplitudes
    noise: NoiseMagnitudeSpectrum
    sample_rate: int
    spectral: SpectralConfig
    analysis: AnalysisConfig

    def __post_init__(self):
        # the rendered audio is written as WAV, whose header holds a uint32 rate
        if not 0 < self.sample_rate < 2**32:
            raise ValueError(f"sample_rate must lie in 1..2**32-1, got {self.sample_rate}")
        if self.f0.values.max(initial=0.0) >= self.sample_rate / 2:
            raise ValueError(f"f0 reaches Nyquist ({self.sample_rate / 2} Hz)")
        frames = self.f0.frames
        if self.harmonics.frames != frames or self.noise.frames != frames:
            raise ValueError(
                "frame count mismatch: "
                f"f0 {frames}, harmonics {self.harmonics.frames}, noise {self.noise.frames}"
            )
        if self.f0.hop_size != self.spectral.hop_size:
            raise ValueError(
                f"hop mismatch: f0 {self.f0.hop_size} vs spectral {self.spectral.hop_size}"
            )
        if self.analysis.hop_size != self.spectral.hop_size:
            raise ValueError(
                f"hop mismatch: analysis {self.analysis.hop_size} "
                f"vs spectral {self.spectral.hop_size}"
            )
        if self.noise.bins != self.spectral.n_bins:
            raise ValueError(
                f"noise spectrum has {self.noise.bins} bins, config expects {self.spectral.n_bins}"
            )
        require_cola(self.spectral)  # the noise branch's inverse STFT needs it

    @property
    def frames(self) -> int:
        return self.f0.frames

    @property
    def hop_size(self) -> int:
        return self.spectral.hop_size


def analyze_bundle(
    x: Waveform, analysis: AnalysisConfig, spectral: SpectralConfig, f0: F0Contour | None = None
) -> FeatureBundle:
    """Analyze a waveform into the bundle of its features and configs.

    f0, when given, is estimate_f0(x, analysis). analyze makes the float32 values a
    saved bundle stores, so this bundle renders the samples its saved file does.
    """
    return FeatureBundle(*analyze(x, analysis, spectral, f0), x.sample_rate, spectral, analysis)


def render_bundle(bundle: FeatureBundle, seed: int = 0) -> Waveform:
    """Synthesize the harmonic and noise branches of a bundle and sum them."""
    samples = harmonic_synthesize(bundle.f0, bundle.harmonics, bundle.sample_rate).samples
    samples += noise_synthesize(bundle.noise, bundle.spectral, seed, bundle.sample_rate).samples
    return Waveform(samples, bundle.sample_rate)


def _payload(arr: np.ndarray) -> np.ndarray:
    """arr as little-endian float32 in C order, written through its buffer with no bytes copy."""
    return np.ascontiguousarray(arr, dtype="<f4")


def save_features(bundle: FeatureBundle, path) -> None:
    """Write a bundle in the container format; empty bundles are rejected."""
    if bundle.frames == 0:
        raise ValueError("refusing to save a bundle with zero frames")
    header = {
        "version": FORMAT_VERSION,
        "sample_rate": bundle.sample_rate,
        "frames": bundle.frames,
        "k_max": bundle.harmonics.k_max,
        "n_bins": bundle.noise.bins,
        "spectral": dataclasses.asdict(bundle.spectral),
        "analysis": dataclasses.asdict(bundle.analysis),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(_payload(bundle.f0.values))
        fh.write(_payload(bundle.harmonics.values))
        fh.write(_payload(bundle.noise.values))


def _header_int(value, name: str, path) -> int:
    """A header integer: JSON floats and bools are refused, not truncated."""
    if type(value) is not int:
        raise FormatError(f"{path}: {name} must be an integer, got {value!r}")
    return value


def _header_config(cls, fields: dict, section: str, path):
    """The config of one header section: int fields must hold JSON integers, float fields numbers."""
    for f in dataclasses.fields(cls):
        if f.name in fields and f.type == "int":
            _header_int(fields[f.name], f"{section}.{f.name}", path)
        elif f.name in fields and f.type == "float" and type(fields[f.name]) not in (int, float):
            raise FormatError(f"{path}: {section}.{f.name} must be a number, got {fields[f.name]!r}")
    return cls(**fields)


def load_features(path) -> FeatureBundle:
    """Read a container written by save_features.

    Every violation of the format, in the header or in the payload, raises
    FormatError.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise FormatError(f"{path}: truncated feature file ({len(raw)} bytes)")
    if raw[:4] != MAGIC:
        raise FormatError(f"{path}: not a feature file (bad magic)")
    (header_len,) = struct.unpack_from("<I", raw, 4)
    payload_at = 8 + header_len
    if payload_at > len(raw):
        raise FormatError(f"{path}: truncated feature file while reading header")
    try:
        header = json.loads(raw[8:payload_at])
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: malformed JSON header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not a JSON object")
    version = header.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise FormatError(
            f"{path}: unsupported feature file version {version!r}, "
            f"this reader handles {FORMAT_VERSION}"
        )
    try:
        frames, k_max, n_bins, sample_rate = (
            _header_int(header[key], key, path) for key in ("frames", "k_max", "n_bins", "sample_rate")
        )
        spectral_fields = {**header["spectral"]}
        # bundles written while framing could be uncentered carry "center": true
        if spectral_fields.pop("center", True) is not True:
            raise FormatError(f"{path}: uncentered framing (spectral.center) is not supported")
        spectral = _header_config(SpectralConfig, spectral_fields, "spectral", path)
        analysis_fields = {**header["analysis"]}
        analysis_fields.pop("harmonic_floor", None)  # a retired knob: relative floor on harmonic readings
        analysis = _header_config(AnalysisConfig, analysis_fields, "analysis", path)
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{path}: incomplete header: {exc}") from exc
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: invalid header: {exc}") from exc
    if min(frames, k_max, n_bins) < 1:
        raise FormatError(
            f"{path}: frames, k_max and n_bins must be positive, got {frames}, {k_max}, {n_bins}"
        )
    expected = 4 * frames * (1 + k_max + n_bins)
    if len(raw) - payload_at != expected:
        raise FormatError(
            f"{path}: payload holds {len(raw) - payload_at} bytes, the header declares {expected}"
        )
    values = np.frombuffer(raw, dtype="<f4", offset=payload_at).astype(np.float64)
    harmonics_end = frames * (1 + k_max)
    try:
        return FeatureBundle(
            f0=F0Contour.from_values(values[:frames], spectral.hop_size),
            harmonics=HarmonicAmplitudes(values[frames:harmonics_end].reshape(frames, k_max)),
            noise=NoiseMagnitudeSpectrum(values[harmonics_end:].reshape(frames, n_bins)),
            sample_rate=sample_rate,
            spectral=spectral,
            analysis=analysis,
        )
    except ValueError as exc:
        raise FormatError(f"{path}: invalid feature values: {exc}") from exc
