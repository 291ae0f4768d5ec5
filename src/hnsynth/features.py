"""Feature bundles: built from audio, rendered back to audio, and stored on disk.

Container layout (all integers little-endian):

    bytes 0..3    magic "HNSF"
    bytes 4..7    uint32 header length in bytes
    header        UTF-8 JSON: version, sample_rate, shapes, and the configs
    payload       raw arrays in C order: f0 (frames,) as float64,
                  harmonics (frames, k_max) and noise (frames, n_bins) as float32

The JSON header keeps the file greppable while the payload stays compact.
f0 is stored at the tracker's float64 precision (version 1 files, still read,
stored it as float32) and the matrices as float32, so a bundle holds the values
its file stores; a loaded bundle's matrices are views of the file's bytes.
"""

from __future__ import annotations

import contextvars
import dataclasses
import json
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .analysis import AnalysisConfig, analyze
from .errors import FormatError
from .ioutil import atomic_write
from .spectral import SpectralConfig, require_cola
from .synth import harmonic_synthesize, noise_synthesize
from .types import F0Contour, HarmonicAmplitudes, NoiseMagnitudeSpectrum, Waveform

MAGIC = b"HNSF"
FORMAT_VERSION = 2
_F0_WIDTH = {1: 4, 2: 8}  # bytes per stored f0 value, by format version


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
        if frames == 0:
            raise ValueError("a bundle needs at least one frame")
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


def analyze_bundle(x: Waveform, analysis: AnalysisConfig, spectral: SpectralConfig) -> FeatureBundle:
    """Analyze a waveform into the bundle of its features and configs.

    Its f0 is estimate_f0(x, analysis), and analyze makes the matrices at the
    float32 values a saved bundle stores, so this bundle is its file's bit for bit.
    """
    return FeatureBundle(*analyze(x, analysis, spectral), x.sample_rate, spectral, analysis)


def render_bundle(bundle: FeatureBundle, seed: int = 0) -> Waveform:
    """Synthesize the harmonic and noise branches of a bundle and sum them.

    Neither branch reads the other's output, so they run concurrently: the bank
    on a helper thread, the noise branch on the caller's. numpy releases the
    GIL inside the coarse calls both make, so on two CPUs they overlap. The sum
    is the harmonic render plus the noise render, the same bytes as running
    them one after the other. The helper runs in a copy of the caller's
    context, where numpy 2 keeps np.errstate, so a caller's error state holds in
    both branches. An exception of either branch is raised here, with its own
    type and message, once the helper has ended.
    """
    bank = {}

    def harmonic():
        try:
            bank["samples"] = harmonic_synthesize(bundle.f0, bundle.harmonics, bundle.sample_rate).samples
        except BaseException as exc:  # raised again on the caller's thread
            bank["error"] = exc

    # The bank, not the noise branch, takes the helper: the helper allocates from
    # a malloc arena of its own, which cannot reuse the blocks the caller frees,
    # and with the noise branch there a 15 s render's peak RSS measured higher.
    helper = threading.Thread(target=contextvars.copy_context().run, args=(harmonic,))
    helper.start()
    try:
        noise = noise_synthesize(bundle.noise, bundle.spectral, seed, bundle.sample_rate).samples
    finally:
        helper.join()
    if "error" in bank:
        raise bank["error"]
    samples = bank["samples"]
    samples += noise
    return Waveform(samples, bundle.sample_rate)


def save_features(bundle: FeatureBundle, path) -> None:
    """Write a bundle in the container format."""
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
        payload = ((bundle.f0.values, "<f8"), (bundle.harmonics.values, "<f4"), (bundle.noise.values, "<f4"))
        for values, dtype in payload:
            # little-endian in C order, written through its buffer with no bytes copy
            fh.write(np.ascontiguousarray(values, dtype=dtype))


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
    if type(version) is not int or version not in _F0_WIDTH:
        raise FormatError(
            f"{path}: unsupported feature file version {version!r}, "
            f"this reader handles {', '.join(map(str, _F0_WIDTH))}"
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
    width = _F0_WIDTH[version]
    expected = frames * (width + 4 * (k_max + n_bins))
    if len(raw) - payload_at != expected:
        raise FormatError(
            f"{path}: payload holds {len(raw) - payload_at} bytes, the header declares {expected}"
        )
    # f0 is copied into float64, which is aligned whatever the header's length; the matrices are views of raw
    f0 = np.frombuffer(raw, dtype=f"<f{width}", count=frames, offset=payload_at).astype(np.float64)
    values = np.frombuffer(raw, dtype="<f4", offset=payload_at + width * frames)
    try:
        return FeatureBundle(
            f0=F0Contour.from_values(f0, spectral.hop_size),
            harmonics=HarmonicAmplitudes(values[: frames * k_max].reshape(frames, k_max)),
            noise=NoiseMagnitudeSpectrum(values[frames * k_max :].reshape(frames, n_bins)),
            sample_rate=sample_rate,
            spectral=spectral,
            analysis=analysis,
        )
    except ValueError as exc:
        raise FormatError(f"{path}: invalid feature values: {exc}") from exc
