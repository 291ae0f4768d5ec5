"""Feature bundle container round trips and error paths."""

import dataclasses
import json
import struct

import numpy as np
import pytest

from hnsynth.analysis import AnalysisConfig
from hnsynth.config import build_tool_config
from hnsynth.errors import FormatError
from hnsynth.features import MAGIC, FeatureBundle, analyze_bundle, load_features, render_bundle, save_features
from hnsynth.spectral import MelConfig, SpectralConfig, mel_filterbank, stft
from hnsynth.synth import harmonic_synthesize, noise_synthesize
from hnsynth.types import F0Contour, HarmonicAmplitudes, NoiseMagnitudeSpectrum, Waveform

from conftest import traced_peak

SPEC = SpectralConfig()
ANA = AnalysisConfig(hop_size=SPEC.hop_size)


def f32(a):
    # float32-representable values survive the float32 payload exactly
    return np.asarray(a, dtype=np.float32).astype(np.float64)


def random_bundle(rng, frames=20, k_max=6):
    f0 = np.where(rng.random(frames) > 0.3, rng.uniform(100, 500, frames), 0.0)
    return FeatureBundle(
        f0=F0Contour.from_values(f32(f0), SPEC.hop_size),
        harmonics=HarmonicAmplitudes(f32(rng.uniform(0, 0.4, (frames, k_max)))),
        noise=NoiseMagnitudeSpectrum(f32(rng.uniform(0, 0.01, (frames, SPEC.n_bins)))),
        sample_rate=22050,
        spectral=SPEC,
        analysis=ANA,
    )


# ------------------------------------------------------------- bundle

def test_bundle_validates_shared_frames_and_hop(rng):
    b = random_bundle(rng)
    with pytest.raises(ValueError):
        FeatureBundle(
            f0=b.f0,
            harmonics=HarmonicAmplitudes(b.harmonics.values[:-1]),
            noise=b.noise,
            sample_rate=22050,
            spectral=SPEC,
            analysis=ANA,
        )
    with pytest.raises(ValueError):
        FeatureBundle(
            f0=F0Contour.from_values(b.f0.values, 256),
            harmonics=b.harmonics,
            noise=b.noise,
            sample_rate=22050,
            spectral=SPEC,
            analysis=ANA,
        )
    with pytest.raises(ValueError):
        FeatureBundle(
            f0=b.f0,
            harmonics=b.harmonics,
            noise=NoiseMagnitudeSpectrum(b.noise.values[:, :-1]),
            sample_rate=22050,
            spectral=SPEC,
            analysis=ANA,
        )


def test_bundle_refuses_a_window_hop_pair_that_fails_cola(rng):
    # the noise branch's inverse STFT could not render it exactly
    spectral = dataclasses.replace(SPEC, hop_size=300)
    b = random_bundle(rng)
    with pytest.raises(ValueError, match="constant overlap-add"):
        FeatureBundle(
            f0=F0Contour.from_values(b.f0.values, 300),
            harmonics=b.harmonics,
            noise=b.noise,
            sample_rate=22050,
            spectral=spectral,
            analysis=AnalysisConfig(hop_size=300),
        )


def test_save_load_identity_on_random_bundle(tmp_path, rng):
    b = random_bundle(rng)
    path = tmp_path / "b.hnsf"
    save_features(b, path)
    c = load_features(path)
    assert np.array_equal(b.f0.values, c.f0.values)
    assert np.array_equal(b.f0.voiced, c.f0.voiced)
    assert np.array_equal(b.harmonics.values, c.harmonics.values)
    assert np.array_equal(b.noise.values, c.noise.values)
    assert b.spectral == c.spectral
    assert b.analysis == c.analysis
    assert b.sample_rate == c.sample_rate


def test_header_is_inspectable_json(tmp_path, rng):
    path = tmp_path / "b.hnsf"
    save_features(random_bundle(rng), path)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    (header_len,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8 : 8 + header_len])
    assert header["version"] == 1
    assert header["frames"] == 20
    assert header["spectral"]["fft_size"] == SPEC.fft_size


def test_truncated_file_raises_format_error(tmp_path, rng):
    path = tmp_path / "b.hnsf"
    save_features(random_bundle(rng), path)
    raw = path.read_bytes()
    for cut in (0, 3, 6, 30, len(raw) // 2, len(raw) - 1):
        clipped = tmp_path / "cut.hnsf"
        clipped.write_bytes(raw[:cut])
        with pytest.raises(FormatError):
            load_features(clipped)


def test_version_mismatch_raises_format_error(tmp_path, rng):
    path = tmp_path / "b.hnsf"
    save_features(random_bundle(rng), path)
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8 : 8 + header_len])
    header["version"] = 2
    blob = json.dumps(header, sort_keys=True).encode()
    bad = tmp_path / "v2.hnsf"
    bad.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + raw[8 + header_len :])
    with pytest.raises(FormatError, match="version"):
        load_features(bad)


# bundles written while framing could be uncentered carry "center": true, and
# those written while harmonic readings had a relative floor carry its value
@pytest.mark.parametrize(
    "section, key, value",
    [("spectral", "center", True), ("analysis", "harmonic_floor", 0.05)],
    ids=["center", "harmonic_floor"],
)
def test_header_retired_key_loads_like_no_key(tmp_path, rng, section, key, value):
    path = tmp_path / "b.hnsf"
    save_features(random_bundle(rng), path)
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8 : 8 + header_len])
    assert key not in header[section]
    header[section][key] = value
    blob = json.dumps(header, sort_keys=True).encode()
    old = tmp_path / "old.hnsf"
    old.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + raw[8 + header_len :])
    a, b = load_features(path), load_features(old)
    assert np.array_equal(a.f0.values, b.f0.values)
    assert np.array_equal(a.harmonics.values, b.harmonics.values)
    assert np.array_equal(a.noise.values, b.noise.values)
    assert (a.spectral, a.analysis, a.sample_rate) == (b.spectral, b.analysis, b.sample_rate)


def test_bad_magic_raises_format_error(tmp_path, rng):
    path = tmp_path / "b.hnsf"
    save_features(random_bundle(rng), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"WAVE"
    bad = tmp_path / "m.hnsf"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        load_features(bad)


def test_empty_bundle_rejected_at_save(tmp_path):
    empty = FeatureBundle(
        f0=F0Contour.from_values(np.zeros(0), SPEC.hop_size),
        harmonics=HarmonicAmplitudes(np.zeros((0, 4))),
        noise=NoiseMagnitudeSpectrum(np.zeros((0, SPEC.n_bins))),
        sample_rate=22050,
        spectral=SPEC,
        analysis=ANA,
    )
    with pytest.raises(ValueError):
        save_features(empty, tmp_path / "e.hnsf")


def test_render_bundle_is_deterministic(rng):
    b = random_bundle(rng)
    y1 = render_bundle(b, seed=4)
    y2 = render_bundle(b, seed=4)
    y3 = render_bundle(b, seed=5)
    assert np.array_equal(y1.samples, y2.samples)
    assert not np.array_equal(y1.samples, y3.samples)
    assert len(y1) == b.frames * b.hop_size


def test_render_bundle_sums_the_two_branches(rng):
    b = random_bundle(rng)
    harmonic = harmonic_synthesize(b.f0, b.harmonics, b.sample_rate)
    noise = noise_synthesize(b.noise, b.spectral, 4, b.sample_rate)
    y = render_bundle(b, seed=4)
    assert y.sample_rate == b.sample_rate
    assert np.array_equal(y.samples, harmonic.samples + noise.samples)



def _sung_tone(seconds, sr=44100):
    t = np.arange(seconds * sr) / sr
    psi = 2 * np.pi * np.cumsum(220.0 * 2 ** (0.3 * np.sin(2 * np.pi * 5.0 * t) / 12)) / sr
    x = sum(0.3 / k * np.sin(k * psi) for k in range(1, 11))
    return Waveform(x + 0.01 * np.random.default_rng(seconds).standard_normal(t.size), sr)


def test_analyze_and_render_memory_grows_less_than_48_bytes_per_sample():
    # Every framed stage runs over blocks of frames, so what grows with the clip
    # is what is kept: the input, the harmonic render, the bundle's matrices
    # (the noise alone is 16 B per sample at 2048/512) and the output. The
    # whole-clip spectra and frame matrices grew the peaks by 110 and 105 B per
    # sample; blocked, 25.6 and 16.0 B were measured.
    tool = build_tool_config(44100)
    peaks, lengths = [], []
    for seconds in (5, 30):
        x = _sung_tone(seconds)
        analyze_peak, bundle = traced_peak(analyze_bundle, x, tool.analysis, tool.spectral)
        peaks.append((analyze_peak, traced_peak(render_bundle, bundle)[0]))
        lengths.append(len(x))
    extra = lengths[1] - lengths[0]
    analyze_growth, render_growth = ((b - a) / extra for a, b in zip(*peaks))
    assert analyze_growth < 48 and render_growth < 48


@pytest.mark.parametrize("sample_rate", [22050, 44100])
def test_white_noise_round_trip_keeps_every_mel_band_level(sample_rate):
    # Random-phase frames overlap-add in power, not in amplitude, so analysis
    # has to store magnitudes that the noise branch renders back at the
    # input's level. The time-averaged power of each mel band is compared,
    # over 4 s and 4 noise seeds so that the realisations' spread stays small.
    tool = build_tool_config(sample_rate)
    x = Waveform(0.1 * np.random.default_rng(3).standard_normal(4 * sample_rate), sample_rate)
    bundle = analyze_bundle(x, tool.analysis, tool.spectral)
    bands = mel_filterbank(sample_rate, MelConfig(spectral=tool.spectral))

    def band_power(w):
        return (np.abs(stft(w, tool.spectral)) ** 2 @ bands.T).mean(axis=0)

    renders = [render_bundle(bundle, seed).samples[: len(x)] for seed in range(4)]
    rendered = np.mean([band_power(Waveform(y, sample_rate)) for y in renders], axis=0)
    assert np.abs(10 * np.log10(rendered / band_power(x))).max() < 0.5
