"""Feature bundle container round trips and error paths."""

import dataclasses
import json
import struct
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hnsynth import features
from hnsynth.analysis import AnalysisConfig, analyze, estimate_f0, estimate_harmonics, estimate_noise
from hnsynth.config import build_tool_config
from hnsynth.errors import FormatError
from hnsynth.features import MAGIC, FeatureBundle, analyze_bundle, load_features, render_bundle, save_features
from hnsynth.spectral import FRAME_BLOCK, MelConfig, SpectralConfig, mel_filterbank, stft
from hnsynth.synth import harmonic_synthesize, noise_synthesize
from hnsynth.types import F0Contour, HarmonicAmplitudes, NoiseMagnitudeSpectrum, Waveform

from conftest import traced_peak, version1_image

SPEC = SpectralConfig()
ANA = AnalysisConfig(hop_size=SPEC.hop_size)


def f32(a):
    # float32-representable values, which both payload layouts (f0 as <f4 in
    # version 1, <f8 since) store exactly
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


def test_bundle_refuses_a_window_hop_pair_that_fails_cola(tmp_path, rng):
    # the noise branch overlap-adds the window at the hop; the config a bundle
    # would carry refuses the pair, and so does a file's header
    with pytest.raises(ValueError, match="constant overlap-add"):
        dataclasses.replace(SPEC, hop_size=300)
    path = tmp_path / "b.hnsf"
    save_features(random_bundle(rng), path)
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8 : 8 + header_len])
    header["spectral"]["win_size"] = 2000
    blob = json.dumps(header).encode()
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + raw[8 + header_len :])
    with pytest.raises(FormatError, match="invalid header: .*constant overlap-add"):
        load_features(path)


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


def test_feature_matrices_hold_the_float32_values_a_bundle_stores():
    # float32 input is kept as it is, with no copy; any other float input is
    # rounded, and a value beyond float32's range raises before the cast warns
    stored = np.array([[0.5, 1e-3]], dtype=np.float32)
    assert HarmonicAmplitudes(stored).values is stored
    assert NoiseMagnitudeSpectrum(stored).values is stored
    for cls in (HarmonicAmplitudes, NoiseMagnitudeSpectrum):
        rounded = cls([[0.1, 1e-40]]).values
        assert rounded.dtype == np.float32 and rounded.flags.c_contiguous
        assert rounded.tobytes() == np.float32([[0.1, 1e-40]]).tobytes()
        with pytest.raises(ValueError, match="a feature value lies beyond float32's range"):
            cls([[0.1, 3.5e38]])
    assert F0Contour.from_values(np.float32([220.1]), 512).values.dtype == np.float64


SMALL = SpectralConfig(fft_size=256, hop_size=64, win_size=256)
F32_MAX = float(np.finfo(np.float32).max)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(f0=[11024.9999, 0.0, 0.0, 0.0], harmonics=[0.5] * 12, noise_peak=1.0)
@example(f0=[11025.0, 0.0, 0.0, 0.0], harmonics=[0.5] * 12, noise_peak=1.0)
@example(f0=[0.0, 220.0, 220.0, 0.0], harmonics=[0.1] * 11 + [F32_MAX * 1.0000001], noise_peak=1.0)
@example(f0=[0.0, 220.0, 220.0, 0.0], harmonics=[0.1] * 12, noise_peak=F32_MAX)
@example(f0=[0.0, 220.123456789, 220.123456789, 0.0], harmonics=[0.1] * 12, noise_peak=1.0)
@given(
    f0=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 11025.0, exclude_max=True)), min_size=4, max_size=4),
    harmonics=st.lists(st.floats(0.0, 1e39), min_size=12, max_size=12),
    noise_peak=st.floats(0.0, 1e39),
)
def test_save_then_load_is_the_identity(tmp_path, f0, harmonics, noise_peak):
    # float64 features, drawn up to and past float32's range, with f0 up to just
    # below Nyquist: a bundle is refused when it is built, or it holds what its
    # file holds (f0 in float64, the matrices in float32), so the loaded bundle's
    # f0, matrices and render are its own
    noise = np.random.default_rng(len(harmonics)).uniform(0.0, 1.0, (4, SMALL.n_bins)) * noise_peak
    refused = max(*harmonics, noise.max()) > F32_MAX or (np.asarray(f0) >= 11025.0).any()

    def build():
        return FeatureBundle(
            f0=F0Contour.from_values(f0, SMALL.hop_size),
            harmonics=HarmonicAmplitudes(np.reshape(harmonics, (4, 3))),
            noise=NoiseMagnitudeSpectrum(noise),
            sample_rate=22050,
            spectral=SMALL,
            analysis=AnalysisConfig(hop_size=SMALL.hop_size),
        )

    if refused:
        with pytest.raises(ValueError):
            build()
        return
    b = build()
    save_features(b, tmp_path / "b.hnsf")
    c = load_features(tmp_path / "b.hnsf")
    assert c.f0.values.tobytes() == b.f0.values.tobytes()
    for mine, loaded in [(b.harmonics.values, c.harmonics.values), (b.noise.values, c.noise.values)]:
        assert loaded.dtype == np.float32 and not loaded.flags.owndata
        assert loaded.tobytes() == mine.tobytes()
    assert render_bundle(c, seed=2).samples.tobytes() == render_bundle(b, seed=2).samples.tobytes()


def test_header_is_inspectable_json(tmp_path, rng):
    path = tmp_path / "b.hnsf"
    save_features(random_bundle(rng), path)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    (header_len,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8 : 8 + header_len])
    assert header["version"] == 2
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
    # the reader handles versions 1 and 2
    path = tmp_path / "b.hnsf"
    save_features(random_bundle(rng), path)
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8 : 8 + header_len])
    for version in (0, 3):
        header["version"] = version
        blob = json.dumps(header, sort_keys=True).encode()
        bad = tmp_path / "bad.hnsf"
        bad.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + raw[8 + header_len :])
        with pytest.raises(FormatError, match=f"version {version}, this reader handles 1, 2"):
            load_features(bad)


def test_version_1_file_loads_with_f0_widened_exactly(tmp_path, rng):
    # version 1 stored f0 as <f4; a file in that layout gives back the f0, the
    # matrices and the render of the same bundle saved as version 2
    b = random_bundle(rng)
    save_features(b, tmp_path / "v2.hnsf")
    (tmp_path / "v1.hnsf").write_bytes(version1_image((tmp_path / "v2.hnsf").read_bytes()))
    old, new = load_features(tmp_path / "v1.hnsf"), load_features(tmp_path / "v2.hnsf")
    assert (tmp_path / "v1.hnsf").stat().st_size == (tmp_path / "v2.hnsf").stat().st_size - 4 * b.frames
    assert old.f0.values.dtype == np.float64 and old.f0.values.tobytes() == b.f0.values.tobytes()
    assert old.harmonics.values.tobytes() == new.harmonics.values.tobytes()
    assert old.noise.values.tobytes() == new.noise.values.tobytes()
    assert render_bundle(old, seed=3).samples.tobytes() == render_bundle(new, seed=3).samples.tobytes()


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


def test_empty_bundle_rejected_at_save():
    # it is refused when it is built, so every bundle saves
    with pytest.raises(ValueError, match="a bundle needs at least one frame"):
        FeatureBundle(
            f0=F0Contour.from_values(np.zeros(0), SPEC.hop_size),
            harmonics=HarmonicAmplitudes(np.zeros((0, 4))),
            noise=NoiseMagnitudeSpectrum(np.zeros((0, SPEC.n_bins))),
            sample_rate=22050,
            spectral=SPEC,
            analysis=ANA,
        )


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


def _decoder_bundle(case):
    """A 44.1 kHz bundle with every harmonic column and noise bin live, or one of its edge cases."""
    frames = 5 if case == "short" else 300
    assert case != "short" or frames < FRAME_BLOCK
    rng = np.random.default_rng(frames)
    t = np.arange(frames) * SPEC.hop_size / 44100
    f0 = 165.0 * 2 ** ((t + 0.3 * np.sin(2 * np.pi * 5.5 * t)) / 12)
    harmonics = 0.12 * rng.uniform(0.8, 1.2, (frames, 100)) / np.arange(1, 101)
    noise = rng.uniform(0.0, 0.01, (frames, SPEC.n_bins))
    if case == "unvoiced":
        f0[:] = 0.0
    if case == "silent-noise":
        noise[:] = 0.0
    return FeatureBundle(
        f0=F0Contour.from_values(f0, SPEC.hop_size),
        harmonics=HarmonicAmplitudes(harmonics),
        noise=NoiseMagnitudeSpectrum(noise),
        sample_rate=44100,
        spectral=SPEC,
        analysis=ANA,
    )


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("case", ["dense", "unvoiced", "silent-noise", "short"])
def test_render_bundle_is_the_serial_sum_bit_for_bit(case, seed):
    # the branches run concurrently, and the sum is that of running them in turn
    b = _decoder_bundle(case)
    harmonic = harmonic_synthesize(b.f0, b.harmonics, b.sample_rate).samples
    serial = harmonic + noise_synthesize(b.noise, b.spectral, seed, b.sample_rate).samples
    assert render_bundle(b, seed).samples.tobytes() == serial.tobytes()


@pytest.mark.parametrize("error", [ValueError, MemoryError])
@pytest.mark.parametrize("branch", ["harmonic_synthesize", "noise_synthesize"])
def test_render_bundle_raises_a_branch_error_and_leaves_no_thread(monkeypatch, rng, branch, error):
    # the bank runs on a helper thread and the noise branch on the caller's:
    # either one's exception reaches the caller as it was raised, after the
    # helper has been joined
    def fail(*args):
        raise error(f"{branch} failed")

    monkeypatch.setattr(features, branch, fail)
    threads = threading.active_count()
    with pytest.raises(error) as caught:
        render_bundle(random_bundle(rng), seed=4)
    assert type(caught.value) is error and str(caught.value) == f"{branch} failed"
    assert threading.active_count() == threads


def test_render_bundle_runs_the_bank_in_the_callers_error_state(monkeypatch, rng):
    # the helper thread runs in a copy of the caller's context, where np.errstate lives
    def overflowing_bank(*args):
        np.float64(1e308) * 10
        return harmonic_synthesize(*args)

    monkeypatch.setattr(features, "harmonic_synthesize", overflowing_bank)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        render_bundle(random_bundle(rng), seed=4)


def _sung_tone(seconds, sr=44100):
    t = np.arange(seconds * sr) / sr
    psi = 2 * np.pi * np.cumsum(220.0 * 2 ** (0.3 * np.sin(2 * np.pi * 5.0 * t) / 12)) / sr
    x = sum(0.3 / k * np.sin(k * psi) for k in range(1, 11))
    return Waveform(x + 0.01 * np.random.default_rng(seconds).standard_normal(t.size), sr)


def test_analyze_and_render_memory_grows_less_than_48_bytes_per_sample(tmp_path):
    # Every framed stage runs over blocks of frames, so what grows with the clip
    # is what is kept: the input, the harmonic render, the bundle's float32
    # matrices (the noise alone is 8 B per sample at 2048/512) and the output.
    # The whole-clip spectra and frame matrices grew the peaks by 110 and 105 B
    # per sample. Measured since the matrices are float32 in memory: analyze
    # 19.4 B (32.6 B with float64 matrices), load 10.8 B (28.4 B when it widened
    # the payload to float64), render 16.0 B.
    tool = build_tool_config(44100)
    peaks, lengths = [], []
    for seconds in (5, 30):
        x = _sung_tone(seconds)
        analyze_peak, bundle = traced_peak(analyze_bundle, x, tool.analysis, tool.spectral)
        save_features(bundle, tmp_path / "x.hnsf")
        load_peak = traced_peak(load_features, tmp_path / "x.hnsf")[0]
        peaks.append((analyze_peak, load_peak, traced_peak(render_bundle, bundle)[0]))
        lengths.append(len(x))
    extra = lengths[1] - lengths[0]
    analyze_growth, load_growth, render_growth = ((b - a) / extra for a, b in zip(*peaks))
    assert analyze_growth < 26 and load_growth < 16 and render_growth < 48


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


@pytest.mark.parametrize("sample_rate, fft_size, hop_size", [(44100, 2048, 512), (22050, 1024, 256)])
def test_analyzed_bundle_agrees_with_itself_and_its_file(tmp_path, sample_rate, fft_size, hop_size):
    # analyze makes each feature at the precision a bundle stores, so the f0 is
    # estimate_f0's, the harmonics are those read at it and the noise is x
    # beyond the render of the stored harmonics, and the file holds the same
    # bits. A voiced clip with vibrato and breath noise.
    spectral = SpectralConfig(fft_size=fft_size, hop_size=hop_size, win_size=fft_size)
    analysis = AnalysisConfig(hop_size=hop_size)
    x = _sung_tone(2, sample_rate)
    f0, harmonics, noise = analyze(x, analysis, spectral)
    bundle = analyze_bundle(x, analysis, spectral)
    save_features(bundle, tmp_path / "x.hnsf")
    stored = load_features(tmp_path / "x.hnsf")
    assert f0.values.tobytes() == estimate_f0(x, analysis).values.tobytes()
    for got in (bundle, stored):
        assert got.f0.values.tobytes() == f0.values.tobytes()
        assert got.harmonics.values.tobytes() == harmonics.values.tobytes()
        assert got.noise.values.tobytes() == noise.values.tobytes()

    reread = estimate_harmonics(x, stored.f0, analysis, spectral).values.astype(np.float32)
    assert np.array_equal(stored.harmonics.values, reread)
    rendered = harmonic_synthesize(stored.f0, stored.harmonics, sample_rate).samples[: len(x)]
    residual = estimate_noise(x, Waveform(rendered, sample_rate), spectral).values
    assert np.array_equal(stored.noise.values, residual)
    assert f0.voiced.mean() > 0.9 and noise.values.any()
