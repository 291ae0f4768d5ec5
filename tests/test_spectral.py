"""STFT/iSTFT geometry, COLA round trips, and the mel feature stack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from hnsynth.spectral import (
    WINDOW_FAMILIES,
    MelConfig,
    SpectralConfig,
    default_spectral,
    frame_anchor,
    frame_count,
    frame_view,
    hz_to_mel,
    istft,
    mel_filterbank,
    mel_spectrogram,
    mel_to_hz,
    multi_resolution_configs,
    stft,
    stft_magnitude,
)
from hnsynth.types import Waveform


def all_builtin_configs():
    return multi_resolution_configs() + [default_spectral(44100), default_spectral(22050)]


# ------------------------------------------------------------ config

def test_config_rejects_bad_shapes():
    with pytest.raises(ValueError):
        SpectralConfig(fft_size=1000)  # not a power of two
    with pytest.raises(ValueError):
        SpectralConfig(fft_size=512, hop_size=600, win_size=512)
    with pytest.raises(ValueError):
        SpectralConfig(window="kaiser")
    # a spectrum of 2**59 + 1 complex128 bins is past the bytes numpy can address;
    # the largest accepted size is only described here, never allocated
    with pytest.raises(ValueError, match=f"^fft_size {2**60} "):
        SpectralConfig(fft_size=2**60, hop_size=2**58, win_size=2**60)
    assert SpectralConfig(fft_size=2**59, hop_size=2**57, win_size=2**59).n_bins == 2**58 + 1


def _config(name, win, hop):
    return SpectralConfig(fft_size=1 << (win - 1).bit_length(), hop_size=hop, win_size=win, window=name)


@pytest.mark.parametrize("name", WINDOW_FAMILIES)
def test_windows_equal_scipy_get_window(name):
    for win in [*range(1, 301), 512, 1024, 2048, 4096]:
        cfg = _config(name, win, 1)
        off = (cfg.fft_size - win) // 2
        assert np.array_equal(cfg.window_array()[off : off + win], sps.get_window(name, win, fftbins=True)), win


def test_is_cola_agrees_with_scipy_check_cola():
    checked = 0
    for name in WINDOW_FAMILIES:
        for win in (1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 31, 64, 100, 128, 255, 256, 384, 512, 1000, 1024, 2048):
            for hop in {1, 2, 3, win // 8, win // 5, win // 4, win // 3, win // 2, win - 1, win}:
                if not 1 <= hop <= win:
                    continue
                expected = sps.check_COLA(sps.get_window(name, win), win, win - hop)
                assert _config(name, win, hop).is_cola() == expected, (name, win, hop)
                checked += 1
    assert checked > 600


def test_frame_count_is_ceil_of_hops():
    assert frame_count(128 * 10, 128) == 10
    assert frame_count(128 * 10 + 1, 128) == 11
    assert frame_count(1, 128) == 1


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=300),
    hop=st.integers(min_value=1, max_value=64),
    lead=st.integers(min_value=0, max_value=100),
    length=st.integers(min_value=1, max_value=100),
    first=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    rows=st.integers(min_value=1, max_value=400),
)
def test_frame_view_rows_are_slices_of_zero_extended_signal(n, hop, lead, length, first, rows):
    # lead may fall below hop // 2, so row 0 can start inside the signal; a
    # range of rows (its stop capped at the frame count) is cut on its own
    x = np.arange(1.0, n + 1.0)
    frames = frame_view(x, hop, lead, length)
    assert frames.shape == (frame_count(n, hop), length)
    assert not frames.flags.writeable
    pad = lead + length + hop
    ext = np.concatenate([np.zeros(pad), x, np.zeros(pad)])
    for m, row in enumerate(frames):
        start = pad + frame_anchor(m, hop) - lead
        assert np.array_equal(row, ext[start : start + length])
    start = int(first * frame_count(n, hop))
    part = frame_view(x, hop, lead, length, start, start + rows)
    assert not part.flags.writeable
    assert np.array_equal(part, frames[start : start + rows])


def test_default_spectral_tracks_sample_rate():
    # 1024/256 below 32 kHz; from there, 2048/512 times the power of two nearest
    # sample_rate / 48 kHz, never less
    sizes = {
        8000: 1024, 22050: 1024, 31999: 1024, 32000: 2048, 44100: 2048, 48000: 2048, 64000: 2048,
        88200: 4096, 96000: 4096, 176400: 8192, 192000: 8192, 384000: 16384,
    }
    for sr, size in sizes.items():
        cfg = default_spectral(sr)
        assert (cfg.fft_size, cfg.hop_size, cfg.win_size) == (size, size // 4, size), sr


# -------------------------------------------------------------- stft

def test_centered_frame_covers_shifted_neighborhood(rng):
    cfg = SpectralConfig(fft_size=512, hop_size=128, win_size=512)
    x = Waveform(rng.standard_normal(2000), 22050)
    S = stft(x, cfg)
    pad_left = cfg.fft_size // 2 - cfg.hop_size // 2
    w = np.hanning(513)[:-1]
    m = 4
    start = m * cfg.hop_size - pad_left
    segment = x.samples[start : start + 512]
    expected = np.fft.rfft(segment * w)
    assert np.abs(S[m] - expected).max() < 1e-9


def test_stft_empty_signal_rejected():
    with pytest.raises(ValueError):
        stft(Waveform(np.zeros(0), 22050), SpectralConfig())


def test_per_frame_parseval_identity(rng):
    # energy of each windowed frame equals its rfft energy with the one-sided
    # bin weighting; this pins the FFT scaling convention exactly
    cfg = SpectralConfig(fft_size=512, hop_size=128, win_size=512)
    x = Waveform(rng.standard_normal(3000), 22050)
    S = stft(x, cfg)
    weights = np.full(cfg.n_bins, 2.0)
    weights[0] = weights[-1] = 1.0
    spec_energy = (weights * np.abs(S) ** 2).sum() / cfg.fft_size

    pad_left = cfg.fft_size // 2 - cfg.hop_size // 2
    n_frames = S.shape[0]
    padded = np.zeros(pad_left + (n_frames - 1) * cfg.hop_size + cfg.fft_size)
    padded[pad_left : pad_left + len(x)] = x.samples
    w = np.hanning(513)[:-1]
    frame_energy = sum(
        np.sum((padded[m * cfg.hop_size : m * cfg.hop_size + 512] * w) ** 2)
        for m in range(n_frames)
    )
    assert spec_energy == pytest.approx(frame_energy, rel=1e-3)


# ------------------------------------------------------------- istft

@pytest.mark.parametrize("cfg", all_builtin_configs(), ids=lambda c: f"fft{c.fft_size}hop{c.hop_size}")
def test_istft_round_trip_all_builtin_configs(cfg):
    rng = np.random.default_rng(42)
    sr = 22050
    x = Waveform(rng.standard_normal(sr), sr)  # 1 s
    y = istft(stft(x, cfg), cfg, out_len=len(x))
    assert y.shape == x.samples.shape
    assert np.abs(y - x.samples).max() < 1e-6


def test_istft_round_trip_non_multiple_length(rng):
    cfg = SpectralConfig(fft_size=512, hop_size=128, win_size=512)
    x = Waveform(rng.standard_normal(12345), 22050)
    y = istft(stft(x, cfg), cfg, out_len=len(x))
    assert np.abs(y - x.samples).max() < 1e-6


def test_istft_honors_requested_length(rng):
    cfg = SpectralConfig(fft_size=512, hop_size=128, win_size=512)
    S = stft(Waveform(rng.standard_normal(2000), 22050), cfg)
    assert istft(S, cfg, out_len=1500).shape == (1500,)


# ---------------------------------------------------------- mel scale

def test_mel_scale_break_point_and_linearity():
    assert hz_to_mel(1000.0) == pytest.approx(15.0)
    assert hz_to_mel(500.0) == pytest.approx(7.5)
    assert hz_to_mel(0.0) == pytest.approx(0.0)
    # log region: equal mel steps are equal frequency ratios
    m1, m2, m3 = 20.0, 25.0, 30.0
    r1 = mel_to_hz(m2) / mel_to_hz(m1)
    r2 = mel_to_hz(m3) / mel_to_hz(m2)
    assert r1 == pytest.approx(r2)


def test_mel_scale_inverts():
    f = np.linspace(0, 11025, 500)
    assert np.abs(mel_to_hz(hz_to_mel(f)) - f).max() < 1e-6


def test_filterbank_nonnegative_with_full_band_coverage():
    fb = mel_filterbank(22050, MelConfig())
    assert fb.shape == (80, 1025)
    assert (fb >= 0).all()
    # every filter has support, and interior bins are covered by some filter
    assert (fb.sum(axis=1) > 0).all()
    covered = fb.sum(axis=0)
    assert (covered[10:-10] > 0).all()


def test_filterbank_triangles_are_area_normalized():
    # with area normalization each triangle integrates to ~1 over frequency
    cfg = MelConfig(spectral=SpectralConfig(fft_size=2048, hop_size=512, win_size=2048))
    fb = mel_filterbank(44100, cfg)
    bin_hz = 44100 / 2048
    areas = fb.sum(axis=1) * bin_hz
    interior = areas[5:-5]
    assert np.abs(interior - 1.0).max() < 0.1


def test_mel_of_silence_is_log_floor():
    x = Waveform(np.zeros(22050), 22050)
    M = mel_spectrogram(x, MelConfig(spectral=default_spectral(22050)))
    assert np.allclose(M, np.log(1e-5))


def test_mel_monotone_under_amplitude_scaling(rng):
    # |STFT| scales elementwise with amplitude and the filterbank is
    # non-negative, so no mel coefficient may decrease
    x = Waveform(rng.standard_normal(22050) * 0.05, 22050)
    cfg = MelConfig(spectral=default_spectral(22050))
    lo = mel_spectrogram(x, cfg)
    hi = mel_spectrogram(Waveform(3 * x.samples, 22050), cfg)
    assert (hi >= lo - 1e-12).all()


def test_mel_shape_is_frames_by_bands(rng):
    x = Waveform(rng.standard_normal(10000), 22050)
    cfg = MelConfig(spectral=SpectralConfig(fft_size=1024, hop_size=256, win_size=1024), n_mels=64)
    assert mel_spectrogram(x, cfg).shape == (frame_count(10000, cfg.spectral.hop_size), 64)


# ------------------------------------------------- multi-resolution

def test_stft_magnitude_equals_abs_stft_bit_for_bit(rng):
    cfg = SpectralConfig(fft_size=512, hop_size=128, win_size=512)
    x = Waveform(rng.standard_normal(5000), 22050)
    assert np.array_equal(stft_magnitude(x, cfg), np.abs(stft(x, cfg)))


def test_stft_magnitude_shapes_follow_each_multi_resolution_config(rng):
    x = Waveform(rng.standard_normal(8192), 22050)
    cfgs = multi_resolution_configs()
    assert len(cfgs) == 3
    for cfg in cfgs:
        assert stft_magnitude(x, cfg).shape == (frame_count(8192, cfg.hop_size), cfg.n_bins)


def test_stft_magnitude_of_zeros_is_zero():
    x = Waveform(np.zeros(4096), 22050)
    for cfg in multi_resolution_configs():
        assert np.abs(stft_magnitude(x, cfg)).max() == 0.0
