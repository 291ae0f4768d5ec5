"""Synthesis core: phase accumulation, harmonic bank, and noise branch."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnsynth.analysis import estimate_initial_phases
from hnsynth.spectral import SpectralConfig, frame_anchor, stft
from hnsynth.synth import (
    _BLOCK_ROWS,
    _SLICE_HARMONICS,
    _phasor_blocks,
    cumulative_phase,
    harmonic_synthesize,
    noise_synthesize,
)
from hnsynth.types import F0Contour, HarmonicAmplitudes, NoiseMagnitudeSpectrum, Waveform

from conftest import constant_amps, constant_contour


# ---------------------------------------------------------------- phase

def test_cumulative_phase_constant_closed_form():
    sr, f0, seconds = 44100, 441.0, 10.0
    n = int(sr * seconds)
    phase = cumulative_phase(np.full(n, f0), sr)
    expected = 2 * np.pi * f0 * (np.arange(n, dtype=np.longdouble) + 1) / sr
    assert np.abs(phase - expected.astype(np.float64)).max() < 1e-6


def test_cumulative_phase_inclusive_first_sample():
    phase = cumulative_phase(np.array([100.0, 100.0]), 1000)
    assert phase[0] == pytest.approx(2 * np.pi * 100.0 / 1000)


def test_cumulative_phase_monotone_for_positive_f():
    rng = np.random.default_rng(5)
    f = rng.uniform(50, 400, 4000)
    phase = cumulative_phase(f, 8000)
    assert (np.diff(phase) > 0).all()


def test_cumulative_phase_rejects_negative_and_nonfinite():
    with pytest.raises(ValueError):
        cumulative_phase(np.array([100.0, -1.0]), 8000)
    with pytest.raises(ValueError):
        cumulative_phase(np.array([np.nan]), 8000)


# ---------------------------------------------------- harmonic bank

def test_single_harmonic_matches_direct_sine():
    sr, f0, hop, frames = 22050, 220.0, 256, 40
    contour = constant_contour(f0, frames, hop)
    amps = constant_amps([0.5], frames)
    y = harmonic_synthesize(contour, amps, sr)
    n = np.arange(frames * hop)
    # inclusive phase accumulation puts sample n at 2*pi*f0*(n+1)/sr
    expected = 0.5 * np.sin(2 * np.pi * f0 * (n + 1) / sr)
    assert np.abs(y.samples - expected).max() < 1e-9


def test_spectral_purity_five_harmonics():
    sr, f0, frames, hop = 44100, 220.0, 90, 512
    contour = constant_contour(f0, frames, hop)
    amps = constant_amps([0.4, 0.3, 0.2, 0.15, 0.1], frames)
    y = harmonic_synthesize(contour, amps, sr)
    spec = np.abs(np.fft.rfft(y.samples * np.hanning(len(y))))
    energy = spec**2
    bin_hz = sr / len(y)
    keep = np.zeros(len(spec), dtype=bool)
    for k in range(1, 6):
        center = int(round(k * f0 / bin_hz))
        keep[center - 2 : center + 3] = True
    outside = energy[~keep].sum() / energy.sum()
    assert outside < 0.01


def test_nyquist_gating_matches_zeroed_amplitude():
    # third harmonic of 10 kHz sits at 30 kHz >= Nyquist: must contribute nothing
    sr, frames, hop = 44100, 20, 512
    contour = constant_contour(10_000.0, frames, hop)
    with_k3 = harmonic_synthesize(contour, constant_amps([0.5, 0.3, 0.2], frames), sr)
    without = harmonic_synthesize(contour, constant_amps([0.5, 0.3, 0.0], frames), sr)
    assert np.abs(with_k3.samples - without.samples).max() < 1e-12


def test_unvoiced_frames_produce_silence():
    sr, hop = 22050, 256
    values = np.concatenate([np.full(10, 220.0), np.zeros(10), np.full(10, 220.0)])
    contour = F0Contour.from_values(values, hop)
    amps = constant_amps([0.5, 0.3], 30)
    y = harmonic_synthesize(contour, amps, sr)
    # interpolation ramps f0 down toward the unvoiced block; strictly inside
    # it the interpolated f0 is exactly zero and the output must be too
    mid = slice(11 * hop, 19 * hop)
    assert np.abs(y.samples[mid]).max() == 0.0


def test_output_length_is_frames_times_hop():
    y = harmonic_synthesize(constant_contour(100.0, 7, 64), constant_amps([0.1], 7), 8000)
    assert len(y) == 7 * 64


def test_harmonic_synthesize_validates_frame_counts():
    with pytest.raises(ValueError):
        harmonic_synthesize(constant_contour(100.0, 5, 64), constant_amps([0.1], 6), 8000)


def test_f0_above_nyquist_rejected():
    with pytest.raises(ValueError):
        harmonic_synthesize(constant_contour(5000.0, 4, 64), constant_amps([0.1], 4), 8000)


@settings(max_examples=25, deadline=None)
@given(
    f0=st.floats(min_value=80, max_value=700),
    k_max=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_harmonic_energy_scales_with_amplitude(f0, k_max, seed):
    # doubling every amplitude doubles the waveform exactly
    rng = np.random.default_rng(seed)
    frames, hop, sr = 12, 128, 22050
    contour = constant_contour(f0, frames, hop)
    amps = rng.uniform(0.0, 0.3, (frames, k_max))
    y1 = harmonic_synthesize(contour, HarmonicAmplitudes(amps), sr)
    y2 = harmonic_synthesize(contour, HarmonicAmplitudes(2 * amps), sr)
    assert np.allclose(y2.samples, 2 * y1.samples, atol=1e-12)


# ------------------------------- equivalence with the per-column bank
#
# Frozen copies of the code the phasor recurrence replaced: one np.interp and
# one sin(k*psi) per harmonic over all samples, gated per sample. The rewrite
# changes only how sin(k*psi) is formed, so the outputs agree to rounding;
# k*psi itself carries ~1e-16 relative error in the reference.


def _frozen_interp(values, hop, n):
    anchors = np.arange(values.size, dtype=np.float64) * hop + hop // 2
    return np.interp(np.arange(n, dtype=np.float64), anchors, values)


def _frozen_psi(f0_samples, sr):
    cycles = np.cumsum(f0_samples.astype(np.longdouble)) / sr
    return np.asarray(2 * np.pi * cycles, dtype=np.float64)


def _frozen_bank(f0, amplitudes, sr):
    nyquist = sr / 2.0
    n = f0.frames * f0.hop_size
    f0_samples = _frozen_interp(f0.values, f0.hop_size, n)
    psi = _frozen_psi(f0_samples, sr)
    voiced = f0_samples > 0
    out = np.zeros(n)
    for k in range(1, amplitudes.k_max + 1):
        gate = voiced & (k * f0_samples < nyquist)
        if not gate.any():
            break
        amp = _frozen_interp(amplitudes.values[:, k - 1], f0.hop_size, n)
        amp *= gate
        out += amp * np.sin(k * psi)
    return out


def _frozen_initial_phases(x, f0, k_max):
    nyquist = x.sample_rate / 2.0
    n = min(len(x), f0.frames * f0.hop_size)
    f0_samples = _frozen_interp(f0.values, f0.hop_size, n)
    rot = np.exp(-1j * _frozen_psi(f0_samples, x.sample_rate))
    phases = np.zeros(k_max)
    demod = x.samples[:n].astype(complex)
    for k in range(1, k_max + 1):
        demod *= rot
        active = (f0_samples > 0) & (k * f0_samples < nyquist)
        if not active.any():
            break
        acc = demod[active].sum()
        if acc != 0:
            phases[k - 1] = np.angle(acc) + np.pi / 2
    wrapped = np.mod(phases + np.pi, 2 * np.pi) - np.pi
    wrapped[wrapped >= np.pi] -= 2 * np.pi  # rounding can land exactly on pi
    return wrapped


def _random_features(seed, sr, hop, frames, k_max, f0_top):
    """Contour with unvoiced gaps up to f0_top, amplitudes with zero columns and rows."""
    rng = np.random.default_rng(seed)
    f0 = np.where(rng.random(frames) < 0.3, 0.0, rng.uniform(40.0, f0_top, frames))
    amps = rng.uniform(0.0, 1.0, (frames, k_max))
    amps[:, rng.random(k_max) < 0.3] = 0.0
    amps[rng.random(frames) < 0.2] = 0.0
    return F0Contour.from_values(f0, hop), HarmonicAmplitudes(amps), rng


_equivalence_cases = dict(
    sr=st.sampled_from([8000, 22050, 44100]),
    hop=st.integers(min_value=1, max_value=320),
    frames=st.integers(min_value=1, max_value=40),
    k_max=st.integers(min_value=1, max_value=24),
    top=st.floats(min_value=0.01, max_value=0.49),
    seed=st.integers(min_value=0, max_value=2**31),
)


@settings(max_examples=60, deadline=None)
@given(**_equivalence_cases)
def test_bank_matches_per_column_reference(sr, hop, frames, k_max, top, seed):
    # top sets the highest f0 as a fraction of the rate: low values keep every
    # harmonic in band, high ones gate the bank partway through
    f0, amps, _ = _random_features(seed, sr, hop, frames, k_max, top * sr)
    got = harmonic_synthesize(f0, amps, sr).samples
    assert np.abs(got - _frozen_bank(f0, amps, sr)).max() <= 1e-9


def _dense_15s():
    """Decoder-style features: 15 s at 44.1 kHz, all 100 columns live, 1/k
    roll-off, vibrato and a glide, two unvoiced gaps, float32-rounded like a bundle."""
    sr, hop, k_max = 44100, 512, 100
    frames = -(-15 * sr // hop)
    rng = np.random.default_rng(15)
    t = np.arange(frames) * hop / sr
    f0 = 165.0 * 2 ** ((2 * t / 15 + 0.3 * np.sin(2 * np.pi * 5.5 * t)) / 12)
    gaps = np.zeros(frames, dtype=bool)
    for m in (400, 900):
        gaps[m : m + 17] = True
    f0 = np.where(gaps, 0.0, f0).astype(np.float32).astype(np.float64)
    amps = 0.12 * rng.uniform(0.8, 1.2, (frames, k_max)) / np.arange(1, k_max + 1)
    amps[gaps] = 0.0
    contour = F0Contour.from_values(f0, hop)
    harmonics = HarmonicAmplitudes(amps.astype(np.float32).astype(np.float64))
    return contour, harmonics, sr


def test_bank_matches_per_column_reference_dense_15s():
    contour, harmonics, sr = _dense_15s()
    got = harmonic_synthesize(contour, harmonics, sr).samples
    assert np.abs(got - _frozen_bank(contour, harmonics, sr)).max() <= 1e-9


def test_bank_memory_stays_bounded_dense_15s():
    # The whole-length arrays (f0(n), its extended-precision running sum, the
    # output) set the peak; the bank's per-block sine matrix and sums must stay
    # well below it rather than grow with the block or the clip.
    contour, harmonics, sr = _dense_15s()
    tracemalloc.start()
    try:
        harmonic_synthesize(contour, harmonics, sr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2**20


def test_bank_matches_per_column_reference_across_block_edges():
    # Frames are laid out by block (row r of the grid reads frames r-1 and r)
    # so that each edge case of the per-block sine matrix occurs: block 0's
    # first row starts before sample 0 and the last block's tail row ends past
    # the last sample, both voiced; column 4 is zero in block 0 and live from
    # block 1 on, and column 2 is zero throughout; block 1 glides 600 -> 900 Hz,
    # so harmonic 5 crosses Nyquist inside it; block 2 turns unvoiced half-way
    # through. The live harmonics fill more than one slice of the matrix.
    rows = _BLOCK_ROWS
    sr, hop, k_max = 8000, 15, 12
    assert k_max - 2 > _SLICE_HARMONICS
    frames = 3 * rows + rows // 2
    rng = np.random.default_rng(7)
    f0 = np.full(frames, 310.0)
    f0[rows : 2 * rows] = np.linspace(600.0, 900.0, rows)
    f0[2 * rows + rows // 2 : 3 * rows] = 0.0
    amps = rng.uniform(0.1, 1.0, (frames, k_max))
    amps[:, 1] = 0.0
    amps[:rows, 3] = 0.0
    contour, harmonics = F0Contour.from_values(f0, hop), HarmonicAmplitudes(amps)

    n = frames * hop
    blocks = list(_phasor_blocks(contour, sr, n, k_max))
    # row r starts on the anchor of frame r - 1 and ends on that of frame r
    assert frame_anchor(blocks[0].rows.start - 1, hop) < 0
    assert frame_anchor(blocks[-1].rows.stop - 1, hop) > n
    assert blocks[1].k_free < 5 <= blocks[1].k_live
    assert 0 < np.count_nonzero(blocks[2].f0) < blocks[2].f0.size
    got = harmonic_synthesize(contour, harmonics, sr).samples
    assert np.abs(got - _frozen_bank(contour, harmonics, sr)).max() <= 1e-9


@pytest.mark.parametrize("sr", [8000, 22050, 44100])
def test_harmonic_walk_silences_unvoiced_and_nyquist_pairs(sr):
    # block 0 holds a low pitch; block 1 glides to 0.2 * sr, so harmonics 3 and
    # up cross Nyquist inside it; block 2 has an unvoiced run in its middle. The
    # contour is voiced at both ends, so the grid samples before sample 0 and
    # from sample n on are silent because they lie outside the signal, whether
    # n is the contour's length or, as in estimate_initial_phases of a shorter
    # signal, less.
    rows, hop, k_max = _BLOCK_ROWS, 16, 12
    f0 = np.full(3 * rows, 0.02 * sr)
    f0[rows : 2 * rows] = np.linspace(0.03 * sr, 0.2 * sr, rows)
    f0[2 * rows + rows // 4 : 2 * rows + 3 * rows // 4] = 0.0
    lead = -frame_anchor(-1, hop)
    ks = np.array([1, 2, 3, 5, 6, 9, 12])  # sparse, so the walk steps over harmonics
    for n in (f0.size * hop, f0.size * hop - 3 * hop - 5):
        f0_samples = _frozen_interp(f0, hop, n)
        psi = _frozen_psi(f0_samples, sr)
        seen_free = seen_gated = False
        seen_outside = set()
        for b in _phasor_blocks(F0Contour.from_values(f0, hop), sr, n, k_max):
            sample = np.arange(b.rows.start * hop, b.rows.stop * hop) - lead
            inside = (sample >= 0) & (sample < n)
            f, phase = np.zeros(sample.size), np.zeros(sample.size)
            f[inside], phase[inside] = f0_samples[sample[inside]], psi[sample[inside]]
            for k, got in zip(ks, b.harmonics(ks)):
                live = inside & (f > 0) & (k * f < sr / 2)
                want = np.exp(1j * k * phase)
                assert np.abs(got[live] - want[live]).max(initial=0.0) <= 1e-9
                assert not got[~live].any()
                seen_free |= k <= b.k_free and not live.all()
                seen_gated |= k > b.k_free and live.any() and not live[f > 0].all()
            seen_outside.update(np.sign(sample[~inside]))
        assert seen_free and seen_gated and seen_outside == {-1, 1}


@settings(max_examples=60, deadline=None)
@given(extra=st.integers(min_value=-319, max_value=320), **_equivalence_cases)
def test_initial_phases_match_per_column_reference(sr, hop, frames, k_max, top, seed, extra):
    f0, _, rng = _random_features(seed, sr, hop, frames, k_max, top * sr)
    # the signal may end before or after the contour's last frame
    n = max(1, frames * hop + max(extra, 1 - hop))
    x = Waveform(np.sin(np.arange(n) * rng.uniform(0.01, 1.0)) + rng.standard_normal(n), sr)
    got = estimate_initial_phases(x, f0, k_max)
    assert got.dtype == np.float64 and ((-np.pi <= got) & (got < np.pi)).all()
    wrapped = np.angle(np.exp(1j * (got - _frozen_initial_phases(x, f0, k_max))))
    assert np.abs(wrapped).max() <= 1e-9


# ------------------------------------------------------- noise branch

def test_noise_is_deterministic_given_seed():
    cfg = SpectralConfig(fft_size=512, hop_size=128, win_size=512)
    mags = NoiseMagnitudeSpectrum(np.full((30, cfg.n_bins), 0.01))
    a = noise_synthesize(mags, cfg, seed=9, sample_rate=22050)
    b = noise_synthesize(mags, cfg, seed=9, sample_rate=22050)
    c = noise_synthesize(mags, cfg, seed=10, sample_rate=22050)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_noise_zero_magnitudes_give_silence():
    cfg = SpectralConfig(fft_size=512, hop_size=128, win_size=512)
    mags = NoiseMagnitudeSpectrum(np.zeros((20, cfg.n_bins)))
    y = noise_synthesize(mags, cfg, seed=0, sample_rate=22050)
    assert np.abs(y.samples).max() == 0.0
    assert len(y) == 20 * cfg.hop_size


def test_noise_energy_tracks_magnitude_level():
    # doubling the magnitudes doubles the RMS of the rendered noise
    cfg = SpectralConfig(fft_size=512, hop_size=128, win_size=512)
    base = np.full((80, cfg.n_bins), 0.02)
    y1 = noise_synthesize(NoiseMagnitudeSpectrum(base), cfg, seed=3, sample_rate=22050)
    y2 = noise_synthesize(NoiseMagnitudeSpectrum(2 * base), cfg, seed=3, sample_rate=22050)
    rms1 = np.sqrt(np.mean(y1.samples**2))
    rms2 = np.sqrt(np.mean(y2.samples**2))
    assert rms2 == pytest.approx(2 * rms1, rel=1e-9)


def test_noise_from_flat_magnitudes_is_white_and_stationary():
    # a flat magnitude request must come back spectrally flat (no bin favored)
    # and statistically steady over time; the absolute level shifts by a
    # window-dependent factor because overlapped random-phase frames add
    # incoherently, so only relative structure is asserted
    cfg = SpectralConfig(fft_size=512, hop_size=128, win_size=512)
    mags = NoiseMagnitudeSpectrum(np.full((200, cfg.n_bins), 0.05))
    y = noise_synthesize(mags, cfg, seed=1, sample_rate=22050)
    interior = np.abs(stft(y, cfg))[20:-20]
    per_bin = interior.mean(axis=0)[1:-1]
    assert per_bin.std() / per_bin.mean() < 0.1
    half = len(y) // 2
    rms_a = np.sqrt(np.mean(y.samples[:half] ** 2))
    rms_b = np.sqrt(np.mean(y.samples[half:] ** 2))
    assert rms_a == pytest.approx(rms_b, rel=0.1)


def test_noise_rms_matches_overlap_add_prediction():
    # flat request: under uniform random phase each irfft sample has variance
    # (level^2/fft^2) * (1/2 + 2*(bins-2) + 1/2), frames are windowed and
    # divided by the window-energy profile D(n) = sum_m w^2(n - m*hop), and
    # independent frames add in power, so var_y(n) = var_frame / D(n)
    cfg = SpectralConfig(fft_size=512, hop_size=128, win_size=512)
    frames, level = 150, 0.05
    mags = NoiseMagnitudeSpectrum(np.full((frames, cfg.n_bins), level))
    y = noise_synthesize(mags, cfg, seed=4, sample_rate=22050)

    var_frame = (level**2 / cfg.fft_size**2) * (0.5 + 2 * (cfg.n_bins - 2) + 0.5)
    total = (frames - 1) * cfg.hop_size + cfg.fft_size
    w2 = cfg.window_array() ** 2
    d = np.zeros(total)
    for m in range(frames):
        d[m * cfg.hop_size : m * cfg.hop_size + cfg.fft_size] += w2
    d = d[cfg.pad_left : cfg.pad_left + len(y)]
    predicted = np.sqrt(np.mean(var_frame / np.maximum(d, 1e-12)))
    measured = np.sqrt(np.mean(y.samples**2))
    assert measured == pytest.approx(predicted, rel=0.1)


def test_noise_bin_count_must_match_config():
    cfg = SpectralConfig(fft_size=512, hop_size=128, win_size=512)
    with pytest.raises(ValueError):
        noise_synthesize(NoiseMagnitudeSpectrum(np.zeros((4, 100))), cfg, 0, 22050)

