"""Analysis front-end: F0 tracking, harmonic and noise estimation, round trips."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from hnsynth import analysis
from hnsynth.analysis import (
    AnalysisConfig,
    _harmonics_from_magnitude,
    _nccf,
    _peak_pairs,
    _phase_refine,
    _pick_peaks,
    _smooth_voiced,
    analyze,
    estimate_f0,
    estimate_harmonics,
    estimate_initial_phases,
    estimate_noise,
)
from hnsynth.spectral import (
    FRAME_BLOCK,
    MelConfig,
    SpectralConfig,
    frame_anchor,
    frame_count,
    mel_spectrogram,
    stft,
)
from hnsynth.synth import cumulative_phase, harmonic_synthesize
from hnsynth.types import F0Contour, HarmonicAmplitudes, Waveform

from conftest import constant_amps, constant_contour, harmonic_tone, sine

SR = 22050
SPECTRAL = SpectralConfig()  # 2048/512
ANA = AnalysisConfig(hop_size=SPECTRAL.hop_size)
ANA_REFINED = AnalysisConfig(hop_size=SPECTRAL.hop_size, refine_iters=2)


def rel_err(est, true):
    return abs(est - true) / true


# ---------------------------------------------------------------- F0

def test_f0_pure_sine_within_one_hz():
    f0 = estimate_f0(sine(220.0, SR, 1.0), ANA)
    assert f0.voiced.all()
    assert np.abs(f0.values - 220.0).max() < 1.0


def test_f0_silence_all_unvoiced():
    f0 = estimate_f0(Waveform(np.zeros(SR), SR), ANA)
    assert not f0.voiced.any()
    assert (f0.values == 0).all()


def test_f0_two_plateaus_short_transition():
    x = np.concatenate([sine(220.0, SR, 0.5).samples, sine(330.0, SR, 0.5).samples])
    f0 = estimate_f0(Waveform(x, SR), ANA)
    near_220 = np.abs(f0.values - 220.0) < 2.0
    near_330 = np.abs(f0.values - 330.0) < 2.0
    off_plateau = f0.frames - int(near_220.sum()) - int(near_330.sum())
    # ~22 frames per half-second plateau at this hop
    assert near_220.sum() >= 15 and near_330.sum() >= 15
    assert off_plateau < 5


def test_f0_hop_matches_config():
    f0 = estimate_f0(sine(220.0, SR, 0.5), ANA)
    assert f0.hop_size == ANA.hop_size
    assert f0.frames == int(np.ceil(0.5 * SR / ANA.hop_size))


def test_f0_too_short_input_rejected():
    with pytest.raises(ValueError):
        estimate_f0(Waveform(np.zeros(ANA.hop_size), SR), ANA)


def test_f0_values_confined_to_search_range():
    rng = np.random.default_rng(11)
    x = Waveform(rng.standard_normal(SR), SR)
    f0 = estimate_f0(x, ANA)
    voiced = f0.values[f0.voiced]
    if voiced.size:
        assert voiced.min() >= ANA.f0_min
        assert voiced.max() <= ANA.f0_max


def test_f0_shift_invariance_on_sustained_tone():
    # shifting by a fraction of a hop must not move frame estimates by 1 Hz
    x = sine(220.0, SR, 1.0)
    shifted = Waveform(np.roll(x.samples, 17), SR)
    a = estimate_f0(x, ANA)
    b = estimate_f0(shifted, ANA)
    assert np.abs(a.values - b.values).max() < 1.0


def test_f0_noisy_sines_mostly_within_two_hz():
    rng = np.random.default_rng(99)
    for freq in (220.0, 550.0):
        clean = sine(freq, SR, 1.0).samples
        noisy = clean + 0.1 * rng.standard_normal(clean.size)  # -20 dB noise
        f0 = estimate_f0(Waveform(noisy, SR), ANA)
        good = np.abs(f0.values[f0.voiced] - freq) < 2.0
        assert f0.voiced.mean() > 0.9
        assert good.mean() >= 0.95


# Frozen copy of the per-frame tracker that the array-at-a-time tracker
# replaced: one peak choice, polyfit lobe fit, smoothing window and
# demodulation per frame, over the same NCCF.
def _frozen_lobe_vertex(seg, i):
    cut = 0.9 * seg[i]
    lo = i
    while lo > 0 and seg[lo - 1] >= cut:
        lo -= 1
    hi = i
    while hi < len(seg) - 1 and seg[hi + 1] >= cut:
        hi += 1
    lo = min(lo, i - 1)
    hi = max(hi, i + 1)
    if lo < 0 or hi > len(seg) - 1:
        return float(i)
    u = np.arange(lo, hi + 1, dtype=float) - i
    a, b, _ = np.polyfit(u, seg[lo : hi + 1], 2)
    if a >= -1e-12:
        return float(i)
    vertex = -b / (2.0 * a)
    return i + float(np.clip(vertex, u[0], u[-1]))


def _frozen_pick_peak(r, min_lag, threshold):
    seg = r[min_lag:]
    if len(seg) < 3:
        return math.nan, 0.0
    best_idx = int(np.argmax(seg))
    best = float(seg[best_idx])
    if best < threshold:
        return math.nan, best
    lag0 = min_lag + best_idx
    chosen = best_idx
    for div in range(int(lag0 // min_lag), 1, -1):
        approx = lag0 / div - min_lag
        lo = max(0, int(round(approx)) - 2)
        hi = min(len(seg), int(round(approx)) + 3)
        if hi <= lo:
            continue
        local = lo + int(np.argmax(seg[lo:hi]))
        if seg[local] >= 0.9 * best:
            chosen = local
            break
    i = int(np.clip(chosen, 1, len(seg) - 2))
    return min_lag + _frozen_lobe_vertex(seg, i), float(seg[i])


def _frozen_smooth_voiced(values, voiced, width, reducer):
    half = width // 2
    out = values.copy()
    idx = np.flatnonzero(voiced)
    for i in idx:
        lo, hi = max(0, i - half), min(len(values), i + half + 1)
        neighborhood = values[lo:hi][voiced[lo:hi]]
        out[i] = reducer(neighborhood)
    return out


def _frozen_phase_refine(x, values, voiced, sr, hop):
    values = values.copy()
    half = 2 * hop
    taper = np.hanning(half + 1)[:-1]
    for m in np.flatnonzero(voiced):
        center = frame_anchor(m, hop)
        lo, hi = center - half, center + half
        if lo < 0 or hi > len(x):
            continue
        f_hat = values[m]
        t = np.arange(lo, hi) / sr
        demod = x[lo:hi] * np.exp(-2j * np.pi * f_hat * t)
        c1 = (taper * demod[:half]).sum()
        c2 = (taper * demod[half:]).sum()
        if min(abs(c1), abs(c2)) < 1e-12:
            continue
        step = float(np.angle(c2 * np.conj(c1)))
        correction = step * sr / (2 * np.pi * half)
        values[m] = f_hat + float(np.clip(correction, -3.0, 3.0))
    return values


def _frozen_estimate_f0(x, cfg):
    sr = x.sample_rate
    hop = cfg.hop_size
    n_frames = frame_count(len(x), hop)
    max_lag = int(math.ceil(sr / cfg.f0_min))
    min_lag = max(2, int(math.floor(sr / cfg.f0_max)))
    wlen = 2 * max_lag
    nccf, base_energy = _frozen_nccf_frames(x.samples, hop, wlen, max_lag)

    energy_floor = wlen * cfg.silence_rms**2
    values = np.zeros(n_frames)
    voiced = np.zeros(n_frames, dtype=bool)
    for m in range(n_frames):
        if base_energy[m] < energy_floor:
            continue
        lag, clarity = _frozen_pick_peak(nccf[m], min_lag, cfg.voicing_threshold)
        if math.isnan(lag) or clarity < cfg.voicing_threshold:
            continue
        f = sr / lag
        if not (cfg.f0_min <= f <= cfg.f0_max):
            f = float(np.clip(f, cfg.f0_min, cfg.f0_max))
        values[m] = f
        voiced[m] = True

    values = _frozen_smooth_voiced(values, voiced, cfg.median_width, np.median)
    values = _frozen_smooth_voiced(values, voiced, cfg.median_width, np.mean)
    values = _frozen_phase_refine(x.samples, values, voiced, sr, hop)
    values[~voiced] = 0.0
    return values


# Largest |f0| difference allowed against the per-frame tracker: the lobe fit,
# the smoothing mean and the demodulation sum in another order.
F0_TOL_HZ = 1e-9


def _assert_tracks_like_frozen(x, cfg):
    got = estimate_f0(x, cfg)
    expected = _frozen_estimate_f0(x, cfg)
    assert np.array_equal(got.voiced, expected > 0)
    assert np.abs(got.values - expected).max(initial=0.0) <= F0_TOL_HZ


def _tracker_signal(rng, sr, seconds):
    """A harmonic tone with vibrato and an octave jump, a silent gap, and noise."""
    n = int(seconds * sr)
    t = np.arange(n) / sr
    f0 = rng.uniform(75.0, 380.0) * (1.0 + rng.uniform(0.0, 0.03) * np.sin(2 * np.pi * rng.uniform(3.0, 7.0) * t))
    f0[rng.integers(0, n) :] *= rng.choice([0.5, 1.0, 2.0])
    psi = 2 * np.pi * np.cumsum(f0) / sr
    k_top = rng.integers(1, 6)
    x = sum(np.sin(k * psi + rng.uniform(0, 2 * np.pi)) / k for k in range(1, k_top + 1) if k * f0.max() < sr / 2)
    gap = rng.integers(0, n)
    x[gap : gap + rng.integers(0, n // 3)] = 0.0
    noise = rng.uniform(0.0, 0.5) * rng.standard_normal(n)
    noise[: rng.integers(0, n // 4)] *= 4.0  # a noise-only stretch loud enough to stay unvoiced
    return Waveform(rng.uniform(0.05, 0.9) * x + noise, sr)


@settings(max_examples=25, deadline=None)
@given(
    sr=st.sampled_from([8000, 22050, 44100, 48000]),
    hop=st.integers(min_value=40, max_value=700),
    median_width=st.sampled_from([1, 3, 5, 7, 9]),
    threshold=st.floats(min_value=0.2, max_value=0.7),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_tracker_matches_per_frame_tracker(sr, hop, median_width, threshold, seed):
    # odd and even hops alike; 0.35 s keeps the frozen per-frame copy quick
    rng = np.random.default_rng(seed)
    cfg = AnalysisConfig(hop_size=hop, median_width=median_width, voicing_threshold=threshold)
    _assert_tracks_like_frozen(_tracker_signal(rng, sr, 0.35), cfg)


def test_tracker_with_fewer_than_three_lags_is_unvoiced():
    # f0 399-400 Hz at 8 kHz leaves lags 20 and 21 only
    cfg = AnalysisConfig(f0_min=399.0, f0_max=400.0, hop_size=128)
    x = sine(400.0, 8000, 0.3)
    assert not estimate_f0(x, cfg).voiced.any()
    _assert_tracks_like_frozen(x, cfg)


def _frozen_nccf_frames(x, hop, wlen, max_lag):
    # the arithmetic of the version that kept every temporary alive
    span = wlen + max_lag
    segs = _whole_frame_view(x, hop, span // 2, span)
    n_fft = 1 << (span - 1).bit_length()
    spec_base = np.fft.rfft(segs[:, :wlen], n=n_fft, axis=1)
    spec_seg = np.fft.rfft(segs, n=n_fft, axis=1)
    corr = np.fft.irfft(np.conj(spec_base) * spec_seg, n=n_fft, axis=1)[:, : max_lag + 1]
    sq = np.concatenate([np.zeros((len(segs), 1)), np.cumsum(segs * segs, axis=1)], axis=1)
    lag_energy = sq[:, wlen : wlen + max_lag + 1] - sq[:, : max_lag + 1]
    denom = np.sqrt(np.maximum(lag_energy[:, :1] * lag_energy, 1e-12))
    return corr / denom, lag_energy[:, 0]


@pytest.mark.parametrize("sr, hop", [(8000, 512), (22050, 256), (44100, 300)])
def test_nccf_matches_frozen_nccf_and_owns_its_energy(sr, hop):
    # the NCCF and the frame energies of every row are bit for bit those of the
    # frozen whole-clip copy; the energy must own its data, not keep a
    # (frames, max_lag + 1) matrix alive through the tracker
    rng = np.random.default_rng(sr)
    x = harmonic_tone(180.0, sr, 0.7, [0.5, 0.3, 0.1]).samples
    x = x + 0.05 * rng.standard_normal(x.size)
    max_lag = math.ceil(sr / 70.0)
    nccf, energy = _nccf(_whole_frame_view(x, hop, 3 * max_lag // 2, 3 * max_lag), 2 * max_lag, max_lag, 0.0)
    expected_nccf, expected_energy = _frozen_nccf_frames(x, hop, 2 * max_lag, max_lag)
    assert energy.flags.owndata
    assert nccf.tobytes() == expected_nccf.tobytes()
    assert energy.tobytes() == expected_energy.tobytes()


def test_tracker_matches_per_frame_tracker_at_the_edges():
    # a tone voiced to both ends, so frames within 2*hop of either end keep
    # the lag-domain estimate while the rest are refined
    x = harmonic_tone(211.0, SR, 0.4, [0.5, 0.3, 0.1])
    f0 = estimate_f0(x, ANA)
    assert f0.voiced[[0, 1, -2, -1]].all()
    _assert_tracks_like_frozen(x, ANA)


def _rows_with_bumps(width, bumps):
    """A correlation row of width lags with a parabolic bump (index, height, halfwidth) each."""
    u = np.arange(width)[:, None]
    at, height, hw = (np.asarray(b, dtype=float) for b in zip(*bumps))
    return np.clip(height * (1 - ((u - at) / hw) ** 2), -0.2, None).max(axis=1)


@pytest.mark.parametrize(
    "min_lag, seg",
    [
        # the peak on the first admissible lag is clipped to index 1
        pytest.param(20, np.linspace(0.95, 0.1, 40), id="peak-on-first-lag"),
        # lag0 = 24 + 25 = 49: its half sits at index 0.5, so that window is
        # clipped at 0, and the near-best peak found there is clipped to 1
        pytest.param(24, _rows_with_bumps(40, [(25, 0.9, 3.0), (0.3, 0.85, 2.5)]), id="window-clipped-at-start"),
        # lag0 = 90 has near-best peaks at its half and its third: the largest divisor wins
        pytest.param(
            20, _rows_with_bumps(100, [(70, 0.9, 4.0), (25, 0.86, 4.0), (10, 0.85, 4.0)]), id="largest-divisor-wins"
        ),
        # a flat lobe around a clipped peak does not curve down and keeps its integer lag
        pytest.param(20, np.r_[0.95, 0.95, 0.95, 0.95, 0.3, 0.1], id="flat-lobe"),
        # nor does a lobe that curves up
        pytest.param(20, np.r_[1.0, 0.92, 0.95, 0.4, 0.1], id="upward-lobe"),
        # a broad lobe above 90% is fitted over every lag of the run
        pytest.param(20, 0.8 + 0.15 * np.cos(np.linspace(-1.2, 2.0, 50)), id="broad-lobe"),
        pytest.param(20, np.full(6, 0.2), id="below-threshold"),
    ],
)
def test_peak_choice_matches_per_frame_peak_choice(min_lag, seg):
    lag = _pick_peaks(seg[None, :], min_lag, 0.3)[0]
    expected, clarity = _frozen_pick_peak(np.concatenate([np.zeros(min_lag), seg]), min_lag, 0.3)
    if math.isnan(expected) or clarity < 0.3:
        assert math.isnan(lag)
    else:
        assert abs(lag - expected) <= 1e-12 * expected


def test_peak_choice_of_a_batch_is_each_rows_own_bit_for_bit():
    # broad lobes (a sine in noise) next to narrow ones (a rich tone): the
    # zeros the widest lobe sets after every narrower one must not reach its bits
    sr, hop = 44100, 512
    max_lag, min_lag = math.ceil(sr / 70.0), sr // 800
    broad = sine(100.0, sr, 1.0).samples + 0.3 * np.random.default_rng(0).standard_normal(sr)
    narrow = harmonic_tone(180.0, sr, 1.0, [0.5 / k for k in range(1, 9)]).samples
    seg = np.concatenate(
        [_frozen_nccf_frames(x, hop, 2 * max_lag, max_lag)[0][20:40, min_lag:] for x in (broad, narrow)]
    )
    alone = np.concatenate([_pick_peaks(row[None, :], min_lag, 0.3) for row in seg])
    assert not np.isnan(alone).any()
    assert _pick_peaks(seg, min_lag, 0.3).tobytes() == alone.tobytes()


def test_tracker_output_does_not_depend_on_the_block_size(monkeypatch):
    # digital silence at the start and across the block edges at frames 64 and 128
    samples = _block_clip(200, 7).samples.copy()
    for first, stop in [(0, 5), (58, 70), (120, 140)]:
        samples[first * BLOCK_ANA.hop_size : stop * BLOCK_ANA.hop_size] = 0.0
    x = Waveform(samples, BLOCK_SR)
    tracks = []
    for block in (1, 7, 64, 10**6):
        monkeypatch.setattr(analysis, "FRAME_BLOCK", block)
        tracks.append(estimate_f0(x, BLOCK_ANA).values)
    assert all(t.tobytes() == tracks[0].tobytes() for t in tracks)
    assert (tracks[0] > 0).sum() > 100 and (tracks[0][60:68] == 0).all()


def test_tracker_takes_no_fft_for_a_block_below_the_silence_floor(monkeypatch):
    # frames 56..135 are silent, so every base segment of the block of frames
    # 64..127 is too; the blocks either side are loud and take two FFTs each
    calls = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda *a, **k: calls.append(1) or rfft(*a, **k))
    x = _block_clip(3 * FRAME_BLOCK, 3, silent_frames=80)
    assert estimate_f0(x, BLOCK_ANA).voiced[: FRAME_BLOCK // 2].any()
    assert len(calls) == 4
    calls.clear()
    assert not estimate_f0(Waveform(np.zeros(x.samples.size), BLOCK_SR), BLOCK_ANA).voiced.any()
    assert not calls


def test_phase_refinement_skips_demodulation_sums_below_tiny():
    # the tone is scaled to ~1e-16 over the first 0.3 s, so frames whose
    # first half lies there sum below 1e-12 and keep their coarse value,
    # while frames straddling the step, and after it, are corrected
    sr, hop = 16000, 64
    x = sine(200.0, sr, 0.6).samples.copy()
    x[: int(0.3 * sr)] *= 1e-16
    n_frames = frame_count(x.size, hop)
    voiced = np.ones(n_frames, dtype=bool)
    coarse = np.full(n_frames, 201.0)
    got = _phase_refine(x, coarse, voiced, sr, hop)
    expected = _frozen_phase_refine(x, coarse, voiced, sr, hop)
    assert np.abs(got - expected).max() <= F0_TOL_HZ
    kept = got == 201.0
    assert kept[10:50].all() and not kept[90:140].any()


# ------------------------------------------------------- harmonics

def test_harmonics_single_sine_recovered():
    frames = 40
    contour = constant_contour(220.0, frames, SPECTRAL.hop_size)
    x = harmonic_synthesize(contour, constant_amps([0.5], frames), SR)
    est = estimate_harmonics(x, contour, AnalysisConfig(hop_size=512, k_max=10), SPECTRAL)
    voiced_rows = est.values
    assert rel_err(np.median(voiced_rows[:, 0]), 0.5) < 0.05
    assert voiced_rows[:, 1:].max() < 0.02


def test_harmonics_silence_forced_voiced_is_zero():
    frames = 30
    contour = constant_contour(220.0, frames, SPECTRAL.hop_size)
    x = Waveform(np.zeros(frames * SPECTRAL.hop_size), SR)
    est = estimate_harmonics(x, contour, AnalysisConfig(hop_size=512, k_max=8), SPECTRAL)
    assert est.values.max() < 1e-3


def test_harmonics_two_component_tone_recovered():
    frames = 40
    contour = constant_contour(220.0, frames, SPECTRAL.hop_size)
    x = harmonic_synthesize(contour, constant_amps([0.5, 0.25], frames), SR)
    est = estimate_harmonics(x, contour, AnalysisConfig(hop_size=512, k_max=6), SPECTRAL)
    assert rel_err(np.median(est.values[:, 0]), 0.5) < 0.05
    assert rel_err(np.median(est.values[:, 1]), 0.25) < 0.05


def test_harmonics_zero_for_unvoiced_frames_and_nonnegative():
    values = np.concatenate([np.full(20, 220.0), np.zeros(15), np.full(20, 220.0)])
    contour = F0Contour.from_values(values, SPECTRAL.hop_size)
    amps = constant_amps([0.4, 0.2], 55)
    x = harmonic_synthesize(contour, amps, SR)
    est = estimate_harmonics(x, contour, AnalysisConfig(hop_size=512, k_max=6), SPECTRAL)
    assert (est.values >= 0).all()
    assert np.abs(est.values[~contour.voiced]).max() == 0.0


def test_harmonics_above_nyquist_left_at_zero():
    frames = 30
    contour = constant_contour(4000.0, frames, SPECTRAL.hop_size)
    x = harmonic_synthesize(contour, constant_amps([0.5, 0.3], frames), SR)
    est = estimate_harmonics(x, contour, AnalysisConfig(hop_size=512, k_max=5), SPECTRAL)
    # k >= 3 sits above the 11.025 kHz Nyquist: never measured
    assert est.values[:, 3:].max() == 0.0


def test_harmonics_hop_mismatch_rejected():
    contour = constant_contour(220.0, 10, 256)
    x = Waveform(np.zeros(10 * 256), SR)
    with pytest.raises(ValueError):
        estimate_harmonics(x, contour, AnalysisConfig(hop_size=256), SPECTRAL)


def test_refinement_tightens_wobbled_tone():
    x = harmonic_tone(220.0, SR, 2.0, [0.5, 0.3, 0.2, 0.1], wobble=0.25)
    f0 = estimate_f0(x, ANA)
    raw = estimate_harmonics(x, f0, AnalysisConfig(hop_size=SPECTRAL.hop_size, refine_iters=0), SPECTRAL)
    ref = estimate_harmonics(x, f0, ANA_REFINED, SPECTRAL)

    def round_trip_mel(H):
        y = harmonic_synthesize(f0, H, SR)
        y = Waveform(y.samples[: len(x)], SR)
        cfg = MelConfig(spectral=SPECTRAL)
        return np.abs(mel_spectrogram(y, cfg) - mel_spectrogram(x, cfg)).mean()

    assert round_trip_mel(ref) <= round_trip_mel(raw) + 1e-6


# ------------------------------------------------------------ phases

def test_initial_phase_recovery_on_clean_tone():
    frames, hop = 50, SPECTRAL.hop_size
    contour = constant_contour(220.0, frames, hop)
    true_phases = np.array([0.5, -1.2, 2.0])
    psi = cumulative_phase(np.full(frames * hop, 220.0), SR)
    k = np.arange(1, 4)[:, None]
    x = Waveform(np.array([0.5, 0.3, 0.2]) @ np.sin(k * psi + true_phases[:, None]), SR)
    est = estimate_initial_phases(x, contour, 3)
    err = np.angle(np.exp(1j * (est - true_phases)))
    assert np.abs(err).max() < 0.05


# ------------------------------------------------------------- noise

def test_noise_exact_harmonic_leaves_nothing():
    frames = 40
    contour = constant_contour(220.0, frames, SPECTRAL.hop_size)
    x = harmonic_synthesize(contour, constant_amps([0.5, 0.25], frames), SR)
    n = estimate_noise(x, x, SPECTRAL)
    assert n.values.max() < 1e-6


def test_noise_zero_harmonic_returns_signal_spectrum(rng):
    x = Waveform(rng.standard_normal(8192) * 0.1, SR)
    silent = Waveform(np.zeros(8192), SR)
    n = estimate_noise(x, silent, SPECTRAL)
    assert np.array_equal(n.values, np.abs(stft(x, SPECTRAL)))


def test_noise_of_an_amplitude_error_is_that_error(rng):
    # a render 1% short of x leaves 1% of |X|, where a power difference leaves
    # sqrt(1 - 0.99^2), about 14%
    x = Waveform(rng.standard_normal(8192) * 0.1, SR)
    n = estimate_noise(x, Waveform(0.99 * x.samples, SR), SPECTRAL)
    np.testing.assert_allclose(n.values, 0.01 * np.abs(stft(x, SPECTRAL)), rtol=0, atol=1e-12)


def _noisy_tone_analysis():
    """A 220 Hz sine in white noise, its noise alone, and the contour and amplitudes of x."""
    rng = np.random.default_rng(2024)
    clean = 0.3 * sine(220.0, SR, 2.0).samples
    noise = 0.15 * rng.standard_normal(clean.size)
    x = Waveform(clean + noise, SR)
    f0 = estimate_f0(x, ANA_REFINED)
    return x, noise, f0, estimate_harmonics(x, f0, ANA_REFINED, SPECTRAL)


def _noise_energy_ratio(x, noise, rendered):
    est = estimate_noise(x, Waveform(rendered.samples[: len(x)], SR), SPECTRAL)
    true_energy = (np.abs(stft(Waveform(noise, SR), SPECTRAL)) ** 2).sum()
    return (est.values**2).sum() / true_energy


def test_noise_mixture_energy_within_20_percent():
    x, noise, f0, harm = _noisy_tone_analysis()
    assert 0.8 < _noise_energy_ratio(x, noise, harmonic_synthesize(f0, harm, SR)) < 1.2


def test_noise_energy_holds_when_the_harmonic_render_misses_x_phases():
    # The estimate subtracts magnitudes, so a render in antiphase with x's
    # harmonic part, or at unrelated phases, leaves the same noise as an aligned one.
    x, noise, f0, harm = _noisy_tone_analysis()
    rendered = harmonic_synthesize(f0, harm, SR).samples
    antiphase = -rendered
    # 0.37 of a 220 Hz period late: harmonic k lags by 0.37 * 2*pi*k
    delay = round(0.37 * SR / 220.0)
    unrelated = np.concatenate([np.zeros(delay), rendered[:-delay]])
    for y in (antiphase, unrelated):
        assert 0.8 < _noise_energy_ratio(x, noise, Waveform(y, SR)) < 1.2


def test_noise_length_mismatch_rejected(rng):
    x = Waveform(rng.standard_normal(4096), SR)
    with pytest.raises(ValueError):
        estimate_noise(x, Waveform(np.zeros(4000), SR), SPECTRAL)


# ----------------------------------------------------------- analyze

def test_analyze_round_trip_mel_bound():
    x = harmonic_tone(220.0, SR, 2.0, [0.5, 0.3, 0.2, 0.1], wobble=0.2)
    f0, harm, noise = analyze(x, ANA_REFINED, SPECTRAL)
    y = harmonic_synthesize(f0, harm, SR)
    y = Waveform(y.samples[: len(x)], SR)
    cfg = MelConfig(spectral=SPECTRAL)
    l1 = np.abs(mel_spectrogram(y, cfg) - mel_spectrogram(x, cfg)).mean()
    assert l1 < 0.05


# Frozen copy of the per-frame peak reader that the pair-wise reader replaced:
# one search per voiced frame, with the bins, Nyquist mask and gains rebuilt
# on every read.
def _frozen_peak_measure(db, bins, halfwidth):
    n_bins = db.shape[0]
    offs = np.arange(-halfwidth, halfwidth + 1)
    window = np.clip(bins[:, None] + offs[None, :], 1, n_bins - 2)
    local = db[window]
    peak = window[np.arange(len(bins)), np.argmax(local, axis=1)]
    alpha, beta, gamma = db[peak - 1], db[peak], db[peak + 1]
    denom = alpha - 2 * beta + gamma
    delta = np.where(denom < -1e-12, 0.5 * (alpha - gamma) / np.where(denom < -1e-12, denom, -1.0), 0.0)
    delta = np.clip(delta, -0.5, 0.5)
    peak_db = beta - 0.25 * (alpha - gamma) * delta
    return 10.0 ** (peak_db / 20.0)


def _frozen_frame_gains(spectral, n_frames, n_samples):
    w = spectral.window_array()
    csum = np.concatenate([[0.0], np.cumsum(w)])
    starts = np.arange(n_frames) * spectral.hop_size - spectral.pad_left
    lo = np.clip(-starts, 0, spectral.fft_size)
    hi = np.clip(n_samples - starts, 0, spectral.fft_size)
    return np.maximum(csum[hi] - csum[lo], 1e-12) / 2.0


def _frozen_harmonics_from_magnitude(mag, f0, cfg, spectral, sample_rate, n_samples):
    nyquist = sample_rate / 2.0
    bin_hz = sample_rate / spectral.fft_size
    gains = _frozen_frame_gains(spectral, mag.shape[0], n_samples)
    db = 20.0 * np.log10(mag + 1e-12)
    values = np.zeros((f0.frames, cfg.k_max))
    ks = np.arange(1, cfg.k_max + 1)
    for m in np.flatnonzero(f0.voiced):
        freqs = ks * f0.values[m]
        keep = freqs < nyquist
        if not keep.any():
            continue
        bins = np.rint(freqs[keep] / bin_hz).astype(int)
        values[m, keep] = _frozen_peak_measure(db[m], bins, cfg.peak_halfwidth_bins) / gains[m]
    return values


@settings(max_examples=80, deadline=None)
@given(
    sr=st.sampled_from([8000, 22050, 44100]),
    fft_size=st.sampled_from([64, 256, 1024]),
    hop_frac=st.floats(min_value=0.0, max_value=1.0),
    frames=st.integers(min_value=1, max_value=2 * FRAME_BLOCK + 1),
    short=st.integers(min_value=0, max_value=10_000),
    k_max=st.integers(min_value=1, max_value=100),
    halfwidth=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_peak_reader_matches_per_frame_reader(sr, fft_size, hop_frac, frames, short, k_max, halfwidth, seed):
    # hops are odd and even alike; the contour mixes unvoiced runs, low pitches
    # that keep every harmonic, pitches near Nyquist that keep only some, and
    # pitches whose harmonic k lands on Nyquist itself; the frames fill up to
    # three of the reader's blocks
    hop = max(1, round(hop_frac * fft_size))
    spectral = SpectralConfig(fft_size=fft_size, hop_size=hop, win_size=fft_size)
    cfg = AnalysisConfig(hop_size=hop, k_max=k_max, peak_halfwidth_bins=halfwidth)
    rng = np.random.default_rng(seed)
    low = rng.uniform(20.0, sr / 200, frames)
    high = rng.uniform(0.0, 0.5, frames) * sr
    on_nyquist = sr / 2 / rng.integers(1, 101, frames)
    f0 = np.choose(rng.integers(0, 3, frames), [low, high, on_nyquist])
    for _ in range(rng.integers(0, 3, endpoint=True)):
        start = rng.integers(0, frames)
        f0[start : start + rng.integers(1, 8)] = 0.0
    contour = F0Contour.from_values(f0, hop)
    mag = rng.gamma(0.5, size=(frames, spectral.n_bins))
    mag[rng.random(mag.shape) < 0.1] = 0.0
    n_samples = frames * hop - short % hop

    pairs = _peak_pairs(contour, cfg, spectral, sr, n_samples)
    got = _harmonics_from_magnitude(lambda start, stop: mag[start:stop], pairs)
    expected = _frozen_harmonics_from_magnitude(mag, contour, cfg, spectral, sr, n_samples)
    assert got.tobytes() == expected.tobytes()


def test_analyze_silence():
    x = Waveform(np.zeros(SR), SR)
    f0, harm, noise = analyze(x, ANA, SPECTRAL)
    assert not f0.voiced.any()
    assert harm.values.max() == 0.0
    assert noise.values.max() < 1e-9


def test_analyze_f0_matches_estimate_f0_exactly():
    # analyze's contour is estimate_f0's, rounded to the float32 a bundle stores
    x = sine(220.0, SR, 1.0)
    f0, _, _ = analyze(x, ANA, SPECTRAL)
    direct = estimate_f0(x, ANA)
    assert np.array_equal(f0.values, direct.values.astype(np.float32))
    assert np.array_equal(f0.voiced, direct.voiced)


def test_analyze_hop_mismatch_rejected():
    with pytest.raises(ValueError):
        analyze(sine(220.0, SR, 1.0), AnalysisConfig(hop_size=256), SPECTRAL)


_ITEM_3 = "ROADMAP item 3: the round trip misses the mel L1 bound on this tone"


@settings(max_examples=10, deadline=None)
@given(
    f0=st.floats(min_value=100.0, max_value=800.0),
    scale=st.floats(min_value=0.3, max_value=0.9),
    wobble=st.floats(min_value=0.0, max_value=0.15),
)
# Known failures of ROADMAP item 3 (mel L1 0.131, 0.156, 0.115, 0.115, 0.157), strict:
# a mark whose tone passes fails the test, so the fix removes these marks.
@example(f0=613.75, scale=0.5, wobble=0.125).xfail(raises=AssertionError, reason=_ITEM_3)
@example(f0=796.75, scale=0.5, wobble=0.125).xfail(raises=AssertionError, reason=_ITEM_3)
@example(f0=549.0, scale=0.75, wobble=0.125).xfail(raises=AssertionError, reason=_ITEM_3)
@example(f0=764.5, scale=0.5, wobble=0.125).xfail(raises=AssertionError, reason=_ITEM_3)
@example(f0=624.5, scale=0.5, wobble=0.125).xfail(raises=AssertionError, reason=_ITEM_3)
def test_round_trip_property_smooth_harmonic_tones(f0, scale, wobble):
    amps = scale * np.array([0.55, 0.3, 0.18, 0.1])
    x = harmonic_tone(f0, SR, 2.0, amps, wobble=wobble)
    contour, harm, _ = analyze(x, ANA_REFINED, SPECTRAL)

    y = harmonic_synthesize(contour, harm, SR)
    y = Waveform(y.samples[: len(x)], SR)
    cfg = MelConfig(spectral=SPECTRAL)
    l1 = np.abs(mel_spectrogram(y, cfg) - mel_spectrogram(x, cfg)).mean()
    assert l1 < 0.1

    # amplitude recovery for harmonics that matter, compared mid-signal where
    # the wobble envelope is back at its base value
    mid = harm.frames // 2
    window = slice(mid - 2, mid + 3)
    for k, a in enumerate(amps):
        if a >= 0.05:
            got = np.median(harm.values[window, k])
            assert rel_err(got, a) < 0.10


def test_config_validation():
    with pytest.raises(ValueError):
        AnalysisConfig(f0_min=0.0)
    with pytest.raises(ValueError):
        AnalysisConfig(f0_min=500.0, f0_max=100.0)
    with pytest.raises(ValueError):
        AnalysisConfig(refine_iters=-1)
    with pytest.raises(ValueError):
        AnalysisConfig(median_width=4)


# ------------------------------------------ block walk against whole-clip code
#
# The analysis as it was before it walked the frame grid in blocks: one frame
# view of the whole padded clip per pass, the NCCF of every frame, and one
# whole-clip STFT per read. The block walk must reproduce it bit for bit.


def _whole_frame_view(x, hop, lead, length):
    n_frames = frame_count(len(x), hop)
    first = frame_anchor(0, hop) - lead
    before = max(0, -first)
    after = max(0, frame_anchor(n_frames - 1, hop) - lead + length - len(x))
    xp = np.pad(x, (before, after))
    return sliding_window_view(xp, length)[first + before :: hop][:n_frames]


def _whole_stft(x, cfg):
    frames = _whole_frame_view(x.samples, cfg.hop_size, cfg.fft_size // 2, cfg.fft_size)
    return np.fft.rfft(frames * cfg.window_array(), n=cfg.fft_size, axis=1)


def _whole_phase_refine(x, values, voiced, sr, hop):
    values = values.copy()
    half = 2 * hop
    taper = np.hanning(half + 1)[:-1]
    frames = np.flatnonzero(voiced)
    center = frame_anchor(frames, hop)
    frames = frames[(center >= half) & (center + half <= len(x))]
    rows = _whole_frame_view(x, hop, half, 2 * half)
    step = math.isqrt(half - 1) + 1
    n_q = -(-half // step)
    r = np.arange(step)
    q = np.arange(n_q) * step
    for start in range(0, frames.size, 256):
        m = frames[start : start + 256]
        f_hat = values[m]
        w = 2.0 * np.pi * f_hat / sr
        halves = np.zeros((m.size, 2, n_q * step))
        halves[:, :, :half] = rows[m].reshape(m.size, 2, half) * taper
        inner = halves.reshape(m.size, 2 * n_q, step) @ np.exp(-1j * w[:, None] * r)[:, :, None]
        sums = (inner.reshape(m.size, 2, n_q) * np.exp(-1j * w[:, None] * q)[:, None, :]).sum(axis=2)
        c1 = sums[:, 0]
        c2 = sums[:, 1] * np.exp(-1j * w * half)
        ok = np.minimum(np.abs(c1), np.abs(c2)) >= 1e-12
        correction = np.angle(c2[ok] * np.conj(c1[ok])) * sr / (2 * np.pi * half)
        values[m[ok]] = f_hat[ok] + np.clip(correction, -3.0, 3.0)
    return values


def _whole_estimate_f0(x, cfg):
    sr, hop = x.sample_rate, cfg.hop_size
    n_frames = frame_count(len(x), hop)
    max_lag = int(math.ceil(sr / cfg.f0_min))
    min_lag = max(2, int(math.floor(sr / cfg.f0_max)))
    wlen = 2 * max_lag
    nccf, base_energy = _frozen_nccf_frames(x.samples, hop, wlen, max_lag)
    lag = np.full(n_frames, np.nan)
    if max_lag - min_lag >= 2:
        loud = np.flatnonzero(base_energy >= wlen * cfg.silence_rms**2)
        for start in range(0, loud.size, 256):
            m = loud[start : start + 256]
            lag[m] = _pick_peaks(nccf[m, min_lag:], min_lag, cfg.voicing_threshold)
    voiced = ~np.isnan(lag)
    values = np.zeros(n_frames)
    values[voiced] = np.clip(sr / lag[voiced], cfg.f0_min, cfg.f0_max)
    values = _smooth_voiced(values, voiced, cfg.median_width)
    return _whole_phase_refine(x.samples, values, voiced, sr, hop)


def _whole_estimate_harmonics(x, f0, cfg, spectral):
    sr = x.sample_rate

    def read(w):
        return _frozen_harmonics_from_magnitude(np.abs(_whole_stft(w, spectral)), f0, cfg, spectral, sr, len(x))

    target = read(x)
    values = target
    for _ in range(cfg.refine_iters):
        resynth = harmonic_synthesize(f0, HarmonicAmplitudes(values), sr)
        measured = read(Waveform(resynth.samples[: len(x)], sr))
        ratio = np.where(measured > 1e-12, target / np.maximum(measured, 1e-12), 1.0)
        values = values * np.clip(ratio, 0.25, 4.0)
    return values


def _whole_estimate_noise(x, harmonic, spectral):
    return np.maximum(np.abs(_whole_stft(x, spectral)) - np.abs(_whole_stft(harmonic, spectral)), 0.0)


BLOCK_SR = 16000
BLOCK_SPECTRAL = SpectralConfig(fft_size=512, hop_size=128, win_size=512)
BLOCK_ANA = AnalysisConfig(hop_size=BLOCK_SPECTRAL.hop_size)


def _block_clip(frames, seed, silent_frames=0):
    """A sung tone of exactly `frames` frames: vibrato, a glide, a fading and
    swelling level, noise, and optionally a run of exact silence mid-clip."""
    hop = BLOCK_SPECTRAL.hop_size
    n = frames * hop - hop // 3
    rng = np.random.default_rng(seed)
    t = np.arange(n) / BLOCK_SR
    f0 = rng.uniform(110.0, 300.0) * 2 ** ((t / t[-1] + 0.4 * np.sin(2 * np.pi * 5.0 * t)) / 12)
    psi = 2 * np.pi * np.cumsum(f0) / BLOCK_SR
    x = sum(np.sin(k * psi + rng.uniform(0, 2 * np.pi)) / k for k in range(1, 8))
    x *= 0.3 * (1.2 + np.sin(2 * np.pi * 0.7 * t))
    x += 0.02 * rng.standard_normal(n)
    if silent_frames:
        start = (frames - silent_frames) // 2 * hop
        x[start : start + silent_frames * hop] = 0.0
    assert frame_count(n, hop) == frames
    return Waveform(x, BLOCK_SR)


_BLOCK_FRAMES = [FRAME_BLOCK - 1, FRAME_BLOCK, FRAME_BLOCK + 1, 2 * FRAME_BLOCK + 1]


@pytest.mark.parametrize(
    "frames, silent",
    [(f, 0) for f in _BLOCK_FRAMES] + [(4 * FRAME_BLOCK, FRAME_BLOCK + 9), (400, 70), (2 * 256 + 3, 0)],
)
def test_tracker_blocks_match_whole_clip_tracker_bit_for_bit(frames, silent):
    # frames of block - 1, block, block + 1 and 2 * block + 1; silent runs longer
    # than a block, whose frames never enter the NCCF; and loud frames that fill
    # more than one of the reference's batches of 256 loud frames, which group
    # them otherwise than the blocks do when a silent run lies before frame 256
    x = _block_clip(frames, frames + silent, silent)
    got = estimate_f0(x, BLOCK_ANA).values
    assert np.array_equal(got, _whole_estimate_f0(x, BLOCK_ANA))
    max_lag = math.ceil(BLOCK_SR / BLOCK_ANA.f0_min)
    energy = _frozen_nccf_frames(x.samples, BLOCK_ANA.hop_size, 2 * max_lag, max_lag)[1]
    loud = energy >= 2 * max_lag * BLOCK_ANA.silence_rms**2
    if silent:
        assert (~loud).sum() > FRAME_BLOCK
    if frames > 256:
        assert loud.sum() > 256 * (frames // 256)
    assert (got > 0).sum() > frames // 2


@pytest.mark.parametrize("frames", _BLOCK_FRAMES)
def test_analysis_blocks_match_whole_clip_reads_bit_for_bit(frames):
    # the peak reads (target and refine) and the noise spectrum take their
    # STFTs a block at a time; analyze scales the noise in place and rounds
    # each feature to float32
    x = _block_clip(frames, frames)
    f0, harmonics, noise = analyze(x, BLOCK_ANA, BLOCK_SPECTRAL)
    whole = _whole_estimate_harmonics(x, f0, BLOCK_ANA, BLOCK_SPECTRAL)
    assert np.array_equal(harmonics.values, whole.astype(np.float32))
    rendered = Waveform(harmonic_synthesize(f0, harmonics, BLOCK_SR).samples[: len(x)], BLOCK_SR)
    residual = _whole_estimate_noise(x, rendered, BLOCK_SPECTRAL)
    assert np.array_equal(estimate_noise(x, rendered, BLOCK_SPECTRAL).values, residual)
    scale = math.sqrt(BLOCK_SPECTRAL.fft_size / BLOCK_SPECTRAL.hop_size)
    assert np.array_equal(noise.values, (residual * scale).astype(np.float32))
    assert harmonics.values.any() and residual.any()
