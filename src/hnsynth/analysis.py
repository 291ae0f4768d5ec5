"""Feature extraction: F0 tracking, harmonic amplitudes, noise magnitudes.

The tracker is a normalized-autocorrelation (NCCF) pitch detector with
parabolic peak refinement, a median and mean filter over voiced runs, and a
phase-drift refinement. It works array at a time: peak choice, lobe fit,
smoothing and refinement each treat all frames (or a block of them) in one
pass, with no Python loop over frames or over subharmonic divisors. Harmonic
amplitudes are read off the magnitude STFT by local peak interpolation and
window-gain normalization, so a unit-amplitude sinusoid measures as ~1.
The noise is x's STFT magnitude beyond the render of the float32 harmonics a
bundle stores (spectral subtraction, Boll 1979), so no phase has to line up and
a peak error e leaves e; estimate_noise scales it by sqrt(fft / hop) for the noise branch.
No phase is fitted: estimate_initial_phases is a read-only diagnostic of x's
phases against the bank's phase-free render, which analyze does not call.

All frame-level outputs take the frame count and the frame anchor from the
spectral module's frame grid, so contours, amplitude matrices, and STFTs of the
same signal line up frame for frame. Every framed stage walks that grid in
blocks of spectral.FRAME_BLOCK frames, cutting each block's rows with
frame_view: the tracker's NCCF and peak choice, its phase refinement, the
STFT peak reads and the noise spectrum, which is written block by block into
its output. The NCCF's FFTs take only the block's frames at or above the
silence floor. No whole-clip spectrum or frame matrix is held, and each
frame's values depend on its own samples alone, so each block's rows are bit
for bit those of one whole-clip pass, whatever the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .spectral import FRAME_BLOCK, SpectralConfig, frame_anchor, frame_count, frame_view, stft
from .synth import _phasor_blocks, harmonic_synthesize
from .types import F0Contour, HarmonicAmplitudes, NoiseMagnitudeSpectrum, Waveform

_TINY = 1e-12

# Largest change the phase-drift pass may make to a lag-domain f0 estimate.
_MAX_CORRECTION_HZ = 3.0


@dataclass(frozen=True)
class AnalysisConfig:
    """Parameters of the analysis front-end.

    f0_min/f0_max bound the pitch search; hop_size must match the spectral
    hop when the outputs feed harmonic estimation. voicing_threshold is the
    minimum normalized-autocorrelation peak for a frame to count as voiced,
    and silence_rms (>= 0) is the frame RMS below which frames are unvoiced outright;
    both must be finite, and so must silence_rms squared, the tracker's energy floor.
    """

    f0_min: float = 70.0
    f0_max: float = 800.0
    hop_size: int = 512
    k_max: int = 100
    peak_halfwidth_bins: int = 2
    # One pass, not two: seed-1 bench mel L1 0.0677 vs 0.0660 (long44k), 0.1278 vs 0.1255
    # (phrases22k), for analyze times of 1.15 vs 1.47 s and 0.39 vs 0.68 s (summed over files).
    refine_iters: int = 1
    voicing_threshold: float = 0.3
    silence_rms: float = 1e-5
    median_width: int = 5

    def __post_init__(self):
        if not (0 < self.f0_min < self.f0_max):
            raise ValueError(f"need 0 < f0_min < f0_max, got {self.f0_min}, {self.f0_max}")
        if self.hop_size <= 0:
            raise ValueError("hop_size must be positive")
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        if self.peak_halfwidth_bins < 1:
            raise ValueError("peak_halfwidth_bins must be at least 1")
        if self.refine_iters < 0:
            raise ValueError("refine_iters must be non-negative")
        if self.median_width < 1 or self.median_width % 2 == 0:
            raise ValueError("median_width must be a positive odd count")
        if self.silence_rms < 0:
            raise ValueError(f"silence_rms must be non-negative, got {self.silence_rms}")
        # a product, not **2, which raises OverflowError where the product is inf
        if not (math.isfinite(self.voicing_threshold) and math.isfinite(self.silence_rms * self.silence_rms)):
            raise ValueError(
                "voicing_threshold and silence_rms (and its square) must be finite, "
                f"got {self.voicing_threshold}, {self.silence_rms}"
            )


def _nccf(segs: np.ndarray, wlen: int, max_lag: int, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Normalized cross-correlation for lags 0..max_lag of the rows of segs at or above floor.

    Each row holds a frame's wlen-sample base segment and the max_lag samples
    after it; the base is correlated against itself shifted by each lag.
    Returns the NCCF of the rows whose base energy reaches floor, shape (those
    rows, max_lag + 1), and every row's base energy. Both come from one running
    sum of squares, taken over every row's base and carried on over the loud
    rows alone, so the energy is bit for bit the NCCF's lag-0 energy. Only the
    loud rows are transformed: a block with none takes no FFT.
    """
    span = segs.shape[1]
    sq = np.empty((len(segs), span + 1))
    sq[:, 0] = 0.0
    np.cumsum(np.square(segs[:, :wlen]), axis=1, out=sq[:, 1 : wlen + 1])
    energy = sq[:, wlen].copy()
    loud = energy >= floor
    segs, sq = segs[loud], sq[loud]
    nccf = np.empty((len(segs), max_lag + 1))
    if len(segs):
        np.square(segs[:, wlen:], out=sq[:, wlen + 1 :])
        np.cumsum(sq[:, wlen:], axis=1, out=sq[:, wlen:])
        lag_energy = sq[:, wlen : wlen + max_lag + 1] - sq[:, : max_lag + 1]
        del sq
        n_fft = 1 << (span - 1).bit_length()
        spec = np.conj(np.fft.rfft(segs[:, :wlen], n=n_fft, axis=1))
        spec *= np.fft.rfft(segs, n=n_fft, axis=1)
        corr = np.fft.irfft(spec, n=n_fft, axis=1)[:, : max_lag + 1]
        del spec
        denom = np.multiply(lag_energy[:, :1].copy(), lag_energy, out=lag_energy)
        np.maximum(denom, _TINY, out=denom)
        np.sqrt(denom, out=denom)
        np.divide(corr, denom, out=nccf)
    return nccf, energy


def _lobe_vertices(seg: np.ndarray, i: np.ndarray) -> np.ndarray:
    """Sub-lag peak position of each row from a least-squares parabola over its lobe top.

    Fits every contiguous lag around i whose correlation stays above 90% of
    seg[i], and at least i-1..i+1, so a broad noisy peak (pure tone in noise)
    is averaged over many lags while a sharp multi-harmonic peak keeps a
    3-point footprint. The vertex is clamped to the fitted range; a lobe that
    does not curve downward keeps i.
    """
    n, width = seg.shape
    rows = np.arange(n)[:, None]
    lags = np.arange(width)
    below = seg < 0.9 * seg[rows, i[:, None]]
    lo = np.minimum(np.where(below & (lags < i[:, None]), lags, -1).max(axis=1) + 1, i - 1)
    hi = np.maximum(np.where(below & (lags > i[:, None]), lags, width).min(axis=1) - 1, i + 1)

    idx = lo[:, None] + np.arange((hi - lo).max() + 1)
    inside = idx <= hi[:, None]
    y = np.where(inside, seg[rows, np.minimum(idx, width - 1)], 0.0)
    centre = (lo + hi) / 2.0
    v = np.where(inside, idx - centre[:, None], 0.0)
    # The lags sit symmetrically about the centre, so 1, v and v^2 - mean(v^2)
    # are orthogonal over them and each coefficient is a ratio of two sums.
    # Each sum runs left to right, so the zeros after a row's lobe, as many as
    # the widest lobe of the batch sets, leave its bits as they are alone.
    def total(a):
        return np.cumsum(a, axis=1)[:, -1]

    v2 = v * v
    s2 = total(v2)
    p2 = np.where(inside, v2 - (s2 / inside.sum(axis=1))[:, None], 0.0)
    a = total(p2 * y) / total(p2 * p2)
    b = total(v * y) / s2
    curved = a < -_TINY
    vertex = centre - b / (2.0 * np.where(curved, a, -1.0))
    return np.where(curved, np.clip(vertex, lo, hi), i)


def _pick_peaks(seg: np.ndarray, min_lag: int, threshold: float) -> np.ndarray:
    """Subharmonic-aware correlation peak of each row of seg, as a fractional lag.

    seg holds each frame's correlation at lags min_lag, min_lag + 1, ... (at
    least 3 of them). Each frame starts from its global maximum, then prefers
    the smallest integer submultiple of that lag whose correlation is nearly
    as high: a periodic signal repeats at every multiple of its true period,
    so the argmax can land an octave (or more) low, but arbitrary shorter lags
    never qualify. The lag is NaN where the chosen peak misses threshold.
    """
    n, width = seg.shape
    rows = np.arange(n)
    best_idx = np.argmax(seg, axis=1)
    best = seg[rows, best_idx]
    lag0 = min_lag + best_idx
    # Each divisor, largest first, looks 2 lags either side of lag0 / div; the
    # first whose window holds a near-best peak wins. Divisor 1 stands for
    # lag0 itself, which wins when no other does.
    divs = np.arange((min_lag + width - 1) // min_lag, 0, -1)
    window = np.rint(lag0[:, None] / divs - min_lag).astype(int)[:, :, None] + np.arange(-2, 3)
    inside = (window >= 0) & (window < width)
    local = np.where(inside, seg[rows[:, None, None], np.clip(window, 0, width - 1)], -np.inf)
    pick = np.argmax(local, axis=2)[:, :, None]
    hit = np.take_along_axis(local, pick, axis=2)[:, :, 0] >= 0.9 * best[:, None]
    hit &= lag0[:, None] // min_lag >= divs
    candidates = np.take_along_axis(window, pick, axis=2)[:, :, 0]
    hit[:, -1], candidates[:, -1] = True, best_idx
    chosen = candidates[rows, np.argmax(hit, axis=1)]

    i = np.clip(chosen, 1, width - 2)
    lag = np.full(n, np.nan)
    keep = seg[rows, i] >= threshold
    if keep.any():
        lag[keep] = min_lag + _lobe_vertices(seg[keep], i[keep])
    return lag


def _smooth_voiced(values: np.ndarray, voiced: np.ndarray, width: int) -> np.ndarray:
    """Median, then mean, over the voiced entries of each centered window.

    Unvoiced entries are left as they are and never enter a window. A window
    wider than twice the contour covers all of it, so it is cut to that width.
    """
    half = min(width // 2, len(values))
    width = 2 * half + 1

    def windows(a, fill):
        return sliding_window_view(np.pad(a, half, constant_values=fill), width)[voiced]

    count = windows(voiced, False).sum(axis=1)
    rows = np.arange(count.size)
    out = values.copy()
    # Unvoiced entries sort last as +inf, so the middle of the voiced ones sits
    # at (count - 1) // 2 and count // 2.
    ranked = np.sort(windows(np.where(voiced, values, np.inf), np.inf), axis=1)
    out[voiced] = (ranked[rows, (count - 1) // 2] + ranked[rows, count // 2]) / 2.0
    out[voiced] = windows(np.where(voiced, out, 0.0), 0.0).sum(axis=1) / count
    return out


def estimate_f0(x: Waveform, cfg: AnalysisConfig) -> F0Contour:
    """Track the fundamental frequency; unvoiced frames get f0 = 0."""
    sr = x.sample_rate
    if cfg.f0_max >= sr / 2:
        raise ValueError(f"f0_max={cfg.f0_max} must stay below Nyquist ({sr / 2})")
    # a frame's segment is 3 * ceil(sr / f0_min) float64 samples, and numpy
    # addresses no array of more bytes than intp holds
    if 24 * sr / cfg.f0_min > np.iinfo(np.intp).max:
        raise ValueError(f"f0_min={cfg.f0_min} is too low for numpy to hold the tracker's lags at {sr} Hz")
    hop = cfg.hop_size
    n_frames = frame_count(len(x), hop)
    if n_frames < 2:
        raise ValueError(f"signal too short: need at least 2 frames of hop {hop}")

    max_lag = int(math.ceil(sr / cfg.f0_min))
    min_lag = max(2, int(math.floor(sr / cfg.f0_max)))
    # Correlating over two full periods of the lowest trackable pitch keeps
    # the refined lag stable under heavy additive noise.
    wlen = 2 * max_lag

    floor = wlen * cfg.silence_rms**2
    lag = np.full(n_frames, np.nan)
    if max_lag - min_lag >= 2:  # a peak and both its neighbours fit in the lag range
        for first in range(0, n_frames, FRAME_BLOCK):
            segs = frame_view(x.samples, hop, (wlen + max_lag) // 2, wlen + max_lag, first, first + FRAME_BLOCK)
            nccf, energy = _nccf(segs, wlen, max_lag, floor)
            if len(nccf):
                lag[first + np.flatnonzero(energy >= floor)] = _pick_peaks(
                    nccf[:, min_lag:], min_lag, cfg.voicing_threshold
                )
    voiced = ~np.isnan(lag)
    values = np.zeros(n_frames)
    values[voiced] = np.clip(sr / lag[voiced], cfg.f0_min, cfg.f0_max)

    # Median first to reject isolated octave errors, then a short mean to
    # cut frame-to-frame jitter that would read back as FM in resynthesis.
    values = _smooth_voiced(values, voiced, cfg.median_width)
    values = _phase_refine(x.samples, values, voiced, sr, hop)
    return F0Contour(hop_size=hop, values=values)


def _phase_refine(x: np.ndarray, values: np.ndarray, voiced: np.ndarray, sr: int, hop: int) -> np.ndarray:
    """Sharpen voiced estimates from the phase drift of the demodulated fundamental.

    Demodulating x at the coarse estimate f and summing two adjacent 2*hop
    windows leaves a residual phase step of 2*pi*(f_true - f)*(2*hop)/sr
    between them, giving a correction far below the lag-domain resolution.
    Residual per-frame jitter otherwise random-walks into audible phase drift
    when the contour is integrated back into a sinusoid.
    """
    values = values.copy()
    half = 2 * hop
    # Hann-weighting each half suppresses the -2f image and neighboring
    # harmonics that would otherwise bias the phase step.
    taper = np.hanning(half + 1)[:-1]
    # edge frames keep the lag-domain estimate
    center = frame_anchor(np.arange(len(values)), hop)
    refinable = voiced & (center >= half) & (center + half <= len(x))
    # Each half is demodulated relative to its own first sample: the phase
    # e^{-iw*start} common to both halves cancels in c2 * conj(c1). Writing the
    # offset j = q*step + r factors e^{-iwj} into e^{-iwq*step} e^{-iwr}, about
    # 2*sqrt(half) exponentials per frame instead of half.
    step = math.isqrt(half - 1) + 1
    n_q = -(-half // step)
    r = np.arange(step)
    q = np.arange(n_q) * step
    for first in range(0, len(values), FRAME_BLOCK):
        rows = np.flatnonzero(refinable[first : first + FRAME_BLOCK])
        if not rows.size:
            continue
        m = first + rows
        f_hat = values[m]
        w = 2.0 * np.pi * f_hat / sr
        halves = np.zeros((m.size, 2, n_q * step))
        block = frame_view(x, hop, half, 2 * half, first, first + FRAME_BLOCK)
        np.multiply(block[rows].reshape(m.size, 2, half), taper, out=halves[:, :, :half])
        inner = halves.reshape(m.size, 2 * n_q, step) @ np.exp(-1j * w[:, None] * r)[:, :, None]
        sums = (inner.reshape(m.size, 2, n_q) * np.exp(-1j * w[:, None] * q)[:, None, :]).sum(axis=2)
        c1 = sums[:, 0]
        c2 = sums[:, 1] * np.exp(-1j * w * half)
        ok = np.minimum(np.abs(c1), np.abs(c2)) >= _TINY
        correction = np.angle(c2[ok] * np.conj(c1[ok])) * sr / (2 * np.pi * half)
        values[m[ok]] = f_hat[ok] + np.clip(correction, -_MAX_CORRECTION_HZ, _MAX_CORRECTION_HZ)
    return values


def estimate_harmonics(
    x: Waveform,
    f0: F0Contour,
    cfg: AnalysisConfig,
    spectral: SpectralConfig,
) -> HarmonicAmplitudes:
    """Per-frame harmonic amplitudes sampled from the magnitude STFT.

    Unvoiced frames and harmonics at or above Nyquist get amplitude 0. With
    refine_iters > 0, the estimate is multiplicatively corrected against a
    resynthesized harmonic part, the render of its float32 rounding, as a bundle
    stores it. The STFTs are read a block of frames at a time.
    """
    if f0.hop_size != spectral.hop_size:
        raise ValueError(
            f"hop mismatch: contour hop {f0.hop_size} vs spectral hop {spectral.hop_size}"
        )
    n_frames = frame_count(len(x), spectral.hop_size)
    if n_frames != f0.frames:
        raise ValueError(
            f"frame count mismatch: contour has {f0.frames}, STFT has {n_frames}"
        )
    if spectral.n_bins < 3:  # a peak and both its neighbours
        raise ValueError(f"harmonic peak reads need fft_size >= 4, got {spectral.fft_size}")
    pairs = _peak_pairs(f0, cfg, spectral, x.sample_rate, len(x))
    target = _harmonics_from_magnitude(lambda start, stop: stft(x, spectral, start, stop), pairs)
    values = target

    for _ in range(cfg.refine_iters):
        resynth = harmonic_synthesize(f0, HarmonicAmplitudes(values), x.sample_rate)
        resynth_wave = Waveform(resynth.samples[: len(x)], x.sample_rate)
        measured = _harmonics_from_magnitude(lambda start, stop: stft(resynth_wave, spectral, start, stop), pairs)
        ratio = np.where(measured > _TINY, target / np.maximum(measured, _TINY), 1.0)
        values = values * np.clip(ratio, 0.25, 4.0)
    return HarmonicAmplitudes(values)


def _frame_gains(spectral: SpectralConfig, n_frames: int, n_samples: int) -> np.ndarray:
    """Coherent gain per frame: half the window mass overlapping the signal.

    A sinusoid of amplitude A leaves a spectral peak of A * sum(w) / 2, so
    dividing a measured peak by this gain recovers A. Frames whose window
    hangs past the signal edges see less of it; using only the visible mass
    keeps edge-frame estimates unbiased.
    """
    w = spectral.window_array()
    csum = np.concatenate([[0.0], np.cumsum(w)])
    starts = frame_anchor(np.arange(n_frames), spectral.hop_size) - spectral.fft_size // 2
    lo = np.clip(-starts, 0, spectral.fft_size)
    hi = np.clip(n_samples - starts, 0, spectral.fft_size)
    return np.maximum(csum[hi] - csum[lo], _TINY) / 2.0


class _PeakPairs(NamedTuple):
    """The (frame, harmonic) pairs of a contour whose peaks are read off an STFT.

    They depend on the contour alone, so one build serves every read of one
    estimate_harmonics call.
    """

    shape: tuple[int, int]  # (frames, k_max) of the amplitude matrix
    cells: tuple[np.ndarray, np.ndarray]  # frame (ascending) and column k - 1 of each pair
    bins: np.ndarray  # bin nearest each pair's frequency
    offsets: np.ndarray  # -halfwidth..halfwidth: each peak is searched in bins + offsets
    gain: np.ndarray  # coherent gain of each pair's frame


def _peak_pairs(
    f0: F0Contour, cfg: AnalysisConfig, spectral: SpectralConfig, sample_rate: int, n_samples: int
) -> _PeakPairs:
    """Every harmonic of a voiced frame below Nyquist, with its bins and its frame's gain."""
    freqs = f0.values[:, None] * np.arange(1, cfg.k_max + 1)
    cells = np.nonzero(f0.voiced[:, None] & (freqs < sample_rate / 2.0))
    bins = np.rint(freqs[cells] / (sample_rate / spectral.fft_size)).astype(int)
    offsets = np.arange(-cfg.peak_halfwidth_bins, cfg.peak_halfwidth_bins + 1)
    gains = _frame_gains(spectral, f0.frames, n_samples)
    return _PeakPairs((f0.frames, cfg.k_max), cells, bins, offsets, gains[cells[0]])


def _harmonics_from_magnitude(spectra, pairs: _PeakPairs) -> np.ndarray:
    """(frames, k_max) amplitudes read off a magnitude STFT at the pairs, 0 elsewhere.

    spectra(start, stop) returns the STFT rows of frames start .. stop - 1,
    complex or already magnitudes; they are read a block of FRAME_BLOCK frames
    at a time, and only for blocks that hold a pair. Each pair takes the
    largest 20*log10 |S| in its search window, interpolates the peak with a
    parabola through the two neighbouring bins, and divides it by the frame's
    gain.
    """
    values = np.zeros(pairs.shape)
    cell_frames, cell_cols = pairs.cells
    for first in range(0, pairs.shape[0], FRAME_BLOCK):
        lo, hi = np.searchsorted(cell_frames, (first, first + FRAME_BLOCK))
        if lo == hi:
            continue
        spec = spectra(first, first + FRAME_BLOCK)
        frames = cell_frames[lo:hi] - first
        window = np.clip(pairs.bins[lo:hi, None] + pairs.offsets, 1, spec.shape[1] - 2)
        db = 20.0 * np.log10(np.abs(spec) + _TINY)
        peak = window[np.arange(frames.size), np.argmax(db[frames[:, None], window], axis=1)]
        alpha, beta, gamma = db[frames, peak - 1], db[frames, peak], db[frames, peak + 1]
        denom = alpha - 2 * beta + gamma
        delta = np.where(denom < -_TINY, 0.5 * (alpha - gamma) / np.where(denom < -_TINY, denom, -1.0), 0.0)
        delta = np.clip(delta, -0.5, 0.5)
        peak_db = beta - 0.25 * (alpha - gamma) * delta
        values[cell_frames[lo:hi], cell_cols[lo:hi]] = 10.0 ** (peak_db / 20.0) / pairs.gain[lo:hi]
    return values


def estimate_initial_phases(x: Waveform, f0: F0Contour, k_max: int) -> np.ndarray:
    """Starting phase per harmonic of x against the bank's phase-free render, in [-pi, pi).

    Demodulates x against the accumulated fundamental phase, so the estimate
    follows any f0 trajectory, not just constant pitch: each block's grid rows of
    x, zero outside x, meet every phasor z^k of the bank's walker
    (_Block.harmonics), which silences the same unvoiced and at-or-above-Nyquist
    pairs as the bank; a harmonic with no live pair gets phase 0. A read-only
    diagnostic: analyze does not call it, and the bank takes no phase, but the
    benchmark's tracer (bench/tracer.py) lists it among its targets.
    """
    hop = f0.hop_size
    n = min(len(x), f0.frames * hop)
    lead = -frame_anchor(-1, hop)  # grid samples before sample 0
    grid = np.zeros((f0.frames + 1, hop))
    grid.reshape(-1)[lead : lead + n] = x.samples[:n]
    acc = np.zeros(k_max, dtype=np.complex128)
    for b in _phasor_blocks(f0, x.sample_rate, k_max):
        xb = grid[b.rows].astype(np.complex128).reshape(-1)
        for k, zk in enumerate(b.harmonics(range(1, b.k_live + 1)), 1):
            # x ~ H sin(k psi + phi) = H cos(k psi + phi - pi/2); summing x e^{ik psi}
            # over the walk's live samples leaves ~ (H/2) e^{i(pi/2 - phi)}
            acc[k - 1] += xb @ zk
    phases = np.where(acc != 0, np.pi / 2 - np.angle(acc), 0.0)
    phases = np.mod(phases + np.pi, 2 * np.pi) - np.pi
    phases[phases >= np.pi] -= 2 * np.pi  # rounding can land exactly on pi
    return phases


def estimate_noise(x: Waveform, harmonic: Waveform, spectral: SpectralConfig) -> NoiseMagnitudeSpectrum:
    """The noise a bundle stores: sqrt(fft / hop) * max(|X| - |H|, 0) per cell, in float32.

    Random-phase frames overlap-add in power, so the noise branch renders
    sqrt(hop / fft) of what it is given: the scale makes it render the residual
    at its measured level. Both STFTs are taken a block of frames at a time, and
    each scaled block is rounded into the float32 output once
    NoiseMagnitudeSpectrum has checked its range.
    """
    if len(x) != len(harmonic):
        raise ValueError(f"length mismatch: {len(x)} vs {len(harmonic)}")
    if x.sample_rate != harmonic.sample_rate:
        raise ValueError(
            f"sample rate mismatch: {x.sample_rate} vs {harmonic.sample_rate}"
        )
    scale = math.sqrt(spectral.fft_size / spectral.hop_size)
    residual = np.empty((frame_count(len(x), spectral.hop_size), spectral.n_bins), dtype=np.float32)
    for first in range(0, len(residual), FRAME_BLOCK):
        stop = first + FRAME_BLOCK
        block = np.abs(stft(x, spectral, first, stop))
        block -= np.abs(stft(harmonic, spectral, first, stop))
        np.maximum(block, 0.0, out=block)
        block *= scale
        residual[first:stop] = NoiseMagnitudeSpectrum(block).values
    return NoiseMagnitudeSpectrum(residual)


def analyze(
    x: Waveform, cfg: AnalysisConfig, spectral: SpectralConfig
) -> tuple[F0Contour, HarmonicAmplitudes, NoiseMagnitudeSpectrum]:
    """Full feature extraction: F0 contour, harmonic amplitudes, noise spectrum.

    Each feature is made at the values a bundle stores: the contour is
    estimate_f0's, the float32 harmonics are read at it, and the noise is
    estimate_noise's of x beyond the render of those harmonics.
    """
    if cfg.hop_size != spectral.hop_size:
        raise ValueError(
            f"hop mismatch: analysis hop {cfg.hop_size} vs spectral hop {spectral.hop_size}"
        )
    if spectral.n_bins < 3:  # estimate_harmonics' peak reads, checked before any tracking
        raise ValueError(f"harmonic peak reads need fft_size >= 4, got {spectral.fft_size}")
    f0 = estimate_f0(x, cfg)
    harmonics = estimate_harmonics(x, f0, cfg, spectral)
    rendered = harmonic_synthesize(f0, harmonics, x.sample_rate)
    return f0, harmonics, estimate_noise(x, Waveform(rendered.samples[: len(x)], x.sample_rate), spectral)
