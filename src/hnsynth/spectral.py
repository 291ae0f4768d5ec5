"""Windowed STFT/iSTFT, mel filterbank, and multi-resolution magnitude features.

This module owns the frame grid of the whole package. Frame m describes the
neighborhood of sample frame_anchor(m, hop) = m*hop + hop//2, the same anchor
used when frame-level features are interpolated to sample rate, and a signal
of length L yields frame_count(L, hop) = ceil(L/hop) frames. frame_view cuts
a signal into one window per frame of that grid, placed by its offset from
the anchor. The F0 tracker, the STFT and the synthesizer all take their grid
from these functions, so framed features and STFTs of the same signal always
line up.

The framed stages walk the grid in blocks of FRAME_BLOCK frames: frame_view
cuts any range of rows, copying only the samples those rows cover, stft takes
the spectra of any range of frames, and istft_chunks overlap-adds a
spectrogram given block by block into (rows, hop_size) output rows, the layout
the harmonic bank renders into. Once a block's frames are in, the rows below
its last frame have every slice they get, so they are divided by the window
energy of the slices over them and passed on; only the span - 1 rows that
later frames still reach are carried to the next block. Every frame is
computed from its own samples alone, so a block's rows are bit for bit those
of the whole-signal transform, and no (frames, fft_size) matrix or whole-clip
output of a clip is held. istft joins the stream into one array.

A stream of output samples is a sequence of flat chunks that hold samples
0, 1, ... in order: grid_samples cuts one from a grid of hop-long rows, and
join_chunks gathers one into an array.

Every SpectralConfig overlap-adds to a constant (COLA), so no stage that takes
one checks its window/hop pair again.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .types import Waveform

# Cosine-sum coefficients a_k of each window family, w = sum_k a_k cos(k * fac)
# over fac in [-pi, pi]. Hamming's second term is 1.0 - 0.54, which is not the
# double nearest 0.46: the windows are pinned bit for bit to a reference
# implementation in tests/test_spectral.py.
_COSINE_TERMS = {
    "hann": (0.5, 0.5),
    "hamming": (0.54, 1.0 - 0.54),
    "blackman": (0.42, 0.50, 0.08),
    "blackmanharris": (0.35875, 0.48829, 0.14128, 0.01168),
}
WINDOW_FAMILIES = tuple(_COSINE_TERMS)

# Largest deviation of the overlap-added window from its median level that
# still counts as constant overlap-add.
_COLA_TOL = 1e-10

# Denominator floor when normalizing overlap-added window energy; positions
# below it receive zero output (only ever hit inside the synthetic padding).
_OLA_EPS = 1e-11

# Frames per block of the framed stages (the STFT reads, the tracker's frame
# energies and NCCF, the inverse STFT): their (frames, fft_size) temporaries
# grow with the block, not with the clip. 64 frames of a 2048-point FFT keep
# each complex block at 1 MiB.
FRAME_BLOCK = 64


@functools.lru_cache(maxsize=32)
def _window(name: str, length: int) -> np.ndarray:
    """Periodic (DFT-even) window: the symmetric window of length + 1 minus its last point."""
    if length <= 1:
        w = np.ones(length)
    else:
        # allocated first: np.zeros refuses a length past intp's range, np.linspace mis-sizes it
        w = np.zeros(length + 1)
        fac = np.linspace(-np.pi, np.pi, length + 1)
        for k, a in enumerate(_COSINE_TERMS[name]):
            w += a * np.cos(k * fac)
        w = w[:-1]
    w.flags.writeable = False
    return w


def frame_anchor(m, hop_size: int):
    """Sample that frame m describes, m*hop_size + hop_size//2; m may be an index array."""
    return m * hop_size + hop_size // 2


def frame_count(n_samples: int, hop_size: int) -> int:
    """Frames covering n_samples samples: ceil(n_samples / hop_size), at least 1."""
    return max(1, math.ceil(n_samples / hop_size))


def frame_view(
    x: np.ndarray, hop_size: int, lead: int, length: int, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """Read-only (rows, length) view of frames start .. stop - 1 of x, zero-extended.

    Row m holds samples frame_anchor(m) - lead .. frame_anchor(m) - lead + length - 1,
    with zeros wherever that reaches past either end of x. stop defaults to, and
    is capped at, frame_count(len(x), hop_size). Only the samples the rows cover
    are copied.
    """
    stop = frame_count(len(x), hop_size) if stop is None else min(stop, frame_count(len(x), hop_size))
    first = frame_anchor(start, hop_size) - lead  # first sample of the first row
    end = frame_anchor(stop - 1, hop_size) - lead + length  # one past the last row's last sample
    xp = np.zeros(end - first)
    a, b = max(first, 0), min(end, len(x))
    if a < b:
        xp[a - first : b - first] = x[a:b]
    step = xp.strides[0]
    return as_strided(xp, (stop - start, length), (hop_size * step, step), writeable=False)


def _overlap_sums(w: np.ndarray, hop: int) -> np.ndarray:
    """The window's hop-long slices summed into one period of hop samples, added left to right.

    The whole slices are summed by one cumsum down the rows of their matrix,
    which adds them in order as a loop over the slices would; a pairwise sum
    (np.sum) would round some sums differently.
    """
    n = len(w)
    sums = np.cumsum(w[: n // hop * hop].reshape(-1, hop), axis=0)[-1]
    if n % hop:
        sums[: n % hop] += w[-(n % hop) :]
    return sums


@dataclass(frozen=True)
class SpectralConfig:
    """STFT parameters: FFT size (power of two), hop, and a window (length, family) that is COLA at the hop."""

    fft_size: int = 2048
    hop_size: int = 512
    win_size: int = 2048
    window: str = "hann"

    def __post_init__(self):
        if self.fft_size <= 0 or (self.fft_size & (self.fft_size - 1)) != 0:
            raise ValueError(f"fft_size must be a power of two, got {self.fft_size}")
        # a frame's spectrum is n_bins complex128 values, and numpy addresses no
        # array of more bytes than intp holds
        if 16 * self.n_bins > np.iinfo(np.intp).max:
            raise ValueError(f"fft_size {self.fft_size} is too large for numpy to hold its spectrum")
        if not (0 < self.hop_size <= self.win_size <= self.fft_size):
            raise ValueError(
                "need 0 < hop_size <= win_size <= fft_size, got "
                f"hop={self.hop_size} win={self.win_size} fft={self.fft_size}"
            )
        if self.window not in WINDOW_FAMILIES:
            raise ValueError(f"unknown window {self.window!r}, expected one of {WINDOW_FAMILIES}")
        # COLA: the window's hop-long slices, summed into one period, stay at its
        # median. The median is np.median's, taken from a sort: np.median imports
        # numpy.ma, about 1.4 MiB of resident memory for every CLI call.
        hop = self.hop_size
        binsums = _overlap_sums(_window(self.window, self.win_size), hop)
        ranked = np.sort(binsums)
        median = (ranked[(hop - 1) // 2] + ranked[hop // 2]) / 2
        if not np.max(np.abs(binsums - median)) < _COLA_TOL:
            raise ValueError(
                f"window={self.window!r} win={self.win_size} hop={self.hop_size} does not satisfy "
                "constant overlap-add"
            )

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1

    @property
    def pad_left(self) -> int:
        """Samples of left zero-padding; frame m starts at m*hop - pad_left."""
        return self.fft_size // 2 - frame_anchor(0, self.hop_size)

    def window_array(self) -> np.ndarray:
        """Periodic window of win_size samples, zero-padded centered to fft_size."""
        w = _window(self.window, self.win_size)
        if self.win_size == self.fft_size:
            return w
        padded = np.zeros(self.fft_size)
        off = (self.fft_size - self.win_size) // 2
        padded[off : off + self.win_size] = w
        return padded


def default_spectral(sample_rate: int) -> SpectralConfig:
    """Per-rate defaults: frames that last about as long at every rate.

    1024/256 below 32 kHz; from 32 kHz up, 2048/512 scaled by the power of two
    nearest to sample_rate / 48 kHz, never below 1: 2048/512 up to 64 kHz,
    4096/1024 at 88.2 and 96 kHz, 8192/2048 at 176.4 and 192 kHz.
    """
    if sample_rate < 32000:
        return SpectralConfig(fft_size=1024, hop_size=256, win_size=1024)
    size = 2048 << max(0, round(math.log2(sample_rate / 48000)))
    return SpectralConfig(fft_size=size, hop_size=size // 4, win_size=size)


# FFT sizes of the built-in multi-resolution features and metrics.
MRS_FFT_SIZES = (512, 1024, 2048)


def multi_resolution_configs(fft_sizes=MRS_FFT_SIZES) -> list[SpectralConfig]:
    """One config per FFT size, each with a quarter-size hop and a full-size window."""
    return [SpectralConfig(fft_size=n, hop_size=n // 4, win_size=n) for n in fft_sizes]


def stft(x: Waveform, cfg: SpectralConfig, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Complex spectra of frames start .. stop - 1 (default all), shape (frames, fft_size//2 + 1)."""
    if len(x) == 0:
        raise ValueError("cannot take the STFT of an empty signal")
    frames = frame_view(x.samples, cfg.hop_size, cfg.fft_size // 2, cfg.fft_size, start, stop)
    return np.fft.rfft(frames * cfg.window_array(), n=cfg.fft_size, axis=1)


def stft_magnitude(x: Waveform, cfg: SpectralConfig) -> np.ndarray:
    """|stft(x, cfg)|, filled a block of frames at a time, so no whole complex spectrogram is held."""
    mag = np.empty((frame_count(len(x), cfg.hop_size), cfg.n_bins))
    for first in range(0, len(mag), FRAME_BLOCK):
        np.abs(stft(x, cfg, first, first + FRAME_BLOCK), out=mag[first : first + FRAME_BLOCK])
    return mag


def grid_samples(blocks, lead: int, n: int):
    """Samples 0 .. n - 1 of a grid of hop-long rows given block by block, as a stream of chunks.

    blocks yields (rows, hop) C-contiguous arrays of consecutive rows; row 0
    starts lead samples before sample 0. Each chunk is a view of its block.
    Where the grid ends before sample n, the stream ends with zeros.
    """
    at = -lead  # sample the next block starts at
    for block in blocks:
        flat = block.reshape(-1)
        if at + len(flat) > 0:
            yield flat[max(0, -at) : n - at]
        at += len(flat)
        if at >= n:
            return
    yield np.zeros(n - max(at, 0))


def join_chunks(chunks, n: int) -> np.ndarray:
    """The n samples a stream of chunks holds, gathered into one array."""
    out = np.empty(n)
    at = 0
    for chunk in chunks:
        out[at : at + len(chunk)] = chunk
        at += len(chunk)
    return out


def _overlap_add_rows(blocks, cfg: SpectralConfig):
    """The padded output rows of the inverse STFT of a stream of spectrogram blocks, normalized.

    Frame m's j-th hop-wide slice adds into row m + j, the slices of a block in
    reverse order, so each sample sums its frames in frame order. Row r is
    covered by slices j = max(0, r - frames + 1) .. min(span - 1, r), so every
    interior row shares one window energy and each edge row has its own. Yields
    one block of rows per spectrogram block, then the span - 1 tail rows.
    """
    fft, hop = cfg.fft_size, cfg.hop_size
    w = cfg.window_array()
    w2 = w * w
    span = -(-fft // hop)  # hop-wide slices per frame; the last is narrower when hop does not divide fft
    energies = {}

    def normalize(rows, first, added):
        """Divide rows first, first + 1, ... by the energy of the slices over each, once `added` frames are in."""
        r, end = first, first + len(rows)
        while r < end:
            lo, hi = max(0, r - added + 1), min(span - 1, r)
            stop = min(added, end) if span - 1 <= r < added else r + 1
            if (lo, hi) not in energies:
                ws = np.zeros(hop)
                for j in reversed(range(lo, hi + 1)):
                    ws[: min(hop, fft - j * hop)] += w2[j * hop : (j + 1) * hop]
                energies[lo, hi] = ws
            ws = energies[lo, hi]
            seg, ok = rows[r - first : stop - first], ws > _OLA_EPS
            np.divide(seg, ws, out=seg, where=ok)
            seg[:, ~ok] = 0.0
            r = stop

    carry = np.zeros((span - 1, hop))  # the rows past the frames added so far that they reach
    m = 0  # frames added so far
    for block in blocks:
        if block.ndim != 2 or block.shape[1] != cfg.n_bins:
            raise ValueError(f"spectrogram must have {cfg.n_bins} bins, got shape {block.shape}")
        frames = np.fft.irfft(block, n=fft, axis=1).astype(np.float64, copy=False)  # float64 for float32 blocks too
        frames *= w
        count = len(frames)
        rows = np.zeros((count + span - 1, hop))
        rows[: span - 1] = carry
        for j in reversed(range(span)):
            rows[j : j + count, : min(hop, fft - j * hop)] += frames[:, j * hop : (j + 1) * hop]
        del block, frames  # gone before the caller takes the rows and the next block is made
        done, carry = rows[:count], rows[count:]
        normalize(done, m, m + count)
        m += count
        yield done
    normalize(carry, m, m)
    yield carry


def istft_chunks(S, cfg: SpectralConfig, out_len: int):
    """istft(S, cfg, out_len) as a stream of chunks, one per block of S's frames.

    Each chunk is a view of the output rows the block finished, so the
    stream holds one block of rows and the span - 1 rows after it at a time.
    """
    if hasattr(S, "__next__"):  # an iterator over row blocks
        blocks = S
    else:
        S = np.asarray(S)
        if S.ndim != 2 or S.shape[1] != cfg.n_bins:
            raise ValueError(f"spectrogram must have {cfg.n_bins} bins, got shape {S.shape}")
        blocks = (S[m : m + FRAME_BLOCK] for m in range(0, S.shape[0], FRAME_BLOCK))
    if out_len < 0:
        raise ValueError("out_len must be non-negative")
    return grid_samples(_overlap_add_rows(blocks, cfg), cfg.pad_left, out_len)


def istft(S, cfg: SpectralConfig, out_len: int) -> np.ndarray:
    """Overlap-add inverse STFT with window-energy normalization.

    S is a (frames, n_bins) spectrogram, or an iterator over its blocks of rows
    in frame order, so a caller can make the spectrogram a block at a time.
    The output has length exactly out_len.

    The padded output is laid out as (rows, hop_size), the layout of the
    harmonic bank's render: frame m's j-th hop-wide slice adds into row m + j,
    and each row is then divided by the window energy of the slices over it.
    It is istft_chunks' stream, joined.
    """
    return join_chunks(istft_chunks(S, cfg, out_len), out_len)


# ---------------------------------------------------------------------------
# Mel filterbank (Slaney scale, area-normalized) and log-mel extraction.
#
# Scale: mel(f) = f / (200/3) for f < 1000 Hz, else
#        mel(f) = 15 + ln(f/1000) / (ln(6.4)/27).
# Filters: n_mels triangles with vertices at n_mels+2 equally mel-spaced
# frequencies between f_min and f_max, each scaled by 2/(f[i+2] - f[i]).
# Energies are filterbank-weighted *magnitudes* (not powers), so scaling the
# waveform by c shifts every above-floor log-mel entry by exactly log(c).
# ---------------------------------------------------------------------------

_MEL_BREAK_HZ = 1000.0
_MEL_SLOPE = 200.0 / 3.0
_MEL_LOG_STEP = math.log(6.4) / 27.0


def hz_to_mel(f):
    f = np.asarray(f, dtype=np.float64)
    mel = f / _MEL_SLOPE
    above = f >= _MEL_BREAK_HZ
    mel = np.where(above, 15.0 + np.log(np.maximum(f, _MEL_BREAK_HZ) / _MEL_BREAK_HZ) / _MEL_LOG_STEP, mel)
    return mel


def mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    f = m * _MEL_SLOPE
    above = m >= 15.0
    f = np.where(above, _MEL_BREAK_HZ * np.exp(_MEL_LOG_STEP * (m - 15.0)), f)
    return f


@dataclass(frozen=True)
class MelConfig:
    """Mel-spectrogram parameters; f_max=None means Nyquist at extraction time."""

    spectral: SpectralConfig = field(default_factory=SpectralConfig)
    n_mels: int = 80
    f_min: float = 0.0
    f_max: float | None = None
    log_floor: float = 1e-5

    def __post_init__(self):
        if self.n_mels < 1:
            raise ValueError("n_mels must be at least 1")
        if self.f_min < 0:
            raise ValueError("f_min must be non-negative")
        if self.f_max is not None and self.f_max <= self.f_min:
            raise ValueError("f_max must exceed f_min")
        if not (math.isfinite(self.log_floor) and self.log_floor > 0):
            raise ValueError(f"log_floor must be finite and positive, got {self.log_floor}")


def mel_band(sample_rate: int, cfg: MelConfig) -> tuple[float, float]:
    """The (f_min, f_max) band edges of cfg at this rate, f_max None meaning Nyquist."""
    f_min = float(cfg.f_min)
    f_max = float(cfg.f_max) if cfg.f_max is not None else sample_rate / 2.0
    if not (0 <= f_min < f_max <= sample_rate / 2):
        raise ValueError(
            f"mel band edges must satisfy 0 <= f_min < f_max <= {sample_rate / 2}, "
            f"got f_min={f_min} f_max={f_max}"
        )
    return f_min, f_max


@functools.lru_cache(maxsize=64)
def _mel_weights(sample_rate: int, fft_size: int, n_mels: int, f_min: float, f_max: float) -> np.ndarray:
    n_bins = fft_size // 2 + 1
    fft_freqs = np.linspace(0.0, sample_rate / 2.0, n_bins)
    mel_pts = np.linspace(hz_to_mel(f_min), hz_to_mel(f_max), n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)

    lower = (fft_freqs[None, :] - hz_pts[:-2, None]) / np.maximum(np.diff(hz_pts)[:-1, None], 1e-12)
    upper = (hz_pts[2:, None] - fft_freqs[None, :]) / np.maximum(np.diff(hz_pts)[1:, None], 1e-12)
    weights = np.maximum(0.0, np.minimum(lower, upper))
    weights *= (2.0 / (hz_pts[2:] - hz_pts[:-2]))[:, None]
    weights.flags.writeable = False
    return weights


def mel_filterbank(sample_rate: int, cfg: MelConfig) -> np.ndarray:
    """(n_mels, n_bins) triangular filterbank for the config at this rate."""
    return _mel_weights(int(sample_rate), cfg.spectral.fft_size, cfg.n_mels, *mel_band(sample_rate, cfg))


def log_mel(mag: np.ndarray, sample_rate: int, cfg: MelConfig) -> np.ndarray:
    """Log-compressed mel magnitudes of a magnitude STFT taken under cfg.spectral."""
    energies = mag @ mel_filterbank(sample_rate, cfg).T
    return np.log(np.maximum(energies, cfg.log_floor))


def mel_spectrogram(x: Waveform, cfg: MelConfig) -> np.ndarray:
    """Log-compressed mel magnitudes, shape (frames, n_mels)."""
    if len(x) == 0:
        raise ValueError("cannot take the mel spectrogram of an empty signal")
    return log_mel(stft_magnitude(x, cfg.spectral), x.sample_rate, cfg)
