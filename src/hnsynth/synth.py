"""Deterministic synthesis of periodic and aperiodic waveform components.

The harmonic bank renders y(n) = sum_k H_k(n) sin(phi_k(n)) with
phi_k(n) = k*psi(n), where psi is the running sum of the per-sample
fundamental frequency (inclusive of sample n, i.e. psi(n) covers samples
0..n) accumulated once, in extended precision, with cumulative_phase's
arithmetic. No phase is stored or passed: every harmonic starts from the
accumulated f0 alone.

Frame values reach the samples through one segment grid: the output is laid
out as frames + 1 rows of hop samples whose boundaries fall on the frame
anchors (spectral.frame_anchor), so row r holds the linear ramp from frame
r-1 to frame r (row 0 is the constant lead-in, the last row the constant tail).
One row index and one in-row offset then serve f0 and every amplitude column
alike, with the arithmetic of np.interp over the anchors: offset j of row r
reads start[r] + slope[r] * j. The grid runs past the signal at both ends:
row 0 starts hop - hop//2 samples before sample 0, and the tail row ends past
the last sample. A walk lays f0(n) out on whole rows of the contour's grid
alone and sets it to 0 on the grid samples before sample 0, so psi starts at
sample 0 and those samples count as unvoiced like any other; the bank's stream
crops the signal's samples from the grid's rows as it passes them on.

The bank walks the grid in blocks of a few dozen whole rows and yields each
block's finished rows (harmonic_chunks), so it holds no whole-clip grid. Each
block lays out its own f0(n) and continues the extended-precision sum of f0(n)
from the block before, adding the carry to its first sample ahead of the running sum, so
psi is bit for bit that of one whole-length sum and no whole-length f0(n) or
psi is held. In each block one walker, _Block.harmonics, takes z = e^{i psi(n)}
once and steps the phasor recurrence z_k = z_{k-1} * z from ones, so sin(phi_k)
is Im(z_k) and no harmonic calls sin; each live harmonic fills one row of a
(harmonics, block samples) sine matrix. The walker alone silences (sample,
harmonic) pairs, for the bank and the read-only phase diagnostic
(analysis.estimate_initial_phases) alike: z is 0 on unvoiced samples, and pairs
whose k*f0(n) reaches Nyquist are zeroed. The cap is per block: harmonics at or
above Nyquist / (block's min voiced f0) are never walked, and only those at or
above Nyquist / (block's max f0) pay for the per-sample mask. A global cap
cannot replace this, because interpolation ramps f0 to zero across half a hop
into unvoiced frames, so every harmonic is live somewhere near every gap. Zero
amplitude columns are skipped block by block.

Harmonic k's amplitude reads start_k[r] + slope_k[r] * j, so the amplitudes
are applied by a batched matrix product: the (rows, 2, harmonics) start and
slope coefficients times the sine matrix give sum_k start_k[r] sin(phi_k) and
sum_k slope_k[r] sin(phi_k) for every sample of row r, and the ramp is
applied once per sample, not once per harmonic. The matrix is filled and
contracted a slice of a few harmonics at a time, the partial sums adding up,
so each slice is still in cache when it is read back.

The noise branch inverts a magnitude spectrogram with uniformly random phase,
a block of spectral.FRAME_BLOCK frames at a time: each block draws its phases,
is inverted and is overlap-added before the next is drawn, and the rows it
finishes are passed on (noise_chunks). The draws come from one generator in C
order, so they are those of one whole-matrix draw.
Both branches are pure functions; the noise branch is pure given its seed.
Each is a stream of output chunks, and harmonic_synthesize and
noise_synthesize join them. Neither reads the other's output or any shared
state, so features.render_chunks runs them concurrently, the bank on a helper
thread and the noise branch on the caller's, and sums them chunk by chunk into
the same bytes as a serial run.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .spectral import FRAME_BLOCK, SpectralConfig, frame_anchor, grid_samples, istft_chunks, join_chunks
from .types import F0Contour, HarmonicAmplitudes, NoiseMagnitudeSpectrum, Waveform

# Grid rows per block: enough to amortize numpy's per-call overhead, few enough
# that the per-block temporaries stay a small fraction of one full-length array.
_BLOCK_ROWS = 32

# Harmonics per slice of the bank's sine matrix: 8 rows of a 32-row block of
# 512-sample rows are 1 MiB, so each slice is filled and contracted in cache.
_SLICE_HARMONICS = 8


def _segment_grid(frame_values: np.ndarray, hop_size: int, rows: slice) -> tuple[np.ndarray, np.ndarray]:
    """Start value and per-sample slope of the given rows of the segment grid.

    frame_values is (frames,) or (frames, columns), of any float dtype; the grid
    has frames + 1 rows, and both results are float64 with one row per row
    asked for. Row r runs from the anchor of frame r-1 to that of frame r, the
    frame indices clipped to the contour, and offset j of row r reads
    start[r] + slope[r] * j, which is np.interp's own arithmetic for the frame
    anchors.
    """
    frames = len(frame_values)
    ext = frame_values[np.clip(np.arange(rows.start - 1, rows.stop), 0, frames - 1)].astype(np.float64, copy=False)
    return ext[:-1], (ext[1:] - ext[:-1]) / hop_size


def cumulative_phase(f, sample_rate: int) -> np.ndarray:
    """Unwrapped phase 2*pi * cumsum(f)/Sr, accumulated in extended precision.

    The sum is inclusive: the phase at sample n covers frequency samples 0..n.
    """
    f = np.ascontiguousarray(f, dtype=np.float64)
    if f.size and not np.isfinite(f).all():
        raise ValueError("frequencies must be finite")
    if f.size and f.min() < 0:
        raise ValueError("frequencies must be non-negative")
    if sample_rate <= 0:
        raise ValueError("sample_rate must be positive")
    # in place, so the extended-precision buffer exists once
    phase = f.astype(np.longdouble)
    np.cumsum(phase, out=phase)
    phase /= sample_rate
    phase *= 2 * np.pi
    return phase.astype(np.float64)


def _harmonics_below(f: float, nyquist: float, k_max: int) -> int:
    """How many of k = 1..k_max keep k*f < nyquist, by the gate's own float product."""
    return int(np.searchsorted(np.arange(1, k_max + 1) * f, nyquist))


class _Block(NamedTuple):
    """One block of whole segment-grid rows, as the harmonic walks need it."""

    rows: slice  # grid rows of the block
    z: np.ndarray  # e^{i psi(n)} over the rows' samples, 0 on unvoiced samples
    f0: np.ndarray  # f0(n) over the rows' samples, 0 before sample 0
    nyquist: float
    k_free: int  # harmonics 1..k_free stay below Nyquist on every sample
    k_live: int  # harmonics above k_live reach Nyquist on every voiced sample

    def harmonics(self, ks):
        """Yield z^k for each k of ks (ascending), stepped in one buffer from ones.

        Unvoiced pairs (z is 0) and pairs whose k*f0(n) reaches Nyquist are exactly
        0; a sample at Nyquist for k is so for every higher k, so its zero carries on.
        """
        zk = np.ones_like(self.z)
        k = 0
        for k_next in ks:
            while k < k_next:
                zk *= self.z
                k += 1
            if k > self.k_free:
                zk[k * self.f0 >= self.nyquist] = 0.0
            yield zk


def _phasor_blocks(f0: F0Contour, sample_rate: int, k_max: int):
    """Walk the contour's segment grid in blocks of _BLOCK_ROWS whole rows.

    f0(n) is 0 on the grid samples before sample 0, which sets psi's origin.
    Each block lays out its own rows of f0(n) and continues the
    extended-precision running sum of the blocks before it, so psi(n) is bit
    for bit cumulative_phase of the whole-grid f0(n). Yields a _Block for every
    block with a voiced sample; the others carry no harmonic.
    """
    if not f0.voiced.any():
        return
    hop = f0.hop_size
    nyquist = sample_rate / 2.0
    offsets = np.arange(hop, dtype=np.float64)
    lead = -frame_anchor(-1, hop)  # grid samples before sample 0
    total_rows = f0.frames + 1
    carry = np.longdouble(0.0)  # sum of f0(n) over the blocks before this one
    for r0 in range(0, total_rows, _BLOCK_ROWS):
        rows = slice(r0, min(r0 + _BLOCK_ROWS, total_rows))
        start, slope = _segment_grid(f0.values, hop, rows)
        f = slope[:, None] * offsets
        f += start[:, None]
        f = f.reshape(-1)
        f[: max(0, lead - r0 * hop)] = 0.0  # psi starts at sample 0
        # cumulative_phase's arithmetic, with the carry added to the first
        # sample before the sum, the order in which one whole-length sum adds it
        psi = f.astype(np.longdouble)
        psi[0] += carry
        np.cumsum(psi, out=psi)
        carry = psi[-1]
        voiced = f > 0
        if not voiced.any():
            continue
        psi /= sample_rate
        psi *= 2 * np.pi
        psi = psi.astype(np.float64)
        z = np.empty(f.size, dtype=np.complex128)
        np.cos(psi, out=z.real)
        np.sin(psi, out=z.imag)
        z[~voiced] = 0.0
        yield _Block(
            rows=rows,
            z=z,
            f0=f,
            nyquist=nyquist,
            k_free=_harmonics_below(float(f.max()), nyquist, k_max),
            k_live=_harmonics_below(float(f[voiced].min()), nyquist, k_max),
        )


def _bank_rows(f0: F0Contour, amplitudes: HarmonicAmplitudes, sample_rate: int):
    """The bank's segment grid, frames + 1 rows of hop samples, a block of _BLOCK_ROWS rows at a time.

    A block with no voiced sample or no live harmonic is zeros.
    """
    hop = f0.hop_size
    offsets = np.arange(hop, dtype=np.float64)
    total_rows = f0.frames + 1
    # one buffer for every block's sine matrix: a block allocating its own
    # while the last one is still bound would hold two
    sine_buf = np.empty(_SLICE_HARMONICS * _BLOCK_ROWS * hop)
    voiced = _phasor_blocks(f0, sample_rate, amplitudes.k_max)
    b = next(voiced, None)
    for r0 in range(0, total_rows, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, total_rows - r0)
        if b is None or b.rows.start != r0:
            yield np.zeros((rows, hop))
            continue
        # the block's amplitude ramps alone, from the float32 matrix
        start, slope = _segment_grid(amplitudes.values, hop, b.rows)
        live = (start != 0).any(axis=0) | (slope != 0).any(axis=0)
        ks = np.flatnonzero(live[: b.k_live]) + 1
        coef = np.stack((start[:, ks - 1], slope[:, ks - 1]), axis=1)
        # one row of sin(k psi) per live harmonic of the slice
        sines = sine_buf[: min(ks.size, _SLICE_HARMONICS) * rows * hop].reshape(-1, rows * hop)
        sums = np.zeros((rows, 2, hop))
        walk = b.harmonics(ks)
        for first in range(0, ks.size, _SLICE_HARMONICS):
            part = ks[first : first + _SLICE_HARMONICS]
            # range first, so zip stops at the slice's end without stepping the walk
            for row, zk in zip(range(part.size), walk):
                np.copyto(sines[row], zk.imag)
            # (rows, 2, harmonics) @ (rows, harmonics, hop): per row, the sums
            # over the slice's harmonics of start * sine and slope * sine
            block = sines[: part.size].reshape(part.size, rows, hop).transpose(1, 0, 2)
            sums += coef[:, :, first : first + part.size] @ block
        ramp = sums[:, 1] * offsets + sums[:, 0]
        # the block's phasors and sums go before the next block's are made
        del b, walk, sums
        yield ramp
        b = next(voiced, None)


def harmonic_chunks(f0: F0Contour, amplitudes: HarmonicAmplitudes, sample_rate: int):
    """harmonic_synthesize's samples as a stream of chunks, one per block of grid rows.

    The inputs are checked when it is called; each chunk is made when it is asked for.
    """
    if sample_rate <= 0:
        raise ValueError("sample_rate must be positive")
    if amplitudes.frames != f0.frames:
        raise ValueError(
            f"frame count mismatch: f0 has {f0.frames} frames, amplitudes {amplitudes.frames}"
        )
    if f0.values.size and f0.values.max() >= sample_rate / 2.0:
        raise ValueError("f0 values must stay below Nyquist for this sample rate")
    lead = -frame_anchor(-1, f0.hop_size)  # grid samples before sample 0
    return grid_samples(_bank_rows(f0, amplitudes, sample_rate), lead, f0.frames * f0.hop_size)


def harmonic_synthesize(
    f0: F0Contour,
    amplitudes: HarmonicAmplitudes,
    sample_rate: int,
) -> Waveform:
    """Render the sinusoidal bank driven by frame-level f0 and amplitudes.

    Output length is frames * hop_size. Any (sample, harmonic) pair whose
    frequency k*f0(n) reaches Nyquist contributes exactly zero, as do all
    harmonics wherever the interpolated f0 is zero (unvoiced regions).
    It is harmonic_chunks' stream, joined.
    """
    n = f0.frames * f0.hop_size
    return Waveform(join_chunks(harmonic_chunks(f0, amplitudes, sample_rate), n), sample_rate)


def _random_phase(rng: np.random.Generator, mags: np.ndarray) -> np.ndarray:
    """mags times e^{i phase}, with a phase drawn uniformly in [-pi, pi) for each value."""
    phases = rng.uniform(-np.pi, np.pi, size=mags.shape)
    # e^{i phase} as cos and sin into one complex buffer, bit for bit np.exp(1j * phase)
    spec = np.empty(mags.shape, dtype=np.complex128)
    np.cos(phases, out=spec.real)
    np.sin(phases, out=spec.imag)
    spec *= mags
    return spec


def noise_chunks(noise: NoiseMagnitudeSpectrum, spectral: SpectralConfig, seed: int):
    """noise_synthesize's samples as a stream of chunks, one per block of spectral.FRAME_BLOCK frames.

    The inputs are checked when it is called; each block's phases are drawn
    when its chunk is asked for.
    """
    if noise.bins != spectral.n_bins:
        raise ValueError(
            f"noise spectrum has {noise.bins} bins but config expects {spectral.n_bins}"
        )
    rng = np.random.default_rng(seed)
    # uniform fills in C order, so drawing block after block from one
    # generator gives each frame the phases of one whole-matrix draw
    spectra = (
        _random_phase(rng, noise.values[first : first + FRAME_BLOCK]) for first in range(0, noise.frames, FRAME_BLOCK)
    )
    return istft_chunks(spectra, spectral, noise.frames * spectral.hop_size)


def noise_synthesize(
    noise: NoiseMagnitudeSpectrum,
    spectral: SpectralConfig,
    seed: int,
    sample_rate: int,
) -> Waveform:
    """Inverse-STFT of the magnitude matrix under i.i.d. uniform random phase.

    The phase matrix is drawn from a generator seeded with `seed`, so identical
    (noise, spectral, seed) inputs produce bit-identical output. Output length
    is frames * hop_size, matching the harmonic branch for the same framing.
    It is noise_chunks' stream, joined.
    """
    n = noise.frames * spectral.hop_size
    return Waveform(join_chunks(noise_chunks(noise, spectral, seed), n), sample_rate)
