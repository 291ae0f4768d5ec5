"""Synthesis core: phase accumulation, harmonic bank, and noise branch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnsynth.analysis import estimate_initial_phases
from hnsynth import analysis, spectral, synth
from hnsynth.spectral import (
    FRAME_BLOCK,
    WINDOW_FAMILIES,
    SpectralConfig,
    default_spectral,
    frame_anchor,
    istft,
    stft,
)
from hnsynth.synth import (
    _BLOCK_ROWS,
    _SLICE_HARMONICS,
    _phasor_blocks,
    cumulative_phase,
    harmonic_synthesize,
    noise_synthesize,
)
from hnsynth.types import F0Contour, HarmonicAmplitudes, NoiseMagnitudeSpectrum, Waveform

from conftest import constant_amps, constant_contour, traced_peak


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
    # The output grid (5.3 MiB) sets the peak: the amplitude ramps, f0(n) and
    # its extended-precision running sum are laid out one block of rows at a
    # time, like the bank's sine matrix and sums. Measured 8.8 MiB; the bound
    # leaves 1.2 MiB, less than the whole-clip ramps (1 MiB each) or one
    # whole-length f0(n) or psi.
    contour, harmonics, sr = _dense_15s()
    assert traced_peak(harmonic_synthesize, contour, harmonics, sr)[0] < 10 * 2**20


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
    blocks = list(_phasor_blocks(contour, sr, k_max))
    # row r starts on the anchor of frame r - 1 and ends on that of frame r
    assert frame_anchor(blocks[0].rows.start - 1, hop) < 0
    assert frame_anchor(blocks[-1].rows.stop - 1, hop) > n
    assert blocks[1].k_free < 5 <= blocks[1].k_live
    assert 0 < np.count_nonzero(blocks[2].f0) < blocks[2].f0.size
    got = harmonic_synthesize(contour, harmonics, sr).samples
    assert np.abs(got - _frozen_bank(contour, harmonics, sr)).max() <= 1e-9


def _whole_phasor_blocks(f0, sample_rate, k_max):
    """The walk as it was with whole-length f0(n) and psi, each block cut from them."""
    hop = f0.hop_size
    nyquist = sample_rate / 2.0
    start, slope = _whole_segment_grid(f0.values, hop)
    f0n = slope[:, None] * np.arange(hop, dtype=np.float64)
    f0n += start[:, None]
    f0n = f0n.reshape(-1)
    f0n[: -frame_anchor(-1, hop)] = 0.0
    psi = cumulative_phase(f0n, sample_rate)
    total_rows = f0.frames + 1
    for r0 in range(0, total_rows, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, total_rows)
        samples = slice(r0 * hop, r1 * hop)
        f = f0n[samples]
        voiced = f > 0
        if not voiced.any():
            continue
        z = np.empty(f.size, dtype=np.complex128)
        np.cos(psi[samples], out=z.real)
        np.sin(psi[samples], out=z.imag)
        z[~voiced] = 0.0
        yield synth._Block(
            rows=slice(r0, r1),
            z=z,
            f0=f,
            nyquist=nyquist,
            k_free=synth._harmonics_below(float(f.max()), nyquist, k_max),
            k_live=synth._harmonics_below(float(f[voiced].min()), nyquist, k_max),
        )


@pytest.mark.parametrize("rows", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1, 7 * _BLOCK_ROWS])
def test_bank_block_walk_matches_whole_length_phase_bit_for_bit(rows, monkeypatch):
    # each block carries the extended-precision sum of f0(n) into the next, so
    # psi, every block's phasors and the render are those of one whole-length
    # sum; an unvoiced block in the middle still carries its (zero) sum
    sr, hop, k_max = 22050, 97, 9
    frames = rows - 1
    rng = np.random.default_rng(rows)
    f0 = rng.uniform(80.0, 700.0, frames).astype(np.float32).astype(np.float64)
    f0[frames // 3 : frames // 3 + _BLOCK_ROWS + 2] = 0.0
    contour = F0Contour.from_values(f0, hop)
    amps = HarmonicAmplitudes(rng.uniform(0.0, 0.5, (frames, k_max)))
    got, want = list(_phasor_blocks(contour, sr, k_max)), list(_whole_phasor_blocks(contour, sr, k_max))
    assert [b.rows for b in got] == [b.rows for b in want]
    for b, w in zip(got, want):
        assert np.array_equal(b.z, w.z) and np.array_equal(b.f0, w.f0)
        assert (b.k_free, b.k_live) == (w.k_free, w.k_live)
    got = harmonic_synthesize(contour, amps, sr).samples
    monkeypatch.setattr(synth, "_phasor_blocks", _whole_phasor_blocks)
    assert np.array_equal(got, harmonic_synthesize(contour, amps, sr).samples)


def _whole_segment_grid(frame_values, hop_size, rows=slice(None)):
    """The grid as it was built, every row from one whole-clip concatenation, then cut to rows."""
    ext = np.concatenate([frame_values[:1], frame_values, frame_values[-1:]], dtype=np.float64)
    return ext[:-1][rows], ((ext[1:] - ext[:-1]) / hop_size)[rows]


@pytest.mark.parametrize("frames", [1, 2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 5])
def test_block_amplitude_ramps_match_whole_clip_grid_bit_for_bit(frames, monkeypatch):
    # each block builds its rows' ramps from the float32 matrix alone: rows
    # r0 .. r1-1 read frames r0-1 .. r1-1, clipped to the contour
    sr, hop, k_max = 22050, 97, 9
    rng = np.random.default_rng(frames)
    contour = F0Contour.from_values(rng.uniform(80.0, 700.0, frames), hop)
    amps = HarmonicAmplitudes(rng.uniform(0.0, 0.5, (frames, k_max)))
    for values in (contour.values, amps.values):
        for r0 in range(0, frames + 1, _BLOCK_ROWS):
            rows = slice(r0, min(r0 + _BLOCK_ROWS, frames + 1))
            pairs = zip(synth._segment_grid(values, hop, rows), _whole_segment_grid(values, hop, rows))
            for got, want in pairs:
                assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    got = harmonic_synthesize(contour, amps, sr).samples
    monkeypatch.setattr(synth, "_segment_grid", _whole_segment_grid)
    assert got.tobytes() == harmonic_synthesize(contour, amps, sr).samples.tobytes()


@pytest.mark.parametrize("sr", [8000, 22050, 44100])
def test_harmonic_walk_silences_unvoiced_and_nyquist_pairs(sr):
    # block 0 holds a low pitch; block 1 glides to 0.2 * sr, so harmonics 3 and
    # up cross Nyquist inside it; block 2 has an unvoiced run in its middle. The
    # contour is voiced at both ends, so the grid samples before sample 0 are
    # silent because psi starts at sample 0, and the tail row past the last
    # sample holds the last frame's f0 like np.interp past the last anchor.
    rows, hop, k_max = _BLOCK_ROWS, 16, 12
    f0 = np.full(3 * rows, 0.02 * sr)
    f0[rows : 2 * rows] = np.linspace(0.03 * sr, 0.2 * sr, rows)
    f0[2 * rows + rows // 4 : 2 * rows + 3 * rows // 4] = 0.0
    lead = -frame_anchor(-1, hop)
    ks = np.array([1, 2, 3, 5, 6, 9, 12])  # sparse, so the walk steps over harmonics
    f0_samples = _frozen_interp(f0, hop, (f0.size + 1) * hop - lead)
    psi = _frozen_psi(f0_samples, sr)
    seen_free = seen_gated = seen_tail = False
    seen_before = 0
    for b in _phasor_blocks(F0Contour.from_values(f0, hop), sr, k_max):
        sample = np.arange(b.rows.start * hop, b.rows.stop * hop) - lead
        inside = sample >= 0
        f, phase = np.zeros(sample.size), np.zeros(sample.size)
        f[inside], phase[inside] = f0_samples[sample[inside]], psi[sample[inside]]
        for k, got in zip(ks, b.harmonics(ks)):
            live = inside & (f > 0) & (k * f < sr / 2)
            want = np.exp(1j * k * phase)
            assert np.abs(got[live] - want[live]).max(initial=0.0) <= 1e-9
            assert not got[~live].any()
            seen_free |= k <= b.k_free and not live.all()
            seen_gated |= k > b.k_free and live.any() and not live[f > 0].all()
            seen_tail |= bool(live[sample >= f0.size * hop].any())
        seen_before += np.count_nonzero(~inside)
    assert seen_free and seen_gated and seen_tail and seen_before == lead


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


def _tail_gated_phasor_blocks(f0, sample_rate, n, k_max):
    """The walk as it was for a signal of n samples: f0(n) is also 0 from sample n on."""
    hop = f0.hop_size
    nyquist = sample_rate / 2.0
    start, slope = _whole_segment_grid(f0.values, hop)
    offsets = np.arange(hop, dtype=np.float64)
    lead = -frame_anchor(-1, hop)
    total_rows = f0.frames + 1
    carry = np.longdouble(0.0)
    for r0 in range(0, total_rows, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, total_rows)
        f = slope[r0:r1, None] * offsets
        f += start[r0:r1, None]
        f = f.reshape(-1)
        f[: max(0, lead - r0 * hop)] = 0.0
        f[max(0, lead + n - r0 * hop) :] = 0.0
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
        yield synth._Block(
            rows=slice(r0, r1),
            z=z,
            f0=f,
            nyquist=nyquist,
            k_free=synth._harmonics_below(float(f.max()), nyquist, k_max),
            k_live=synth._harmonics_below(float(f[voiced].min()), nyquist, k_max),
        )


@pytest.mark.parametrize("frames", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 5])
def test_bank_matches_tail_gated_walk_bit_for_bit(frames, monkeypatch):
    # the grid's last block holds the tail row, voiced past the last sample; at
    # frames = _BLOCK_ROWS it holds that row alone. The walk no longer silences
    # the tail, which holds the last frame's f0 and so moves neither block cap,
    # and the bank crops it away
    sr, hop, k_max = 22050, 97, 9
    rng = np.random.default_rng(frames)
    f0 = rng.uniform(80.0, 700.0, frames)
    f0[frames // 3 : frames // 2] = 0.0
    contour = F0Contour.from_values(f0, hop)
    amps = HarmonicAmplitudes(rng.uniform(0.0, 0.5, (frames, k_max)))
    n, lead = frames * hop, -frame_anchor(-1, hop)
    got, want = list(_phasor_blocks(contour, sr, k_max)), list(_tail_gated_phasor_blocks(contour, sr, n, k_max))
    assert [b.rows for b in got] == [b.rows for b in want]
    assert got[-1].rows.stop == frames + 1 and got[-1].f0[-1] == f0[-1] > 0
    for b, w in zip(got, want):
        signal = slice(0, lead + n - b.rows.start * hop)  # the block's grid samples up to sample n
        assert np.array_equal(b.z[signal], w.z[signal]) and np.array_equal(b.f0[signal], w.f0[signal])
        assert (b.k_free, b.k_live) == (w.k_free, w.k_live)
    render = harmonic_synthesize(contour, amps, sr).samples
    monkeypatch.setattr(
        synth, "_phasor_blocks", lambda f0, sr, k_max: _tail_gated_phasor_blocks(f0, sr, f0.frames * f0.hop_size, k_max)
    )
    assert render.tobytes() == harmonic_synthesize(contour, amps, sr).samples.tobytes()


@settings(max_examples=60, deadline=None)
@given(extra=st.integers(min_value=-319, max_value=320), **_equivalence_cases)
def test_initial_phases_match_tail_gated_walk_bit_for_bit(sr, hop, frames, k_max, top, seed, extra):
    # x's grid is 0 past x's end, so the pairs the old walk silenced there add 0
    f0, _, rng = _random_features(seed, sr, hop, frames, k_max, top * sr)
    n = max(1, frames * hop + max(extra, 1 - hop))
    x = Waveform(rng.standard_normal(n), sr)
    got = estimate_initial_phases(x, f0, k_max)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            analysis,
            "_phasor_blocks",
            lambda f0, sr, k_max: _tail_gated_phasor_blocks(f0, sr, min(n, f0.frames * f0.hop_size), k_max),
        )
        assert got.tobytes() == estimate_initial_phases(x, f0, k_max).tobytes()


@pytest.mark.parametrize("frames", [0, 3, _BLOCK_ROWS + 2])
def test_silent_contours_render_zeros_and_zero_phases(frames):
    # a contour with no voiced frame walks no block: a zero-frame one renders no
    # sample and an all-unvoiced one frames * hop zeros
    sr, hop, k_max = 22050, 64, 5
    contour = F0Contour.from_values(np.zeros(frames), hop)
    amps = HarmonicAmplitudes(np.ones((frames, k_max)))
    assert list(_phasor_blocks(contour, sr, k_max)) == []
    out = harmonic_synthesize(contour, amps, sr).samples
    assert out.shape == (frames * hop,) and not out.any()
    x = Waveform(np.random.default_rng(frames).standard_normal(hop * 4), sr)
    phases = estimate_initial_phases(x, contour, k_max)
    assert phases.shape == (k_max,) and not phases.any()


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


def _frozen_istft(S, cfg, out_len):
    """Per-frame overlap-add: each windowed frame and its window energy added in frame order."""
    w = cfg.window_array()
    frames = np.fft.irfft(S, n=cfg.fft_size, axis=1) * w
    total = (len(S) - 1) * cfg.hop_size + cfg.fft_size
    acc, wsum = np.zeros(total), np.zeros(total)
    for m in range(len(S)):
        s = m * cfg.hop_size
        acc[s : s + cfg.fft_size] += frames[m]
        wsum[s : s + cfg.fft_size] += w * w
    out = np.where(wsum > 1e-11, acc / np.maximum(wsum, 1e-11), 0.0)[cfg.pad_left :]
    return np.pad(out[:out_len], (0, max(0, out_len - len(out))))


def _frozen_noise(noise, cfg, seed):
    """The noise branch with every product in a fresh array: phases, spectrum, windowed frames."""
    rng = np.random.default_rng(seed)
    phases = rng.uniform(-np.pi, np.pi, size=noise.values.shape)
    spec = noise.values * np.exp(1j * phases)
    return _frozen_istft(spec, cfg, noise.frames * cfg.hop_size)


# (fft, hop, win) at 2 to 6 hop-wide slices per frame; at 192, 224, 384 and 96
# the hop does not divide the FFT size, so the last slice is narrower. A
# 2048-point Hann window's energy falls below the normalization floor next to
# its zero, which a length past the frames reaches.
_ISTFT_SHAPES = [
    (512, 256, 512), (512, 192, 384), (1024, 256, 1024), (1024, 224, 896), (2048, 512, 2048), (2048, 384, 1536),
    (512, 96, 384),
]
# every window family at each shape where it overlap-adds to a constant
_ISTFT_CONFIGS = [
    cfg
    for cfg in (SpectralConfig(*shape, window=name) for name in WINDOW_FAMILIES for shape in _ISTFT_SHAPES)
    if cfg.is_cola()
]


@pytest.mark.parametrize(
    "cfg", _ISTFT_CONFIGS, ids=lambda c: f"{c.window}-{c.fft_size}/{c.hop_size}/{c.win_size}"
)
def test_istft_matches_frozen_per_frame_overlap_add_bit_for_bit(cfg):
    # lengths short of, at, and past the frames' coverage; whole arrays and
    # iterators of 7-frame blocks
    hop = cfg.hop_size
    for frames in [0, 1, 2, 3, 5, 64, 65, 130]:
        rng = np.random.default_rng(frames)
        S = rng.standard_normal((frames, cfg.n_bins)) + 1j * rng.standard_normal((frames, cfg.n_bins))
        for out_len in sorted({0, 1, frames * hop, max(0, frames * hop - 77), frames * hop + cfg.fft_size}):
            want = _frozen_istft(S, cfg, out_len).tobytes()
            assert istft(S, cfg, out_len).tobytes() == want
            blocks = iter([S[m : m + 7] for m in range(0, frames, 7)])
            assert istft(blocks, cfg, out_len).tobytes() == want


@pytest.mark.parametrize("block", [1, 7, 64, 10**6])
def test_noise_and_istft_do_not_depend_on_the_frame_block(monkeypatch, block):
    monkeypatch.setattr(spectral, "FRAME_BLOCK", block)
    monkeypatch.setattr(synth, "FRAME_BLOCK", block)
    for cfg in [SpectralConfig(fft_size=512, hop_size=96, win_size=384), default_spectral(22050)]:
        mags = NoiseMagnitudeSpectrum(np.random.default_rng(block).uniform(0, 0.02, (130, cfg.n_bins)))
        got = noise_synthesize(mags, cfg, seed=3, sample_rate=22050).samples
        assert got.tobytes() == _frozen_noise(mags, cfg, 3).tobytes()
        out_len = 131 * cfg.hop_size
        assert istft(mags.values, cfg, out_len).tobytes() == _frozen_istft(mags.values, cfg, out_len).tobytes()


@pytest.mark.parametrize("fft, hop, win", [(512, 128, 512), (1024, 256, 1024), (2048, 512, 1536)])
def test_noise_matches_frozen_two_expression_form_bit_for_bit(fft, hop, win):
    cfg = SpectralConfig(fft_size=fft, hop_size=hop, win_size=win)
    mags = NoiseMagnitudeSpectrum(np.random.default_rng(fft).uniform(0, 0.02, (37, cfg.n_bins)))
    got = noise_synthesize(mags, cfg, seed=11, sample_rate=22050).samples
    assert np.array_equal(got, _frozen_noise(mags, cfg, 11))


@pytest.mark.parametrize("frames", [FRAME_BLOCK - 1, FRAME_BLOCK, FRAME_BLOCK + 1, 2 * FRAME_BLOCK + 1])
@pytest.mark.parametrize("fft, hop, win", [(256, 64, 256), (512, 96, 384)])
def test_noise_blocks_match_whole_matrix_draw_bit_for_bit(frames, fft, hop, win):
    # the phases are drawn, inverted and overlap-added block by block; the draws
    # are one generator's in C order and each output sample sums its frames in
    # frame order, so the samples are those of one whole-matrix pass
    cfg = SpectralConfig(fft_size=fft, hop_size=hop, win_size=win)
    mags = NoiseMagnitudeSpectrum(np.random.default_rng(frames).uniform(0, 0.02, (frames, cfg.n_bins)))
    got = noise_synthesize(mags, cfg, seed=frames, sample_rate=22050).samples
    assert np.array_equal(got, _frozen_noise(mags, cfg, frames))


def test_noise_memory_holds_one_spectrum_less_dense_15s():
    # the magnitudes are 10 MiB and their complex spectrum would be 20 MiB; the
    # phases are drawn, inverted and overlap-added a block of frames at a time,
    # so the 5 MiB output and one block's buffers set the peak. Measured 9.2 MiB;
    # the bound leaves 2.8 MiB, less than a third of the magnitudes.
    cfg = default_spectral(44100)
    mags = NoiseMagnitudeSpectrum(np.random.default_rng(5).uniform(0, 0.01, (1292, cfg.n_bins)))
    assert np.array_equal(noise_synthesize(mags, cfg, 1, 44100).samples, _frozen_noise(mags, cfg, 1))
    assert traced_peak(noise_synthesize, mags, cfg, 1, 44100)[0] < 12 * 2**20


def test_noise_bin_count_must_match_config():
    cfg = SpectralConfig(fft_size=512, hop_size=128, win_size=512)
    with pytest.raises(ValueError):
        noise_synthesize(NoiseMagnitudeSpectrum(np.zeros((4, 100))), cfg, 0, 22050)

