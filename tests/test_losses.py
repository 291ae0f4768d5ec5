"""Losses and metrics against independent brute-force recomputation.

Each oracle below recomputes the quantity from first principles with plain
loops/ufuncs rather than calling back into the loss helpers.
"""

import math
import warnings

import numpy as np
import pytest

from hnsynth.losses import (
    DurationPair,
    LossWeights,
    aux_feature_loss,
    dsp_loss,
    duration_loss,
    duration_rmse,
    f0_rmse,
    mel_l1,
)
from hnsynth.spectral import MelConfig, default_spectral, mel_spectrogram
from hnsynth.types import F0Contour, Waveform

MEL = MelConfig(spectral=default_spectral(22050))


def random_wave(rng, n=6000, sr=22050):
    return Waveform(0.1 * rng.standard_normal(n), sr)


def random_contour(rng, frames=40, hop=256):
    values = np.where(rng.random(frames) > 0.3, rng.uniform(80, 700, frames), 0.0)
    return F0Contour.from_values(values, hop)


# ------------------------------------------------------------ weights

def test_weights_validated():
    LossWeights(lambda_dsp=0.0)
    with pytest.raises(ValueError):
        LossWeights(lambda_dsp=-1.0)
    with pytest.raises(ValueError):
        LossWeights(lambda_dsp=float("nan"))


def test_duration_pair_validated():
    DurationPair(np.array([1.0, 2.0]), np.array([3.0]))
    with pytest.raises(ValueError):
        DurationPair(np.array([1.0, -2.0]), np.array([3.0]))
    with pytest.raises(ValueError):
        DurationPair(np.array([[1.0]]), np.array([3.0]))


# ----------------------------------------------------------- dsp_loss

def test_dsp_loss_identity_and_zero_weight(rng):
    x = random_wave(rng)
    y = random_wave(rng)
    assert dsp_loss(x, x, MEL, LossWeights()) == 0.0
    assert dsp_loss(x, y, MEL, LossWeights(lambda_dsp=0.0)) == 0.0


def test_dsp_loss_matches_brute_force(rng):
    for _ in range(10):
        x, y = random_wave(rng), random_wave(rng)
        w = LossWeights(lambda_dsp=float(rng.uniform(0.5, 90)))
        a, b = mel_spectrogram(x, MEL), mel_spectrogram(y, MEL)
        total = 0.0
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                total += abs(a[i, j] - b[i, j])
        oracle = w.lambda_dsp * total / a.size
        assert abs(dsp_loss(x, y, MEL, w) - oracle) < 1e-9


def test_dsp_loss_symmetric_and_linear_in_weight(rng):
    x, y = random_wave(rng), random_wave(rng)
    assert dsp_loss(x, y, MEL, LossWeights()) == dsp_loss(y, x, MEL, LossWeights())
    one = dsp_loss(x, y, MEL, LossWeights(lambda_dsp=1.0))
    assert dsp_loss(x, y, MEL, LossWeights(lambda_dsp=7.0)) == pytest.approx(7 * one, rel=1e-12)


def test_dsp_loss_rejects_length_mismatch(rng):
    x = random_wave(rng, n=6000)
    y = random_wave(rng, n=5000)
    with pytest.raises(ValueError):
        dsp_loss(x, y, MEL, LossWeights())


# -------------------------------------------------- aux_feature_loss

def test_aux_feature_loss_identity(rng):
    lf0 = rng.uniform(4, 6, 30)
    voiced = rng.random(30) > 0.4
    mel = rng.standard_normal((30, 80))
    assert aux_feature_loss(lf0, lf0, voiced, mel, mel) == 0.0


def test_aux_feature_loss_constant_mel_offset(rng):
    lf0 = rng.uniform(4, 6, 30)
    voiced = rng.random(30) > 0.4
    mel = rng.standard_normal((30, 80))
    c = -0.73
    assert aux_feature_loss(lf0, lf0, voiced, mel, mel + c) == pytest.approx(abs(c))


def test_aux_feature_loss_matches_brute_force(rng):
    for _ in range(20):
        frames = int(rng.integers(5, 60))
        lf0_a = rng.uniform(4, 6, frames)
        lf0_b = rng.uniform(4, 6, frames)
        voiced = rng.random(frames) > 0.4
        if not voiced.any():
            voiced[0] = True
        mel_a = rng.standard_normal((frames, 20))
        mel_b = rng.standard_normal((frames, 20))
        sq = [(a - b) ** 2 for a, b, v in zip(lf0_a, lf0_b, voiced) if v]
        oracle = math.sqrt(sum(sq) / len(sq)) + np.mean(np.abs(mel_a - mel_b))
        got = aux_feature_loss(lf0_a, lf0_b, voiced, mel_a, mel_b)
        assert abs(got - oracle) < 1e-9


def test_aux_feature_loss_shape_mismatch(rng):
    with pytest.raises(ValueError):
        aux_feature_loss(np.zeros(5), np.zeros(6), np.ones(5, bool), np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        aux_feature_loss(np.zeros(5), np.zeros(5), np.ones(5, bool), np.zeros((2, 3)), np.zeros((2, 4)))


# ------------------------------------------------------ duration_loss

def test_duration_loss_identity_and_unit_offset(rng):
    phone = rng.uniform(1, 20, 12)
    note = rng.uniform(1, 40, 7)
    truth = DurationPair(phone, note)
    assert duration_loss(truth, truth) == 0.0
    off = DurationPair(phone + 1.0, note)
    assert duration_loss(off, truth) == pytest.approx(1.0)


def test_duration_loss_matches_brute_force(rng):
    for _ in range(20):
        np_, nn = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        pa, pb = rng.uniform(0, 50, np_), rng.uniform(0, 50, np_)
        na, nb = rng.uniform(0, 50, nn), rng.uniform(0, 50, nn)
        oracle = math.sqrt(np.mean((pa - pb) ** 2)) + math.sqrt(np.mean((na - nb) ** 2))
        got = duration_loss(DurationPair(pa, na), DurationPair(pb, nb))
        assert abs(got - oracle) < 1e-9


def test_duration_loss_length_mismatch(rng):
    a = DurationPair(rng.uniform(1, 5, 4), rng.uniform(1, 5, 3))
    b = DurationPair(rng.uniform(1, 5, 5), rng.uniform(1, 5, 3))
    with pytest.raises(ValueError):
        duration_loss(a, b)


# ----------------------------------------------------------- f0_rmse

def test_f0_rmse_identity_and_constant_offset(rng):
    values = rng.uniform(100, 400, 40)
    a = F0Contour.from_values(values, 256)
    b = F0Contour.from_values(values + 10.0, 256)
    assert f0_rmse(a, a) == 0.0
    assert f0_rmse(a, b) == pytest.approx(10.0)


def test_f0_rmse_mixed_voicing_matches_hand_computation(rng):
    for _ in range(20):
        frames = int(rng.integers(4, 50))
        va = np.where(rng.random(frames) > 0.3, rng.uniform(80, 600, frames), 0.0)
        vb = np.where(rng.random(frames) > 0.3, rng.uniform(80, 600, frames), 0.0)
        a = F0Contour.from_values(va, 256)
        b = F0Contour.from_values(vb, 256)
        both = [(x - y) ** 2 for x, y in zip(va, vb) if x > 0 and y > 0]
        if not both:
            continue
        oracle = math.sqrt(sum(both) / len(both))
        assert abs(f0_rmse(a, b) - oracle) < 1e-9


def test_f0_rmse_ignores_mutually_unvoiced_frames(rng):
    values = rng.uniform(100, 400, 30)
    mask = rng.random(30) > 0.5
    a = F0Contour.from_values(np.where(mask, values, 0.0), 256)
    b_full = F0Contour.from_values(values + 5.0, 256)
    # changing values on frames unvoiced in `a` cannot change the metric
    altered = np.where(mask, values + 5.0, 1234.0)
    b_altered = F0Contour.from_values(altered, 256)
    assert f0_rmse(a, b_full) == pytest.approx(f0_rmse(a, b_altered))


def test_f0_rmse_no_common_voiced_warns_and_returns_zero():
    a = F0Contour.from_values(np.array([220.0, 0.0, 220.0]), 256)
    b = F0Contour.from_values(np.array([0.0, 220.0, 0.0]), 256)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        assert f0_rmse(a, b) == 0.0
    assert len(rec) == 1


def test_f0_rmse_frame_count_mismatch():
    a = F0Contour.from_values(np.full(4, 220.0), 256)
    b = F0Contour.from_values(np.full(5, 220.0), 256)
    with pytest.raises(ValueError):
        f0_rmse(a, b)


# ------------------------------------------------------ duration_rmse

def test_duration_rmse_identity_and_offset(rng):
    phone = rng.uniform(1, 20, 10)
    note = rng.uniform(1, 20, 5)
    a = DurationPair(phone, note)
    b = DurationPair(phone + 2.0, note)
    assert duration_rmse(a, a) == 0.0
    assert duration_rmse(b, a) == pytest.approx(2.0)


def test_duration_rmse_matches_brute_force(rng):
    for _ in range(20):
        n = int(rng.integers(1, 40))
        pa, pb = rng.uniform(0, 60, n), rng.uniform(0, 60, n)
        note = rng.uniform(0, 60, 3)
        oracle = math.sqrt(sum((x - y) ** 2 for x, y in zip(pa, pb)) / n)
        got = duration_rmse(DurationPair(pa, note), DurationPair(pb, note))
        assert abs(got - oracle) < 1e-9


# -------------------------------------------------------------- mel_l1

def test_mel_l1_zero_on_identical(rng):
    x = random_wave(rng)
    assert mel_l1(x, x, MEL) == 0.0


def test_mel_l1_rejects_rate_mismatch(rng):
    x = random_wave(rng)
    y = Waveform(x.samples, 44100)
    with pytest.raises(ValueError):
        mel_l1(x, y, MEL)


def test_all_losses_nonnegative(rng):
    for _ in range(5):
        x, y = random_wave(rng), random_wave(rng)
        assert dsp_loss(x, y, MEL, LossWeights()) >= 0
        a, b = random_contour(rng), random_contour(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert f0_rmse(a, b) >= 0
