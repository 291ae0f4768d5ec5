"""WAV round trips, codec handling, and atomic-write behavior."""

import os
import warnings

import numpy as np
import pytest
from scipy.io import wavfile

from hnsynth.errors import FormatError, UnsupportedAudioError
from hnsynth.types import Waveform
from hnsynth.wavio import read_wav, write_wav


def test_float32_round_trip_exact(tmp_path, rng):
    x = Waveform(rng.uniform(-1, 1, 5000), 44100)
    path = tmp_path / "x.wav"
    clipped = write_wav(x, path, "float32")
    y = read_wav(path)
    assert clipped == 0
    assert y.sample_rate == 44100
    assert np.abs(y.samples - x.samples).max() < 1e-7


def test_pcm16_round_trip_within_quantization(tmp_path, rng):
    x = Waveform(rng.uniform(-1, 1, 5000), 22050)
    path = tmp_path / "x.wav"
    write_wav(x, path, "pcm16")
    y = read_wav(path)
    assert np.abs(y.samples - x.samples).max() <= 1 / 32768


def test_pcm16_full_scale_survives(tmp_path):
    x = Waveform(np.array([1.0, -1.0, 0.0]), 8000)
    path = tmp_path / "x.wav"
    assert write_wav(x, path, "pcm16") == 0
    y = read_wav(path)
    assert np.abs(y.samples - x.samples).max() <= 1 / 32768


def test_all_zero_pcm16_reads_back_as_zeros(tmp_path):
    path = tmp_path / "z.wav"
    wavfile.write(path, 8000, np.zeros(321, dtype=np.int16))
    y = read_wav(path)
    assert len(y) == 321
    assert np.abs(y.samples).max() == 0.0


def test_44100_reports_its_rate(tmp_path):
    path = tmp_path / "r.wav"
    wavfile.write(path, 44100, np.zeros(100, dtype=np.int16))
    assert read_wav(path).sample_rate == 44100


def test_clipping_reported(tmp_path):
    x = Waveform(np.array([0.0, 1.5, -2.0, 0.9]), 8000)
    path = tmp_path / "c.wav"
    assert write_wav(x, path, "pcm16") == 2
    y = read_wav(path)
    assert y.samples.max() <= 1.0
    assert y.samples.min() >= -1.0


def test_empty_waveform_writes_valid_file(tmp_path):
    path = tmp_path / "e.wav"
    write_wav(Waveform(np.zeros(0), 22050), path)
    y = read_wav(path)
    assert len(y) == 0
    assert y.sample_rate == 22050


def test_stereo_downmixes_with_warning(tmp_path):
    path = tmp_path / "s.wav"
    left = np.full(50, 0.5, dtype=np.float32)
    right = np.full(50, -0.25, dtype=np.float32)
    wavfile.write(path, 16000, np.stack([left, right], axis=1))
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        y = read_wav(path)
    assert len(rec) == 1
    assert np.allclose(y.samples, 0.125)


def test_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_wav(tmp_path / "absent.wav")


def test_malformed_header_raises_format_error(tmp_path):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"definitely not RIFF data")
    with pytest.raises(FormatError):
        read_wav(path)


def test_unsupported_codec_raises_distinct_error(tmp_path):
    path = tmp_path / "u8.wav"
    wavfile.write(path, 8000, np.full(10, 128, dtype=np.uint8))
    with pytest.raises(UnsupportedAudioError):
        read_wav(path)


def test_unknown_write_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_wav(Waveform(np.zeros(10), 8000), tmp_path / "x.wav", "pcm24")


@pytest.mark.parametrize("fmt, rate", [("float32", 2**30), ("pcm16", 2**31)])
def test_rate_beyond_the_header_byte_rate_rejected(tmp_path, fmt, rate):
    with pytest.raises(ValueError):
        write_wav(Waveform(np.zeros(10), rate), tmp_path / "x.wav", fmt)
    assert list(tmp_path.iterdir()) == []
    write_wav(Waveform(np.zeros(10), rate - 1), tmp_path / "x.wav", fmt)
    assert read_wav(tmp_path / "x.wav").sample_rate == rate - 1


def test_failed_write_leaves_no_partial_file(tmp_path, rng):
    x = Waveform(rng.uniform(-1, 1, 100), 8000)
    target = tmp_path / "nodir" / "x.wav"
    with pytest.raises(OSError):
        write_wav(x, target)
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []  # no stray temp files


def test_write_replaces_atomically(tmp_path, rng):
    path = tmp_path / "x.wav"
    write_wav(Waveform(np.zeros(10), 8000), path)
    write_wav(Waveform(rng.uniform(-1, 1, 20), 8000), path)
    assert len(read_wav(path)) == 20
    assert [p.name for p in tmp_path.iterdir()] == ["x.wav"]
