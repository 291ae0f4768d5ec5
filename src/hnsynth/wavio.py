"""WAV reading and writing with normalized float samples in memory.

Supported codecs are PCM16 and IEEE float; everything else raises
UnsupportedAudioError rather than guessing at a scale. Writes are atomic
(temp file + rename) so a crashed run never leaves a truncated WAV behind.
"""

from __future__ import annotations

import os
import warnings

import numpy as np
from scipy.io import wavfile

from .errors import FormatError, UnsupportedAudioError
from .ioutil import atomic_write
from .types import Waveform

WAV_FORMATS = ("pcm16", "float32")

_PCM16_SCALE = 32768.0


def read_wav(path) -> Waveform:
    """Load a mono waveform; stereo input is averaged to mono with a warning."""
    path = os.fspath(path)
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    with warnings.catch_warnings():
        # Chunk-alignment quirks from other tools are tolerable; codec or
        # header problems below are not.
        warnings.simplefilter("ignore", wavfile.WavFileWarning)
        try:
            rate, data = wavfile.read(path)
        except OSError:
            raise
        except ValueError as exc:
            message = str(exc)
            if "Unknown wave file format" in message or "Unsupported bit depth" in message:
                raise UnsupportedAudioError(f"{path}: {message}") from exc
            raise FormatError(f"{path}: {message}") from exc
        except Exception as exc:
            # wavfile.read lets a broken header surface as whatever its parse
            # trips over (ZeroDivisionError, struct.error, UnboundLocalError)
            raise FormatError(f"{path}: malformed WAV header: {exc!r}") from exc

    if data.ndim == 2:
        warnings.warn(f"{path}: averaging {data.shape[1]} channels to mono")
        data = data.mean(axis=1, dtype=np.float64)
    elif data.ndim != 1:
        raise FormatError(f"{path}: unexpected sample array of shape {data.shape}")

    if data.dtype == np.int16:
        samples = data.astype(np.float64) / _PCM16_SCALE
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise UnsupportedAudioError(
            f"{path}: unsupported sample format {data.dtype}; expected PCM16 or float"
        )
    if not np.isfinite(samples).all():
        raise FormatError(f"{path}: samples contain NaN or Inf")
    return Waveform(samples, int(rate))


def write_wav(x: Waveform, path, format: str = "float32") -> int:
    """Write the waveform, clipping to [-1, 1]; returns the clipped-sample count.

    PCM16 output quantizes with round-to-nearest, so a read_wav round trip is
    exact for float32 and within 1/32768 per sample for pcm16.
    """
    if format not in WAV_FORMATS:
        raise ValueError(f"unknown WAV format {format!r}, expected one of {WAV_FORMATS}")
    samples = x.samples
    clipped = int(np.count_nonzero((samples < -1.0) | (samples > 1.0)))
    samples = np.clip(samples, -1.0, 1.0)
    if format == "pcm16":
        data = np.clip(np.rint(samples * _PCM16_SCALE), -32768, 32767).astype(np.int16)
    else:
        data = samples.astype(np.float32)
    # the header stores rate * bytes per sample as a uint32 byte rate
    if x.sample_rate * data.itemsize >= 2**32:
        raise ValueError(f"a {format} WAV header cannot hold a rate of {x.sample_rate} Hz")
    with atomic_write(path) as fh:
        wavfile.write(fh, x.sample_rate, data)
    return clipped
