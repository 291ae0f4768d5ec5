"""Shared signal builders for the test suite.

All generators are deterministic given their arguments; randomized tests
seed their own Generator so failures reproduce.
"""

import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from hnsynth.types import F0Contour, HarmonicAmplitudes, Waveform

# No example database: a run draws afresh and never replays a failing draw of
# an earlier run in the same checkout, so its result depends on the code alone.
# Every other setting keeps hypothesis's default or the test's own.
settings.register_profile("no-replay", database=None)
settings.load_profile("no-replay")


def sine(freq_hz, sr, seconds, amp=1.0, phase=0.0):
    t = np.arange(int(round(seconds * sr))) / sr
    return Waveform(amp * np.sin(2 * np.pi * freq_hz * t + phase), sr)


def harmonic_tone(f0_hz, sr, seconds, amps, wobble=0.0, wobble_hz=1.5):
    """Sum of harmonics k*f0 with amplitudes amps, optionally AM-wobbled.

    The wobble keeps the envelope smooth but non-constant, so analysis has to
    track a moving target instead of a single global gain.
    """
    t = np.arange(int(round(seconds * sr))) / sr
    env = 1.0 + wobble * np.sin(2 * np.pi * wobble_hz * t)
    x = np.zeros_like(t)
    for k, a in enumerate(amps, start=1):
        x += a * env * np.sin(2 * np.pi * k * f0_hz * t)
    return Waveform(x, sr)


def traced_peak(fn, *args, **kwargs):
    """(peak bytes tracemalloc sees allocated while fn(*args, **kwargs) runs, its result)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def version1_image(raw: bytes) -> bytes:
    """A saved bundle's bytes in the version-1 layout, which stored f0 as <f4.

    The header is the same JSON but for its version. The bundle's f0 must be
    float32-exact, as every f0 a version-1 file held was.
    """
    (header_len,) = struct.unpack("<I", raw[4:8])
    header, payload = json.loads(raw[8 : 8 + header_len]), raw[8 + header_len :]
    f0 = np.frombuffer(payload, dtype="<f8", count=header["frames"])
    assert np.array_equal(f0.astype(np.float32), f0)
    header["version"] = 1
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    return raw[:4] + struct.pack("<I", len(blob)) + blob + f0.astype("<f4").tobytes() + payload[f0.nbytes :]


def constant_contour(f0_hz, frames, hop):
    return F0Contour.from_values(np.full(frames, float(f0_hz)), hop)


def constant_amps(amps, frames):
    return HarmonicAmplitudes(np.tile(np.asarray(amps, dtype=float), (frames, 1)))


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)
