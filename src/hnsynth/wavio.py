"""WAV reading and writing with normalized float samples in memory.

Supported codecs are PCM16 and IEEE float (32 or 64 bit), with a plain or a
WAVE_FORMAT_EXTENSIBLE fmt chunk, in a RIFF or RF64 file of any channel
count. Any other codec raises UnsupportedAudioError rather than guessing at
a scale, and a header that does not parse raises FormatError. Writes are
atomic (temp file + rename) so a crashed run never leaves a truncated WAV
behind.
"""

from __future__ import annotations

import os
import struct
import warnings

import numpy as np

from .errors import FormatError, UnsupportedAudioError
from .ioutil import atomic_write
from .types import Waveform

WAV_FORMATS = ("pcm16", "float32")

_PCM16_SCALE = 32768.0

_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# An EXTENSIBLE subformat GUID is the format tag followed by these 12 bytes
# (RFC 2361, first three groups little-endian).
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# A RIFF size field counts the file after its first 8 bytes in a uint32.
_RIFF_MAX = 0xFFFFFFFF


def _unpack(fmt: str, buf: bytes, pos: int) -> tuple:
    try:
        return struct.unpack_from(fmt, buf, pos)
    except struct.error:
        raise FormatError(f"malformed WAV header: file ends inside a field at byte {pos}") from None


def _read_fmt(buf: bytes, pos: int) -> tuple[tuple, int]:
    """(tag, channels, rate, block_align, bits) of the fmt chunk whose size field is at pos."""
    (size,) = _unpack("<I", buf, pos)
    if size < 16:
        raise FormatError(f"fmt chunk of {size} bytes, need at least 16")
    body = pos + 4
    tag, channels, rate, byte_rate, block_align, bits = _unpack("<HHIIHH", buf, body)
    if tag == _EXTENSIBLE and size >= 18:
        (extra,) = _unpack("<H", buf, body + 16)
        if extra < 22 or size < 40:
            raise FormatError("WAVE_FORMAT_EXTENSIBLE fmt chunk is too short to hold its subformat")
        guid = buf[body + 24 : body + 40]
        if guid.endswith(_GUID_TAIL):
            tag = int.from_bytes(guid[:4], "little")
    if tag not in (_PCM, _IEEE_FLOAT):
        raise UnsupportedAudioError(f"unsupported WAV codec {tag:#06x}; expected PCM16 or IEEE float")
    if rate == 0:
        raise FormatError("sample rate of 0 Hz")
    if tag == _PCM and byte_rate != rate * block_align:
        raise FormatError(
            f"byte rate {byte_rate} is not sample rate {rate} times block align {block_align}"
        )
    return (tag, channels, rate, block_align, bits), body + size + (size & 1)


def _read_data(buf: bytes, pos: int, fmt: tuple, rf64_size: int | None) -> tuple[np.ndarray, int]:
    """Samples of the data chunk whose size field is at pos, (frames,) or (frames, channels).

    A data chunk cut short by the end of the file yields the samples it holds.
    """
    tag, channels, _, block_align, bits = fmt
    if rf64_size is None:
        (size,) = _unpack("<I", buf, pos)
    else:
        size = rf64_size  # the chunk's own size field is a placeholder
    pos += 4
    if channels == 0 or block_align < channels:
        raise FormatError(f"block align {block_align} cannot hold {channels} channels")
    width = block_align // channels
    if tag == _PCM and width == 2 and 8 < bits <= 16:
        dtype = "<i2"
    elif tag == _IEEE_FLOAT and width in (4, 8) and bits == 8 * width:
        dtype = f"<f{width}"
    else:
        kind = "integer" if tag == _PCM else "float"
        raise UnsupportedAudioError(
            f"unsupported {bits}-bit {kind} samples in {width}-byte containers; expected PCM16 or float"
        )
    count = min(size, len(buf) - pos) // width
    if count % channels:
        raise FormatError(f"data chunk ends inside a frame: {count} samples for {channels} channels")
    data = np.frombuffer(buf, dtype, count, pos)
    if channels > 1:
        data = data.reshape(-1, channels)
    return data, pos + size + (size & 1)


def _skip_chunk(buf: bytes, pos: int) -> int:
    if pos >= len(buf):  # a chunk id that ends the file has no size to skip
        return pos
    (size,) = _unpack("<I", buf, pos)
    return pos + 4 + size + (size & 1)


def _parse_wav(buf: bytes) -> tuple[int, np.ndarray]:
    """Sample rate and raw sample array of a WAV file image.

    Chunks are walked up to the end the RIFF header declares; chunks other
    than fmt and data are skipped, and the last data chunk wins.
    """
    riff, riff_size, wave = _unpack("<4sI4s", buf, 0)
    if riff == b"RIFX":
        raise UnsupportedAudioError("big-endian (RIFX) WAV files are not supported")
    if riff not in (b"RIFF", b"RF64"):
        raise FormatError(f"not a RIFF file: it starts with {riff!r}")
    if wave != b"WAVE":
        raise FormatError(f"RIFF form type is {wave!r}, not b'WAVE'")
    end, pos, rf64_size = riff_size + 8, 12, None
    if riff == b"RF64":
        # the ds64 chunk carries the 64-bit RIFF and data sizes
        ds64, ds64_size, riff_size64, rf64_size = _unpack("<4sIQQ", buf, 12)
        if ds64 != b"ds64":
            raise FormatError("RF64 file without a ds64 chunk")
        end, pos = riff_size64 + 8, 20 + ds64_size
    fmt = data = None
    while pos < end:
        chunk_id = buf[pos : pos + 4]
        if len(chunk_id) < 4:
            if data is None:
                raise FormatError("file ends before a data chunk")
            break
        if chunk_id == b"fmt ":
            fmt, pos = _read_fmt(buf, pos + 4)
        elif chunk_id == b"data":
            if fmt is None:
                raise FormatError("data chunk before the fmt chunk")
            data, pos = _read_data(buf, pos + 4, fmt, rf64_size)
        else:
            pos = _skip_chunk(buf, pos + 4)
    if data is None:
        raise FormatError("no data chunk within the RIFF size")
    return fmt[2], data


def read_wav(path) -> Waveform:
    """Load a mono waveform; multi-channel input is averaged to mono with a warning."""
    path = os.fspath(path)
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, "rb") as fh:
        buf = fh.read()
    try:
        rate, data = _parse_wav(buf)
    except FormatError as exc:
        raise type(exc)(f"{path}: {exc}") from None

    if data.dtype.kind == "i":
        samples = data / _PCM16_SCALE
    else:
        samples = data.astype(np.float64)
    if samples.ndim == 2:
        warnings.warn(f"{path}: averaging {samples.shape[1]} channels to mono")
        samples = samples.mean(axis=1)
    if not np.isfinite(samples).all():
        raise FormatError(f"{path}: samples contain NaN or Inf")
    return Waveform(samples, rate)


def quantize(x: Waveform, format: str) -> tuple[Waveform, int]:
    """x clipped to [-1, 1] and rounded as a WAV of this format stores it, and the clipped count.

    read_wav of the file write_wav makes from x returns exactly these samples.
    """
    if format not in WAV_FORMATS:
        raise ValueError(f"unknown WAV format {format!r}, expected one of {WAV_FORMATS}")
    clipped = int(np.count_nonzero(x.samples < -1.0) + np.count_nonzero(x.samples > 1.0))
    samples = np.clip(x.samples, -1.0, 1.0)
    if format == "pcm16":
        # scaled, rounded, clipped to the codes and scaled back in the one copy
        samples *= _PCM16_SCALE
        np.rint(samples, out=samples)
        np.clip(samples, -32768, 32767, out=samples)
        samples /= _PCM16_SCALE
    else:
        samples = samples.astype(np.float32)  # Waveform widens it back to float64 exactly
    return Waveform(samples, x.sample_rate), clipped


def write_wav(x: Waveform, path, format: str = "float32") -> int:
    """Write quantize(x, format) to path; returns the clipped-sample count.

    The file is a canonical mono RIFF WAV: a 16-byte PCM fmt chunk, or for
    float32 an 18-byte fmt chunk and a fact chunk holding the frame count.
    """
    quantized, clipped = quantize(x, format)
    if format == "pcm16":
        # the codes, exact in float64, are cast as the product is made: no float64 temporary
        data = np.empty(len(quantized), dtype="<i2")
        np.multiply(quantized.samples, _PCM16_SCALE, out=data, casting="unsafe")
        tag, cb_size, fact = _PCM, b"", b""
    else:
        data = quantized.samples.astype("<f4")
        tag, cb_size, fact = _IEEE_FLOAT, b"\x00\x00", b"fact" + struct.pack("<II", 4, len(data))
    # the header stores rate * bytes per sample as a uint32 byte rate
    if x.sample_rate * data.itemsize >= 2**32:
        raise ValueError(f"a {format} WAV header cannot hold a rate of {x.sample_rate} Hz")
    width = data.itemsize
    fmt = struct.pack("<HHIIHH", tag, 1, x.sample_rate, x.sample_rate * width, width, 8 * width) + cb_size
    body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt + fact + b"data" + struct.pack("<I", data.nbytes)
    if len(body) + data.nbytes > _RIFF_MAX:
        raise ValueError(f"{data.nbytes} bytes of samples do not fit a RIFF WAV file")
    with atomic_write(path) as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(body) + data.nbytes) + body)
        fh.write(data.data)
    return clipped
