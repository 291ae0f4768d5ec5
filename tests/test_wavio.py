"""WAV round trips, codec handling, and atomic-write behavior."""

import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from hnsynth.errors import FormatError, UnsupportedAudioError
from hnsynth.ioutil import atomic_write
from hnsynth.types import Waveform
from hnsynth.wavio import WAV_FORMATS, quantize, read_wav, write_wav

from conftest import traced_peak


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


def test_pcm16_quantize_matches_the_clip_round_clip_formula_bit_for_bit(tmp_path):
    # at and one ulp past full scale, on every half-code boundary's two sides,
    # at the boundaries nearest the ends and at random values past them
    codes = np.arange(-32768, 32768)
    halves = (codes + 0.5) / 32768.0
    x = np.concatenate([
        [1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), 0.0, -0.0],
        halves, np.nextafter(halves, 2.0), np.nextafter(halves, -2.0),
        np.random.default_rng(1).uniform(-1.5, 1.5, 10_000),
    ])
    clipped = int(np.count_nonzero((x < -1.0) | (x > 1.0)))
    want = np.clip(np.rint(np.clip(x, -1.0, 1.0) * 32768.0), -32768, 32767) / 32768.0
    got, got_clipped = quantize(Waveform(x, 44100), "pcm16")
    assert got.samples.tobytes() == want.tobytes() and got_clipped == clipped
    assert write_wav(Waveform(x, 44100), tmp_path / "q.wav", "pcm16") == clipped
    data = (tmp_path / "q.wav").read_bytes()[-2 * len(x) :]
    assert data == (want * 32768.0).astype("<i2").tobytes()


def test_pcm16_write_holds_one_float_copy_of_a_15s_clip(tmp_path):
    # quantize clips into one float64 copy and rounds it in place, and the codes
    # are cast as they are made: 5 MiB of floats and 1.3 MiB of codes. Measured
    # 5.7 and 6.4 MiB, where three float64 copies alive at once read 15.1 MiB;
    # the bounds leave less than a second copy.
    x = Waveform(np.random.default_rng(2).uniform(-1.2, 1.2, 15 * 44100), 44100)
    assert traced_peak(quantize, x, "pcm16")[0] < 6 * 2**20
    assert traced_peak(write_wav, x, tmp_path / "x.wav", "pcm16")[0] < 8 * 2**20


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


def test_write_that_raises_midway_keeps_the_old_file_and_no_temp_file(tmp_path):
    # the temp file exists and holds part of the new bytes when the writer fails
    path = tmp_path / "x.bin"
    path.write_bytes(b"old bytes")
    with pytest.raises(RuntimeError, match="midway"):
        with atomic_write(path) as fh:
            fh.write(b"new")
            assert len(list(tmp_path.glob("x.bin.*.tmp"))) == 1
            raise RuntimeError("midway")
    assert path.read_bytes() == b"old bytes"
    assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]


def test_write_replaces_atomically(tmp_path, rng):
    path = tmp_path / "x.wav"
    write_wav(Waveform(np.zeros(10), 8000), path)
    write_wav(Waveform(rng.uniform(-1, 1, 20), 8000), path)
    assert len(read_wav(path)) == 20
    assert [p.name for p in tmp_path.iterdir()] == ["x.wav"]


# ------------------------------------------------- scipy.io.wavfile as reference
#
# _reference_read is read_wav as it stood on scipy.io.wavfile; the codec now in
# wavio must return the same rate and samples wherever it returned samples,
# and raise the same error class wherever it raised. The outcomes that differ
# on purpose each have a test below.


def _reference_read(path) -> Waveform:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            rate, data = wavfile.read(path)
        except ValueError as exc:
            message = str(exc)
            if "Unknown wave file format" in message or "Unsupported bit depth" in message:
                raise UnsupportedAudioError(message) from exc
            raise FormatError(message) from exc
        except Exception as exc:
            raise FormatError(repr(exc)) from exc
    if data.ndim == 2:
        data = data.mean(axis=1, dtype=np.float64)
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise UnsupportedAudioError(f"unsupported sample format {data.dtype}")
    if not np.isfinite(samples).all():
        raise FormatError("samples contain NaN or Inf")
    return Waveform(samples, int(rate))


def _outcome(read, path):
    """("ok", rate, samples) or the class of the error read raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            x = read(path)
        except FormatError as exc:
            return type(exc)
    return ("ok", x.sample_rate, x.samples.tobytes())


def _chunk(chunk_id: bytes, body: bytes) -> bytes:
    return chunk_id + struct.pack("<I", len(body)) + body + b"\0" * (len(body) % 2)


def _fmt(tag, channels, width, bits=None, rate=8000, extensible=False, ext_size=22, size=None):
    """Body of a fmt chunk; an EXTENSIBLE one carries tag in its subformat GUID."""
    bits = 8 * width if bits is None else bits
    block = channels * width
    body = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels, rate, rate * block, block, bits)
    if extensible:
        guid = struct.pack("<I", tag) + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
        body += struct.pack("<HHI", ext_size, bits, 0) + guid
    elif tag == 3:
        body += b"\0\0"
    return body if size is None else body[:size]


def _riff(*chunks: bytes, form=b"RIFF") -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return form + struct.pack("<I", len(body)) + body


CODECS = {"pcm16": (1, "<i2"), "float32": (3, "<f4"), "float64": (3, "<f8")}


def _samples(codec, n, seed=0):
    rng = np.random.default_rng(seed)
    if codec == "pcm16":
        return rng.integers(-32768, 32768, n).astype("<i2")
    return rng.uniform(-1, 1, n).astype(CODECS[codec][1])


def _wav(codec, channels=1, frames=9, extensible=False, before=(), after=(), **fmt):
    tag, dtype = CODECS[codec]
    data = _samples(codec, frames * channels)
    fmt_chunk = _chunk(b"fmt ", _fmt(tag, channels, np.dtype(dtype).itemsize, extensible=extensible, **fmt))
    return _riff(*before, fmt_chunk, _chunk(b"data", data.tobytes()), *after)


def _scipy_normalized(path):
    """scipy's samples scaled to [-1, 1) and averaged over channels."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rate, data = wavfile.read(path)
    samples = data / 32768.0 if data.dtype == np.int16 else data.astype(np.float64)
    return rate, samples.mean(axis=1) if samples.ndim == 2 else samples


EXTRA_CHUNKS = {
    "none": ((), ()),
    "list-before": ((_chunk(b"LIST", b"INFOabc"),), ()),
    "junk-and-odd-before": ((_chunk(b"JUNK", b"\0" * 6), _chunk(b"odd ", b"abc")), ()),
    "fact-before-list-after": ((_chunk(b"fact", struct.pack("<I", 9)),), (_chunk(b"LIST", b"x" * 9),)),
    "odd-after": ((), (_chunk(b"odd ", b"12345"), _chunk(b"JUNK", b""))),
}


@pytest.mark.parametrize("extra", EXTRA_CHUNKS)
@pytest.mark.parametrize("extensible", [False, True], ids=["plain", "extensible"])
@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("codec", CODECS)
def test_read_matches_scipy(tmp_path, codec, channels, extensible, extra):
    before, after = EXTRA_CHUNKS[extra]
    path = tmp_path / "x.wav"
    path.write_bytes(_wav(codec, channels, extensible=extensible, before=before, after=after))
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        x = read_wav(path)
    assert len(rec) == (channels > 1)
    rate, expected = _scipy_normalized(path)
    assert x.sample_rate == rate == 8000
    assert np.array_equal(x.samples, expected)
    if channels == 1 or codec != "pcm16":
        assert _outcome(read_wav, path) == _outcome(_reference_read, path)


def test_multichannel_pcm16_is_scaled_like_mono(tmp_path):
    # the scipy-based reader averaged the raw integers, so stereo PCM16 read
    # back 32768 times too loud
    path = tmp_path / "s.wav"
    wavfile.write(path, 8000, np.array([[16384, 16384], [-32768, 0]], dtype=np.int16))
    with pytest.warns(UserWarning, match="averaging 2 channels"):
        assert read_wav(path).samples.tolist() == [0.5, -0.5]


@pytest.mark.parametrize("cut", [1, 2, 3, 5])
@pytest.mark.parametrize("codec", CODECS)
def test_truncated_data_chunk_reads_whole_samples(tmp_path, codec, cut):
    path = tmp_path / "t.wav"
    path.write_bytes(_wav(codec, frames=9)[:-cut])
    assert _outcome(read_wav, path) == _outcome(_reference_read, path)
    width = np.dtype(CODECS[codec][1]).itemsize
    assert len(read_wav(path)) == (9 * width - cut) // width


def test_truncated_multichannel_frame_is_a_format_error(tmp_path):
    path = tmp_path / "t.wav"
    path.write_bytes(_wav("float32", channels=2)[:-4])
    assert _outcome(_reference_read, path) is FormatError
    with pytest.raises(FormatError):
        read_wav(path)


@pytest.mark.parametrize(
    "raw",
    [
        pytest.param(_riff(_chunk(b"data", b"\0" * 8), _chunk(b"fmt ", _fmt(1, 1, 2))), id="data-before-fmt"),
        pytest.param(_riff(_chunk(b"fmt ", _fmt(1, 1, 2))), id="no-data"),
        pytest.param(_riff(_chunk(b"fmt ", _fmt(1, 1, 2)[:14]), _chunk(b"data", b"")), id="short-fmt"),
        pytest.param(_riff(_chunk(b"fmt ", _fmt(1, 0, 2)), _chunk(b"data", b"\0" * 8)), id="zero-channels"),
        pytest.param(_wav("pcm16")[:28] + struct.pack("<I", 12345) + _wav("pcm16")[32:], id="pcm-byte-rate"),
        pytest.param(_wav("pcm16")[:30], id="cut-in-fmt"),
        pytest.param(_riff(_chunk(b"fmt ", _fmt(1, 1, 2)), b"da"), id="cut-in-chunk-id"),
        pytest.param(b"RIFF\x10\0\0\0WAVX" + b"\0" * 8, id="not-wave"),
        pytest.param(b"RIF", id="three-bytes"),
        pytest.param(_wav("pcm16", extensible=True, ext_size=10), id="extensible-short-extension"),
    ],
)
def test_malformed_headers_raise_format_error_as_before(tmp_path, raw):
    path = tmp_path / "m.wav"
    path.write_bytes(raw)
    assert _outcome(_reference_read, path) is FormatError
    with pytest.raises(FormatError) as err:
        read_wav(path)
    assert err.type is FormatError
    assert str(err.value).startswith(str(path))


@pytest.mark.parametrize(
    "fmt",
    [
        pytest.param(_fmt(1, 1, 1), id="pcm8"),
        pytest.param(_fmt(1, 1, 3), id="pcm24"),
        pytest.param(_fmt(1, 1, 4), id="pcm32"),
        pytest.param(_fmt(1, 1, 4, extensible=True), id="pcm32-extensible"),
        pytest.param(_fmt(3, 1, 2), id="float16"),
        pytest.param(_fmt(7, 1, 1), id="mu-law"),
        pytest.param(_fmt(0x55, 1, 2), id="mp3"),
        pytest.param(_fmt(1, 1, 2, extensible=True, size=16), id="extensible-without-extension"),
    ],
)
def test_other_codecs_raise_unsupported_as_before(tmp_path, fmt):
    path = tmp_path / "u.wav"
    path.write_bytes(_riff(_chunk(b"fmt ", fmt), _chunk(b"data", b"\0" * 24)))
    assert _outcome(_reference_read, path) is UnsupportedAudioError
    with pytest.raises(UnsupportedAudioError):
        read_wav(path)


def test_big_endian_rifx_is_unsupported_as_before(tmp_path):
    fmt = struct.pack(">HHIIHH", 1, 1, 8000, 16000, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack(">I", 16) + fmt + b"data" + struct.pack(">I", 8) + bytes(8)
    path = tmp_path / "be.wav"
    path.write_bytes(b"RIFX" + struct.pack(">I", len(body)) + body)
    assert _outcome(_reference_read, path) is UnsupportedAudioError
    with pytest.raises(UnsupportedAudioError):
        read_wav(path)


def test_rf64_reads_like_scipy(tmp_path):
    data = _samples("float32", 10)
    fmt = _chunk(b"fmt ", _fmt(3, 2, 4))
    rest = fmt + b"data\xff\xff\xff\xff" + data.tobytes()
    ds64 = _chunk(b"ds64", struct.pack("<QQQI", 4 + 36 + len(rest), data.nbytes, 5, 0))
    path = tmp_path / "big.wav"
    path.write_bytes(b"RF64\xff\xff\xff\xffWAVE" + ds64 + rest)
    assert _outcome(read_wav, path) == _outcome(_reference_read, path)
    with pytest.warns(UserWarning, match="averaging 2 channels"):
        assert len(read_wav(path)) == 5


# Outcomes that change on purpose (the exit code of `hnsynth analyze` in brackets).


@pytest.mark.parametrize("width", [1, 4])
def test_multichannel_integer_codecs_other_than_pcm16_are_unsupported(tmp_path, width):
    # were averaged as raw integers and accepted [0 -> 4]
    path = tmp_path / "i.wav"
    path.write_bytes(_riff(_chunk(b"fmt ", _fmt(1, 2, width)), _chunk(b"data", bytes(8 * width))))
    assert _outcome(_reference_read, path)[0] == "ok"
    with pytest.raises(UnsupportedAudioError):
        read_wav(path)


@pytest.mark.parametrize(
    "codec, bits",
    [("pcm16", 0), ("pcm16", 8), ("pcm16", 17), ("pcm16", 24), ("float32", 64), ("float64", 32)],
)
def test_bits_per_sample_must_fit_the_container(tmp_path, codec, bits):
    # a PCM16 container holds 9 to 16 valid bits and a float container exactly
    # its own width; scipy sized the samples by the container alone [0 -> 4]
    path = tmp_path / "b.wav"
    path.write_bytes(_wav(codec, bits=bits))
    with pytest.raises(UnsupportedAudioError):
        read_wav(path)
    path.write_bytes(_wav(codec, bits=12 if codec == "pcm16" else None))
    assert len(read_wav(path)) == 9


def test_extensible_subformat_must_lie_inside_the_fmt_chunk(tmp_path):
    # a 24-byte EXTENSIBLE fmt chunk claiming a 22-byte extension: scipy read
    # the subformat GUID from the bytes after the chunk [0 or 4 -> 4]
    raw = bytearray(_wav("pcm16", extensible=True))
    struct.pack_into("<I", raw, 16, 24)
    path = tmp_path / "e.wav"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_wav(path)


def test_data_chunk_of_a_partial_sample_is_skipped_whole(tmp_path):
    # scipy resumed the chunk walk after the whole samples plus a pad byte,
    # inside the chunk, and here read a chunk size from the last byte [4 -> 0]
    data = _samples("float32", 4).tobytes() + b"\x01\x02\x03"
    path = tmp_path / "p.wav"
    path.write_bytes(_riff(_chunk(b"fmt ", _fmt(3, 1, 4)), _chunk(b"data", data), b"ab"))
    assert _outcome(_reference_read, path) is FormatError
    assert len(read_wav(path)) == 4


def test_data_size_beyond_the_file_reads_what_is_there(tmp_path):
    # scipy allocated the claimed size up front, which fails for a corrupt
    # size field near 4 GiB of float64 samples [4 -> 0]
    data = _samples("float64", 6).tobytes()
    path = tmp_path / "d.wav"
    path.write_bytes(_riff(_chunk(b"fmt ", _fmt(3, 1, 8)), b"data" + struct.pack("<I", 0xFFFFFFF8) + data))
    assert np.array_equal(read_wav(path).samples, np.frombuffer(data))


def _damaged_wavs():
    base = st.sampled_from(
        [_wav(c, ch, extensible=e, before=EXTRA_CHUNKS[x][0], after=EXTRA_CHUNKS[x][1])
         for c in CODECS for ch in (1, 2) for e in (False, True) for x in ("none", "junk-and-odd-before", "odd-after")]
    )

    def damage(raw, cut, flips, at, byte):
        out = bytearray(raw[: len(raw) - cut])
        for bit in flips:
            if bit < 8 * len(out):
                out[bit // 8] ^= 1 << (bit % 8)
        if at < len(out):
            out[at] = byte
        return bytes(out)

    return st.builds(
        damage, base, st.just(0) | st.integers(0, 40), st.lists(st.integers(0, 8 * 90), max_size=2),
        st.integers(0, 200), st.integers(0, 255),
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=_damaged_wavs())
def test_damaged_wavs_read_like_scipy_or_raise_format_error(tmp_path, raw):
    path = tmp_path / "f.wav"
    path.write_bytes(raw)
    outcome = _outcome(read_wav, path)  # anything but FormatError propagates
    if not isinstance(outcome, tuple):
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            rate, expected = _scipy_normalized(path)
        except Exception:
            # scipy gives up on a data chunk of a partial sample, or on a
            # data size it cannot allocate; see the tests above
            return
    assert outcome[1] == rate
    assert np.array_equal(np.frombuffer(outcome[2]), expected)


@pytest.mark.parametrize("n", [0, 1, 7, 1000])
@pytest.mark.parametrize("fmt", WAV_FORMATS)
def test_written_files_are_byte_identical_to_scipy(tmp_path, fmt, n):
    x = np.random.default_rng(n).uniform(-1.2, 1.2, n)
    write_wav(Waveform(x, 44100), tmp_path / "a.wav", fmt)
    clipped = np.clip(x, -1.0, 1.0)
    if fmt == "pcm16":
        data = np.clip(np.rint(clipped * 32768.0), -32768, 32767).astype(np.int16)
    else:
        data = clipped.astype(np.float32)
    wavfile.write(tmp_path / "b.wav", 44100, data)
    assert (tmp_path / "a.wav").read_bytes() == (tmp_path / "b.wav").read_bytes()
