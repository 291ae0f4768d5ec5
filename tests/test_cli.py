"""CLI subcommands end to end: exit codes, reports, determinism, atomicity."""

import json
import math
import os
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from hnsynth import analysis, cli, features, spectral
from hnsynth.cli import cli_main
from hnsynth.config import build_tool_config, parse_config_file
from hnsynth.features import MAGIC, FeatureBundle, load_features, save_features
from hnsynth.losses import mel_l1
from hnsynth.types import F0Contour, HarmonicAmplitudes, NoiseMagnitudeSpectrum, Waveform
from hnsynth.wavio import read_wav, write_wav

from conftest import harmonic_tone, version1_image

SR = 22050


@pytest.fixture
def tone_wav(tmp_path):
    x = harmonic_tone(220.0, SR, 2.0, [0.5, 0.3, 0.2, 0.1], wobble=0.2)
    path = tmp_path / "tone.wav"
    write_wav(x, path)
    return path


def _run_module(*argv):
    """`python -m hnsynth.cli ARGV` in a fresh interpreter that finds the package's source."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "hnsynth.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )


def test_python_dash_m_runs_the_cli(tmp_path):
    version = _run_module("--version")
    assert (version.returncode, version.stdout.split()[0], version.stderr) == (0, "hnsynth", "")
    out = tmp_path / "x.hnsf"
    missing = _run_module("analyze", str(tmp_path / "missing.wav"), "-o", str(out))
    assert missing.returncode == 3 and missing.stderr.startswith("hnsynth: ")
    assert not out.exists()


def test_analyze_writes_loadable_bundle(tmp_path, tone_wav):
    feat = tmp_path / "tone.hnsf"
    assert cli_main(["analyze", str(tone_wav), "-o", str(feat)]) == 0
    bundle = load_features(feat)
    assert bundle.sample_rate == SR
    assert bundle.f0.voiced.any()


def test_synth_same_seed_is_bit_identical(tmp_path, tone_wav):
    feat = tmp_path / "tone.hnsf"
    assert cli_main(["analyze", str(tone_wav), "-o", str(feat)]) == 0
    a, b, c = (tmp_path / n for n in ("a.wav", "b.wav", "c.wav"))
    assert cli_main(["synth", str(feat), "-o", str(a), "--seed", "42"]) == 0
    assert cli_main(["synth", str(feat), "-o", str(b), "--seed", "42"]) == 0
    assert cli_main(["synth", str(feat), "-o", str(c), "--seed", "43"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_seed_comes_from_config_file_unless_flag_given(tmp_path, tone_wav):
    feat = tmp_path / "tone.hnsf"
    assert cli_main(["analyze", str(tone_wav), "-o", str(feat)]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 42\n")
    a, b, c, d = (tmp_path / n for n in ("a.wav", "b.wav", "c.wav", "d.wav"))
    assert cli_main(["synth", str(feat), "-o", str(a), "--seed", "42"]) == 0
    assert cli_main(["synth", str(feat), "-o", str(b), "--config", str(cfg)]) == 0
    assert cli_main(["synth", str(feat), "-o", str(c), "--seed", "43"]) == 0
    assert cli_main(["synth", str(feat), "-o", str(d), "--config", str(cfg), "--seed", "43"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert c.read_bytes() == d.read_bytes() != a.read_bytes()


def test_resynth_tone_reports_tight_mel(tmp_path, tone_wav, capsys):
    out = tmp_path / "out.wav"
    report_path = tmp_path / "report.json"
    code = cli_main(["resynth", str(tone_wav), "-o", str(out), "--report", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["mel_l1"] < 0.05
    assert report["n_samples"] == len(read_wav(tone_wav))
    assert report["sample_rate"] == SR
    assert set(report) >= {"mel_l1", "dsp_loss", "f0_rmse_hz", "mrs_l1", "clipped_samples"}
    # the default lambda_dsp weights the same mel L1, with no second computation
    assert report["dsp_loss"] == 45.0 * report["mel_l1"]
    # the same report is printed to stdout
    printed = json.loads(capsys.readouterr().out)
    assert printed == report


def test_resynth_tone_does_not_clip(tmp_path, tone_wav, capsys):
    # the tone peaks at 0.99; a noise estimate that subtracted powers turned its
    # small peak-reading errors into noise that pushed 8 samples past full scale
    out, report = tmp_path / "out.wav", tmp_path / "report.json"
    assert cli_main(["resynth", str(tone_wav), "-o", str(out), "--report", str(report)]) == 0
    capsys.readouterr()
    assert json.loads(report.read_text())["clipped_samples"] == 0


@pytest.mark.parametrize("fmt", ["float32", "pcm16"])
def test_resynth_report_scores_the_samples_as_written(tmp_path, capsys, fmt):
    # a tone peaking at 1.3 clips whatever the analysis does
    src, out, report = tmp_path / "in.wav", tmp_path / "out.wav", tmp_path / "report.json"
    wavfile.write(src, SR, harmonic_tone(220.0, SR, 1.0, [1.3]).samples.astype(np.float32))
    assert cli_main(["resynth", str(src), "-o", str(out), "--format", fmt, "--report", str(report)]) == 0
    capsys.readouterr()
    resynth = json.loads(report.read_text())
    assert resynth["clipped_samples"] > 0
    assert cli_main(["metrics", str(out), str(src)]) == 0
    metrics = json.loads(capsys.readouterr().out)
    for key in ("mel_l1", "mrs_l1", "f0_rmse_hz"):
        assert resynth[key] == pytest.approx(metrics[key], rel=0, abs=1e-12)


@pytest.mark.parametrize("fmt", ["pcm16", "float32"])
def test_resynth_writes_what_analyze_then_synth_writes(tmp_path, capsys, fmt):
    # synth renders the float32 values a bundle stores, and so does resynth
    src, feat, one, two = (tmp_path / n for n in ("in.wav", "x.hnsf", "one.wav", "two.wav"))
    write_wav(_two_note_phrase(), src)
    assert cli_main(["resynth", str(src), "-o", str(one), "--format", fmt]) == 0
    assert cli_main(["analyze", str(src), "-o", str(feat)]) == 0
    assert cli_main(["synth", str(feat), "-o", str(two), "--format", fmt]) == 0
    capsys.readouterr()
    x, y = read_wav(one).samples, read_wav(two).samples
    assert x.size == len(read_wav(src)) < y.size
    assert x.tobytes() == y[: x.size].tobytes()


def test_synth_reports_clipped_samples_on_stderr(tmp_path, capsys):
    # a tone peaking at 1.4 renders past full scale, and synth still writes it
    src, feat, out = tmp_path / "in.wav", tmp_path / "x.hnsf", tmp_path / "out.wav"
    wavfile.write(src, SR, harmonic_tone(220.0, SR, 1.0, [1.4]).samples.astype(np.float32))
    assert cli_main(["analyze", str(src), "-o", str(feat)]) == 0
    assert cli_main(["synth", str(feat), "-o", str(out), "--format", "pcm16"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("hnsynth: clipped ") and err.endswith(" samples\n")
    assert int(err.split()[2]) > 0 and out.exists()


def _two_note_phrase():
    """Two notes of different f0 (196 and 294 Hz, vibrato, 1/k roll-off) with
    silent gaps before, between and after them, over a white noise floor."""
    rng = np.random.default_rng(1)

    def note(f0, seconds):
        t = np.arange(int(seconds * SR)) / SR
        phase = 2 * np.pi * np.cumsum(f0 * (1 + 0.015 * np.sin(2 * np.pi * 5.5 * t))) / SR
        env = np.minimum(1.0, np.minimum(t / 0.05, (seconds - t) / 0.08))
        ks = [k for k in range(1, 16) if k * f0 < 0.45 * SR]
        return env * sum(np.sin(k * phase + rng.uniform(0, 2 * np.pi)) / k for k in ks)

    gap = np.zeros(int(0.3 * SR))
    x = np.concatenate([gap, 0.3 * note(196.0, 1.0), gap, 0.3 * note(294.0, 1.0), gap])
    return Waveform(x + 0.002 * rng.standard_normal(x.size), SR)


def test_resynth_of_two_notes_with_a_gap_keeps_the_input_level(tmp_path, monkeypatch, capsys):
    # One initial phase per harmonic cannot align both notes, so a noise estimate
    # that subtracted a phase-aligned render kept harmonic energy the noise branch
    # then rendered a second time: +3.4 dB and 298 clipped samples on this input.
    def no_phase_fit(*args):
        raise AssertionError("analyze fitted initial phases")

    monkeypatch.setattr(analysis, "estimate_initial_phases", no_phase_fit)
    src, out, report = tmp_path / "in.wav", tmp_path / "out.wav", tmp_path / "report.json"
    write_wav(_two_note_phrase(), src)
    assert cli_main(["resynth", str(src), "-o", str(out), "--report", str(report)]) == 0
    capsys.readouterr()
    x, y = read_wav(src).samples, read_wav(out).samples
    level_db = 10 * math.log10(np.mean(y**2) / np.mean(x**2))
    assert abs(level_db) < 0.5
    assert json.loads(report.read_text())["clipped_samples"] == 0


def test_resynth_whose_report_fails_writes_nothing(tmp_path, tone_wav, capsys):
    # the config parses, but its mel band reaches past the 11.025 kHz Nyquist, so
    # the tool config for this rate rejects it
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("f_max = 20000\n")
    out, report = tmp_path / "o.wav", tmp_path / "o.json"
    argv = ["resynth", str(tone_wav), "-o", str(out), "--report", str(report), "--config", str(cfg)]
    assert cli_main(argv) == 5
    assert "mel band edges" in capsys.readouterr().err
    assert not out.exists() and not report.exists()


@pytest.mark.parametrize("f_max, code", [(20000, 5), (SR / 2, 0)])
def test_analyze_rejects_a_mel_band_past_nyquist(tmp_path, tone_wav, capsys, f_max, code):
    cfg = tmp_path / "band.cfg"
    cfg.write_text(f"f_max = {f_max}\n")
    out = tmp_path / "o.hnsf"
    assert cli_main(["analyze", str(tone_wav), "-o", str(out), "--config", str(cfg)]) == code
    assert ("mel band edges" in capsys.readouterr().err) == (code == 5)
    assert out.exists() == (code == 0)


@pytest.mark.parametrize("command", ["analyze", "resynth"])
def test_a_window_hop_pair_that_fails_cola_exits_5_before_analysis(tmp_path, tone_wav, monkeypatch, capsys, command):
    # a 1024-sample Hann window does not overlap-add to a constant at hop 500,
    # so no bundle analysed with it could be rendered
    def no_analysis(*args):
        raise AssertionError("analysis ran")

    monkeypatch.setattr(cli, "analyze_bundle", no_analysis)
    cfg = tmp_path / "hop.cfg"
    cfg.write_text("hop_size = 500\n")
    out = tmp_path / "o.out"
    assert cli_main([command, str(tone_wav), "-o", str(out), "--config", str(cfg)]) == 5
    assert "constant overlap-add" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "synth", "resynth", "metrics"])
def test_an_mrs_size_without_a_quarter_hop_exits_5_before_any_work(tmp_path, tone_wav, monkeypatch, capsys, command):
    # a 2-point FFT is a power of two, but its quarter-size hop is 0
    def no_work(*args, **kwargs):
        raise AssertionError("the run went past its config")

    for name in ("analyze_bundle", "render_bundle", "_report"):
        monkeypatch.setattr(cli, name, no_work)
    cfg = tmp_path / "mrs.cfg"
    cfg.write_text("mrs_fft_sizes = 2, 1024\n")
    bundle = tmp_path / "in.hnsf"
    bundle.write_bytes(_bundle_bytes(tmp_path))
    out, report = tmp_path / "o.out", tmp_path / "o.json"
    argv = {
        "analyze": ["analyze", str(tone_wav), "-o", str(out)],
        "synth": ["synth", str(bundle), "-o", str(out)],
        "resynth": ["resynth", str(tone_wav), "-o", str(out), "--report", str(report)],
        "metrics": ["metrics", str(tone_wav), str(tone_wav)],
    }[command]
    assert cli_main(argv + ["--config", str(cfg)]) == 5
    captured = capsys.readouterr()
    assert captured.err.startswith("hnsynth: mrs_fft_sizes entry 1 (2): ")
    assert "fft=2" in captured.err and captured.out == ""
    assert not out.exists() and not report.exists()


def test_metrics_identical_files_all_zero(tmp_path, tone_wav, capsys):
    assert cli_main(["metrics", str(tone_wav), str(tone_wav)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mel_l1"] == 0.0
    assert report["dsp_loss"] == 0.0
    assert report["f0_rmse_hz"] == 0.0
    assert report["mrs_l1"] == 0.0


def test_metrics_distinct_files_nonzero(tmp_path, tone_wav, capsys):
    other = tmp_path / "other.wav"
    write_wav(harmonic_tone(247.0, SR, 2.0, [0.4, 0.3, 0.1], wobble=0.1), other)
    assert cli_main(["metrics", str(tone_wav), str(other)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mel_l1"] > 0.0
    assert report["dsp_loss"] == 45.0 * report["mel_l1"]
    assert report["f0_rmse_hz"] > 1.0


@pytest.mark.parametrize("mrs_sizes, stfts", [(None, 6), ("512", 4)])
def test_report_takes_each_distinct_stft_once(tmp_path, tone_wav, monkeypatch, capsys, mrs_sizes, stfts):
    # at 22.05 kHz the mel STFT (1024/256) is also the middle multi-resolution
    # one, so a default metrics call needs 3 STFTs per signal, not 4
    x = read_wav(tone_wav)
    other = tmp_path / "other.wav"
    noise = np.random.default_rng(3).normal(0.0, 0.01, len(x))
    write_wav(Waveform(0.7 * x.samples + noise, SR), other)
    argv = ["metrics", str(tone_wav), str(other)]
    if mrs_sizes:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"mrs_fft_sizes = {mrs_sizes}\n")
        argv += ["--config", str(cfg)]
    taken = []
    stft = spectral.stft

    def counted(w, c, *frames):
        spec = stft(w, c, *frames)
        taken.append((id(w.samples), c, len(spec)))
        return spec

    monkeypatch.setattr(spectral, "stft", counted)
    assert cli_main(argv) == 0
    monkeypatch.undo()
    # the STFTs are taken a block of frames at a time: every frame of each
    # (signal, config) once
    frames = {}
    for signal, c, rows in taken:
        frames[signal, c] = frames.get((signal, c), 0) + rows
    assert len(frames) == stfts
    assert all(rows == spectral.frame_count(len(x), c.hop_size) for (_, c), rows in frames.items())
    report = json.loads(capsys.readouterr().out)

    # the same values, bit for bit, as one STFT per metric and signal
    a, b = x, read_wav(other)
    tool = build_tool_config(SR, parse_config_file(argv[-1]) if mrs_sizes else {})
    mel = mel_l1(a, b, tool.mel)
    cfgs = spectral.multi_resolution_configs(tool.mrs_fft_sizes)
    mags = [(spectral.stft_magnitude(a, c), spectral.stft_magnitude(b, c)) for c in cfgs]
    assert report["mel_l1"] == mel
    assert report["dsp_loss"] == tool.weights.lambda_dsp * mel
    assert report["mrs_l1"] == float(np.mean([np.abs(p - q).mean() for p, q in mags]))


def test_config_file_changes_analysis(tmp_path, tone_wav):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fft_size = 2048\nhop_size = 512\nwin_size = 2048\n")
    feat = tmp_path / "tone.hnsf"
    assert cli_main(["analyze", str(tone_wav), "-o", str(feat), "--config", str(cfg)]) == 0
    assert load_features(feat).spectral.fft_size == 2048


def test_usage_errors_exit_2(capsys):
    assert cli_main([]) == 2
    assert cli_main(["frobnicate"]) == 2
    assert cli_main(["analyze"]) == 2  # missing required args
    capsys.readouterr()


def test_missing_input_exits_3(tmp_path, capsys):
    out = tmp_path / "o.hnsf"
    assert cli_main(["analyze", str(tmp_path / "absent.wav"), "-o", str(out)]) == 3
    assert "hnsynth:" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_input_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"not audio" * 16)
    assert cli_main(["analyze", str(bad), "-o", str(tmp_path / "o.hnsf")]) == 4
    capsys.readouterr()


def _pcm16_wav_bytes(tmp_path, seconds=1.0) -> bytes:
    """A valid PCM16 mono WAV at 8 kHz with scipy's 44-byte header."""
    path = tmp_path / "good.wav"
    write_wav(harmonic_tone(220.0, 8000, seconds, [0.5, 0.2]), path, "pcm16")
    return path.read_bytes()


def _put(offset, fmt, value):
    def edit(raw):
        out = bytearray(raw)
        struct.pack_into(fmt, out, offset, value)
        return bytes(out)

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(_put(22, "<H", 0), id="zero-channels"),
        pytest.param(_put(22, "<H", 3), id="three-channels"),
        pytest.param(_put(16, "<I", 0xFFFFFFF0), id="huge-fmt-chunk"),
        pytest.param(lambda raw: raw[:30], id="cut-to-30-bytes"),
        pytest.param(lambda raw: b"RF64" + raw[4:], id="rf64-without-ds64"),
    ],
)
def test_malformed_wav_header_exits_4(tmp_path, capsys, edit):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(edit(_pcm16_wav_bytes(tmp_path)))
    out = tmp_path / "o.hnsf"
    assert cli_main(["analyze", str(bad), "-o", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("hnsynth: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["pcm16", "float32"])
def test_wav_header_rate_of_zero_exits_4(tmp_path, capsys, fmt):
    # a 0 Hz rate is a malformed header (exit 4), not a bad value (exit 5); the
    # byte rate is 0 too, so PCM's byte-rate check holds
    bad = tmp_path / "zero.wav"
    write_wav(harmonic_tone(220.0, 8000, 0.5, [0.5]), bad, fmt)
    bad.write_bytes(_put(28, "<I", 0)(_put(24, "<I", 0)(bad.read_bytes())))
    out = tmp_path / "o.out"
    for argv in (["analyze", str(bad), "-o", str(out)], ["resynth", str(bad), "-o", str(out)], ["metrics", str(bad), str(bad)]):
        assert cli_main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"hnsynth: {bad}: ") and "0 Hz" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("n", [20000, 20500])
def test_analyze_with_hop_wider_than_the_lag_span(tmp_path, n):
    # at 8 kHz half a 512-sample hop outreaches half the f0 tracker's lag span
    wav, feat, cfg = tmp_path / "x.wav", tmp_path / "x.hnsf", tmp_path / "run.cfg"
    write_wav(harmonic_tone(220.0, 8000, n / 8000, [0.5, 0.2]), wav)
    cfg.write_text("hop_size = 512\n")
    assert cli_main(["analyze", str(wav), "-o", str(feat), "--config", str(cfg)]) == 0
    assert load_features(feat).frames == -(-n // 512)


def test_non_finite_float_wav_exits_4(tmp_path, capsys):
    samples = np.zeros(8000, dtype=np.float32)
    samples[100] = np.nan
    bad, out = tmp_path / "nan.wav", tmp_path / "o.hnsf"
    wavfile.write(bad, 8000, samples)
    assert cli_main(["analyze", str(bad), "-o", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("hnsynth: ") and err.count("\n") == 1
    assert not out.exists()


def test_bad_config_value_exits_5(tmp_path, tone_wav, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("hop_size = 0\n")
    assert cli_main(["analyze", str(tone_wav), "-o", str(tmp_path / "o.hnsf"), "--config", str(cfg)]) == 5
    capsys.readouterr()


@pytest.mark.parametrize("line", ["voicing_threshold = nan", "silence_rms = inf"])
def test_non_finite_tracker_threshold_in_config_exits_5(tmp_path, tone_wav, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "o.hnsf"
    assert cli_main(["analyze", str(tone_wav), "-o", str(out), "--config", str(cfg)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("hnsynth: ") and err.count("\n") == 1
    assert not out.exists()


_FLOAT_KEYS = ["f0_min", "f0_max", "voicing_threshold", "silence_rms", "f_min", "f_max", "log_floor", "lambda_dsp"]


@pytest.mark.parametrize(
    "key, value",
    [(key, value) for key in _FLOAT_KEYS for value in ("nan", "inf", "-inf")]
    + [("f0_min", "5e-324"), ("f0_min", "1e-300")],
)
def test_float_config_key_outside_its_domain_exits_with_one_line_naming_it(tmp_path, capsys, key, value):
    # a non-finite value is refused, and so is an f0_min whose lag range numpy
    # cannot hold (at 5e-324, sr / f0_min overflows to inf): no traceback, no
    # NaN report, and the tracker allocates nothing
    src, cfg, out = tmp_path / "tone.wav", tmp_path / "run.cfg", tmp_path / "o.hnsf"
    write_wav(harmonic_tone(220.0, SR, 0.5, [0.5]), src)
    cfg.write_text(f"{key} = {value}\n")
    for argv in (["analyze", str(src), "-o", str(out)], ["metrics", str(src), str(src)]):
        assert cli_main([*argv, "--config", str(cfg)]) in (4, 5)
        captured = capsys.readouterr()
        assert captured.err.startswith("hnsynth: ") and captured.err.count("\n") == 1
        assert key in captured.err and "Traceback" not in captured.err
        assert "NaN" not in captured.out
        assert not out.exists()


def test_mismatched_metrics_inputs_exit_5(tmp_path, tone_wav, capsys):
    short = tmp_path / "short.wav"
    write_wav(Waveform(np.zeros(1000), SR), short)
    assert cli_main(["metrics", str(tone_wav), str(short)]) == 5
    capsys.readouterr()


def test_metrics_of_equal_lengths_at_two_rates_exits_5(tmp_path, capsys):
    a, b = tmp_path / "a.wav", tmp_path / "b.wav"
    write_wav(harmonic_tone(220.0, 8000, 1.0, [0.5]), a)
    write_wav(Waveform(np.zeros(8000), 16000), b)
    assert cli_main(["metrics", str(a), str(b)]) == 5
    assert capsys.readouterr().err == "hnsynth: sample rate mismatch: 8000 vs 16000\n"


def test_metrics_of_silence_prints_its_warning_as_one_line(tmp_path, capsys):
    # no voiced frame: f0_rmse warns that it is undefined, and the run succeeds
    path = tmp_path / "s.wav"
    write_wav(Waveform(np.zeros(SR), SR), path)
    assert cli_main(["metrics", str(path), str(path)]) == 0
    expected = "hnsynth: warning: no mutually voiced frames; F0 RMSE is undefined, returning 0.0\n"
    assert capsys.readouterr().err == expected


def test_analyze_of_a_stereo_wav_prints_its_warning_as_one_line(tmp_path, capsys):
    src, out = tmp_path / "stereo.wav", tmp_path / "o.hnsf"
    tone = harmonic_tone(220.0, SR, 0.5, [0.5]).samples.astype(np.float32)
    wavfile.write(src, SR, np.stack([tone, 0.5 * tone], axis=1))
    assert cli_main(["analyze", str(src), "-o", str(out)]) == 0
    assert capsys.readouterr().err == f"hnsynth: warning: {src}: averaging 2 channels to mono\n"
    assert out.exists()


@pytest.mark.parametrize("command", ["analyze", "resynth"])
def test_features_beyond_float32_exit_5_and_write_nothing(tmp_path, capsys, command):
    # a float WAV peaking at 3e38 is finite, but its noise magnitudes are not in
    # float32, so analyze would write a bundle that synth cannot read
    src, out = tmp_path / "loud.wav", tmp_path / "o.out"
    wavfile.write(src, SR, harmonic_tone(220.0, SR, 0.5, [3e38]).samples.astype(np.float32))
    assert cli_main([command, str(src), "-o", str(out)]) == 5
    assert capsys.readouterr().err == "hnsynth: a feature value lies beyond float32's range\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "lines, codes",
    [
        (["silence_rms = 1e300"], (5, 5, 5)),  # its square, the tracker's energy floor, overflows
        (["silence_rms = -1e-5"], (5, 5, 5)),  # squared by the tracker, it would act as 1e-5
        (["median_width = 1180591620717411303425"], (0, 0, 0)),  # 2**70 + 1: a window over the whole contour
        ([f"fft_size = {2**63}", f"win_size = {2**63}", f"hop_size = {2**61}"], (5, 5, 5)),  # past intp's range
        (["fft_size = 1", "win_size = 1", "hop_size = 1"], (5, 5, 0)),  # one bin: no harmonic peak to read
    ],
    ids=["silence-rms-1e300", "silence-rms-negative", "median-width-2**70+1", "fft-size-2**63", "fft-size-1"],
)
def test_extreme_config_values_exit_5_with_one_line_or_run(tmp_path, capsys, lines, codes):
    # analyze, resynth and metrics of a 1 s 220 Hz tone, each exit code in turn
    src, cfg, out = tmp_path / "tone.wav", tmp_path / "run.cfg", tmp_path / "o.out"
    write_wav(harmonic_tone(220.0, SR, 1.0, [0.5]), src)
    cfg.write_text("\n".join(lines) + "\n")
    commands = [
        ["analyze", str(src), "-o", str(out)],
        ["resynth", str(src), "-o", str(out)],
        ["metrics", str(src), str(src)],
    ]
    for argv, code in zip(commands, codes):
        assert cli_main([*argv, "--config", str(cfg)]) == code
        err = capsys.readouterr().err
        assert (err == "") if code == 0 else (err.startswith("hnsynth: ") and err.count("\n") == 1)
        if argv[0] != "metrics":
            assert out.exists() == (code == 0)
            out.unlink(missing_ok=True)


@pytest.mark.parametrize("command", ["analyze", "resynth"])
def test_out_of_memory_exits_5_with_one_line_and_writes_nothing(tmp_path, tone_wav, monkeypatch, capsys, command):
    # a config can ask for more memory than exists (k_max = 10**13 asks numpy
    # for tens of TiB); the stage raises rather than allocating for real here,
    # since hosts differ in what they overcommit
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 72.8 TiB for an array")

    monkeypatch.setattr(analysis, "estimate_harmonics", out_of_memory)
    out = tmp_path / "o.out"
    assert cli_main([command, str(tone_wav), "-o", str(out)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("hnsynth: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("error", [ValueError, MemoryError])
@pytest.mark.parametrize("branch", ["harmonic_synthesize", "noise_synthesize"])
def test_synth_branch_failure_exits_5_with_one_line_and_writes_nothing(
    tmp_path, tone_wav, monkeypatch, capsys, branch, error
):
    # the bank fails on render_bundle's helper thread, the noise branch on the caller's
    bundle, out = tmp_path / "x.hnsf", tmp_path / "o.wav"
    assert cli_main(["analyze", str(tone_wav), "-o", str(bundle)]) == 0

    def fail(*args):
        raise error(f"{branch} failed")

    monkeypatch.setattr(features, branch, fail)
    threads = threading.active_count()
    assert cli_main(["synth", str(bundle), "-o", str(out)]) == 5
    assert capsys.readouterr().err == f"hnsynth: {branch} failed\n"
    assert not out.exists()
    assert threading.active_count() == threads


@pytest.mark.parametrize("size", [2**60, 2**63])
def test_fft_size_past_numpys_largest_array_names_the_key(tmp_path, tone_wav, capsys, size):
    # the config refuses it, so numpy's own "Maximum allowed dimension exceeded"
    # is never the message; no array of the size is asked for
    cfg, out = tmp_path / "run.cfg", tmp_path / "o.out"
    cfg.write_text(f"fft_size = {size}\nwin_size = {size}\nhop_size = {size // 4}\n")
    for argv in (["analyze", str(tone_wav), "-o", str(out)], ["resynth", str(tone_wav), "-o", str(out)],
                 ["metrics", str(tone_wav), str(tone_wav)]):
        assert cli_main([*argv, "--config", str(cfg)]) == 5
        err = capsys.readouterr().err
        assert err.startswith(f"hnsynth: fft_size {size} ") and err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "resynth"])
def test_too_few_bins_for_a_peak_read_exit_5_before_tracking(tmp_path, tone_wav, monkeypatch, capsys, command):
    # fft_size 2 has 2 bins, too few for a harmonic peak and both its neighbours
    def no_tracking(*args):
        raise AssertionError("f0 was tracked")

    monkeypatch.setattr(analysis, "estimate_f0", no_tracking)
    monkeypatch.setattr(cli, "estimate_f0", no_tracking)
    cfg, out = tmp_path / "run.cfg", tmp_path / "o.out"
    cfg.write_text("fft_size = 2\nwin_size = 2\nhop_size = 1\n")
    assert cli_main([command, str(tone_wav), "-o", str(out), "--config", str(cfg)]) == 5
    assert capsys.readouterr().err == "hnsynth: harmonic peak reads need fft_size >= 4, got 2\n"
    assert not out.exists()


def test_resynth_tracks_x_once_in_analyze_and_y_once_in_its_report(tmp_path, tone_wav, monkeypatch, capsys):
    # the report scores y against the contour analyze tracked for the bundle
    calls = []

    def counted(binding, track):
        def estimate_f0(x, cfg):
            calls.append((binding, x.samples.tobytes()))
            return track(x, cfg)

        return estimate_f0

    monkeypatch.setattr(analysis, "estimate_f0", counted("analysis", analysis.estimate_f0))
    monkeypatch.setattr(cli, "estimate_f0", counted("cli", cli.estimate_f0))
    out, report = tmp_path / "o.wav", tmp_path / "o.json"
    assert cli_main(["resynth", str(tone_wav), "-o", str(out), "--report", str(report)]) == 0
    capsys.readouterr()
    x, y = read_wav(tone_wav).samples.tobytes(), read_wav(out).samples.tobytes()
    assert calls == [("analysis", x), ("cli", y)]


def test_analyze_of_a_rate_with_f0_max_past_nyquist_exits_5(tmp_path, capsys):
    src, out = tmp_path / "low.wav", tmp_path / "o.hnsf"
    write_wav(harmonic_tone(220.0, 1500, 1.0, [0.5]), src)
    assert cli_main(["analyze", str(src), "-o", str(out)]) == 5
    assert capsys.readouterr().err == "hnsynth: f0_max=800.0 must stay below Nyquist (750.0)\n"
    assert not out.exists()


def test_truncated_bundle_exits_4(tmp_path, tone_wav, capsys):
    feat = tmp_path / "tone.hnsf"
    assert cli_main(["analyze", str(tone_wav), "-o", str(feat)]) == 0
    feat.write_bytes(feat.read_bytes()[:50])
    assert cli_main(["synth", str(feat), "-o", str(tmp_path / "y.wav")]) == 4
    capsys.readouterr()


def _first_f0(value):
    def edit(header, payload):
        fmt = {1: "<f", 2: "<d"}[header["version"]]  # the f0 width of the layout being edited
        return header, struct.pack(fmt, value) + payload[struct.calcsize(fmt) :]

    return edit


def _set_field(section, key, value):
    def edit(header, payload):
        header[section][key] = value
        return header, payload

    return edit


def _set_header(key, value):
    def edit(header, payload):
        header[key] = value
        return header, payload

    return edit


def _bundle_bytes(tmp_path) -> bytes:
    """A valid 6-frame, 3-harmonic bundle at the tool defaults for SR."""
    tool = build_tool_config(SR)
    frames = 6
    good = tmp_path / "good.hnsf"
    save_features(
        FeatureBundle(
            f0=F0Contour.from_values(np.full(frames, 220.0), tool.spectral.hop_size),
            harmonics=HarmonicAmplitudes(np.full((frames, 3), 0.1)),
            noise=NoiseMagnitudeSpectrum(np.full((frames, tool.spectral.n_bins), 0.01)),
            sample_rate=SR,
            spectral=tool.spectral,
            analysis=tool.analysis,
        ),
        good,
    )
    return good.read_bytes()


def _edit_bundle(raw: bytes, edit) -> bytes:
    """The bundle with its header and payload passed through edit(header, payload)."""
    (header_len,) = struct.unpack("<I", raw[4:8])
    header, payload = edit(json.loads(raw[8 : 8 + header_len]), raw[8 + header_len :])
    blob = json.dumps(header).encode()
    return MAGIC + struct.pack("<I", len(blob)) + blob + payload


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(_set_header("frames", 0), id="zero-frames"),
        pytest.param(_set_header("frames", -3), id="negative-frames"),
        pytest.param(_set_field("analysis", "f0_min", 900.0), id="f0-min-above-f0-max"),
        pytest.param(_set_field("spectral", "center", False), id="uncentered"),
        pytest.param(_first_f0(np.nan), id="nan-in-f0-payload"),
        pytest.param(lambda header, payload: ([], payload), id="header-not-an-object"),
        pytest.param(_set_field("spectral", "hop_size", 256.0), id="float-hop-size"),
        pytest.param(_set_field("analysis", "k_max", True), id="bool-k-max"),
        pytest.param(_set_header("sample_rate", 22050.9), id="float-sample-rate"),
        pytest.param(_set_header("sample_rate", True), id="bool-sample-rate"),
        pytest.param(_set_header("sample_rate", 2**32), id="sample-rate-beyond-wav"),
        pytest.param(_set_header("version", True), id="bool-version"),
        pytest.param(_first_f0(SR / 2), id="f0-at-nyquist"),
        pytest.param(_set_field("analysis", "voicing_threshold", math.nan), id="nan-voicing-threshold"),
        pytest.param(_set_field("analysis", "silence_rms", math.inf), id="infinite-silence-rms"),
        pytest.param(_set_field("spectral", "win_size", 1000), id="window-hop-not-cola"),
    ],
)
def test_malformed_bundle_exits_4(tmp_path, capsys, edit):
    # each edit on the layout save_features writes and on version 1's, which stored f0 as <f4
    good = _bundle_bytes(tmp_path)
    for raw in (good, version1_image(good)):
        bad = tmp_path / "bad.hnsf"
        bad.write_bytes(_edit_bundle(raw, edit))
        out = tmp_path / "y.wav"
        assert cli_main(["synth", str(bad), "-o", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("hnsynth: ") and err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("key", ["f0_min", "voicing_threshold", "silence_rms"])
def test_bool_in_a_float_header_field_exits_4(tmp_path, capsys, key):
    # a JSON bool is not a number, though Python would read it as 0 or 1; a JSON
    # integer is
    out = tmp_path / "y.wav"
    for value, code in ((True, 4), (False, 4), (1, 0)):
        bad = tmp_path / "bad.hnsf"
        bad.write_bytes(_edit_bundle(_bundle_bytes(tmp_path), _set_field("analysis", key, value)))
        assert cli_main(["synth", str(bad), "-o", str(out)]) == code
        assert (f"analysis.{key} must be a number" in capsys.readouterr().err) == (code == 4)
        assert out.exists() == (code == 0)


def test_failed_run_leaves_no_partial_output(tmp_path, tone_wav, capsys):
    # unwritable output directory: the run fails but nothing is left behind
    out = tmp_path / "missing-dir" / "out.hnsf"
    assert cli_main(["analyze", str(tone_wav), "-o", str(out)]) == 3
    assert not out.parent.exists()
    capsys.readouterr()


def test_pcm16_output_format(tmp_path, tone_wav):
    feat = tmp_path / "tone.hnsf"
    cli_main(["analyze", str(tone_wav), "-o", str(feat)])
    out = tmp_path / "y.wav"
    assert cli_main(["synth", str(feat), "-o", str(out), "--format", "pcm16"]) == 0
    raw = out.read_bytes()
    # PCM fmt tag is 1; IEEE float is 3
    assert raw[20:22] == b"\x01\x00"


# ------------------------------------------------------------------- fuzz

# the exit codes the CLI documents
EXIT_CODES = (0, 2, 3, 4, 5)
WAV_HEADER_LEN = 44
# (offset, struct format) of every field of the PCM WAV header
WAV_FIELDS = [(4, "<I"), (16, "<I"), (20, "<H"), (22, "<H"), (24, "<I"), (28, "<I"), (32, "<H"), (34, "<H"), (40, "<I")]
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**64), 2**64),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(0, 9), max_size=2),
)
FUZZ = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def _flip_bits(raw: bytes, bits) -> bytes:
    out = bytearray(raw)
    for bit in bits:
        out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def _damaged(raw: bytes, header_len: int):
    """Truncations of raw, and up to four bit flips, each inside the header half the time."""
    bit = st.one_of(st.integers(0, 8 * header_len - 1), st.integers(0, 8 * len(raw) - 1))
    return st.one_of(
        st.integers(0, len(raw) - 1).map(lambda n: raw[:n]),
        st.lists(bit, min_size=1, max_size=4).map(lambda bits: _flip_bits(raw, bits)),
    )


@st.composite
def _edited_header_field(draw, raw: bytes) -> bytes:
    """raw with one header key, top-level or in a config section, set to any JSON value or deleted."""

    def edit(header, payload):
        section = draw(st.sampled_from([header, header["spectral"], header["analysis"]]))
        key = draw(st.sampled_from(sorted(section)))
        if draw(st.booleans()):
            section[key] = draw(JSON_VALUES)
        else:
            del section[key]
        return header, payload

    return _edit_bundle(raw, edit)


def _assert_cli_contract(argv, out) -> None:
    out.unlink(missing_ok=True)
    code = cli_main(argv)
    assert code in EXIT_CODES
    if code != 0:
        assert not out.exists()


@FUZZ
@given(data=st.data())
def test_fuzzed_bundles_keep_the_exit_code_contract(tmp_path, data):
    raw = _bundle_bytes(tmp_path)
    (header_len,) = struct.unpack("<I", raw[4:8])
    bad = tmp_path / "bad.hnsf"
    bad.write_bytes(data.draw(st.one_of(_damaged(raw, 8 + header_len), _edited_header_field(raw))))
    _assert_cli_contract(["synth", str(bad), "-o", str(tmp_path / "y.wav")], tmp_path / "y.wav")


@FUZZ
@given(data=st.data())
def test_fuzzed_wavs_keep_the_exit_code_contract(tmp_path, data):
    raw = _pcm16_wav_bytes(tmp_path, seconds=0.25)
    field = st.sampled_from(WAV_FIELDS).flatmap(
        lambda f: st.integers(0, 2 ** (8 * struct.calcsize(f[1])) - 1).map(lambda v: _put(*f, v)(raw))
    )
    wav = data.draw(st.one_of(_damaged(raw, WAV_HEADER_LEN), field))
    # analyze's f0 tracker allocates memory in proportion to the square of the
    # sample rate, so a header that consistently claims a GHz rate would
    # exhaust memory before it could fail; rates stay at audio rates here
    assume(len(wav) < 28 or struct.unpack_from("<I", wav, 24)[0] <= 192_000)
    bad = tmp_path / "bad.wav"
    bad.write_bytes(wav)
    _assert_cli_contract(["analyze", str(bad), "-o", str(tmp_path / "o.hnsf")], tmp_path / "o.hnsf")
