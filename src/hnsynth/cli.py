"""Command-line surface: analyze, synth, resynth, and metrics subcommands.

Exit codes: 0 success, 2 usage, 3 I/O failure, 4 malformed file,
5 invariant violation (bad config values, mismatched inputs). Every failure
prints a one-line diagnostic to stderr, and so does every warning the command
raises (`hnsynth: warning: ...`, before any error line); outputs are written
atomically.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from . import __version__
from .analysis import estimate_f0
from .config import ToolConfig, build_tool_config, describe_schema, parse_config_file
from .errors import FormatError
from .features import analyze_bundle, load_features, render_bundle, save_features
from .ioutil import atomic_write
from .losses import f0_rmse
from .spectral import log_mel, multi_resolution_configs, stft_magnitude
from .types import F0Contour, Waveform
from .wavio import WAV_FORMATS, quantize, read_wav, write_wav


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hnsynth",
        description="Harmonic-plus-noise analysis and resynthesis toolkit.",
        epilog="Config file keys (key = value, one per line):\n" + describe_schema(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="FILE", help="key=value config file")

    p = sub.add_parser("analyze", help="extract features from a WAV into a bundle")
    p.add_argument("input", help="input WAV path")
    p.add_argument("-o", "--output", required=True, help="output feature bundle path")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("synth", help="render a feature bundle back to audio")
    p.add_argument("input", help="input feature bundle path")
    p.add_argument("-o", "--output", required=True, help="output WAV path")
    p.add_argument("--seed", type=int, default=None, help="noise-phase seed (default 0)")
    p.add_argument("--format", choices=WAV_FORMATS, default="float32", help="output sample format")
    common(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("resynth", help="analyze a WAV and resynthesize it in one step")
    p.add_argument("input", help="input WAV path")
    p.add_argument("-o", "--output", required=True, help="output WAV path")
    p.add_argument("--seed", type=int, default=None, help="noise-phase seed (default 0)")
    p.add_argument("--format", choices=WAV_FORMATS, default="float32", help="output sample format")
    p.add_argument("--report", metavar="FILE", help="also write the metrics JSON here")
    common(p)
    p.set_defaults(func=_cmd_resynth)

    p = sub.add_parser("metrics", help="print objective metrics between two WAVs")
    p.add_argument("a", help="first WAV path")
    p.add_argument("b", help="second WAV path")
    common(p)
    p.set_defaults(func=_cmd_metrics)

    return parser


def _tool_config(args, sample_rate: int) -> ToolConfig:
    """Rate defaults, then the --config file, then the --seed flag."""
    overrides = parse_config_file(args.config) if args.config else {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return build_tool_config(sample_rate, overrides)


def _emit_report(report: dict, path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if path:
        with atomic_write(path, "w") as fh:
            fh.write(text + "\n")


def _report(a: Waveform, b: Waveform, tool: ToolConfig, f0_b: F0Contour | None = None) -> dict:
    """Metrics of a against b; f0_b is b's contour when the caller already has it.

    The mel STFT is usually one of the multi-resolution ones (1024/256 at
    22.05 kHz, 2048/512 at 44.1 kHz), so each distinct config is taken once
    per signal and the log-mel is built from its magnitudes. One config's pair
    of magnitude matrices is held at a time, each filled a block of frames at a
    time.
    """
    mrs_cfgs = multi_resolution_configs(tool.mrs_fft_sizes)
    mrs = {}
    for cfg in dict.fromkeys([tool.mel.spectral, *mrs_cfgs]):
        mag_a, mag_b = stft_magnitude(a, cfg), stft_magnitude(b, cfg)
        if cfg == tool.mel.spectral:
            mel_a, mel_b = log_mel(mag_a, a.sample_rate, tool.mel), log_mel(mag_b, b.sample_rate, tool.mel)
            mel = float(np.abs(mel_a - mel_b).mean())
        if cfg in mrs_cfgs:
            # |a - b| in mag_a's buffer, which the mel pair has already read
            np.subtract(mag_a, mag_b, out=mag_a)
            mrs[cfg] = np.abs(mag_a, out=mag_a).mean()
        del mag_a, mag_b
    f0_a = estimate_f0(a, tool.analysis)
    if f0_b is None:
        f0_b = estimate_f0(b, tool.analysis)
    return {
        "mel_l1": mel,
        "dsp_loss": tool.weights.lambda_dsp * mel,
        "f0_rmse_hz": f0_rmse(f0_a, f0_b),
        "mrs_l1": float(np.mean([mrs[c] for c in mrs_cfgs])),
        "n_samples": len(a),
        "sample_rate": a.sample_rate,
    }


def _cmd_analyze(args) -> int:
    x = read_wav(args.input)
    tool = _tool_config(args, x.sample_rate)
    save_features(analyze_bundle(x, tool.analysis, tool.spectral), args.output)
    return 0


def _cmd_synth(args) -> int:
    bundle = load_features(args.input)
    tool = _tool_config(args, bundle.sample_rate)
    y = render_bundle(bundle, seed=tool.seed)
    clipped = write_wav(y, args.output, args.format)
    if clipped:
        print(f"hnsynth: clipped {clipped} samples", file=sys.stderr)
    return 0


def _cmd_resynth(args) -> int:
    x = read_wav(args.input)
    tool = _tool_config(args, x.sample_rate)
    bundle = analyze_bundle(x, tool.analysis, tool.spectral)
    f0, rendered = bundle.f0, render_bundle(bundle, seed=tool.seed)
    del bundle  # the report reads x's contour alone, so the matrices go before it runs
    # score the samples as written, before writing them: a report that fails leaves no WAV
    y, clipped = quantize(Waveform(rendered.samples[: len(x)], x.sample_rate), args.format)
    del rendered  # the report reads y alone
    report = _report(y, x, tool, f0)
    report["clipped_samples"] = clipped
    write_wav(y, args.output, args.format)
    _emit_report(report, args.report)
    return 0


def _cmd_metrics(args) -> int:
    a = read_wav(args.a)
    b = read_wav(args.b)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)} samples")
    if a.sample_rate != b.sample_rate:
        raise ValueError(f"sample rate mismatch: {a.sample_rate} vs {b.sample_rate}")
    tool = _tool_config(args, a.sample_rate)
    report = _report(a, b, tool)
    _emit_report(report, None)
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code, error = args.func(args), None
        except FormatError as exc:
            code, error = 4, exc
        except OSError as exc:
            code, error = 3, exc
        except (ValueError, MemoryError) as exc:
            code, error = 5, exc
    for w in caught:
        print(f"hnsynth: warning: {w.message}", file=sys.stderr)
    if error is not None:
        print(f"hnsynth: {error}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
