"""End-to-end resynthesis demo.

Analyzes a WAV into f0 + harmonic amplitudes + noise magnitudes, renders the
bundle back into audio, and prints how close the copy is. With no input
argument a short synthetic singing-like tone is generated first, so the script
runs standalone.

Writes into the output directory: input.wav (only when the tone is generated),
features.hnsf (the analysis bundle) and resynth.wav (its rendering, cut to the
input's length).
"""

import argparse
import os

import numpy as np

from hnsynth.analysis import estimate_f0
from hnsynth.config import build_tool_config
from hnsynth.features import analyze_bundle, render_bundle, save_features
from hnsynth.losses import f0_rmse, mel_l1
from hnsynth.types import Waveform
from hnsynth.wavio import read_wav, write_wav

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("wav", nargs="?", help="input WAV (default: generate a demo tone)")
parser.add_argument("-o", "--out-dir", default="demo_out")
parser.add_argument("--seed", type=int, default=0, help="noise branch seed")


def make_demo_tone(sr=22050, seconds=3.0):
    """Vibrato over a slow glide, 1/k harmonic rolloff, light breath noise."""
    t = np.arange(int(sr * seconds)) / sr
    f0 = 250.0 + 30.0 * np.sin(2 * np.pi * 0.8 * t) + 6.0 * np.sin(2 * np.pi * 5.5 * t)
    phase = 2 * np.pi * np.cumsum(f0) / sr
    rng = np.random.default_rng(10)
    x = sum((0.35 / k) * np.sin(k * phase + rng.uniform(0, 2 * np.pi)) for k in range(1, 9))
    x = x * (0.7 + 0.3 * np.sin(2 * np.pi * 0.5 * t)) + 0.004 * rng.standard_normal(t.size)
    return Waveform(x, sr)


def main(args):
    os.makedirs(args.out_dir, exist_ok=True)
    if args.wav is None:
        x = make_demo_tone()
        write_wav(x, os.path.join(args.out_dir, "input.wav"))
        print("generated demo tone ->", os.path.join(args.out_dir, "input.wav"))
    else:
        x = read_wav(args.wav)
    print(f"input: {len(x)} samples at {x.sample_rate} Hz")

    tool = build_tool_config(x.sample_rate)
    bundle = analyze_bundle(x, tool.analysis, tool.spectral)
    print(f"analyzed {bundle.frames} frames, {int(bundle.f0.voiced.sum())} voiced")
    save_features(bundle, os.path.join(args.out_dir, "features.hnsf"))

    rendered = render_bundle(bundle, seed=args.seed)
    y = Waveform(rendered.samples[: len(x)], x.sample_rate)
    clipped = write_wav(y, os.path.join(args.out_dir, "resynth.wav"))
    if clipped:
        print(f"warning: {clipped} samples clipped writing resynth.wav")

    print(f"mel L1          {mel_l1(y, x, tool.mel):.4f}")
    print(f"f0 RMSE (Hz)    {f0_rmse(estimate_f0(y, tool.analysis), bundle.f0):.4f}")
    print("outputs in", args.out_dir)


if __name__ == "__main__":
    main(parser.parse_args())
