"""End-to-end resynthesis demo.

Runs `hnsynth analyze` and `hnsynth resynth` on a WAV: the first writes the
analysis bundle, the second renders the input's features back into audio and
prints its JSON report (mel L1, f0 RMSE, multi-resolution spectral L1, clipped
sample count), which scores the copy as written against the input. With no
input argument a short synthetic singing-like tone is generated first, so the
script runs standalone.

Writes into the output directory: input.wav (only when the tone is generated),
features.hnsf (the analysis bundle) and resynth.wav (its rendering, cut to the
input's length). Exits with the first non-zero exit code of the two commands.
"""

import argparse
import os
import sys

import numpy as np

from hnsynth.cli import cli_main
from hnsynth.types import Waveform
from hnsynth.wavio import write_wav

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


def main(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    wav = args.wav
    if wav is None:
        wav = os.path.join(args.out_dir, "input.wav")
        write_wav(make_demo_tone(), wav)
        print("generated demo tone ->", wav)
    features = os.path.join(args.out_dir, "features.hnsf")
    resynth = os.path.join(args.out_dir, "resynth.wav")
    return cli_main(["analyze", wav, "-o", features]) or cli_main(
        ["resynth", wav, "-o", resynth, "--seed", str(args.seed)]
    )


if __name__ == "__main__":
    sys.exit(main(parser.parse_args()))
