"""Seeded input generator for the hnsynth benchmark.

Every workload's inputs are written to disk before anything is timed, together
with the generator's true per-frame f0, so the program under test only ever
sees the generated files. The same seed always gives the same files.

    python3 bench/gen.py --seed 1 --out bench/.work/gen [--workload long44k] [--smoke]

writes each workload into its own subdirectory with a ``manifest.json`` that
lists the CLI calls to make, their outputs and why the workload exists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def import_hnsynth():
    """Import the package from the checkout's own ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC_DIR, "hnsynth", "__init__.py")):
        raise SystemExit(f"no hnsynth sources under {SRC_DIR}")
    if sys.path[0] != SRC_DIR:
        sys.path.insert(0, SRC_DIR)
    import hnsynth

    if not os.path.abspath(hnsynth.__file__).startswith(SRC_DIR + os.sep):
        raise SystemExit(f"imported hnsynth from {hnsynth.__file__}, not {SRC_DIR}")
    return hnsynth


# ---------------------------------------------------------------------------
# Signals. Pitch centres and durations sit on fixed grids and the seed
# only jitters them, so every seed gives a pool with the same mix of dense
# (low pitch, all harmonics below Nyquist) and sparse (high pitch) material.
# ---------------------------------------------------------------------------


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def _note_f0(rng, n: int, sr: int, centre: float, glide_semitones: float) -> np.ndarray:
    """Per-sample f0 of one sung note: an S-shaped glide plus delayed vibrato."""
    t = np.arange(n) / sr
    dur = n / sr
    glide_at = rng.uniform(0.3, 0.6) * dur
    glide = glide_semitones * (_smoothstep((t - glide_at) / 0.25) - 0.5)
    # Vibrato depth and rate stay fixed: tracking error grows with both, and
    # pooled f0 errors should not swing with the seed.
    onset = _smoothstep((t - 0.25) / 0.4)
    vib = 1.0 + 0.018 * onset * np.sin(2 * np.pi * 5.75 * t + rng.uniform(0, 2 * np.pi))
    return centre * 2.0 ** (glide / 12.0) * vib


def _harmonic_sum(rng, f0: np.ndarray, sr: int, max_harmonics: int) -> np.ndarray:
    """sum_k (1/k) sin(k*phase + phi_k), each harmonic muted at 0.45*sr."""
    phase = 2 * np.pi * np.cumsum(f0) / sr
    x = np.zeros(len(f0))
    for k in range(1, max_harmonics + 1):
        gate = k * f0 < 0.45 * sr
        if not gate.any():
            break
        x += gate * (np.sin(k * phase + rng.uniform(0, 2 * np.pi)) / k)
    return x


def _breath(rng, n: int) -> np.ndarray:
    """Unit-RMS breath-like noise: white noise tilted towards high frequencies."""
    w = rng.standard_normal(n + 1)
    return (w[1:] - 0.6 * w[:-1]) / math.sqrt(1 + 0.36)


def _envelope(n: int, sr: int, attack: float = 0.06, release: float = 0.12) -> np.ndarray:
    t = np.arange(n) / sr
    return _smoothstep(t / attack) * _smoothstep((n / sr - t) / release)


@dataclass
class Clip:
    samples: np.ndarray
    f0: np.ndarray  # true per-sample f0, 0 where unvoiced


def sung_clip(rng, sr: int, seconds: float, centre: float, glide: float, max_harmonics: int) -> Clip:
    """One long sung tone: vibrato, a glide, 1/k roll-off and breath noise."""
    n = int(round(seconds * sr))
    f0 = _note_f0(rng, n, sr, centre, glide)
    gate = _envelope(n, sr)
    swell = 0.8 + 0.2 * np.sin(2 * np.pi * rng.uniform(0.2, 0.5) * np.arange(n) / sr)
    x = 0.25 * gate * swell * _harmonic_sum(rng, f0, sr, max_harmonics)
    x += 0.004 * _breath(rng, n)
    return Clip(x, np.where(gate > 0.999, f0, 0.0))


def phrase_clip(rng, sr: int, seconds: float, centre: float, max_harmonics: int) -> Clip:
    """A short phrase: silence, an unvoiced breath, one or two notes, silence."""
    n = int(round(seconds * sr))
    gap = int(rng.uniform(0.12, 0.25) * sr)
    breath = int(rng.uniform(0.18, 0.3) * sr)
    tail = int(rng.uniform(0.1, 0.2) * sr)
    voiced = n - gap - breath - tail
    n_notes = 1 if voiced < 1.6 * sr else 2
    bounds = np.linspace(0, voiced, n_notes + 1).astype(int)
    x = 0.0005 * _breath(rng, n)
    f0 = np.zeros(n)
    x[gap : gap + breath] += 0.02 * _breath(rng, breath) * _envelope(breath, sr, 0.05, 0.05)
    start = gap + breath
    for i in range(n_notes):
        m = bounds[i + 1] - bounds[i]
        note_centre = centre * 2.0 ** (i / 12.0)  # a second note steps up a semitone
        nf0 = _note_f0(rng, m, sr, note_centre, rng.choice([-1.0, 1.0]))
        env = _envelope(m, sr, 0.04, 0.08)
        seg = slice(start, start + m)
        x[seg] += 0.3 * env * _harmonic_sum(rng, nf0, sr, max_harmonics)
        x[seg] += 0.003 * env * _breath(rng, m)
        f0[seg] = np.where(env > 0.999, nf0, 0.0)
        start += m
    return Clip(x, f0)


def frame_f0(f0_samples: np.ndarray, hop: int, guard: int = 0) -> np.ndarray:
    """True f0 at the package's frame anchors m*hop + hop//2, ceil(n/hop) frames.

    A frame counts as voiced only when every sample within ``guard`` of its
    anchor is voiced, so frames whose analysis window reaches an onset, an
    offset or a note change carry no truth and are left out of f0 errors.
    """
    n = len(f0_samples)
    frames = math.ceil(n / hop)
    anchors = np.minimum(np.arange(frames) * hop + hop // 2, n - 1)
    unvoiced = np.concatenate([[0], np.cumsum(f0_samples <= 0)])
    lo = np.clip(anchors - guard, 0, n)
    hi = np.clip(anchors + guard + 1, 0, n)
    return np.where(unvoiced[hi] == unvoiced[lo], f0_samples[anchors], 0.0)


# Half-width of the truth guard: the tracker's correlation span plus its
# five-frame smoothing reach about this far from a frame anchor.
F0_GUARD_S = 0.06


def _grid(lo: float, hi: float, count: int, log: bool = False) -> np.ndarray:
    return np.geomspace(lo, hi, count) if log else np.linspace(lo, hi, count)


# ---------------------------------------------------------------------------
# Workloads. Each one writes its inputs and returns the calls to make.
# ---------------------------------------------------------------------------


def _write_wav(hn, path: str, samples: np.ndarray, sr: int) -> None:
    hn.write_wav(hn.Waveform(samples, sr), path, "float32")


def _build_long44k(hn, rng, out: str, smoke: bool) -> list[dict]:
    sr = 44100
    hop = hn.build_tool_config(sr).spectral.hop_size
    seconds = [1.0, 1.2] if smoke else [15.0, 15.0]
    centres = [165.0, 330.0]
    items = []
    for i, (secs, centre) in enumerate(zip(seconds, centres)):
        clip = sung_clip(rng, sr, secs,
                         centre * 2.0 ** (rng.uniform(-0.25, 0.25) / 12), rng.choice([-3.0, 3.0]), 40)
        wav, bundle, truth = (os.path.join(out, f"clip{i}{ext}") for ext in (".wav", ".out.hnsf", ".f0.npy"))
        _write_wav(hn, wav, clip.samples, sr)
        np.save(truth, frame_f0(clip.f0, hop, int(F0_GUARD_S * sr)))
        items.append({"argv": ["analyze", wav, "-o", bundle], "outputs": [bundle],
                      "input": wav, "truth_f0": truth, "audio_s": len(clip.samples) / sr})
    return items


def _phrase_pool(hn, rng, out: str, smoke: bool, sr: int, count: int) -> list[tuple[str, str, int]]:
    hop = hn.build_tool_config(sr).spectral.hop_size
    centres = _grid(90.0, 650.0, count, log=True)
    # A fixed interleave pairs lengths with pitches the same way for every seed,
    # so each pitch region weighs the same in pooled times and f0 errors.
    durations = _grid(1.5, 6.0, count)[(np.arange(count) * 5) % count]
    pool = []
    for i in range(count):
        secs = (1.6 if smoke else durations[i]) * rng.uniform(0.95, 1.05)
        centre = centres[i] * 2.0 ** (rng.uniform(-0.25, 0.25) / 12)
        clip = phrase_clip(rng, sr, secs, centre, 60)
        wav, truth = os.path.join(out, f"phrase{i}.wav"), os.path.join(out, f"phrase{i}.f0.npy")
        _write_wav(hn, wav, clip.samples, sr)
        np.save(truth, frame_f0(clip.f0, hop, int(F0_GUARD_S * sr)))
        pool.append((wav, truth, len(clip.samples)))
    return pool


def _build_phrases22k(hn, rng, out: str, smoke: bool) -> list[dict]:
    sr = 22050
    items = []
    for i, (wav, truth, n) in enumerate(_phrase_pool(hn, rng, out, smoke, sr, 2 if smoke else 8)):
        res, rep = os.path.join(out, f"phrase{i}.out.wav"), os.path.join(out, f"phrase{i}.report.json")
        items.append({"argv": ["resynth", wav, "-o", res, "--report", rep], "outputs": [res, rep],
                      "input": wav, "truth_f0": truth, "audio_s": n / sr})
    return items


def _build_eval22k(hn, rng, out: str, smoke: bool) -> list[dict]:
    sr = 22050
    items = []
    pool = _phrase_pool(hn, rng, out, smoke, sr, 2 if smoke else 12)
    gains = _grid(0.5, 0.9, len(pool))
    rng.shuffle(gains)
    for i, (wav, truth, n) in enumerate(pool):
        ref = hn.read_wav(wav).samples
        copy = gains[i] * rng.uniform(0.99, 1.01) * ref + 0.002 * rng.standard_normal(n)
        other = os.path.join(out, f"phrase{i}.copy.wav")
        _write_wav(hn, other, copy, sr)
        items.append({"argv": ["metrics", wav, other], "outputs": [], "input": wav,
                      "copy": other, "truth_f0": truth, "audio_s": n / sr})
    return items


def decoder_bundle(hn, rng, sr: int, seconds: float, centre: float):
    """A bundle as a neural decoder would emit it: dense harmonics, full-band noise.

    Every harmonic column is nonzero on voiced frames (the pitch stays below
    sr / (2 * k_max)), so no column can be skipped, and every noise bin is
    nonzero. Two short unvoiced gaps carry noise only.
    """
    tool = hn.build_tool_config(sr)
    hop, k_max, n_bins = tool.spectral.hop_size, tool.analysis.k_max, tool.spectral.n_bins
    n = int(round(seconds * sr))
    frames = math.ceil(n / hop)
    f0_samples = _note_f0(rng, frames * hop, sr, centre, rng.choice([-2.0, 2.0]))
    f0 = frame_f0(f0_samples, hop)
    gaps = np.zeros(frames, dtype=bool)
    for at in rng.uniform(0.25, 0.75, size=2):
        m = int(at * frames)
        gaps[m : m + int(0.2 * sr / hop)] = True
    f0 = np.where(gaps, 0.0, f0).astype(np.float32).astype(np.float64)
    t = np.arange(frames) * hop / sr
    level = 0.8 + 0.2 * np.sin(2 * np.pi * rng.uniform(0.2, 0.5) * t)
    ks = np.arange(1, k_max + 1)
    jitter = rng.uniform(0.8, 1.2, size=(frames, k_max))
    harm = 0.12 * level[:, None] * jitter / ks[None, :]
    harm[gaps] = 0.0
    freqs = np.linspace(0.0, sr / 2, n_bins)
    tilt = 1.0 / (1.0 + freqs / 3000.0)
    noise = 0.15 * level[:, None] * tilt[None, :] * rng.uniform(0.6, 1.4, size=(frames, n_bins))
    noise[gaps] *= 2.0
    return hn.FeatureBundle(
        f0=hn.F0Contour.from_values(f0, hop),
        harmonics=hn.HarmonicAmplitudes(harm.astype(np.float32).astype(np.float64)),
        noise=hn.NoiseMagnitudeSpectrum(noise.astype(np.float32).astype(np.float64)),
        sample_rate=sr, spectral=tool.spectral, analysis=tool.analysis,
    )


def reference_render(rng, bundle) -> np.ndarray:
    """Render a bundle by the harmonic-plus-noise model, without the package's synthesizer.

    The harmonic branch is a plain oscillator bank: f0 and every amplitude
    column are interpolated linearly between frame anchors m*hop + hop//2,
    harmonic k runs at k times the accumulated f0 phase from zero, and it is
    muted where unvoiced or at Nyquist. The noise branch overlap-adds frames of
    the magnitudes under random phase drawn from ``rng``, so it is another
    realisation of the same spectrum. A render of the bundle scores against
    this only as well as both branches follow the model.
    """
    sr, hop, spectral = bundle.sample_rate, bundle.hop_size, bundle.spectral
    if spectral.window != "hann" or spectral.win_size != spectral.fft_size:
        raise ValueError("the reference render assumes a full-length Hann window")
    n = bundle.frames * hop
    t = np.arange(n, dtype=np.float64)
    anchors = np.arange(bundle.frames) * hop + hop // 2
    f0 = np.interp(t, anchors, bundle.f0.values)
    phasor = np.exp(2j * np.pi * np.cumsum(f0) / sr)
    harmonic = phasor.copy()  # exp(i*k*phase), one multiply per harmonic
    y = np.zeros(n)
    for k in range(1, bundle.harmonics.k_max + 1):
        gate = (f0 > 0) & (k * f0 < sr / 2)
        if not gate.any():
            break
        y += gate * np.interp(t, anchors, bundle.harmonics.values[:, k - 1]) * harmonic.imag
        harmonic *= phasor

    fft = spectral.fft_size
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(fft) / fft)
    mags = bundle.noise.values
    frames = np.fft.irfft(mags * np.exp(1j * rng.uniform(-np.pi, np.pi, mags.shape)), n=fft, axis=1)
    total = (bundle.frames - 1) * hop + fft
    acc, energy = np.zeros(total), np.zeros(total)
    for m in range(bundle.frames):
        acc[m * hop : m * hop + fft] += frames[m] * window
        energy[m * hop : m * hop + fft] += window**2
    noise = np.where(energy > 1e-11, acc / np.maximum(energy, 1e-11), 0.0)
    pad_left = fft // 2 - hop // 2  # frame m is centred on its anchor
    return y + noise[pad_left : pad_left + n]


def _build_render44k(hn, rng, out: str, smoke: bool) -> list[dict]:
    sr = 44100
    items = []
    seconds = [1.0, 1.2] if smoke else [15.0, 15.0]
    for i, (secs, centre) in enumerate(zip(seconds, [130.0, 180.0])):
        bundle = decoder_bundle(hn, rng, sr, secs,
                                centre * 2.0 ** (rng.uniform(-0.25, 0.25) / 12))
        path, res, truth, ref = (os.path.join(out, f"bundle{i}{ext}")
                                 for ext in (".hnsf", ".out.wav", ".f0.npy", ".ref.npy"))
        hn.save_features(bundle, path)
        hop = bundle.hop_size
        np.save(truth, frame_f0(np.repeat(bundle.f0.values, hop), hop, int(F0_GUARD_S * sr)))
        np.save(ref, reference_render(rng, bundle))
        items.append({"argv": ["synth", path, "-o", res, "--format", "pcm16", "--seed", str(i)],
                      "outputs": [res], "input": path, "truth_f0": truth, "reference": ref,
                      "audio_s": bundle.frames * bundle.hop_size / sr})
    return items


@dataclass(frozen=True)
class Workload:
    why: str
    build: Callable
    min_passes: int = 1  # full passes over the input pool, whatever --seconds says


WORKLOADS = {
    "long44k": Workload(
        "analyze on long 44.1 kHz sung tones: the refine loop's bank calls dominate and "
        "arrays grow with clip length",
        _build_long44k,
    ),
    "phrases22k": Workload(
        "resynth --report on short 22.05 kHz phrases from 90 to 650 Hz: per-file fixed "
        "costs, dense and sparse banks",
        _build_phrases22k,
    ),
    "render44k": Workload(
        "synth of dense decoder-style 44.1 kHz bundles: the vocoder path, analysis bypassed",
        _build_render44k,
        min_passes=2,  # every bundle is rendered twice, so determinism is checked
    ),
    "eval22k": Workload(
        "metrics on reference/copy pairs: bypasses the harmonic bank; f0 tracking and "
        "spectra carry it",
        _build_eval22k,
    ),
}


def generate(workload: str, seed: int, out: str, smoke: bool = False) -> dict:
    """Write one workload's inputs under ``out`` and return its manifest."""
    hn = import_hnsynth()
    spec = WORKLOADS[workload]
    os.makedirs(out, exist_ok=True)
    # One stream per (workload, seed): workloads never share random draws.
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    manifest = {
        "workload": workload,
        "why": spec.why,
        "seed": seed,
        "smoke": smoke,
        "min_passes": spec.min_passes,
        "items": spec.build(hn, rng, out, smoke),
    }
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write into")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append",
                        help="workload to generate (repeatable; default all)")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    args = parser.parse_args(argv)
    for name in args.workload or sorted(WORKLOADS):
        manifest = generate(name, args.seed, os.path.join(args.out, name), args.smoke)
        print(f"{name}: {len(manifest['items'])} inputs - {manifest['why']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
