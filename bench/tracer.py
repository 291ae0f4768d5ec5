"""Span tracer that wraps the package's public functions from outside.

Nothing in the package knows about it: ``install`` replaces every module
attribute that binds a target function with a wrapper that records a span
(name, start, end, parent id, call id) into memory. Spans are aggregated into
per-layer metrics only after the run, so tracing adds no I/O to timed calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

# Layer -> public functions whose calls are timed.
TARGETS = {
    "cli": ("cli_main",),
    "analysis": ("estimate_f0", "estimate_harmonics", "estimate_initial_phases", "estimate_noise"),
    "synth": ("harmonic_synthesize", "noise_synthesize"),
    "spectral": ("stft", "istft", "mel_spectrogram"),
    "losses": ("mel_l1", "f0_rmse"),
    "features": ("save_features", "load_features", "render_bundle"),
    "wavio": ("read_wav", "write_wav"),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)

# Spans whose tracemalloc peak is reported.
MEMORY_SPANS = (
    "analysis.estimate_f0",
    "analysis.estimate_harmonics",
    "synth.harmonic_synthesize",
    "spectral.stft",
    "synth.noise_synthesize",
)

# Counts computed from a call's arguments or result, outside the program.
COUNT_METRICS = (
    "spectral.stft.frames",
    "synth.harmonic_synthesize.samples",
    "synth.harmonic_synthesize.active_cols_frac",
    "analysis.estimate_harmonics.refine_calls",
    "analysis.estimate_f0.voiced_frac",
)


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a stable order."""
    names = [f"{span}.{stat}" for span in SPAN_NAMES for stat in ("calls", "self_s")]
    names += list(COUNT_METRICS)
    names += [f"{span}.peak_alloc_mib" for span in MEMORY_SPANS]
    names.append("trace_overhead_frac")
    return names


class TracerError(RuntimeError):
    """A target is missing or a binding was left unwrapped."""


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    call_id: int
    start: float
    end: float
    peak_alloc: int = 0  # bytes above the span's starting allocation, when memory is traced


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.call_id = 0
        self._stack: list[list] = []  # [span_id, name, start_bytes, running_peak]
        self._next_id = 0
        self._counts: dict[str, float] = defaultdict(float)

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, 0, 0]
        self._next_id += 1
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][3] = max(self._stack[-1][3], peak)
            tracemalloc.reset_peak()
            frame[2] = frame[3] = current
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        peak_alloc = 0
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            span_peak = max(peak, frame[3])
            peak_alloc = span_peak - frame[2]
            if self._stack:
                self._stack[-1][3] = max(self._stack[-1][3], span_peak)
            tracemalloc.reset_peak()
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(Span(frame[0], frame[1], parent, self.call_id, start, end, peak_alloc))

    def wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            parent_name = self._stack[-2][1] if len(self._stack) > 1 else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._exit(frame, start, end)
            if counter is not None:
                counter(self._counts, signature.bind(*args, **kwargs).arguments, result, parent_name)
            return result

        return traced

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        return {s.span_id: (s.end - s.start) - child_time[s.span_id] for s in self.spans}

    def call_residuals(self, call_walls: dict[int, float]) -> tuple[float, float]:
        """Per call: |sum of self times - root span| and sum of self times - call wall.

        Returns the worst of each over all calls. The first should be rounding
        error only; the second must not be positive.
        """
        own = self.self_times()
        sums: dict[int, float] = defaultdict(float)
        roots: dict[int, float] = {}
        for s in self.spans:
            sums[s.call_id] += own[s.span_id]
            if s.parent is None:
                if s.call_id in roots:
                    raise TracerError(f"call {s.call_id} has two root spans")
                roots[s.call_id] = s.end - s.start
        if set(roots) != set(call_walls):
            raise TracerError("traced calls and timed calls differ")
        match = max(abs(sums[c] - roots[c]) for c in roots)
        excess = max(sums[c] - call_walls[c] for c in roots)
        return match, excess

    def metrics(self) -> dict[str, float]:
        own = self.self_times()
        out = {f"{n}.{stat}": 0.0 for n in SPAN_NAMES for stat in ("calls", "self_s")}
        peaks = dict.fromkeys(MEMORY_SPANS, 0)
        for s in self.spans:
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.self_s"] += own[s.span_id]
            if s.name in peaks:
                peaks[s.name] = max(peaks[s.name], s.peak_alloc)
        c = self._counts
        out["spectral.stft.frames"] = c["stft_frames"]
        out["synth.harmonic_synthesize.samples"] = c["bank_samples"]
        out["synth.harmonic_synthesize.active_cols_frac"] = c["bank_active_cols"] / max(c["bank_cols"], 1)
        out["analysis.estimate_harmonics.refine_calls"] = c["refine_calls"]
        out["analysis.estimate_f0.voiced_frac"] = c["f0_voiced"] / max(c["f0_frames"], 1)
        for name, peak in peaks.items():
            out[f"{name}.peak_alloc_mib"] = peak / 2**20
        return out


def _count_stft(counts, args, result, parent):
    counts["stft_frames"] += result.shape[0]


def _count_bank(counts, args, result, parent):
    values = args["amplitudes"].values
    counts["bank_samples"] += len(result)
    counts["bank_active_cols"] += int((values != 0).any(axis=0).sum())
    counts["bank_cols"] += values.shape[1]
    if parent == "analysis.estimate_harmonics":
        counts["refine_calls"] += 1


def _count_f0(counts, args, result, parent):
    counts["f0_voiced"] += int(result.voiced.sum())
    counts["f0_frames"] += result.frames


_COUNTERS = {
    "spectral.stft": _count_stft,
    "synth.harmonic_synthesize": _count_bank,
    "analysis.estimate_f0": _count_f0,
}


def install(tracer: Tracer) -> int:
    """Wrap every binding of every target in the loaded ``hnsynth`` modules.

    Raises TracerError when a target is missing or not defined where the
    target list says, or when any module still binds an unwrapped target.
    Returns the number of bindings replaced.
    """
    originals = {}
    for mod_name, fns in TARGETS.items():
        module = importlib.import_module(f"hnsynth.{mod_name}")
        for fn_name in fns:
            fn = getattr(module, fn_name, None)
            if not callable(fn) or getattr(fn, "__module__", None) != module.__name__:
                raise TracerError(f"target {mod_name}.{fn_name} is missing or not defined there")
            originals[id(fn)] = (fn, tracer.wrap(f"{mod_name}.{fn_name}", fn))

    modules = [m for n, m in list(sys.modules.items()) if n == "hnsynth" or n.startswith("hnsynth.")]
    replaced = 0
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                replaced += 1
    for module in modules:
        for attr, value in vars(module).items():
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                raise TracerError(f"{module.__name__}.{attr} still binds an unwrapped target")
    return replaced
