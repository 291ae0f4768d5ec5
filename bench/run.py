"""hnsynth benchmark: drives the CLI on seeded synthetic inputs, one subcommand per workload.

    python3 bench/run.py --workload long44k --seed 1 --seconds 10 --trace 0
    python3 bench/run.py                 # every workload, untraced then traced

Inputs are generated on disk first (bench/gen.py). A fresh worker process then
makes the workload's CLI calls in sequence through ``hnsynth.cli.cli_main``,
in full passes over the input pool, until ``--seconds`` of calls have been
measured. Outputs are checked and quality is scored outside the timed region.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` repeats the same
calls in a second worker with every layer's public functions wrapped, and
prints per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# Cap BLAS and OpenMP pools at the CPU count before numpy loads; the worker and
# set-up processes inherit the same caps.
THREADS = str(os.cpu_count() or 1)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402
import tracer  # noqa: E402

BENCH_DIR = gen.BENCH_DIR
SRC_DIR = gen.SRC_DIR
WORK_DIR = os.path.join(BENCH_DIR, ".work")
SETUP_STARTS = 5  # fresh interpreters timed per run for setup_s

# name -> unit, as declared in BENCHMARK.json
END_TO_END = {
    "xrt": "audio_s/s",
    "call_p50_ms": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "f0_rmse_hz": "Hz",
    "mel_l1": "log-mel",
}


def layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def run_worker(manifest: dict, work: str, tag: str, *, seconds: float, trace: bool = False,
               memory: bool = False, passes: int | None = None) -> dict:
    # Only a hang should reach this: a worker measures about `seconds` plus one pass.
    timeout = max(150.0, 3 * seconds + 120)
    job = {
        "src": SRC_DIR,
        "items": manifest["items"],
        "seconds": seconds,
        "min_passes": manifest["min_passes"],
        "passes": passes,
        "trace": trace,
        "memory": memory,
        "result": os.path.join(work, f"{tag}.result.json"),
    }
    job_path = os.path.join(work, f"{tag}.job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    log_path = os.path.join(work, f"{tag}.log")
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen([sys.executable, os.path.join(BENCH_DIR, "worker.py"), job_path],
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{tag} worker exceeded {timeout:g} s")
    if code != 0:
        with open(log_path, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"{tag} worker exited with {code}:\n{tail}")
    with open(job["result"], encoding="utf-8") as fh:
        return json.load(fh)


def measure_setup(reps: int) -> float:
    """Median wall time of a fresh interpreter running the CLI to --version."""
    code = (f"import sys; sys.path.insert(0, {SRC_DIR!r}); from hnsynth.cli import main; "
            "sys.argv = ['hnsynth', '--version']; main()")
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or not proc.stdout.startswith("hnsynth "):
            raise BenchError(f"hnsynth --version failed ({proc.returncode}): {proc.stderr[-500:]}")
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Output checks and quality, all outside the timed region
# ---------------------------------------------------------------------------


class Quality:
    """Pools f0 errors over frames voiced in both contours, and mel L1 over items."""

    def __init__(self):
        self.f0_sq = 0.0
        self.f0_frames = 0
        self.mel: list[float] = []

    def add_f0(self, analysed: np.ndarray, truth: np.ndarray) -> None:
        if analysed.shape != truth.shape:
            raise ValueError(f"f0 has {analysed.shape[0]} frames, truth {truth.shape[0]}")
        both = (analysed > 0) & (truth > 0)
        self.f0_sq += float(np.sum((analysed[both] - truth[both]) ** 2))
        self.f0_frames += int(both.sum())

    def f0_rmse(self) -> float:
        return math.sqrt(self.f0_sq / self.f0_frames) if self.f0_frames else math.nan


def _report_values(text: str, n_samples: int) -> dict:
    report = json.loads(text)
    for key in ("mel_l1", "dsp_loss", "f0_rmse_hz", "mrs_l1"):
        if not math.isfinite(float(report[key])):
            raise ValueError(f"report {key} is not finite: {report[key]}")
    if report["n_samples"] != n_samples:
        raise ValueError(f"report n_samples {report['n_samples']} != {n_samples}")
    return report


def check_item(workload: str, item: dict, stdout: str, hn, quality: Quality) -> None:
    """Raise if the item's outputs are wrong; otherwise add its quality figures."""
    truth = np.load(item["truth_f0"])
    if workload == "render44k":
        bundle = hn.load_features(item["input"])
        tool = hn.build_tool_config(bundle.sample_rate)
        y = hn.read_wav(item["outputs"][0])
        if y.sample_rate != bundle.sample_rate or len(y) != bundle.frames * bundle.hop_size:
            raise ValueError(f"rendered {len(y)} samples at {y.sample_rate} Hz, "
                             f"expected {bundle.frames * bundle.hop_size} at {bundle.sample_rate}")
        quality.add_f0(hn.estimate_f0(y, tool.analysis).values, truth)
        reference = hn.Waveform(np.load(item["reference"]), bundle.sample_rate)
        quality.mel.append(hn.mel_l1(y, reference, tool.mel))
        return

    x = hn.read_wav(item["input"])
    tool = hn.build_tool_config(x.sample_rate)
    if workload == "long44k":
        bundle = hn.load_features(item["outputs"][0])
        frames = math.ceil(len(x) / tool.spectral.hop_size)
        shapes = (bundle.f0.values.shape, bundle.harmonics.values.shape, bundle.noise.values.shape)
        expected = ((frames,), (frames, tool.analysis.k_max), (frames, tool.spectral.n_bins))
        if shapes != expected or bundle.sample_rate != x.sample_rate:
            raise ValueError(f"bundle shapes {shapes} at {bundle.sample_rate} Hz, expected {expected}")
        quality.add_f0(bundle.f0.values, truth)
        y = hn.render_bundle(bundle, seed=0)
        quality.mel.append(hn.mel_l1(hn.Waveform(y.samples[: len(x)], x.sample_rate), x, tool.mel))
    elif workload == "phrases22k":
        y = hn.read_wav(item["outputs"][0])
        if len(y) != len(x) or y.sample_rate != x.sample_rate:
            raise ValueError(f"resynthesis has {len(y)} samples at {y.sample_rate} Hz")
        with open(item["outputs"][1], encoding="utf-8") as fh:
            written = fh.read()
        if written != stdout:
            raise ValueError("report file differs from the printed report")
        report = _report_values(written, len(x))
        quality.add_f0(hn.estimate_f0(x, tool.analysis).values, truth)
        quality.mel.append(report["mel_l1"])
    elif workload == "eval22k":
        report = _report_values(stdout, len(x))
        quality.add_f0(hn.estimate_f0(hn.read_wav(item["copy"]), tool.analysis).values, truth)
        quality.mel.append(report["mel_l1"])
    else:
        raise BenchError(f"no output check for workload {workload}")


def judge(workload: str, manifest: dict, results: list[dict], hn) -> tuple[list[bool], Quality]:
    """Mark each call ok or failed; every output of one input must be byte-identical.

    All runs' calls are judged together, so a traced call whose output differs
    from the untraced one fails.
    """
    quality = Quality()
    calls = [c for r in results for c in r["calls"]]
    first = {}
    for c in calls:
        first.setdefault(c["item"], c)
    item_ok = {}
    for index, c in first.items():
        item = manifest["items"][index]
        try:
            if c["code"] != 0 or c["error"]:
                raise ValueError(f"exit {c['code']} {c['error'] or ''}")
            check_item(workload, item, c["stdout"], hn, quality)
            item_ok[index] = True
        except (ValueError, KeyError, OSError, hn.FormatError) as exc:
            print(f"bench: {workload} input {index} failed its check: {exc}", file=sys.stderr)
            item_ok[index] = False
    ok = []
    for c in calls:
        good = item_ok[c["item"]] and c["code"] == 0 and not c["error"]
        if c["digest"] != first[c["item"]]["digest"]:
            print(f"bench: {workload} input {c['item']} gave different bytes on pass {c['pass']}",
                  file=sys.stderr)
            good = False
        ok.append(good)
    return ok, quality


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def timing(manifest: dict, result: dict) -> tuple[float, list[float]]:
    """(xrt, per-call wall seconds) over a worker's calls."""
    walls = [c["wall_s"] for c in result["calls"]]
    audio = sum(manifest["items"][c["item"]]["audio_s"] for c in result["calls"])
    return audio / sum(walls), walls


def tail(walls: list[float]) -> tuple[float, float] | None:
    """Highest of p50/p90/p95/p99 with at least ten calls beyond it, as (percentile, s)."""
    for p in (99.0, 95.0, 90.0, 50.0):
        if len(walls) * (1 - p / 100) >= 10:
            return p, float(np.percentile(walls, p))
    return None


def _result(ok: list[bool], metrics: dict, units: dict, consistent: bool, info: dict) -> dict:
    if not all(math.isfinite(v) for v in metrics.values()):
        raise BenchError(f"non-finite metric in {metrics}")
    return {
        "correct": consistent and all(ok),
        "attempted": len(ok),
        "failed": ok.count(False),
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
        "info": {**info, "failed_frac": ok.count(False) / len(ok)},
    }


def run_workload(name: str, seed: int, seconds: float, traces: tuple[int, ...], smoke: bool) -> dict:
    """Results keyed by trace flag (0, 1 or both) for one workload and seed.

    The traced step reuses the untraced run of the same inputs for its
    overhead figure and its byte-identity check.
    """
    hn = gen.import_hnsynth()
    work = os.path.join(WORK_DIR, f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        manifest = gen.generate(name, seed, os.path.join(work, "inputs"), smoke)
        plain = run_worker(manifest, work, "plain", seconds=seconds)
        runs = [plain]
        if 1 in traces:
            # Timing spans and tracemalloc run apart: tracemalloc slows every
            # allocation and would distort self times.
            traced = run_worker(manifest, work, "traced", seconds=seconds, trace=True,
                                passes=plain["passes"])
            memory = run_worker(manifest, work, "memory", seconds=seconds, trace=True,
                                memory=True, passes=1)
            runs += [traced, memory]
        ok, quality = judge(name, manifest, runs, hn)
        xrt, walls = timing(manifest, plain)
        info = {"calls": len(walls), "passes": plain["passes"], "tail": tail(walls)}
        out = {}
        if 0 in traces:
            metrics = {
                "xrt": xrt,
                "call_p50_ms": 1000.0 * statistics.median(walls),
                "peak_rss_mib": plain["peak_rss_mib"],
                "setup_s": measure_setup(1 if smoke else SETUP_STARTS),
                "f0_rmse_hz": quality.f0_rmse(),
                "mel_l1": float(np.mean(quality.mel)) if quality.mel else math.nan,
            }
            out[0] = _result(ok[: len(walls)], metrics, END_TO_END, True, info)
        if 1 in traces:
            traced_xrt, _ = timing(manifest, traced)
            metrics = dict(traced["layers"])
            metrics.update({m: memory["layers"][m] for m in metrics if m.endswith("peak_alloc_mib")})
            metrics["trace_overhead_frac"] = xrt / traced_xrt - 1.0
            residuals = {key: traced[key] for key in ("self_sum_vs_root_s", "self_sum_minus_wall_s")}
            # Self times are differences of one clock; anything beyond rounding is a bug.
            consistent = (residuals["self_sum_vs_root_s"] < 1e-6
                          and residuals["self_sum_minus_wall_s"] <= 1e-9)
            units = {m: layer_unit(m) for m in tracer.metric_names()}
            out[1] = _result(ok, metrics, units, consistent, {**info, **residuals})
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_result(name: str, result: dict) -> None:
    info = result["info"]
    print(f"[{name}] calls={info['calls']} passes={info['passes']} "
          f"failed_frac={info['failed_frac']:.4g} correct={result['correct']}")
    if info["tail"] is not None and "xrt" in result["metrics"]:
        p, value = info["tail"]
        print(f"[{name}] call_tail_ms p{p:g} = {1000 * value:.6g} ms (n={info['calls']})")
    for key in ("self_sum_vs_root_s", "self_sum_minus_wall_s"):
        if key in info:
            print(f"[{name}] {key} = {info[key]:.3g} s")
    for metric, m in result["metrics"].items():
        print(f"[{name}] {metric} = {m['value']:.6g} {m['unit']}")


def host() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=["all", *gen.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure at least this many seconds of calls")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics (default: both for 'all')")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up sample")
    args = parser.parse_args(argv)

    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, (args.trace or 0,),
                                  args.smoke)[args.trace or 0]
            print_result(args.workload, result)
            del result["info"]
            print(json.dumps(result))
            return 0

        print(json.dumps({"host": host()}))
        traces = (0, 1) if args.trace is None else (args.trace,)
        results = {name: run_workload(name, args.seed, args.seconds, traces, args.smoke)
                   for name in gen.WORKLOADS}
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for trace in traces:
            for name in gen.WORKLOADS:
                result = results[name][trace]
                print_result(name, result)
                total["correct"] &= result["correct"]
                total["attempted"] += result["attempted"]
                total["failed"] += result["failed"]
                for metric, m in result["metrics"].items():
                    total["metrics"][f"{name}.{metric}"] = m
        print(json.dumps(total))
        return 0
    except (BenchError, SystemExit) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
