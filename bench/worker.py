"""Makes one workload's CLI calls in a fresh process and records what happened.

    python3 bench/worker.py JOB.json

The job names the calls (argv lists for ``hnsynth.cli.cli_main``), their output
files, how long to keep making full passes over them and whether to trace.
The process does nothing else, so its peak RSS is the workload's. Results,
per-call wall times, exit codes and output digests go to the job's
``result`` path as JSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
import tracemalloc


def _digest(stdout: str, outputs: list[str]) -> str:
    h = hashlib.sha256(stdout.encode("utf-8"))
    for path in outputs:
        h.update(b"\0" + path.encode("utf-8") + b"\0")
        if os.path.exists(path):
            with open(path, "rb") as fh:
                h.update(fh.read())
        else:
            h.update(b"<missing>")
    return h.hexdigest()


def _peak_rss_mib() -> float:
    """Peak RSS of this process image alone.

    ``ru_maxrss`` is not used: Linux carries the spawning process's resident
    size at exec time into it, so it would report the parent's peak.
    ``VmHWM`` starts afresh with the new image.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    from hnsynth import cli

    if not os.path.abspath(cli.__file__).startswith(job["src"] + os.sep):
        raise RuntimeError(f"imported hnsynth from {cli.__file__}, not {job['src']}")

    tracer = None
    if job["trace"]:
        import tracer as tracer_mod  # the benchmark's own module, next to this file

        tracer = tracer_mod.Tracer(memory=job["memory"])
        tracer_mod.install(tracer)
        if job["memory"]:
            tracemalloc.start()

    items = job["items"]
    calls = []
    measured = 0.0
    passes = 0
    while True:
        for index, item in enumerate(items):
            for path in item["outputs"]:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(path)
            if tracer is not None:
                tracer.call_id = len(calls)
            buf = io.StringIO()
            error = None
            code = None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.cli_main(item["argv"])
            except Exception as exc:  # recorded as a failed call, the run goes on
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
            measured += wall
            calls.append({
                "item": index,
                "pass": passes,
                "wall_s": wall,
                "code": code,
                "error": error,
                "digest": _digest(buf.getvalue(), item["outputs"]),
                "stdout": buf.getvalue() if passes == 0 else None,
            })
        passes += 1
        if job["passes"] is not None:
            if passes >= job["passes"]:
                break
        elif passes >= job["min_passes"] and measured >= job["seconds"]:
            break

    result = {
        "calls": calls,
        "passes": passes,
        "peak_rss_mib": _peak_rss_mib(),
    }
    if tracer is not None:
        if job["memory"]:
            tracemalloc.stop()
        match, excess = tracer.call_residuals({i: c["wall_s"] for i, c in enumerate(calls)})
        result["layers"] = tracer.metrics()
        result["self_sum_vs_root_s"] = match
        result["self_sum_minus_wall_s"] = excess
    return result


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    result = run(job)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
