"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest bench
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import gen
import run
import tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def smoke():
    """workload -> trace -> (parsed final line, stdout) for every workload."""
    out = {}
    for workload in gen.WORKLOADS:
        for trace in (0, 1):
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            out.setdefault(workload, {})[trace] = (json.loads(proc.stdout.splitlines()[-1]), proc.stdout)
    return out


def test_declared_workloads_match_generator():
    assert [w["name"] for w in DECLARED["workloads"]] == list(gen.WORKLOADS)
    assert [w["why"] for w in DECLARED["workloads"]] == [w.why for w in gen.WORKLOADS.values()]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_printed_with_unit(smoke, trace, section):
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    for workload in gen.WORKLOADS:
        result, stdout = smoke[workload][trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert {m: v["unit"] for m, v in result["metrics"].items()} == declared
        for name, unit in declared.items():
            line = rf"^\[{workload}\] {re.escape(name)} = \S+ {re.escape(unit)}$"
            assert re.search(line, stdout, re.M), (workload, name)


def _info(stdout: str, key: str) -> float:
    line = next(line for line in stdout.splitlines() if f"] {key} = " in line)
    return float(line.split(" = ")[1].split()[0])


def test_self_times_add_up_to_each_call(smoke):
    for workload in gen.WORKLOADS:
        _, stdout = smoke[workload][1]
        assert _info(stdout, "self_sum_vs_root_s") < 1e-6
        assert _info(stdout, "self_sum_minus_wall_s") <= 0.0


def test_layer_counts_confirm_the_workload_split(smoke):
    def layer(workload, name):
        return smoke[workload][1][0]["metrics"][name]["value"]

    assert layer("eval22k", "synth.harmonic_synthesize.calls") == 0
    for name in tracer.TARGETS["analysis"]:
        assert layer("render44k", f"analysis.{name}.calls") == 0
    refine_iters = gen.import_hnsynth().build_tool_config(22050).analysis.refine_iters
    for workload in ("long44k", "phrases22k"):
        clips = layer(workload, "cli.cli_main.calls")
        assert layer(workload, "analysis.estimate_harmonics.refine_calls") == refine_iters * clips


def test_generator_is_seeded(tmp_path):
    def files(seed, where):
        gen.generate("eval22k", seed, str(where), smoke=True)
        # the manifest names its own directory; everything else must match byte for byte
        return {name: (where / name).read_bytes().replace(str(where).encode(), b"")
                for name in sorted(os.listdir(where))}

    first = files(5, tmp_path / "a")
    assert files(5, tmp_path / "b") == first
    assert files(6, tmp_path / "c") != first


def test_render_mel_l1_catches_a_worse_vocoder(tmp_path):
    """render44k scores against gen's own render, so a vocoder that drops harmonics shows."""
    hn = gen.import_hnsynth()
    item = gen.generate("render44k", 3, str(tmp_path), smoke=True)["items"][0]
    bundle = hn.load_features(item["input"])

    def score(rendered):
        hn.write_wav(rendered, item["outputs"][0], "pcm16")
        quality = run.Quality()
        run.check_item("render44k", item, "", hn, quality)
        return quality.mel[0]

    half = bundle.harmonics.values.copy()
    half[:, half.shape[1] // 2 :] = 0.0
    fewer = dataclasses.replace(bundle, harmonics=hn.HarmonicAmplitudes(half))
    assert score(hn.render_bundle(fewer, seed=0)) > 3 * score(hn.render_bundle(bundle, seed=0))


def test_install_wraps_every_binding():
    code = (
        "import sys, tracer; sys.path.insert(0, tracer.__file__.rsplit('/', 2)[0] + '/src');"
        "import hnsynth, hnsynth.analysis as a, hnsynth.features as f, hnsynth.synth as s;"
        "t = tracer.Tracer(); n = tracer.install(t);"
        "assert a.harmonic_synthesize is f.harmonic_synthesize is s.harmonic_synthesize;"
        "assert a.stft.__wrapped__ is hnsynth.stft.__wrapped__;"
        "print(n)"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH_DIR, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > len(tracer.SPAN_NAMES)


def test_missing_target_fails_loudly(monkeypatch):
    gen.import_hnsynth()
    monkeypatch.setitem(tracer.TARGETS, "synth", ("harmonic_synthesize", "no_such_function"))
    with pytest.raises(tracer.TracerError, match="no_such_function"):
        tracer.install(tracer.Tracer())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run("eval22k", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
