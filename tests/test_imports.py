"""The package runs on numpy alone: no module of it imports scipy, lazily or otherwise.

Nor does a CLI call import numpy.ma, which np.median pulls in lazily, or
queue, mmap or concurrent.futures, none of which its threads need.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import hnsynth

PACKAGE = pathlib.Path(hnsynth.__file__).resolve().parent

_RUN_EVERY_SUBCOMMAND = """
import sys

import numpy as np

from hnsynth.cli import cli_main
from hnsynth.types import Waveform
from hnsynth.wavio import write_wav

d = sys.argv[1]
t = np.arange(4000) / 8000.0
write_wav(Waveform(0.5 * np.sin(2 * np.pi * 220.0 * t), 8000), f"{d}/x.wav")
for argv in (
    ["analyze", f"{d}/x.wav", "-o", f"{d}/x.hnsf"],
    ["synth", f"{d}/x.hnsf", "-o", f"{d}/y.wav", "--format", "pcm16"],
    ["resynth", f"{d}/x.wav", "-o", f"{d}/z.wav", "--report", f"{d}/z.json"],
    ["metrics", f"{d}/x.wav", f"{d}/z.wav"],
):
    assert cli_main(argv) == 0, argv
print("queue, mmap or concurrent modules:", sorted(
    m for m in sys.modules if m in ("queue", "mmap", "concurrent") or m.startswith("concurrent.")
))
print("numpy.ma imported:", "numpy.ma" in sys.modules)
print("scipy modules:", sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


@pytest.fixture(scope="module")
def every_subcommand_output(tmp_path_factory):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_EVERY_SUBCOMMAND, str(tmp_path_factory.mktemp("cli"))],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_every_subcommand_runs_without_importing_scipy(every_subcommand_output):
    assert every_subcommand_output[-1] == "scipy modules: []"


def test_every_subcommand_runs_without_importing_numpy_ma(every_subcommand_output):
    # numpy.ma holds about 1.4 MiB of resident memory in every process that imports it
    assert every_subcommand_output[-2] == "numpy.ma imported: False"


def test_every_subcommand_runs_without_importing_queue_mmap_or_concurrent(every_subcommand_output):
    # synth's render hands the bank's chunks between threads through threading
    # alone, which the CLI loads anyway, so no module is added to a call's start-up
    assert every_subcommand_output[-3] == "queue, mmap or concurrent modules: []"


def test_package_source_never_names_scipy():
    hits = [
        f"{path.relative_to(PACKAGE)}:{number}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if "scipy" in line
    ]
    assert hits == []


def test_every_exported_name_is_listed_once_and_resolves():
    names = hnsynth.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(hnsynth, name)


def test_every_benchmark_trace_target_is_a_function_of_its_module():
    # bench/tracer.py wraps these names and stops a traced run when one is
    # missing, so a rename or deletion in the package shows here first
    source = (pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py").read_text(encoding="utf-8")
    targets = next(
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    )
    assert targets
    for module_name, functions in targets.items():
        module = importlib.import_module(f"hnsynth.{module_name}")
        for name in functions:
            fn = getattr(module, name, None)
            assert callable(fn) and fn.__module__ == module.__name__, f"{module_name}.{name}"
