"""The package runs on numpy alone: no module of it imports scipy, lazily or otherwise."""

import os
import pathlib
import subprocess
import sys

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
print("scipy modules:", sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_every_subcommand_runs_without_importing_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_EVERY_SUBCOMMAND, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "scipy modules: []"


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
