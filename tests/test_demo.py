"""The end-to-end demo script: it drives the CLI and prints the CLI's own report."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from hnsynth.cli import cli_main
from hnsynth.features import load_features
from hnsynth.wavio import read_wav

from conftest import harmonic_tone

DEMO = Path(__file__).resolve().parents[1] / "scripts" / "resynth_demo.py"


@pytest.fixture(scope="module")
def demo():
    spec = importlib.util.spec_from_file_location("resynth_demo", DEMO)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(out: str) -> dict:
    """The JSON report that closes the printed text."""
    return json.loads(out[out.index("{") :])


def _assert_scores_the_copy(out: str, resynth, source, capsys):
    """The report the demo printed equals `hnsynth metrics` of the written copy against its input."""
    printed = _report(out)
    assert cli_main(["metrics", str(resynth), str(source)]) == 0
    measured = json.loads(capsys.readouterr().out)
    for key in ("mel_l1", "mrs_l1", "f0_rmse_hz"):
        assert printed[key] == pytest.approx(measured[key], rel=0, abs=1e-12), key
    return printed


def test_resynth_demo_runs_on_generated_tone(tmp_path, capsys, demo):
    assert demo.main(demo.parser.parse_args(["-o", str(tmp_path)])) == 0
    out = capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["features.hnsf", "input.wav", "resynth.wav"]
    x = read_wav(tmp_path / "input.wav")
    y = read_wav(tmp_path / "resynth.wav")
    assert (y.sample_rate, len(y)) == (x.sample_rate, len(x))
    assert load_features(tmp_path / "features.hnsf").f0.voiced.any()
    printed = _assert_scores_the_copy(out, tmp_path / "resynth.wav", tmp_path / "input.wav", capsys)
    assert printed["clipped_samples"] == 0


def test_demo_scores_a_clipped_copy_as_written(tmp_path, capsys, demo):
    # a 1.3 peak that resynth.wav cannot hold: the float render would score
    # about 0.08 mel L1, the clipped file about 3.65
    loud = tmp_path / "loud.wav"
    x = harmonic_tone(220.0, 22050, 1.0, [1.3])
    wavfile.write(loud, x.sample_rate, x.samples.astype(np.float32))
    out_dir = tmp_path / "out"
    assert demo.main(demo.parser.parse_args([str(loud), "-o", str(out_dir), "--seed", "3"])) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["features.hnsf", "resynth.wav"]
    out = capsys.readouterr().out
    printed = _assert_scores_the_copy(out, out_dir / "resynth.wav", loud, capsys)
    assert printed["clipped_samples"] > 0 and printed["mel_l1"] > 1.0


def test_demo_returns_the_first_failing_exit_code(tmp_path, capsys, demo):
    args = demo.parser.parse_args([str(tmp_path / "missing.wav"), "-o", str(tmp_path / "out")])
    assert demo.main(args) == 3
    assert list((tmp_path / "out").iterdir()) == []
    capsys.readouterr()
