"""Smoke test of the end-to-end demo script on its generated tone."""

import importlib.util
from pathlib import Path

from hnsynth.features import load_features
from hnsynth.wavio import read_wav

DEMO = Path(__file__).resolve().parents[1] / "scripts" / "resynth_demo.py"


def test_resynth_demo_runs_on_generated_tone(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("resynth_demo", DEMO)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main(demo.parser.parse_args(["-o", str(tmp_path)]))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["features.hnsf", "input.wav", "resynth.wav"]
    x = read_wav(tmp_path / "input.wav")
    y = read_wav(tmp_path / "resynth.wav")
    assert (y.sample_rate, len(y)) == (x.sample_rate, len(x))
    assert load_features(tmp_path / "features.hnsf").f0.voiced.any()
    assert "mel L1" in capsys.readouterr().out
