"""Config file parsing, schema enforcement, and precedence."""

from dataclasses import fields

import numpy as np
import pytest

from hnsynth.analysis import AnalysisConfig
from hnsynth.cli import cli_main
from hnsynth.config import SCHEMA, build_tool_config, describe_schema, parse_config_file
from hnsynth.errors import FormatError
from hnsynth.losses import LossWeights
from hnsynth.spectral import MRS_FFT_SIZES, MelConfig, SpectralConfig
from hnsynth.types import Waveform
from hnsynth.wavio import write_wav


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_parse_typed_values_with_comments(tmp_path):
    path = write_cfg(
        tmp_path,
        """
        # tuned for a studio take
        fft_size = 1024
        hop_size = 256
        win_size = 1024
        window = hamming
        f_max = none
        mrs_fft_sizes = 256, 512, 1024
        voicing_threshold = 0.25   # trailing comment
        """,
    )
    overrides = parse_config_file(path)
    assert overrides["fft_size"] == 1024
    assert overrides["window"] == "hamming"
    assert overrides["f_max"] is None
    assert overrides["mrs_fft_sizes"] == (256, 512, 1024)
    assert overrides["voicing_threshold"] == 0.25


# center and harmonic_floor are keys earlier versions accepted
@pytest.mark.parametrize(
    "line", ["bogus_key = 1", "center = true", "harmonic_floor = 0.05"], ids=["bogus_key", "center", "harmonic_floor"]
)
def test_unknown_key_rejected_with_line_number(tmp_path, capsys, line):
    path = write_cfg(tmp_path, f"fft_size = 512\n{line}\n")
    with pytest.raises(FormatError, match="unknown config key") as err:
        parse_config_file(path)
    assert err.value.line == 2
    wav = tmp_path / "x.wav"
    write_wav(Waveform(np.zeros(4096), 8000), wav)
    assert cli_main(["metrics", str(wav), str(wav), "--config", str(path)]) == 4
    assert "unknown config key" in capsys.readouterr().err


def test_bad_value_rejected(tmp_path):
    path = write_cfg(tmp_path, "n_mels = eighty\n")
    with pytest.raises(FormatError):
        parse_config_file(path)


def test_missing_equals_rejected(tmp_path):
    path = write_cfg(tmp_path, "n_mels 80\n")
    with pytest.raises(FormatError):
        parse_config_file(path)


def test_defaults_depend_on_sample_rate():
    hi = build_tool_config(44100)
    lo = build_tool_config(22050)
    assert hi.spectral.fft_size == 2048 and hi.spectral.hop_size == 512
    assert lo.spectral.fft_size == 1024 and lo.spectral.hop_size == 256
    # analysis hop always follows the spectral hop
    assert hi.analysis.hop_size == hi.spectral.hop_size
    assert lo.analysis.hop_size == lo.spectral.hop_size


def test_overrides_beat_defaults():
    tool = build_tool_config(44100, {"fft_size": 1024, "hop_size": 256, "win_size": 1024, "n_mels": 64})
    assert tool.spectral.fft_size == 1024
    assert tool.mel.n_mels == 64
    assert tool.analysis.hop_size == 256


def test_tool_refinement_default_is_the_estimators_one_pass():
    assert build_tool_config(22050).analysis.refine_iters == AnalysisConfig().refine_iters == 1
    assert build_tool_config(22050, {"refine_iters": 0}).analysis.refine_iters == 0


def test_domain_violations_surface_as_value_error():
    with pytest.raises(ValueError):
        build_tool_config(22050, {"hop_size": 0})
    with pytest.raises(ValueError):
        build_tool_config(22050, {"unknown_thing": 1})
    with pytest.raises(ValueError):
        build_tool_config(22050, {"mrs_fft_sizes": (500,)})
    with pytest.raises(ValueError, match="hop=0"):
        build_tool_config(22050, {"mrs_fft_sizes": (2, 1024)})
    with pytest.raises(ValueError, match=r"^mrs_fft_sizes entry 2 \(1000\): fft_size must be a power of two"):
        build_tool_config(22050, {"mrs_fft_sizes": (512, 1000)})
    with pytest.raises(ValueError):
        build_tool_config(22050, {"seed": -3})
    with pytest.raises(ValueError, match="constant overlap-add"):
        build_tool_config(22050, {"hop_size": 500})


def test_schema_doc_covers_every_key():
    doc = describe_schema()
    for key in SCHEMA:
        assert key in doc


def test_schema_keys_are_the_config_fields():
    names = {f.name for cls in (SpectralConfig, MelConfig, AnalysisConfig, LossWeights) for f in fields(cls)}
    assert set(SCHEMA) == (names - {"spectral"}) | {"mrs_fft_sizes", "seed"}


@pytest.mark.parametrize("rate", [8000, 22050, 44100, 48000])
def test_tool_defaults_are_the_dataclass_defaults(rate):
    tool = build_tool_config(rate)
    sizes = {key: getattr(tool.spectral, key) for key in ("fft_size", "hop_size", "win_size")}
    assert tool.spectral == SpectralConfig(**sizes)
    assert tool.mel == MelConfig(spectral=tool.spectral)
    assert tool.analysis == AnalysisConfig(hop_size=tool.spectral.hop_size)
    assert tool.weights == LossWeights()
    assert (tool.mrs_fft_sizes, tool.seed) == (MRS_FFT_SIZES, 0)
