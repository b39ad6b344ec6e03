"""Run-config file parsing, validation, and round trips."""
from __future__ import annotations

from pathlib import Path

import pytest

from remitsim.runconfig import (MIN_BAND_SAMPLES, RunConfig, build_config, read_config_file,
                                write_config_file)


def test_defaults():
    config = RunConfig()
    assert config.start == 0 and config.end == 119
    assert config.split_fraction == 0.8
    assert config.effective_split_seed == config.seed


def test_file_parsing_with_comments(tmp_path: Path):
    path = tmp_path / "run.config"
    path.write_text(
        "# comment line\n"
        "\n"
        "seed = 42\n"
        "start = 2012-01   # inline comment\n"
        "end = 2013-12\n"
        "split_fraction = 0.75\n"
        "delta_gdp_clamp = true\n"
        "attribution = leave_one_out\n",
        encoding="utf-8")
    values = read_config_file(path)
    assert values == {"seed": 42, "start": 24, "end": 47, "split_fraction": 0.75,
                      "delta_gdp_clamp": True, "attribution": "leave_one_out"}
    config = build_config(path)
    assert config.seed == 42 and config.start == 24 and config.delta_gdp_clamp


def test_overrides_win(tmp_path: Path):
    path = tmp_path / "run.config"
    path.write_text("seed = 1\nstarts = 2\n", encoding="utf-8")
    config = build_config(path, seed=9)
    assert config.seed == 9
    assert config.starts == 2


def test_unknown_key_rejected(tmp_path: Path):
    path = tmp_path / "run.config"
    path.write_text("wibble = 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown config key"):
        read_config_file(path)


def test_bad_values_rejected(tmp_path: Path):
    for line, match in [
        ("split_fraction = 1.5", "split_fraction"),
        ("start = 2020-01", "date range"),
        ("end = \u0662\u0660\u0661\u0663-\u0660\u0661", "invalid year-month"),
        ("attribution = sometimes", "attribution"),
    ]:
        path = tmp_path / "run.config"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=match):
            build_config(path)
    path.write_text("delta_gdp_clamp = maybe\n", encoding="utf-8")
    with pytest.raises(ValueError, match="boolean"):
        read_config_file(path)
    path.write_text("seed 42\n", encoding="utf-8")
    with pytest.raises(ValueError, match="key = value"):
        read_config_file(path)


def test_band_draws_are_zero_or_enough_for_a_band():
    assert RunConfig(band_draws=0).band_draws == 0  # no bands
    assert RunConfig(band_draws=MIN_BAND_SAMPLES).band_draws == MIN_BAND_SAMPLES == 1000
    for draws in (-1, 1, MIN_BAND_SAMPLES - 1):
        with pytest.raises(ValueError, match="band_draws must be 0"):
            RunConfig(band_draws=draws)


def test_write_read_round_trip(tmp_path: Path):
    config = build_config(None, seed=7, start=24, end=59, split_fraction=0.7,
                          delta_gdp_clamp=True, starts=3)
    path = tmp_path / "run.config"
    write_config_file(config, path)
    reloaded = build_config(path, data_dir=config.data_dir, output_dir=config.output_dir)
    assert reloaded == config
