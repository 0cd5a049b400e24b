"""RunConfig parsing, precedence, and rendering."""

import dataclasses
import re
from datetime import date as Date
from pathlib import Path

import numpy as np
import pytest

from conftest import make_series
from twotier import cli
from twotier.config import KEY_TYPES, RunConfig, parse_config, render_config
from twotier.correction import DEFAULT_HARMONICS, DEFAULT_WINDOW
from twotier.errors import ConfigError
from twotier.knn import KnnConfig
from twotier.nn import NnConfig
from twotier.synth import SynthConfig
from twotier.timeseries import SamplingGrid

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_config_table() -> str:
    """The README's Configuration table as `key = value` lines; a row
    naming several keys pairs them with its ` / `-separated defaults."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    lines = []
    for row in section.splitlines():
        if not row.startswith("| `"):
            continue
        key_cell, default_cell = row.split("|")[1:3]
        keys = re.findall(r"`(\w+)`", key_cell)
        defaults = default_cell.strip().split(" / ")
        assert len(keys) == len(defaults), row
        lines += [f"{key} = {value}" for key, value in zip(keys, defaults)]
    return "\n".join(lines) + "\n"


def test_defaults_match_documented_values():
    c = RunConfig()
    assert c.sample_interval_seconds == 900
    assert (c.split_train, c.split_tune, c.split_test) == (0.6, 0.2, 0.2)
    assert (c.knn_depth_days, c.knn_neighbors) == (5, 2)
    assert (c.nn_hidden_neurons, c.nn_restarts) == (6, 10)
    assert (c.correction_window, c.correction_harmonics) == (8, 2)
    assert c.seed == 1
    # each default lives in the config it builds, and the README shows it
    assert c.knn() == KnnConfig()
    assert c.nn() == NnConfig()
    assert c.synth() == SynthConfig()
    assert c.grid() == SamplingGrid()
    assert (c.correction_window, c.correction_harmonics) == (DEFAULT_WINDOW, DEFAULT_HARMONICS)
    c.check()
    table = readme_config_table()
    keys = [line.split(" = ")[0] for line in table.splitlines()]
    assert sorted(keys) == sorted(f.name for f in dataclasses.fields(RunConfig))
    assert len(keys) == 24
    assert parse_config(table) == c


def test_parse_overrides_defaults():
    text = "knn_depth_days = 3\nseed = 77\n"
    c = parse_config(text)
    assert c.knn_depth_days == 3
    assert c.seed == 77
    assert c.knn_neighbors == 2  # untouched keys keep their defaults


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\nseed = 5\n  # another\n"
    assert parse_config(text).seed == 5


def test_one_leading_bom_dropped():
    """parse_config drops one leading BOM, as every reader does; a second
    is part of the first key."""
    assert parse_config("\ufeffseed = 5\n") == parse_config("seed = 5\n")
    with pytest.raises(ConfigError, match=r"^line 1: unknown key '\\ufeffseed'$"):
        parse_config("\ufeff\ufeffseed = 5\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("knn_depht_days = 3\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError):
        parse_config("seed 5\n")


def test_bad_value_type_rejected():
    with pytest.raises(ConfigError):
        parse_config("seed = lots\n")


def test_last_assignment_wins():
    c = parse_config("seed = 1\nseed = 9\n")
    assert c.seed == 9


def test_date_values_parse():
    c = parse_config("synth_start_date = 2016-03-01\n")
    assert c.synth_start_date == Date(2016, 3, 1)


def test_render_round_trips():
    c = RunConfig(seed=123, nn_loss_tolerance=5e-8, synth_cloudiness=0.4)
    back = parse_config(render_config(c))
    assert back == c


def test_ratios_validated():
    # `check` and `split_chronological` run the one check of them
    c = RunConfig(split_train=0.9)
    with pytest.raises(ConfigError, match=r"^split ratios must sum to 1, got 1\.3$"):
        c.check()
    with pytest.raises(ValueError, match=r"^split ratios must sum to 1, got 1\.3$"):
        cli._split(c, make_series(np.zeros((10, 96))))


def test_sub_config_construction():
    c = RunConfig()
    assert c.grid().samples_per_day == 96
    assert c.knn().depth_days == 5
    assert c.nn().hidden_neurons == 6
    assert c.nn().rng_seed == 1
    assert c.synth().cloudiness == 0.55
    c.check()


# A distinct, valid, non-default value of every key.
DISTINCT = {
    "sample_interval_seconds": 1800,
    "split_train": 0.5,
    "split_tune": 0.375,
    "split_test": 0.125,
    "knn_depth_days": 6,
    "knn_neighbors": 4,
    "nn_hidden_neurons": 7,
    "nn_restarts": 9,
    "nn_lm_initial_damping": 0.002,
    "nn_lm_damping_factor": 12.5,
    "nn_max_iterations": 150,
    "nn_loss_tolerance": 3e-8,
    "correction_window": 12,
    "correction_harmonics": 3,
    "seed": 77,
    "synth_days": 30,
    "synth_peak_power_w": 42000.0,
    "synth_sunrise_sample": 13,
    "synth_sunset_sample": 35,
    "synth_cloudiness": 0.45,
    "synth_cloud_event_rate": 2.5,
    "synth_cloud_depth_low": 0.1,
    "synth_cloud_depth_high": 0.6,
    "synth_start_date": Date(2016, 3, 1),
}
# Each component config, its builder and the prefix of its keys.
COMPONENTS = [
    (SamplingGrid, RunConfig.grid, ""),
    (KnnConfig, RunConfig.knn, "knn_"),
    (NnConfig, RunConfig.nn, "nn_"),
    (SynthConfig, RunConfig.synth, "synth_"),
]
# The component fields whose keys are not `<prefix><field>`.
EXCEPTIONS = {"rng_seed": "seed"}
# The keys that set no component field.
RUN_KEYS = {"split_train", "split_tune", "split_test", "correction_window",
            "correction_harmonics", "synth_days"}


def test_every_key_sets_its_component_field():
    assert list(DISTINCT) == list(KEY_TYPES)
    assert len({repr(value) for value in DISTINCT.values()}) == len(DISTINCT)
    defaults = RunConfig()
    assert not [key for key, value in DISTINCT.items() if getattr(defaults, key) == value]
    config = parse_config("".join(f"{key} = {value}\n" for key, value in DISTINCT.items()))
    assert config == RunConfig(**DISTINCT)
    assert parse_config(render_config(config)) == config
    keyed = set()
    for kind, build, prefix in COMPONENTS:
        settings = {}
        for field in dataclasses.fields(kind):
            if not field.init:
                continue
            key = EXCEPTIONS.get(field.name, prefix + field.name)
            assert key in DISTINCT, f"{kind.__name__}.{field.name} has no key"
            settings[field.name] = DISTINCT[key]
            keyed.add(key)
        assert build(config) == kind(**settings)
    assert keyed.isdisjoint(RUN_KEYS)
    assert keyed | RUN_KEYS == set(KEY_TYPES)
    config.check()


@pytest.mark.parametrize("window, harmonics", [(4, 2), (0, 2), (8, -1)])
def test_check_rejects_what_correction_rejects(window, harmonics):
    c = RunConfig(correction_window=window, correction_harmonics=harmonics)
    with pytest.raises(ConfigError,
                       match=f"^correction window {window} cannot fit {harmonics} harmonics$"):
        c.check()


@pytest.mark.parametrize("interval, window", [(900, 96), (900, 97), (1800, 48)])
def test_correction_window_must_be_shorter_than_a_day(interval, window):
    slots = 86400 // interval
    c = RunConfig(sample_interval_seconds=interval, correction_window=slots - 1,
                  synth_sunrise_sample=0, synth_sunset_sample=slots - 1)
    c.check()
    c = dataclasses.replace(c, correction_window=window)
    with pytest.raises(ConfigError, match=f"^correction window {window} must be shorter "
                                          f"than a day of {slots} samples$"):
        c.check()


def test_invalid_sub_config_becomes_config_error():
    c = RunConfig(knn_neighbors=1)
    with pytest.raises(ConfigError):
        c.knn()
    c = RunConfig(correction_window=4)
    with pytest.raises(ConfigError):
        c.check()
