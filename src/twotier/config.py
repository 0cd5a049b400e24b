"""Run configuration: defaults and `key = value` files.

Precedence is defaults, then the config file, then command-line flags;
the CLI applies the flags. Unknown keys are rejected so a typo cannot
silently fall back to a default.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, fields
from datetime import date as Date

from . import correction
from .errors import ConfigError, Underdetermined, quoted
from .knn import KnnConfig
from .nn import NnConfig
from .synth import SynthConfig
from .timeseries import SamplingGrid, check_ratios


# Each key type's reader, of config file values and CLI flags alike, and
# the error for a config file value it rejects, given the quoted value.
READERS = {
    int: (int, "bad integer {}"),
    float: (float, "bad number {}"),
    Date: (Date.fromisoformat, "bad date {} (want YYYY-MM-DD)"),
}

# The component fields whose key is not `<prefix><field>`.
_RENAMED = {"rng_seed": "seed"}


def _build(kind, prefix: str, config: RunConfig):
    """kind built from config's key for each of its init fields; a
    rejected setting raises ConfigError."""
    settings = {
        f.name: getattr(config, _RENAMED.get(f.name, prefix + f.name))
        for f in fields(kind) if f.init
    }
    try:
        return kind(**settings)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class RunConfig:
    """Every run setting. A component setting's key is `<prefix><field>`
    (no prefix for the grid, `knn_`, `nn_`, `synth_`), except `seed`, the
    NN's and the generator's `rng_seed`. The split ratios, the correction
    window and harmonics and `synth_days` are settings of the run itself.
    `check` is the one check of them all that every command runs."""

    sample_interval_seconds: int = SamplingGrid.sample_interval_seconds
    split_train: float = 0.6
    split_tune: float = 0.2
    split_test: float = 0.2
    knn_depth_days: int = KnnConfig.depth_days
    knn_neighbors: int = KnnConfig.neighbors
    nn_hidden_neurons: int = NnConfig.hidden_neurons
    nn_restarts: int = NnConfig.restarts
    nn_lm_initial_damping: float = NnConfig.lm_initial_damping
    nn_lm_damping_factor: float = NnConfig.lm_damping_factor
    nn_max_iterations: int = NnConfig.max_iterations
    nn_loss_tolerance: float = NnConfig.loss_tolerance
    correction_window: int = correction.DEFAULT_WINDOW
    correction_harmonics: int = correction.DEFAULT_HARMONICS
    seed: int = NnConfig.rng_seed
    synth_days: int = 50
    synth_peak_power_w: float = SynthConfig.peak_power_w
    synth_sunrise_sample: int = SynthConfig.sunrise_sample
    synth_sunset_sample: int = SynthConfig.sunset_sample
    synth_cloudiness: float = SynthConfig.cloudiness
    synth_cloud_event_rate: float = SynthConfig.cloud_event_rate
    synth_cloud_depth_low: float = SynthConfig.cloud_depth_low
    synth_cloud_depth_high: float = SynthConfig.cloud_depth_high
    synth_start_date: Date = SynthConfig.start_date

    def grid(self) -> SamplingGrid:
        return _build(SamplingGrid, "", self)

    def knn(self) -> KnnConfig:
        return _build(KnnConfig, "knn_", self)

    def nn(self) -> NnConfig:
        return _build(NnConfig, "nn_", self)

    def synth(self) -> SynthConfig:
        return _build(SynthConfig, "synth_", self)

    def check(self) -> None:
        """Raise ConfigError for the first rejected setting: building the
        grid, k-NN, network and generator configs, in that order, then the
        correction window, which must fit its harmonics and be shorter than
        a day (so that it corrects at least the day's last slot), the
        generated days and the sunset's slot, and last the split ratios."""
        grid, _, _, synth = self.grid(), self.knn(), self.nn(), self.synth()
        window, harmonics = self.correction_window, self.correction_harmonics
        try:
            correction.check_fit(window, harmonics)
        except (ValueError, Underdetermined) as exc:
            raise ConfigError(f"correction window {window} cannot fit "
                              f"{harmonics} harmonics") from exc
        if window >= grid.samples_per_day:
            raise ConfigError(f"correction window {window} must be shorter than a day "
                              f"of {grid.samples_per_day} samples")
        try:
            synth.check_days(self.synth_days)
            synth.check_grid(grid)
            check_ratios((self.split_train, self.split_tune, self.split_test))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


# every key and its type, in the order of a config file
KEY_TYPES = typing.get_type_hints(RunConfig)


def parse_config(text: str) -> RunConfig:
    """Apply `key = value` lines to the defaults.

    Blank lines and lines starting with # are skipped. A repeated key is
    fine (last one wins), an unknown key is not. One leading byte-order
    mark (U+FEFF) is dropped.
    """
    updates = {}
    for line_no, raw in enumerate(text.removeprefix("\ufeff").split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {quoted(line)}")
        key = key.strip()
        value = value.strip()
        if key not in KEY_TYPES:
            raise ConfigError(f"line {line_no}: unknown key {quoted(key)}")
        reader, bad = READERS[KEY_TYPES[key]]
        try:
            updates[key] = reader(value)
        except ValueError:
            raise ConfigError(f"line {line_no}: {key}: {bad.format(quoted(value))}") from None
    return RunConfig(**updates)


def render_config(config: RunConfig) -> str:
    """Config file text that parses back to exactly this config."""
    lines = []
    for key in KEY_TYPES:
        value = getattr(config, key)
        shown = value.isoformat() if isinstance(value, Date) else repr(value)
        lines.append(f"{key} = {shown}")
    return "\n".join(lines) + "\n"
