"""Run configuration: defaults, `key = value` files, flag overrides.

Precedence is defaults, then the config file, then command-line flags.
Unknown keys are rejected so a typo cannot silently fall back to a
default.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, replace
from datetime import date as Date

from . import correction
from .errors import ConfigError, Underdetermined
from .knn import KnnConfig
from .nn import NnConfig
from .synth import SynthConfig
from .timeseries import SamplingGrid


# the error for a malformed value of each key type
_BAD_VALUE = {
    int: "bad integer {!r}",
    float: "bad number {!r}",
    Date: "bad date {!r} (want YYYY-MM-DD)",
}


def _read_value(kind, text: str):
    """A value of type kind from its config file text."""
    try:
        return Date.fromisoformat(text) if kind is Date else kind(text)
    except ValueError:
        raise ConfigError(_BAD_VALUE[kind].format(text)) from None


def _build(kind, **settings):
    """kind(**settings), a rejected setting raised as ConfigError."""
    try:
        return kind(**settings)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class RunConfig:
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
    synth_cloud_depth_low: float = SynthConfig.cloud_depth[0]
    synth_cloud_depth_high: float = SynthConfig.cloud_depth[1]
    synth_start_date: Date = SynthConfig.start_date

    def grid(self) -> SamplingGrid:
        return _build(SamplingGrid, sample_interval_seconds=self.sample_interval_seconds)

    def knn(self) -> KnnConfig:
        return _build(KnnConfig, depth_days=self.knn_depth_days, neighbors=self.knn_neighbors)

    def nn(self) -> NnConfig:
        return _build(
            NnConfig,
            hidden_neurons=self.nn_hidden_neurons,
            restarts=self.nn_restarts,
            lm_initial_damping=self.nn_lm_initial_damping,
            lm_damping_factor=self.nn_lm_damping_factor,
            max_iterations=self.nn_max_iterations,
            loss_tolerance=self.nn_loss_tolerance,
            rng_seed=self.seed,
        )

    def synth(self) -> SynthConfig:
        return _build(
            SynthConfig,
            peak_power_w=self.synth_peak_power_w,
            sunrise_sample=self.synth_sunrise_sample,
            sunset_sample=self.synth_sunset_sample,
            cloudiness=self.synth_cloudiness,
            cloud_event_rate=self.synth_cloud_event_rate,
            cloud_depth=(self.synth_cloud_depth_low, self.synth_cloud_depth_high),
            start_date=self.synth_start_date,
            rng_seed=self.seed,
        )

    def correction_params(self) -> tuple[int, int]:
        """The correction window and harmonics, when the window can fit
        the harmonics and is shorter than a day, so that it corrects at
        least the day's last slot."""
        window, harmonics = self.correction_window, self.correction_harmonics
        try:
            correction.check_fit(window, harmonics)
        except (ValueError, Underdetermined) as exc:
            raise ConfigError(
                f"correction window {window} cannot fit {harmonics} harmonics"
            ) from exc
        slots = self.grid().samples_per_day
        if window >= slots:
            raise ConfigError(
                f"correction window {window} must be shorter than a day of {slots} samples"
            )
        return window, harmonics


_FIELD_TYPES = typing.get_type_hints(RunConfig)


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """Apply `key = value` lines on top of a base config.

    Blank lines and lines starting with # are skipped. A repeated key is
    fine (last one wins), an unknown key is not.
    """
    config = base if base is not None else RunConfig()
    updates = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        try:
            updates[key] = _read_value(_FIELD_TYPES[key], value)
        except ConfigError as exc:
            raise ConfigError(f"line {line_no}: {key}: {exc}") from None
    return replace(config, **updates)


def apply_overrides(config: RunConfig, overrides: dict) -> RunConfig:
    """Overlay already-typed values (from CLI flags); None entries skipped."""
    updates = {}
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        updates[key] = value
    return replace(config, **updates)


def render_config(config: RunConfig) -> str:
    """Config file text that parses back to exactly this config."""
    lines = []
    for name in _FIELD_TYPES:
        value = getattr(config, name)
        if isinstance(value, Date):
            shown = value.isoformat()
        elif isinstance(value, float):
            shown = repr(value)
        else:
            shown = str(value)
        lines.append(f"{name} = {shown}")
    return "\n".join(lines) + "\n"
