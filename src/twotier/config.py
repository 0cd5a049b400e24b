"""Run configuration: defaults, `key = value` files, flag overrides.

Precedence is defaults, then the config file, then command-line flags.
Unknown keys are rejected so a typo cannot silently fall back to a
default.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, replace
from datetime import date as Date

from .errors import ConfigError
from .knn import KnnConfig
from .nn import NnConfig
from .synth import SynthConfig
from .timeseries import SamplingGrid


def _parse_date(text: str) -> Date:
    try:
        return Date.fromisoformat(text)
    except ValueError:
        raise ConfigError(f"bad date {text!r} (want YYYY-MM-DD)") from None


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"bad integer {text!r}") from None


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"bad number {text!r}") from None


@dataclass(frozen=True)
class RunConfig:
    sample_interval_seconds: int = 900
    split_train: float = 0.6
    split_tune: float = 0.2
    split_test: float = 0.2
    knn_depth_days: int = 5
    knn_neighbors: int = 2
    nn_hidden_neurons: int = 6
    nn_restarts: int = 10
    nn_lm_initial_damping: float = 1e-3
    nn_lm_damping_factor: float = 10.0
    nn_max_iterations: int = 200
    nn_loss_tolerance: float = 1e-9
    correction_window: int = 8
    correction_harmonics: int = 2
    seed: int = 1
    synth_days: int = 50
    synth_peak_power_w: float = 35000.0
    synth_sunrise_sample: int = 26
    synth_sunset_sample: int = 70
    synth_cloudiness: float = 0.55
    synth_cloud_event_rate: float = 1.0
    synth_cloud_depth_low: float = 0.2
    synth_cloud_depth_high: float = 0.75
    synth_start_date: Date = Date(2015, 2, 15)

    def grid(self) -> SamplingGrid:
        try:
            return SamplingGrid(sample_interval_seconds=self.sample_interval_seconds)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def ratios(self) -> tuple[float, float, float]:
        parts = (self.split_train, self.split_tune, self.split_test)
        if not (all(p >= 0 for p in parts) and abs(sum(parts) - 1.0) <= 1e-9):
            raise ConfigError(f"split ratios {parts} must be >= 0 and sum to 1")
        return parts

    def knn(self) -> KnnConfig:
        try:
            return KnnConfig(
                depth_days=self.knn_depth_days, neighbors=self.knn_neighbors
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def nn(self) -> NnConfig:
        try:
            return NnConfig(
                hidden_neurons=self.nn_hidden_neurons,
                restarts=self.nn_restarts,
                lm_initial_damping=self.nn_lm_initial_damping,
                lm_damping_factor=self.nn_lm_damping_factor,
                max_iterations=self.nn_max_iterations,
                loss_tolerance=self.nn_loss_tolerance,
                rng_seed=self.seed,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def synth(self) -> SynthConfig:
        try:
            return SynthConfig(
                peak_power_w=self.synth_peak_power_w,
                sunrise_sample=self.synth_sunrise_sample,
                sunset_sample=self.synth_sunset_sample,
                cloudiness=self.synth_cloudiness,
                cloud_event_rate=self.synth_cloud_event_rate,
                cloud_depth=(self.synth_cloud_depth_low, self.synth_cloud_depth_high),
                start_date=self.synth_start_date,
                rng_seed=self.seed,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def correction_params(self) -> tuple[int, int]:
        window, harmonics = self.correction_window, self.correction_harmonics
        if window < 1 or harmonics < 1 or 2 * harmonics + 1 > window:
            raise ConfigError(
                f"correction window {window} cannot fit {harmonics} harmonics"
            )
        return window, harmonics


_PARSERS = {
    int: _parse_int,
    float: _parse_float,
    Date: _parse_date,
}

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
            updates[key] = _PARSERS[_FIELD_TYPES[key]](value)
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
