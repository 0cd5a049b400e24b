"""Deterministic synthetic solar-day generator.

Clear days are an exact half-sine bell between sunrise and sunset scaled
to plant capacity. Cloudy days multiply the bell by a smooth attenuation
path: the day is cut into piecewise-linear segments (one per cloud event)
whose knot levels follow a bounded random walk, and the path is smoothed
over +/-2 samples. Attenuation carries over between consecutive cloudy
days, so overcast spells drift instead of jumping, which is what gives the
day-ahead predictors something real to learn while leaving enough
innovation for the local corrector to clean up.

All randomness comes from the portable SplitMix64 recurrence in
`twotier.rng`, so a (config, seed) pair reproduces the same series
bit-for-bit anywhere. Sample values are quantized to 1e-6 W at generation
time so the emitted CSV text is stable even across math libraries that
differ in the last ulp of sin().
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date as Date, timedelta
from typing import IO

import numpy as np

from .rng import MAX_POISSON_RATE, SplitMix64
from .errors import MalformedRow, quoted
from .timeseries import MAX_POWER_W, SamplingGrid, SolarSeries, check_span

SUNNY = "sunny"
CLOUDY = "cloudy"

# Day-to-day random-walk step for the attenuation level of an overcast
# spell, and the much smaller step between segment knots within one day.
LEVEL_STEP = 0.2
SEGMENT_STEP = 0.05


@dataclass(frozen=True)
class SynthConfig:
    """Generator knobs. Defaults shape a 35 kW plant on a 96-sample day."""

    peak_power_w: float = 35000.0
    sunrise_sample: int = 26          # 06:30 at 15-min sampling
    sunset_sample: int = 70           # 17:30
    cloudiness: float = 0.55          # probability a day is cloudy
    cloud_event_rate: float = 1.0     # expected cloud events per cloudy day
    cloud_depth_low: float = 0.2      # attenuation depth range of cloud cover
    cloud_depth_high: float = 0.75
    start_date: Date = Date(2015, 2, 15)
    rng_seed: int = 1

    def __post_init__(self):
        if not 0 < self.peak_power_w <= MAX_POWER_W:  # NaN fails too
            raise ValueError(f"peak_power_w must be in (0, {MAX_POWER_W:g}]")
        if not 0 <= self.sunrise_sample < self.sunset_sample:
            raise ValueError("need 0 <= sunrise_sample < sunset_sample")
        if not 0.0 <= self.cloudiness <= 1.0:
            raise ValueError("cloudiness must be in [0, 1]")
        if not 0 <= self.cloud_event_rate <= MAX_POISSON_RATE:  # NaN fails too
            raise ValueError(f"cloud_event_rate must be in [0, {MAX_POISSON_RATE:g}]")
        if not 0.0 <= self.cloud_depth_low <= self.cloud_depth_high <= 1.0:
            raise ValueError("cloud_depth range must satisfy 0 <= lo <= hi <= 1")

    def check_days(self, num_days: int) -> None:
        """Raise ValueError unless `num_days` is at least 1 and that many
        days from `start_date` end by 9999-12-31."""
        if num_days < 1:
            raise ValueError("num_days must be >= 1")
        check_span(self.start_date, num_days)

    def check_grid(self, grid: SamplingGrid) -> None:
        """Raise ValueError unless the sunset slot is on `grid`."""
        m = grid.samples_per_day
        if self.sunset_sample >= m:
            raise ValueError(f"sunset sample {self.sunset_sample} outside grid of {m} samples")


@dataclass(frozen=True, eq=False)
class SynthResult:
    series: SolarSeries
    labels: tuple[str, ...]   # one of SUNNY/CLOUDY per day, aligned with days

    def label_for(self, date: Date) -> str:
        """The label of `date`; KeyError for a date not generated. No
        command calls it; it is kept because the acceptance gate,
        `tests/test_acceptance.py`, calls it."""
        pos = (date - self.series.start).days
        if not 0 <= pos < len(self.labels):
            raise KeyError(f"date {date.isoformat()} not generated")
        return self.labels[pos]


def clear_sky_profile(config: SynthConfig, grid: SamplingGrid) -> np.ndarray:
    """Half-sine bell: zero outside [sunrise, sunset], peak at solar noon."""
    config.check_grid(grid)
    profile = np.zeros(grid.samples_per_day)
    daylight = config.sunset_sample - config.sunrise_sample
    for i in range(config.sunrise_sample, config.sunset_sample + 1):
        phase = (i - config.sunrise_sample) / daylight
        profile[i] = config.peak_power_w * np.sin(np.pi * phase)
    return profile


def _cloud_attenuation(
    rng: SplitMix64,
    config: SynthConfig,
    grid: SamplingGrid,
    carry_level: float | None,
) -> tuple[np.ndarray, float]:
    """Multiplicative attenuation in [0, 1] over the whole sample grid.

    `carry_level` is the closing level of the previous cloudy day, or None
    when the spell was broken by a clear day. Returns the attenuation and
    the level to carry into the next cloudy day.
    """
    m = grid.samples_per_day
    daylight = config.sunset_sample - config.sunrise_sample + 1
    level_lo, level_hi = 1.0 - config.cloud_depth_high, 1.0 - config.cloud_depth_low

    if carry_level is None:
        margin = min(0.05, (level_hi - level_lo) / 2.0)
        level = rng.uniform(level_lo + margin, level_hi - margin)
    else:
        level = min(level_hi, max(level_lo, carry_level + rng.uniform(-LEVEL_STEP, LEVEL_STEP)))

    segments = max(1, rng.poisson(config.cloud_event_rate))
    knots = [level]
    for _ in range(segments):
        step = rng.uniform(-SEGMENT_STEP, SEGMENT_STEP)
        knots.append(min(level_hi, max(level_lo, knots[-1] + step)))
    positions = np.linspace(0, daylight - 1, segments + 1)
    path = np.interp(np.arange(daylight), positions, knots)

    padded = np.pad(path, 2, mode="edge")
    smoothed = np.convolve(padded, np.full(5, 0.2), mode="valid")

    attenuation = np.ones(m)
    attenuation[config.sunrise_sample : config.sunset_sample + 1] = np.clip(
        smoothed, 0.0, 1.0
    )
    return attenuation, knots[-1]


def generate(
    config: SynthConfig, num_days: int, grid: SamplingGrid | None = None
) -> SynthResult:
    """Generate `num_days` labeled synthetic days starting at
    config.start_date, drawn from config.rng_seed."""
    config.check_days(num_days)
    grid = grid or SamplingGrid()
    rng = SplitMix64(config.rng_seed)
    bell = clear_sky_profile(config, grid)

    rows = []
    labels = []
    carry_level: float | None = None
    for i in range(num_days):
        cloudy = rng.random() < config.cloudiness
        if cloudy:
            attenuation, carry_level = _cloud_attenuation(
                rng, config, grid, carry_level
            )
            power = bell * attenuation
        else:
            power = bell.copy()
            carry_level = None
        rows.append(np.round(power, 6))
        labels.append(CLOUDY if cloudy else SUNNY)
    series = SolarSeries(grid, np.stack(rows), config.start_date)
    return SynthResult(series=series, labels=tuple(labels))


def write_labels_csv(result: SynthResult, sink: IO) -> None:
    """Sidecar label file: `date,label`, one row per generated day."""
    sink.write("date,label\n")
    for pos, label in enumerate(result.labels):
        sink.write(f"{(result.series.start + timedelta(days=pos)).isoformat()},{label}\n")


def read_labels_csv(text: str) -> dict[Date, str]:
    """The labels in the text of a `write_labels_csv` file. One leading
    byte order mark (U+FEFF) is dropped and blank lines are skipped. A
    bad header, a row without two fields, a bad date, an unknown label or
    a repeated date raises MalformedRow naming the line."""
    lines = text.removeprefix("\ufeff").split("\n")
    if lines[0].strip() != "date,label":
        raise MalformedRow("line 1: expected header 'date,label'")
    labels = {}
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.strip().split(",")
        if len(fields) != 2:
            raise MalformedRow(f"line {line_no}: expected 2 fields, got {len(fields)}")
        date_text, label = fields
        try:
            day = Date.fromisoformat(date_text)
        except ValueError:
            raise MalformedRow(f"line {line_no}: bad date {quoted(date_text)}") from None
        if label not in (SUNNY, CLOUDY):
            raise MalformedRow(f"line {line_no}: unknown label {quoted(label)}")
        if day in labels:
            raise MalformedRow(f"line {line_no}: duplicate date {quoted(date_text)}")
        labels[day] = label
    return labels
