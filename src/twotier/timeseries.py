"""Per-day solar power series on a uniform sampling grid.

Data model, CSV ingestion/export, chronological train/tune/test splitting,
and context-vector extraction. A series is one read-only days x slots
power matrix; the date and day index of a row follow from its position,
so a series cannot have a gap in its dates or indices. All types are
immutable after construction; sample arrays are stored read-only.

CSV schema (shared by every CLI-facing file): header ``timestamp,power_w``,
one row per sample, ISO-8601 local timestamps aligned to the grid.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from datetime import date as Date, datetime, timedelta
from functools import cached_property
from typing import IO

import numpy as np

from .errors import (
    EmptyInput,
    GridMisalignment,
    IncompleteDay,
    InsufficientHistory,
    MalformedRow,
    NegativePower,
    TooFewDays,
    TwoTierError,
    UnknownDate,
)

SECONDS_PER_DAY = 86400
CSV_HEADER = "timestamp,power_w"

# Readings in [-1 W, 0) are sensor noise and clamp to zero; below that the
# row is rejected as physically impossible.
NEGATIVE_POWER_TOLERANCE_W = 1.0


def _freeze(values) -> np.ndarray:
    """`values` as a read-only float array, copied unless it is one."""
    arr = np.asarray(values, dtype=float)
    if arr is values and arr.flags.writeable:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SamplingGrid:
    """Uniform intra-day sampling: interval T_s, derived samples per day."""

    sample_interval_seconds: int = 900
    samples_per_day: int = field(init=False)

    def __post_init__(self):
        step = self.sample_interval_seconds
        if not isinstance(step, int) or step <= 0:
            raise ValueError("sample_interval_seconds must be a positive integer")
        if SECONDS_PER_DAY % step != 0:
            raise ValueError(
                f"sample interval {step} s does not divide 86400 s evenly"
            )
        object.__setattr__(self, "samples_per_day", SECONDS_PER_DAY // step)

    def sample_times(self, day: Date) -> list[datetime]:
        """Wall-clock timestamps of every slot of `day`, in order."""
        base = datetime(day.year, day.month, day.day)
        step = timedelta(seconds=self.sample_interval_seconds)
        return [base + i * step for i in range(self.samples_per_day)]


@dataclass(frozen=True, eq=False)
class DayProfile:
    """One day's measured power, watts, one value per grid slot."""

    day_index: int
    date: Date
    samples: np.ndarray

    def __post_init__(self):
        if self.day_index < 0:
            raise ValueError("day_index must be non-negative")
        arr = _freeze(self.samples)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("samples must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"non-finite sample in day {self.date.isoformat()}")
        if np.any(arr < 0):
            raise ValueError(f"negative sample in day {self.date.isoformat()}")
        object.__setattr__(self, "samples", arr)


@dataclass(frozen=True, eq=False)
class SolarSeries:
    """Consecutive days of measured power sharing one grid: `power` is a
    read-only (num_days, samples_per_day) array in watts whose row i is
    the day dated `start` + i days, with day index `first_index` + i."""

    grid: SamplingGrid
    power: np.ndarray
    start: Date
    first_index: int = 0

    def __post_init__(self):
        power = _freeze(self.power)
        m = self.grid.samples_per_day
        if power.ndim != 2 or power.shape[1] != m:
            raise ValueError(f"power shape {power.shape} is not days x {m} slots")
        if self.start.toordinal() + len(power) - 1 > Date.max.toordinal():
            raise ValueError(f"{len(power)} days from {self.start} run past {Date.max}")
        for bad, kind in ((~np.isfinite(power), "non-finite"), (power < 0, "negative")):
            if bad.any():
                day = self.start + timedelta(days=int(bad.any(axis=1).argmax()))
                raise ValueError(f"{kind} sample in day {day.isoformat()}")
        object.__setattr__(self, "power", power)

    @property
    def num_days(self) -> int:
        return len(self.power)

    @property
    def last_index(self) -> int:
        return self.first_index + self.num_days - 1

    def _day(self, pos: int) -> DayProfile:
        """Row `pos` as a DayProfile sharing the row's memory."""
        return DayProfile(
            self.first_index + pos, self.start + timedelta(days=pos), self.power[pos]
        )

    @cached_property
    def days(self) -> tuple[DayProfile, ...]:
        """One DayProfile per row, sharing the row's memory."""
        return tuple(self._day(pos) for pos in range(self.num_days))

    def day_by_index(self, day_index: int) -> DayProfile:
        pos = operator.index(day_index) - self.first_index
        if pos < 0 or pos >= self.num_days:
            raise KeyError(f"day index {day_index} not in series")
        return self._day(pos)

    def rows(self, day_indices) -> np.ndarray:
        """The power rows of days `day_indices`, one per index; a day the
        series lacks raises UnknownDate naming its date."""
        pos = np.asarray(day_indices, dtype=int) - self.first_index
        outside = (pos < 0) | (pos >= self.num_days)
        if outside.any():
            day = self.first_index + int(pos[outside][0])
            raise UnknownDate(f"{_date_text(self, day)} is not in the series")
        return self.power[pos]

    def day_by_date(self, date: Date) -> DayProfile:
        pos = (date - self.start).days
        if pos < 0 or pos >= self.num_days:
            raise KeyError(f"date {date.isoformat()} not in series")
        return self._day(pos)

    def max_power(self) -> float:
        return float(self.power.max())

    def subseries(self, start: int, stop: int) -> "SolarSeries":
        """Days at positions [start, stop), 0 <= start <= stop <= num_days,
        with original day indices kept."""
        return SolarSeries(
            self.grid, self.power[start:stop],
            self.start + timedelta(days=start), self.first_index + start,
        )


@dataclass(frozen=True, eq=False)
class DatasetSplit:
    """Chronological train/tune/test partition of `series`."""

    series: SolarSeries
    train: SolarSeries
    tune: SolarSeries
    test: SolarSeries

    def __post_init__(self):
        for earlier, later in ((self.train, self.tune), (self.tune, self.test)):
            if earlier.num_days and later.num_days and (
                earlier.last_index >= later.first_index
            ):
                raise ValueError("split partitions must be in time order")

    def full_series(self) -> SolarSeries:
        """The series the partitions were cut from."""
        return self.series


def read_text(source, error: type[TwoTierError], name: str = "input") -> str:
    """The text of a str, UTF-8 bytes, or a text or binary stream. Bytes
    that are not UTF-8 raise `error` naming `name` and the bad byte."""
    data = source if isinstance(source, (bytes, str)) else source.read()
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{name} is not UTF-8 text: byte {exc.start} is invalid") from None


def _parse_timestamp(text: str, line_no: int) -> datetime:
    try:
        stamp = datetime.fromisoformat(text.strip())
    except ValueError:
        raise MalformedRow(f"line {line_no}: bad timestamp {text!r}") from None
    if stamp.tzinfo is not None:
        # Local wall-clock only; offsets would smuggle in timezone handling.
        raise MalformedRow(f"line {line_no}: timestamp must be naive local time")
    return stamp


def _clock(grid: SamplingGrid) -> list[str]:
    """The `THH:MM:SS,` that follows the date in each slot's CSV line, in
    slot order: the one definition of the canonical line's time part."""
    return [stamp.isoformat()[10:] + "," for stamp in grid.sample_times(Date(2000, 1, 1))]


# Besides "\n", the ASCII characters `str.splitlines` breaks a line on.
_OTHER_LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"


def ingest_csv(source: IO, grid: SamplingGrid) -> SolarSeries:
    """Read the standard CSV schema into a validated SolarSeries.

    `source` is a str, bytes, or a text or binary stream; bytes that are
    not UTF-8 raise MalformedRow. Only complete days are accepted:
    a day inside the covered date span with any slot missing (or never
    present at all) raises IncompleteDay naming that date. Readings in
    [-1 W, 0) clamp to zero; anything below -1 W raises NegativePower.
    A header with no data rows raises EmptyInput.

    Text in `export_csv`'s exact form is read a whole day at a time; any
    other text goes through the per-line parser, with the same result.
    """
    text = read_text(source, MalformedRow)
    series = _ingest_canonical(text, grid)
    return series if series is not None else _ingest_lines(text, grid)


def _ingest_canonical(text: str, grid: SamplingGrid) -> SolarSeries | None:
    """The series of `text` when it is in `export_csv`'s exact form and
    every value is accepted, else None. Where it returns a series,
    `_ingest_lines` returns an equal one."""
    head = CSV_HEADER + "\n"
    rows = text.count("\n") - 1
    m = grid.samples_per_day
    if (
        rows <= 0
        or rows % m
        or not text.startswith(head)
        or not text.endswith("\n")
        # an early out: a canonical line has one comma, at column 19
        or text.count(",") != rows + 1
        or not text.isascii()
        or any(char in text for char in _OTHER_LINE_BREAKS)
    ):
        return None
    num_days = rows // m
    try:
        start = Date.fromisoformat(text[len(head) : len(head) + 10])
    except ValueError:
        return None
    if start.toordinal() + num_days - 1 > Date.max.toordinal():
        return None

    lines = text[len(head) : -1].split("\n")
    clock = _clock(grid)
    power = np.empty((num_days, m))
    for offset in range(num_days):
        day = Date.fromordinal(start.toordinal() + offset).isoformat()
        chunk = lines[offset * m : (offset + 1) * m]
        if [line[:20] for line in chunk] != [day + time for time in clock]:
            return None
        values = [line[20:] for line in chunk]
        try:
            power[offset] = np.fromiter(map(float, values), float, m)
        except ValueError:
            return None
    if not np.isfinite(power).all() or (power < -NEGATIVE_POWER_TOLERANCE_W).any():
        return None
    power[power < 0] = 0.0  # keeps -0.0, as max(-0.0, 0.0) does
    return SolarSeries(grid, power, start)


def _ingest_lines(text: str, grid: SamplingGrid) -> SolarSeries:
    """`ingest_csv` one line at a time: the path for every input, and the
    reference that the whole-day path must agree with."""
    text_lines = text.splitlines()

    step = grid.sample_interval_seconds
    per_day: dict[Date, dict[int, float]] = {}

    header_seen = False
    line_no = 0
    for raw in text_lines:
        line_no += 1
        line = raw.strip().lstrip("﻿")
        if not line:
            continue
        if not header_seen:
            if line != CSV_HEADER:
                raise MalformedRow(
                    f"line {line_no}: expected header {CSV_HEADER!r}, got {line!r}"
                )
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise MalformedRow(f"line {line_no}: expected 2 fields, got {len(parts)}")
        stamp = _parse_timestamp(parts[0], line_no)
        try:
            power = float(parts[1])
        except ValueError:
            raise MalformedRow(
                f"line {line_no}: non-numeric power {parts[1]!r}"
            ) from None
        if not math.isfinite(power):
            raise MalformedRow(f"line {line_no}: non-finite power {parts[1]!r}")

        second_of_day = stamp.hour * 3600 + stamp.minute * 60 + stamp.second
        if stamp.microsecond != 0 or second_of_day % step != 0:
            raise GridMisalignment(
                f"line {line_no}: {parts[0]} is not on a multiple of {step} s"
            )
        if power < -NEGATIVE_POWER_TOLERANCE_W:
            raise NegativePower(
                f"line {line_no}: power {power} W below -{NEGATIVE_POWER_TOLERANCE_W} W tolerance"
            )
        power = max(power, 0.0)

        slot = second_of_day // step
        slots = per_day.setdefault(stamp.date(), {})
        if slot in slots:
            raise MalformedRow(f"line {line_no}: duplicate timestamp {parts[0]}")
        slots[slot] = power

    if not header_seen:
        raise MalformedRow("empty input: missing header row")
    if not per_day:
        raise EmptyInput("no data rows after the header")

    # Walk the dates present in order: the first one that is not the next
    # calendar day, or that lacks a slot, names the first incomplete day.
    dates = sorted(per_day)
    m = grid.samples_per_day
    rows = []
    for offset, day in enumerate(dates):
        expected = dates[0] + timedelta(days=offset)
        if day != expected:
            raise IncompleteDay(expected)
        slots = per_day[day]
        if len(slots) != m:
            raise IncompleteDay(day)
        rows.append([slots[i] for i in range(m)])
    return SolarSeries(grid, np.array(rows), dates[0])


def export_csv(series: SolarSeries, sink: IO) -> None:
    """Write the mirror of `ingest_csv`: power values round-trip bit-exactly
    (shortest decimal representation that reparses to the same double).
    This exact form is the one `ingest_csv` reads a whole day at a time."""
    sink.write(CSV_HEADER + "\n")
    clock = _clock(series.grid)
    for offset, row in enumerate(series.power):
        day = (series.start + timedelta(days=offset)).isoformat()
        lines = (f"{day}{time}{value!r}\n" for time, value in zip(clock, row.tolist()))
        sink.write("".join(lines))


def split_chronological(
    series: SolarSeries, ratios: tuple[float, float, float]
) -> DatasetSplit:
    """Partition a series into train/tune/test in time order.

    Train and tune sizes are floor(N * ratio); test takes the remainder.
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3:
        raise ValueError("need exactly three split ratios")
    if not abs(sum(ratios) - 1.0) <= 1e-9:  # NaN fails too
        raise ValueError(f"split ratios must sum to 1, got {sum(ratios)}")
    n = series.num_days
    if n < 5:
        raise TooFewDays(f"need at least 5 days to split, have {n}")

    # +1e-9 implements the mathematical floor despite binary ratios like
    # 0.6 landing a hair under the exact product.
    n_train = int(math.floor(n * ratios[0] + 1e-9))
    n_tune = int(math.floor(n * ratios[1] + 1e-9))
    n_test = n - n_train - n_tune
    if n_train < 1 or n_tune < 1 or n_test < 1:
        raise TooFewDays(
            f"split {ratios} of {n} days leaves an empty partition "
            f"({n_train}/{n_tune}/{n_test})"
        )
    return DatasetSplit(
        series=series,
        train=series.subseries(0, n_train),
        tune=series.subseries(n_train, n_train + n_tune),
        test=series.subseries(n_train + n_tune, n),
    )


def day_context(
    series: SolarSeries, target_day: int, depth_days: int
) -> np.ndarray:
    """The `depth_days` full days before `target_day`, oldest first, as one
    vector: the matching rows of `series.power`, raveled. Length is
    depth_days * samples_per_day.

    `target_day` may be one past the last stored day (forecasting the next
    unseen day from the freshest history).
    """
    if depth_days < 1:
        raise ValueError("depth_days must be >= 1")
    require_history(series, target_day, depth_days)
    pos = target_day - depth_days - series.first_index
    return series.power[pos : pos + depth_days].ravel()


def require_history(series: SolarSeries, target_day: int, depth_days: int) -> None:
    """Raise InsufficientHistory, naming dates, unless `series` holds the
    `depth_days` days before day `target_day`."""
    first_needed = target_day - depth_days
    if first_needed < series.first_index or target_day - 1 > series.last_index:
        days = (target_day, first_needed, target_day - 1, series.first_index, series.last_index)
        raise InsufficientHistory(
            "{} needs {}..{}; series covers {}..{}".format(
                *(_date_text(series, day) for day in days)
            )
        )


def _date_text(series: SolarSeries, day_index: int) -> str:
    """The ISO date of day `day_index`, which may lie outside the series;
    off the calendar, how far before 0001-01-01 or after 9999-12-31."""
    ordinal = series.start.toordinal() + day_index - series.first_index
    if ordinal < 1:
        return f"{1 - ordinal} day(s) before {Date.min.isoformat()}"
    if ordinal > Date.max.toordinal():
        return f"{ordinal - Date.max.toordinal()} day(s) after {Date.max.isoformat()}"
    return Date.fromordinal(ordinal).isoformat()
