"""Per-day solar power series on a uniform sampling grid.

Data model, CSV ingestion/export, chronological train/tune/test splitting,
and context-vector extraction. A day's index is its date's proleptic
ordinal, `date.toordinal()`, in every series. A series is one read-only
days x slots power matrix; the date of a row follows from its position,
so a series cannot have a gap in its dates. All types are immutable
after construction; sample arrays are stored read-only.

CSV schema (shared by every CLI-facing file): header ``timestamp,power_w``,
one row per sample, ISO-8601 local timestamps aligned to the grid.

Block grammar (``_fields``), shared with the model-file reader: a text
is one byte block only when it is ASCII and every line, the last too, is
the same number of fields joined by single spaces and ended by LF, with
no other byte at or below the space. A CSV line is one field. Its
numbers are read as a block only when each is `0.0` or plain, ASCII
digits with at most one `.` and 1-15 digits (`_decimals`). Any other
text, and any other spelling of a number, goes to a per-line reader, the
reference, with the same result or the same error; in both a line ends
at LF.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from datetime import date as Date, datetime, timedelta
from functools import cache, cached_property
from typing import IO

import numpy as np

from .errors import (
    EmptyInput,
    GridMisalignment,
    IncompleteDay,
    InsufficientHistory,
    MalformedRow,
    MissingDay,
    NegativePower,
    TooFewDays,
    UnknownDate,
    quoted,
)

SECONDS_PER_DAY = 86400
CSV_HEADER = "timestamp,power_w"

# Readings in [-1 W, 0) are sensor noise and clamp to zero; below that the
# row is rejected as physically impossible.
NEGATIVE_POWER_TOLERANCE_W = 1.0
# The largest reading accepted. Squared sums of a day's differences (k-NN
# distances, RMSE) stay far from overflow below it, even on a 1 s grid.
MAX_POWER_W = 1e12


def _freeze(values) -> np.ndarray:
    """`values` as a read-only float array, copied unless it is one."""
    arr = np.asarray(values, dtype=float)
    if arr is values and arr.flags.writeable:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def check_span(start: Date, num_days: int) -> None:
    """Raise ValueError unless `num_days` days from `start` end by 9999-12-31."""
    if start.toordinal() + num_days - 1 > Date.max.toordinal():
        raise ValueError(f"{num_days} days from {start} run past {Date.max}")


def _check_samples(power: np.ndarray, start: Date) -> None:
    """Raise ValueError naming the first day of a (days, slots) block,
    dated from `start`, that holds a non-finite or a negative sample."""
    for bad, kind in ((~np.isfinite(power), "non-finite"), (power < 0, "negative")):
        if bad.any():
            day = start + timedelta(days=int(bad.any(axis=1).argmax()))
            raise ValueError(f"{kind} sample in day {day.isoformat()}")


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

    date: Date
    samples: np.ndarray

    def __post_init__(self):
        arr = _freeze(self.samples)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("samples must be a non-empty 1-D sequence")
        _check_samples(arr[None], self.date)
        object.__setattr__(self, "samples", arr)

    @property
    def day_index(self) -> int:
        return self.date.toordinal()


@dataclass(frozen=True, eq=False)
class SolarSeries:
    """Consecutive days of measured power sharing one grid: `power` is a
    read-only (num_days, samples_per_day) array in watts whose row i is
    the day dated `start` + i days."""

    grid: SamplingGrid
    power: np.ndarray
    start: Date

    def __post_init__(self):
        power = _freeze(self.power)
        m = self.grid.samples_per_day
        if power.ndim != 2 or power.shape[1] != m:
            raise ValueError(f"power shape {power.shape} is not days x {m} slots")
        check_span(self.start, len(power))
        _check_samples(power, self.start)
        object.__setattr__(self, "power", power)

    @property
    def num_days(self) -> int:
        return len(self.power)

    @property
    def first_index(self) -> int:
        return self.start.toordinal()

    @property
    def last_index(self) -> int:
        return self.first_index + self.num_days - 1

    def _day(self, pos: int) -> DayProfile:
        """Row `pos` as a DayProfile sharing the row's memory."""
        return DayProfile(self.start + timedelta(days=pos), self.power[pos])

    @cached_property
    def days(self) -> tuple[DayProfile, ...]:
        """One DayProfile per row, sharing the row's memory."""
        return tuple(self._day(pos) for pos in range(self.num_days))

    def day_by_index(self, day_index: int) -> DayProfile:
        """The day with index `day_index`; KeyError if the series lacks it.
        No command calls it; it is kept because the acceptance gate,
        `tests/test_acceptance.py`, calls it."""
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
            raise UnknownDate(f"{_date_text(day)} is not in the series")
        return self.power[pos]

    def max_power(self) -> float:
        return float(self.power.max())

    def subseries(self, start: int, stop: int) -> "SolarSeries":
        """Days at positions [start, stop), 0 <= start <= stop <= num_days."""
        return SolarSeries(self.grid, self.power[start:stop], self.start + timedelta(days=start))


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
        """The series the partitions were cut from: the field `series`,
        which the pipeline reads; kept because the acceptance gate calls it."""
        return self.series


def _parse_timestamp(text: str, line_no: int) -> datetime:
    try:
        stamp = datetime.fromisoformat(text.strip())
    except ValueError:
        raise MalformedRow(f"line {line_no}: bad timestamp {quoted(text)}") from None
    if stamp.tzinfo is not None:
        # Local wall-clock only; offsets would smuggle in timezone handling.
        raise MalformedRow(f"line {line_no}: timestamp must be naive local time")
    return stamp


@cache
def _clock(grid: SamplingGrid) -> tuple[str, ...]:
    """The `THH:MM:SS,` that follows the date in each slot's CSV line, in
    slot order: the one definition of the canonical line's time part.
    Built once per grid."""
    return tuple(stamp.isoformat()[10:] + "," for stamp in grid.sample_times(Date(2000, 1, 1)))


def ingest_csv(text: str, grid: SamplingGrid) -> SolarSeries:
    """Parse the text of a CSV in the standard schema into a validated
    SolarSeries. Only complete days are accepted: a day inside the
    covered date span with any slot missing raises IncompleteDay naming
    that date, or its subclass MissingDay when the day has no row at all.
    Readings in [-1 W, 0) clamp to zero; anything below -1 W raises
    NegativePower, and anything above MAX_POWER_W raises MalformedRow. A
    header with no data rows raises EmptyInput.

    Text in `export_csv`'s exact form (ASCII, LF line ends, every row's
    20-character `YYYY-MM-DDTHH:MM:SS,` prefix naming the next slot in
    order, every value `0.0` or plain and in range) is checked and parsed
    as one byte block; any other text, every other spelling of a value
    among it, goes through the per-line parser, the reference, with the
    same result or the same error. One leading byte-order mark
    (U+FEFF) is dropped first; one anywhere else is part of its line.
    """
    text = text.removeprefix("\ufeff")
    series = _ingest_canonical(text, grid)
    return series if series is not None else _ingest_lines(text, grid)


def _ingest_canonical(text: str, grid: SamplingGrid) -> SolarSeries | None:
    """The series of `text` when it is in `export_csv`'s exact form, every
    value `0.0` or plain (the spellings `_decimals` reads) and at most
    MAX_POWER_W, else None. Where it returns a series, `_ingest_lines`,
    the reference, returns an equal one.

    `_fields` splits the text, one field a line, line 0 the header; every
    row's 20-byte prefix is gathered into one byte string and compared at
    once with the prefixes a (days x slots) file from the first row's date
    must hold. The values after the prefixes go through `_decimals` as one
    byte block, so each is what Python's `float` makes of it. A plain
    value has no sign, so none is negative; any other spelling sends the
    text to the per-line parser."""
    head = CSV_HEADER + "\n"
    if not text.startswith(head) or (fields := _fields(text, 1)) is None:
        return None
    data, starts, lengths = fields
    starts, lengths = starts[1:], lengths[1:]  # line 0 is the header
    m = grid.samples_per_day
    if not len(starts) or len(starts) % m or lengths.min() < _PREFIX:
        return None  # no row, a partial day, or a row too short for its prefix
    num_days = len(starts) // m
    try:
        start = Date.fromisoformat(text[len(head) : len(head) + 10])
        check_span(start, num_days)
    except ValueError:
        return None
    if _windows(data, _PREFIX)[starts].tobytes() != _prefixes(start, num_days, grid):
        return None
    try:
        power = _decimals(data, starts + _PREFIX, lengths - _PREFIX)
    except ValueError:
        return None
    if not (power <= MAX_POWER_W).all():  # 15 digits reach 1e15
        return None
    power = power.reshape(num_days, m)
    power.flags.writeable = False  # so SolarSeries keeps it without a copy
    return SolarSeries(grid, power, start)


def _fields(text: str, per_line: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The block grammar: when `text` is ASCII and every line, the last
    too, is `per_line` fields joined by single spaces and ended by LF,
    with no other byte at or below the space, its uint8 buffer and each
    field's start and length, in text order; else None. A field may be
    empty."""
    if not text.isascii() or not text.endswith("\n"):
        return None
    data = np.frombuffer(text.encode("ascii"), np.uint8)
    ends = np.flatnonzero(data <= ord(" "))
    lines, partial = divmod(len(ends), per_line)  # so no pattern outgrows the text
    if partial or data[ends].tobytes() != (b" " * (per_line - 1) + b"\n") * lines:
        return None
    starts = np.concatenate([[0], ends[:-1] + 1])
    return data, starts, ends - starts


_PREFIX = 20  # len("YYYY-MM-DDTHH:MM:SS,"): a canonical row's date and clock


def _prefixes(start: Date, num_days: int, grid: SamplingGrid) -> bytes:
    """The prefix of every row of a canonical file of `num_days` days
    from `start`, in row order, as one byte string."""
    block = np.empty((num_days, grid.samples_per_day), [("date", "S10"), ("clock", "S10")])
    block["date"] = (np.arange(num_days) + np.datetime64(start, "D")).astype("S10")[:, None]
    block["clock"] = [time.encode("ascii") for time in _clock(grid)]
    return block.tobytes()


def _windows(data: np.ndarray, width: int) -> np.ndarray:
    """Every `width`-byte window of the uint8 buffer `data`, window i
    starting at byte i, as one void item each. Indexing copies each
    window picked whole, with no index array per byte, at about three
    times the speed of indexing a (windows, width) window view."""
    return np.ndarray((max(len(data) - width + 1, 0),), f"V{width}", data, strides=(1,))


_PLAIN_DIGITS = 15  # at most, so a plain token's digits N < 10**15 < 2**53
_POW10 = np.array([float(10**k) for k in range(_PLAIN_DIGITS + 1)])  # each exact
# Tokens per `_plain_decimals` pass. In one pass, the 15.7k non-zero
# values of a year's CSV peaked at 2.8 MB and glibc's allocator faulted
# in about 500 fresh pages on every read; in passes of 4096 the read
# peaks at 1.3 MB.
_CHUNK = 4096


def _decimals(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """`float` of each token `data[starts[i] : starts[i] + lengths[i]]` of
    the uint8 buffer `data`, in token order, when every token is `0.0` or
    plain; else ValueError, and the caller's per-line reader, the
    reference, reads the text.

    A token spelled `0.0`, as `export_csv` and `save_model` write +0.0, is
    +0.0. Most values of a year are night zeros, and picking them out
    before the digit pass cut `simulate-365d`'s op by about 5% on a 2-core
    VM. A plain token, ASCII digits with at most one `.` anywhere and 1-15
    digits (`5`, `5.`, `.5`, `00012.50`), is N / 10**f, N its digits read
    as one integer and f the number of them after the dot. N < 10**15 <
    2**53 and 10**f are both exact doubles, so the one IEEE division
    rounds the exact quotient once, correctly, and gives the double
    nearest the decimal, which is what `float` returns (Clinger, "How to
    Read Floating Point Numbers Accurately", PLDI 1990). Any other token
    (a sign, an exponent, `_`, a blank, `inf`, `nan`, more than 15
    digits, a NUL, an empty token) raises ValueError."""
    if not lengths.all():
        raise ValueError("empty decimal token")
    values = np.zeros(len(starts))
    three = np.flatnonzero(lengths == 3)
    at = starts[three]
    zero = (data[at] == ord("0")) & (data[at + 1] == ord(".")) & (data[at + 2] == ord("0"))
    rest = np.ones(len(starts), bool)
    rest[three[zero]] = False
    rest = np.flatnonzero(rest)
    for first in range(0, len(rest), _CHUNK):
        part = rest[first : first + _CHUNK]
        values[part], plain = _plain_decimals(data, starts[part], lengths[part])
        if not plain.all():
            raise ValueError("a decimal token is not plain")
    return values


def _plain_decimals(
    data: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The value of each plain token, and the mask of the plain ones, of
    tokens none of which is empty; a value is undefined where the token
    is not plain.

    The work goes by byte column, each step one numpy operation over
    every token: row p of `digits` holds byte p of each token's last
    `places` bytes, right-aligned, so a shorter token's leading rows lie
    outside it and read as the digit 0. Where a token has a dot, the
    rows before it move one row on, over it. Then the rows are summed
    in groups of four, each group a number below 10**4, and the groups
    joined by Horner's rule, N = 10**4 N + group, in float64, where every
    step is an integer below 2**53 for a plain token."""
    width = min(int(lengths.max()), _PLAIN_DIGITS + 1)
    ends = starts + lengths
    # each token's window, read from the first window where the token
    # ends within `width` bytes of the buffer's start, then shifted home
    block = _windows(data, width)[np.maximum(ends - width, 0)].view(np.uint8).reshape(-1, width)
    for row in np.flatnonzero(ends < width):
        shift = width - ends[row]
        block[row, shift:] = block[row, : width - shift].copy()
    places = -(-width // 4) * 4
    digits = np.zeros((places, len(starts)), np.uint8)
    digits[places - width :] = block.T
    # row p is inside a token of length L when places - p <= L
    inside = np.arange(places, 0, -1, dtype=np.uint8)[:, None] <= (
        np.minimum(lengths, places).astype(np.uint8))
    is_dot = (digits == ord(".")) & inside
    digits -= ord("0")
    is_digit = (digits < 10) & inside

    def count(mask):  # per token; every count here is below 256
        return np.add.reduce(mask, axis=0, dtype=np.uint8)

    dots, figures = count(is_dot), count(is_digit)
    plain = (figures + dots == lengths) & (dots <= 1) & (figures >= 1)
    plain &= figures <= _PLAIN_DIGITS
    digits *= is_digit
    position = np.arange(1, places + 1, dtype=np.uint8)[:, None]
    dot = count(is_dot * position)  # one past the dot's row; 0 without a dot
    left = position <= dot
    digits[1:] += left[1:] * (digits[:-1] - digits[1:])  # wraps back to a digit
    digits[0] *= ~left[0]
    pairs = digits[0::2] * 10 + digits[1::2]
    # widened before the multiply: a uint8 array times the int 100 stays
    # uint8 and wraps (99 * 100 is 172)
    groups = pairs[0::2].astype(np.uint16) * 100 + pairs[1::2]
    n = groups[0].astype(float)
    for group in groups[1:]:
        n *= 1e4
        n += group
    scale = np.ones(256)  # 10**f by `dot`: f = places - dot rows follow the dot
    scale[1 : places + 1] = _POW10[places - 1 :: -1]
    return n / scale[dot], plain


def _ingest_lines(text: str, grid: SamplingGrid) -> SolarSeries:
    """`ingest_csv` one line at a time: the path for every input, and the
    reference that the whole-file path must agree with."""
    step = grid.sample_interval_seconds
    per_day: dict[Date, dict[int, float]] = {}

    header_seen = False
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if not header_seen:
            if line != CSV_HEADER:
                raise MalformedRow(
                    f"line {line_no}: expected header {CSV_HEADER!r}, got {quoted(line)}"
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
                f"line {line_no}: non-numeric power {quoted(parts[1])}"
            ) from None
        if not math.isfinite(power):
            raise MalformedRow(f"line {line_no}: non-finite power {quoted(parts[1])}")
        if power > MAX_POWER_W:
            raise MalformedRow(
                f"line {line_no}: power {quoted(parts[1])} above the {MAX_POWER_W:g} W limit"
            )

        second_of_day = stamp.hour * 3600 + stamp.minute * 60 + stamp.second
        if stamp.microsecond != 0 or second_of_day % step != 0:
            raise GridMisalignment(
                f"line {line_no}: {quoted(parts[0])} is not on a multiple of {step} s"
            )
        if power < -NEGATIVE_POWER_TOLERANCE_W:
            raise NegativePower(
                f"line {line_no}: power {power} W below -{NEGATIVE_POWER_TOLERANCE_W} W tolerance"
            )
        power = max(power, 0.0)

        slot = second_of_day // step
        slots = per_day.setdefault(stamp.date(), {})
        if slot in slots:
            raise MalformedRow(f"line {line_no}: duplicate timestamp {quoted(parts[0])}")
        slots[slot] = power

    if not header_seen:
        raise MalformedRow("empty input: missing header row")
    if not per_day:
        raise EmptyInput("no data rows after the header")

    # Walk the dates present in order: the first one that is not the next
    # calendar day names a missing day, and one that lacks a slot an
    # incomplete day.
    dates = sorted(per_day)
    m = grid.samples_per_day
    rows = []
    for offset, day in enumerate(dates):
        expected = dates[0] + timedelta(days=offset)
        if day != expected:
            raise MissingDay(expected)
        slots = per_day[day]
        if len(slots) != m:
            raise IncompleteDay(day)
        rows.append([slots[i] for i in range(m)])
    return SolarSeries(grid, np.array(rows), dates[0])


def export_csv(series: SolarSeries, sink: IO) -> None:
    """Write the mirror of `ingest_csv`: power values round-trip bit-exactly
    (shortest decimal representation that reparses to the same double).
    This exact form is the one `ingest_csv` reads as one byte array."""
    sink.write(CSV_HEADER + "\n")
    clock = _clock(series.grid)
    for offset, row in enumerate(series.power):
        day = (series.start + timedelta(days=offset)).isoformat()
        lines = (f"{day}{time}{value!r}\n" for time, value in zip(clock, row.tolist()))
        sink.write("".join(lines))


def check_ratios(ratios) -> tuple[float, float, float]:
    """The split ratios as floats; ValueError unless three, >= 0, summing to 1."""
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3:
        raise ValueError("need exactly three split ratios")
    if not abs(sum(ratios) - 1.0) <= 1e-9:  # NaN fails too
        raise ValueError(f"split ratios must sum to 1, got {sum(ratios)}")
    if min(ratios) < 0:
        raise ValueError(f"split ratios must be >= 0, got {ratios}")
    return ratios


def split_chronological(
    series: SolarSeries, ratios: tuple[float, float, float]
) -> DatasetSplit:
    """Partition a series into train/tune/test in time order.

    Train and tune sizes are floor(N * ratio); test takes the remainder.
    """
    ratios = check_ratios(ratios)
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

    No command calls it; it is kept because the acceptance gate,
    `tests/test_acceptance.py`, calls it.
    """
    if depth_days < 1:
        raise ValueError("depth_days must be >= 1")
    require_history(series, target_day, depth_days)
    pos = target_day - depth_days - series.first_index
    return series.power[pos : pos + depth_days].ravel()


def require_history(series: SolarSeries, target_days, depth_days: int) -> None:
    """Raise InsufficientHistory, naming dates, unless `series` holds the
    `depth_days` days before day `target_days`, or before each day of the
    sequence `target_days`; the first day in order that lacks them is
    the one named."""
    first_index, last_index = series.first_index, series.last_index
    for target_day in np.asarray(target_days).ravel().tolist():
        first_needed = target_day - depth_days
        if first_needed < first_index or target_day - 1 > last_index:
            days = (target_day, first_needed, target_day - 1, first_index, last_index)
            raise InsufficientHistory(
                "{} needs {}..{}; series covers {}..{}".format(
                    *(_date_text(day) for day in days)
                )
            )


def _date_text(ordinal: int) -> str:
    """The ISO date of day index `ordinal`; off the calendar, how far
    before 0001-01-01 or after 9999-12-31."""
    if ordinal < 1:
        return f"{1 - ordinal} day(s) before {Date.min.isoformat()}"
    if ordinal > Date.max.toordinal():
        return f"{ordinal - Date.max.toordinal()} day(s) after {Date.max.isoformat()}"
    return Date.fromordinal(ordinal).isoformat()
