"""Data model, CSV round-trip, splitting, and context extraction."""

import io
import math
import tracemalloc
from datetime import date as Date

import numpy as np
import pytest

from conftest import make_series
from twotier.errors import (
    GridMisalignment,
    IncompleteDay,
    InsufficientHistory,
    MalformedRow,
    MissingDay,
    NegativePower,
    TooFewDays,
)
from twotier.synth import SynthConfig, generate
from twotier.timeseries import (
    MAX_POWER_W,
    DatasetSplit,
    DayProfile,
    SamplingGrid,
    SolarSeries,
    _clock,
    _ingest_canonical,
    _ingest_lines,
    day_context,
    export_csv,
    ingest_csv,
    split_chronological,
)


def csv_for(rows_per_day, start=Date(2015, 2, 15), interval=900):
    """Render a CSV body the long way, independent of export_csv."""
    grid = SamplingGrid(sample_interval_seconds=interval)
    lines = ["timestamp,power_w"]
    for d, row in enumerate(rows_per_day):
        day = Date.fromordinal(start.toordinal() + d)
        for ts, v in zip(grid.sample_times(day), row):
            lines.append(f"{ts.isoformat()},{v}")
    return "\n".join(lines) + "\n"


class TestSamplingGrid:
    def test_default_is_15_minutes_96_samples(self):
        grid = SamplingGrid()
        assert grid.sample_interval_seconds == 900
        assert grid.samples_per_day == 96

    def test_interval_must_divide_day(self):
        with pytest.raises(ValueError):
            SamplingGrid(sample_interval_seconds=7000)

    def test_product_recovers_day_length(self):
        for step in (900, 3600, 21600):
            grid = SamplingGrid(sample_interval_seconds=step)
            assert grid.samples_per_day * step == 86400

    def test_clock_built_once_per_grid(self):
        # each equal grid shares one tuple of the canonical line's time parts
        clock = _clock(SamplingGrid(sample_interval_seconds=21600))
        assert clock == ("T00:00:00,", "T06:00:00,", "T12:00:00,", "T18:00:00,")
        assert _clock(SamplingGrid(sample_interval_seconds=21600)) is clock


class TestDayProfile:
    def test_rejects_negative_sample(self):
        with pytest.raises(ValueError):
            DayProfile(Date(2015, 2, 15), [1.0, -3.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            DayProfile(Date(2015, 2, 15), [1.0, float("nan")])

    @pytest.mark.parametrize("samples", [[], [[1.0, 2.0]]])
    def test_rejects_empty_or_not_1d(self, samples):
        with pytest.raises(ValueError, match="^samples must be a non-empty 1-D sequence$"):
            DayProfile(Date(2015, 2, 15), samples)

    def test_samples_are_read_only(self):
        day = DayProfile(Date(2015, 2, 15), [1.0, 2.0])
        with pytest.raises(ValueError):
            day.samples[0] = 5.0

    def test_day_index_is_the_date_ordinal(self):
        day = DayProfile(Date(2015, 2, 15), [1.0, 2.0])
        assert day.day_index == Date(2015, 2, 15).toordinal() == 735644


class TestSolarSeries:
    GRID = SamplingGrid(sample_interval_seconds=21600)

    def test_rejects_wrong_row_length(self):
        with pytest.raises(ValueError, match="not days x 4 slots"):
            SolarSeries(self.GRID, np.zeros((2, 5)), Date(2015, 2, 15))
        with pytest.raises(ValueError, match="not days x 4 slots"):
            SolarSeries(self.GRID, np.zeros(4), Date(2015, 2, 15))

    def test_rejects_nan_naming_its_day(self):
        power = np.zeros((3, 4))
        power[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite sample in day 2015-02-16"):
            SolarSeries(self.GRID, power, Date(2015, 2, 15))

    def test_rejects_negative_naming_its_day(self):
        power = np.zeros((3, 4))
        power[2, 0] = -1e-9
        with pytest.raises(ValueError, match="negative sample in day 2015-02-17"):
            SolarSeries(self.GRID, power, Date(2015, 2, 15))

    def test_rejects_end_past_date_max(self):
        with pytest.raises(ValueError, match="run past 9999-12-31"):
            SolarSeries(self.GRID, np.zeros((3, 4)), Date(9999, 12, 30))
        last = SolarSeries(self.GRID, np.zeros((2, 4)), Date(9999, 12, 30))
        assert last.days[-1].date == Date(9999, 12, 31)

    def test_rows_are_read_only_day_views(self):
        power = np.arange(8, dtype=float).reshape(2, 4)
        series = SolarSeries(self.GRID, power, Date(2015, 2, 15))
        power[0, 0] = 99.0  # the series keeps its own copy
        assert series.power[0, 0] == 0.0
        with pytest.raises(ValueError):
            series.power[0, 0] = 5.0
        day = series.day_by_index(series.first_index + 1)
        assert (day.day_index, day.date) == (series.first_index + 1, Date(2015, 2, 16))
        assert np.shares_memory(day.samples, series.power)
        assert series.days is series.days

    def test_day_lookup_by_index_and_date(self):
        series = make_series([[1, 2, 3, 4], [5, 6, 7, 8]], interval_seconds=21600)
        first = series.first_index
        assert (first, series.last_index) == (Date(2015, 2, 15).toordinal(), first + 1)
        assert series.day_by_index(first + 1).samples[0] == 5
        assert series.day_by_index(Date(2015, 2, 16).toordinal()).samples[3] == 8
        with pytest.raises(KeyError):
            series.day_by_index(first + 7)
        day = series.day_by_index(np.int64(first + 1))  # numpy integers index too
        assert (day.day_index, day.date) == (first + 1, Date(2015, 2, 16))
        assert type(day.day_index) is int
        with pytest.raises(KeyError):
            series.day_by_index(Date(2020, 1, 1).toordinal())
        assert "days" not in vars(series)  # a lookup builds only its own day


class TestIngest:
    def test_two_complete_days(self):
        text = csv_for([range(96), range(96)])
        series = ingest_csv(text, SamplingGrid())
        assert series.num_days == 2
        assert all(day.samples.size == 96 for day in series.days)

    def test_missing_0715_names_the_date(self):
        # drop the 07:15 sample (slot 29) of the first day
        text = csv_for([range(96)])
        lines = text.splitlines()
        del lines[1 + 29]
        with pytest.raises(IncompleteDay) as err:
            ingest_csv("\n".join(lines), SamplingGrid())
        assert "2015-02-15" in str(err.value)

    def test_day_without_rows_is_a_missing_incomplete_day(self):
        text = csv_for([range(96), range(96), range(96)])
        lines = text.splitlines()
        del lines[1 + 96 : 1 + 2 * 96]
        with pytest.raises(MissingDay) as err:
            ingest_csv("\n".join(lines), SamplingGrid())
        assert isinstance(err.value, IncompleteDay)
        assert err.value.date == Date(2015, 2, 16)
        assert str(err.value) == "incomplete day: 2015-02-16 (no rows)"

    def test_non_numeric_power(self):
        text = "timestamp,power_w\n2015-02-15T00:00:00,abc\n"
        with pytest.raises(MalformedRow):
            ingest_csv(text, SamplingGrid())

    def test_bad_timestamp(self):
        text = "timestamp,power_w\nnot-a-time,5.0\n"
        with pytest.raises(MalformedRow):
            ingest_csv(text, SamplingGrid())

    def test_off_grid_timestamp(self):
        text = "timestamp,power_w\n2015-02-15T00:07:00,5.0\n"
        with pytest.raises(GridMisalignment):
            ingest_csv(text, SamplingGrid())

    def test_duplicate_timestamp(self):
        text = (
            "timestamp,power_w\n"
            "2015-02-15T00:00:00,5.0\n"
            "2015-02-15T00:00:00,6.0\n"
        )
        with pytest.raises(MalformedRow):
            ingest_csv(text, SamplingGrid())

    def test_small_negative_clamps_to_zero(self):
        rows = [[-0.5] + [0.0] * 95]
        text = csv_for(rows)
        series = ingest_csv(text, SamplingGrid())
        assert series.days[0].samples[0] == 0.0

    def test_large_negative_rejected(self):
        rows = [[-3.0] + [0.0] * 95]
        with pytest.raises(NegativePower):
            ingest_csv(csv_for(rows), SamplingGrid())

    @pytest.mark.parametrize("rows_per_day", [1, 96])
    def test_first_and_last_representable_dates(self, rows_per_day):
        # a span of 3.65 million days: the missing day is found at once,
        # before any span-sized allocation
        grid = SamplingGrid()
        lines = ["timestamp,power_w"]
        for day in (Date(1, 1, 1), Date(9999, 12, 31)):
            stamps = grid.sample_times(day)[:rows_per_day]
            lines += [f"{t.isoformat()},0.0" for t in stamps]
        with pytest.raises(IncompleteDay) as err:
            ingest_csv("\n".join(lines) + "\n", grid)
        expected = "0001-01-01" if rows_per_day == 1 else "0001-01-02"
        assert expected in str(err.value)

    @pytest.mark.parametrize("value", ["1e13", "2000000000000.0"])
    def test_power_above_the_limit_names_the_line(self, value):
        # a plain value passes the block reader's spelling test and meets its bound
        text = csv_for([[0.0] * 95 + [MAX_POWER_W]]).replace("1000000000000.0\n", value + "\n")
        with pytest.raises(MalformedRow) as err:
            ingest_csv(text, SamplingGrid())
        assert str(err.value) == f"line 97: power '{value}' above the 1e+12 W limit"

    def test_only_a_leading_bom_is_dropped(self):
        text = csv_for([range(96)])
        plain = ingest_csv(text, SamplingGrid())
        assert ingest_csv("\ufeff" + text, SamplingGrid()).power.tobytes() == (
            plain.power.tobytes())
        lines = text.splitlines(keepends=True)
        lines[5] = "\ufeff" + lines[5]
        with pytest.raises(MalformedRow) as err:
            ingest_csv("".join(lines), SamplingGrid())
        assert str(err.value) == "line 6: bad timestamp '\\ufeff2015-02-15T01:00:00'"
        with pytest.raises(MalformedRow, match="^line 1: expected header"):
            ingest_csv("\ufeff\ufeff" + text, SamplingGrid())


@pytest.fixture(scope="module")
def year_text():
    """The export of `synth --days 365` at the default seed."""
    sink = io.StringIO()
    export_csv(generate(SynthConfig(), 365).series, sink)
    return sink.getvalue()


def test_year_export_takes_the_whole_file_path(year_text):
    # the benchmark's input: a silent fallback to the per-line parser
    # would still pass every output check
    fast = _ingest_canonical(year_text, SamplingGrid())
    assert fast is not None
    reference = _ingest_lines(year_text, SamplingGrid())
    assert fast.power.tobytes() == reference.power.tobytes()
    assert (fast.start, fast.num_days) == (reference.start, 365)


def test_year_ingest_peak_memory_at_most_eight_times_the_text(year_text):
    # the per-day reader peaked at 4.0x; an index array of every row's
    # 20 prefix columns would take about 12x
    ingest_csv(year_text, SamplingGrid())  # first-call caches out of the count
    tracemalloc.start()
    try:
        ingest_csv(year_text, SamplingGrid())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * len(year_text)


def test_export_ingest_identity():
    # exact decimal round-trip, including non-representable decimals
    rng = np.random.default_rng(7)
    rows = rng.uniform(0, 35000, size=(3, 96))
    series = make_series(rows)
    buf = io.StringIO()
    export_csv(series, buf)
    back = ingest_csv(buf.getvalue(), series.grid)
    for a, b in zip(series.days, back.days):
        assert np.array_equal(a.samples, b.samples)


class TestSplit:
    def test_50_days_splits_30_10_10(self):
        series = make_series(np.zeros((50, 96)))
        split = split_chronological(series, (0.6, 0.2, 0.2))
        assert (split.train.num_days, split.tune.num_days, split.test.num_days) == (30, 10, 10)

    def test_5_days_splits_3_1_1(self):
        series = make_series(np.zeros((5, 96)))
        split = split_chronological(series, (0.6, 0.2, 0.2))
        assert (split.train.num_days, split.tune.num_days, split.test.num_days) == (3, 1, 1)

    def test_7_days_splits_4_1_2(self):
        series = make_series(np.zeros((7, 96)))
        split = split_chronological(series, (0.6, 0.2, 0.2))
        assert (split.train.num_days, split.tune.num_days, split.test.num_days) == (4, 1, 2)

    def test_chronological_ordering(self):
        series = make_series(np.zeros((10, 96)))
        split = split_chronological(series, (0.6, 0.2, 0.2))
        assert split.train.days[-1].date < split.tune.days[0].date
        assert split.tune.days[-1].date < split.test.days[0].date

    def test_too_few_days(self):
        series = make_series(np.zeros((10, 96)))
        with pytest.raises(TooFewDays):
            split_chronological(series.subseries(0, 4), (0.6, 0.2, 0.2))

    def test_ratios_must_sum_to_one(self):
        series = make_series(np.zeros((10, 96)))
        with pytest.raises(ValueError):
            split_chronological(series, (0.5, 0.2, 0.2))

    @pytest.mark.parametrize("ratios", [(math.nan, 0.2, 0.2), (0.6, math.nan, 0.2),
                                        (0.6, 0.2, math.nan)])
    def test_nan_ratio_rejected(self, ratios):
        series = make_series(np.zeros((10, 96)))
        with pytest.raises(ValueError, match="must sum to 1"):
            split_chronological(series, ratios)

    @pytest.mark.parametrize("ratios", [(1.2, -0.4, 0.2), (-0.2, 0.6, 0.6),
                                        (0.6, 0.6, -0.2)])
    def test_negative_ratio_rejected(self, ratios):
        series = make_series(np.zeros((50, 96)))
        with pytest.raises(ValueError, match="must be >= 0"):
            split_chronological(series, ratios)

    @pytest.mark.parametrize("ratios", [(0.5, 0.5), (0.4, 0.2, 0.2, 0.2), ()])
    def test_three_ratios_needed(self, ratios):
        series = make_series(np.zeros((10, 96)))
        with pytest.raises(ValueError, match="^need exactly three split ratios$"):
            split_chronological(series, ratios)

    @pytest.mark.parametrize("train, tune, test", [
        ((6, 8), (0, 6), (8, 10)),
        ((0, 6), (8, 10), (6, 8)),
        ((0, 6), (5, 8), (8, 10)),
    ], ids=["tune-before-train", "test-before-tune", "overlap"])
    def test_partitions_must_be_in_time_order(self, train, tune, test):
        series = make_series(np.zeros((10, 96)))
        with pytest.raises(ValueError, match="^split partitions must be in time order$"):
            DatasetSplit(series, *(series.subseries(*span) for span in (train, tune, test)))

    def test_full_series_reassembles(self):
        series = make_series(np.arange(10 * 96).reshape(10, 96))
        split = split_chronological(series, (0.6, 0.2, 0.2))
        full = split.full_series()
        assert np.array_equal(full.power, series.power)
        parts = (split.train, split.tune, split.test)
        assert np.array_equal(np.concatenate([p.power for p in parts]), full.power)
        assert [p.first_index for p in parts] == [series.first_index + i for i in (0, 6, 8)]
        assert [p.start for p in parts] == [
            Date(2015, 2, 15), Date(2015, 2, 21), Date(2015, 2, 23)
        ]


class TestDayContext:
    def test_depth_1_is_previous_day(self):
        series = make_series(np.arange(6 * 4).reshape(6, 4), interval_seconds=21600)
        ctx = day_context(series, series.first_index + 5, 1)
        assert np.array_equal(ctx, series.day_by_index(series.first_index + 4).samples)

    def test_depth_5_length_480(self):
        series = make_series(np.zeros((6, 96)))
        assert day_context(series, series.first_index + 5, 5).size == 480

    def test_depth_2_elementwise(self):
        # independent oracle: index the day rows directly, oldest first
        rows = np.arange(5 * 4, dtype=float).reshape(5, 4)
        series = make_series(rows, interval_seconds=21600)
        ctx = day_context(series, series.first_index + 3, 2)
        expected = np.concatenate([rows[1], rows[2]])
        assert np.array_equal(ctx, expected)

    def test_insufficient_history(self):
        series = make_series(np.zeros((4, 4)), interval_seconds=21600)
        with pytest.raises(InsufficientHistory):
            day_context(series, series.first_index + 2, 3)

    @pytest.mark.parametrize("start, target, depth, message", [
        (Date(2015, 2, 15), 2, 3,
         "2015-02-17 needs 2015-02-14..2015-02-16; series covers 2015-02-15..2015-02-18"),
        (Date.min, 1, 3, "0001-01-02 needs 2 day(s) before 0001-01-01..0001-01-01; "
         "series covers 0001-01-01..0001-01-04"),
        (Date(9999, 12, 28), 5, 1, "2 day(s) after 9999-12-31 needs 1 day(s) after "
         "9999-12-31..1 day(s) after 9999-12-31; series covers 9999-12-28..9999-12-31"),
    ], ids=["in-calendar", "before-date-min", "after-date-max"])
    def test_insufficient_history_names_dates(self, start, target, depth, message):
        # dates off the calendar are named by their distance from its ends
        series = make_series(np.zeros((4, 4)), start=start, interval_seconds=21600)
        with pytest.raises(InsufficientHistory) as err:
            day_context(series, series.first_index + target, depth)
        assert str(err.value) == message

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_must_be_positive(self, depth):
        series = make_series(np.zeros((4, 4)), interval_seconds=21600)
        with pytest.raises(ValueError, match="^depth_days must be >= 1$"):
            day_context(series, series.first_index + 2, depth)

    def test_next_unseen_day_allowed(self):
        series = make_series(np.zeros((4, 4)), interval_seconds=21600)
        assert day_context(series, series.first_index + 4, 2).size == 8

    def test_length_property_across_depths(self):
        series = make_series(np.zeros((9, 96)))
        for depth in range(1, 6):
            assert day_context(series, series.first_index + 8, depth).size == depth * 96
