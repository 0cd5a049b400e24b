"""Properties that must hold for every input, checked with hypothesis.

Examples are derandomized, so a run is reproducible; widen max_examples
locally to search further.
"""

import io
from datetime import date as Date, datetime, timedelta

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from twotier import correction, knn, nn, persistence  # noqa: E402
from twotier.errors import NumericalFailure, TwoTierError  # noqa: E402
from twotier.timeseries import (  # noqa: E402
    CSV_HEADER,
    SamplingGrid,
    SolarSeries,
    _ingest_canonical,
    _ingest_lines,
    day_context,
    export_csv,
    ingest_csv,
)

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def measured_days(draw):
    """A global forecast and a measurement of the same length, both finite
    and non-negative, with a window/harmonics pair that can be fit."""
    window, harmonics = draw(st.sampled_from([(8, 2), (8, 3), (12, 2), (5, 1), (3, 1)]))
    size = draw(st.integers(min_value=1, max_value=40))
    global_day = draw(arrays(float, size, elements=non_negative))
    measured_day = draw(arrays(float, size, elements=non_negative))
    return global_day, measured_day, window, harmonics


@PROPERTY
@given(measured_days())
def test_corrected_values_never_negative(case):
    global_day, measured_day, window, harmonics = case
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            sim = correction.simulate_day(global_day, measured_day, window, harmonics)
    except NumericalFailure:
        return  # overflow near the float limit is reported, not returned
    assert np.all(sim.corrected_w >= 0.0)


@PROPERTY
@given(st.lists(non_negative, min_size=2, max_size=12).map(sorted))
def test_neighbor_weights_normalized(distances):
    weights = knn.neighbor_weights(distances)
    assert weights.shape == (len(distances) - 1,)
    assert weights[0] == 1.0
    assert np.all((weights >= 0.0) & (weights <= 1.0))


def _round_trip(model, arrays_of):
    """save -> load -> save gives the same bytes and a bit-equal model."""
    first = io.StringIO()
    persistence.save_model(model, first)
    loaded = persistence.load_model(first.getvalue())
    second = io.StringIO()
    persistence.save_model(loaded, second)
    assert second.getvalue() == first.getvalue()
    assert loaded.config == model.config
    for saved, restored in zip(arrays_of(model), arrays_of(loaded)):
        assert np.array_equal(saved, restored)


@st.composite
def knn_models(draw):
    depth = draw(st.integers(min_value=1, max_value=3))
    neighbors = draw(st.integers(min_value=2, max_value=4))
    pairs = draw(st.integers(min_value=neighbors + 1, max_value=neighbors + 3))
    per_day = draw(st.integers(min_value=1, max_value=4))
    return knn.KnnModel(
        config=knn.KnnConfig(depth_days=depth, neighbors=neighbors),
        contexts=draw(arrays(float, (pairs, depth * per_day), elements=finite)),
        targets=draw(arrays(float, (pairs, per_day), elements=finite)),
    )


@st.composite
def nn_models(draw):
    hidden = draw(st.integers(min_value=1, max_value=8))
    config = nn.NnConfig(
        hidden_neurons=hidden,
        restarts=draw(st.integers(min_value=1, max_value=50)),
        lm_initial_damping=draw(positive),
        lm_damping_factor=draw(
            st.floats(min_value=1.0, exclude_min=True, allow_infinity=False)
        ),
        max_iterations=draw(st.integers(min_value=0, max_value=1000)),
        loss_tolerance=draw(positive),
        rng_seed=draw(st.integers(min_value=0, max_value=2**64 - 1)),
    )
    return nn.NnModel(
        hidden_weights=draw(arrays(float, (hidden, 2), elements=finite)),
        hidden_biases=draw(arrays(float, hidden, elements=finite)),
        output_weights=draw(arrays(float, hidden, elements=finite)),
        output_bias=draw(finite),
        scale_max=draw(positive),
        samples_per_day=draw(st.integers(min_value=1, max_value=1440)),
        config=config,
    )


@PROPERTY
@given(knn_models())
def test_knn_save_load_save_byte_identical(model):
    _round_trip(model, lambda m: (m.contexts, m.targets))


@PROPERTY
@given(nn_models())
def test_nn_save_load_save_byte_identical(model):
    _round_trip(model, lambda m: (
        m.hidden_weights, m.hidden_biases, m.output_weights,
        m.output_bias, m.scale_max, m.samples_per_day,
    ))


# Intervals whose days have few enough slots for many-day examples.
intervals = st.sampled_from([7200, 21600, 43200, 86400])


@st.composite
def solar_series(draw, min_days=1, max_days=8, elements=non_negative):
    """A series with any start date and first index the data model allows."""
    grid = SamplingGrid(sample_interval_seconds=draw(intervals))
    days = draw(st.integers(min_value=min_days, max_value=max_days))
    power = draw(arrays(float, (days, grid.samples_per_day), elements=elements))
    start = draw(st.dates(max_value=Date.max - timedelta(days=days - 1)))
    first_index = draw(st.integers(min_value=0, max_value=10**6))
    return SolarSeries(grid, power, start, first_index)


@PROPERTY
@given(solar_series(elements=st.floats(min_value=-0.0, allow_infinity=False)))
def test_export_ingest_round_trip_is_bit_exact(series):
    sink = io.StringIO()
    export_csv(series, sink)
    back = ingest_csv(sink.getvalue(), series.grid)
    assert back.power.tobytes() == series.power.tobytes()  # -0.0 included
    assert back.start == series.start
    assert back.num_days == series.num_days


def export_per_sample(series, sink):
    """Reference writer: one timestamp and one write per sample."""
    sink.write(CSV_HEADER + "\n")
    for offset, row in enumerate(series.power):
        day = series.start + timedelta(days=offset)
        for stamp, value in zip(series.grid.sample_times(day), row):
            sink.write(f"{stamp.isoformat()},{float(value)!r}\n")


@PROPERTY
@given(solar_series(elements=st.floats(min_value=-0.0, allow_infinity=False)))
def test_export_matches_per_sample_writer(series):
    fast, reference = io.StringIO(), io.StringIO()
    export_csv(series, fast)
    export_per_sample(series, reference)
    assert fast.getvalue() == reference.getvalue()


# Values that a whole-day reader could get wrong: line breaks and
# whitespace `float` or `str.splitlines` treat specially, forms only
# Python's `float` accepts, the clamp and rejection bounds, non-finite.
NAMED_VALUES = ["\r1.5", "\x0b1.5", "\x851.5", " 1.5", "1_0", "+1.5", "-0.0",
                "-0.5", "-1.5", "nan", "inf", "1e400"]


def ingest_outcome(parse, text, grid):
    """What `parse` makes of `text`: the series' exact bits and start, or
    the error's type and message."""
    try:
        series = parse(text, grid)
    except TwoTierError as exc:
        return type(exc), str(exc)
    return series.power.tobytes(), series.start, series.num_days


@st.composite
def canonical_series(draw):
    """A series whose export is canonical, at the calendar's edges too."""
    grid = SamplingGrid(sample_interval_seconds=draw(st.sampled_from([900, 3600, 86400])))
    days = draw(st.integers(min_value=1, max_value=4))
    last_start = Date.max - timedelta(days=days - 1)
    start = draw(st.one_of(
        st.just(Date.min), st.just(last_start), st.dates(max_value=last_start)
    ))
    power = draw(arrays(float, (days, grid.samples_per_day), elements=non_negative))
    return SolarSeries(grid, power, start)


def exported(series):
    sink = io.StringIO()
    export_csv(series, sink)
    return sink.getvalue()


def replace_value(text, line, value):
    lines = text.split("\n")
    lines[line] = lines[line].split(",")[0] + "," + value
    return "\n".join(lines)


def swap_lines(text, i, j):
    lines = text.split("\n")
    lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines)


def delete_line(text, i):
    lines = text.split("\n")
    del lines[i]
    return "\n".join(lines)


def duplicate_line(text, i):
    lines = text.split("\n")
    lines.insert(i, lines[i])
    return "\n".join(lines)


mutant_values = st.one_of(
    st.sampled_from(NAMED_VALUES), st.floats().map(repr), st.text(max_size=6)
)


@st.composite
def mutated_csv(draw):
    """Canonical export text with a few random edits, and its grid."""
    series = draw(canonical_series())
    text = exported(series)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        lines = text.count("\n") + 1
        position = draw(st.integers(min_value=0, max_value=len(text)))
        line = draw(st.integers(min_value=0, max_value=lines - 1))
        other = draw(st.integers(min_value=0, max_value=lines - 1))
        text = draw(st.sampled_from([
            lambda: text[:position] + draw(st.characters()) + text[position:],
            lambda: text[:position] + text[position + 1:],
            lambda: replace_value(text, line, draw(mutant_values)),
            lambda: swap_lines(text, line, other),
            lambda: delete_line(text, line),
            lambda: duplicate_line(text, line),
            lambda: text.replace("\n", "\r\n"),
            lambda: text[:-1],
            lambda: "\ufeff" + text,
        ]))()
    return text, series.grid


@PROPERTY
@given(mutated_csv())
def test_ingest_equals_per_line_parser(case):
    text, grid = case
    assert ingest_outcome(ingest_csv, text, grid) == ingest_outcome(_ingest_lines, text, grid)


@PROPERTY
@given(canonical_series())
def test_unmutated_export_takes_the_whole_day_path(series):
    text = exported(series)
    fast = _ingest_canonical(text, series.grid)
    assert fast is not None
    assert fast.power.tobytes() == series.power.tobytes()
    assert fast.start == series.start


# Edits of whole lines and line ends; -2 is the last row, -1 the empty
# string after the final "\n".
LINE_EDITS = {
    "delete first row": lambda text: delete_line(text, 1),
    "delete last row": lambda text: delete_line(text, -2),
    "duplicate last row": lambda text: duplicate_line(text, -2),
    "swap last two rows": lambda text: swap_lines(text, -3, -2),
    "swap first and last row": lambda text: swap_lines(text, 1, -2),
    "CRLF": lambda text: text.replace("\n", "\r\n"),
    "no final newline": lambda text: text[:-1],
    "no final newline after a duplicated last row": lambda text: duplicate_line(text, -2)[:-1],
    "blank last line": lambda text: text + "\n",
    "text after the final newline": lambda text: text + "0",
    "BOM": lambda text: "\ufeff" + text,
    "space before the first row": lambda text: text.replace("\n", "\n ", 1),
    "tab after the last value": lambda text: text[:-1] + "\t\n",
}


@pytest.mark.parametrize("edit", LINE_EDITS)
@pytest.mark.parametrize("interval", [900, 3600, 86400])
@pytest.mark.parametrize("start", [Date.min, Date(2015, 2, 15), Date.max - timedelta(days=2)])
def test_line_edit_ingests_as_per_line_parser(edit, interval, start):
    grid = SamplingGrid(sample_interval_seconds=interval)
    series = SolarSeries(grid, np.arange(3.0 * grid.samples_per_day).reshape(3, -1), start)
    text = LINE_EDITS[edit](exported(series))
    assert ingest_outcome(ingest_csv, text, grid) == ingest_outcome(_ingest_lines, text, grid)


@pytest.mark.parametrize("value", NAMED_VALUES)
@pytest.mark.parametrize("line", [1, 2, 24])
def test_named_value_ingests_as_per_line_parser(value, line):
    grid = SamplingGrid(sample_interval_seconds=3600)
    series = SolarSeries(grid, np.arange(48.0).reshape(2, 24), Date(2015, 2, 15))
    text = replace_value(exported(series), line, value)
    assert ingest_outcome(ingest_csv, text, grid) == ingest_outcome(_ingest_lines, text, grid)


@st.composite
def context_cases(draw):
    series = draw(solar_series())
    depth = draw(st.integers(min_value=1, max_value=series.num_days))
    target = draw(
        st.integers(
            min_value=series.first_index + depth, max_value=series.last_index + 1
        )
    )
    return series, target, depth


@PROPERTY
@given(context_cases())
def test_day_context_concatenates_day_rows(case):
    series, target, depth = case
    expected = np.concatenate(
        [series.day_by_index(i).samples for i in range(target - depth, target)]
    )
    assert np.array_equal(day_context(series, target, depth), expected)


@st.composite
def knn_fit_cases(draw):
    depth = draw(st.integers(min_value=1, max_value=4))
    neighbors = draw(st.integers(min_value=2, max_value=3))
    series = draw(solar_series(min_days=depth + neighbors + 1, max_days=12))
    return series, knn.KnnConfig(depth_days=depth, neighbors=neighbors)


@PROPERTY
@given(knn_fit_cases())
def test_knn_fit_matches_per_day_contexts(case):
    series, config = case
    model = knn.fit(series, config)
    # reference: one day_context and one target row per eligible day
    eligible = range(series.first_index + config.depth_days, series.last_index + 1)
    contexts = np.stack([day_context(series, d, config.depth_days) for d in eligible])
    targets = np.stack([series.day_by_index(d).samples for d in eligible])
    assert np.array_equal(model.contexts, contexts)
    assert np.array_equal(model.targets, targets)


def datetime_of(day, offset, seconds):
    """Midnight of `day` + offset days + seconds, or None off the calendar."""
    try:
        return datetime(day.year, day.month, day.day) + timedelta(
            days=offset, seconds=seconds
        )
    except OverflowError:
        return None


@st.composite
def csv_texts(draw):
    """CSV-like text: a header (two times in three), then rows on grid-aligned
    timestamps of a few nearby days; half the inputs also mix in arbitrary
    timestamps, values and junk lines."""
    interval = draw(st.sampled_from([3600, 21600, 43200, 86400]))
    slots = 86400 // interval
    first = draw(st.dates())
    aligned = st.builds(
        lambda offset, slot: datetime_of(first, offset, slot * interval),
        st.integers(min_value=-1, max_value=2),
        st.integers(min_value=0, max_value=slots - 1),
    ).filter(lambda t: t is not None).map(lambda t: t.isoformat())
    stamp = st.one_of(
        aligned, st.datetimes().map(lambda t: t.isoformat()), st.text(max_size=25)
    )
    value = st.one_of(
        st.floats().map(repr), st.integers().map(str), st.text(max_size=10)
    )
    good_row = st.builds(
        lambda t, v: f"{t},{v!r}",
        aligned,
        st.floats(min_value=-2.0, allow_nan=False, allow_infinity=False),
    )
    row = good_row
    if draw(st.booleans()):
        row = st.one_of(
            good_row,
            st.builds(lambda t, v: f"{t},{v}", stamp, value),
            st.text(max_size=40),
        )
    # distinct timestamps, so that most inputs get past the duplicate check
    lines = draw(
        st.lists(row, max_size=3 * slots + 4, unique_by=lambda r: r.split(",")[0])
    )
    header = draw(st.sampled_from(["timestamp,power_w", "\ufefftimestamp,power_w", ""]))
    lines.insert(0, header)  # "" is a blank line: no header
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines), SamplingGrid(sample_interval_seconds=interval)


@PROPERTY
@given(csv_texts())
def test_ingest_returns_series_or_raises_twotier_error(case):
    text, grid = case
    try:
        series = ingest_csv(text, grid)
    except TwoTierError:
        return
    assert series.power.shape == (series.num_days, grid.samples_per_day)
    assert series.num_days >= 1
    assert np.all(np.isfinite(series.power)) and np.all(series.power >= 0)
