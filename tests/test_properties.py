"""Properties that must hold for every input, checked with hypothesis.

Examples are derandomized, so a run is reproducible; widen max_examples
locally to search further.
"""

import io
import math
import re
from datetime import date as Date, datetime, timedelta

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from conftest import neuron_major_order, rendered, replace_payload_line  # noqa: E402
from twotier import correction, evaluation, knn, nn, persistence  # noqa: E402
from twotier.errors import (  # noqa: E402
    InsufficientTrainingDays,
    NumericalFailure,
    PersistenceError,
    TwoTierError,
)
from twotier.rng import SplitMix64  # noqa: E402
from twotier.timeseries import (  # noqa: E402
    CSV_HEADER,
    SamplingGrid,
    SolarSeries,
    _ingest_canonical,
    _ingest_lines,
    day_context,
    export_csv,
    ingest_csv,
    split_chronological,
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


@st.composite
def rmse_blocks(draw):
    """A (days, slots) forecast block and its measurement, 1-200 slots of
    values up to 35 kW in 0.1 W steps, or of hypothesis' own floats up to
    35 kW; some rows are all zero and some forecast their day exactly."""
    days = draw(st.integers(min_value=1, max_value=5))
    slots = draw(st.integers(min_value=1, max_value=200))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        forecasts, measured = rng.uniform(0.0, 35000.0, (2, days, slots)).round(1)
    else:
        power = st.floats(min_value=0.0, max_value=35000.0)
        forecasts, measured = (draw(arrays(float, (days, slots), elements=power))
                               for _ in range(2))
    rows = st.lists(st.integers(min_value=0, max_value=days - 1), max_size=days)
    dark, exact = draw(rows), draw(rows)
    measured[dark] = 0.0
    forecasts[exact] = measured[exact]
    return forecasts, measured


@settings(PROPERTY, max_examples=100)
@given(rmse_blocks())
def test_daily_rmse_rows_bit_equal_one_day_rmse(block):
    forecasts, measured = block
    scores = evaluation.daily_rmse(forecasts, measured)
    assert scores.shape == forecasts.shape[:1]
    for i, score in enumerate(scores.tolist()):
        diff = forecasts[i] - measured[i]
        assert score == evaluation.rmse(forecasts[i], measured[i])
        # the formula of a one-day dot product, as every score once was
        assert score == math.sqrt(float(diff @ diff) / diff.size)


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


@st.composite
def nn_weight_sets(draw):
    """An NnModel of 1-64 hidden neurons whose weights are drawn from
    [-50, 50], ±0.0 and ±50 included, and a seed for build."""
    hidden = draw(st.integers(min_value=1, max_value=64))
    weights = st.one_of(
        st.sampled_from([0.0, -0.0, 50.0, -50.0]), st.floats(min_value=-50.0, max_value=50.0)
    )
    model = nn.NnModel(
        hidden_weights=draw(arrays(float, (hidden, 2), elements=weights)),
        hidden_biases=draw(arrays(float, hidden, elements=weights)),
        output_weights=draw(arrays(float, hidden, elements=weights)),
        output_bias=draw(weights),
        scale_max=1.0,
        samples_per_day=96,
        config=nn.NnConfig(hidden_neurons=hidden),
    )
    return model, draw(st.integers(min_value=0, max_value=2**64 - 1))


def _bits(values):
    return np.array(values, dtype=float).view(np.uint64)


@PROPERTY
@given(nn_weight_sets())
def test_neuron_major_params_round_trip_and_follow_draw_order(case):
    model, seed = case
    rebuilt = nn._with_params(nn._params(model), model)
    for field in ("hidden_weights", "hidden_biases", "output_weights", "output_bias"):
        assert np.array_equal(_bits(getattr(rebuilt, field)), _bits(getattr(model, field)))
    assert persistence.render_model(rebuilt) == persistence.render_model(model)
    # build draws 4H+1 uniforms in row-major order; _params is their
    # neuron-major permutation
    h = model.config.hidden_neurons
    rng = SplitMix64(seed)
    drawn = np.array([rng.uniform(-0.5, 0.5) for _ in range(4 * h + 1)])
    params = nn._params(nn.build(model.config, seed))
    assert np.array_equal(_bits(params), _bits(drawn[neuron_major_order(h)]))


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


def predict_day_reference(model, query):
    """The single-query k-NN forecast as one expression: the per-day
    distance rule, a stable ranking, the neighbor weights and the blend."""
    depth = model.config.depth_days
    diff = (model.contexts - query).reshape(model.pair_count, depth, -1)
    day_terms = np.einsum("pdm,pdm->pd", diff, diff)
    distances = day_terms[:, 0]
    for i in range(1, depth):  # oldest day first
        distances = distances + day_terms[:, i]
    distances = np.sqrt(distances)
    order = np.argsort(distances, kind="stable")
    k = model.config.neighbors
    d = distances[order[: k + 1]]
    span = d[k] - d[0]
    weights = np.ones(k) if span == 0 else (d[k] - d[:k]) / span
    return weights @ model.targets[order[:k]] / weights.sum()


# Few distinct values, so that days repeat and distances tie.
watts = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5, 1000.0]),
    st.floats(min_value=0.0, max_value=35000.0),
)


@st.composite
def knn_queries(draw):
    """A model and a query; the query is often a stored context, and rows
    are often repeats, so ties at zero and elsewhere are common."""
    depth = draw(st.integers(min_value=1, max_value=3))
    neighbors = draw(st.integers(min_value=2, max_value=4))
    pairs = draw(st.integers(min_value=neighbors + 1, max_value=12))
    width = depth * draw(st.integers(min_value=1, max_value=6))
    pool = draw(arrays(float, (draw(st.integers(1, pairs)), width), elements=watts))
    rows = draw(st.lists(st.integers(0, len(pool) - 1), min_size=pairs, max_size=pairs))
    model = knn.KnnModel(
        config=knn.KnnConfig(depth_days=depth, neighbors=neighbors),
        contexts=pool[rows],
        targets=draw(arrays(float, (pairs, draw(st.integers(1, 4))), elements=watts)),
    )
    query = draw(st.one_of(
        st.sampled_from(list(model.contexts)), arrays(float, width, elements=watts)
    ))
    return model, query


@PROPERTY
@given(knn_queries())
def test_predict_day_bit_equal_to_single_query_expression(case):
    model, query = case
    assert knn.predict_day(model, query).tobytes() == predict_day_reference(model, query).tobytes()


def tune_cells_reference(split, depths, neighbor_counts):
    """Per-cell tuning: fit each (D, k) model on the train split and
    score `forecast_days` on the tune days."""
    full = split.full_series()
    cells = {}
    for depth in depths:
        for neighbors in neighbor_counts:
            try:
                model = knn.fit(split.train, knn.KnnConfig(depth, neighbors))
            except InsufficientTrainingDays:
                cells[depth, neighbors] = None
                continue
            tune_days = [day.day_index for day in split.tune.days]
            forecasts = knn.forecast_days(model, full, tune_days)
            scores = [evaluation.rmse(f, a) for f, a in zip(forecasts, split.tune.power)]
            cells[depth, neighbors] = sum(scores) / len(scores)
    return cells


@st.composite
def series_of_kinds(draw, min_days, max_days):
    """Random, repeating or constant days of 1-4 slots."""
    grid = SamplingGrid(sample_interval_seconds=draw(st.sampled_from([21600, 43200, 86400])))
    days = draw(st.integers(min_value=min_days, max_value=max_days))
    shape = (days, grid.samples_per_day)
    kind = draw(st.sampled_from(["random", "repeating", "constant"]))
    if kind == "random":
        power = draw(arrays(float, shape, elements=watts))
    elif kind == "repeating":
        pool = draw(arrays(float, (draw(st.integers(1, 4)), shape[1]), elements=watts))
        power = pool[draw(st.lists(st.integers(0, len(pool) - 1), min_size=days, max_size=days))]
    else:
        power = np.full(shape, draw(watts))
    return SolarSeries(grid, power, Date(2015, 2, 15), draw(st.integers(0, 1000)))


@st.composite
def forecast_cases(draw):
    """A fitted or pair-built model, its series, and days to forecast:
    unsorted, with repeats, up to the day after the last one, or none."""
    depth = draw(st.integers(min_value=1, max_value=4))
    neighbors = draw(st.integers(min_value=2, max_value=4))
    series = draw(series_of_kinds(depth + neighbors + 1, 16))
    model = knn.fit(series, knn.KnnConfig(depth, neighbors))
    if draw(st.booleans()):
        # the same pairs in another order: no day matrix when it moved any
        order = draw(st.permutations(range(model.pair_count)))
        model = knn.KnnModel(model.config, model.contexts[order], model.targets[order])
    days = st.integers(series.first_index + depth, series.last_index + 1)
    return model, series, draw(st.lists(days, max_size=8))


@PROPERTY
@given(forecast_cases())
def test_forecast_days_equals_per_day_predict_day(case):
    model, series, days = case
    contexts = [day_context(series, day, model.history_days) for day in days]
    want = [knn.predict_day(model, context) for context in contexts]
    got = knn.forecast_days(model, series, days)
    assert got.shape == (len(days), model.target_length)
    assert np.array_equal(got, np.reshape(want, got.shape))
    for forecast, context in zip(want, contexts):
        assert forecast.tobytes() == predict_day_reference(model, context).tobytes()


signed_watts = st.sampled_from([0.0, -0.0, 1.0, 2.5])


@st.composite
def layout_cases(draw):
    """`from_days` pairs, maybe one edit away from that layout: a value
    replaced (a 0.0 by -0.0 among them) or two pairs swapped."""
    depth = draw(st.integers(min_value=1, max_value=3))
    neighbors = draw(st.integers(min_value=2, max_value=3))
    count = draw(st.integers(depth + neighbors + 1, 8))
    days = draw(arrays(float, (count, draw(st.integers(1, 3))), elements=signed_watts))
    model = knn.from_days(knn.KnnConfig(depth, neighbors), days)
    contexts, targets = np.array(model.contexts), np.array(model.targets)
    edit = draw(st.sampled_from(["none", "value", "swap"]))
    if edit == "value":
        table = draw(st.sampled_from([contexts, targets]))
        row = draw(st.integers(0, table.shape[0] - 1))
        table[row, draw(st.integers(0, table.shape[1] - 1))] = draw(signed_watts)
    elif edit == "swap":
        pair = draw(st.lists(st.integers(0, len(targets) - 1), min_size=2, max_size=2))
        contexts[pair], targets[pair] = contexts[pair[::-1]], targets[pair[::-1]]
    return knn.KnnModel(model.config, contexts, targets)


@PROPERTY
@given(st.one_of(layout_cases(), knn_models()))
def test_days_set_exactly_for_from_days_layout(model):
    # the only candidate: the first context's days, then every target
    depth = model.config.depth_days
    days = None
    if model.context_length == depth * model.target_length:
        days = np.concatenate([model.contexts[0].reshape(depth, -1), model.targets])
        pairs = range(model.pair_count)
        if not all(model.contexts[j].tobytes() == days[j : j + depth].tobytes()
                   and model.targets[j].tobytes() == days[j + depth].tobytes() for j in pairs):
            days = None
    if days is None:
        assert model.days is None
    else:
        assert model.days.tobytes() == days.tobytes()


@st.composite
def tune_cases(draw):
    """A split of random, repeating or constant days, with ascending
    candidate tuples."""
    series = draw(series_of_kinds(5, 40))
    days = series.num_days
    tune = draw(st.integers(min_value=1, max_value=max(1, (days - 2) // 3)))
    test = draw(st.integers(min_value=1, max_value=min(3, days - tune - 1)))
    train = days - tune - test
    split = split_chronological(series, (train / days, tune / days, test / days))
    depths = sorted(draw(st.sets(st.integers(1, 8), min_size=1, max_size=4)))
    neighbor_counts = sorted(draw(st.sets(st.integers(2, 5), min_size=1, max_size=3)))
    return split, tuple(depths), tuple(neighbor_counts)


def reference_grids(cells, depths, neighbor_counts):
    """`make_grid` over each candidate's best reference cell, as
    `tune_knn` builds its two tables."""
    return tuple(
        evaluation.make_grid(axis, candidates, [
            min((v for key, v in cells.items() if key[pick] == c and v is not None), default=None)
            for c in candidates
        ])
        for axis, candidates, pick in (("depth_days", depths, 0), ("neighbors", neighbor_counts, 1))
    )


@PROPERTY
@given(tune_cases())
def test_tune_knn_matches_per_cell_fits(case):
    split, depths, neighbor_counts = case
    want = tune_cells_reference(split, depths, neighbor_counts)
    try:
        result = evaluation.tune_knn(split, depths, neighbor_counts)
    except (InsufficientTrainingDays, ValueError) as exc:
        # no cell can be scored, or a table cannot be normalized
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            reference_grids(want, depths, neighbor_counts)
        return
    # the tuner and the forecaster share one distance rule: equal bits
    assert [((d, k), v) for d, k, v in result.cell_rmse] == list(want.items())
    assert (result.depth_grid, result.neighbors_grid) == reference_grids(
        want, depths, neighbor_counts
    )
    scored = [key for key, v in want.items() if v is not None]
    best = min(scored, key=lambda key: (want[key], key))
    assert (result.best_depth, result.best_neighbors) == best


MODEL_FILES = (
    rendered(knn.KnnModel(
        knn.KnnConfig(depth_days=2, neighbors=2),
        contexts=[[1.5, 2.5], [3.25, 0.125], [10.0, 0.5]],
        targets=[[100.0], [200.5], [50.25]],
    )),
    rendered(nn.build(nn.NnConfig(hidden_neurons=2), seed=3, scale_max=35000.0)),
    rendered(knn.from_days(knn.KnnConfig(depth_days=2, neighbors=2),
                           [[1.5, 0.0], [3.25, 7.0], [10.0, 0.5], [0.5, 2.0], [50.25, 1.0]])),
)

# Field values a loader could mishandle: signs, zero, non-finite, huge,
# non-numeric and empty.
MUTANT_FIELDS = ["0", "-1", "1e400", "nan", "-inf", "inf", "-0.0", "1.5", "10000000000",
                 "99999999999999999999", "0x10", "1_0", "", " ", "knn", "\x00"]


@st.composite
def mutated_model_files(draw):
    """A valid k-NN or NN file with one payload field or one character
    replaced, inserted or deleted, and its checksum recomputed."""
    text = draw(st.sampled_from(MODEL_FILES))
    old = draw(st.sampled_from(text.splitlines()[3:]))
    characters = st.characters(codec="utf-8")  # a model file is UTF-8 text
    if draw(st.booleans()):
        fields = old.split(" ")
        position = draw(st.integers(min_value=0, max_value=len(fields) - 1))
        fields[position] = draw(st.one_of(
            st.sampled_from(MUTANT_FIELDS), st.floats().map(repr), st.integers().map(str),
            st.text(characters, max_size=8),
        ))
        new = " ".join(fields)
    else:
        # insert, replace or delete one character
        position = draw(st.integers(min_value=0, max_value=len(old)))
        rest = draw(st.sampled_from([position, position + 1]))
        new = old[:position] + draw(st.one_of(st.just(""), characters)) + old[rest:]
    hypothesis.assume(new != old)
    return replace_payload_line(text, old, new)


@PROPERTY
@given(mutated_model_files())
def test_mutated_model_file_loads_or_raises_persistence_error(text):
    try:
        model = persistence.load_model(text)
    except PersistenceError:
        return
    assert isinstance(model, (knn.KnnModel, nn.NnModel))


# The NN's public functions, against the expressions they had before
# training moved to the neuron-major layout. Only rounding may differ:
# the pre-activation sums x0*w0 + x1*w1 + b in another order, and the
# output sums over the hidden neurons in another order. So each value
# is compared within 1e-14 of the magnitude of the terms it sums; a
# plain relative error is unbounded where those terms cancel.

weights = st.floats(min_value=-50.0, max_value=50.0)
normalized = st.floats(min_value=0.0, max_value=1.5)


@st.composite
def nn_batches(draw):
    """A model with moderate weights and a batch of normalized input pairs."""
    hidden = draw(st.integers(min_value=1, max_value=8))
    model = nn.NnModel(
        hidden_weights=draw(arrays(float, (hidden, 2), elements=weights)),
        hidden_biases=draw(arrays(float, hidden, elements=weights)),
        output_weights=draw(arrays(float, hidden, elements=weights)),
        output_bias=draw(weights),
        scale_max=draw(st.floats(min_value=1.0, max_value=1e5)),
        samples_per_day=4,
        config=nn.NnConfig(hidden_neurons=hidden),
    )
    inputs = draw(arrays(float, (draw(st.integers(1, 40)), 2), elements=normalized))
    return model, inputs


def parent_hidden(model, inputs):
    return np.tanh(inputs @ model.hidden_weights.T + model.hidden_biases)


def parent_forward(model, inputs):
    return parent_hidden(model, inputs) @ model.output_weights + model.output_bias


def parent_jacobian(model, inputs):
    h = model.config.hidden_neurons
    hidden = parent_hidden(model, inputs)
    gate = model.output_weights * (1.0 - hidden**2)
    jac = np.empty((inputs.shape[0], 4 * h + 1))
    jac[:, 0 : 2 * h : 2] = gate * inputs[:, :1]
    jac[:, 1 : 2 * h : 2] = gate * inputs[:, 1:]
    jac[:, 2 * h : 3 * h] = gate
    jac[:, 3 * h : 4 * h] = hidden
    jac[:, 4 * h] = 1.0
    return jac


def preactivation_terms(model, inputs):
    """(n, H): 1 + |x0 w0| + |x1 w1| + |b|, bounding each hidden value's
    and pre-activation's magnitude."""
    return 1.0 + np.abs(inputs) @ np.abs(model.hidden_weights.T) + np.abs(model.hidden_biases)


def output_terms(model, inputs):
    return np.abs(model.output_bias) + preactivation_terms(model, inputs) @ np.abs(
        model.output_weights
    )


@PROPERTY
@given(nn_batches())
def test_nn_forward_matches_parent_expression(case):
    model, inputs = case
    got = np.array([nn.forward(model, x) for x in inputs])
    want = parent_forward(model, inputs)
    assert np.all(np.abs(got - want) <= 1e-14 * output_terms(model, inputs))


@PROPERTY
@given(nn_batches())
def test_nn_jacobian_matches_parent_expression_and_column_order(case):
    model, inputs = case
    h = model.config.hidden_neurons
    terms = preactivation_terms(model, inputs)
    gate_terms = np.abs(model.output_weights) * terms
    bound = np.empty((inputs.shape[0], 4 * h + 1))
    bound[:, 0 : 2 * h : 2] = gate_terms * inputs[:, :1]
    bound[:, 1 : 2 * h : 2] = gate_terms * inputs[:, 1:]
    bound[:, 2 * h : 3 * h] = gate_terms
    bound[:, 3 * h : 4 * h] = terms
    bound[:, 4 * h] = 0.0  # d out / d output bias is exactly 1
    got = nn.jacobian(model, inputs)
    assert got.shape == bound.shape
    assert np.all(np.abs(got - parent_jacobian(model, inputs)) <= 1e-14 * bound)


@PROPERTY
@given(nn_batches(), arrays(float, (2, 4), elements=normalized))
def test_nn_predict_day_matches_parent_expression(case, days):
    model, _ = case
    series = SolarSeries(SamplingGrid(21600), days * model.scale_max, Date(2015, 2, 15))
    got = nn.predict_day(model, series.days[1], series.days[0])
    inputs = np.stack([series.days[1].samples, series.days[0].samples], axis=1)
    inputs = inputs / model.scale_max
    want = np.maximum(parent_forward(model, inputs) * model.scale_max, 0.0)
    bound = 1e-14 * output_terms(model, inputs) * model.scale_max
    assert np.all(np.abs(got - want) <= bound)
