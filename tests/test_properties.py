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

from conftest import (  # noqa: E402
    load_outcome, neuron_major_order, per_line_outcome, rendered, replace_payload_line,
    takes_day_block,
)
from twotier import correction, evaluation, knn, nn, persistence  # noqa: E402
from twotier.errors import (  # noqa: E402
    InsufficientTrainingDays,
    NumericalFailure,
    PersistenceError,
    TwoTierError,
)
from twotier.rng import SplitMix64  # noqa: E402
from twotier.synth import SynthConfig, generate  # noqa: E402
from twotier.timeseries import (  # noqa: E402
    CSV_HEADER,
    MAX_POWER_W,
    SamplingGrid,
    SolarSeries,
    _decimals,
    _fields,
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
# the readings ingest accepts, -0.0 included
readings = st.floats(min_value=-0.0, max_value=MAX_POWER_W)
# the k-NN values and NN scales a model file may hold
model_values = st.floats(min_value=-MAX_POWER_W, max_value=MAX_POWER_W)
model_scales = st.floats(min_value=0.0, exclude_min=True, max_value=MAX_POWER_W)


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
    weights = knn._weights(np.array([distances]))[0]
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
    """A `from_days` model of D + k + 1 to D + k + 3 days of 1-4 slots."""
    depth = draw(st.integers(min_value=1, max_value=3))
    neighbors = draw(st.integers(min_value=2, max_value=4))
    count = draw(st.integers(min_value=depth + neighbors + 1, max_value=depth + neighbors + 3))
    per_day = draw(st.integers(min_value=1, max_value=4))
    days = draw(arrays(float, (count, per_day), elements=model_values))
    return knn.from_days(knn.KnnConfig(depth_days=depth, neighbors=neighbors), days)


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
        scale_max=draw(model_scales),
        samples_per_day=draw(st.integers(min_value=1, max_value=1440)),
        config=config,
    )


@PROPERTY
@given(knn_models())
def test_knn_save_load_save_byte_identical(model):
    _round_trip(model, lambda m: (m.days, m.contexts, m.targets))


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
    """A series with any start date the data model allows."""
    grid = SamplingGrid(sample_interval_seconds=draw(intervals))
    days = draw(st.integers(min_value=min_days, max_value=max_days))
    power = draw(arrays(float, (days, grid.samples_per_day), elements=elements))
    start = draw(st.dates(max_value=Date.max - timedelta(days=days - 1)))
    return SolarSeries(grid, power, start)


@PROPERTY
@given(solar_series(elements=readings))
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


# Values that a whole-file reader could get wrong: blanks `float` strips,
# a CR, VT and NEL among them, which end no line, forms only
# Python's `float` accepts, the clamp and rejection bounds, non-finite,
# a second comma, an empty value, zero as export_csv writes it and in
# the spellings that must still go through `float`, and NULs, which
# `float` rejects wherever they stand in a value.
NAMED_VALUES = ["\r1.5", "\x0b1.5", "\x851.5", " 1.5", "1_0", "+1.5", "-0.0",
                "-0.5", "-1.5", "nan", "inf", "1e400", "1e12", "1.0000000000000002e12",
                "1,5", "", "0.0", "0", "0.00", "00.0", "0.0 ", "1.0\x00", "1\x005", "\x00"]


def ingest_outcome(parse, text, grid):
    """What `parse` makes of `text`: the series' exact bits and start, or
    the error's type and message."""
    try:
        series = parse(text, grid)
    except TwoTierError as exc:
        return type(exc), str(exc)
    return series.power.tobytes(), series.start, series.num_days


def per_line(text, grid):
    """The per-line reference of `ingest_csv`: `_ingest_lines` of the text
    after the one leading byte-order mark that `ingest_csv` drops."""
    return _ingest_lines(text.removeprefix("\ufeff"), grid)


@st.composite
def canonical_series(draw, elements=readings):
    """A series whose export is canonical, at the calendar's edges too."""
    grid = SamplingGrid(sample_interval_seconds=draw(st.sampled_from([900, 3600, 86400])))
    days = draw(st.integers(min_value=1, max_value=4))
    last_start = Date.max - timedelta(days=days - 1)
    start = draw(st.one_of(
        st.just(Date.min), st.just(last_start), st.dates(max_value=last_start)
    ))
    power = draw(arrays(float, (days, grid.samples_per_day), elements=elements))
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


def replace_char(text, line, column, char=None):
    """`text` with the character at `column` of line `line` replaced by
    `char`, by default by the next ASCII character."""
    lines = text.split("\n")
    row = lines[line]
    lines[line] = row[:column] + (char or chr(ord(row[column]) + 1)) + row[column + 1:]
    return "\n".join(lines)


def move_comma(text):
    """Row 1 without its comma, row 2 with a second one."""
    lines = text.split("\n")
    lines[1] = lines[1].replace(",", "")
    lines[2] += ",0"
    return "\n".join(lines)


def duplicate_line(text, i):
    lines = text.split("\n")
    lines.insert(i, lines[i])
    return "\n".join(lines)


def insert_char(text, line, column, char):
    """`text` with `char` inserted before the character at `column` of
    line `line`; a column of None appends it to the line."""
    lines = text.split("\n")
    row = lines[line]
    column = len(row) if column is None else column
    lines[line] = row[:column] + char + row[column:]
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
    assert ingest_outcome(ingest_csv, text, grid) == ingest_outcome(per_line, text, grid)


# readings export_csv writes as `0.0` or a plain decimal, as it writes
# synth's: N / 10**f, at most 15 digits, none where repr takes an exponent
plain_readings = st.builds(
    lambda n, f: n / 10**f, st.integers(0, 10**15 - 1), st.integers(0, 15)
).filter(lambda x: x <= MAX_POWER_W and read_exactly(repr(x).encode()))


@PROPERTY
@given(canonical_series(elements=plain_readings))
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
    "two BOMs": lambda text: "\ufeff\ufeff" + text,
    "BOM before the last row": lambda text: insert_char(text, -2, 0, "\ufeff"),
    "space before the first row": lambda text: text.replace("\n", "\n ", 1),
    "tab after the last value": lambda text: text[:-1] + "\t\n",
    "space for the T of the last row": lambda text: replace_char(text, -2, 10, " "),
    "no comma in row 1, two in row 2": move_comma,
}
# A byte at or below the space before the last row's value and after the
# first row's: blank padding the per-line parser strips (only an LF ends
# a line, so a CR, FF or separator stays in its row), or a NUL that
# `float` rejects.
BLANKS = {"space": " ", "tab": "\t", "VT": "\x0b", "FF": "\x0c", "FS": "\x1c", "GS": "\x1d",
          "RS": "\x1e", "CR": "\r", "NUL": "\x00"}
for name, char in BLANKS.items():
    LINE_EDITS[f"{name} before the last value"] = (
        lambda text, char=char: insert_char(text, -2, len("YYYY-MM-DDTHH:MM:SS,"), char))
    LINE_EDITS[f"{name} after the first value"] = (
        lambda text, char=char: insert_char(text, 1, None, char))
# One byte of the last row's `YYYY-MM-DDTHH:MM:SS,` prefix changed.
LINE_EDITS.update({
    f"next byte in prefix column {column}":
        lambda text, column=column: replace_char(text, -2, column)
    for column in range(20)
})


@pytest.mark.parametrize("edit", LINE_EDITS)
@pytest.mark.parametrize("interval", [900, 3600, 86400])
@pytest.mark.parametrize("start", [Date.min, Date(2015, 2, 15), Date.max - timedelta(days=2)])
def test_line_edit_ingests_as_per_line_parser(edit, interval, start):
    grid = SamplingGrid(sample_interval_seconds=interval)
    series = SolarSeries(grid, np.arange(3.0 * grid.samples_per_day).reshape(3, -1), start)
    text = LINE_EDITS[edit](exported(series))
    assert ingest_outcome(ingest_csv, text, grid) == ingest_outcome(per_line, text, grid)


@pytest.mark.parametrize("value", NAMED_VALUES)
@pytest.mark.parametrize("line", [1, 2, 24, -2])
def test_named_value_ingests_as_per_line_parser(value, line):
    grid = SamplingGrid(sample_interval_seconds=3600)
    series = SolarSeries(grid, np.arange(48.0).reshape(2, 24), Date(2015, 2, 15))
    text = replace_value(exported(series), line, value)
    assert ingest_outcome(ingest_csv, text, grid) == ingest_outcome(per_line, text, grid)


# fields of the block grammar: printable ASCII, no space, maybe empty
grammar_fields = st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E), max_size=8)


@st.composite
def grammar_texts(draw):
    """Lines of 1-4 fields each, the same count on every line."""
    per_line = draw(st.integers(1, 4))
    line = st.lists(grammar_fields, min_size=per_line, max_size=per_line)
    return per_line, draw(st.lists(line, min_size=1, max_size=6))


@PROPERTY
@given(grammar_texts(), st.data())
def test_fields_slice_back_and_any_other_blank_byte_gives_none(case, data):
    per_line, lines = case
    text = "".join(" ".join(line) + "\n" for line in lines)
    buffer, starts, lengths = _fields(text, per_line)
    sliced = [buffer[start : start + length].tobytes().decode()
              for start, length in zip(starts, lengths)]
    assert sliced == [field for line in lines for field in line]
    position = data.draw(st.integers(0, len(text)))
    blank = data.draw(st.sampled_from([chr(code) for code in range(0x21)]))
    edited = text[:position] + blank + text[position:]
    # an LF splits a one-field line into two; any other edit breaks a line
    assert (_fields(edited, per_line) is not None) == (blank == "\n" and per_line == 1)


# Tokens `_decimals` must read as `float` does or reject: zero in several
# spellings, forms only Python's `float` accepts, blank padding, the
# extremes, non-finite and empty; then the bounds of the exact digit
# path: 15 digits against 2**53 + 1, the smallest 15-digit fraction, a
# dot at either end or alone, leading and trailing zeros, two dots.
DECIMAL_TOKENS = [b"0", b"0.0", b"0.00", b"-0.0", b"1_0", b" 1.0", b"1.0 ", b"inf", b"nan",
                  b"4.9e-324", b"1e308", b"",
                  b"999999999999999", b"9007199254740993", b"0.000000000000001",
                  b"5.", b".5", b".", b"00012.50", b"1.2.3"]


@st.composite
def plain_tokens(draw):
    """0-18 ASCII digits, leading zeros among them, with one `.` anywhere
    or none: `_decimals` reads those of 1-15 digits."""
    token = draw(st.text("0123456789", max_size=18))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(token)))
        token = token[:at] + "." + token[at:]
    return token.encode()


PLAIN = re.compile(rb"[0-9]*\.?[0-9]*")


def read_exactly(token):
    """Whether `_decimals` reads `token`: a plain token, `0.0` among them."""
    return PLAIN.fullmatch(token) is not None and 1 <= len(token) - token.count(b".") <= 15


# tokens of 0-32 bytes, mostly ones `float` rejects
wild_tokens = st.one_of(
    st.binary(max_size=32),
    st.text("0123456789.eE+-_ infa\x00\t", max_size=32).map(str.encode),
)


@st.composite
def decimal_buffers(draw):
    """Tokens laid out in one buffer, each after a separator byte or
    none, the last ending at the buffer's last byte; and their spans. In
    about half the buffers every token is one `_decimals` reads, unless
    a wild token joins them."""
    read = st.one_of(st.just(b"0.0"), plain_tokens().filter(read_exactly))
    spelled = st.one_of(st.sampled_from(DECIMAL_TOKENS),
                        st.floats().map(lambda x: repr(x).encode()), plain_tokens())
    tokens = draw(st.lists(draw(st.sampled_from([read, spelled])), min_size=1, max_size=12))
    if draw(st.booleans()):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(wild_tokens))
    data, spans = b"", []
    for token in tokens:
        data += draw(st.sampled_from([b"", b" ", b"\n", b"\x00", b"9"]))
        spans.append((len(data), len(token)))
        data += token
    return data, tokens, spans


def check_decimals(data, tokens, spans):
    """`_decimals` of the `spans` of `data`, the (start, length) of each
    of `tokens`, is bit-equal to `float` of each token when every token
    is `0.0` or plain, and raises ValueError otherwise, even where
    `float` reads every token."""
    buffer = np.frombuffer(data, np.uint8)
    starts, lengths = np.array(spans, dtype=int).reshape(-1, 2).T
    if not all(map(read_exactly, tokens)):
        with pytest.raises(ValueError):
            _decimals(buffer, starts, lengths)
        return
    want = np.array([float(token) for token in tokens])
    assert _decimals(buffer, starts, lengths).tobytes() == want.tobytes()


@PROPERTY
@given(decimal_buffers())
def test_decimals_bit_equal_to_float_or_raise_where_it_raises(case):
    check_decimals(*case)


EDGE_TOKENS = DECIMAL_TOKENS + [b"1.0\x00", b"\x001", b"1\x005", b"0.\x00"]
# 17 digits, which `_decimals` rejects, and 15 digits in 16 bytes, which it reads
WIDE_TOKENS = [b"1.2345678901234567", b"1234567890.12345"]


@pytest.mark.parametrize("wide", WIDE_TOKENS)
@pytest.mark.parametrize("token", EDGE_TOKENS)
def test_decimals_of_the_last_token_after_a_wider_one(token, wide):
    check_decimals(wide + b" " + token, [wide, token], [(0, len(wide)), (len(wide) + 1, len(token))])


@pytest.mark.parametrize("wide", WIDE_TOKENS)
@pytest.mark.parametrize("token", EDGE_TOKENS)
def test_decimals_of_the_first_token_before_a_wider_one(token, wide):
    # the first token ends within the wider token's width of the start, so
    # the digit pass reads it from the first window and shifts it home
    check_decimals(token + b" " + wide, [token, wide], [(0, len(token)), (len(token) + 1, len(wide))])


@pytest.fixture(scope="module")
def default_files():
    """The default seed's year CSV, the k-NN model file `train` fits on
    it, and the default 50-day CSV."""
    year = generate(SynthConfig(), 365).series
    train = split_chronological(year, (0.6, 0.2, 0.2)).train
    return {
        "year csv": exported(year),
        "year knn model": rendered(knn.fit(train, knn.KnnConfig())),
        "50-day csv": exported(generate(SynthConfig(), 50).series),
    }


@pytest.mark.parametrize("name", ["year csv", "year knn model", "50-day csv"])
def test_every_value_of_the_default_files_is_read_exactly(default_files, name):
    # the benchmark reads these files: a slide to the per-line readers for
    # their values fails here, not only in a timed run
    text = default_files[name]
    if name.endswith("csv"):
        series = _ingest_canonical(text, SamplingGrid())
        assert series is not None
        reference = _ingest_lines(text, SamplingGrid())
        assert series.power.tobytes() == reference.power.tobytes()
    else:
        assert takes_day_block(text)
        assert load_outcome(text) == per_line_outcome(text)


def with_zeros(cells, signs=()):
    """Two days of 24 positive readings with +0.0 at the flat positions
    `cells` and -0.0 at `signs`."""
    power = np.arange(1.0, 49.0)
    power[list(cells)] = 0.0
    power[list(signs)] = -0.0
    return power.reshape(2, 24)


# Canonical files whose values export_csv writes as "0.0" in various
# places, the rows the whole-file reader fills in without `float`.
ZERO_LAYOUTS = {
    "every value 0.0": np.zeros((2, 24)),
    "only the first row 0.0": with_zeros([0]),
    "only the last row 0.0": with_zeros([47]),
    "no 0.0 at all": with_zeros([]),
    "-0.0 next to 0.0 rows": with_zeros([0, 2, 3, 46], signs=[1, 4, 47]),
}


@pytest.mark.parametrize("layout", ZERO_LAYOUTS)
def test_zero_rows_ingest_bit_equal_to_per_line_parser(layout):
    grid = SamplingGrid(sample_interval_seconds=3600)
    series = SolarSeries(grid, ZERO_LAYOUTS[layout], Date(2015, 2, 15))
    text = exported(series)
    # -0.0 is not plain: a file that holds it goes to the per-line parser
    assert (_ingest_canonical(text, grid) is None) == ("-0.0" in text)
    assert ingest_csv(text, grid).power.tobytes() == series.power.tobytes()  # the sign of zero too
    assert ingest_outcome(ingest_csv, text, grid) == ingest_outcome(per_line, text, grid)


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
    series = draw(solar_series(min_days=depth + neighbors + 1, max_days=12, elements=readings))
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


@st.composite
def tied_distances(draw):
    """A (rows, pairs) distance array full of ties, and a count of 1 to
    pairs + 2: small integers, inf and NaN, with some rows all one value."""
    rows = draw(st.integers(min_value=1, max_value=6))
    pairs = draw(st.integers(min_value=1, max_value=12))
    values = st.sampled_from([0.0, 1.0, 2.0, 3.0, math.inf, math.nan])
    distances = draw(arrays(float, (rows, pairs), elements=values))
    for row in draw(st.sets(st.integers(0, rows - 1))):
        distances[row] = draw(values)
    return distances, draw(st.integers(min_value=1, max_value=pairs + 2))


@PROPERTY
@given(tied_distances())
def test_rank_nearest_equals_stable_argsort(case):
    distances, count = case
    want = np.argsort(distances, axis=1, kind="stable")[:, :count]
    got = knn.rank_nearest(distances, count)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def tune_cells_reference(split, depths, neighbor_counts):
    """Per-cell tuning: fit each (D, k) model on the train split and
    score `predict_day_reference`, which ranks by a full stable argsort,
    on the tune days."""
    full = split.full_series()
    cells = {}
    for depth in depths:
        for neighbors in neighbor_counts:
            try:
                model = knn.fit(split.train, knn.KnnConfig(depth, neighbors))
            except InsufficientTrainingDays:
                cells[depth, neighbors] = None
                continue
            forecasts = [
                predict_day_reference(model, day_context(full, day.day_index, depth))
                for day in split.tune.days
            ]
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
    start = Date(2015, 2, 15) + timedelta(days=draw(st.integers(0, 1000)))
    return SolarSeries(grid, power, start)


@st.composite
def forecast_cases(draw):
    """A fitted or pair-built model, its series, and days to forecast:
    unsorted, with repeats, up to the day after the last one, or none."""
    depth = draw(st.integers(min_value=1, max_value=4))
    neighbors = draw(st.integers(min_value=2, max_value=4))
    series = draw(series_of_kinds(depth + neighbors + 1, 16))
    model = knn.fit(series, knn.KnnConfig(depth, neighbors))
    if draw(st.booleans()):
        # the same pairs in another order, built as pairs: no day matrix
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


@st.composite
def saved_models(draw):
    """A `knn_models` model or an `nn.build` model."""
    if draw(st.booleans()):
        return draw(knn_models())
    config = nn.NnConfig(hidden_neurons=draw(st.integers(1, 8)))
    return nn.build(config, draw(st.integers(0, 2**64 - 1)),
                    draw(st.integers(1, 96)), draw(model_scales))


def model_arrays(model):
    if isinstance(model, nn.NnModel):
        return (model.hidden_weights, model.hidden_biases, model.output_weights,
                np.float64(model.output_bias), np.float64(model.scale_max))
    return model.contexts, model.targets, model.days


@PROPERTY
@given(saved_models())
def test_model_file_reloads_to_its_bytes_arrays_and_version(model):
    text = persistence.render_model(model)
    loaded = persistence.load_model(text)
    assert persistence.render_model(loaded) == text
    assert loaded.config == model.config
    for saved, restored in zip(model_arrays(model), model_arrays(loaded)):
        assert saved.shape == restored.shape and saved.tobytes() == restored.tobytes()
    is_knn = isinstance(model, knn.KnnModel)
    assert text.startswith("htm-model 2\n") == is_knn
    if is_knn:
        assert all(np.shares_memory(each.days, pairs)
                   for each in (model, loaded) for pairs in (each.contexts, each.targets))


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


def reference_winner(cells):
    """The cell with the smallest RMSE, the smaller depth and then fewer
    neighbors on an exact tie; (None, None) when no cell scored."""
    scored = [key for key, v in cells.items() if v is not None]
    return min(scored, key=lambda key: (cells[key], key), default=(None, None))


def reference_grids(cells, depths, neighbor_counts):
    """A `TuneGrid` of each candidate's best reference cell, as
    `tune_knn` builds its two tables, each naming its coordinate of the
    winning cell as its best."""
    best = reference_winner(cells)
    return tuple(
        evaluation.TuneGrid(axis, candidates, [
            min((v for key, v in cells.items() if key[pick] == c and v is not None), default=None)
            for c in candidates
        ], best[pick])
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
        # no cell can be scored, or a cell scores a non-finite RMSE
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            reference_grids(want, depths, neighbor_counts)
        return
    # the tuner and the forecaster share one distance rule: equal bits
    assert [((d, k), v) for d, k, v in result.cell_rmse] == list(want.items())
    assert (result.depth_grid, result.neighbors_grid) == reference_grids(
        want, depths, neighbor_counts
    )
    assert (result.depth_grid.best, result.neighbors_grid.best) == reference_winner(want)


MODEL_FILES = (
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


@PROPERTY
@given(mutated_model_files())
def test_mutated_model_file_loads_as_by_the_per_line_reader(text):
    assert load_outcome(text) == per_line_outcome(text)


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
