"""Fuzzed command lines: every outcome of `cli.main` is a documented exit code.

Each example runs one of `synth` (at most 20 days), `ingest`, `tune
--knn-only`, `simulate`, `evaluate`, `train` or `tune --nn-only` (one LM
restart of 1-3 iterations per network) in-process, with fuzzed flags,
flag values, config files, data files and model files. The run must end
in exit code 0, 2, 3, 4 or 5; argparse's own usage errors count as 2. No
exception may escape, and every model file `train` writes must load. A
successful `tune` on a drawn data set and split must write a tuned config
whose values are the `best` ones it printed, and `tune --knn-only` a full
grid report. A data set of readings anywhere in the accepted power range
must tune, train and evaluate with exit code 0 and print only finite
numbers. Settings at the boundaries of the run's rules get the same
outcome from all six commands: one and the same error line, or each
past its settings. Examples are derandomized, so a run is reproducible;
widen max_examples locally to search further.
"""

import contextlib
import csv
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from conftest import make_series, printed_best, rendered, replace_payload_line  # noqa: E402
from twotier import cli, evaluation, knn, nn, persistence  # noqa: E402
from twotier.config import RunConfig, parse_config, render_config  # noqa: E402
from twotier.synth import SynthConfig, generate  # noqa: E402
from twotier.timeseries import MAX_POWER_W, export_csv, split_chronological  # noqa: E402

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)
EXIT_CODES = {0, 2, 3, 4, 5}
DATA_DIR = Path(__file__).parent / "data"
DAYS = 20

# Hypothesis leans towards the first choice and small values, so each
# strategy lists the usual case first and draws an odd case rarely.
rarely = st.sampled_from([False] * 4 + [True])

# Values a parser or a check could mishandle: signs, zero, non-finite,
# huge, dates at the calendar's ends and non-numeric text.
VALUES = ["0", "1", "-1", "2", "3", "0.5", "1e-3", "1e308", "nan", "inf", "-inf", "",
          "x", "2015-03-01", "9999-12-31", "0001-01-01"]
# synth's work grows with samples per day: keep intervals coarse or invalid.
INTERVALS = ["900", "1800", "3600", "86400", "0", "-900", "7", "nan", "x"]
DAYS_TO_SIMULATE = ["2015-03-01", "2015-02-15", "2015-02-16", "2015-03-06", "2015-03-07",
                    "1999-01-01", "9999-12-31", "bad"]
# Every config key and its default value as a config file writes it.
DEFAULTS = dict(line.split(" = ", 1) for line in render_config(RunConfig()).splitlines())


def valid_files():
    """A valid 20-day data file's text and k-NN and NN model files fit
    to it; the NN is untrained, which the file format allows."""
    series = generate(SynthConfig(), DAYS).series
    data = io.StringIO()
    export_csv(series, data)
    train = split_chronological(series, (0.6, 0.2, 0.2)).train
    return {
        "data": data.getvalue(),
        "knn": rendered(knn.fit(train, knn.KnnConfig())),
        "nn": rendered(nn.build(nn.NnConfig(), seed=1, scale_max=train.max_power())),
        "golden-knn": (DATA_DIR / "golden-knn.htm-model").read_text(encoding="utf-8"),
    }


# Module-level, not strategy arguments: hypothesis warns about the repr
# of large arguments, and the suite turns warnings into errors.
VALID = valid_files()


def mutated_lines(text, draw):
    """text with one line replaced, deleted or duplicated."""
    lines = text.splitlines()
    i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
    edit = draw(st.sampled_from(["replace", "delete", "duplicate"]))
    if edit == "replace":
        lines[i] = draw(st.one_of(
            st.sampled_from(VALUES),
            st.text(st.characters(codec="utf-8"), max_size=12),
            st.just(lines[i]).map(lambda line: line.replace(",", ",-")),
        ))
    elif edit == "delete":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


@st.composite
def file_contents(draw, name):
    """VALID[name], its first lines, a one-line edit of it, or arbitrary
    text or bytes."""
    valid = VALID[name]
    kind = draw(st.sampled_from(["valid", "valid", "head", "edited", "text", "bytes"]))
    if kind == "valid":
        return valid
    if kind == "head":  # the first line and then whole days of data, or lines
        step = 96 if name == "data" else 1
        lines = valid.splitlines(keepends=True)
        count = draw(st.integers(min_value=0, max_value=(len(lines) - 1) // step))
        return "".join(lines[: 1 + count * step])
    if kind == "edited":
        return mutated_lines(valid, draw)
    if kind == "text":
        return draw(st.text(max_size=40))
    return draw(st.binary(max_size=40))


@st.composite
def model_files(draw):
    """A (k-NN text, NN text) pair: fitted, golden, missing or one payload
    line edited with the checksum recomputed."""

    def one(name):
        valid = VALID[name]
        kind = draw(st.sampled_from(["valid"] * 3 + ["missing", "edited", "arbitrary"]))
        if kind == "valid":
            return valid
        if kind == "missing":
            return None
        if kind == "arbitrary":
            return draw(file_contents(name))
        old = draw(st.sampled_from(valid.splitlines()[3:]))
        new = mutated_lines(old, draw).rstrip("\n")
        hypothesis.assume(new != old and "\n" not in new)
        return replace_payload_line(valid, old, new)

    knn_text = VALID["golden-knn"] if draw(rarely) else one("knn")
    return knn_text, one("nn")


def setting_values(key):
    """Text for a config key's value: its default or one from the pool."""
    if key == "synth_days":  # synth's work grows with the day count
        return st.sampled_from([str(DAYS), "3", "1", "0", "-1", "x"])
    pool = INTERVALS if key == "sample_interval_seconds" else VALUES
    return st.one_of(st.just(DEFAULTS[key]), st.sampled_from(pool))


@st.composite
def overrides(draw):
    """Config flags with fuzzed values, and maybe a stray argument."""
    argv = []
    for key in draw(st.lists(st.sampled_from(list(DEFAULTS)), max_size=2)):
        argv += ["--" + key.replace("_", "-"), draw(setting_values(key))]
    if draw(rarely):
        argv.append(draw(st.sampled_from(["--bogus", "x", "--help", "--data"])))
    return argv


@st.composite
def config_files(draw):
    """A `key = value` file, or None for no --config flag."""
    if not draw(st.booleans()):
        return None
    lines = [
        f"{key} = {draw(setting_values(key))}"
        for key in draw(st.lists(st.sampled_from(list(DEFAULTS)), max_size=2))
    ]
    if draw(rarely):
        lines.append(draw(st.one_of(st.sampled_from(["unknown_key = 1", "= 1", "seed"]),
                                    st.text(max_size=12))))
    return "\n".join(lines) + "\n"


@st.composite
def invocations(draw):
    """(argv, files): the command line, run in the example's directory,
    and the files to write there first, keyed by relative path."""
    command = draw(st.sampled_from(["synth", "ingest", "tune", "simulate", "evaluate"]))
    files = {}
    argv = [command]
    if command == "synth":
        argv += ["--days", str(draw(st.integers(min_value=-1, max_value=DAYS)))]
        out = draw(st.sampled_from([None, "out.csv", "missing/out.csv", "."]))
        if out is not None:
            argv += ["--out", out]
    else:
        data = draw(st.sampled_from(["data.csv"] * 4 + ["missing.csv", "."]))
        if data == "data.csv":
            files["data.csv"] = draw(file_contents("data"))
        argv += ["--data", data]
    if command == "ingest" and draw(st.booleans()):
        argv += ["--out", draw(st.sampled_from(["copy.csv", "missing/copy.csv"]))]
    if command == "tune":
        argv += ["--knn-only", "--out", draw(st.sampled_from(["t.cfg", "missing/t.cfg"]))]
        if draw(st.booleans()):
            argv += ["--report", "grid.csv"]
        if draw(rarely):
            argv.append("--nn-only")
    if command in ("simulate", "evaluate"):
        knn_text, nn_text = draw(model_files())
        for name, text in (("knn", knn_text), ("nn", nn_text)):
            if text is not None:
                files[f"models/{name}{persistence.MODEL_SUFFIX}"] = text
        argv += ["--models", "models"]
    if command == "simulate":
        argv += ["--day", draw(st.sampled_from(DAYS_TO_SIMULATE)), "--out", "traces"]
    if command == "evaluate":
        argv += ["--out", draw(st.sampled_from(["report.csv", "missing/report.csv"]))]
    config = draw(config_files())
    if config is not None:
        files["run.cfg"] = config
        argv += ["--config", "run.cfg"]
    argv += draw(overrides())
    return argv, files


def run_in(directory: Path, argv, files) -> tuple[int, str]:
    """Write files into directory, then run argv there; the exit code and
    stdout."""
    for name, content in files.items():
        path = directory / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8", newline="\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(directory), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exit_:  # argparse's usage errors and --help
            code = exit_.code
    return code, out.getvalue()


@FUZZ
@given(invocations())
def test_every_outcome_is_a_documented_exit_code(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as directory:
        code, _ = run_in(Path(directory), argv, files)
    assert code in EXIT_CODES, (argv, code)


@st.composite
def train_invocations(draw):
    """(argv, files) for `train` on the 20-day data file or a fuzzed one.
    The LM budget flags come after every fuzzed flag, so each example
    trains one restart of at most three iterations."""
    files = {}
    data = draw(st.sampled_from(["data.csv"] * 4 + ["missing.csv"]))
    if data == "data.csv":
        files["data.csv"] = VALID["data"] if draw(st.booleans()) else draw(file_contents("data"))
    argv = ["train", "--data", data, "--out", draw(st.sampled_from(["models", "a/b", "data.csv"]))]
    argv += draw(st.sampled_from([[]] * 3 + [["--knn-only"], ["--nn-only"], ["--knn-only", "--nn-only"]]))
    config = draw(config_files())
    if config is not None:
        files["run.cfg"] = config
        argv += ["--config", "run.cfg"]
    if draw(st.booleans()):
        argv += draw(overrides())
    argv += ["--nn-restarts", "1", "--nn-max-iterations", str(draw(st.integers(1, 3)))]
    return argv, files


@settings(FUZZ, max_examples=100)
@given(train_invocations())
def test_train_outcome_is_a_documented_exit_code_and_its_models_load(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as directory:
        code, _ = run_in(Path(directory), argv, files)
        for path in Path(directory).rglob(f"*{persistence.MODEL_SUFFIX}"):
            persistence.load_model(path.read_bytes().decode("utf-8"))
    assert code in EXIT_CODES, (argv, code)


TUNE_DAYS = 60
# train, tune and test ratios: valid ones (a small set may still leave a
# partition empty), then one that always does and ones `split_chronological`
# rejects
VALID_SPLITS = [("0.6", "0.2", "0.2"), ("0.5", "0.25", "0.25"), ("0.8", "0.1", "0.1"),
                ("0.1", "0.1", "0.8")]
SPLITS = VALID_SPLITS + [("1", "0", "0"), ("0.6", "0.2", "0.3"), ("-0.2", "0.6", "0.6"),
                         ("nan", "0.5", "0.5")]
SYNTH_POWER = generate(SynthConfig(), TUNE_DAYS).series.power


@st.composite
def tune_data(draw):
    """A data file of 1-60 days: synthetic days, one day repeated (some
    k-NN cells forecast it exactly), all-dark days or uniform noise."""
    days = TUNE_DAYS - draw(st.integers(min_value=0, max_value=TUNE_DAYS - 1))
    kind = draw(st.sampled_from(["synth", "synth", "repeated", "dark", "noise"]))
    if kind == "synth":
        rows = SYNTH_POWER[:days]
    elif kind == "repeated":
        rows = np.tile(SYNTH_POWER[draw(st.integers(0, TUNE_DAYS - 1))], (days, 1))
    elif kind == "dark":
        rows = np.zeros((days, 96))
    else:
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
        rows = rng.uniform(0.0, 35000.0, (days, 96)).round(1)
    sink = io.StringIO()
    export_csv(make_series(rows), sink)
    return sink.getvalue()


@st.composite
def split_ratios(draw):
    """Three split ratio flag values: a listed triple, or a drawn train and
    tune share with test taking the rest."""
    if not draw(rarely):
        return draw(st.sampled_from(SPLITS))
    train = draw(st.floats(min_value=0.0, max_value=1.0))
    tune = draw(st.floats(min_value=0.0, max_value=1.0 - train))
    return repr(train), repr(tune), repr(1.0 - train - tune)


def split_flags(ratios):
    """The three split ratio flags with their values."""
    pairs = zip(("--split-train", "--split-tune", "--split-test"), ratios)
    return [part for pair in pairs for part in pair]


def grid_rows(report_text):
    """The report CSV's rows, split into one list per grid at each header."""
    grids = []
    for row in csv.reader(io.StringIO(report_text)):
        if row[1:] == ["rmse_w", "normalized"]:
            grids.append([row[0]])
        else:
            grids[-1].append(row[0])
    return grids


@settings(FUZZ, max_examples=100)
@given(tune_data(), split_ratios())
def test_knn_tune_writes_candidate_config_and_full_report(data, ratios):
    argv = ["tune", "--knn-only", "--data", "data.csv", "--out", "tuned.cfg",
            "--report", "grids.csv", *split_flags(ratios)]
    with tempfile.TemporaryDirectory() as directory:
        directory = Path(directory)
        code, out = run_in(directory, argv, {"data.csv": data})
        assert code in EXIT_CODES, (argv, code)
        if ratios in VALID_SPLITS:
            assert code in (0, 4), (argv, code)
        if code != 0:
            return
        tuned = parse_config((directory / "tuned.cfg").read_text(encoding="utf-8"))
        report = (directory / "grids.csv").read_text(encoding="utf-8")
    assert tuned.knn_depth_days in evaluation.DEFAULT_DEPTH_CANDIDATES
    assert tuned.knn_neighbors in evaluation.DEFAULT_NEIGHBOR_CANDIDATES
    assert printed_best(out) == {"depth_days": tuned.knn_depth_days,
                                 "neighbors": tuned.knn_neighbors}
    assert grid_rows(report) == [
        ["depth_days", *map(str, evaluation.DEFAULT_DEPTH_CANDIDATES)],
        ["neighbors", *map(str, evaluation.DEFAULT_NEIGHBOR_CANDIDATES)],
    ]


@st.composite
def nn_tune_invocations(draw):
    """(argv, files) for `tune --nn-only` on a drawn data set and split,
    with fuzzed flags and config. The LM budget flags come last, so each
    hidden size trains one restart of at most three iterations."""
    files = {"data.csv": draw(tune_data())}
    argv = ["tune", "--nn-only", "--data", "data.csv", "--out", "tuned.cfg",
            *split_flags(draw(split_ratios()))]
    config = draw(config_files())
    if config is not None:
        files["run.cfg"] = config
        argv += ["--config", "run.cfg"]
    if draw(st.booleans()):
        argv += draw(overrides())
    argv += ["--nn-restarts", "1", "--nn-max-iterations", str(draw(st.integers(1, 3)))]
    return argv, files


@settings(FUZZ, max_examples=40)
@given(nn_tune_invocations())
def test_nn_tune_outcome_is_a_documented_exit_code_and_writes_its_winner(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as directory:
        directory = Path(directory)
        code, out = run_in(directory, argv, files)
        assert code in EXIT_CODES, (argv, code)
        if code != 0 or "--help" in argv:
            return
        tuned = parse_config((directory / "tuned.cfg").read_text(encoding="utf-8"))
    assert tuned.nn_hidden_neurons in evaluation.DEFAULT_HIDDEN_CANDIDATES
    assert printed_best(out) == {"hidden_neurons": tuned.nn_hidden_neurons}


@st.composite
def full_range_data(draw):
    """A 20-day, 3600 s data file of readings in [0, MAX_POWER_W]: noise
    under a drawn peak, with a few drawn readings (the bounds among them)
    in drawn slots."""
    peak = draw(st.one_of(st.sampled_from([MAX_POWER_W, 1e6, 1.0, 0.0]),
                          st.floats(min_value=0.0, max_value=MAX_POWER_W)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    rows = rng.uniform(0.0, peak, (DAYS, 24))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        slot = draw(st.integers(min_value=0, max_value=rows.size - 1))
        rows.flat[slot] = draw(st.floats(min_value=0.0, max_value=MAX_POWER_W))
    sink = io.StringIO()
    export_csv(make_series(rows, interval_seconds=3600), sink)
    return sink.getvalue()


def printed_numbers(out):
    """Every whitespace-separated token of out that reads as a float, a
    trailing % dropped."""
    numbers = []
    for token in out.split():
        try:
            numbers.append(float(token.removesuffix("%")))
        except ValueError:
            pass
    return numbers


@settings(FUZZ, max_examples=25)
@given(full_range_data())
def test_every_accepted_power_range_tunes_trains_and_evaluates(data):
    """Data anywhere in the accepted range runs the whole chain: each step
    exits 0 and prints only finite numbers. The suite turns a numpy
    warning, such as an overflow, into an error."""
    grid = ["--sample-interval-seconds", "3600",
            "--synth-sunrise-sample", "6", "--synth-sunset-sample", "18"]
    steps = [
        ["tune", "--knn-only", "--data", "data.csv", "--out", "tuned.cfg"],
        ["train", "--data", "data.csv", "--out", "models",
         "--nn-restarts", "1", "--nn-max-iterations", "3"],
        ["evaluate", "--data", "data.csv", "--models", "models", "--out", "report.csv"],
    ]
    with tempfile.TemporaryDirectory() as directory:
        for argv in steps:
            code, out = run_in(Path(directory), argv + grid, {"data.csv": data})
            assert code == 0, (argv, code)
            assert all(np.isfinite(printed_numbers(out))), (argv, out)
    assert "averaged RMSE" in out


# Values at and around the boundary of each rule `RunConfig.check` runs,
# and of one component setting.
BOUNDARY_VALUES = {
    "sample_interval_seconds": ["1800", "900"],
    "correction_window": ["0", "4", "5", "47", "48", "95", "96"],
    "correction_harmonics": ["-1", "0", "2"],
    "synth_sunset_sample": ["47", "48", "95", "96"],
    "synth_days": ["-1", "0", "1", "3"],
    "synth_start_date": ["9999-12-29", "9999-12-30"],
    "split_train": ["0.6000000009", "0.600000002", "-0.2", "nan"],
    "split_test": ["0.0", "-0.0", "0.199999998"],
    "knn_neighbors": ["1", "2"],
}


def six_commands(nowhere):
    """Each command, its data, models and outputs in the missing directory
    `nowhere`, so that an accepted setting exits 3 before any data is
    read (synth makes its few days, then cannot write them)."""
    data, models = f"{nowhere}/d.csv", f"{nowhere}/m"
    return [
        ["synth", "--out", data],
        ["ingest", "--data", data],
        ["tune", "--knn-only", "--data", data, "--out", f"{nowhere}/t.cfg"],
        ["train", "--data", data, "--out", models],
        ["simulate", "--models", models, "--data", data, "--day", "2015-03-01",
         "--out", f"{nowhere}/t"],
        ["evaluate", "--models", models, "--data", data, "--out", f"{nowhere}/r.csv"],
    ]


@st.composite
def boundary_flags(draw):
    """Two days to generate (synth's default is 50), then up to three
    keys set to boundary values."""
    flags = ["--synth-days", "2"]
    for key in draw(st.lists(st.sampled_from(list(BOUNDARY_VALUES)), max_size=3, unique=True)):
        flags += ["--" + key.replace("_", "-"), draw(st.sampled_from(BOUNDARY_VALUES[key]))]
    return flags


@settings(FUZZ, max_examples=40)
@given(boundary_flags())
@example(["--synth-days", "3", "--synth-start-date", "9999-12-30"])
@example(["--synth-days", "2", "--synth-start-date", "9999-12-30"])
@example(["--correction-window", "96"])
@example(["--synth-days", "2", "--sample-interval-seconds", "1800",
          "--synth-sunset-sample", "47", "--correction-window", "47"])
def test_every_command_rejects_the_same_settings(flags):
    """A setting that one command rejects, every command rejects with the
    same one error line; otherwise each gets past the settings and fails
    on its missing file."""
    outcomes = set()
    with tempfile.TemporaryDirectory() as directory:
        nowhere = Path(directory) / "missing"
        for argv in six_commands(nowhere):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                outcomes.add((cli.main(argv + flags), err.getvalue()))
        assert not nowhere.exists()
    codes = {code for code, _ in outcomes}
    if 2 in codes:
        assert len(outcomes) == 1, outcomes
        (_, line), = outcomes
        assert line.startswith("error: ") and line.count("\n") == 1
    else:
        assert codes == {3}, outcomes
