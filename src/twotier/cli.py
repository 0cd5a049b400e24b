"""Command-line pipeline driver.

Subcommands cover the full workflow: synth (make data), ingest (check
data), tune (grid search), train (fit and persist models), simulate
(replay one day with real-time correction), evaluate (score the test
split). Exit codes are stable for scripting: 0 success, 2 usage or
configuration problem, 3 I/O or unusable file, 4 not enough data,
5 unknown date. `main` resolves and checks the run settings once
(`_run_config`) and hands them to the command. Each `cmd_*` returns its
stdout text and an ordered {path: write(sink)} of its output files;
`main` writes them (`_commit`) before it prints, so a failed write exits
3 with nothing on stdout and every regular output file as it was. Every
output is rendered in memory before any path is opened, and `train` fits
after making its directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import stat
import sys
from dataclasses import replace
from datetime import date as Date
from functools import partial
from pathlib import Path

from . import correction, evaluation, knn, nn, persistence, synth
from .config import KEY_TYPES, READERS, RunConfig, parse_config, render_config
from .errors import (
    ConfigError,
    EmptyInput,
    GridMismatch,
    InsufficientHistory,
    InsufficientTrainingDays,
    MalformedRow,
    TooFewDays,
    TwoTierError,
    Underdetermined,
    UnknownDate,
    quoted,
)
from .timeseries import export_csv, ingest_csv, split_chronological

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INSUFFICIENT = 4
EXIT_BAD_REFERENCE = 5

# An error's exit code is that of the first entry it is an instance of.
_EXIT_CODES = (
    ((ConfigError, ValueError), EXIT_USAGE),
    (UnknownDate, EXIT_BAD_REFERENCE),
    ((TooFewDays, InsufficientTrainingDays, InsufficientHistory, EmptyInput,
      Underdetermined), EXIT_INSUFFICIENT),
    ((OSError, TwoTierError), EXIT_IO),
)


def _flag_reader(read):
    """`read` as an argparse type: a value it rejects gives argparse's
    `invalid <name> value: ...` error, quoted as every file reader quotes."""
    def reader(text: str):
        try:
            return read(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {read.__name__} value: {quoted(text)}"
            ) from None
    return reader


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("config overrides")
    defaults = RunConfig()
    for key, kind in KEY_TYPES.items():
        group.add_argument(
            "--" + key.replace("_", "-"),
            dest=key,
            type=_flag_reader(READERS[kind][0]),
            default=None,
            metavar=kind.__name__.upper(),
            help=f"default {getattr(defaults, key)}",
        )


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The command's settings, which `main` resolves once and hands to it:
    the defaults, then the --config file, then each flag that was given
    (argparse leaves the others None), with every setting checked
    (`RunConfig.check`), so a rejected one fails before any data or model
    file is read."""
    config = RunConfig()
    if args.config is not None:
        config = parse_config(_read_utf8(Path(args.config), ConfigError))
    given = {key: value for key, value in vars(args).items()
             if key in KEY_TYPES and value is not None}
    config = replace(config, **given)
    config.check()
    return config


def _read_utf8(path: Path, error: type[TwoTierError]) -> str:
    """The text of a data, model or config file, exactly as stored (the
    reader of each format drops one leading byte-order mark); bytes that
    are not UTF-8 raise `error` naming the file."""
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: byte {exc.start} is invalid") from None


def _write_file(path, text: str, mode: str = "x") -> None:
    """Open `path` with `mode` and write `text` to it: UTF-8, "\n" line ends."""
    with open(path, mode, encoding="utf-8", newline="\n") as sink:
        sink.write(text)


def _commit(files: dict) -> None:
    """Write the {target: write} outputs in two phases. First make each
    directory target (a None write) and render every other output into
    memory through write(sink), in order; no output path is opened yet.
    Then write each text to a new file beside its target and move them all
    onto their targets in order. A target that exists and is not a regular
    file (a directory, symlink, FIFO or device) is opened and written in
    its turn instead, as `open(target, "w")` does. On failure remove every
    new file and directory; targets already moved keep their new bytes."""
    made, rendered, moves = [], {}, []
    try:
        for target, write in files.items():
            if write is None:
                made += reversed([d for d in (target, *target.parents) if not d.exists()])
                target.mkdir(parents=True, exist_ok=True)
            else:
                rendered[target] = io.StringIO()
                write(rendered[target])
        for target, sink in rendered.items():
            try:
                regular = stat.S_ISREG(os.lstat(target).st_mode)
            except FileNotFoundError:
                regular = bool(os.path.basename(target))  # "d/" names a directory
            if not regular:
                _write_file(target, sink.getvalue(), "w")
                continue
            made.append(f"{target}.{os.urandom(4).hex()}.new")
            try:
                _write_file(made[-1], sink.getvalue())
            except OSError as exc:  # name the target where open() names the new file
                if exc.filename is not None:
                    exc.filename = os.fspath(target)
                raise
            moves.append((made[-1], target))
        for new, target in moves:
            os.replace(new, target)
    except BaseException:
        for path in reversed(made):
            with contextlib.suppress(OSError):
                os.rmdir(path) if os.path.isdir(path) else os.remove(path)
        raise


def _read_series(path: str, grid):
    return ingest_csv(_read_utf8(Path(path), MalformedRow), grid)


def _split(config: RunConfig, series):
    return split_chronological(series, (config.split_train, config.split_tune, config.split_test))


def _load_models(models_dir: str, grid) -> dict:
    """Each global tier's model of a directory, {label: model} in
    `evaluation.GLOBAL_TIERS` order, checked against the data grid. The
    file `<label>.htm-model` must hold a model of a class the tier's
    module defines."""
    models = {}
    for label, tier in evaluation.GLOBAL_TIERS.items():
        path = Path(models_dir) / f"{label}{persistence.MODEL_SUFFIX}"
        models[label] = persistence.load_model(_read_utf8(path, persistence.MalformedModelFile))
        if type(models[label]).__module__ != tier.__name__:
            raise persistence.MalformedModelFile(f"{path} does not contain a {label} model")
    expected = grid.samples_per_day
    if any(model.samples_per_day != expected for model in models.values()):
        trained = " and ".join(f"{model.samples_per_day} ({label})"
                               for label, model in models.items())
        raise GridMismatch(
            f"models in {models_dir} were trained at {trained} samples per day, "
            f"but the data has {expected} ({grid.sample_interval_seconds} s interval)"
        )
    return models


def _save_fitted(fit, sink) -> None:
    """Save the model fit() returns: a model is fitted when its file is rendered."""
    persistence.save_model(fit(), sink)


def cmd_synth(args: argparse.Namespace, config: RunConfig) -> tuple[str, dict]:
    result = synth.generate(config.synth(), config.synth_days, grid=config.grid())
    sunny = sum(1 for label in result.labels if label == synth.SUNNY)
    cloudy = len(result.labels) - sunny
    summary = (
        f"generated {result.series.num_days} days "
        f"({sunny} sunny, {cloudy} cloudy), seed {config.seed}"
    )
    if args.out is None:
        print(summary, file=sys.stderr)
        csv_text = io.StringIO()
        export_csv(result.series, csv_text)
        return csv_text.getvalue(), {}
    out = Path(args.out)
    if not out.name:  # ".", "" or "/" name a directory
        raise IsADirectoryError(f"--out {args.out!r} names no file")
    labels_path = out.with_suffix(".labels.csv")
    files = {out: partial(export_csv, result.series),
             labels_path: partial(synth.write_labels_csv, result)}
    return f"{summary}\nwrote {out} and {labels_path}\n", files


def cmd_ingest(args: argparse.Namespace, config: RunConfig) -> tuple[str, dict]:
    series = _read_series(args.data, config.grid())
    last = Date.fromordinal(series.last_index)
    text = (
        f"{series.num_days} days from {series.start.isoformat()} to {last.isoformat()}, "
        f"{series.grid.samples_per_day} samples/day, "
        f"peak {series.max_power():.1f} W\n"
    )
    if args.out is None:
        return text, {}
    return f"{text}wrote {args.out}\n", {args.out: partial(export_csv, series)}


def cmd_tune(args: argparse.Namespace, config: RunConfig) -> tuple[str, dict]:
    if args.knn_only and args.nn_only:
        raise ConfigError("--knn-only and --nn-only exclude each other")
    series = _read_series(args.data, config.grid())
    split = _split(config, series)
    grids = {}  # config key: the grid whose best is written to it
    if not args.nn_only:
        knn_result = evaluation.tune_knn(split)
        grids["knn_depth_days"] = knn_result.depth_grid
        grids["knn_neighbors"] = knn_result.neighbors_grid
    if not args.knn_only:
        grids["nn_hidden_neurons"] = evaluation.tune_nn(split, config=config.nn())
    tuned = replace(config, **{key: grid.best for key, grid in grids.items()})
    text = "".join(f"{evaluation.render_grid(grid)}\n\n" for grid in grids.values())
    text += f"wrote {args.out}\n"
    files = {args.out: lambda sink: sink.write(render_config(tuned))}
    if args.report is not None:  # the report wins a path it shares with --out
        def write_grids(sink):
            for grid in grids.values():
                evaluation.write_grid_csv(grid, sink)
        text += f"wrote {args.report}\n"
        files[args.report] = write_grids
    return text, files


def cmd_train(args: argparse.Namespace, config: RunConfig) -> tuple[str, dict]:
    if args.knn_only and args.nn_only:
        raise ConfigError("--knn-only and --nn-only exclude each other")
    series = _read_series(args.data, config.grid())
    split = _split(config, series)
    fitters = {}
    if not args.nn_only:
        fitters["knn"] = partial(knn.fit, split.train, config.knn())
    if not args.knn_only:
        fitters["nn"] = partial(nn.fit_day_ahead, split.train, config.nn())
    out_dir = Path(args.out)
    # `_commit` fits each model after making out_dir, so an unusable out_dir fails first
    files = {out_dir: None}
    for name, fit in fitters.items():
        files[out_dir / f"{name}{persistence.MODEL_SUFFIX}"] = partial(_save_fitted, fit)
    wrote = ", ".join(str(path) for path, write in files.items() if write)
    return f"trained on {split.train.num_days} days; wrote {wrote}\n", files


def cmd_simulate(args: argparse.Namespace, config: RunConfig) -> tuple[str, dict]:
    series = _read_series(args.data, config.grid())
    models = _load_models(args.models, series.grid)
    day = args.day.toordinal()
    if not series.first_index <= day <= series.last_index:
        raise UnknownDate(f"{args.day.isoformat()} is not in {args.data}")
    sims = evaluation.replay_days(series, [day], models,
                                  config.correction_window, config.correction_harmonics)
    report = evaluation.score_replay([args.day], sims)
    out_dir = Path(args.out)
    text, files = "", {out_dir: None}
    for (label, local), gain in report.improvement_percent.items():  # in `sims` order
        path = out_dir / f"trace-{label}-{args.day.isoformat()}.csv"
        files[path] = partial(correction.write_trace_csv, sims[label].day(0))
        text += (
            f"{label}: global RMSE {report.averaged_rmse[label]:.1f} W, "
            f"corrected RMSE {report.averaged_rmse[local]:.1f} W, "
            f"improvement {evaluation.improvement_text(gain)}\nwrote {path}\n"
        )
    return text, files


def cmd_evaluate(args: argparse.Namespace, config: RunConfig) -> tuple[str, dict]:
    series = _read_series(args.data, config.grid())
    split = _split(config, series)
    models = _load_models(args.models, series.grid)
    report = evaluation.compare_methods(split.series, split.test, *models.values(),
                                        config.correction_window, config.correction_harmonics)
    text = f"{evaluation.render_report(report)}\nwrote {args.out}\n"
    return text, {args.out: partial(evaluation.write_report_csv, report)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twotier",
        description="Two-tier solar generation forecasting pipeline.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    # every subcommand shares these actions instead of building its own
    config_flags = argparse.ArgumentParser(add_help=False)
    config_flags.add_argument("--config", default=None, help="key = value config file")
    _add_config_flags(config_flags)

    def subcommand(name, handler, help_text):
        sub = subparsers.add_parser(name, help=help_text, parents=[config_flags])
        sub.set_defaults(handler=handler)
        return sub

    sub = subcommand("synth", cmd_synth, "generate a synthetic data set")
    sub.add_argument("--days", dest="synth_days", type=_flag_reader(int), help="number of days")
    sub.add_argument("--out", default=None, help="CSV path (default: stdout)")

    sub = subcommand("ingest", cmd_ingest, "validate a data CSV and summarize it")
    sub.add_argument("--data", required=True, help="input CSV")
    sub.add_argument("--out", default=None, help="re-export normalized CSV here")

    sub = subcommand("tune", cmd_tune, "grid-search hyperparameters on the tune split")
    sub.add_argument("--data", required=True, help="input CSV")
    sub.add_argument("--out", default="tuned.cfg", help="tuned config file")
    sub.add_argument("--report", default=None, help="also write grids as CSV")
    sub.add_argument("--knn-only", action="store_true")
    sub.add_argument("--nn-only", action="store_true")

    sub = subcommand("train", cmd_train, "fit models on the train split and save them")
    sub.add_argument("--data", required=True, help="input CSV")
    sub.add_argument("--out", default="models", help="model directory")
    sub.add_argument("--knn-only", action="store_true")
    sub.add_argument("--nn-only", action="store_true")

    sub = subcommand("simulate", cmd_simulate, "replay one day with live correction")
    sub.add_argument("--models", required=True, help="model directory")
    sub.add_argument("--data", required=True, help="input CSV")
    sub.add_argument(
        "--day", required=True, type=_flag_reader(Date.fromisoformat), help="YYYY-MM-DD"
    )
    sub.add_argument("--out", default=".", help="trace output directory")

    sub = subcommand("evaluate", cmd_evaluate, "score all methods on the test split")
    sub.add_argument("--models", required=True, help="model directory")
    sub.add_argument("--data", required=True, help="input CSV")
    sub.add_argument("--out", default="report.csv", help="report CSV path")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        stdout, files = args.handler(args, _run_config(args))
        _commit(files)
        try:
            # a write per line: under python -u a closed pipe can drop a long write silently
            sys.stdout.writelines(stdout.splitlines(keepends=True))
            sys.stdout.flush()
        except OSError:
            if sys.stdout is sys.__stdout__:  # exit flushes what is left to nowhere
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
            raise
    except (OSError, ValueError, TwoTierError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
