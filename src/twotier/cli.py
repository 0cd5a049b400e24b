"""Command-line pipeline driver.

Subcommands cover the full workflow: synth (make data), ingest (check
data), tune (grid search), train (fit and persist models), simulate
(replay one day with real-time correction), evaluate (score the test
split). Exit codes are stable for scripting: 0 success, 2 usage or
configuration problem, 3 I/O or unusable file, 4 not enough data,
5 unknown date.
"""

from __future__ import annotations

import argparse
import errno
import os
import stat
import sys
from datetime import date as Date, timedelta
from pathlib import Path

from . import correction, evaluation, knn, nn, persistence, synth
from .config import (
    KEY_TYPES, READERS, RunConfig, apply_overrides, parse_config, render_config
)
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
)
from .timeseries import export_csv, ingest_csv, read_text, split_chronological

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


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("config overrides")
    defaults = RunConfig()
    for key, kind in KEY_TYPES.items():
        group.add_argument(
            "--" + key.replace("_", "-"),
            dest=key,
            type=READERS[kind][0],
            default=None,
            metavar=kind.__name__.upper(),
            help=f"default {getattr(defaults, key)}",
        )


def _run_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if args.config is not None:
        config = parse_config(_read_utf8(Path(args.config), ConfigError), config)
    overrides = {key: getattr(args, key) for key in KEY_TYPES}
    return apply_overrides(config, overrides)


def _read_utf8(path: Path, error: type[TwoTierError]) -> str:
    """The text of a data, model or config file; bad bytes raise error."""
    return read_text(path.read_bytes(), error, str(path))


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
        raise GridMismatch(
            f"models in {models_dir} were trained at {models['knn'].samples_per_day} "
            f"(k-NN) and {models['nn'].samples_per_day} (NN) samples per day, but the "
            f"data has {expected} ({grid.sample_interval_seconds} s interval)"
        )
    return models


def _check_out_dir(out_dir: Path) -> None:
    """Raise what out_dir.mkdir(parents=True, exist_ok=True) raises when
    out_dir or one of its parents is a file, without creating anything."""
    try:
        mode = out_dir.stat().st_mode  # a file parent raises NotADirectoryError
    except FileNotFoundError:
        return  # mkdir creates it and any missing parents
    if not stat.S_ISDIR(mode):
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(out_dir))


def cmd_synth(args: argparse.Namespace) -> int:
    config = _run_config(args)
    result = synth.generate(config.synth(), config.synth_days, grid=config.grid())
    sunny = sum(1 for label in result.labels if label == synth.SUNNY)
    cloudy = len(result.labels) - sunny
    summary = (
        f"generated {result.series.num_days} days "
        f"({sunny} sunny, {cloudy} cloudy), seed {config.seed}"
    )
    if args.out is None:
        export_csv(result.series, sys.stdout)
        print(summary, file=sys.stderr)
        return EXIT_OK
    out = Path(args.out)
    if not out.name:  # ".", "" or "/" name a directory
        raise IsADirectoryError(f"--out {args.out!r} names no file")
    labels_path = out.with_suffix(".labels.csv")
    with open(out, "w", encoding="utf-8", newline="\n") as sink:
        export_csv(result.series, sink)
    with open(labels_path, "w", encoding="utf-8", newline="\n") as sink:
        synth.write_labels_csv(result, sink)
    print(summary)
    print(f"wrote {out} and {labels_path}")
    return EXIT_OK


def cmd_ingest(args: argparse.Namespace) -> int:
    config = _run_config(args)
    series = _read_series(args.data, config.grid())
    first = series.start
    last = series.start + timedelta(days=series.num_days - 1)
    print(
        f"{series.num_days} days from {first.isoformat()} to {last.isoformat()}, "
        f"{series.grid.samples_per_day} samples/day, "
        f"peak {series.max_power():.1f} W"
    )
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="\n") as sink:
            export_csv(series, sink)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_tune(args: argparse.Namespace) -> int:
    config = _run_config(args)
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
    tuned = apply_overrides(config, {key: grid.best for key, grid in grids.items()})
    for grid in grids.values():
        print(evaluation.render_grid(grid))
        print()
    with open(args.out, "w", encoding="utf-8", newline="\n") as sink:
        sink.write(render_config(tuned))
    print(f"wrote {args.out}")
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8", newline="\n") as sink:
            for grid in grids.values():
                evaluation.write_grid_csv(grid, sink)
        print(f"wrote {args.report}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    config = _run_config(args)
    if args.knn_only and args.nn_only:
        raise ConfigError("--knn-only and --nn-only exclude each other")
    series = _read_series(args.data, config.grid())
    split = _split(config, series)
    # every model is configured and fitted before anything is written, so
    # a usage error or a shortage leaves no directory and no file behind
    fitters = {}
    if not args.nn_only:
        fitters["knn"] = (knn.fit, config.knn())
    if not args.knn_only:
        fitters["nn"] = (nn.fit_day_ahead, config.nn())
    out_dir = Path(args.out)
    _check_out_dir(out_dir)
    models = {name: fit(split.train, settings) for name, (fit, settings) in fitters.items()}
    out_dir.mkdir(parents=True, exist_ok=True)
    written = [out_dir / f"{name}{persistence.MODEL_SUFFIX}" for name in models]
    for path, model in zip(written, models.values()):
        with open(path, "w", encoding="utf-8", newline="\n") as sink:
            persistence.save_model(model, sink)
    wrote = ", ".join(str(path) for path in written)
    print(f"trained on {split.train.num_days} days; wrote {wrote}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _run_config(args)
    window, harmonics = config.correction_params()
    series = _read_series(args.data, config.grid())
    models = _load_models(args.models, series.grid)
    try:
        target = series.day_by_date(args.day)
    except KeyError:
        raise UnknownDate(f"{args.day.isoformat()} is not in {args.data}") from None
    sims = evaluation.replay_days(series, [target.day_index], models, window, harmonics)
    report = evaluation.score_replay([args.day], sims)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for (label, local), gain in report.improvement_percent.items():
        path = out_dir / f"trace-{label}-{args.day.isoformat()}.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as sink:
            correction.write_trace_csv(sims[label].day(0), sink)
        print(
            f"{label}: global RMSE {report.averaged_rmse[label]:.1f} W, "
            f"corrected RMSE {report.averaged_rmse[local]:.1f} W, "
            f"improvement {evaluation.improvement_text(gain)}"
        )
        print(f"wrote {path}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _run_config(args)
    window, harmonics = config.correction_params()
    series = _read_series(args.data, config.grid())
    split = _split(config, series)
    models = _load_models(args.models, series.grid)
    report = evaluation.compare_methods(
        split.full_series(), split.test, *models.values(), window, harmonics
    )
    print(evaluation.render_report(report))
    with open(args.out, "w", encoding="utf-8", newline="\n") as sink:
        evaluation.write_report_csv(report, sink)
    print(f"wrote {args.out}")
    return EXIT_OK


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
    sub.add_argument("--days", dest="synth_days", type=int, help="number of days")
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
    sub.add_argument("--day", required=True, type=Date.fromisoformat, help="YYYY-MM-DD")
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
        return args.handler(args)
    except (OSError, ValueError, TwoTierError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
