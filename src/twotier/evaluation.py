"""Accuracy metric, hyperparameter tuning grids, and method comparison.

Everything here is scored by one rule: a day's RMSE in watts against the
measured day, averaged over days in date order. `daily_rmse`, one
batched dot product per (days, slots) block, is its one kernel. Tuning
runs a grid search against the tune split and reports per-axis tables
whose worst (largest) entry is normalized to 1, the convention used when
the tables are printed. Comparison replays the test split with each
method and reports per-day scores, averages, and relative improvements.

`replay_days` is the one replay path: each `GLOBAL_TIERS` module's
`forecast_days` of a (days, slots) block, corrected by the local tier.
Comparison and `simulate` replay through it and score through
`score_replay`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from datetime import date as Date

import numpy as np

from . import correction, knn, nn
from .errors import (
    EmptyInput,
    InsufficientHistory,
    InsufficientTrainingDays,
    LengthMismatch,
)
from .timeseries import DatasetSplit, SolarSeries, require_history

# Each global tier's label, in report order, and the module whose
# `forecast_days` forecasts a block of days with that tier's model. A
# tier corrected by the local tier is reported as "<label>+local".
GLOBAL_TIERS = {"knn": knn, "nn": nn}

DEFAULT_DEPTH_CANDIDATES = tuple(range(1, 9))
DEFAULT_NEIGHBOR_CANDIDATES = (2, 3, 4)
DEFAULT_HIDDEN_CANDIDATES = (3, 4, 5, 6, 7, 8)


def daily_rmse(forecasts, measured) -> np.ndarray:
    """RMSE along the last axis of a (..., slots) block: one value per row.

    Each row's sum of squares is one dot product of its difference with
    itself, batched in one `np.matmul`, so every element is bit-equal to
    the RMSE of that row alone.
    """
    p = np.asarray(forecasts, dtype=float)
    a = np.asarray(measured, dtype=float)
    if p.shape != a.shape:
        raise LengthMismatch(f"shape mismatch: {p.shape} vs {a.shape}")
    if p.ndim == 0 or p.size == 0:
        raise EmptyInput("rmse needs at least one sample")
    diff = p - a
    squares = np.matmul(diff[..., None, :], diff[..., :, None])[..., 0, 0]
    return np.sqrt(squares / diff.shape[-1])


def rmse(predicted, actual) -> float:
    """RMSE over every sample: `daily_rmse` of the flattened arrays."""
    if np.shape(predicted) != np.shape(actual):
        raise LengthMismatch(f"shape mismatch: {np.shape(predicted)} vs {np.shape(actual)}")
    return float(daily_rmse(np.ravel(predicted), np.ravel(actual)))


def _mean(values: list) -> float:
    """The mean of a list of floats, summed left to right: per-day scores
    are averaged in date order."""
    return sum(values) / len(values)


def winner(cells: dict):
    """The key of the smallest available (not None) value in `cells`, the
    smaller key on an exact tie: the one rule that picks every tuned value."""
    return min((key for key, v in cells.items() if v is not None),
               key=lambda key: (cells[key], key))


@dataclass(frozen=True)
class TuneGrid:
    """One axis of a grid search. raw_rmse entries are None where the
    candidate could not be evaluated; those are skipped when normalizing.
    At least one entry must be available; available ones are finite, >= 0.
    `best`, the candidate `tune` prints and writes, defaults to the row's
    `winner`; one axis of a larger search names that search's winner."""

    axis_label: str
    candidates: tuple
    raw_rmse: tuple
    best: object = None

    def __post_init__(self):
        raw = tuple(None if v is None else float(v) for v in self.raw_rmse)
        object.__setattr__(self, "candidates", tuple(self.candidates))
        object.__setattr__(self, "raw_rmse", raw)
        if len(self.candidates) != len(raw):
            raise LengthMismatch("grid columns disagree in length")
        if all(v is None for v in raw):
            raise InsufficientTrainingDays(
                f"every candidate on axis {self.axis_label} was untrainable"
            )
        if not all(0.0 <= v < math.inf for v in raw if v is not None):  # NaN fails too
            raise ValueError(f"RMSE on axis {self.axis_label} must be finite and >= 0")
        if self.best is None:
            object.__setattr__(self, "best", winner(dict(zip(self.candidates, raw))))

    @property
    def reference_rmse(self) -> float:
        """The raw value normalized to 1: the largest, or 0 in an all-zero row."""
        return max(0.0, *(v for v in self.raw_rmse if v is not None))

    @property
    def normalized(self) -> tuple:
        """Each raw entry over the reference, so in [0, 1]. An all-zero row
        cannot be scaled onto (0, 1] and reads as all ones."""
        reference = self.reference_rmse
        return tuple(None if v is None else v / reference if reference else 1.0
                     for v in self.raw_rmse)

    def footnote(self) -> str:
        shown = f"{self.reference_rmse:.1f}"
        if shown == "0.0" and self.reference_rmse > 0:
            # a positive reference must not read like the all-zero one
            shown = f"{self.reference_rmse:.3g}"
        return f"RMSE {shown} is normalized to 1"


@dataclass(frozen=True)
class KnnTuneResult:
    """One table per axis, each `best` a coordinate of the winning cell."""

    depth_grid: TuneGrid
    neighbors_grid: TuneGrid
    cell_rmse: tuple  # ((depth, neighbors, rmse-or-None), ...) in grid order


def tune_knn(
    split: DatasetSplit,
    depth_candidates=DEFAULT_DEPTH_CANDIDATES,
    neighbor_candidates=DEFAULT_NEIGHBOR_CANDIDATES,
) -> KnnTuneResult:
    """Grid-search context depth and neighbor count on the tune split.

    Each cell is exactly the average daily RMSE over tune days of the
    `knn.forecast_days` forecasts of the model `knn.fit` would build on the
    train split, computed without building it: one `knn.day_table` between
    the days the tune contexts read and the train days (the pool of every
    fitted depth) gives each depth's `knn.context_distances`, ranked once
    by `knn.rank_nearest` (the k+1 nearest for the largest neighbor
    count), and `knn.blend_nearest` turns them into forecasts for each
    neighbor count.
    A cell is None when the train split is shorter than
    `KnnConfig.min_training_days`. The per-axis tables hold the best
    (minimum) cell in each row or column. The winning cell is the `winner`
    of all cells (ties prefer smaller depth, then fewer neighbors), and
    each table's `best` is its coordinate on that axis.
    """
    depth_candidates = tuple(depth_candidates)
    neighbor_candidates = tuple(neighbor_candidates)
    if not depth_candidates or not neighbor_candidates:
        raise EmptyInput("candidate lists must be non-empty")
    if split.tune.num_days == 0:
        raise EmptyInput("tune split has no days")
    full, train, tune = split.series, split.train, split.tune
    trainable = [(d, k) for d in depth_candidates for k in neighbor_candidates
                 if train.num_days >= knn.KnnConfig(d, k).min_training_days]
    cells = {(d, k): None for d in depth_candidates for k in neighbor_candidates}
    # The partitions follow each other in `full`, so the tune days'
    # contexts read its rows from `deepest` days before the first tune day
    # up to the day before the last one.
    deepest = max((depth for depth, _ in trainable), default=0)
    rows = full.rows(range(tune.first_index - deepest, tune.last_index))
    table = knn.day_table(rows, train.power)
    ranked = {}  # depth -> its context distances and their nearest pairs
    nearest = max(neighbor_candidates) + 1
    for depth, neighbors in trainable:
        if depth not in ranked:
            distances = knn.context_distances(
                table[deepest - depth :], depth, train.num_days - depth
            )
            ranked[depth] = distances, knn.rank_nearest(distances, nearest)
        distances, order = ranked[depth]
        forecasts = knn.blend_nearest(distances, train.power[depth:], neighbors, order)
        cells[depth, neighbors] = _mean(daily_rmse(forecasts, tune.power).tolist())
    # with no trainable cell there is no winner, and TuneGrid raises
    best = winner(cells) if trainable else (None, None)

    def marginal(axis_label, candidates, pick):
        return TuneGrid(axis_label, candidates, [
            min((v for key, v in cells.items() if key[pick] == c and v is not None), default=None)
            for c in candidates
        ], best[pick])

    return KnnTuneResult(
        marginal("depth_days", depth_candidates, 0),
        marginal("neighbors", neighbor_candidates, 1),
        cell_rmse=tuple((d, k, v) for (d, k), v in cells.items()),
    )


def tune_nn(
    split: DatasetSplit,
    hidden_candidates=DEFAULT_HIDDEN_CANDIDATES,
    config: nn.NnConfig | None = None,
) -> TuneGrid:
    """Score hidden-layer sizes by the tune RMSE averaged over restarts.

    Every restart is trained and scored separately; the table entry for a
    size is the mean of its restart scores, not the best one.
    """
    hidden_candidates = tuple(hidden_candidates)
    if not hidden_candidates:
        raise EmptyInput("candidate list must be non-empty")
    if split.tune.num_days == 0:
        raise EmptyInput("tune split has no days")
    if config is None:
        config = nn.NnConfig()
    full, tune = split.series, split.tune
    tune_days = range(tune.first_index, tune.last_index + 1)
    raw = []
    for hidden in hidden_candidates:
        candidate_config = replace(config, hidden_neurons=hidden)
        try:
            restart_scores = [
                _mean(daily_rmse(nn.forecast_days(model, full, tune_days), tune.power).tolist())
                for model, _ in nn.fit_restarts(split.train, candidate_config)
            ]
            raw.append(_mean(restart_scores))
        except (InsufficientTrainingDays, InsufficientHistory):
            raw.append(None)
    return TuneGrid("hidden_neurons", hidden_candidates, raw)


@dataclass(frozen=True)
class EvalReport:
    """Scores for each method over the test days actually evaluated.

    per_day_rmse maps each method label, in report order, to its column of
    RMSE watts, one per day of `dates`; `averaged_rmse` follows the same
    order. Improvements compare each two-tier method against its own
    global tier; None means the baseline was below rounding level and the
    ratio is undefined.
    """

    dates: tuple
    per_day_rmse: dict
    averaged_rmse: dict
    improvement_percent: dict
    skipped_days: tuple


def improvement(baseline: float, improved: float, scale: float = 0.0):
    """Percent by which `improved` undercuts the `baseline` RMSE, or None
    when the baseline is below one ulp of `scale`, the largest |measured|
    value scored: a ratio of rounding errors means nothing."""
    if baseline < np.spacing(scale):
        return None
    return 100.0 * (baseline - improved) / baseline


def replay_days(
    series: SolarSeries, day_indices, models: dict,
    window_length: int = correction.DEFAULT_WINDOW,
    harmonics: int = correction.DEFAULT_HARMONICS,
) -> dict:
    """Replay days `day_indices` of `series` as one (days, slots) block
    with each model of the ordered {`GLOBAL_TIERS` label: model} `models`,
    corrected by the local tier: {label: DaySimulation} in that order.
    Raises InsufficientHistory when a model lacks its history,
    UnknownDate when `series` lacks a day."""
    measured = series.rows(day_indices)
    forecasts = {label: GLOBAL_TIERS[label].forecast_days(model, series, day_indices)
                 for label, model in models.items()}
    return {
        label: correction.simulate_day(forecast, measured, window_length, harmonics)
        for label, forecast in forecasts.items()
    }


def score_replay(dates, sims: dict, skipped=()) -> EvalReport:
    """Score a `replay_days` block whose rows fall on `dates`: each tier's
    and then each "<tier>+local" method's `daily_rmse` per day and day
    average, in block order, and each two-tier method's improvement over
    its tier on the scale of the largest |measured| value. `skipped`
    passes through. A replay of no tier raises EmptyInput, and `dates`
    of another length than the block raises LengthMismatch."""
    if not sims:
        raise EmptyInput("no global tier to score")
    measured = next(iter(sims.values())).measured_w
    if len(dates) != len(measured):
        raise LengthMismatch(f"{len(dates)} dates for {len(measured)} replayed days")
    tiers = {label: f"{label}+local" for label in sims}
    scores = {label: tuple(daily_rmse(sim.global_w, sim.measured_w).tolist())
              for label, sim in sims.items()}
    for label, sim in sims.items():
        scores[tiers[label]] = tuple(daily_rmse(sim.corrected_w, sim.measured_w).tolist())
    averaged = {label: _mean(values) for label, values in scores.items()}
    scale = np.abs(measured).max()
    improvements = {(base, local): improvement(averaged[base], averaged[local], scale)
                    for base, local in tiers.items()}
    return EvalReport(tuple(dates), scores, averaged, improvements, tuple(skipped))


def improvement_text(percent) -> str:
    """An improvement as printed: two decimals and a percent sign, or n/a."""
    return "n/a" if percent is None else f"{percent:.2f}%"


def compare_methods(
    full: SolarSeries,
    test: SolarSeries,
    knn_model: knn.KnnModel,
    nn_model: nn.NnModel,
    window_length: int = correction.DEFAULT_WINDOW,
    harmonics: int = correction.DEFAULT_HARMONICS,
) -> EvalReport:
    """Replay every test day with both `GLOBAL_TIERS` and their two-tier
    counterparts, as one block. Days without enough preceding history for
    either model are skipped and listed in the report with the reason."""
    if test.num_days == 0:
        raise EmptyInput("test split has no days")
    models = dict(zip(GLOBAL_TIERS, (knn_model, nn_model)))
    days, dates, skipped = [], [], []
    for day in range(test.first_index, test.last_index + 1):
        date = Date.fromordinal(day)
        try:
            for model in models.values():
                require_history(full, day, model.history_days)
        except InsufficientHistory as exc:
            skipped.append((date, str(exc)))
        else:
            days.append(day)
            dates.append(date)
    if not days:
        raise InsufficientHistory("every test day lacked usable history")
    sims = replay_days(full, days, models, window_length, harmonics)
    return score_replay(dates, sims, skipped)


def render_grid(grid: TuneGrid) -> str:
    """Aligned two-row table with the normalization footnote."""
    header = [grid.axis_label] + [str(c) for c in grid.candidates]
    values = ["normalized RMSE"] + [
        "n/a" if v is None else f"{v:.3f}" for v in grid.normalized
    ]
    widths = [max(len(a), len(b)) for a, b in zip(header, values)]
    def line(parts):
        return "  ".join(p.rjust(w) for p, w in zip(parts, widths))
    return "\n".join(
        [
            line(header),
            line(values),
            f"best {grid.axis_label}: {grid.best}",
            grid.footnote(),
        ]
    )


def write_grid_csv(grid: TuneGrid, sink) -> None:
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow([grid.axis_label, "rmse_w", "normalized"])
    for candidate, raw, norm in zip(grid.candidates, grid.raw_rmse, grid.normalized):
        writer.writerow(
            [
                candidate,
                "" if raw is None else repr(raw),
                "" if norm is None else repr(norm),
            ]
        )


def render_report(report: EvalReport) -> str:
    width = max(9, *(len(label) for label in report.per_day_rmse))
    header = "  ".join(label.rjust(width) for label in report.per_day_rmse)
    lines = ["per-day RMSE (watts)", f"{'date':<10}  {header}"]
    for day, row in zip(report.dates, zip(*report.per_day_rmse.values())):
        cells = "  ".join(f"{value:.1f}".rjust(width) for value in row)
        lines.append(f"{day.isoformat()}  {cells}")
    lines.append("")
    lines.append("averaged RMSE (watts)")
    for label, value in report.averaged_rmse.items():
        lines.append(f"  {label:<10} {value:.1f}")
    lines.append("")
    for (base, improved), pct in report.improvement_percent.items():
        lines.append(f"improvement {improved} vs {base}: {improvement_text(pct)}")
    for day, reason in report.skipped_days:
        lines.append(f"skipped {day.isoformat()}: {reason}")
    return "\n".join(lines)


def write_report_csv(report: EvalReport, sink) -> None:
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["date", "method", "rmse_w"])
    for day, row in zip(report.dates, zip(*report.per_day_rmse.values())):
        for label, value in zip(report.per_day_rmse, row):
            writer.writerow([day.isoformat(), label, repr(value)])
    for label, value in report.averaged_rmse.items():
        writer.writerow(["average", label, repr(value)])
    for (base, improved), pct in report.improvement_percent.items():
        writer.writerow(
            [
                "improvement",
                f"{improved} vs {base}",
                "" if pct is None else repr(pct),
            ]
        )
    for day, reason in report.skipped_days:
        writer.writerow(["skipped", day.isoformat(), reason])
