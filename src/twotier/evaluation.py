"""Accuracy metric, hyperparameter tuning grids, and method comparison.

Everything here scores forecasts with daily RMSE in watts. Tuning runs a
grid search against the tune split and reports per-axis tables whose
worst (largest) entry is normalized to 1, the convention used when the
tables are printed. Comparison replays the test split with each method
and reports per-day scores, averages, and relative improvements.

Each model's `forecast_days` reads its `history_days` days before each
day. `replay_days` is the one replay path: both global forecasts of a
(days, slots) block, each corrected by the local tier. Comparison and
`simulate` replay through it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from . import correction, knn, nn
from .errors import (
    EmptyInput,
    InsufficientHistory,
    InsufficientTrainingDays,
    LengthMismatch,
)
from .timeseries import DatasetSplit, SolarSeries, require_history

METHOD_KNN = "knn"
METHOD_NN = "nn"
METHOD_KNN_LOCAL = "knn+local"
METHOD_NN_LOCAL = "nn+local"
METHOD_LABELS = (METHOD_KNN, METHOD_NN, METHOD_KNN_LOCAL, METHOD_NN_LOCAL)

DEFAULT_DEPTH_CANDIDATES = tuple(range(1, 9))
DEFAULT_NEIGHBOR_CANDIDATES = (2, 3, 4)
DEFAULT_HIDDEN_CANDIDATES = (3, 4, 5, 6, 7, 8)


def rmse(predicted, actual) -> float:
    """Root mean squared error, mean taken over the actual sample count."""
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape:
        raise LengthMismatch(f"shape mismatch: {p.shape} vs {a.shape}")
    if p.size == 0:
        raise EmptyInput("rmse needs at least one sample")
    diff = p.ravel() - a.ravel()
    return math.sqrt(float(diff @ diff) / diff.size)


@dataclass(frozen=True)
class TuneGrid:
    """One axis of a grid search. raw_rmse entries are None where the
    candidate could not be evaluated; those are skipped when normalizing.
    reference_rmse is the raw value mapped to exactly 1. Normalized values
    lie in [0, 1], or are all 1 when every raw entry is 0 (reference 0)."""

    axis_label: str
    candidates: tuple
    raw_rmse: tuple
    normalized: tuple
    best: object
    reference_rmse: float

    def __post_init__(self):
        if not (
            len(self.candidates) == len(self.raw_rmse) == len(self.normalized)
        ):
            raise LengthMismatch("grid columns disagree in length")
        available = [v for v in self.normalized if v is not None]
        if not available:
            raise EmptyInput(f"no evaluable candidate on axis {self.axis_label}")
        # A candidate that forecasts the tune days exactly normalizes to 0;
        # an all-zero row has no positive reference and is all ones.
        low = min(available)
        in_range = low > 0.0 or (low == 0.0 and self.reference_rmse > 0)
        if max(available) != 1.0 or not in_range:
            raise ValueError("normalized grid must lie in [0, 1] with max 1")

    def footnote(self) -> str:
        shown = f"{self.reference_rmse:.1f}"
        if shown == "0.0" and self.reference_rmse > 0:
            # a positive reference must not read like the all-zero one
            shown = f"{self.reference_rmse:.3g}"
        return f"RMSE {shown} is normalized to 1"


def make_grid(axis_label: str, candidates, raw_rmse) -> TuneGrid:
    """Normalize a raw RMSE row: divide by the largest available entry.

    Best candidate is the smallest raw RMSE; on an exact tie the earlier
    candidate wins, so pass candidates in ascending order.
    """
    candidates = tuple(candidates)
    raw = tuple(None if v is None else float(v) for v in raw_rmse)
    available = [(v, c) for c, v in zip(candidates, raw) if v is not None]
    if not available:
        raise InsufficientTrainingDays(
            f"every candidate on axis {axis_label} was untrainable"
        )
    reference = max(v for v, _ in available)
    if reference <= 0:
        # an all-zero row cannot be scaled onto (0, 1]; report flat ones
        normalized = tuple(None if v is None else 1.0 for v in raw)
        reference = 0.0
    else:
        normalized = tuple(None if v is None else v / reference for v in raw)
    best = min(available, key=lambda pair: (pair[0], candidates.index(pair[1])))[1]
    return TuneGrid(
        axis_label=axis_label,
        candidates=candidates,
        raw_rmse=raw,
        normalized=normalized,
        best=best,
        reference_rmse=reference,
    )


@dataclass(frozen=True)
class KnnTuneResult:
    depth_grid: TuneGrid
    neighbors_grid: TuneGrid
    best_depth: int
    best_neighbors: int
    cell_rmse: tuple  # ((depth, neighbors, rmse-or-None), ...) in grid order


def tune_knn(
    split: DatasetSplit,
    depth_candidates=DEFAULT_DEPTH_CANDIDATES,
    neighbor_candidates=DEFAULT_NEIGHBOR_CANDIDATES,
) -> KnnTuneResult:
    """Grid-search context depth and neighbor count on the tune split.

    Each cell is exactly the average daily RMSE over tune days of the
    `knn.forecast_days` forecasts of the model `knn.fit` would build on the
    train split, computed without building it: one table S of
    `knn.day_distances` between the days the tune contexts read and the
    train days gives every depth's `knn.context_distances`, tune day t to
    training pair j reading S[t-D+i, j+i] for i < D, and
    `knn.blend_nearest` turns them into forecasts for each neighbor count.
    A cell is None when the train split is shorter than
    `KnnConfig.min_training_days`. The per-axis tables hold the best
    (minimum) cell in each row or column. Ties prefer smaller depth, then
    fewer neighbors.
    """
    depth_candidates = tuple(depth_candidates)
    neighbor_candidates = tuple(neighbor_candidates)
    if not depth_candidates or not neighbor_candidates:
        raise EmptyInput("candidate lists must be non-empty")
    if split.tune.num_days == 0:
        raise EmptyInput("tune split has no days")
    full, train, tune = split.full_series(), split.train, split.tune
    trainable = [(d, k) for d in depth_candidates for k in neighbor_candidates
                 if train.num_days >= knn.KnnConfig(d, k).min_training_days]
    cells = {(d, k): None for d in depth_candidates for k in neighbor_candidates}
    # The partitions follow each other in `full`, so the tune days'
    # contexts read its rows from `deepest` days before the first tune day
    # up to the day before the last one. S is built one row at a time, so
    # no rows x days x slots array is ever held.
    deepest = max((depth for depth, _ in trainable), default=0)
    start = tune.first_index - full.first_index
    rows = full.power[start - deepest : start + tune.num_days - 1]
    table = np.array([knn.day_distances(train.power, row) for row in rows])
    distances = {}
    for depth, neighbors in trainable:
        if depth not in distances:
            pairs, offset = train.num_days - depth, deepest - depth
            distances[depth] = knn.context_distances(
                table[offset + i : offset + i + tune.num_days, i : i + pairs]
                for i in range(depth)
            )
        forecasts = knn.blend_nearest(distances[depth], train.power[depth:], neighbors)
        scores = [rmse(f, a) for f, a in zip(forecasts, tune.power)]
        cells[depth, neighbors] = sum(scores) / len(scores)

    def marginal(axis_label, candidates, pick):
        return make_grid(axis_label, candidates, [
            min((v for key, v in cells.items() if key[pick] == c and v is not None), default=None)
            for c in candidates
        ])

    depth_grid = marginal("depth_days", depth_candidates, 0)
    neighbors_grid = marginal("neighbors", neighbor_candidates, 1)
    best_depth, best_neighbors = min(
        (key for key, v in cells.items() if v is not None),
        key=lambda key: (cells[key], key[0], key[1]),
    )
    return KnnTuneResult(
        depth_grid, neighbors_grid, best_depth, best_neighbors,
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
    full, tune = split.full_series(), split.tune
    tune_days = range(tune.first_index, tune.last_index + 1)
    raw = []
    for hidden in hidden_candidates:
        candidate_config = replace(config, hidden_neurons=hidden)
        try:
            restart_scores = []
            for model, _ in nn.fit_restarts(split.train, candidate_config):
                forecasts = nn.forecast_days(model, full, tune_days)
                scores = [rmse(f, a) for f, a in zip(forecasts, tune.power)]
                restart_scores.append(sum(scores) / len(scores))
            raw.append(sum(restart_scores) / len(restart_scores))
        except (InsufficientTrainingDays, InsufficientHistory):
            raw.append(None)
    return make_grid("hidden_neurons", hidden_candidates, raw)


@dataclass(frozen=True)
class EvalReport:
    """Scores for the four methods over the test days actually evaluated.

    per_day_rmse rows are (date, method label, rmse watts). Improvements
    compare each two-tier method against its own global tier; None means
    the baseline was 0 and the ratio is undefined.
    """

    per_day_rmse: tuple
    averaged_rmse: dict
    improvement_percent: dict
    skipped_days: tuple


def improvement(baseline: float, improved: float):
    if baseline <= 0:
        return None
    return 100.0 * (baseline - improved) / baseline


def replay_days(
    series: SolarSeries, day_indices, knn_model: knn.KnnModel, nn_model: nn.NnModel,
    window_length: int = correction.DEFAULT_WINDOW,
    harmonics: int = correction.DEFAULT_HARMONICS,
) -> dict:
    """Replay days `day_indices` of `series` as one (days, slots) block
    with both global tiers, each corrected by the local tier: {"knn":
    DaySimulation, "nn": DaySimulation}. Raises InsufficientHistory when a
    model lacks its history, UnknownDate when `series` lacks a day."""
    measured = series.rows(day_indices)
    forecasts = {
        METHOD_KNN: knn.forecast_days(knn_model, series, day_indices),
        METHOD_NN: nn.forecast_days(nn_model, series, day_indices),
    }
    return {
        label: correction.simulate_day(forecast, measured, window_length, harmonics)
        for label, forecast in forecasts.items()
    }


def compare_methods(
    full: SolarSeries,
    test: SolarSeries,
    knn_model: knn.KnnModel,
    nn_model: nn.NnModel,
    window_length: int = correction.DEFAULT_WINDOW,
    harmonics: int = correction.DEFAULT_HARMONICS,
) -> EvalReport:
    """Replay every test day with both global tiers and their two-tier
    counterparts, as one block. Days without enough preceding history for
    either model are skipped and listed in the report with the reason."""
    if test.num_days == 0:
        raise EmptyInput("test split has no days")
    days, skipped = [], []
    for day in test.days:
        try:
            for model in (knn_model, nn_model):
                require_history(full, day.day_index, model.history_days)
        except InsufficientHistory as exc:
            skipped.append((day.date, str(exc)))
        else:
            days.append(day)
    if not days:
        raise InsufficientHistory("every test day lacked usable history")
    sims = replay_days(full, [day.day_index for day in days], knn_model, nn_model,
                       window_length, harmonics)
    # METHOD_LABELS order: both global tiers, then both corrected
    forecasts = [sim.global_w for sim in sims.values()]
    forecasts += [sim.corrected_w for sim in sims.values()]
    rows = [
        (day.date, label, rmse(block[i], day.samples))
        for i, day in enumerate(days)
        for label, block in zip(METHOD_LABELS, forecasts)
    ]
    averaged = {}
    for label in METHOD_LABELS:
        scores = [value for _, method, value in rows if method == label]
        averaged[label] = sum(scores) / len(scores)
    improvements = {
        (METHOD_KNN, METHOD_KNN_LOCAL): improvement(
            averaged[METHOD_KNN], averaged[METHOD_KNN_LOCAL]
        ),
        (METHOD_NN, METHOD_NN_LOCAL): improvement(
            averaged[METHOD_NN], averaged[METHOD_NN_LOCAL]
        ),
    }
    return EvalReport(
        per_day_rmse=tuple(rows),
        averaged_rmse=averaged,
        improvement_percent=improvements,
        skipped_days=tuple(skipped),
    )


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
    lines = ["per-day RMSE (watts)"]
    dates = dict.fromkeys(day for day, _, _ in report.per_day_rmse)
    width = max(len(label) for label in METHOD_LABELS)
    header = "date".ljust(10) + "  " + "  ".join(
        label.rjust(max(width, 9)) for label in METHOD_LABELS
    )
    lines.append(header)
    by_key = {(d, m): v for d, m, v in report.per_day_rmse}
    for day in dates:
        cells = "  ".join(
            f"{by_key[(day, label)]:.1f}".rjust(max(width, 9))
            for label in METHOD_LABELS
        )
        lines.append(f"{day.isoformat()}  {cells}")
    lines.append("")
    lines.append("averaged RMSE (watts)")
    for label in METHOD_LABELS:
        lines.append(f"  {label:<10} {report.averaged_rmse[label]:.1f}")
    lines.append("")
    for (base, improved), pct in report.improvement_percent.items():
        shown = "n/a" if pct is None else f"{pct:.2f}%"
        lines.append(f"improvement {improved} vs {base}: {shown}")
    for day, reason in report.skipped_days:
        lines.append(f"skipped {day.isoformat()}: {reason}")
    return "\n".join(lines)


def write_report_csv(report: EvalReport, sink) -> None:
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["date", "method", "rmse_w"])
    for day, method, value in report.per_day_rmse:
        writer.writerow([day.isoformat(), method, repr(value)])
    for label in METHOD_LABELS:
        writer.writerow(["average", label, repr(report.averaged_rmse[label])])
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
