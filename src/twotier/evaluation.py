"""Accuracy metric, hyperparameter tuning grids, and method comparison.

Everything here scores forecasts with daily RMSE in watts. Tuning runs a
grid search against the tune split and reports per-axis tables whose
worst (largest) entry is normalized to 1, the convention used when the
tables are printed. Comparison replays the test split with each method
and reports per-day scores, averages, and relative improvements.
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
from .timeseries import DatasetSplit, SolarSeries, day_context

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
    reference_rmse is the raw value mapped to exactly 1."""

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
        if max(available) != 1.0 or min(available) <= 0.0:
            raise ValueError("normalized grid must lie in (0, 1] with max 1")

    def footnote(self) -> str:
        return f"RMSE {self.reference_rmse:.1f} is normalized to 1"


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


def _series_history_days(full: SolarSeries, day_index: int, depth: int):
    """Context vector for one day, or raise InsufficientHistory."""
    if day_index - depth < full.first_index:
        raise InsufficientHistory(
            f"day {day_index} lacks {depth} preceding days"
        )
    return day_context(full, day_index, depth)


def _knn_cell(full: SolarSeries, train: SolarSeries, tune: SolarSeries,
              depth: int, neighbors: int):
    config = knn.KnnConfig(depth_days=depth, neighbors=neighbors)
    try:
        model = knn.fit(train, config)
    except InsufficientTrainingDays:
        return None
    scores = []
    for day in tune.days:
        try:
            context = _series_history_days(full, day.day_index, depth)
        except InsufficientHistory:
            return None
        predicted = knn.predict_day(model, context)
        scores.append(rmse(predicted, day.samples))
    return sum(scores) / len(scores)


def tune_knn(
    split: DatasetSplit,
    depth_candidates=DEFAULT_DEPTH_CANDIDATES,
    neighbor_candidates=DEFAULT_NEIGHBOR_CANDIDATES,
) -> KnnTuneResult:
    """Grid-search context depth and neighbor count on the tune split.

    Each cell refits on the train split and scores the average daily RMSE
    over tune days. The per-axis tables hold the best (minimum) cell in
    each row or column. Ties prefer smaller depth, then fewer neighbors.
    """
    depth_candidates = tuple(depth_candidates)
    neighbor_candidates = tuple(neighbor_candidates)
    if not depth_candidates or not neighbor_candidates:
        raise EmptyInput("candidate lists must be non-empty")
    if tune_is_empty(split):
        raise EmptyInput("tune split has no days")
    full = split.full_series()
    cells = {}
    for depth in depth_candidates:
        for neighbors in neighbor_candidates:
            cells[(depth, neighbors)] = _knn_cell(
                full, split.train, split.tune, depth, neighbors
            )

    def marginal(axis_values, pick):
        row = []
        for value in axis_values:
            pool = [v for key, v in cells.items() if pick(key) == value and v is not None]
            row.append(min(pool) if pool else None)
        return row

    depth_grid = make_grid(
        "depth_days", depth_candidates,
        marginal(depth_candidates, lambda key: key[0]),
    )
    neighbors_grid = make_grid(
        "neighbors", neighbor_candidates,
        marginal(neighbor_candidates, lambda key: key[1]),
    )
    best_depth, best_neighbors = min(
        (key for key, v in cells.items() if v is not None),
        key=lambda key: (cells[key], key[0], key[1]),
    )
    ordered = tuple(
        (d, k, cells[(d, k)])
        for d in depth_candidates
        for k in neighbor_candidates
    )
    return KnnTuneResult(
        depth_grid=depth_grid,
        neighbors_grid=neighbors_grid,
        best_depth=best_depth,
        best_neighbors=best_neighbors,
        cell_rmse=ordered,
    )


def tune_is_empty(split: DatasetSplit) -> bool:
    return split.tune.num_days == 0


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
    if tune_is_empty(split):
        raise EmptyInput("tune split has no days")
    if config is None:
        config = nn.NnConfig()
    full = split.full_series()
    raw = []
    for hidden in hidden_candidates:
        candidate_config = replace(config, hidden_neurons=hidden)
        try:
            restart_scores = []
            for model, _ in nn.fit_restarts(split.train, candidate_config):
                scores = [
                    rmse(
                        nn.predict_day(
                            model,
                            full.day_by_index(day.day_index - 1),
                            full.day_by_index(day.day_index - 2),
                        ),
                        day.samples,
                    )
                    for day in split.tune.days
                ]
                restart_scores.append(sum(scores) / len(scores))
            raw.append(sum(restart_scores) / len(restart_scores))
        except (InsufficientTrainingDays, KeyError):
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


def compare_methods(
    full: SolarSeries,
    test: SolarSeries,
    knn_model: knn.KnnModel,
    nn_model: nn.NnModel,
    window_length: int = correction.DEFAULT_WINDOW,
    harmonics: int = correction.DEFAULT_HARMONICS,
) -> EvalReport:
    """Replay every test day with both global tiers and their two-tier
    counterparts. Days without enough preceding history are skipped and
    listed in the report."""
    if test.num_days == 0:
        raise EmptyInput("test split has no days")
    depth = knn_model.config.depth_days
    rows = []
    skipped = []
    for day in test.days:
        try:
            context = _series_history_days(full, day.day_index, max(depth, 2))
        except InsufficientHistory as exc:
            skipped.append((day.date, str(exc)))
            continue
        knn_context = context[-depth * full.grid.samples_per_day :]
        global_knn = knn.predict_day(knn_model, knn_context)
        global_nn = nn.predict_day(
            nn_model,
            full.day_by_index(day.day_index - 1),
            full.day_by_index(day.day_index - 2),
        )
        measured = day.samples
        local_knn = correction.simulate_day(
            global_knn, measured, window_length, harmonics
        ).corrected_series()
        local_nn = correction.simulate_day(
            global_nn, measured, window_length, harmonics
        ).corrected_series()
        rows.append((day.date, METHOD_KNN, rmse(global_knn, measured)))
        rows.append((day.date, METHOD_NN, rmse(global_nn, measured)))
        rows.append((day.date, METHOD_KNN_LOCAL, rmse(local_knn, measured)))
        rows.append((day.date, METHOD_NN_LOCAL, rmse(local_nn, measured)))
    if not rows:
        raise InsufficientHistory("every test day lacked usable history")
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
    dates = []
    for day, _, _ in report.per_day_rmse:
        if day not in dates:
            dates.append(day)
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
