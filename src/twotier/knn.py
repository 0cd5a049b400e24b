"""Weighted k-nearest-neighbor day-ahead prediction.

A query day is matched against stored (context, target) pairs, where the
context is the concatenation of the D days preceding the target day. The
k most similar contexts (Euclidean distance) are blended with weights
that fall off linearly from the nearest match toward the (k+1)-th
distance, then normalized to sum to one. Each query's k+1 nearest
contexts come from one selection (`rank_nearest`) with the stable tie
rule: of equal distances the earlier pair ranks first.

A fitted model is its training days: `from_days` keeps the (N, M) day
matrix as `days`, and its N - D pairs are read-only views of that
matrix, so each day is held once and its model file stores only the
matrix. A model built from its own pairs has no day matrix. There is
one distance rule: `day_table` holds the squared distance
of each query day to each day a stored context reads (`day_distances`,
the difference dotted with itself along the slot axis), and
`context_distances` adds a context's D terms from that table, oldest day
first, and takes the square root. `predict_day`, `forecast_days` and the
tuner in `evaluation` all go through both, so they agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionMismatch, InsufficientTrainingDays
from .timeseries import MAX_POWER_W, SolarSeries, _freeze, require_history


@dataclass(frozen=True)
class KnnConfig:
    depth_days: int = 5
    neighbors: int = 2

    def __post_init__(self):
        if self.depth_days < 1:
            raise ValueError("depth_days must be >= 1")
        if self.neighbors < 2:
            # With one neighbor the blend degenerates to plain nearest-neighbor
            # lookup, which is not a supported mode.
            raise ValueError("neighbors must be >= 2")

    @property
    def min_training_days(self) -> int:
        """D + k + 1: enough days that every query reaches the (k+1)-th
        distance."""
        return self.depth_days + self.neighbors + 1


@dataclass(frozen=True, eq=False)
class KnnModel:
    """Stored training pairs: contexts (P, D*M) and targets (P, M), both
    in watts, rows in chronological order of the target day. A context
    must split into D days of M slots, and no value may exceed
    MAX_POWER_W in magnitude. Both are read-only, copied unless they
    already are read-only float arrays. `days` is the (N, M) day
    matrix of a `from_days` model, whose pairs are views of it, and None
    for a model built from its own pairs."""

    config: KnnConfig
    contexts: np.ndarray
    targets: np.ndarray
    days: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        contexts, targets = _freeze(self.contexts), _freeze(self.targets)
        if contexts.ndim != 2 or targets.ndim != 2:
            raise ValueError("contexts and targets must be 2-D")
        if contexts.shape[0] != targets.shape[0]:
            raise ValueError("contexts and targets must have one row per pair")
        if contexts.shape[1] % self.config.depth_days:
            raise ValueError(f"context length {contexts.shape[1]} does not split "
                             f"into depth_days = {self.config.depth_days} days")
        if contexts.shape[0] < self.config.neighbors + 1:
            raise ValueError(
                f"need at least k+1 = {self.config.neighbors + 1} pairs, "
                f"have {contexts.shape[0]}"
            )
        # NaN and infinities fail the comparison too
        if not all(np.all(np.abs(arr) <= MAX_POWER_W) for arr in (contexts, targets)):
            raise ValueError(
                f"stored pairs must be finite, at most {MAX_POWER_W:g} W in magnitude"
            )
        object.__setattr__(self, "contexts", contexts)
        object.__setattr__(self, "targets", targets)

    @property
    def pair_count(self) -> int:
        return self.contexts.shape[0]

    @property
    def context_length(self) -> int:
        return self.contexts.shape[1]

    @property
    def target_length(self) -> int:
        return self.targets.shape[1]

    @property
    def samples_per_day(self) -> int:
        return self.context_length // self.config.depth_days

    @property
    def history_days(self) -> int:
        """How many days before a forecast day its forecast reads: D."""
        return self.config.depth_days


def fit(train: SolarSeries, config: KnnConfig) -> KnnModel:
    """`from_days` of the training days: one (context, target) pair per
    day with D full days of history. Training requires at least
    `config.min_training_days` days."""
    return from_days(config, train.power)


def from_days(config: KnnConfig, days) -> KnnModel:
    """The model of N chronological days of M slots: N - D pairs, pair j
    the target day j + D with the days j..j+D-1 as its context, all views
    of the read-only day matrix kept as `days` (copied unless it is one).
    Raises InsufficientTrainingDays below `config.min_training_days` days."""
    days = _freeze(days)
    if days.ndim != 2 or days.shape[1] < 1:
        raise ValueError("days must be 2-D, with at least one slot")
    needed = config.min_training_days
    if len(days) < needed:
        raise InsufficientTrainingDays(
            f"weighted k-NN with D={config.depth_days}, k={config.neighbors} "
            f"needs >= {needed} training days, have {len(days)}"
        )
    model = KnnModel(config, *_pairs(days, config.depth_days))
    object.__setattr__(model, "days", days)
    return model


def _pairs(days: np.ndarray, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """`from_days`' layout, as views of `days`: context j is rows
    j..j+D-1 raveled, target j is row j + D."""
    per_day = days.shape[1]
    windows = sliding_window_view(days.ravel(), depth * per_day)[::per_day]
    return windows[: len(days) - depth], days[depth:]


def _weights(sorted_distances: np.ndarray) -> np.ndarray:
    """Each row's blend weights for its k nearest of k+1 ascending distances.

    w(l) = (d(k+1) - d(l)) / (d(k+1) - d(1)), so the nearest neighbor gets
    weight 1 and the weights fall to 0 at the (k+1)-th distance. When all
    k+1 distances coincide the formula is 0/0; the natural limit is a
    uniform blend, so every weight is 1. Unchecked: `blend_nearest`
    ranks the distances before they reach it.
    """
    k = sorted_distances.shape[1] - 1
    farthest = sorted_distances[:, k:]
    span = farthest - sorted_distances[:, :1]
    flat = span[:, 0] == 0
    weights = (farthest - sorted_distances[:, :k]) / np.where(flat[:, None], 1.0, span)
    weights[flat] = 1.0
    return weights


def rank_nearest(distances: np.ndarray, count: int) -> np.ndarray:
    """Each row's first `count` pair positions (all of them when it has
    fewer), nearest first, ties broken by earlier pair: the first `count`
    columns of a stable argsort over chronologically stored pairs.

    One selection finds each row's count-th smallest distance; only the
    pairs not above it are sorted, by row and then distance. That sort
    is stable and the candidates come in pair order, so a tie goes to the
    earlier pair. NaN ranks last, as in argsort: it is never above a
    bound, and a NaN bound keeps the whole row.
    """
    count = min(count, distances.shape[1])
    bound = np.partition(distances, count - 1, axis=1)[:, count - 1 : count]
    row, col = np.nonzero(~(distances > bound))
    ranked = np.lexsort((distances[row, col], row))
    starts = np.searchsorted(row, np.arange(len(distances)))
    return col[ranked][starts[:, np.newaxis] + np.arange(count)]


def blend_nearest(
    distances: np.ndarray, targets: np.ndarray, neighbors: int, order: np.ndarray | None = None
) -> np.ndarray:
    """One forecast per row of a (queries, pairs) distance array.

    Each row's `neighbors` + 1 nearest pairs are selected by
    `rank_nearest` (stable tie rule); the `neighbors` nearest targets are
    blended by normalized `_weights`. `order` is that ranking, at least
    `neighbors` + 1 columns wide, when the caller already holds it, so
    several neighbor counts can read one selection.
    """
    if order is None:
        order = rank_nearest(distances, neighbors + 1)
    order = order[:, : neighbors + 1]
    weights = _weights(np.take_along_axis(distances, order, axis=1))
    nearest = targets[order[:, :neighbors]]
    blend = np.matmul(weights[:, np.newaxis, :], nearest)[:, 0, :]
    return blend / weights.sum(axis=1, keepdims=True)


def day_distances(days: np.ndarray, day: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of each of `days` (..., M) to `day`."""
    diff = days - day
    return np.einsum("...m,...m->...", diff, diff)


def day_table(query_days: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """T[r, s], the `day_distances` of query day r to pool day s, for
    (R, M) query days and (S, M) pool days. Built one query day at a
    time, so no R x S x M array is held."""
    table = np.empty((len(query_days), len(pool)))
    for row, day in enumerate(query_days):
        table[row] = day_distances(pool, day)
    return table


def context_distances(table: np.ndarray, depth: int, pairs: int, stride: int = 1) -> np.ndarray:
    """Context distances read from a (R, S) `day_table`, one row per
    window of D consecutive query days (query r is rows r..r+D-1) and one
    column per pair (pair j is columns j*stride..j*stride+D-1): the sqrt
    of the D day terms added oldest day first."""
    queries = table.shape[0] - depth + 1
    return np.sqrt(sum(
        table[i : i + queries, i : i + stride * pairs : stride] for i in range(depth)
    ))


def _distances(model: KnnModel, query_days: np.ndarray) -> np.ndarray:
    """`context_distances` of every window of D consecutive `query_days`,
    bounded as stored pairs are so that every distance is finite, to every
    stored context. The pool is `days` for a `from_days` model, else each
    context's own D day slices."""
    # NaN and infinities fail the comparison too
    if not np.all(np.abs(query_days) <= MAX_POWER_W):
        raise ValueError(f"query days must be finite, at most {MAX_POWER_W:g} W in magnitude")
    depth = model.config.depth_days
    if model.days is not None:
        pool, stride = model.days, 1
    else:
        pool, stride = model.contexts.reshape(-1, model.samples_per_day), depth
    return context_distances(day_table(query_days, pool), depth, model.pair_count, stride)


def _check_query_length(model: KnnModel, length: int, ndim: int = 1) -> None:
    if ndim != 1 or length != model.context_length:
        raise DimensionMismatch(
            f"query length {length} != stored context length {model.context_length}"
        )


def predict_day(model: KnnModel, context) -> np.ndarray:
    """Forecast one day from a query context, read as D days of M slots."""
    query = np.asarray(context, dtype=float)
    _check_query_length(model, query.size, query.ndim)
    distances = _distances(model, query.reshape(model.config.depth_days, -1))
    return blend_nearest(distances, model.targets, model.config.neighbors)[0]


def forecast_days(model: KnnModel, series: SolarSeries, day_indices) -> np.ndarray:
    """One forecast row per day of `day_indices` (any order, repeats
    allowed), each `predict_day` on the `history_days` days of `series`
    before it, from one `day_table` of the series days from the first
    one read to the last; raises InsufficientHistory when any of them is
    missing."""
    depth = model.history_days
    for day in day_indices:
        require_history(series, day, depth)
    indices = np.asarray(day_indices, dtype=int).reshape(-1)
    if not indices.size:
        return np.empty((0, model.target_length))
    _check_query_length(model, depth * series.grid.samples_per_day)
    first = indices.min()
    distances = _distances(model, series.rows(range(first - depth, indices.max())))
    return blend_nearest(distances[indices - first], model.targets, model.config.neighbors)
