"""Weighted k-nearest-neighbor day-ahead prediction.

A query day is matched against stored (context, target) pairs, where the
context is the concatenation of the D days preceding the target day. The
k most similar contexts (Euclidean distance) are blended with weights
that fall off linearly from the nearest match toward the (k+1)-th
distance, then normalized to sum to one. `predict_day` and the tuner in
`evaluation` share one distance rule: a day's squared distance is the
difference dotted with itself along the slot axis (`day_distances`), and
a context's is the square root of its D day terms added oldest day
first (`context_distances`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InsufficientTrainingDays, UnsortedDistances
from .timeseries import SolarSeries, day_context


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
    must split into D days of M slots."""

    config: KnnConfig
    contexts: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        contexts = np.array(self.contexts, dtype=float)
        targets = np.array(self.targets, dtype=float)
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
        if not (np.all(np.isfinite(contexts)) and np.all(np.isfinite(targets))):
            raise ValueError("stored pairs must be finite")
        contexts.flags.writeable = False
        targets.flags.writeable = False
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
    """Build one (context, target) pair per day with D full days of history.

    A series of N days yields N - D pairs: targets are rows D..N-1 of
    `train.power`, and column block j of the contexts is rows j..N-D-1+j,
    so each context is its target day's `day_context`. Training requires
    at least `config.min_training_days` days.
    """
    needed = config.min_training_days
    if train.num_days < needed:
        raise InsufficientTrainingDays(
            f"weighted k-NN with D={config.depth_days}, k={config.neighbors} "
            f"needs >= {needed} training days, have {train.num_days}"
        )
    depth = config.depth_days
    power = train.power
    pairs = train.num_days - depth
    contexts = np.hstack([power[j : j + pairs] for j in range(depth)])
    return KnnModel(config=config, contexts=contexts, targets=power[depth:])


def neighbor_weights(sorted_distances) -> np.ndarray:
    """Blend weights for the k nearest of k+1 ascending distances.

    w(l) = (d(k+1) - d(l)) / (d(k+1) - d(1)), so the nearest neighbor gets
    weight 1 and the weights fall to 0 at the (k+1)-th distance. When all
    k+1 distances coincide the formula is 0/0; the natural limit is a
    uniform blend, so every weight is 1.
    """
    d = np.asarray(sorted_distances, dtype=float)
    if d.ndim != 1 or d.size < 2:
        raise ValueError("need at least two distances (k >= 1 plus one)")
    if np.any(d < 0):
        raise ValueError("distances must be non-negative")
    if np.any(np.diff(d) < 0):
        raise UnsortedDistances("distances must be in ascending order")
    return _weights(d[np.newaxis])[0]


def _weights(sorted_distances: np.ndarray) -> np.ndarray:
    """`neighbor_weights` of each row of a (rows, k+1) array, unchecked."""
    k = sorted_distances.shape[1] - 1
    farthest = sorted_distances[:, k:]
    span = farthest - sorted_distances[:, :1]
    flat = span[:, 0] == 0
    weights = (farthest - sorted_distances[:, :k]) / np.where(flat[:, None], 1.0, span)
    weights[flat] = 1.0
    return weights


def blend_nearest(distances: np.ndarray, targets: np.ndarray, neighbors: int) -> np.ndarray:
    """One forecast per row of a (queries, pairs) distance array.

    Each row's distances are ranked ascending with ties broken by earlier
    pair (stable sort over chronologically stored pairs); the `neighbors`
    nearest targets are blended by normalized `neighbor_weights`.
    """
    order = np.argsort(distances, axis=1, kind="stable")[:, : neighbors + 1]
    weights = _weights(np.take_along_axis(distances, order, axis=1))
    nearest = targets[order[:, :neighbors]]
    blend = np.matmul(weights[:, np.newaxis, :], nearest)[:, 0, :]
    return blend / weights.sum(axis=1, keepdims=True)


def day_distances(days: np.ndarray, day: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of each of `days` (..., M) to `day`."""
    diff = days - day
    return np.einsum("...m,...m->...", diff, diff)


def context_distances(day_terms) -> np.ndarray:
    """sqrt of the D per-day squared distances, added oldest day first."""
    return np.sqrt(sum(day_terms))


def predict_day(model: KnnModel, context) -> np.ndarray:
    """Forecast one day from a query context: `blend_nearest` over the
    `context_distances` to every stored context, read as (D, M) days."""
    query = np.asarray(context, dtype=float)
    if query.ndim != 1 or query.size != model.context_length:
        raise DimensionMismatch(
            f"query length {query.size} != stored context length "
            f"{model.context_length}"
        )
    days = model.contexts.reshape(model.pair_count, model.config.depth_days, -1)
    distances = context_distances(day_distances(days, query.reshape(days.shape[1:])).T)
    return blend_nearest(distances[np.newaxis], model.targets, model.config.neighbors)[0]


def forecast_days(model: KnnModel, series: SolarSeries, day_indices) -> np.ndarray:
    """One forecast row per day of `day_indices`, each `predict_day` on
    the `history_days` days of `series` before it; raises
    InsufficientHistory when any of them is missing."""
    rows = [
        predict_day(model, day_context(series, day, model.history_days))
        for day in day_indices
    ]
    return np.array(rows).reshape(len(rows), model.target_length)
