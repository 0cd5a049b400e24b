"""Weighted k-nearest-neighbor day-ahead prediction.

A query day is matched against stored (context, target) pairs, where the
context is the concatenation of the D days preceding the target day. The
k most similar contexts (Euclidean distance) are blended with weights
that fall off linearly from the nearest match toward the (k+1)-th
distance, then normalized to sum to one.
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


@dataclass(frozen=True, eq=False)
class KnnModel:
    """Stored training pairs: contexts (P, D*M) and targets (P, M), both
    in watts, rows in chronological order of the target day."""

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


def fit(train: SolarSeries, config: KnnConfig) -> KnnModel:
    """Build one (context, target) pair per day with D full days of history.

    A series of N days yields N - D pairs: targets are rows D..N-1 of
    `train.power`, and column block j of the contexts is rows j..N-D-1+j,
    so each context is its target day's `day_context`. Training requires
    at least D + k + 1 days so the predictor can always reach the (k+1)-th
    distance.
    """
    needed = config.depth_days + config.neighbors + 1
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
    k = d.size - 1
    span = d[k] - d[0]
    if span == 0:
        return np.ones(k)
    return (d[k] - d[:k]) / span


def predict_day(model: KnnModel, context) -> np.ndarray:
    """Forecast one day from a query context.

    Distances to every stored context are ranked ascending with ties broken
    by earlier day index (stable sort over chronologically stored pairs);
    the k nearest targets are blended by normalized neighbor weights.
    """
    query = np.asarray(context, dtype=float)
    if query.ndim != 1 or query.size != model.context_length:
        raise DimensionMismatch(
            f"query length {query.size} != stored context length "
            f"{model.context_length}"
        )
    distances = np.sqrt(np.sum((model.contexts - query) ** 2, axis=1))
    order = np.argsort(distances, kind="stable")
    k = model.config.neighbors
    weights = neighbor_weights(distances[order[: k + 1]])
    blend = weights @ model.targets[order[:k]] / weights.sum()
    return blend


def forecast_day(model: KnnModel, series: SolarSeries, day_index: int) -> np.ndarray:
    """Forecast day `day_index` from the D days of `series` before it;
    raises InsufficientHistory when any of them is missing."""
    return predict_day(model, day_context(series, day_index, model.config.depth_days))
