"""Weighted k-nearest-neighbor predictor.

The oracle below re-implements the blending rule from scratch (sort all
distances, take the k nearest, weight by the (k+1)-th distance) without
touching the library internals, so the two routes stay independent.
"""

import re
from datetime import date as Date

import numpy as np
import pytest

from conftest import make_series
from twotier.errors import (
    DimensionMismatch,
    InsufficientHistory,
    InsufficientTrainingDays,
)
from twotier.knn import (
    KnnConfig,
    KnnModel,
    _weights,
    fit,
    forecast_days,
    from_days,
    predict_day,
)
from twotier.timeseries import MAX_POWER_W, day_context


def oracle_predict(contexts, targets, query, k):
    """Brute-force re-implementation of the weighted blend."""
    contexts = np.asarray(contexts, dtype=float)
    targets = np.asarray(targets, dtype=float)
    dist = [float(np.sqrt(np.sum((c - query) ** 2))) for c in contexts]
    order = sorted(range(len(dist)), key=lambda i: (dist[i], i))
    chosen = order[:k]
    d1, dk1 = dist[order[0]], dist[order[k]]
    if dk1 == d1:
        weights = [1.0] * k
    else:
        weights = [(dk1 - dist[i]) / (dk1 - d1) for i in chosen]
    total = sum(weights)
    out = np.zeros(targets.shape[1])
    for w, i in zip(weights, chosen):
        out += (w / total) * targets[i]
    return out


class TestConfig:
    def test_k_must_be_at_least_2(self):
        with pytest.raises(ValueError):
            KnnConfig(depth_days=5, neighbors=1)

    def test_depth_positive(self):
        with pytest.raises(ValueError):
            KnnConfig(depth_days=0, neighbors=2)


class TestModel:
    def test_context_must_split_into_days(self):
        with pytest.raises(ValueError, match="does not split into depth_days = 2 days"):
            KnnModel(KnnConfig(depth_days=2, neighbors=2), np.zeros((3, 5)), np.zeros((3, 2)))

    @pytest.mark.parametrize("contexts, targets, message", [
        (np.zeros(12), np.zeros((3, 2)), "^contexts and targets must be 2-D$"),
        (np.zeros((3, 4)), np.zeros(6), "^contexts and targets must be 2-D$"),
        (np.zeros((3, 4)), np.zeros((2, 2)), "^contexts and targets must have one row per pair$"),
        (np.zeros((2, 4)), np.zeros((2, 2)), r"^need at least k\+1 = 3 pairs, have 2$"),
    ], ids=["flat-contexts", "flat-targets", "row-counts-differ", "k-pairs"])
    def test_malformed_pairs_rejected(self, contexts, targets, message):
        with pytest.raises(ValueError, match=message):
            KnnModel(KnnConfig(depth_days=2, neighbors=2), contexts, targets)

    def test_samples_per_day(self):
        model = KnnModel(KnnConfig(depth_days=3, neighbors=2), np.zeros((3, 12)), np.zeros((3, 4)))
        assert model.samples_per_day == 4


    def test_pairs_copied_unless_already_read_only(self):
        config = KnnConfig(depth_days=2, neighbors=2)
        contexts, targets = np.zeros((3, 4)), np.zeros((3, 2))
        model = KnnModel(config, contexts, targets)
        contexts[0, 0] = targets[0, 0] = 1.0
        assert not model.contexts.any() and not model.targets.any()
        assert not (model.contexts.flags.writeable or model.targets.flags.writeable)
        again = KnnModel(config, model.contexts, model.targets)
        assert again.contexts is model.contexts and again.targets is model.targets
        assert model.days is None and again.days is None


class TestFit:
    def test_fitted_model_holds_each_day_once(self):
        series = make_series(np.random.default_rng(3).uniform(0, 9, (12, 96)))
        model = fit(series, KnnConfig(depth_days=5, neighbors=2))
        assert model.days.tobytes() == series.power.tobytes()
        for pairs in (model.contexts, model.targets):
            assert np.shares_memory(model.days, pairs) and not pairs.flags.writeable

    def test_30_days_depth_5_gives_25_pairs(self):
        series = make_series(np.random.default_rng(0).uniform(0, 100, (30, 96)))
        model = fit(series, KnnConfig(depth_days=5, neighbors=2))
        assert model.pair_count == 25

    def test_7_days_depth_5_insufficient(self):
        series = make_series(np.zeros((7, 96)))
        with pytest.raises(InsufficientTrainingDays):
            fit(series, KnnConfig(depth_days=5, neighbors=2))

    @pytest.mark.parametrize("shape", [(10,), (10, 0), (10, 4, 2)])
    def test_days_must_be_2d_with_a_slot(self, shape):
        with pytest.raises(ValueError, match="^days must be 2-D, with at least one slot$"):
            from_days(KnnConfig(depth_days=2, neighbors=2), np.zeros(shape))

    def test_8_days_is_exactly_enough(self):
        series = make_series(np.random.default_rng(1).uniform(0, 9, (8, 96)))
        model = fit(series, KnnConfig(depth_days=5, neighbors=2))
        assert model.pair_count == 3

    def test_pair_shapes(self):
        series = make_series(np.random.default_rng(2).uniform(0, 9, (12, 96)))
        model = fit(series, KnnConfig(depth_days=5, neighbors=2))
        assert model.context_length == 480
        assert model.target_length == 96

    def test_pairs_stored_chronologically(self):
        rows = np.arange(10 * 4, dtype=float).reshape(10, 4)
        series = make_series(rows, interval_seconds=21600)
        model = fit(series, KnnConfig(depth_days=2, neighbors=2))
        # first eligible target day is index 2; its context is days 0,1
        assert np.array_equal(model.targets[0], rows[2])
        assert np.array_equal(model.contexts[0], np.concatenate([rows[0], rows[1]]))
        assert np.array_equal(model.targets[-1], rows[9])


def weights_of(distances):
    """`_weights` of one row of k+1 ascending distances."""
    return _weights(np.array([distances], dtype=float))[0]


class TestNeighborWeights:
    def test_hand_example_1_2_4(self):
        w = weights_of([1.0, 2.0, 4.0])
        assert w == pytest.approx([1.0, 2.0 / 3.0], abs=1e-12)

    def test_degenerate_all_equal(self):
        assert list(weights_of([3.0, 3.0, 3.0])) == [1.0, 1.0]

    def test_hand_example_0_5_10(self):
        w = weights_of([0.0, 5.0, 10.0])
        assert w == pytest.approx([1.0, 0.5], abs=1e-12)

    def test_first_weight_is_one_and_nonincreasing(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            dist = np.sort(rng.uniform(0, 100, size=rng.integers(3, 8)))
            w = weights_of(dist)
            if dist[-1] > dist[0]:
                assert w[0] == pytest.approx(1.0)
            assert np.all(np.diff(w) <= 1e-12)
            assert np.all((0 <= w) & (w <= 1))


class TestPredict:
    def test_hand_example_14_24(self):
        # contexts placed so distances to the query are exactly 1, 2, 4
        contexts = np.array([[1.0], [2.0], [4.0]])
        targets = np.array([[10.0, 20.0], [20.0, 30.0], [70.0, 70.0]])
        model = KnnModel(KnnConfig(depth_days=1, neighbors=2), contexts, targets)
        pred = predict_day(model, np.array([0.0]))
        assert pred == pytest.approx([14.0, 24.0], abs=1e-12)

    def test_identical_targets_blend_to_same(self):
        contexts = np.array([[0.0], [3.0], [9.0], [17.0]])
        targets = np.tile([42.0, 7.0], (4, 1))
        model = KnnModel(KnnConfig(depth_days=1, neighbors=2), contexts, targets)
        pred = predict_day(model, np.array([5.0]))
        assert pred == pytest.approx([42.0, 7.0], abs=1e-12)

    def test_dimension_mismatch(self):
        contexts = np.zeros((3, 4))
        targets = np.zeros((3, 2))
        model = KnnModel(KnnConfig(depth_days=2, neighbors=2), contexts, targets)
        with pytest.raises(DimensionMismatch):
            predict_day(model, np.zeros(7))

    def test_pairs_of_a_fitted_model_forecast_as_it(self):
        # a context's own day slices (the stride path) and the day matrix
        # give the same bits
        days = np.random.default_rng(16).uniform(0.0, 900.0, (12, 4))
        fitted = from_days(KnnConfig(depth_days=3, neighbors=2), days)
        pairs = KnnModel(fitted.config, fitted.contexts, fitted.targets)
        assert pairs.days is None
        for query in np.random.default_rng(17).uniform(0.0, 900.0, (200, 12)):
            assert predict_day(pairs, query).tobytes() == predict_day(fitted, query).tobytes()

    def test_query_of_the_context_size_but_not_one_row(self):
        # D = 2 days of M = 4 slots as a (2, 4) block: 8 values, not a context
        model = from_days(KnnConfig(depth_days=2, neighbors=2), np.zeros((5, 4)))
        message = "query shape (2, 4) != stored context shape (8,)"
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            predict_day(model, np.zeros((2, 4)))

    def test_oracle_equivalence_100_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            pairs = rng.integers(4, 9)
            dim = rng.integers(1, 6)
            k = int(rng.integers(2, min(4, pairs - 1) + 1))
            contexts = rng.uniform(0, 50, (pairs, dim))
            targets = rng.uniform(0, 50, (pairs, 3))
            query = rng.uniform(0, 50, dim)
            model = KnnModel(KnnConfig(depth_days=1, neighbors=k), contexts, targets)
            got = predict_day(model, query)
            want = oracle_predict(contexts, targets, query, k)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_prediction_inside_neighbor_envelope(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            contexts = rng.uniform(0, 10, (6, 3))
            targets = rng.uniform(0, 10, (6, 4))
            query = rng.uniform(0, 10, 3)
            model = KnnModel(KnnConfig(depth_days=1, neighbors=3), contexts, targets)
            pred = predict_day(model, query)
            dist = np.sqrt(np.sum((contexts - query) ** 2, axis=1))
            chosen = np.argsort(dist, kind="stable")[:3]
            lo = targets[chosen].min(axis=0) - 1e-9
            hi = targets[chosen].max(axis=0) + 1e-9
            assert np.all((pred >= lo) & (pred <= hi))

    def test_storage_permutation_invariance(self):
        # distinct distances: the blend cannot depend on row order
        rng = np.random.default_rng(12)
        contexts = rng.uniform(0, 10, (6, 3))
        targets = rng.uniform(0, 10, (6, 4))
        query = rng.uniform(0, 10, 3)
        base = predict_day(
            KnnModel(KnnConfig(depth_days=1, neighbors=2), contexts, targets), query
        )
        perm = rng.permutation(6)
        shuffled = predict_day(
            KnnModel(KnnConfig(depth_days=1, neighbors=2), contexts[perm], targets[perm]),
            query,
        )
        assert np.allclose(base, shuffled, atol=1e-12)

    def test_common_scaling_keeps_neighbor_set(self):
        rng = np.random.default_rng(13)
        contexts = rng.uniform(1, 10, (6, 3))
        targets = np.eye(6)  # one-hot targets expose which rows were blended
        query = rng.uniform(1, 10, 3)
        k = 2
        base = predict_day(
            KnnModel(KnnConfig(depth_days=1, neighbors=k), contexts, targets), query
        )
        scaled = predict_day(
            KnnModel(KnnConfig(depth_days=1, neighbors=k), contexts * 3.5, targets),
            query * 3.5,
        )
        assert set(np.nonzero(base)[0]) == set(np.nonzero(scaled)[0])


class TestQueryBound:
    """A query is bounded like the stored pairs, so no distance overflows
    and no forecast is NaN; both query paths read it through one check."""

    MESSAGE = "^" + re.escape(
        f"query days must be finite, at most {MAX_POWER_W:g} W in magnitude") + "$"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300, -1e300])
    def test_unscorable_query_raises(self, bad):
        model = from_days(KnnConfig(2, 2), np.arange(20.0).reshape(10, 2))
        with pytest.raises(ValueError, match=self.MESSAGE):
            predict_day(model, [bad, 1.0, 2.0, 3.0])

    def test_unscorable_series_day_raises(self):
        rows = np.random.default_rng(16).uniform(0, 900, (12, 4))
        model = fit(make_series(rows, interval_seconds=21600), KnnConfig(2, 2))
        rows[9, 2] = 1e300
        series = make_series(rows, interval_seconds=21600)
        forecast_days(model, series, [series.first_index + 9])
        with pytest.raises(ValueError, match=self.MESSAGE):
            forecast_days(model, series, [series.first_index + 10])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_query_at_the_bound_forecasts_finite_values(self):
        model = from_days(KnnConfig(2, 2), np.arange(20.0).reshape(10, 2))
        for query in ([MAX_POWER_W, 1.0, 2.0, 3.0], [-MAX_POWER_W] * 4, [MAX_POWER_W] * 4):
            assert np.all(np.isfinite(predict_day(model, query)))
        rows = np.full((12, 4), MAX_POWER_W)
        series = make_series(rows, interval_seconds=21600)
        model = fit(series, KnnConfig(2, 2))
        first = series.first_index
        assert np.all(np.isfinite(forecast_days(model, series, range(first + 2, first + 13))))


class TestForecastDay:
    @pytest.mark.parametrize("depth", [1, 3])
    def test_equals_predict_on_day_context(self, depth):
        rows = np.random.default_rng(14).uniform(0, 900, (12, 4))
        series = make_series(rows, start=Date(2015, 2, 18), interval_seconds=21600)
        model = fit(series, KnnConfig(depth_days=depth, neighbors=2))
        # every day with D preceding days, and the day after the last one
        first = series.first_index
        days = range(first + depth, first + 12 + 1)
        want = [predict_day(model, day_context(series, day, depth)) for day in days]
        assert np.array_equal(forecast_days(model, series, days), want)
        assert forecast_days(model, series, []).shape == (0, 4)

    @pytest.mark.parametrize("depth", [1, 3])
    def test_first_day_without_d_preceding_days_raises(self, depth):
        rows = np.random.default_rng(15).uniform(0, 900, (12, 4))
        series = make_series(rows, start=Date(2015, 2, 18), interval_seconds=21600)
        model = fit(series, KnnConfig(depth_days=depth, neighbors=2))
        first = series.first_index
        forecast_days(model, series, [first + depth])
        with pytest.raises(InsufficientHistory) as err:
            forecast_days(model, series, [first + depth, first + depth - 1])
        needed = {1: "2015-02-18 needs 2015-02-17..2015-02-17",
                  3: "2015-02-20 needs 2015-02-17..2015-02-19"}[depth]
        assert str(err.value) == f"{needed}; series covers 2015-02-18..2015-03-01"

    def test_first_day_in_order_lacking_history_named(self):
        # of two days lacking history, the later one comes first
        rows = np.random.default_rng(15).uniform(0, 900, (12, 4))
        series = make_series(rows, start=Date(2015, 2, 18), interval_seconds=21600)
        model = fit(series, KnnConfig(depth_days=1, neighbors=2))
        first, last = series.first_index, series.last_index
        with pytest.raises(InsufficientHistory) as err:
            forecast_days(model, series, [first + 3, last + 2, first])
        assert str(err.value) == (
            "2015-03-03 needs 2015-03-02..2015-03-02; series covers 2015-02-18..2015-03-01")
