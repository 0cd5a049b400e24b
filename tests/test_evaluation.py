"""RMSE, tuning grids, and the four-method comparison report."""

import dataclasses
import io
import math

import numpy as np
import pytest

from conftest import make_series, repeating_clear_days
from twotier import correction, knn, nn
from twotier.errors import (
    EmptyInput,
    InsufficientHistory,
    InsufficientTrainingDays,
    LengthMismatch,
    UnknownDate,
)
from twotier.evaluation import (
    DEFAULT_DEPTH_CANDIDATES,
    DEFAULT_HIDDEN_CANDIDATES,
    DEFAULT_NEIGHBOR_CANDIDATES,
    GLOBAL_TIERS,
    TuneGrid,
    compare_methods,
    daily_rmse,
    improvement,
    improvement_text,
    render_grid,
    render_report,
    replay_days,
    rmse,
    score_replay,
    tune_knn,
    tune_nn,
    write_report_csv,
)
from twotier.synth import SynthConfig, generate
from twotier.timeseries import DatasetSplit, split_chronological


# every method in report order, as `evaluate` prints them
LABELS = ("knn", "nn", "knn+local", "nn+local")


def rmse_oracle(p, a):
    """Plain running-sum RMSE, no numpy vectorization."""
    total = 0.0
    for x, y in zip(p, a):
        total += (x - y) ** 2
    return math.sqrt(total / len(p))


class TestRmse:
    def test_identical_is_zero(self):
        v = np.linspace(0, 10, 7)
        assert rmse(v, v) == 0.0

    def test_hand_example_sqrt2(self):
        assert abs(rmse([3.0, 1.0], [1.0, 1.0]) - math.sqrt(2)) < 1e-12

    def test_oracle_on_random_length_96(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            p = rng.uniform(0, 35000, 96)
            a = rng.uniform(0, 35000, 96)
            assert abs(rmse(p, a) - rmse_oracle(p, a)) < 1e-12 * max(1.0, rmse_oracle(p, a))

    def test_symmetry(self):
        rng = np.random.default_rng(62)
        p, a = rng.uniform(0, 9, 20), rng.uniform(0, 9, 20)
        assert rmse(p, a) == rmse(a, p)

    def test_constant_offset(self):
        v = np.random.default_rng(63).uniform(0, 9, 30)
        assert rmse(v, v + 2.5) == pytest.approx(2.5, abs=1e-12)

    def test_length_mismatch_and_empty(self):
        with pytest.raises(LengthMismatch):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(EmptyInput):
            rmse([], [])
        with pytest.raises(LengthMismatch):
            rmse(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_daily_rmse_scores_each_row_of_a_block(self):
        rng = np.random.default_rng(64)
        p, a = rng.uniform(0, 9, (2, 3, 7)), rng.uniform(0, 9, (2, 3, 7))
        scores = daily_rmse(p, a)
        assert scores.shape == (2, 3)
        assert scores.tolist() == [[rmse(p[i, j], a[i, j]) for j in range(3)]
                                   for i in range(2)]

    def test_daily_rmse_mismatch_and_empty(self):
        with pytest.raises(LengthMismatch):
            daily_rmse(np.zeros((2, 3)), np.zeros((3, 2)))
        with pytest.raises(EmptyInput):
            daily_rmse(np.zeros((2, 0)), np.zeros((2, 0)))


class TestImprovement:
    def test_28_percent(self):
        assert improvement(100.0, 72.0) == pytest.approx(28.0, abs=1e-12)

    def test_zero_baseline_is_undefined(self):
        assert improvement(0.0, 5.0) is None

    def test_text(self):
        assert improvement_text(None) == "n/a"
        assert improvement_text(67.1449) == "67.14%"
        assert improvement_text(-3.0) == "-3.00%"

    def test_degradation_goes_negative(self):
        assert improvement(100.0, 130.0) == pytest.approx(-30.0)

    def test_baseline_below_one_ulp_of_scale_is_undefined(self):
        ulp = np.spacing(35000.0)  # 7.3e-12 W
        assert improvement(5.25e-13, 5.87e-13, 35000.0) is None
        assert improvement(ulp * 0.99, 0.0, 35000.0) is None
        assert improvement(ulp, 0.0, 35000.0) == 100.0

    def test_rounding_level_average_has_no_improvement(self):
        series = repeating_clear_days()
        split = split_chronological(series, (0.6, 0.2, 0.2))
        km = knn.fit(split.train, knn.KnnConfig())
        nm = nn.build(nn.NnConfig(hidden_neurons=3), seed=3, scale_max=30000.0)
        report = compare_methods(series, series.subseries(38, 39), km, nm)
        assert 0 < report.averaged_rmse["knn"] < 1e-11
        assert report.improvement_percent[("knn", "knn+local")] is None
        assert report.improvement_percent[("nn", "nn+local")] is not None
        assert "improvement knn+local vs knn: n/a" in render_report(report).splitlines()


class TestTuneGridShape:
    def test_single_candidate_normalizes_to_one(self):
        grid = TuneGrid("D", (5,), (1234.5,))
        assert grid.normalized == (1.0,)
        assert grid.best == 5
        assert grid.reference_rmse == 1234.5

    def test_max_normalized_exactly_one(self):
        grid = TuneGrid("D", (1, 2, 3), (50.0, 80.0, 20.0))
        assert max(grid.normalized) == 1.0
        assert grid.normalized[1] == 1.0

    def test_argmin_preserved(self):
        raw = (50.0, 80.0, 20.0, 35.0)
        grid = TuneGrid("k", (2, 3, 4, 5), raw)
        assert grid.best == 4
        assert min(range(4), key=lambda i: raw[i]) == grid.normalized.index(min(grid.normalized))

    def test_unavailable_cells_skipped(self):
        grid = TuneGrid("D", (1, 2, 3), (None, 60.0, 30.0))
        assert grid.normalized[0] is None
        assert grid.normalized[1] == 1.0
        assert grid.best == 3

    def test_exact_candidate_normalizes_to_zero(self):
        grid = TuneGrid("k", (2, 3, 4), (0.0, 5.0, 2.5))
        assert grid.normalized == (0.0, 1.0, 0.5)
        assert grid.best == 2

    def test_all_zero_row_is_flat_ones(self):
        grid = TuneGrid("k", (2, 3), (0.0, 0.0))
        assert grid.normalized == (1.0, 1.0)
        assert grid.reference_rmse == 0.0

    def test_stores_only_its_inputs(self):
        # best is the one stored result: the winner tune prints and writes
        assert [f.name for f in dataclasses.fields(TuneGrid)] == [
            "axis_label", "candidates", "raw_rmse", "best"]
        grid = TuneGrid("k", [2, 3], [1, None])
        assert (grid.candidates, grid.raw_rmse, grid.best) == ((2, 3), (1.0, None), 2)

    def test_given_best_is_kept(self):
        # one axis of a larger search names that search's winner
        assert TuneGrid("k", (2, 3), (1.0, 1.0), best=3).best == 3

    def test_tie_goes_to_smaller_candidate(self):
        assert TuneGrid("k", (4, 2, 3), (1.0, 1.0, 2.0)).best == 2

    def test_columns_must_agree_in_length(self):
        with pytest.raises(LengthMismatch):
            TuneGrid("k", (2, 3), (1.0,))

    def test_every_candidate_untrainable_rejected(self):
        with pytest.raises(InsufficientTrainingDays, match="axis k was untrainable"):
            TuneGrid("k", (2, 3), (None, None))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_rmse_rejected(self, bad):
        with pytest.raises(ValueError, match="finite and >= 0"):
            TuneGrid("k", (2, 3), (1.0, bad))

    def test_footnote_format(self):
        grid = TuneGrid("D", (1,), (4943.61,))
        assert grid.footnote() == "RMSE 4943.6 is normalized to 1"

    @pytest.mark.parametrize("raw, shown", [
        ((0.0, 9.189197690664925e-13), "9.19e-13"),
        ((0.0, 0.0499), "0.0499"),
        ((0.0, 0.05), "0.1"),  # one decimal shows it as positive already
        ((0.0, 0.0), "0.0"),
    ])
    def test_footnote_tells_tiny_reference_from_zero(self, raw, shown):
        grid = TuneGrid("k", (2, 3), raw)
        assert grid.footnote() == f"RMSE {shown} is normalized to 1"


@pytest.fixture(scope="module")
def synth_split():
    result = generate(SynthConfig(), 50)
    return split_chronological(result.series, (0.6, 0.2, 0.2)), result


@pytest.fixture(scope="module")
def fitted_models(synth_split):
    split, _ = synth_split
    km = knn.fit(split.train, knn.KnnConfig())
    nm = nn.fit_day_ahead(split.train, nn.NnConfig())
    return km, nm


class TestTuneKnn:
    def test_default_candidate_ranges(self):
        assert tuple(DEFAULT_DEPTH_CANDIDATES) == (1, 2, 3, 4, 5, 6, 7, 8)
        assert tuple(DEFAULT_NEIGHBOR_CANDIDATES) == (2, 3, 4)

    def test_grid_8_by_3_fully_populated(self, synth_split):
        split, _ = synth_split
        result = tune_knn(split)
        assert len(result.cell_rmse) == 24
        assert all(cell[2] is not None for cell in result.cell_rmse)
        assert result.depth_grid.candidates == tuple(range(1, 9))
        assert result.neighbors_grid.candidates == (2, 3, 4)
        assert max(v for v in result.depth_grid.normalized if v is not None) == 1.0

    def test_best_cell_is_grid_minimum(self, synth_split):
        split, _ = synth_split
        result = tune_knn(split)
        best = min(
            (cell for cell in result.cell_rmse if cell[2] is not None),
            key=lambda cell: (cell[2], cell[0], cell[1]),
        )
        assert (result.depth_grid.best, result.neighbors_grid.best) == (best[0], best[1])

    def test_unavailable_cells_marked(self):
        # 6 train days cannot fit depth 8 with k 4 (needs 13 days)
        rows = np.random.default_rng(64).uniform(0, 100, (10, 4))
        series = make_series(rows, interval_seconds=21600)
        split = split_chronological(series, (0.6, 0.2, 0.2))
        result = tune_knn(split)
        missing = [cell for cell in result.cell_rmse if cell[2] is None]
        assert missing
        assert all(d + k + 1 > 6 for d, k, _ in missing)


class TestTuneNn:
    def test_default_candidates(self):
        assert tuple(DEFAULT_HIDDEN_CANDIDATES) == (3, 4, 5, 6, 7, 8)

    def test_grid_shape_and_determinism(self, synth_split):
        split, _ = synth_split
        config = nn.NnConfig(restarts=2, max_iterations=15)
        a = tune_nn(split, hidden_candidates=(3, 4), config=config)
        b = tune_nn(split, hidden_candidates=(3, 4), config=config)
        assert a.candidates == (3, 4)
        assert a.raw_rmse == b.raw_rmse
        assert max(a.normalized) == 1.0

    def test_averages_restarts_not_best(self, synth_split):
        # with one restart vs many, the scores must differ unless the
        # restarts all coincide; we check the averaging arithmetic instead
        split, _ = synth_split
        config = nn.NnConfig(restarts=3, max_iterations=10)
        grid = tune_nn(split, hidden_candidates=(4,), config=config)
        per_restart = []
        for model, _ in nn.fit_restarts(split.train, nn.NnConfig(
                hidden_neurons=4, restarts=3, max_iterations=10)):
            scores = []
            full = split.full_series()
            for day in split.tune.days:
                prev = full.day_by_index(day.day_index - 1)
                prev2 = full.day_by_index(day.day_index - 2)
                pred = nn.predict_day(model, prev, prev2)
                scores.append(rmse(pred, day.samples))
            per_restart.append(sum(scores) / len(scores))
        assert grid.raw_rmse[0] == pytest.approx(sum(per_restart) / 3, rel=1e-12)


class TestCompareMethods:
    def test_four_methods_reported(self, synth_split, fitted_models):
        split, _ = synth_split
        km, nm = fitted_models
        report = compare_methods(split.full_series(), split.test, km, nm)
        methods = set(report.per_day_rmse)
        assert methods == {"knn", "nn", "knn+local", "nn+local"}
        assert set(report.averaged_rmse) == methods

    def test_two_tier_beats_global_on_average(self, synth_split, fitted_models):
        split, _ = synth_split
        km, nm = fitted_models
        report = compare_methods(split.full_series(), split.test, km, nm)
        assert report.averaged_rmse["knn+local"] < report.averaged_rmse["knn"]
        assert report.averaged_rmse["nn+local"] < report.averaged_rmse["nn"]

    def test_improvements_recomputable(self, synth_split, fitted_models):
        split, _ = synth_split
        km, nm = fitted_models
        report = compare_methods(split.full_series(), split.test, km, nm)
        for (base, better), got in report.improvement_percent.items():
            expect = improvement(report.averaged_rmse[base], report.averaged_rmse[better])
            assert got == pytest.approx(expect, abs=1e-9)

    def test_averages_match_daily_rows(self, synth_split, fitted_models):
        split, _ = synth_split
        km, nm = fitted_models
        report = compare_methods(split.full_series(), split.test, km, nm)
        for method, avg in report.averaged_rmse.items():
            daily = report.per_day_rmse[method]
            assert avg == pytest.approx(sum(daily) / len(daily), rel=1e-12)

    def test_perfect_forecast_improvement_not_applicable(self):
        # hand-built models that reproduce a constant series exactly
        rows = np.full((12, 4), 700.0)
        series = make_series(rows, interval_seconds=21600)
        split = split_chronological(series, (0.6, 0.2, 0.2))
        km = knn.fit(split.train, knn.KnnConfig(depth_days=2, neighbors=2))
        nm = nn.fit_day_ahead(
            split.train, nn.NnConfig(hidden_neurons=3, restarts=2, max_iterations=150)
        )
        report = compare_methods(split.full_series(), split.test, km, nm)
        assert report.averaged_rmse["knn"] == pytest.approx(0.0, abs=1e-6)
        assert report.improvement_percent[("knn", "knn+local")] is None


class TestReplayDay:
    def test_global_forecasts_corrected_by_local_tier(self, synth_split, fitted_models):
        split, _ = synth_split
        km, nm = fitted_models
        full = split.full_series()
        days = [split.test.days[i] for i in (3, 1, 4)]
        indices = [day.day_index for day in days]
        sims = replay_days(full, indices, {"knn": km, "nn": nm}, 8, 2)
        forecasts = {
            "knn": knn.forecast_days(km, full, indices),
            "nn": nn.forecast_days(nm, full, indices),
        }
        assert list(sims) == list(forecasts)
        measured = np.stack([day.samples for day in days])
        for label, sim in sims.items():
            forecast = forecasts[label]
            assert np.array_equal(sim.global_w, forecast)
            assert np.array_equal(sim.measured_w, measured)
            for i in range(len(days)):
                want = correction.simulate_day(forecast[i], measured[i], 8, 2)
                assert np.array_equal(sim.corrected_w[i], want.corrected_w)

    def test_compare_methods_scores_replayed_days(self, synth_split, fitted_models):
        split, _ = synth_split
        km, nm = fitted_models
        full = split.full_series()
        report = compare_methods(full, split.test, km, nm)
        assert report.dates == tuple(day.date for day in split.test.days)
        assert list(report.per_day_rmse) == list(LABELS)
        for i, day in enumerate(split.test.days):
            sims = {label: sim.day(0) for label, sim in
                    replay_days(full, [day.day_index], {"knn": km, "nn": nm}).items()}
            forecasts = [sims["knn"].global_w, sims["nn"].global_w,
                         sims["knn"].corrected_w, sims["nn"].corrected_w]
            for label, forecast in zip(LABELS, forecasts):
                assert report.per_day_rmse[label][i] == rmse(forecast, day.samples)
        assert {len(values) for values in report.per_day_rmse.values()} == {len(report.dates)}

    def test_scores_equal_a_per_day_rmse_loop(self, synth_split, fitted_models):
        # the block scorer's columns and averages, bit for bit, against one
        # rmse call per day and method and a date-order sum per method
        split, _ = synth_split
        km, nm = fitted_models
        full = split.full_series()
        report = compare_methods(full, split.test, km, nm)
        sims = replay_days(full, [day.day_index for day in split.test.days],
                           {"knn": km, "nn": nm})
        scores = {label: [] for label in LABELS}
        for i, day in enumerate(split.test.days):
            forecasts = [sims["knn"].global_w[i], sims["nn"].global_w[i],
                         sims["knn"].corrected_w[i], sims["nn"].corrected_w[i]]
            for label, forecast in zip(LABELS, forecasts):
                scores[label].append(rmse(forecast, day.samples))
        assert report.dates == tuple(day.date for day in split.test.days)
        assert list(report.per_day_rmse) == list(LABELS)
        assert report.per_day_rmse == {label: tuple(values) for label, values in scores.items()}
        assert report.averaged_rmse == {
            label: sum(values) / len(values) for label, values in scores.items()
        }

    def test_report_follows_the_replayed_tiers(self, synth_split, fitted_models):
        # any tiers replayed in any order are scored in that order, then
        # their +local methods; every value equals the default replay's
        split, _ = synth_split
        km, nm = fitted_models
        full = split.full_series()
        days = [day.day_index for day in split.test.days]
        dates = [day.date for day in split.test.days]
        assert list(GLOBAL_TIERS) == ["knn", "nn"]
        default = score_replay(dates, replay_days(full, days, {"knn": km, "nn": nm}))
        assert list(default.averaged_rmse) == list(LABELS)
        for models in ({"nn": nm, "knn": km}, {"nn": nm}):
            sims = replay_days(full, days, models)
            assert list(sims) == list(models)
            report = score_replay(dates, sims)
            labels = [*models, *(f"{label}+local" for label in models)]
            assert list(report.averaged_rmse) == labels
            assert report.averaged_rmse == {label: default.averaged_rmse[label]
                                            for label in labels}
            assert report.dates == tuple(dates)
            assert list(report.per_day_rmse) == labels
            assert report.per_day_rmse == {label: default.per_day_rmse[label]
                                           for label in labels}
            pairs = [(label, f"{label}+local") for label in models]
            assert report.improvement_percent == {
                pair: default.improvement_percent[pair] for pair in pairs}
            assert list(report.improvement_percent) == pairs
            assert render_report(report).splitlines()[1].split() == ["date", *labels]
            sink = io.StringIO()
            write_report_csv(report, sink)
            averages = [row.split(",")[1] for row in sink.getvalue().splitlines()
                        if row.startswith("average,")]
            assert averages == labels

    def test_no_tier_to_score_raises_empty_input(self, synth_split):
        split, _ = synth_split
        days = [day.day_index for day in split.test.days]
        dates = [day.date for day in split.test.days]
        for replayed, sims in (([], {}), (dates, replay_days(split.full_series(), days, {}))):
            with pytest.raises(EmptyInput, match="^no global tier to score$"):
                score_replay(replayed, sims)

    def test_dates_must_match_the_replayed_days(self, synth_split):
        # one date per block row: fewer would drop rows from the per-day
        # table but not from the averages, more would have no row to read
        split, _ = synth_split
        days = [day.day_index for day in split.test.days[:3]]
        dates = [day.date for day in split.test.days[:4]]
        sims = replay_days(split.full_series(), days, {"knn": knn.fit(split.train, knn.KnnConfig())})
        for given in (dates[:1], dates[:2], dates):
            with pytest.raises(LengthMismatch, match=f"^{len(given)} dates for 3 replayed days$"):
                score_replay(given, sims)
        report = score_replay(dates[:3], sims)
        assert report.dates == tuple(dates[:3])
        assert {label: len(values) for label, values in report.per_day_rmse.items()} == {
            "knn": 3, "knn+local": 3}

    def test_day_missing_from_series_named(self):
        # 40 days split 24/8/8; the last test day is not in `full`
        series = make_series(np.random.default_rng(66).uniform(0, 900, (40, 4)),
                             interval_seconds=21600)
        split = split_chronological(series, (0.6, 0.2, 0.2))
        km = knn.fit(split.train, knn.KnnConfig(depth_days=1, neighbors=2))
        nm = nn.build(nn.NnConfig(hidden_neurons=3), seed=3, samples_per_day=4,
                      scale_max=900.0)
        with pytest.raises(UnknownDate) as err:
            compare_methods(series.subseries(0, 39), split.test, km, nm)
        assert str(err.value) == "2015-03-26 is not in the series"


class TestEmptyInputs:
    """The tuners reject an empty candidate list and a split without tune
    days, and compare_methods a test split without days, before any model
    is fitted or replayed; 12 days of 4 slots split 7/2/3."""

    @pytest.fixture(scope="class")
    def split(self):
        rows = np.random.default_rng(65).uniform(0, 900, (12, 4))
        return split_chronological(make_series(rows, interval_seconds=21600), (0.6, 0.2, 0.2))

    @pytest.mark.parametrize("tune, candidates, message", [
        (tune_knn, {"depth_candidates": ()}, "^candidate lists must be non-empty$"),
        (tune_knn, {"neighbor_candidates": ()}, "^candidate lists must be non-empty$"),
        (tune_nn, {"hidden_candidates": ()}, "^candidate list must be non-empty$"),
    ], ids=["knn-depths", "knn-neighbors", "nn-sizes"])
    def test_no_candidates(self, split, tune, candidates, message):
        with pytest.raises(EmptyInput, match=message):
            tune(split, **candidates)

    @pytest.mark.parametrize("tune", [tune_knn, tune_nn])
    def test_no_tune_day(self, split, tune):
        series = split.series
        untuned = DatasetSplit(series, split.train, series.subseries(7, 7), series.subseries(7, 12))
        with pytest.raises(EmptyInput, match="^tune split has no days$"):
            tune(untuned)

    def test_no_test_day(self, split):
        km = knn.fit(split.train, knn.KnnConfig(depth_days=1, neighbors=2))
        nm = nn.build(nn.NnConfig(hidden_neurons=3), seed=3, samples_per_day=4, scale_max=900.0)
        with pytest.raises(EmptyInput, match="^test split has no days$"):
            compare_methods(split.series, split.test.subseries(0, 0), km, nm)


class TestCompareMethodsSkips:
    """Test days lacking a model's history are skipped with that model's
    reason; 12 days of 4 slots split 7/2/3, test days 9-11."""

    @pytest.fixture(scope="class")
    def series_and_nn(self):
        rows = np.random.default_rng(65).uniform(0, 900, (12, 4))
        series = make_series(rows, interval_seconds=21600)
        nm = nn.build(nn.NnConfig(hidden_neurons=3), seed=3, samples_per_day=4,
                      scale_max=900.0)
        return series, split_chronological(series, (0.6, 0.2, 0.2)), nm

    def test_day_lacking_knn_history_skipped(self, series_and_nn):
        series, split, nm = series_and_nn
        km = knn.fit(series, knn.KnnConfig(depth_days=6, neighbors=2))
        full = series.subseries(4, 12)  # day 9 needs days 3..8
        report = compare_methods(full, split.test, km, nm)
        reason = "2015-02-24 needs 2015-02-18..2015-02-23; series covers 2015-02-19..2015-02-26"
        assert report.skipped_days == ((split.test.days[0].date, reason),)
        with pytest.raises(InsufficientHistory) as err:
            knn.forecast_days(km, full, [series.first_index + 9])
        assert str(err.value) == reason
        assert report.dates == tuple(d.date for d in split.test.days[1:])
        assert [len(values) for values in report.per_day_rmse.values()] == [
            len(report.dates)] * 4
        assert f"skipped 2015-02-24: {reason}" in render_report(report).splitlines()
        buf = io.StringIO()
        write_report_csv(report, buf)
        assert buf.getvalue().splitlines()[-1] == f"skipped,2015-02-24,{reason}"

    def test_day_lacking_nn_history_skipped(self, series_and_nn):
        series, split, nm = series_and_nn
        km = knn.fit(series, knn.KnnConfig(depth_days=1, neighbors=2))
        full = series.subseries(8, 12)  # day 9 has day 8 but not day 7
        report = compare_methods(full, split.test, km, nm)
        reason = "2015-02-24 needs 2015-02-22..2015-02-23; series covers 2015-02-23..2015-02-26"
        assert report.skipped_days == ((split.test.days[0].date, reason),)
        assert len(report.dates) == 2
        assert [len(values) for values in report.per_day_rmse.values()] == [2] * 4

    def test_every_day_skipped_raises(self, series_and_nn):
        series, split, nm = series_and_nn
        km = knn.fit(series, knn.KnnConfig(depth_days=6, neighbors=2))
        with pytest.raises(InsufficientHistory, match="every test day"):
            compare_methods(series.subseries(8, 12), split.test, km, nm)


class TestRendering:
    def test_render_grid_contains_footnote(self):
        grid = TuneGrid("hidden neurons", (3, 4), (2499.54, 3100.0))
        text = render_grid(grid)
        assert "RMSE 3100.0 is normalized to 1" in text
        assert "hidden neurons" in text
        assert "best" in text

    def test_report_csv_round_trip_arithmetic(self, synth_split, fitted_models):
        split, _ = synth_split
        km, nm = fitted_models
        report = compare_methods(split.full_series(), split.test, km, nm)
        buf = io.StringIO()
        write_report_csv(report, buf)
        text = buf.getvalue()
        assert "knn+local" in text and "nn+local" in text
        rendered = render_report(report)
        assert "improvement" in rendered.lower()


def test_local_tier_rules_on_the_seed_1_year():
    """The k-NN column of the seed-1 year: the default k-NN's global
    score, and its two-tier score under the paper's n = 8, L = 2, the
    last residual (1, 0) and the means of the last 2 and 4 residuals."""
    split = split_chronological(generate(SynthConfig(), 365).series, (0.6, 0.2, 0.2))
    full = split.full_series()
    days = [day.day_index for day in split.test.days]
    dates = [day.date for day in split.test.days]
    model = knn.fit(split.train, knn.KnnConfig())
    averages = {}
    for window, harmonics in ((8, 2), (1, 0), (2, 0), (4, 0)):
        report = score_replay(dates, replay_days(full, days, {"knn": model}, window, harmonics))
        averages[window, harmonics] = {label: f"{value:.1f}"
                                       for label, value in report.averaged_rmse.items()}
    assert averages == {
        (8, 2): {"knn": "4757.9", "knn+local": "1907.3"},
        (1, 0): {"knn": "4757.9", "knn+local": "335.6"},
        (2, 0): {"knn": "4757.9", "knn+local": "495.2"},
        (4, 0): {"knn": "4757.9", "knn+local": "802.0"},
    }
