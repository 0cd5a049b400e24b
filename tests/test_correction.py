"""Fourier residual fitting and the rolling one-step correction.

Oracle: coefficients from the normal equations, C = (F'F)^-1 F'S, with F
built by direct trig loops. The library solves the same problem through a
factorization, so the two answers come from genuinely different routes.
`simulate_day` is checked against a per-slot replay: `fit_dfs` of each
window, evaluated one slot ahead by `eval_dfs` below.
"""

import io
import math

import numpy as np
import pytest

from twotier.correction import (
    DfsFit,
    ResidualWindow,
    design_matrix,
    fit_dfs,
    simulate_day,
    write_trace_csv,
)
from twotier.errors import (
    EmptyInput,
    GridMismatch,
    LengthMismatch,
    NumericalFailure,
    Underdetermined,
)


def oracle_design(n, L):
    rows = []
    for v in range(1, n + 1):
        row = [1.0]
        for i in range(1, L + 1):
            row.append(math.cos(2 * math.pi * i * v / n))
            row.append(math.sin(2 * math.pi * i * v / n))
        rows.append(row)
    return np.array(rows)


def oracle_fit(values, n, L):
    F = oracle_design(n, L)
    return np.linalg.inv(F.T @ F) @ F.T @ np.asarray(values, dtype=float)


def window(values, last_index=None):
    vals = tuple(values)
    if last_index is None:
        last_index = len(vals) - 1
    return ResidualWindow(values=vals, last_sample_index=last_index)


def eval_dfs(fit, position):
    """The fitted series at a window position (1..n inside the window,
    larger values extrapolate), reduced modulo n: the basis is n-periodic."""
    n = fit.window_length
    reduced = position % n
    total = fit.coefficients[0]
    for i in range(1, fit.harmonics + 1):
        angle = 2.0 * math.pi * i * reduced / n
        total += fit.coefficients[2 * i - 1] * math.cos(angle)
        total += fit.coefficients[2 * i] * math.sin(angle)
    return total


def reference_simulation(global_day, measured, n, L):
    """Per-slot replay: slot m + 1 is the global forecast minus the
    fit_dfs fit of the window ending at slot m, evaluated at position
    n + 1, clamped at zero."""
    res = np.asarray(global_day, dtype=float) - measured
    corrected = np.array(global_day, dtype=float)
    coefficients = np.full((corrected.size, 2 * L + 1), np.nan)
    for m in range(n - 1, corrected.size - 1):
        fit = fit_dfs(window(res[m - n + 1 : m + 1], m), harmonics=L)
        coefficients[m + 1] = fit.coefficients
        corrected[m + 1] = max(0.0, float(global_day[m + 1]) - eval_dfs(fit, n + 1))
    return corrected, coefficients


def solar_like_day(rng):
    day = np.zeros(96)
    day[26:71] = rng.uniform(0.0, 35000.0, size=45)
    return day


class TestDesignMatrix:
    def test_shape_and_ones_column(self):
        F = design_matrix(8, 2)
        assert F.shape == (8, 5)
        assert np.all(F[:, 0] == 1.0)

    def test_columns_orthogonal_over_full_period(self):
        F = design_matrix(8, 2)
        gram = F.T @ F
        off_diag = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off_diag)) < 1e-12

    def test_underdetermined(self):
        with pytest.raises(Underdetermined):
            design_matrix(4, 2)

    def test_matches_oracle_matrix(self):
        for n, L in ((8, 2), (8, 3), (12, 2), (5, 1), (4, 0), (1, 0)):
            assert np.allclose(design_matrix(n, L), oracle_design(n, L), atol=1e-14)


class TestFitDfs:
    def test_constant_window(self):
        fit = fit_dfs(window([4.5] * 8), harmonics=2)
        assert fit.coefficients[0] == pytest.approx(4.5, abs=1e-12)
        assert np.max(np.abs(fit.coefficients[1:])) < 1e-12

    def test_exact_recovery_in_span(self):
        n = 8
        values = [
            3 + 2 * math.cos(2 * math.pi * v / n) - math.cos(4 * math.pi * v / n)
            for v in range(1, n + 1)
        ]
        fit = fit_dfs(window(values), harmonics=2)
        assert np.allclose(fit.coefficients, [3.0, 2.0, 0.0, -1.0, 0.0], atol=1e-9)

    def test_oracle_equivalence_random_windows(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            vals = rng.uniform(-5000, 5000, 8)
            fit = fit_dfs(window(vals), harmonics=2)
            assert np.max(np.abs(fit.coefficients - oracle_fit(vals, 8, 2))) < 1e-8

    def test_residual_norm_non_increasing_in_harmonics(self):
        rng = np.random.default_rng(32)
        vals = rng.uniform(-100, 100, 12)
        norms = []
        for L in (0, 1, 2, 3, 4, 5):
            fit = fit_dfs(window(vals), harmonics=L)
            F = oracle_design(12, L)
            norms.append(np.linalg.norm(F @ fit.coefficients - vals))
        assert all(b <= a + 1e-9 for a, b in zip(norms, norms[1:]))

    def test_underdetermined_window(self):
        with pytest.raises(Underdetermined):
            fit_dfs(window([1.0, 2.0, 3.0, 4.0]), harmonics=2)

    def test_empty_window_rejected(self):
        with pytest.raises(EmptyInput):
            ResidualWindow(values=(), last_sample_index=0)


class TestEvalDfs:
    def test_constant_model(self):
        fit = DfsFit(coefficients=(5.0, 0.0, 0.0, 0.0, 0.0), window_length=8, harmonics=2)
        for k in (-3, 0, 1, 7, 12, 100):
            assert eval_dfs(fit, k) == pytest.approx(5.0, abs=1e-12)

    def test_periodicity(self):
        rng = np.random.default_rng(33)
        fit = fit_dfs(window(rng.uniform(-10, 10, 8)), harmonics=2)
        for k in range(-8, 17):
            assert eval_dfs(fit, k) == pytest.approx(eval_dfs(fit, k + 8), abs=1e-12)

    def test_reproduces_projection(self):
        rng = np.random.default_rng(34)
        vals = rng.uniform(-10, 10, 8)
        fit = fit_dfs(window(vals), harmonics=2)
        projection = oracle_design(8, 2) @ oracle_fit(vals, 8, 2)
        fitted = [eval_dfs(fit, v) for v in range(1, 9)]
        assert np.allclose(fitted, projection, atol=1e-9)


class TestSimulateDay:
    def test_perfect_forecast_identity(self):
        day = np.concatenate([np.zeros(3), np.linspace(0, 500, 10), np.zeros(3)])
        sim = simulate_day(day, day)
        assert np.array_equal(sim.corrected_series(), day)

    def test_constant_bias_removed_one_step(self):
        measured = np.linspace(100, 900, 24)
        global_f = measured + 100.0
        sim = simulate_day(global_f, measured)
        # from the first slot after a full window onward, the one-step
        # corrected value should match the measurement almost exactly
        assert np.all(np.abs(sim.corrected_w[8:] - sim.measured_w[8:]) < 1e-9)

    def test_positive_residual_history_lowers_forecast(self):
        # the sign convention pin: persistent over-prediction must pull
        # corrected values BELOW the global forecast
        measured = np.full(20, 400.0)
        global_f = np.full(20, 650.0)
        sim = simulate_day(global_f, measured)
        assert np.all(sim.corrected_w[8:] < sim.global_w[8:])

    def test_early_slots_pass_through(self):
        rng = np.random.default_rng(41)
        measured = rng.uniform(0, 100, 16)
        global_f = rng.uniform(0, 100, 16)
        sim = simulate_day(global_f, measured, window_length=8)
        assert np.array_equal(sim.corrected_w[:8], sim.global_w[:8])

    def test_no_negative_corrected_values(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            measured = rng.uniform(0, 300, 24)
            global_f = rng.uniform(0, 300, 24)
            sim = simulate_day(global_f, measured)
            assert np.all(sim.corrected_series() >= 0.0)

    def test_grid_mismatch(self):
        with pytest.raises((GridMismatch, LengthMismatch)):
            simulate_day(np.zeros(10), np.zeros(12))

    def test_clamped_at_zero(self):
        # global over-predicts by 200 W on a 50 W forecast: nothing is left
        sim = simulate_day(np.full(12, 50.0), np.full(12, -150.0))
        assert np.array_equal(sim.corrected_w[8:], np.zeros(4))

    def test_record_count_equals_day_length(self):
        sim = simulate_day(np.zeros(96), np.zeros(96))
        assert len(sim.corrected_w) == 96
        assert sim.global_w.shape == sim.measured_w.shape == (96,)
        assert sim.coefficients.shape == (96, 5)


class TestSimulateDayBlock:
    """A (days, slots) block is replayed day by day, each row exactly as
    a one-day call replays it."""

    @pytest.mark.parametrize("n, L", [(8, 2), (5, 1)])
    def test_rows_equal_one_day_calls(self, n, L):
        rng = np.random.default_rng(80 + n)
        global_f = np.stack([solar_like_day(rng) for _ in range(7)])
        measured = np.stack([solar_like_day(rng) for _ in range(7)])
        block = simulate_day(global_f, measured, n, L)
        assert block.coefficients.shape == (7, 96, 2 * L + 1)
        for i in range(7):
            one = simulate_day(global_f[i], measured[i], n, L)
            day = block.day(i)
            for name in ("global_w", "measured_w", "corrected_w", "coefficients"):
                assert np.array_equal(getattr(day, name), getattr(one, name), equal_nan=True)

    def test_windows_do_not_cross_days(self):
        # a huge residual on day 0 must not reach the first slots of day 1
        global_f = np.full((2, 12), 500.0)
        measured = np.full((2, 12), 500.0)
        measured[0, -1] = -1e6
        block = simulate_day(global_f, measured)
        assert np.array_equal(block.corrected_w[1], global_f[1])

    @pytest.mark.parametrize("shape", [(0, 96), (2, 0), (1, 2, 96)])
    def test_empty_or_three_dimensional_rejected(self, shape):
        with pytest.raises(EmptyInput):
            simulate_day(np.zeros(shape), np.zeros(shape))


class TestSimulateDayMatchesPerSlotReference:
    @pytest.mark.parametrize("n, L", [(8, 2), (8, 3), (12, 2), (5, 1), (4, 0), (1, 0)])
    def test_random_days(self, n, L):
        rng = np.random.default_rng(1000 * n + L)
        for _ in range(20):
            global_f, measured = solar_like_day(rng), solar_like_day(rng)
            sim = simulate_day(global_f, measured, n, L)
            corrected, coefficients = reference_simulation(global_f, measured, n, L)
            assert np.max(np.abs(sim.corrected_w - corrected)) <= 1e-9
            assert np.array_equal(
                np.isnan(sim.coefficients), np.isnan(coefficients)
            )
            fitted = slice(n, None)
            assert np.max(
                np.abs(sim.coefficients[fitted] - coefficients[fitted])
            ) <= 1e-9

    @pytest.mark.parametrize("n, L", [(8, 2), (5, 1), (1, 0)])
    def test_day_no_longer_than_window_passes_through(self, n, L):
        rng = np.random.default_rng(77)
        for size in range(1, n + 1):
            global_f = rng.uniform(0, 100, size)
            sim = simulate_day(global_f, rng.uniform(0, 100, size), n, L)
            assert np.array_equal(sim.corrected_w, global_f)
            assert sim.coefficients.shape == (size, 2 * L + 1)
            assert np.all(np.isnan(sim.coefficients))

    def test_nan_measurement_raises_numerical_failure(self):
        rng = np.random.default_rng(78)
        global_f, measured = solar_like_day(rng), solar_like_day(rng)
        measured[40] = np.nan
        with pytest.raises(NumericalFailure):
            simulate_day(global_f, measured)

    def test_underdetermined_on_long_day(self):
        with pytest.raises(Underdetermined):
            simulate_day(np.zeros(96), np.zeros(96), window_length=4, harmonics=2)

    @pytest.mark.parametrize("size", [3, 4])
    def test_fit_checked_whatever_the_day_length(self, size):
        # a day no longer than the window corrects nothing, but an
        # unfittable (n, L) is still refused
        with pytest.raises(Underdetermined):
            simulate_day(np.ones(size), np.zeros(size), 3, 2)
        for n, L in ((0, 0), (3, -1)):
            with pytest.raises(ValueError):
                simulate_day(np.ones(size), np.zeros(size), n, L)

    def test_one_slot_window_without_harmonics_subtracts_last_residual(self):
        rng = np.random.default_rng(79)
        global_f, measured = solar_like_day(rng), solar_like_day(rng)
        sim = simulate_day(global_f, measured, 1, 0)
        residuals = global_f - measured
        assert np.array_equal(sim.corrected_w[1:],
                              np.fmax(0.0, global_f[1:] - residuals[:-1]))
        assert np.array_equal(sim.coefficients[1:, 0], residuals[:-1])


def test_trace_csv_layout():
    rng = np.random.default_rng(50)
    measured = rng.uniform(0, 100, 12)
    global_f = rng.uniform(0, 100, 12)
    sim = simulate_day(global_f, measured)
    buf = io.StringIO()
    write_trace_csv(sim, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "sample_index,global_w,measured_w,corrected_w,a0,a1,b1,a2,b2"
    assert len(lines) == 1 + 12
    # before the window fills there are no coefficients to report
    assert lines[1].endswith(",,,,")
    last = lines[-1].split(",")
    assert len(last) == 9
    assert all(field for field in last)
