"""Local real-time correction of the day-ahead forecast.

As measurements arrive during the day, the gap between the global
forecast and reality (the residual) is fitted over a short rolling
window with a truncated discrete Fourier series. Extrapolating that fit
one slot ahead and subtracting it from the global forecast gives the
corrected prediction. A positive fitted residual means the global tier
has been over-predicting, so the correction lowers the forecast.

For a fixed window length n and harmonic count L the fit and its
one-step extrapolation are a fixed linear map of the window, so the
local tier is a one-step FIR filter of the last n residuals followed by
a clamp at zero. `simulate_day` applies it to a day, or to a block of
days at once; `fit_dfs` is the least-squares fit of one window.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    EmptyInput,
    IndexOutOfDay,
    LengthMismatch,
    NumericalFailure,
    Underdetermined,
)

DEFAULT_WINDOW = 8
DEFAULT_HARMONICS = 2


@dataclass(frozen=True)
class ResidualWindow:
    """The last n residuals before "now", oldest first.

    last_sample_index is the position within the day of the newest
    residual in the window.
    """

    values: tuple[float, ...]
    last_sample_index: int

    def __post_init__(self):
        if len(self.values) == 0:
            raise EmptyInput("residual window is empty")
        if self.last_sample_index < len(self.values) - 1:
            raise IndexOutOfDay(
                f"window of {len(self.values)} cannot end at sample "
                f"{self.last_sample_index}"
            )
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))


@dataclass(frozen=True)
class DfsFit:
    """Coefficients [a0, a1, b1, ..., aL, bL] over a window of length n."""

    coefficients: tuple[float, ...]
    window_length: int
    harmonics: int

    def __post_init__(self):
        if len(self.coefficients) != 2 * self.harmonics + 1:
            raise LengthMismatch(
                f"{self.harmonics} harmonics need "
                f"{2 * self.harmonics + 1} coefficients, got {len(self.coefficients)}"
            )
        object.__setattr__(
            self, "coefficients", tuple(float(c) for c in self.coefficients)
        )


def check_fit(window_length: int, harmonics: int) -> None:
    """Raise ValueError for a window below 1 or harmonics below 0,
    Underdetermined when the 2 * harmonics + 1 coefficients outnumber the
    window's samples. With 0 harmonics the fit is the window's mean."""
    if window_length < 1:
        raise ValueError("window_length must be >= 1")
    if harmonics < 0:
        raise ValueError("harmonics must be >= 0")
    cols = 2 * harmonics + 1
    if cols > window_length:
        raise Underdetermined(f"{cols} coefficients cannot be fit from {window_length} samples")


def design_matrix(window_length: int, harmonics: int) -> np.ndarray:
    """Rows are window positions v = 1..n; columns are the DFS basis
    [1, cos(2*pi*v/n), sin(2*pi*v/n), ..., cos(2*pi*L*v/n), sin(2*pi*L*v/n)].
    """
    check_fit(window_length, harmonics)
    cols = 2 * harmonics + 1
    v = np.arange(1, window_length + 1)
    matrix = np.ones((window_length, cols))
    for i in range(1, harmonics + 1):
        angle = 2.0 * math.pi * i * v / window_length
        matrix[:, 2 * i - 1] = np.cos(angle)
        matrix[:, 2 * i] = np.sin(angle)
    return matrix


def fit_dfs(window: ResidualWindow, harmonics: int = DEFAULT_HARMONICS) -> DfsFit:
    """Least-squares DFS fit of the residual window."""
    n = len(window.values)
    matrix = design_matrix(n, harmonics)
    target = np.asarray(window.values)
    try:
        coef = np.linalg.lstsq(matrix, target, rcond=None)[0]
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"least squares failed: {exc}") from exc
    if not np.all(np.isfinite(coef)):
        raise NumericalFailure("least squares produced non-finite coefficients")
    return DfsFit(
        coefficients=tuple(coef), window_length=n, harmonics=harmonics
    )


@dataclass(frozen=True)
class DaySimulation:
    """A replayed day or (days, slots) block, one array element per slot.

    `coefficients` holds, per slot, the fit [a0, a1, b1, ..., aL, bL] that
    predicted it; slots before the first full window hold NaN.
    """

    global_w: np.ndarray
    measured_w: np.ndarray
    corrected_w: np.ndarray
    coefficients: np.ndarray

    def corrected_series(self) -> np.ndarray:
        return self.corrected_w

    def day(self, i: int) -> "DaySimulation":
        """Day i of a block, as a one-day simulation."""
        return DaySimulation(
            self.global_w[i], self.measured_w[i], self.corrected_w[i], self.coefficients[i]
        )


def simulate_day(
    global_day,
    measured_day,
    window_length: int = DEFAULT_WINDOW,
    harmonics: int = DEFAULT_HARMONICS,
) -> DaySimulation:
    """Replay a day, or each day of a (days, slots) block, with the
    one-step local correction, all slots at once.

    Slot m + 1 (for m >= n - 1) is corrected from the DFS fit of the n
    residuals ending at slot m, extrapolated one step. Slots before the
    first full window keep the global forecast unchanged. The fit is
    pinv(A) times the window and the extrapolation to position n + 1 is
    row A[0] (the basis is n-periodic), so the correction is a fixed
    one-step FIR filter of the last n residuals followed by a clamp at
    zero. For n=8, L=2 the taps, oldest residual first, are
    [0.625, 0.302, -0.125, -0.052, 0.125, -0.052, -0.125, 0.302]; with
    L=0 each tap is 1/n, so n=1 subtracts the last residual.
    """
    check_fit(window_length, harmonics)
    g = np.array(global_day, dtype=float)
    y = np.array(measured_day, dtype=float)
    if g.shape != y.shape:
        raise LengthMismatch(f"shape mismatch: {g.shape} vs {y.shape}")
    if g.ndim not in (1, 2) or g.size == 0:
        raise EmptyInput("expected a non-empty day or (days, slots) block")
    n = window_length
    corrected = g.copy()
    coefficients = np.full((*g.shape, 2 * harmonics + 1), np.nan)
    if g.shape[-1] > n:
        matrix = design_matrix(n, harmonics)
        windows = sliding_window_view((g - y)[..., :-1], n, axis=-1)
        coef = windows @ np.linalg.pinv(matrix).T
        if not np.all(np.isfinite(coef)):
            raise NumericalFailure("DFS fit produced non-finite coefficients")
        coefficients[..., n:, :] = coef
        # fmax, not maximum: -0.0 and NaN map to 0.0
        corrected[..., n:] = np.fmax(0.0, g[..., n:] - coef @ matrix[0])
    return DaySimulation(
        global_w=g, measured_w=y, corrected_w=corrected, coefficients=coefficients
    )


def write_trace_csv(sim: DaySimulation, sink) -> None:
    """Dump a simulation as CSV. Coefficient columns are empty on slots
    predicted before the window filled."""
    coef_names = ["a0"]
    for i in range(1, sim.coefficients.shape[1] // 2 + 1):
        coef_names += [f"a{i}", f"b{i}"]
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(
        ["sample_index", "global_w", "measured_w", "corrected_w", *coef_names]
    )
    rows = zip(
        sim.global_w.tolist(),
        sim.measured_w.tolist(),
        sim.corrected_w.tolist(),
        sim.coefficients.tolist(),
    )
    for i, (global_w, measured_w, corrected_w, coef) in enumerate(rows):
        coeffs = [""] * len(coef) if math.isnan(coef[0]) else [repr(c) for c in coef]
        writer.writerow(
            [i, repr(global_w), repr(measured_w), repr(corrected_w), *coeffs]
        )
