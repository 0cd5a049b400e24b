"""Shared helpers for the test suite."""

from datetime import date as Date, timedelta

import numpy as np

from twotier.timeseries import SamplingGrid, SolarSeries


def make_series(rows, start=Date(2015, 2, 15), interval_seconds=900, first_index=0):
    """Build a SolarSeries from a 2-D array-like of per-day samples.

    `start` is the date of day index 0, so row 0 falls on `start` +
    `first_index` days. Row length must match 86400 / interval_seconds.
    Values must be >= 0 (SolarSeries enforces physical non-negativity).
    """
    grid = SamplingGrid(sample_interval_seconds=interval_seconds)
    power = np.asarray(rows, dtype=float)
    return SolarSeries(grid, power, start + timedelta(days=first_index), first_index)
