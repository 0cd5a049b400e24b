"""Shared helpers for the test suite."""

import hashlib
import io
from datetime import date as Date, timedelta

import numpy as np

from twotier import persistence
from twotier.timeseries import SamplingGrid, SolarSeries

pytest_plugins = ["pytester"]


def make_series(rows, start=Date(2015, 2, 15), interval_seconds=900, first_index=0):
    """Build a SolarSeries from a 2-D array-like of per-day samples.

    `start` is the date of day index 0, so row 0 falls on `start` +
    `first_index` days. Row length must match 86400 / interval_seconds.
    Values must be >= 0 (SolarSeries enforces physical non-negativity).
    """
    grid = SamplingGrid(sample_interval_seconds=interval_seconds)
    power = np.asarray(rows, dtype=float)
    return SolarSeries(grid, power, start + timedelta(days=first_index), first_index)


def replace_payload_line(model_text, old, new):
    """A model file with payload line `old` replaced by `new` and the
    checksum recomputed, so only the payload's own checks can reject it."""
    lines = model_text.splitlines()
    payload = [new if line == old else line for line in lines[3:]]
    assert payload != lines[3:], f"no payload line {old!r}"
    body = "".join(line + "\n" for line in payload)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return "\n".join(lines[:2] + [f"sha256 {digest}"]) + "\n" + body


def rendered(model):
    """The text persistence.save_model writes for model."""
    sink = io.StringIO()
    persistence.save_model(model, sink)
    return sink.getvalue()
