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


def neuron_major_order(h):
    """Position in row-major order ([input weights row-major, hidden
    biases, output weights, output bias], build's draw order) of each
    parameter in the network's neuron-major order ((w_k0, w_k1, b_k) for
    each hidden neuron k, then the output weights and bias):
    row_major[neuron_major_order(h)] is neuron-major."""
    per_neuron = [[2 * k, 2 * k + 1, 2 * h + k] for k in range(h)]
    return np.concatenate(per_neuron + [range(3 * h, 4 * h + 1)]).astype(int)


def repeating_clear_days():
    """40 days of 15 minutes: one clear-day profile, repeated, and six
    cloudy days. The k-NN tier (D = 5, k = 2, fit on the first 24 days)
    forecasts the clear day 2015-03-25, index 38, to about 1e-12 W: its
    nearest contexts are clear days at different distances, so the blend
    weighs copies of one profile unequally."""
    clear = np.zeros(96)
    clear[24:76] = np.round(30000 * np.sin(np.linspace(0, np.pi, 52)), 1)
    rng = np.random.default_rng(3)
    rows = [
        clear if kind == "A" else np.round(clear * rng.uniform(0.2, 1.0, 96), 1)
        for kind in "AAAAbAAAAAbbAAAAAAAAbAAAAAAAAAAAAAAAAbAA"
    ]
    return make_series(rows)


def replace_payload_line(model_text, old, new):
    """A model file with payload line `old` replaced by `new` and the
    checksum recomputed, so only the payload's own checks can reject it."""
    lines = model_text.splitlines()
    payload = [new if line == old else line for line in lines[3:]]
    assert payload != lines[3:], f"no payload line {old!r}"
    return with_payload(model_text, payload)


def with_payload(model_text, payload):
    """A model file with the header lines of `model_text`, the payload
    lines `payload` and their checksum."""
    lines = model_text.splitlines()
    body = "".join(line + "\n" for line in payload)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return "\n".join(lines[:2] + [f"sha256 {digest}"]) + "\n" + body


def rendered(model):
    """The text persistence.save_model writes for model."""
    sink = io.StringIO()
    persistence.save_model(model, sink)
    return sink.getvalue()
