"""Shared helpers for the test suite."""

import hashlib
import io
from datetime import date as Date
from unittest import mock

import numpy as np
import pytest

from twotier import nn, persistence
from twotier.errors import PersistenceError
from twotier.knn import KnnModel
from twotier.timeseries import SamplingGrid, SolarSeries

pytest_plugins = ["pytester"]


def make_series(rows, start=Date(2015, 2, 15), interval_seconds=900):
    """Build a SolarSeries from a 2-D array-like of per-day samples.

    Row 0 falls on `start`. Row length must match 86400 / interval_seconds.
    Values must be >= 0 (SolarSeries enforces physical non-negativity).
    """
    grid = SamplingGrid(sample_interval_seconds=interval_seconds)
    return SolarSeries(grid, np.asarray(rows, dtype=float), start)


def neuron_major_order(h):
    """Position in row-major order ([input weights row-major, hidden
    biases, output weights, output bias], build's draw order) of each
    parameter in the network's neuron-major order ((w_k0, w_k1, b_k) for
    each hidden neuron k, then the output weights and bias):
    row_major[neuron_major_order(h)] is neuron-major."""
    per_neuron = [[2 * k, 2 * k + 1, 2 * h + k] for k in range(h)]
    return np.concatenate(per_neuron + [range(3 * h, 4 * h + 1)]).astype(int)


# Python 3.12 and later warn when a process that has threads forks. In the
# suite at its default BLAS threads, a test that forces lanes forks a process
# that runs BLAS threads, so its forks may warn. The library never does: it
# forks only where OpenBLAS was told to run one thread.
forks_with_blas_threads = pytest.mark.filterwarnings(
    r"ignore:This process \(pid=\d+\) is multi-threaded, use of fork\(\):DeprecationWarning"
)


def force_lanes(monkeypatch, lanes):
    """Make fit_restarts train in `lanes` processes: `lanes` usable CPUs
    and OpenBLAS on one thread, as far as nn._lanes can tell."""
    monkeypatch.setattr(nn, "_usable_cpus", lambda: lanes)
    monkeypatch.setattr(nn, "_ONE_BLAS_THREAD", True)
    assert nn._lanes(lanes) == lanes


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


# The old golden k-NN file: version 1, the (context, target) pairs that
# builds before the day-matrix format wrote, which no build reads now.
VERSION_1_KNN_FILE = with_payload("htm-model 1\nkind knn\n", [
    "depth_days 2", "neighbors 2", "pairs 3", "context_length 2", "target_length 1",
    "context 1.5 2.5", "target 100.0", "context 3.25 0.125", "target 200.5",
    "context 10.0 0.5", "target 50.25",
])


def printed_best(stdout):
    """{axis label: value} of every `best <axis>: <value>` line that
    `tune` prints."""
    lines = (line[len("best "):].split(": ") for line in stdout.splitlines()
             if line.startswith("best "))
    return {axis: int(value) for axis, value in lines}


def rendered(model):
    """The text persistence.save_model writes for model."""
    sink = io.StringIO()
    persistence.save_model(model, sink)
    return sink.getvalue()


def load_outcome(text):
    """What persistence.load_model makes of `text`: the config and the
    shape and bits of each of the model's arrays, or the error's type and
    message."""
    try:
        model = persistence.load_model(text)
    except PersistenceError as exc:
        return type(exc), str(exc)
    if isinstance(model, KnnModel):
        arrays = (model.contexts, model.targets, model.days)
    else:
        arrays = (model.hidden_weights, model.hidden_biases, model.output_weights,
                  np.float64(model.output_bias), np.float64(model.scale_max))
    return model.config, [None if a is None else (a.shape, a.tobytes()) for a in arrays]


def per_line_outcome(text):
    """`load_outcome` with every day line read by the per-line reader."""
    with mock.patch.object(persistence, "_day_block", lambda lines, per_day: None):
        return load_outcome(text)


def takes_day_block(text):
    """Whether the day lines of a version 2 k-NN file parse as one block."""
    lines = text.splitlines()
    per_day = int(next(line for line in lines if line.startswith("samples_per_day ")).split()[1])
    first = next(i for i, line in enumerate(lines) if line.startswith("day "))
    return persistence._day_block(lines[first:], per_day) is not None
