"""Properties that must hold for every input, checked with hypothesis.

Examples are derandomized, so a run is reproducible; widen max_examples
locally to search further.
"""

import io

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from twotier import correction, knn, nn, persistence  # noqa: E402
from twotier.errors import NumericalFailure  # noqa: E402

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def measured_days(draw):
    """A global forecast and a measurement of the same length, both finite
    and non-negative, with a window/harmonics pair that can be fit."""
    window, harmonics = draw(st.sampled_from([(8, 2), (8, 3), (12, 2), (5, 1), (3, 1)]))
    size = draw(st.integers(min_value=1, max_value=40))
    global_day = draw(arrays(float, size, elements=non_negative))
    measured_day = draw(arrays(float, size, elements=non_negative))
    return global_day, measured_day, window, harmonics


@PROPERTY
@given(measured_days())
def test_corrected_values_never_negative(case):
    global_day, measured_day, window, harmonics = case
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            sim = correction.simulate_day(global_day, measured_day, window, harmonics)
    except NumericalFailure:
        return  # overflow near the float limit is reported, not returned
    assert np.all(sim.corrected_w >= 0.0)


@PROPERTY
@given(st.lists(non_negative, min_size=2, max_size=12).map(sorted))
def test_neighbor_weights_normalized(distances):
    weights = knn.neighbor_weights(distances)
    assert weights.shape == (len(distances) - 1,)
    assert weights[0] == 1.0
    assert np.all((weights >= 0.0) & (weights <= 1.0))


def _round_trip(model, arrays_of):
    """save -> load -> save gives the same bytes and a bit-equal model."""
    first = io.StringIO()
    persistence.save_model(model, first)
    loaded = persistence.load_model(first.getvalue())
    second = io.StringIO()
    persistence.save_model(loaded, second)
    assert second.getvalue() == first.getvalue()
    assert loaded.config == model.config
    for saved, restored in zip(arrays_of(model), arrays_of(loaded)):
        assert np.array_equal(saved, restored)


@st.composite
def knn_models(draw):
    depth = draw(st.integers(min_value=1, max_value=3))
    neighbors = draw(st.integers(min_value=2, max_value=4))
    pairs = draw(st.integers(min_value=neighbors + 1, max_value=neighbors + 3))
    per_day = draw(st.integers(min_value=1, max_value=4))
    return knn.KnnModel(
        config=knn.KnnConfig(depth_days=depth, neighbors=neighbors),
        contexts=draw(arrays(float, (pairs, depth * per_day), elements=finite)),
        targets=draw(arrays(float, (pairs, per_day), elements=finite)),
    )


@st.composite
def nn_models(draw):
    hidden = draw(st.integers(min_value=1, max_value=8))
    config = nn.NnConfig(
        hidden_neurons=hidden,
        restarts=draw(st.integers(min_value=1, max_value=50)),
        lm_initial_damping=draw(positive),
        lm_damping_factor=draw(
            st.floats(min_value=1.0, exclude_min=True, allow_infinity=False)
        ),
        max_iterations=draw(st.integers(min_value=0, max_value=1000)),
        loss_tolerance=draw(positive),
        rng_seed=draw(st.integers(min_value=0, max_value=2**64 - 1)),
    )
    return nn.NnModel(
        hidden_weights=draw(arrays(float, (hidden, 2), elements=finite)),
        hidden_biases=draw(arrays(float, hidden, elements=finite)),
        output_weights=draw(arrays(float, hidden, elements=finite)),
        output_bias=draw(finite),
        scale_max=draw(positive),
        samples_per_day=draw(st.integers(min_value=1, max_value=1440)),
        config=config,
    )


@PROPERTY
@given(knn_models())
def test_knn_save_load_save_byte_identical(model):
    _round_trip(model, lambda m: (m.contexts, m.targets))


@PROPERTY
@given(nn_models())
def test_nn_save_load_save_byte_identical(model):
    _round_trip(model, lambda m: (
        m.hidden_weights, m.hidden_biases, m.output_weights,
        m.output_bias, m.scale_max, m.samples_per_day,
    ))
