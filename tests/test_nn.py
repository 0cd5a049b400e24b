"""Three-layer network and Levenberg-Marquardt training.

Oracles here are a hand-rolled forward evaluator (plain loops, no shared
code with the module), a central finite-difference Jacobian, and a
straightforward LM loop that recomputes everything at every iteration,
once in the module's neuron-major layout (bit for bit) and once in the
row-major layout it replaced (to rounding).
"""

import dataclasses
import math
import multiprocessing
import os
import sys
import threading
from datetime import date as Date
from functools import partial

import numpy as np
import pytest

from conftest import force_lanes, forks_with_blas_threads, make_series, neuron_major_order
from twotier import evaluation, nn
from twotier.errors import (
    GridMismatch,
    InsufficientHistory,
    InsufficientTrainingDays,
    SingularStep,
)
from twotier.nn import (
    DAMPING_CAP,
    NnConfig,
    NnModel,
    TrainTrace,
    build,
    day_ahead_samples,
    fit_day_ahead,
    forward,
    jacobian,
    predict_day,
    train_lm,
)
from twotier.rng import derive_seed
from twotier.synth import SynthConfig, generate
from twotier.timeseries import split_chronological


def reference_forward(model, x):
    """Loop-based evaluation straight off the topology definition."""
    h = len(model.hidden_biases)
    out = model.output_bias
    for j in range(h):
        pre = model.hidden_biases[j]
        for i in range(2):
            pre += model.hidden_weights[j][i] * x[i]
        out += model.output_weights[j] * math.tanh(pre)
    return out


def fd_jacobian(model, batch, step=1e-6):
    """Central finite differences over the row-major parameter vector,
    the order of jacobian's columns."""
    base = NnConfig(hidden_neurons=model.config.hidden_neurons)

    def theta_of(m):
        return np.concatenate(
            [
                np.asarray(m.hidden_weights).ravel(),
                np.asarray(m.hidden_biases),
                np.asarray(m.output_weights),
                [m.output_bias],
            ]
        )

    def model_of(theta):
        h = model.config.hidden_neurons
        return NnModel(
            hidden_weights=theta[: 2 * h].reshape(h, 2),
            hidden_biases=theta[2 * h : 3 * h],
            output_weights=theta[3 * h : 4 * h],
            output_bias=float(theta[4 * h]),
            scale_max=model.scale_max,
            samples_per_day=model.samples_per_day,
            config=base,
        )

    theta = theta_of(model)
    rows = []
    for x in batch:
        row = np.zeros(theta.size)
        for c in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[c] += step
            down[c] -= step
            row[c] = (forward(model_of(up), x) - forward(model_of(down), x)) / (2 * step)
        rows.append(row)
    return np.array(rows)


def lm_loop(theta, config, residual, jac_at):
    """LM as first written: every iteration evaluates the network at theta
    twice (once inside jac_at, once for the residual) and every proposal
    once more. jac_at(t) returns (J'J, J'e) at t. Returns the final theta
    and the TrainTrace."""

    def sse(t):
        err = residual(t)
        return float(err @ err)

    initial_loss = loss = sse(theta)
    damping = config.lm_initial_damping
    identity = np.eye(theta.size)
    losses, accepted = [], []
    stop_reason = "budget"
    for _ in range(config.max_iterations):
        gauss_newton, gradient = jac_at(theta)
        improvement = None
        while True:
            try:
                delta = np.linalg.solve(gauss_newton + damping * identity, -gradient)
            except np.linalg.LinAlgError:
                delta = None
            if delta is not None and np.all(np.isfinite(delta)):
                candidate = theta + delta
                candidate_loss = sse(candidate)
            else:
                candidate = None
                candidate_loss = math.inf
            if candidate is not None and candidate_loss < loss:
                losses.append(candidate_loss)
                accepted.append(True)
                improvement = loss - candidate_loss
                theta, loss = candidate, candidate_loss
                damping = damping / config.lm_damping_factor
                break
            losses.append(candidate_loss)
            accepted.append(False)
            if delta is None and damping >= DAMPING_CAP:
                raise SingularStep("unsolvable")
            damping = damping * config.lm_damping_factor
            if damping > DAMPING_CAP:
                improvement = None
                break
        if improvement is None:
            stop_reason = "damping_cap"
            break
        if improvement < config.loss_tolerance:
            stop_reason = "tolerance"
            break
    trace = TrainTrace(
        initial_loss=initial_loss, losses=tuple(losses), accepted=tuple(accepted),
        final_damping=damping, stop_reason=stop_reason,
    )
    return theta, trace


def reference_lm(theta, h, inputs, targets, config):
    """The module's arithmetic, recomputed at every iteration: parameters
    in neuron-major order (per hidden neuron w_k0, w_k1, b_k; then the
    output weights and bias), pre-activations [W1 b1] @ [x0; x1; 1], and
    J' built as a (4H+1, n) array, so J'J = J' @ J'.T. Same operations on
    the same layouts as the module's loop, so the two must agree bit for
    bit. theta is neuron-major on entry and on return."""
    n = inputs.shape[0]
    design = np.vstack([inputs.T, np.ones(n)])

    def hidden_at(t):
        return np.tanh(t[: 3 * h].reshape(h, 3) @ design)

    def residual(t):
        return t[3 * h : 4 * h] @ hidden_at(t) + t[4 * h] - targets

    def jac_at(t):
        hidden = hidden_at(t)
        gate = t[3 * h : 4 * h, None] * (1.0 - hidden**2)
        jac = np.empty((4 * h + 1, n))
        jac[: 3 * h] = (gate[:, None, :] * design[None, :, :]).reshape(3 * h, n)
        jac[3 * h : 4 * h] = hidden
        jac[4 * h] = 1.0
        return jac @ jac.T, jac @ residual(t)

    return lm_loop(theta, config, residual, jac_at)


def row_major_lm(theta, h, inputs, targets, config):
    """The loop before the neuron-major layout: parameters in row-major
    order, pre-activations inputs @ W1' + b1 and J built as an (n, 4H+1)
    array. Its rounding differs from the module's, so it is compared with
    tolerances."""

    def hidden_at(t):
        w1 = t[: 2 * h].reshape(h, 2)
        return np.tanh(inputs @ w1.T + t[2 * h : 3 * h])

    def residual(t):
        return hidden_at(t) @ t[3 * h : 4 * h] + t[4 * h] - targets

    def jac_at(t):
        hidden = hidden_at(t)
        gate = t[3 * h : 4 * h] * (1.0 - hidden**2)
        n = inputs.shape[0]
        jac = np.empty((n, 4 * h + 1))
        jac[:, : 2 * h] = (gate[:, :, None] * inputs[:, None, :]).reshape(n, 2 * h)
        jac[:, 2 * h : 3 * h] = gate
        jac[:, 3 * h : 4 * h] = hidden
        jac[:, 4 * h] = 1.0
        return jac.T @ jac, jac.T @ residual(t)

    return lm_loop(theta, config, residual, jac_at)


class TestBuild:
    def test_same_seed_identical(self):
        a = build(NnConfig(), seed=7)
        b = build(NnConfig(), seed=7)
        assert np.array_equal(a.hidden_weights, b.hidden_weights)
        assert np.array_equal(a.hidden_biases, b.hidden_biases)
        assert np.array_equal(a.output_weights, b.output_weights)
        assert a.output_bias == b.output_bias

    def test_different_seeds_differ(self):
        a = build(NnConfig(), seed=1)
        b = build(NnConfig(), seed=2)
        assert not np.array_equal(a.hidden_weights, b.hidden_weights)

    def test_h6_has_25_parameters(self):
        model = build(NnConfig(hidden_neurons=6), seed=1)
        assert nn._params(model).size == 25

    def test_weights_in_init_range(self):
        model = build(NnConfig(hidden_neurons=32), seed=3)
        for arr in (model.hidden_weights, model.hidden_biases, model.output_weights):
            assert np.all(np.abs(arr) <= 0.5)


class TestModelChecks:
    @pytest.mark.parametrize("changes, message", [
        ({"hidden_weights": np.zeros((5, 2))}, "^weight shapes inconsistent with 6 hidden "
         r"neurons: \(5, 2\), \(6,\), \(6,\)$"),
        ({"hidden_biases": np.zeros((6, 1))}, "^weight shapes inconsistent with 6 hidden"),
        ({"output_weights": np.zeros(7)}, "^weight shapes inconsistent with 6 hidden"),
        ({"hidden_weights": np.full((6, 2), np.nan)}, "^all weights must be finite$"),
        ({"output_weights": np.full(6, np.inf)}, "^all weights must be finite$"),
        ({"output_bias": -np.inf}, "^all weights must be finite$"),
    ], ids=["hidden-weights-shape", "hidden-biases-shape", "output-weights-shape",
            "nan-weight", "inf-weight", "inf-bias"])
    def test_rejected_weights(self, changes, message):
        model = build(NnConfig(hidden_neurons=6), seed=1)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(model, **changes)


class TestForward:
    def test_zero_network_outputs_zero(self):
        model = build(NnConfig(), seed=1)
        zeroed = NnModel(
            hidden_weights=np.zeros_like(model.hidden_weights),
            hidden_biases=np.zeros_like(model.hidden_biases),
            output_weights=np.zeros_like(model.output_weights),
            output_bias=0.0,
            scale_max=1.0,
            samples_per_day=96,
            config=model.config,
        )
        assert forward(zeroed, (0.3, 0.9)) == 0.0

    def test_output_bias_passthrough(self):
        model = build(NnConfig(), seed=1)
        biased = NnModel(
            hidden_weights=np.zeros_like(model.hidden_weights),
            hidden_biases=np.zeros_like(model.hidden_biases),
            output_weights=np.zeros_like(model.output_weights),
            output_bias=0.7,
            scale_max=1.0,
            samples_per_day=96,
            config=model.config,
        )
        assert forward(biased, (0.1, 0.2)) == pytest.approx(0.7, abs=1e-15)

    @pytest.mark.parametrize("inputs", [(0.1,), (0.1, 0.2, 0.3), [[0.1, 0.2]]])
    def test_one_input_pair_only(self, inputs):
        with pytest.raises(ValueError) as err:
            forward(build(NnConfig(), seed=1), inputs)
        assert str(err.value) == f"expected an input pair, got shape {np.shape(inputs)}"

    def test_matches_reference_evaluator(self):
        rng = np.random.default_rng(21)
        for trial in range(30):
            model = build(NnConfig(hidden_neurons=int(rng.integers(1, 9))), seed=trial)
            x = rng.uniform(0, 1.2, 2)
            assert forward(model, x) == pytest.approx(
                reference_forward(model, x), abs=1e-12
            )


class TestJacobian:
    def test_shape(self):
        model = build(NnConfig(hidden_neurons=6), seed=4)
        batch = np.random.default_rng(0).uniform(0, 1, (11, 2))
        assert jacobian(model, batch).shape == (11, 25)

    @pytest.mark.parametrize("batch, message", [
        ([], "^batch must be non-empty$"),
        (np.empty((0, 2)), "^batch must be non-empty$"),
        ([[0.1, 0.2, 0.3]], r"^inputs must be pairs, got shape \(1, 3\)$"),
        ([0.1], r"^inputs must be pairs, got shape \(1, 1\)$"),
    ], ids=["empty-list", "no-rows", "triple", "single"])
    def test_rejected_batch(self, batch, message):
        with pytest.raises(ValueError, match=message):
            jacobian(build(NnConfig(), seed=1), batch)

    def test_zero_network_bias_column(self):
        model = build(NnConfig(), seed=1)
        zeroed = NnModel(
            hidden_weights=np.zeros_like(model.hidden_weights),
            hidden_biases=np.zeros_like(model.hidden_biases),
            output_weights=np.zeros_like(model.output_weights),
            output_bias=0.0,
            scale_max=1.0,
            samples_per_day=96,
            config=model.config,
        )
        jac = jacobian(zeroed, [[0.5, 0.5]])
        assert jac[0, -1] == 1.0  # d out / d output_bias

    def test_against_central_differences(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for trial in range(20):
            h = int(rng.integers(1, 7))
            model = build(NnConfig(hidden_neurons=h), seed=100 + trial)
            batch = rng.uniform(0, 1.2, (3, 2))
            analytic = jacobian(model, batch)
            numeric = fd_jacobian(model, batch)
            mask = np.abs(analytic) > 1e-8
            rel = np.abs(analytic - numeric)[mask] / np.abs(analytic)[mask]
            if rel.size:
                worst = max(worst, rel.max())
        assert worst < 1e-4


class TestTrainLm:
    def test_fits_linear_function(self):
        rng = np.random.default_rng(8)
        xs = rng.uniform(0, 1, (50, 2))
        samples = [((x[0], x[1]), 0.3 * x[0] + 0.1 * x[1]) for x in xs]
        config = NnConfig(hidden_neurons=4, max_iterations=300)
        model, trace = train_lm(build(config, seed=2), samples, config)
        preds = np.array([forward(model, x) for x, _ in samples])
        targets = np.array([t for _, t in samples])
        assert math.sqrt(np.mean((preds - targets) ** 2)) < 1e-3

    def test_accepted_losses_non_increasing(self):
        rng = np.random.default_rng(9)
        xs = rng.uniform(0, 1, (40, 2))
        samples = [((x[0], x[1]), math.sin(3 * x[0]) * 0.5 + 0.2 * x[1]) for x in xs]
        config = NnConfig(hidden_neurons=5, max_iterations=60)
        _, trace = train_lm(build(config, seed=3), samples, config)
        accepted = trace.accepted_losses()
        assert len(accepted) > 0
        assert all(b <= a + 1e-15 for a, b in zip(accepted, accepted[1:]))
        assert accepted[0] <= trace.initial_loss

    def test_zero_iteration_budget_returns_model_unchanged(self):
        config = NnConfig(max_iterations=0)
        start = build(config, seed=6)
        model, trace = train_lm(start, [((0.1, 0.2), 0.3)], config)
        assert np.array_equal(model.hidden_weights, start.hidden_weights)
        assert model.output_bias == start.output_bias
        assert trace.losses == ()
        assert trace.stop_reason == "budget"
        assert trace.final_loss == trace.initial_loss

    def test_empty_samples_rejected(self):
        config = NnConfig()
        with pytest.raises(ValueError):
            train_lm(build(config, seed=1), [], config)

    def test_config_must_match_the_models_hidden_size(self):
        model = build(NnConfig(hidden_neurons=3), seed=1)
        with pytest.raises(ValueError, match="^config hidden_neurons disagrees with the model$"):
            train_lm(model, [((0.1, 0.2), 0.3)], NnConfig(hidden_neurons=4))


    def test_stops_on_tolerance(self):
        rng = np.random.default_rng(9)
        xs = rng.uniform(0, 1, (40, 2))
        samples = [((x[0], x[1]), 0.5 * x[0] - 0.2 * x[1]) for x in xs]
        config = NnConfig(hidden_neurons=3, loss_tolerance=1e6)
        _, trace = train_lm(build(config, seed=3), samples, config)
        assert trace.stop_reason == "tolerance"
        assert trace.accepted == (True,)
        assert trace.final_loss == trace.losses[0] < trace.initial_loss

    def test_stops_at_damping_cap_on_zero_loss(self):
        # targets are the start network's own outputs: no step can lower
        # a zero loss, so the damping climbs past the cap
        config = NnConfig(hidden_neurons=4)
        start = build(config, seed=12)
        xs = np.random.default_rng(3).uniform(0, 1, (30, 2))
        own = nn._forward_batch(nn._params(start), 4, xs)
        samples = [((x[0], x[1]), t) for x, t in zip(xs, own)]
        model, trace = train_lm(start, samples, config)
        assert trace.initial_loss == 0.0
        assert trace.stop_reason == "damping_cap"
        assert trace.final_damping > DAMPING_CAP
        assert not any(trace.accepted)
        assert np.array_equal(model.hidden_weights, start.hidden_weights)


class TestUnsolvableSteps:
    """Every np.linalg.solve raises LinAlgError: each proposal scores inf
    and the damping grows by the factor from 1e-3 until it reaches the
    cap (SingularStep) or steps over it (damping_cap)."""

    @staticmethod
    def train(monkeypatch, config, solves):
        """Train a seed-5 start with the failing solve; count each call in
        solves."""

        def solve(a, b):
            solves.append(a)
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", solve)
        start = build(config, seed=5)
        xs = np.random.default_rng(4).uniform(0, 1, (20, 2))
        return start, *train_lm(start, [((x[0], x[1]), 0.4 * x[0]) for x in xs], config)

    def test_raises_singular_step_at_the_cap(self, monkeypatch):
        # 1e-3 grown 13 times by 10 is exactly 1e10: the 14th proposal
        solves = []
        with pytest.raises(SingularStep,
                           match=r"^normal equations unsolvable at damping 1e\+10$"):
            self.train(monkeypatch, NnConfig(), solves)
        assert len(solves) == 14

    def test_steps_over_the_cap_to_damping_cap(self, monkeypatch):
        # 1e-3 * 3**27 is below 1e10 and 1e-3 * 3**28 above it
        solves = []
        start, model, trace = self.train(monkeypatch, NnConfig(lm_damping_factor=3.0), solves)
        assert len(solves) == 28
        assert trace.stop_reason == "damping_cap"
        assert trace.losses == (math.inf,) * 28
        assert trace.accepted == (False,) * 28
        assert trace.final_damping > DAMPING_CAP
        assert np.array_equal(nn._params(model), nn._params(start))


@pytest.fixture(scope="module")
def default_split():
    """The default 50-day set, split 60/20/20."""
    return split_chronological(generate(SynthConfig(), 50).series, (0.6, 0.2, 0.2))


@pytest.fixture(scope="module")
def default_train(default_split):
    """The default 50-day set's 30-day train split."""
    assert default_split.train.num_days == 30
    return default_split.train


@pytest.fixture(scope="module")
def default_train_inputs(default_train):
    """Normalized samples of the default train split, one row per slot."""
    return day_ahead_samples(default_train, default_train.max_power())


class TestTrainMatchesReference:
    """The cached-activation LM loop reproduces the recompute-everything
    loop exactly: same parameters, losses, accept flags, damping and stop
    reason."""

    @staticmethod
    def check(inputs, targets, hidden, restart):
        config = NnConfig(hidden_neurons=hidden)
        start = nn._params(build(config, derive_seed(config.rng_seed, restart)))
        theta, trace = nn._train_lm_arrays(
            start.copy(), hidden, inputs, targets, np.ones(targets.size), config
        )
        ref_theta, ref_trace = reference_lm(start.copy(), hidden, inputs, targets, config)
        assert np.array_equal(theta, ref_theta)
        assert trace == ref_trace

    @pytest.mark.parametrize("hidden", [1, 3, 6, 8])
    @pytest.mark.parametrize("restart", [0, 1, 2])
    def test_default_train_split(self, default_train_inputs, hidden, restart):
        self.check(*default_train_inputs, hidden, restart)

    @pytest.mark.parametrize("hidden", [1, 3, 6, 8])
    @pytest.mark.parametrize("restart", [0, 1, 2])
    def test_random_samples(self, hidden, restart):
        self.check(*random_samples(restart), hidden, restart)


def random_samples(restart):
    rng = np.random.default_rng(100 + restart)
    inputs = rng.uniform(0, 1, (60, 2))
    targets = np.sin(3 * inputs[:, 0]) * 0.5 + 0.3 * inputs[:, 1] ** 2
    return inputs, targets


class TestTrainMatchesRowMajorLoop:
    """The neuron-major layout changes only rounding: the row-major loop
    takes the same steps to the same stop, with a final loss and weights
    that agree to rounding."""

    @staticmethod
    def run_both(inputs, targets, hidden, restart):
        """Both loops' parameters, neuron-major, and traces."""
        config = NnConfig(hidden_neurons=hidden)
        start = nn._params(build(config, derive_seed(config.rng_seed, restart)))
        theta, trace = nn._train_lm_arrays(
            start.copy(), hidden, inputs, targets, np.ones(targets.size), config
        )
        order = neuron_major_order(hidden)
        row_major_start = np.empty_like(start)
        row_major_start[order] = start
        old_theta, old_trace = row_major_lm(row_major_start, hidden, inputs, targets, config)
        return theta, trace, old_theta[order], old_trace

    def check(self, inputs, targets, hidden, restart):
        theta, trace, old_theta, old_trace = self.run_both(inputs, targets, hidden, restart)
        assert trace.accepted == old_trace.accepted
        assert trace.stop_reason == old_trace.stop_reason
        assert trace.final_loss == pytest.approx(old_trace.final_loss, rel=1e-8)
        assert np.max(np.abs(theta - old_theta)) <= 1e-6 * np.max(np.abs(old_theta))

    @pytest.mark.parametrize("hidden", [1, 3, 6, 8])
    @pytest.mark.parametrize("restart", [0, 1, 2])
    def test_default_train_split(self, default_train_inputs, hidden, restart):
        self.check(*default_train_inputs, hidden, restart)

    @pytest.mark.parametrize("hidden, restart", [
        (h, r) for h in (1, 3, 6, 8) for r in (0, 1, 2) if (h, r) != (1, 0)
    ])
    def test_random_samples(self, hidden, restart):
        self.check(*random_samples(restart), hidden, restart)

    def test_saturated_single_neuron_path_depends_on_rounding(self):
        # Random samples, H = 1, restart 0: within six steps the one neuron
        # saturates (input weights about -220 and 68, bias 127) and cond(J'J)
        # reaches 1.6e15, so rounding decides how far the damped steps go.
        # Both loops make the same decisions while both run and stop on
        # tolerance at the same loss, a few steps apart, with weights that
        # differ by about 5e-4 of max |theta|.
        _, trace, _, old_trace = self.run_both(*random_samples(0), 1, 0)
        both = min(len(trace.accepted), len(old_trace.accepted))
        assert trace.accepted[:both] == old_trace.accepted[:both]
        assert trace.stop_reason == old_trace.stop_reason == "tolerance"
        assert trace.final_loss == pytest.approx(old_trace.final_loss, rel=1e-8)


def first_normal_equations(monkeypatch, inputs, targets, counts, hidden):
    """Initial loss and the first system (J'J + lambda I, -J'e) that LM
    solves, at the restart-0 start parameters."""
    systems = []
    solve = np.linalg.solve

    def spy(a, b):
        systems.append((a.copy(), b.copy()))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    config = NnConfig(hidden_neurons=hidden, max_iterations=1)
    start = nn._params(build(config, derive_seed(config.rng_seed, 0)))
    _, trace = nn._train_lm_arrays(start, hidden, inputs, targets, counts, config)
    monkeypatch.undo()
    return trace.initial_loss, *systems[0]


def assert_rel_close(got, want, rel):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


class TestDistinctRows:
    """fit_day_ahead trains on the distinct rows of day_ahead_samples,
    each weighted by its count; the objective is the full row set's."""

    def test_counts_sum_to_row_count(self, default_train, default_train_inputs):
        _, inputs, targets, counts = nn._training_setup(default_train)
        full_inputs, full_targets = default_train_inputs
        assert counts.sum() == full_targets.size == 2688
        assert targets.size == 1098
        # the distinct rows repeated by their counts are the full rows, sorted
        full = np.column_stack([full_inputs, full_targets])
        full = full[np.lexsort(full.T[::-1])]
        repeated = np.repeat(np.column_stack([inputs, targets]), counts, axis=0)
        assert np.array_equal(repeated, full)

    @pytest.mark.parametrize("hidden", [3, 6])
    def test_loss_and_normal_equations_match_full_rows(
        self, monkeypatch, default_train, default_train_inputs, hidden
    ):
        _, inputs, targets, counts = nn._training_setup(default_train)
        full_inputs, full_targets = default_train_inputs
        loss, system, rhs = first_normal_equations(
            monkeypatch, inputs, targets, counts, hidden
        )
        full_loss, full_system, full_rhs = first_normal_equations(
            monkeypatch, full_inputs, full_targets, np.ones(full_targets.size), hidden
        )
        assert loss == pytest.approx(full_loss, rel=1e-12)
        assert_rel_close(system, full_system, 1e-12)
        assert_rel_close(rhs, full_rhs, 1e-12)

    @pytest.mark.parametrize("hidden", [3, 6])
    @pytest.mark.parametrize("restart", [0, 1])
    def test_final_loss_matches_full_row_training(
        self, default_train, default_train_inputs, hidden, restart
    ):
        _, inputs, targets, counts = nn._training_setup(default_train)
        full_inputs, full_targets = default_train_inputs
        config = NnConfig(hidden_neurons=hidden)
        start = nn._params(build(config, derive_seed(config.rng_seed, restart)))
        _, trace = nn._train_lm_arrays(start, hidden, inputs, targets, counts, config)
        _, full_trace = nn._train_lm_arrays(
            start, hidden, full_inputs, full_targets, np.ones(full_targets.size), config
        )
        assert trace.final_loss == pytest.approx(full_trace.final_loss, rel=1e-6)

    def test_restart_rmse_is_over_all_rows(self, default_train, default_train_inputs):
        config = NnConfig(restarts=2, max_iterations=20)
        full_inputs, full_targets = default_train_inputs
        for model, rmse in nn.fit_restarts(default_train, config):
            err = nn._forward_batch(nn._params(model), 6, full_inputs) - full_targets
            assert rmse == pytest.approx(math.sqrt(err @ err / err.size), rel=1e-12)


class TestFitDayAhead:
    def test_30_days_make_2688_samples(self):
        series = make_series(np.random.default_rng(1).uniform(0, 9, (30, 96)))
        inputs, targets = day_ahead_samples(series, scale_max=9.0)
        assert inputs.shape == (2688, 2)
        assert targets.shape == (2688,)

    def test_sample_wiring(self):
        # target day d pairs with (d-1, d-2) at the same slot
        rows = np.arange(4 * 4, dtype=float).reshape(4, 4)
        series = make_series(rows, interval_seconds=21600)
        inputs, targets = day_ahead_samples(series, scale_max=1.0)
        assert inputs.shape == (8, 2)
        assert np.array_equal(inputs[0], [rows[1, 0], rows[0, 0]])
        assert targets[0] == rows[2, 0]
        assert np.array_equal(inputs[4], [rows[2, 0], rows[1, 0]])
        assert targets[4] == rows[3, 0]

    def test_needs_three_days(self):
        series = make_series(np.zeros((2, 96)))
        with pytest.raises(InsufficientTrainingDays):
            fit_day_ahead(series, NnConfig())

    def test_deterministic_under_master_seed(self):
        series = make_series(
            np.random.default_rng(4).uniform(0, 35000, (6, 4)),
            interval_seconds=21600,
        )
        config = NnConfig(hidden_neurons=3, restarts=3, max_iterations=40, rng_seed=11)
        a = fit_day_ahead(series, config)
        b = fit_day_ahead(series, config)
        assert np.array_equal(a.hidden_weights, b.hidden_weights)
        assert np.array_equal(a.output_weights, b.output_weights)

    def test_constant_series_learned_to_noise_floor(self):
        c = 500.0
        series = make_series(np.full((6, 4), c), interval_seconds=21600)
        config = NnConfig(hidden_neurons=3, restarts=2, max_iterations=100)
        model = fit_day_ahead(series, config)
        pred = predict_day(model, series.days[-1], series.days[-2])
        assert np.max(np.abs(pred - c)) < 1e-6 * c

    def test_two_day_cycle_predicted(self):
        # repeating A/B day pattern is exactly representable from the
        # previous-two-days input, so a converged net should nail it
        rng = np.random.default_rng(17)
        day_a = rng.uniform(0, 1000, 4)
        day_b = rng.uniform(0, 1000, 4)
        rows = [day_a if i % 2 == 0 else day_b for i in range(10)]
        series = make_series(rows, interval_seconds=21600)
        config = NnConfig(hidden_neurons=4, restarts=4, max_iterations=300)
        model = fit_day_ahead(series, config)
        pred = predict_day(model, series.days[-1], series.days[-2])
        peak = max(day_a.max(), day_b.max())
        err = math.sqrt(np.mean((pred - day_a) ** 2))
        assert err < 0.02 * peak

    @pytest.mark.parametrize("rmses, winner", [((3.0, 1.0, 1.0, 2.0), 1), ((2.0,) * 4, 0)])
    def test_keeps_the_lowest_rmse_and_the_earliest_on_a_tie(self, monkeypatch, rmses, winner):
        models = [object() for _ in rmses]
        monkeypatch.setattr(nn, "fit_restarts", lambda train, config: zip(models, rmses))
        assert fit_day_ahead(None, NnConfig()) is models[winner]


def assert_no_child_processes():
    """This process has no child process, running or exited and not yet
    waited for."""
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def in_process_restarts(default_train):
    """(model, RMSE) of restarts 0-9 of the default config on the default
    train split, each from one in-process call of the job function."""
    rows = nn._training_setup(default_train)
    return [nn._fit_restart(rows, NnConfig(), 96, restart) for restart in range(10)]


def job_failing_at(failing, i):
    """i * i, or ValueError(i) if i is in `failing`; a job _in_lanes can
    pickle."""
    if i in failing:
        raise ValueError(i)
    return i * i


def pid_of_job(i):
    """The pid of the process that runs job i."""
    return os.getpid()


# the indices of the jobs that job_run_here ran in this process; a forked
# worker appends to its own copy
RUN_HERE = []


def job_run_here(failing, i):
    """job_failing_at(failing, i), recording i in this process's RUN_HERE."""
    RUN_HERE.append(i)
    return job_failing_at(failing, i)


@forks_with_blas_threads
class TestRestartLanes:
    """fit_restarts runs restart r in-process when r % lanes == 0 and
    the others in lanes - 1 forked workers; every result is the bits of the
    in-process job, in restart order, whatever the CPU count."""

    @pytest.mark.parametrize("cpus, restarts, lanes",
                             [(2, 10, 2), (2, 1, 1), (8, 5, 5), (1, 10, 1)])
    def test_one_lane_per_cpu_at_one_blas_thread(self, monkeypatch, cpus, restarts, lanes):
        """One lane per CPU, at most one per restart, when OpenBLAS was
        told to run one thread; one lane at any other setting."""
        monkeypatch.setattr(nn, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(nn, "_ONE_BLAS_THREAD", True)
        assert nn._lanes(restarts) == lanes
        monkeypatch.setattr(nn, "_ONE_BLAS_THREAD", False)
        assert nn._lanes(restarts) == 1

    def test_one_lane_off_linux(self, monkeypatch):
        force_lanes(monkeypatch, 4)
        monkeypatch.setattr(sys, "platform", "darwin")
        assert nn._lanes(10) == 1

    def test_one_lane_beside_a_thread_of_the_caller(self, monkeypatch):
        """A thread the caller started rules out forking, whatever the
        BLAS setting says; once it is joined, the lanes come back."""
        force_lanes(monkeypatch, 4)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            assert nn._lanes(10) == 1
        finally:
            release.set()
            waiter.join()
        assert nn._lanes(10) == 4

    def test_forked_lanes_leave_the_thread_count(self, monkeypatch, default_train):
        """The pool joins its own threads on shutdown, so a process that
        ran one thread before fit_restarts runs one after it, and a later
        fit_restarts keeps its lanes."""
        force_lanes(monkeypatch, 3)
        nn.fit_restarts(default_train, NnConfig(restarts=3, max_iterations=2))
        assert nn._lanes(3) == 3
        assert_no_child_processes()

    @pytest.mark.parametrize("lanes", [1, 2, 3])
    @pytest.mark.parametrize("restarts", [1, 2, 5, 10])
    def test_bit_equal_to_in_process_jobs(
        self, monkeypatch, default_train, in_process_restarts, lanes, restarts
    ):
        force_lanes(monkeypatch, lanes)
        config = NnConfig(restarts=restarts)
        fitted = nn.fit_restarts(default_train, config)
        assert len(fitted) == restarts
        for (model, rmse), (want, want_rmse) in zip(fitted, in_process_restarts):
            assert np.array_equal(nn._params(model), nn._params(want))
            assert rmse == want_rmse
            assert model.config == config
            assert not model.hidden_weights.flags.writeable
        assert_no_child_processes()

    def test_tune_grid_identical_at_one_and_three_lanes(self, monkeypatch, default_split):
        grids = []
        for lanes in (1, 3):
            force_lanes(monkeypatch, lanes)
            grids.append(evaluation.tune_nn(default_split, (2, 5), NnConfig(restarts=4)))
        assert grids[0] == grids[1]
        assert None not in grids[0].raw_rmse
        assert_no_child_processes()

    @pytest.mark.parametrize("lanes", [1, 3])
    def test_singular_step_in_every_lane(self, monkeypatch, default_train, lanes):
        """np.linalg.solve fails before the fork, so the workers fail too;
        the error is the one the in-process loop raises."""
        def solve(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", solve)
        force_lanes(monkeypatch, lanes)
        with pytest.raises(SingularStep, match=r"^normal equations unsolvable at damping 1e\+10$"):
            fit_day_ahead(default_train, NnConfig())
        assert_no_child_processes()

    @pytest.mark.parametrize("failing, first", [({3, 4}, 3), ({2, 5}, 2), ({7}, 7)])
    @pytest.mark.parametrize("lanes", [1, 2, 3])
    def test_first_failing_job_in_index_order_raises(self, lanes, failing, first):
        """Each lane stops at its first failure; the failure raised is the
        one with the lowest index, whichever lane ran it."""
        with pytest.raises(ValueError) as raised:
            nn._in_lanes(partial(job_failing_at, failing), 9, lanes)
        assert raised.value.args == (first,)
        assert nn._in_lanes(partial(job_failing_at, ()), 9, lanes) == [i * i for i in range(9)]
        assert_no_child_processes()

    @pytest.mark.parametrize("lanes", [2, 3])
    def test_a_workers_failure_stops_the_caller_at_its_index(self, lanes):
        """The caller walks the indices in order, so a worker's failure at
        job 1 raises when the walk reaches 1, before the caller runs job
        `lanes` or any later job of its share."""
        RUN_HERE.clear()
        with pytest.raises(ValueError) as raised:
            nn._in_lanes(partial(job_run_here, {1}), 9, lanes)
        assert raised.value.args == (1,)
        assert RUN_HERE == [0]
        assert_no_child_processes()

    @pytest.mark.parametrize("lanes", [2, 3])
    def test_the_caller_runs_every_lanes_th_job(self, lanes):
        """Job i runs in the calling process exactly when i % lanes == 0:
        a profiler of the caller, such as perfbench's tracer, sees that
        share of the restarts."""
        pids = nn._in_lanes(pid_of_job, 9, lanes)
        assert [pid == os.getpid() for pid in pids] == [i % lanes == 0 for i in range(9)]
        assert_no_child_processes()


class TestPredictDay:
    def test_bias_only_network_flat_forecast(self):
        model = build(NnConfig(), seed=1, samples_per_day=4, scale_max=1000.0)
        flat = NnModel(
            hidden_weights=np.zeros_like(model.hidden_weights),
            hidden_biases=np.zeros_like(model.hidden_biases),
            output_weights=np.zeros_like(model.output_weights),
            output_bias=0.5,
            scale_max=1000.0,
            samples_per_day=4,
            config=model.config,
        )
        series = make_series(np.zeros((2, 4)), interval_seconds=21600)
        pred = predict_day(flat, series.days[1], series.days[0])
        assert pred == pytest.approx([500.0] * 4)

    def test_no_negative_outputs(self):
        series = make_series(
            np.random.default_rng(23).uniform(0, 35000, (8, 96))
        )
        config = NnConfig(hidden_neurons=4, restarts=2, max_iterations=30)
        model = fit_day_ahead(series, config)
        pred = predict_day(model, series.days[-1], series.days[-2])
        assert np.all(pred >= 0.0)
        assert np.all(np.isfinite(pred))

    def test_grid_mismatch(self):
        model = build(NnConfig(), seed=1, samples_per_day=96)
        series = make_series(np.zeros((12, 48)), interval_seconds=1800)
        with pytest.raises(GridMismatch):
            predict_day(model, series.days[1], series.days[0])
        with pytest.raises(GridMismatch,
                           match=r"^model expects 96 samples per day, got 48 and 48$"):
            nn.forecast_days(model, series, [series.first_index + 5])


class TestForecastDay:
    @pytest.fixture(scope="class")
    def model_and_series(self):
        rows = np.random.default_rng(24).uniform(0, 900, (8, 4))
        series = make_series(rows, start=Date(2015, 2, 20), interval_seconds=21600)
        model = build(NnConfig(hidden_neurons=3), seed=2, samples_per_day=4,
                      scale_max=900.0)
        return model, series

    def test_equals_predict_on_two_preceding_days(self, model_and_series):
        model, series = model_and_series
        days = range(series.first_index + 2, series.first_index + 8 + 1)
        want = [
            predict_day(model, series.day_by_index(day - 1), series.day_by_index(day - 2))
            for day in days
        ]
        # one forward pass over the block gives each day's forecast bit for bit
        assert np.array_equal(nn.forecast_days(model, series, days), want)
        assert nn.forecast_days(model, series, []).shape == (0, 4)

    @pytest.mark.parametrize("offset", [0, 1, 8 + 1])
    def test_missing_preceding_day_raises(self, model_and_series, offset):
        # (offsets from the first day) 1 lacks day -1, 0 lacks -2 and -1, 9 lacks 8
        model, series = model_and_series
        with pytest.raises(InsufficientHistory) as err:
            nn.forecast_days(model, series, [series.first_index + 3, series.first_index + offset])
        needed = {0: "2015-02-20 needs 2015-02-18..2015-02-19",
                  1: "2015-02-21 needs 2015-02-19..2015-02-20",
                  9: "2015-03-01 needs 2015-02-27..2015-02-28"}[offset]
        assert str(err.value) == f"{needed}; series covers 2015-02-20..2015-02-27"

    def test_first_day_in_order_lacking_history_named(self, model_and_series):
        # of two days lacking history, the later one comes first
        model, series = model_and_series
        first = series.first_index
        with pytest.raises(InsufficientHistory) as err:
            nn.forecast_days(model, series, [first + 3, first + 9, first])
        assert str(err.value) == (
            "2015-03-01 needs 2015-02-27..2015-02-28; series covers 2015-02-20..2015-02-27")

    @pytest.mark.parametrize("start, day, message", [
        (Date.min, 0, "0001-01-01 needs 2 day(s) before 0001-01-01..1 day(s) before "
         "0001-01-01; series covers 0001-01-01..0001-01-08"),
        (Date(9999, 12, 24), 9, "2 day(s) after 9999-12-31 needs 9999-12-31..1 day(s) "
         "after 9999-12-31; series covers 9999-12-24..9999-12-31"),
    ], ids=["before-date-min", "after-date-max"])
    def test_dates_off_the_calendar_named(self, model_and_series, start, day, message):
        model, series = model_and_series
        edge = make_series(series.power, start=start, interval_seconds=21600)
        # the day after the last has its history
        nn.forecast_days(model, edge, [edge.first_index + 8])
        with pytest.raises(InsufficientHistory) as err:
            nn.forecast_days(model, edge, [edge.first_index + day])
        assert str(err.value) == message
