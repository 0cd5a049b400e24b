"""Three-layer feed-forward network trained by Levenberg-Marquardt.

The network maps the power at one time slot of the previous two days to
the same slot of the forecast day: two inputs, H tanh hidden neurons,
one linear output. Inputs and targets are normalized by the training-set
maximum power; predictions are denormalized and clamped at zero.

Training is damped Gauss-Newton on the sum of squared errors with an
analytic Jacobian, restarted from several random initializations; the
restart with the lowest training RMSE wins. Most training rows repeat
(every night slot is the row (0, 0) -> 0), so the day-ahead training set
is kept as its distinct rows and their counts: scaling a row's residual
and Jacobian row by sqrt(count) gives the same sum of squared errors,
J'J and J'e as the full set, up to summation order. Each proposed step
is evaluated at most once and recorded once in the TrainTrace. One
evaluation of a parameter vector yields its hidden activations,
residual and loss; when a step is accepted those become the next
iteration's state, so the Jacobian is built from the cached activations
and the network is never evaluated twice at the same parameters.

A parameter vector has one order, neuron-major: per hidden neuron w_k0,
w_k1, b_k, then the output weights and bias (_params reads it from a
model, _with_params builds a model from it). n input pairs are the
(3, n) design matrix [x0; x1; 1], so the pre-activations are one
(H, 3) @ (3, n) product, and the Jacobian is stored transposed, one
contiguous row per parameter. Only the public jacobian regroups its
columns, into its documented row-major order. There is one forward
kernel (_hidden_batch, _output_batch): forward, predict_day,
forecast_days, jacobian and the training loop all use it, so a
network's own outputs give a training loss of exactly 0.

The restarts are independent, so fit_restarts spreads them over the
CPUs this process may use, in lanes: restart r runs in the calling
process when r % lanes == 0, and otherwise in one of lanes - 1 workers
started by fork.
There is one lane per CPU on Linux when BLAS runs one thread
(OPENBLAS_NUM_THREADS = 1), and one lane in all otherwise, as at
OpenBLAS's default of a thread per CPU. A restart computes the same bits
in any process and the results are put back in restart order, so the
models, the scores and every output byte do not depend on the CPU count.
Python 3.12 and later warn (DeprecationWarning) when they fork a process
that has threads: BLAS on one thread starts none, but a caller's own
threads do.
"""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .errors import GridMismatch, InsufficientTrainingDays, SingularStep
from .rng import SplitMix64, derive_seed
from .timeseries import MAX_POWER_W, DayProfile, SolarSeries, require_history

INPUT_WIDTH = 2
DAMPING_CAP = 1e10


@dataclass(frozen=True)
class NnConfig:
    hidden_neurons: int = 6
    restarts: int = 10
    lm_initial_damping: float = 1e-3
    lm_damping_factor: float = 10.0
    max_iterations: int = 200
    loss_tolerance: float = 1e-9
    rng_seed: int = 1

    def __post_init__(self):
        if not 1 <= self.hidden_neurons <= 64:
            raise ValueError("hidden_neurons must be in [1, 64]")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        # Written so that NaN fails: a NaN damping never passes DAMPING_CAP,
        # so the proposal loop would never end.
        if not (math.isfinite(self.lm_initial_damping) and self.lm_initial_damping > 0):
            raise ValueError("lm_initial_damping must be positive and finite")
        if not (math.isfinite(self.lm_damping_factor) and self.lm_damping_factor > 1):
            raise ValueError("lm_damping_factor must be finite and > 1")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if not (math.isfinite(self.loss_tolerance) and self.loss_tolerance > 0):
            raise ValueError("loss_tolerance must be positive and finite")

    @property
    def weight_shapes(self) -> dict[str, tuple[int, ...]]:
        """The shape of each weight array of a model with this config."""
        h = self.hidden_neurons
        return {"hidden_weights": (h, INPUT_WIDTH), "hidden_biases": (h,), "output_weights": (h,)}


@dataclass(frozen=True, eq=False)
class NnModel:
    hidden_weights: np.ndarray   # (H, 2)
    hidden_biases: np.ndarray    # (H,)
    output_weights: np.ndarray   # (H,)
    output_bias: float
    scale_max: float             # training-set max power, watts
    samples_per_day: int
    config: NnConfig

    def __post_init__(self):
        shapes = self.config.weight_shapes
        weights = {name: np.array(getattr(self, name), dtype=float) for name in shapes}
        if any(weights[name].shape != shape for name, shape in shapes.items()):
            raise ValueError(
                f"weight shapes inconsistent with {self.config.hidden_neurons} hidden "
                f"neurons: {', '.join(str(w.shape) for w in weights.values())}"
            )
        if not (all(np.all(np.isfinite(w)) for w in weights.values())
                and math.isfinite(self.output_bias)):
            raise ValueError("all weights must be finite")
        if not 0 < self.scale_max <= MAX_POWER_W:  # NaN fails too
            raise ValueError(f"scale_max must be in (0, {MAX_POWER_W:g}]")
        if self.samples_per_day < 1:
            raise ValueError("samples_per_day must be >= 1")
        for name, arr in weights.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "output_bias", float(self.output_bias))

    @property
    def history_days(self) -> int:
        """How many days before a forecast day its forecast reads: 2."""
        return INPUT_WIDTH

    def __reduce__(self):
        # Unpickled through __init__, so the copy is checked and read-only too
        return NnModel, tuple(getattr(self, field.name) for field in fields(self))


@dataclass(frozen=True)
class TrainTrace:
    """One entry per proposed LM step, in proposal order.

    stop_reason is why training ended: "budget" (max_iterations used up),
    "tolerance" (an accepted step improved by less than loss_tolerance)
    or "damping_cap" (the damping passed DAMPING_CAP without an
    acceptable step).
    """

    initial_loss: float
    losses: tuple[float, ...]
    accepted: tuple[bool, ...]
    final_damping: float
    stop_reason: str

    def accepted_losses(self) -> tuple[float, ...]:
        return tuple(l for l, ok in zip(self.losses, self.accepted) if ok)

    @property
    def final_loss(self) -> float:
        """Sum-squared error of the returned parameters."""
        kept = self.accepted_losses()
        return kept[-1] if kept else self.initial_loss


def build(
    config: NnConfig,
    seed: int,
    samples_per_day: int = 96,
    scale_max: float = 1.0,
) -> NnModel:
    """Fresh model with weights i.i.d. uniform in [-0.5, 0.5].

    Draw order is fixed (input weights row-major, hidden biases, output
    weights, output bias) so a seed fully determines the weight set.
    """
    rng = SplitMix64(seed)
    h = config.hidden_neurons
    w1 = np.array(
        [[rng.uniform(-0.5, 0.5) for _ in range(INPUT_WIDTH)] for _ in range(h)]
    )
    b1 = np.array([rng.uniform(-0.5, 0.5) for _ in range(h)])
    w2 = np.array([rng.uniform(-0.5, 0.5) for _ in range(h)])
    b2 = rng.uniform(-0.5, 0.5)
    return NnModel(
        hidden_weights=w1,
        hidden_biases=b1,
        output_weights=w2,
        output_bias=b2,
        scale_max=scale_max,
        samples_per_day=samples_per_day,
        config=config,
    )


def _params(model: NnModel) -> np.ndarray:
    """The model's parameters in neuron-major order: (w_k0, w_k1, b_k) for
    each hidden neuron k, then the H output weights and the output bias."""
    per_neuron = np.column_stack([model.hidden_weights, model.hidden_biases])
    return np.concatenate([per_neuron.ravel(), model.output_weights, [model.output_bias]])


def _with_params(params: np.ndarray, base: NnModel) -> NnModel:
    """base with its weights replaced by the neuron-major params."""
    h = base.config.hidden_neurons
    per_neuron = params[: 3 * h].reshape(h, INPUT_WIDTH + 1)
    return NnModel(
        hidden_weights=per_neuron[:, :INPUT_WIDTH],
        hidden_biases=per_neuron[:, INPUT_WIDTH],
        output_weights=params[3 * h : 4 * h],
        output_bias=float(params[4 * h]),
        scale_max=base.scale_max,
        samples_per_day=base.samples_per_day,
        config=base.config,
    )


def _design(inputs: np.ndarray) -> np.ndarray:
    """The (3, n) design matrix [x0; x1; 1] of n input pairs."""
    design = np.empty((INPUT_WIDTH + 1, inputs.shape[0]))
    design[:INPUT_WIDTH] = inputs.T
    design[INPUT_WIDTH] = 1.0
    return design


def _hidden_batch(params: np.ndarray, h: int, design: np.ndarray) -> np.ndarray:
    """Hidden activations tanh([W1 b1] @ design), shape (H, n): the first
    3H params, read as the (H, 3) matrix [W1 b1]."""
    hidden = params[: 3 * h].reshape(h, INPUT_WIDTH + 1) @ design
    return np.tanh(hidden, out=hidden)


def _output_batch(params: np.ndarray, h: int, hidden: np.ndarray) -> np.ndarray:
    return params[3 * h : 4 * h] @ hidden + params[4 * h]


def _forward_batch(params: np.ndarray, h: int, inputs: np.ndarray) -> np.ndarray:
    """Outputs on n input pairs, computed by the training loop's kernels,
    so they are bit-equal to the loop's."""
    return _output_batch(params, h, _hidden_batch(params, h, _design(inputs)))


def forward(model: NnModel, inputs) -> float:
    """Evaluate the network on one normalized input pair."""
    x = np.asarray(inputs, dtype=float)
    if x.shape != (INPUT_WIDTH,):
        raise ValueError(f"expected an input pair, got shape {x.shape}")
    return float(_forward_batch(_params(model), model.config.hidden_neurons, x[None, :])[0])


def _jacobian_batch(
    params: np.ndarray,
    h: int,
    design: np.ndarray,
    hidden: np.ndarray,
    root: np.ndarray,
    jac: np.ndarray,
) -> np.ndarray:
    """Fill rows 0..4H-1 of jac, the (4H+1, n) transposed Jacobian at the
    neuron-major params with every column scaled by root, given hidden =
    _hidden_batch(params, h, design). Row 4H, d out / d output bias = root,
    does not depend on params and is left to the caller."""
    gate = 1.0 - hidden**2                       # (H, n): d out / d preactivation
    gate *= params[3 * h : 4 * h, None]
    gate *= root
    np.multiply(gate[:, None, :], design, out=jac[: 3 * h].reshape(h, INPUT_WIDTH + 1, -1))
    np.multiply(hidden, root, out=jac[3 * h : 4 * h])
    return jac


def jacobian(model: NnModel, batch) -> np.ndarray:
    """Analytic derivative of the output w.r.t. every parameter.

    Row r, column c is d forward(batch[r]) / d theta_c with parameters
    in the order [input weights row-major, hidden biases, output weights,
    output bias].
    """
    inputs = np.atleast_2d(np.asarray(batch, dtype=float))
    if inputs.size == 0:
        raise ValueError("batch must be non-empty")
    if inputs.shape[1] != INPUT_WIDTH:
        raise ValueError(f"inputs must be pairs, got shape {inputs.shape}")
    h = model.config.hidden_neurons
    params = _params(model)
    design = _design(inputs)
    ones = np.ones(inputs.shape[0])
    jac = np.empty((4 * h + 1, inputs.shape[0]))
    jac[4 * h] = ones
    _jacobian_batch(params, h, design, _hidden_batch(params, h, design), ones, jac)
    # J' has one neuron-major row per parameter; regroup them into the
    # documented column order
    per_neuron = jac[: 3 * h].reshape(h, INPUT_WIDTH + 1, -1)
    return np.concatenate([
        per_neuron[:, :INPUT_WIDTH].reshape(INPUT_WIDTH * h, -1),
        per_neuron[:, INPUT_WIDTH],
        jac[3 * h :],
    ]).T


def train_lm(model: NnModel, samples, config: NnConfig) -> tuple[NnModel, TrainTrace]:
    """Levenberg-Marquardt on the sum-squared error over samples.

    Each iteration solves (J'J + lambda I) delta = -J'e and accepts the
    step only if the error decreases (lambda shrinks by the damping
    factor); otherwise lambda grows and the step is retried. Training
    stops at the iteration budget, when an accepted step improves by less
    than loss_tolerance, or when lambda exceeds the 1e10 cap; the trace's
    stop_reason says which.

    Every sample is one row of weight 1. fit_day_ahead minimizes the same
    objective over distinct rows weighted by their counts.
    """
    if len(samples) < 1:
        raise ValueError("need at least one training sample")
    if config.hidden_neurons != model.config.hidden_neurons:
        raise ValueError("config hidden_neurons disagrees with the model")
    inputs = np.array([list(x) for x, _ in samples], dtype=float)
    targets = np.array([t for _, t in samples], dtype=float)
    params, trace = _train_lm_arrays(_params(model), model.config.hidden_neurons,
                                     inputs, targets, np.ones(targets.size), config)
    return _with_params(params, model), trace


def _train_lm_arrays(
    params: np.ndarray,
    h: int,
    inputs: np.ndarray,
    targets: np.ndarray,
    counts: np.ndarray,
    config: NnConfig,
) -> tuple[np.ndarray, TrainTrace]:
    """LM on sum(counts * (output - targets)**2): row r stands for
    counts[r] identical rows. Returns the trained neuron-major params and
    the trace.

    Every array the loop touches is parameter-major and contiguous: the
    neuron-major params (see _params), the inputs as the (3, n) design
    matrix [x0; x1; 1], the hidden activations as (H, n) and the Jacobian
    as one (4H+1, n) buffer holding J', one row per parameter, so
    J'J = jac @ jac.T and J'e = jac @ err. Residuals and Jacobian columns
    are scaled by sqrt(counts), so J'J and J'e keep their unweighted form;
    with unit counts the scaling multiplies by 1.0 and changes no bit.
    Reusing an accepted step's evaluation gives the same bits as
    recomputing it at every iteration.
    """
    design = _design(inputs)
    root = np.sqrt(counts)
    jac = np.empty((4 * h + 1, targets.size))
    jac[4 * h] = root

    def evaluate(p: np.ndarray):
        hidden = _hidden_batch(p, h, design)
        err = (_output_batch(p, h, hidden) - targets) * root
        return p, hidden, err, float(err @ err)

    # params, hidden, err and loss are always one evaluation: an accepted
    # proposal's evaluation becomes the next iteration's state.
    params, hidden, err, loss = evaluate(params)
    initial_loss = loss
    damping = config.lm_initial_damping
    identity = np.eye(params.size)
    losses: list[float] = []
    accepted: list[bool] = []
    stop_reason = "budget"

    for _ in range(config.max_iterations):
        _jacobian_batch(params, h, design, hidden, root, jac)
        descent = -(jac @ err)
        gauss_newton = jac @ jac.T
        # Propose at growing damping until a step lowers the loss or the
        # damping passes the cap; each proposal is recorded once. A step
        # that cannot be solved or is not finite scores inf.
        while True:
            try:
                delta = np.linalg.solve(gauss_newton + damping * identity, descent)
            except np.linalg.LinAlgError:
                delta = None
            if delta is not None and np.all(np.isfinite(delta)):
                proposal = evaluate(params + delta)
            else:
                proposal = (None, None, None, math.inf)
            losses.append(proposal[-1])
            accepted.append(proposal[-1] < loss)
            if accepted[-1]:
                break
            if delta is None and damping >= DAMPING_CAP:
                raise SingularStep(
                    f"normal equations unsolvable at damping {damping:g}"
                )
            damping = damping * config.lm_damping_factor
            if damping > DAMPING_CAP:
                break

        if not accepted[-1]:
            stop_reason = "damping_cap"  # no acceptable step exists
            break
        improvement = loss - proposal[-1]
        params, hidden, err, loss = proposal
        damping = damping / config.lm_damping_factor
        if improvement < config.loss_tolerance:
            stop_reason = "tolerance"
            break

    trace = TrainTrace(
        initial_loss=initial_loss,
        losses=tuple(losses),
        accepted=tuple(accepted),
        final_damping=damping,
        stop_reason=stop_reason,
    )
    return params, trace


def day_ahead_samples(train: SolarSeries, scale_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Normalized training set over all eligible (day, slot) pairs:
    inputs [P(d-1, m), P(d-2, m)] / scale_max, target P(d, m) / scale_max."""
    power = train.power
    inputs = np.stack(
        [power[1:-1].ravel(), power[:-2].ravel()], axis=1
    ) / scale_max
    targets = power[2:].ravel() / scale_max
    return inputs, targets


def _training_setup(train: SolarSeries):
    """Scale and distinct training rows of train.

    Returns scale_max, the distinct (inputs, target) rows of
    day_ahead_samples in sorted order, and how often each occurs; the
    counts sum to day_ahead_samples' row count.
    """
    if train.num_days < 3:
        raise InsufficientTrainingDays(
            f"day-ahead NN needs >= 3 training days, have {train.num_days}"
        )
    scale_max = train.max_power()
    if scale_max <= 0:
        scale_max = 1.0  # all-dark series: normalization is the identity
    inputs, targets = day_ahead_samples(train, scale_max)
    rows, counts = np.unique(
        np.column_stack([inputs, targets]), axis=0, return_counts=True
    )
    return (
        scale_max,
        np.ascontiguousarray(rows[:, :INPUT_WIDTH]),
        np.ascontiguousarray(rows[:, INPUT_WIDTH]),
        counts,
    )


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _lanes(restarts: int) -> int:
    """How many processes train `restarts` restarts at once: one per
    usable CPU, at most `restarts`, on Linux with BLAS on one thread, and
    1 otherwise.

    OpenBLAS runs the thread count of the first of OPENBLAS_NUM_THREADS,
    GOTO_NUM_THREADS and OMP_NUM_THREADS set to a positive number, else
    one thread per CPU. At one thread it starts none, so a process that
    forks has no threads. Two processes that each run a multi-threaded
    BLAS oversubscribe the CPUs: on a 2-core VM at the default threads,
    tune_nn took 3.8-12.2 s in two lanes against 3.5-3.8 s in one. Off
    Linux, fork is not CPython's default way to start a process, and on
    macOS CPython calls it unsafe."""
    if sys.platform != "linux":
        return 1
    settings = (os.environ.get(name, "")
                for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
    blas_threads = next((int(value) for value in settings if value.isdigit() and int(value) > 0), None)
    return min(restarts, _usable_cpus()) if blas_threads == 1 else 1


def _fit_restart(
    rows: tuple, config: NnConfig, samples_per_day: int, restart: int
) -> tuple[NnModel, float]:
    """Restart `restart` of fit_restarts on the _training_setup `rows`:
    train from derive_seed(config.rng_seed, restart) and return the model
    and its training RMSE."""
    scale_max, inputs, targets, counts = rows
    start = build(
        config, derive_seed(config.rng_seed, restart),
        samples_per_day=samples_per_day, scale_max=scale_max,
    )
    params, trace = _train_lm_arrays(
        _params(start), config.hidden_neurons, inputs, targets, counts, config
    )
    # RMSE over every training row, not over the distinct ones
    return _with_params(params, start), math.sqrt(trace.final_loss / counts.sum())


def fit_restarts(train: SolarSeries, config: NnConfig) -> list[tuple[NnModel, float]]:
    """(model, training RMSE) of each restart, in restart order.

    Restart r trains from derive_seed(config.rng_seed, r) (_fit_restart);
    the training rows are built once for all restarts. The restarts are
    spread by fork (_in_lanes) over the usable CPUs when BLAS runs one
    thread (_lanes), and every result is the same bits at any CPU count;
    with one lane nothing is forked. Python 3.12 and later warn
    (DeprecationWarning) when they fork a process that has threads, such
    as threads of the caller's own.
    """
    job = partial(_fit_restart, _training_setup(train), config, train.grid.samples_per_day)
    return _in_lanes(job, config.restarts, _lanes(config.restarts))


def _in_lanes(job: Callable, count: int, lanes: int) -> list:
    """[job(i) for i in range(count)], with job i run in this process when
    i % lanes == 0, and otherwise in one of lanes - 1 forked workers (so
    `job` must pickle). The exception of the first job, in index order,
    that raised is raised, as the plain loop would raise it. The workers
    have exited, and been waited for, on return and on any exception;
    after a failure they first finish the jobs already queued to them."""
    if lanes == 1:
        return [job(i) for i in range(count)]
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    pool = ProcessPoolExecutor(lanes - 1, mp_context=get_context("fork"))
    try:
        futures = {i: pool.submit(job, i) for i in range(count) if i % lanes}
        own = {}
        try:
            for i in range(0, count, lanes):
                own[i] = job(i)
        except Exception:
            for j in futures:  # a worker's job before i fails first
                if j < i:
                    futures[j].result()
            raise
        return [own[i] if i in own else futures[i].result() for i in range(count)]
    finally:
        pool.shutdown(cancel_futures=True)


def fit_day_ahead(train: SolarSeries, config: NnConfig) -> NnModel:
    """Train with multiple restarts; keep the lowest-training-RMSE model.

    Restart seeds derive deterministically from config.rng_seed, and the
    pick is min over fit_restarts keyed by RMSE, which keeps the first
    minimum: ties on RMSE keep the earliest restart, so the result does
    not depend on evaluation order.
    """
    return min(fit_restarts(train, config), key=lambda restart: restart[1])[0]


def predict_day(
    model: NnModel, prev_day: DayProfile, prev_prev_day: DayProfile
) -> np.ndarray:
    """Forecast a full day from the two preceding days' measurements.

    Inputs and output are scaled by the model's training maximum; the
    denormalized forecast is clamped at zero.
    """
    return _predict(model, prev_day.samples, prev_prev_day.samples)


def forecast_days(model: NnModel, series: SolarSeries, day_indices) -> np.ndarray:
    """One forecast row per day of `day_indices`, each from the
    `history_days` days of `series` before it, in one forward pass;
    raises InsufficientHistory when any of them is missing."""
    for day in day_indices:
        require_history(series, day, model.history_days)
    days = np.asarray(day_indices, dtype=int)
    return _predict(model, series.rows(days - 1), series.rows(days - 2))


def _predict(model: NnModel, prev: np.ndarray, prev_prev: np.ndarray) -> np.ndarray:
    """`predict_day` of each pair of (..., samples) rows of the two
    preceding days, in one forward pass over every slot."""
    if prev.shape[-1:] != (model.samples_per_day,) or prev_prev.shape != prev.shape:
        raise GridMismatch(
            f"model expects {model.samples_per_day} samples per day, got "
            f"{prev.shape[-1]} and {prev_prev.shape[-1]}"
        )
    inputs = np.stack([prev, prev_prev], axis=-1).reshape(-1, INPUT_WIDTH) / model.scale_max
    outputs = _forward_batch(_params(model), model.config.hidden_neurons, inputs)
    return np.maximum(outputs * model.scale_max, 0.0).reshape(prev.shape)
