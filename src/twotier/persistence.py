"""Versioned text serialization for trained models.

Layout of a `.htm-model` file:

    htm-model <format_version>
    kind <knn|nn>
    sha256 <hex digest of the payload>
    <payload lines>

The payload is everything after the checksum line. Numbers are written
with repr(), the shortest decimal string that round-trips, so a loaded
model is bit-equal to the saved one on every platform. Unknown versions
are rejected outright rather than migrated.

A k-NN model whose pairs are `knn.from_days`' layout (every fitted one)
is written as version 2, its day matrix, and loaded back through
`knn.from_days`. Any other k-NN model is written as version 1, its
pairs; NN models are version 1. The loader reads both versions.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import (
    ChecksumMismatch,
    InsufficientTrainingDays,
    InvariantViolation,
    MalformedModelFile,
    SinkWriteFailure,
    UnsupportedVersion,
)
from .knn import KnnConfig, KnnModel, from_days
from .nn import NnConfig, NnModel
from .timeseries import read_text

MAGIC = "htm-model"
MODEL_SUFFIX = ".htm-model"

KIND_KNN = "knn"
KIND_NN = "nn"


def _floats(values) -> str:
    return " ".join(repr(float(v)) for v in np.asarray(values).ravel())


def _knn_days_payload(model: KnnModel) -> list[str]:
    return [
        f"depth_days {model.config.depth_days}",
        f"neighbors {model.config.neighbors}",
        f"days {len(model.days)}",
        f"samples_per_day {model.samples_per_day}",
        *(f"day {_floats(day)}" for day in model.days),
    ]


def _knn_pairs_payload(model: KnnModel) -> list[str]:
    lines = [
        f"depth_days {model.config.depth_days}",
        f"neighbors {model.config.neighbors}",
        f"pairs {model.pair_count}",
        f"context_length {model.context_length}",
        f"target_length {model.target_length}",
    ]
    for row in range(model.pair_count):
        lines.append(f"context {_floats(model.contexts[row])}")
        lines.append(f"target {_floats(model.targets[row])}")
    return lines


def _nn_payload(model: NnModel) -> list[str]:
    cfg = model.config
    return [
        f"hidden_neurons {cfg.hidden_neurons}",
        f"restarts {cfg.restarts}",
        f"lm_initial_damping {cfg.lm_initial_damping!r}",
        f"lm_damping_factor {cfg.lm_damping_factor!r}",
        f"max_iterations {cfg.max_iterations}",
        f"loss_tolerance {cfg.loss_tolerance!r}",
        f"rng_seed {cfg.rng_seed}",
        f"samples_per_day {model.samples_per_day}",
        f"scale_max {model.scale_max!r}",
        f"hidden_weights {_floats(model.hidden_weights)}",
        f"hidden_biases {_floats(model.hidden_biases)}",
        f"output_weights {_floats(model.output_weights)}",
        f"output_bias {model.output_bias!r}",
    ]


def render_model(model) -> str:
    """The complete file content for a model, checksum included."""
    if isinstance(model, KnnModel) and model.days is not None:
        version, kind, payload_lines = 2, KIND_KNN, _knn_days_payload(model)
    elif isinstance(model, KnnModel):
        version, kind, payload_lines = 1, KIND_KNN, _knn_pairs_payload(model)
    elif isinstance(model, NnModel):
        version, kind, payload_lines = 1, KIND_NN, _nn_payload(model)
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    payload = "".join(line + "\n" for line in payload_lines)
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    header = f"{MAGIC} {version}\nkind {kind}\nsha256 {digest}\n"
    return header + payload


def save_model(model, sink) -> None:
    """Write a model to a text sink (anything with .write)."""
    text = render_model(model)
    try:
        sink.write(text)
    except OSError as exc:
        raise SinkWriteFailure(f"could not write model: {exc}") from exc


class _Scanner:
    def __init__(self, lines):
        self.lines = lines
        self.pos = 0

    def next_line(self) -> str:
        if self.pos >= len(self.lines):
            raise MalformedModelFile("file truncated")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def keyed(self, key: str) -> str:
        line = self.next_line()
        head, _, rest = line.partition(" ")
        if head != key or not rest:
            raise MalformedModelFile(f"expected '{key} ...', got {line!r}")
        return rest

    def keyed_int(self, key: str) -> int:
        text = self.keyed(key)
        try:
            return int(text)
        except ValueError:
            raise MalformedModelFile(f"{key}: not an integer: {text!r}") from None

    def keyed_float(self, key: str) -> float:
        text = self.keyed(key)
        try:
            return float(text)
        except ValueError:
            raise MalformedModelFile(f"{key}: not a number: {text!r}") from None

    def keyed_floats(self, key: str, count: int) -> np.ndarray:
        parts = self.keyed(key).split()
        if len(parts) != count:
            raise MalformedModelFile(
                f"{key}: expected {count} values, got {len(parts)}"
            )
        try:
            return np.fromiter(map(float, parts), float, count)
        except ValueError:
            raise MalformedModelFile(f"{key}: non-numeric value") from None

    def done(self) -> None:
        if self.pos != len(self.lines):
            raise MalformedModelFile(
                f"{len(self.lines) - self.pos} unexpected trailing lines"
            )


def _load_knn_days(scanner: _Scanner) -> KnnModel:
    depth = scanner.keyed_int("depth_days")
    neighbors = scanner.keyed_int("neighbors")
    count = scanner.keyed_int("days")
    per_day = scanner.keyed_int("samples_per_day")
    if count < 1 or per_day < 1:
        raise InvariantViolation("day matrix dimensions must be positive")
    # trust the header's sizes only as far as the lines back them
    if len(scanner.lines) - scanner.pos < count:
        raise MalformedModelFile(f"file truncated: header promises {count} days")
    days = [scanner.keyed_floats("day", per_day) for _ in range(count)]
    scanner.done()
    try:
        return from_days(KnnConfig(depth_days=depth, neighbors=neighbors), days)
    except (ValueError, InsufficientTrainingDays) as exc:
        raise InvariantViolation(str(exc)) from exc


def _load_knn_pairs(scanner: _Scanner) -> KnnModel:
    depth = scanner.keyed_int("depth_days")
    neighbors = scanner.keyed_int("neighbors")
    pairs = scanner.keyed_int("pairs")
    context_length = scanner.keyed_int("context_length")
    target_length = scanner.keyed_int("target_length")
    if pairs < 1 or context_length < 1 or target_length < 1:
        raise InvariantViolation("pair table dimensions must be positive")
    # trust the header's sizes only as far as the lines back them
    if len(scanner.lines) - scanner.pos < 2 * pairs:
        raise MalformedModelFile(f"file truncated: header promises {pairs} pairs")
    rows = [
        (scanner.keyed_floats("context", context_length),
         scanner.keyed_floats("target", target_length))
        for _ in range(pairs)
    ]
    contexts, targets = zip(*rows)
    scanner.done()
    try:
        config = KnnConfig(depth_days=depth, neighbors=neighbors)
        return KnnModel(config=config, contexts=contexts, targets=targets)
    except ValueError as exc:
        raise InvariantViolation(str(exc)) from exc


def _load_nn(scanner: _Scanner) -> NnModel:
    hidden = scanner.keyed_int("hidden_neurons")
    restarts = scanner.keyed_int("restarts")
    initial_damping = scanner.keyed_float("lm_initial_damping")
    damping_factor = scanner.keyed_float("lm_damping_factor")
    max_iterations = scanner.keyed_int("max_iterations")
    loss_tolerance = scanner.keyed_float("loss_tolerance")
    rng_seed = scanner.keyed_int("rng_seed")
    samples_per_day = scanner.keyed_int("samples_per_day")
    scale_max = scanner.keyed_float("scale_max")
    if hidden < 1:
        raise InvariantViolation("hidden_neurons must be positive")
    w1 = scanner.keyed_floats("hidden_weights", 2 * hidden).reshape(hidden, 2)
    b1 = scanner.keyed_floats("hidden_biases", hidden)
    w2 = scanner.keyed_floats("output_weights", hidden)
    b2 = scanner.keyed_float("output_bias")
    scanner.done()
    try:
        config = NnConfig(
            hidden_neurons=hidden,
            restarts=restarts,
            lm_initial_damping=initial_damping,
            lm_damping_factor=damping_factor,
            max_iterations=max_iterations,
            loss_tolerance=loss_tolerance,
            rng_seed=rng_seed,
        )
        return NnModel(
            hidden_weights=w1,
            hidden_biases=b1,
            output_weights=w2,
            output_bias=b2,
            scale_max=scale_max,
            samples_per_day=samples_per_day,
            config=config,
        )
    except ValueError as exc:
        raise InvariantViolation(str(exc)) from exc


_LOADERS = {
    (1, KIND_KNN): _load_knn_pairs,
    (2, KIND_KNN): _load_knn_days,
    (1, KIND_NN): _load_nn,
}


def load_model(source):
    """Parse a model document: a str, bytes, or a text or binary stream.

    Bytes that are not UTF-8 raise MalformedModelFile. The checksum is
    verified before any payload parsing; nothing is returned unless the
    whole file validates.
    """
    lines = read_text(source, MalformedModelFile).splitlines()
    scanner = _Scanner(lines)

    magic_line = scanner.next_line()
    head, _, version_text = magic_line.partition(" ")
    if head != MAGIC:
        raise MalformedModelFile(f"not a model file (first line {magic_line!r})")
    try:
        version = int(version_text)
    except ValueError:
        raise MalformedModelFile(f"bad version field {version_text!r}") from None
    versions = sorted({known for known, _ in _LOADERS})
    if version not in versions:
        readable = " and ".join(map(str, versions))
        raise UnsupportedVersion(f"format version {version} (this build reads {readable})")
    kind = scanner.keyed("kind")
    stored_digest = scanner.keyed("sha256")
    payload = "".join(line + "\n" for line in lines[scanner.pos :])
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    if digest != stored_digest:
        raise ChecksumMismatch(
            f"payload hash {digest[:12]}... does not match header"
        )
    if kind not in {known for _, known in _LOADERS}:
        raise MalformedModelFile(f"unknown model kind {kind!r}")
    loader = _LOADERS.get((version, kind))
    if loader is None:
        raise UnsupportedVersion(f"format version {version} has no kind {kind}")
    return loader(scanner)
