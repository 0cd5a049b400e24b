"""Versioned text serialization for trained models.

Layout of a `.htm-model` file:

    htm-model <format_version>
    kind <knn|nn>
    sha256 <hex digest of the payload>
    <payload lines>

A line ends at LF and at nothing else, and text after the last LF is a
line when it is not empty. `load_model` splits the text once: the header,
the payload lines and the payload (every byte after the checksum line)
come from that split. Numbers are written with repr(), the shortest
decimal string that round-trips, so a loaded model is bit-equal to the
saved one on every platform. Unknown versions are rejected, not migrated.

The payload opens with one `name value` line per field of the model's
config dataclass, in field order, written and read from that class's
fields. Each model kind has one format. A k-NN model is version 2, its
day matrix, loaded back through `knn.from_days`, so only a model built
by `knn.from_days` (every fitted one) can be written; an NN model is
version 1, its weights. A file in `save_model`'s spelling (every file
`train` writes) re-saves to the bytes it was read from. A value spelled
otherwise but accepted by int() or float() (`05`, `+5`, `0.00`, a second
space after the key) loads, and re-saves in the canonical spelling.

The `day` lines of a version 2 file in `save_model`'s spelling, the
CSV reader's block grammar (`timeseries._fields`) keyed `day`, are
parsed as one byte block (`_day_block`) when every value is `0.0` or
plain, ASCII digits with at most one `.` and 1-15 digits. Every other
spelling (a sign, an exponent, 16 or 17 digits), and every other payload
line, is read one line at a time by `_Scanner`; that per-line reader is
the reference, and the source of every error message: the block path
gives the same model, and leaves the lines it refuses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import typing

import numpy as np

from .errors import (
    ChecksumMismatch,
    InsufficientTrainingDays,
    InvariantViolation,
    MalformedModelFile,
    UnsupportedVersion,
    quoted,
)
from .knn import KnnConfig, KnnModel, from_days
from .nn import NnConfig, NnModel
from .timeseries import _decimals, _fields

MAGIC = "htm-model"
MODEL_SUFFIX = ".htm-model"

KIND_KNN = "knn"
KIND_NN = "nn"


# Each config class's fields and their types, in field order: the
# settings lines that open a payload.
_SETTINGS = {
    kind: {f.name: typing.get_type_hints(kind)[f.name] for f in dataclasses.fields(kind)}
    for kind in (KnnConfig, NnConfig)
}
# what a malformed value of each type is not
_NOT_A = {int: "an integer", float: "a number"}


def _floats(values) -> str:
    return " ".join(repr(float(v)) for v in np.asarray(values).ravel())


def _settings(config) -> list[str]:
    return [f"{name} {getattr(config, name)!r}" for name in _SETTINGS[type(config)]]


def _knn_days_payload(model: KnnModel) -> list[str]:
    return [
        *_settings(model.config),
        f"days {len(model.days)}",
        f"samples_per_day {model.samples_per_day}",
        *(f"day {_floats(day)}" for day in model.days),
    ]


def _nn_payload(model: NnModel) -> list[str]:
    return [
        *_settings(model.config),
        f"samples_per_day {model.samples_per_day}",
        f"scale_max {model.scale_max!r}",
        *(f"{name} {_floats(getattr(model, name))}" for name in model.config.weight_shapes),
        f"output_bias {model.output_bias!r}",
    ]


def render_model(model) -> str:
    """The complete file content for a model, checksum included. A k-NN
    model built from its own pairs has no day matrix to write, and raises
    TypeError as any other type does."""
    if isinstance(model, KnnModel) and model.days is not None:
        version, kind, payload_lines = 2, KIND_KNN, _knn_days_payload(model)
    elif isinstance(model, NnModel):
        version, kind, payload_lines = 1, KIND_NN, _nn_payload(model)
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    payload = "".join(line + "\n" for line in payload_lines)
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    header = f"{MAGIC} {version}\nkind {kind}\nsha256 {digest}\n"
    return header + payload


def save_model(model, sink) -> None:
    """Write a model to a text sink (anything with .write); an OSError
    of the sink passes through."""
    sink.write(render_model(model))


def _build(build, *args, **kwargs):
    """build(*args, **kwargs), a rejected value raised as InvariantViolation."""
    try:
        return build(*args, **kwargs)
    except (ValueError, InsufficientTrainingDays) as exc:
        raise InvariantViolation(str(exc)) from exc


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
            raise MalformedModelFile(f"expected '{key} ...', got {quoted(line)}")
        return rest

    def typed(self, key: str, kind: type):
        """The value of a `key` line, read as an int or a float."""
        text = self.keyed(key)
        try:
            return kind(text)
        except ValueError:
            raise MalformedModelFile(f"{key}: not {_NOT_A[kind]}: {quoted(text)}") from None

    def settings(self, kind: type):
        """A `kind` config from one line per field, in field order."""
        return _build(kind, **{name: self.typed(name, field_type)
                               for name, field_type in _SETTINGS[kind].items()})

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
    config = scanner.settings(KnnConfig)
    count = scanner.typed("days", int)
    per_day = scanner.typed("samples_per_day", int)
    if count < 1 or per_day < 1:
        raise InvariantViolation("day matrix dimensions must be positive")
    # trust the header's sizes only as far as the lines back them
    if len(scanner.lines) - scanner.pos < count:
        raise MalformedModelFile(f"file truncated: header promises {count} days")
    days = _day_block(scanner.lines[scanner.pos : scanner.pos + count], per_day)
    if days is None:
        days = [scanner.keyed_floats("day", per_day) for _ in range(count)]
    else:
        scanner.pos += count
    scanner.done()
    return _build(from_days, config, days)


def _day_block(lines: list[str], per_day: int) -> np.ndarray | None:
    """The (days, per_day) matrix of the `day` lines `lines` when they are
    in the block grammar of `_fields` (`per_day + 1` fields a line) keyed
    `day` and every value is `0.0` or plain, parsed as one byte block by
    `_decimals`; else None, and the per-line reader, the reference, reads
    the lines."""
    if not all(line.startswith("day ") for line in lines):
        return None
    fields = _fields("\n".join([*lines, ""]), per_day + 1)
    if fields is None:
        return None
    data, *columns = fields
    # the fields after each line's `day` key
    starts, lengths = (column.reshape(len(lines), -1)[:, 1:].ravel() for column in columns)
    try:
        days = _decimals(data, starts, lengths)
    except ValueError:
        return None
    days.flags.writeable = False  # so from_days keeps it without a copy
    return days.reshape(len(lines), per_day)


def _load_nn(scanner: _Scanner) -> NnModel:
    config = scanner.settings(NnConfig)
    samples_per_day = scanner.typed("samples_per_day", int)
    scale_max = scanner.typed("scale_max", float)
    weights = {name: scanner.keyed_floats(name, math.prod(shape)).reshape(shape)
               for name, shape in config.weight_shapes.items()}
    output_bias = scanner.typed("output_bias", float)
    scanner.done()
    return _build(NnModel, **weights, output_bias=output_bias, scale_max=scale_max,
                  samples_per_day=samples_per_day, config=config)


_LOADERS = {
    (2, KIND_KNN): _load_knn_days,
    (1, KIND_NN): _load_nn,
}


def load_model(text: str):
    """Parse the text of a model file.

    The checksum is verified, over the payload exactly as given (line
    ends included), before any payload parsing; nothing is returned
    unless the whole file validates. One leading byte-order mark
    (U+FEFF) is dropped.
    """
    lines = text.removeprefix("\ufeff").split("\n")
    scanner = _Scanner(lines if lines[-1] else lines[:-1])

    magic_line = scanner.next_line()
    head, _, version_text = magic_line.partition(" ")
    if head != MAGIC:
        raise MalformedModelFile(f"not a model file (first line {quoted(magic_line)})")
    try:
        version = int(version_text)
    except ValueError:
        version = -1
    if version < 0 or str(version) != version_text:  # ASCII digits, no leading zero
        raise MalformedModelFile(f"bad version field {quoted(version_text)}")
    versions = sorted({known for known, _ in _LOADERS})
    if version not in versions:
        readable = " and ".join(map(str, versions))
        raise UnsupportedVersion(f"format version {version} (this build reads {readable})")
    kind = scanner.keyed("kind")
    stored_digest = scanner.keyed("sha256")
    payload = "\n".join(lines[3:])  # every byte after line 3, as read
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    if digest != stored_digest:
        raise ChecksumMismatch(
            f"payload hash {digest[:12]}... does not match header"
        )
    if kind not in {known for _, known in _LOADERS}:
        raise MalformedModelFile(f"unknown model kind {quoted(kind)}")
    loader = _LOADERS.get((version, kind))
    if loader is None:
        raise UnsupportedVersion(f"format version {version} has no kind {kind}")
    return loader(scanner)
