"""Model file format: round-trips, integrity checks, golden fixture."""

import dataclasses
import errno
import hashlib
import io
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    VERSION_1_KNN_FILE, load_outcome, per_line_outcome, rendered, replace_payload_line,
    takes_day_block, with_payload
)
from twotier import persistence
from twotier.errors import (
    ChecksumMismatch,
    InvariantViolation,
    MalformedModelFile,
    UnsupportedVersion,
)
from twotier.knn import KnnConfig, KnnModel, fit, from_days
from twotier.nn import NnConfig, build, forward
from twotier.persistence import load_model, render_model, save_model
from twotier.synth import SynthConfig, generate
from twotier.timeseries import MAX_POWER_W

DATA_DIR = Path(__file__).parent / "data"
# the next float above MAX_POWER_W, the largest value a model file may hold
ABOVE_MAX = float(np.nextafter(MAX_POWER_W, np.inf))


def small_fitted_model():
    """`from_days` of five one-slot days with D = 2: three pairs, the
    layout every fitted model has."""
    days = [[1.5], [3.25], [10.0], [0.5], [50.25]]
    return from_days(KnnConfig(depth_days=2, neighbors=2), days)


def pair_built_models():
    """k-NN models built from their own pairs, which have no day matrix,
    as test parameters: arbitrary pairs, and the pairs of
    `small_fitted_model` as `from_days` lays them out."""
    fitted = small_fitted_model()
    contexts = [[1.5, 2.5], [3.25, 0.125], [10.0, 0.5]]
    targets = [[100.0], [200.5], [50.25]]
    return [
        pytest.param(KnnModel(fitted.config, contexts, targets), id="pairs"),
        pytest.param(KnnModel(fitted.config, fitted.contexts, fitted.targets),
                     id="from_days-pairs"),
    ]


def roundtrip(model):
    buf = io.StringIO()
    save_model(model, buf)
    return load_model(buf.getvalue())


class TestRoundTrip:
    def test_knn_bit_equal(self):
        model = small_fitted_model()
        back = roundtrip(model)
        assert back.config == model.config
        assert np.array_equal(back.days, model.days)
        assert np.array_equal(back.contexts, model.contexts)
        assert np.array_equal(back.targets, model.targets)

    def test_knn_random_values_bit_equal(self):
        days = np.random.default_rng(71).uniform(0, 35000, (9, 3))
        model = from_days(KnnConfig(depth_days=2, neighbors=3), days)
        back = roundtrip(model)
        assert back.days.tobytes() == model.days.tobytes()
        assert back.contexts.tobytes() == model.contexts.tobytes()

    def test_nn_forward_outputs_zero_ulp(self):
        model = build(NnConfig(hidden_neurons=5), seed=42, scale_max=31234.567)
        back = roundtrip(model)
        rng = np.random.default_rng(72)
        for _ in range(100):
            x = rng.uniform(0, 1.2, 2)
            assert forward(back, x) == forward(model, x)  # exact, not approx

    def test_nn_config_snapshot_preserved(self):
        config = NnConfig(hidden_neurons=4, restarts=7, lm_initial_damping=0.5,
                          max_iterations=33, loss_tolerance=1e-7, rng_seed=9)
        back = roundtrip(build(config, seed=1))
        assert back.config == config

    def test_double_save_identical_bytes(self):
        model = small_fitted_model()
        a, b = io.StringIO(), io.StringIO()
        save_model(model, a)
        save_model(model, b)
        assert a.getvalue() == b.getvalue()

    @pytest.mark.parametrize("thing", [None, KnnConfig(), "knn", *pair_built_models()])
    def test_only_a_model_renders(self, thing):
        with pytest.raises(TypeError, match=f"^cannot serialize {type(thing).__name__}$"):
            render_model(thing)

    def test_sink_oserror_passes_through(self):
        full = OSError(errno.ENOSPC, "No space left on device")

        class FullSink:
            def write(self, text):
                raise full

        with pytest.raises(OSError) as raised:
            save_model(small_fitted_model(), FullSink())
        assert raised.value is full


class TestIntegrity:
    def test_one_leading_bom_dropped(self):
        """load_model drops one leading BOM, as every reader does; a
        second is part of the first line."""
        text = render_model(small_fitted_model())
        assert render_model(load_model("\ufeff" + text)) == text
        with pytest.raises(MalformedModelFile, match=r"^not a model file \(first line '\\ufeff"):
            load_model("\ufeff\ufeff" + text)

    def test_corrupted_checksum(self):
        text = render_model(small_fitted_model())
        lines = text.splitlines()
        # flip one digit inside a payload value, keep the recorded hash
        corrupted = ["day 10.1" if line == "day 10.0" else line for line in lines]
        assert corrupted != lines
        with pytest.raises(ChecksumMismatch):
            load_model("\n".join(corrupted) + "\n")

    def test_future_version(self):
        text = render_model(small_fitted_model())
        bumped = text.replace("htm-model 2", "htm-model 3", 1)
        with pytest.raises(UnsupportedVersion,
                           match=r"^format version 3 \(this build reads 1 and 2\)$"):
            load_model(bumped)

    def test_version_1_knn_file_unsupported(self):
        # the pairs file of builds before the day-matrix format: its
        # checksum holds, and its version has no k-NN payload
        with pytest.raises(UnsupportedVersion, match="^format version 1 has no kind knn$"):
            load_model(VERSION_1_KNN_FILE)

    @pytest.mark.parametrize("version", ["1\r", " 1", "1 ", "+1", "01", "1_0"],
                             ids=["CR", "two-spaces", "trailing-space", "plus", "leading-zero",
                                  "underscore"])
    def test_version_field_read_only_in_save_model_spelling(self, version):
        """The version is ASCII digits without a leading zero, as
        save_model writes it; int() would also take these spellings."""
        text = render_model(build(NnConfig(hidden_neurons=2), seed=1))
        edited = text.replace("htm-model 1\n", f"htm-model {version}\n", 1)
        assert edited != text
        with pytest.raises(MalformedModelFile, match=re.escape(f"bad version field {version!r}")):
            load_model(edited)

    def test_truncated_file(self):
        text = render_model(small_fitted_model())
        lines = text.splitlines()
        shortened = "\n".join(lines[: len(lines) // 2]) + "\n"
        with pytest.raises((MalformedModelFile, ChecksumMismatch)):
            load_model(shortened)

    @pytest.mark.parametrize("edit", [
        lambda text: text[:-1],
        lambda text: text.replace("\n", "\r\n").replace("\r\n", "\n", 3),
    ], ids=["final-newline-dropped", "crlf"])
    def test_digest_covers_the_payload_bytes_as_read(self, edit):
        # the header still parses, but the payload bytes are not the ones hashed
        with pytest.raises(ChecksumMismatch):
            load_model(edit(render_model(small_fitted_model())))

    def test_unknown_kind(self):
        text = render_model(small_fitted_model())
        with pytest.raises((MalformedModelFile, ChecksumMismatch)):
            load_model(text.replace("kind knn", "kind svm"))

    def test_negative_field_rejected(self):
        text = render_model(small_fitted_model())
        rebuilt = replace_payload_line(text, "depth_days 2", "depth_days -2")
        with pytest.raises(InvariantViolation):
            load_model(rebuilt)

    def test_depth_beyond_the_days_rejected(self):
        # five days cannot give D = 3, k = 2 the six days it needs
        text = render_model(small_fitted_model())
        rebuilt = replace_payload_line(text, "depth_days 2", "depth_days 3")
        with pytest.raises(InvariantViolation, match="needs >= 6 training days, have 5"):
            load_model(rebuilt)

    def test_trailing_garbage_rejected(self):
        text = render_model(small_fitted_model())
        with pytest.raises((MalformedModelFile, ChecksumMismatch)):
            load_model(text + "extra line\n")

    def test_empty_file(self):
        with pytest.raises(MalformedModelFile):
            load_model("")

    @pytest.mark.parametrize("hidden", ["0", "65"])
    def test_nn_hidden_neurons_checked_before_weights(self, hidden):
        text = rendered(build(NnConfig(hidden_neurons=2), seed=1))
        rebuilt = replace_payload_line(text, "hidden_neurons 2", f"hidden_neurons {hidden}")
        with pytest.raises(InvariantViolation, match=r"^hidden_neurons must be in \[1, 64\]$"):
            load_model(rebuilt)

    @pytest.mark.parametrize("value", [MAX_POWER_W, ABOVE_MAX, 1e200])
    def test_nn_scale_max_at_most_the_power_limit(self, value):
        text = rendered(build(NnConfig(hidden_neurons=2), seed=1, scale_max=35000.0))
        rebuilt = replace_payload_line(text, "scale_max 35000.0", f"scale_max {value!r}")
        if value <= MAX_POWER_W:
            assert load_model(rebuilt).scale_max == value
            return
        with pytest.raises(InvariantViolation, match=r"^scale_max must be in \(0, 1e\+12\]$"):
            load_model(rebuilt)

    @pytest.mark.parametrize("value, quoted", [
        ("x" * 40, repr("x" * 40)),
        ("x" * 41, repr("x" * 40) + "... (41 characters)"),
    ])
    def test_malformed_value_quoted_to_40_characters(self, value, quoted):
        text = rendered(build(NnConfig(hidden_neurons=2), seed=1, scale_max=35000.0))
        rebuilt = replace_payload_line(text, "scale_max 35000.0", f"scale_max {value}")
        with pytest.raises(MalformedModelFile) as caught:
            load_model(rebuilt)
        assert str(caught.value) == f"scale_max: not a number: {quoted}"

    def test_bad_setting_reported_before_truncated_days(self):
        text = render_model(small_fitted_model())
        payload = ["depth_days -2"] + text.splitlines()[4:-2]
        with pytest.raises(InvariantViolation, match="depth_days must be >= 1"):
            load_model(with_payload(text, payload))


# the day matrix golden-knn.htm-model was written from
GOLDEN_DAYS = [[0.0, 1.5], [2.5, 0.125], [100.0, 3.25], [200.5, 0.0], [50.25, 10.0]]


class TestGoldenFixture:
    """Pin the on-disk format: this file was written once and committed.
    If rendering changes, these assertions catch the break."""

    def test_golden_knn_loads(self):
        model = load_model((DATA_DIR / "golden-knn.htm-model").read_text())
        assert model.config == KnnConfig(depth_days=2, neighbors=2)
        assert np.array_equal(model.days, GOLDEN_DAYS)
        assert np.array_equal(model.contexts, [[0.0, 1.5, 2.5, 0.125],
                                               [2.5, 0.125, 100.0, 3.25],
                                               [100.0, 3.25, 200.5, 0.0]])
        assert np.array_equal(model.targets, GOLDEN_DAYS[2:])

    def test_golden_knn_round_trips_to_same_bytes(self):
        text = (DATA_DIR / "golden-knn.htm-model").read_text()
        assert render_model(load_model(text)) == text
        assert render_model(from_days(KnnConfig(depth_days=2, neighbors=2), GOLDEN_DAYS)) == text

    def test_golden_nn_loads_to_its_weights_and_round_trips_to_same_bytes(self):
        text = (DATA_DIR / "golden-nn.htm-model").read_text()
        want = build(NnConfig(hidden_neurons=2), seed=1, samples_per_day=4, scale_max=35000.0)
        model = load_model(text)
        assert model.config == want.config
        for name in ("hidden_weights", "hidden_biases", "output_weights"):
            assert getattr(model, name).tobytes() == getattr(want, name).tobytes()
        assert np.float64(model.output_bias).tobytes() == np.float64(want.output_bias).tobytes()
        assert (model.scale_max, model.samples_per_day) == (35000.0, 4)
        assert render_model(model) == text
        assert render_model(want) == text


class TestFormatVersions:
    """Each model kind has one format: a k-NN model is written as its day
    matrix (version 2), an NN model as its weights (version 1)."""

    def test_fitted_model_writes_its_days(self):
        text = render_model(small_fitted_model())
        assert text.splitlines()[:2] == ["htm-model 2", "kind knn"]
        assert text.splitlines()[3:] == [
            "depth_days 2", "neighbors 2", "days 5", "samples_per_day 1",
            "day 1.5", "day 3.25", "day 10.0", "day 0.5", "day 50.25",
        ]

    def test_settings_lines_are_the_config_fields_in_order(self):
        for model in (small_fitted_model(), build(NnConfig(hidden_neurons=2, restarts=3), seed=1)):
            fields = dataclasses.fields(model.config)
            lines = render_model(model).splitlines()[3:3 + len(fields)]
            assert lines == [f"{f.name} {getattr(model.config, f.name)!r}" for f in fields]

    def test_nn_model_writes_version_1(self):
        nn_model = build(NnConfig(hidden_neurons=2), seed=1)
        assert render_model(nn_model).startswith("htm-model 1\nkind nn\n")

    @pytest.mark.parametrize("old, new", [
        ("depth_days 2", "depth_days 02"),
        ("depth_days 2", "depth_days +2"),
        ("depth_days 2", "depth_days  2"),
        ("day 0.5", "day 0.50"),
    ], ids=["leading-zero", "plus-sign", "two-spaces", "trailing-zero"])
    def test_other_spelling_loads_and_resaves_canonically(self, old, new):
        # only save_model's own spelling re-saves to the bytes it was read from
        text = render_model(small_fitted_model())
        edited = replace_payload_line(text, old, new)
        assert render_model(load_model(edited)) == text != edited


class TestVersion2Integrity:
    @pytest.mark.parametrize("old, new", [
        ("days 5", "days 1000000000000"),
        ("samples_per_day 1", "samples_per_day 10000000000"),
    ])
    def test_oversized_header_rejected_without_allocating(self, old, new):
        text = replace_payload_line(render_model(small_fitted_model()), old, new)
        assert len(text) < 300
        with pytest.raises(MalformedModelFile):
            load_model(text)

    @pytest.mark.parametrize("old, new", [
        ("depth_days 2", "depth_days 10000000000"),
        ("neighbors 2", "neighbors 1000000000000"),
    ])
    def test_oversized_setting_rejected_without_allocating(self, old, new):
        # D and k past what the five days can back: from_days checks them
        # against the day count before it builds any pair
        text = replace_payload_line(render_model(small_fitted_model()), old, new)
        with pytest.raises(InvariantViolation, match="training days, have 5"):
            load_model(text)

    def test_missing_day_line(self):
        text = render_model(small_fitted_model())
        truncated = with_payload(text, text.splitlines()[3:-1])
        with pytest.raises(MalformedModelFile, match="header promises 5 days"):
            load_model(truncated)

    @pytest.mark.parametrize("line", ["day", "day 0.5 0.5", "day x"])
    def test_malformed_day_line(self, line):
        text = replace_payload_line(render_model(small_fitted_model()), "day 0.5", line)
        with pytest.raises(MalformedModelFile):
            load_model(text)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_day_value(self, value):
        text = replace_payload_line(render_model(small_fitted_model()), "day 0.5", f"day {value}")
        with pytest.raises(InvariantViolation, match="must be finite"):
            load_model(text)

    @pytest.mark.parametrize("value", [MAX_POWER_W, -MAX_POWER_W, ABOVE_MAX, -ABOVE_MAX, 1e200])
    def test_day_value_at_most_the_power_limit(self, value):
        text = replace_payload_line(render_model(small_fitted_model()), "day 0.5", f"day {value!r}")
        if abs(value) <= MAX_POWER_W:
            assert load_model(text).days[3, 0] == value
            return
        with pytest.raises(InvariantViolation, match="must be finite, at most 1e\\+12 W"):
            load_model(text)

    def test_fewer_days_than_depth_and_neighbors_need(self):
        text = render_model(small_fitted_model())
        payload = ["days 4" if line == "days 5" else line for line in text.splitlines()[3:-1]]
        with pytest.raises(InvariantViolation, match="needs >= 5 training days, have 4"):
            load_model(with_payload(text, payload))

    def test_nn_model_has_no_version_2(self):
        text = rendered(build(NnConfig(hidden_neurons=2), seed=1))
        with pytest.raises(UnsupportedVersion, match="format version 2 has no kind nn"):
            load_model(text.replace("htm-model 1", "htm-model 2", 1))


def day_matrix_model():
    """A fitted model of six 96-slot days holding zeros written `0.0`,
    a -0.0, negative and whole values and shortest reprs."""
    days = np.random.default_rng(5).uniform(-100.0, 35000.0, (6, 96))
    days[:, :26] = 0.0
    days[:, 70:] = np.round(days[:, 70:])
    days[0, 1] = -0.0
    return from_days(KnnConfig(depth_days=2, neighbors=2), days)


def knn_files():
    """Each k-NN file kind, by name: the golden fixture, one of one-slot
    days, one of mixed day values and a fitted one."""
    return {
        "golden-knn": (DATA_DIR / "golden-knn.htm-model").read_text(),
        "one-slot days": render_model(small_fitted_model()),
        "mixed day values": render_model(day_matrix_model()),
        "30 synthetic days": render_model(fit(generate(SynthConfig(), 30).series, KnnConfig())),
    }


KNN_FILES = knn_files()


def at_third_gap(line, separator):
    """`line` with the space before its third value replaced by `separator`."""
    parts = line.split(" ")
    return " ".join(parts[:3]) + separator + " ".join(parts[3:])


class TestDayBlock:
    """The day lines of a version 2 k-NN file in save_model's spelling
    parse as one byte block; the per-line reader is the reference."""

    @pytest.mark.parametrize("name", KNN_FILES)
    def test_loads_to_the_same_bits_and_resaves_to_its_bytes(self, name):
        text = KNN_FILES[name]
        assert text.startswith("htm-model 2\n")
        assert load_outcome(text) == per_line_outcome(text)
        assert render_model(load_model(text)) == text
        # a -0.0 or a negative value is not plain: its lines load per line
        assert takes_day_block(text) == (name != "mixed day values")

    # The lines that replace the third of six day lines, and the error the
    # per-line reader raises for them: None where the file still loads.
    EDITS = {
        "double space": (lambda line: [at_third_gap(line, "  ")], None),
        "tab": (lambda line: [at_third_gap(line, "\t")], None),
        "trailing space": (lambda line: [line + " "], None),
        "key dey": (lambda line: ["dey" + line[3:]], MalformedModelFile),
        "95 values": (lambda line: [line.rsplit(" ", 1)[0]], MalformedModelFile),
        "97 values": (lambda line: [line + " 1.0"], MalformedModelFile),
        "non-numeric value": (lambda line: [line + "x"], MalformedModelFile),
        "NUL after a value": (lambda line: [line + "\x00"], MalformedModelFile),
        "NUL for a space": (lambda line: [at_third_gap(line, "\x00")], MalformedModelFile),
        "NUL inside a value": (lambda line: [line.replace(" 0.0 ", " 0.\x000 ", 1)],
                               MalformedModelFile),
        "missing day line": (lambda line: [], MalformedModelFile),
        # the seventh of six promised day lines trails the matrix
        "trailing line": (lambda line: [line, line], MalformedModelFile),
        "space before the first value": (lambda line: ["day  " + line[4:]], None),
        # blanks that `str.split` splits on, as it does on a tab: only an
        # LF ends a line, so each stays inside its `day` line
        **{f"{name} before a value": (lambda line, char=char: [at_third_gap(line, " " + char)],
                                      None)
           for name, char in {"tab": "\t", "VT": "\x0b", "FF": "\x0c", "FS": "\x1c",
                              "GS": "\x1d", "RS": "\x1e", "CR": "\r"}.items()},
        # a NUL `float` rejects
        "NUL before a value": (lambda line: [at_third_gap(line, " \x00")], MalformedModelFile),
    }

    def test_error_quotes_40_characters_of_a_long_line(self):
        # the 1124-character `dey` line, cut in the message on both paths
        text = render_model(day_matrix_model())
        payload = text.splitlines()[3:]
        third = [line.startswith("day ") for line in payload].index(True) + 2
        edited = with_payload(text, payload[:third] + ["dey" + payload[third][3:]]
                              + payload[third + 1:])
        message = ("expected 'day ...', got 'dey 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 '"
                   "... (1124 characters)")
        assert load_outcome(edited) == (MalformedModelFile, message)
        assert per_line_outcome(edited) == (MalformedModelFile, message)

    def test_day_lines_without_the_final_lf_load_as_the_per_line_reader(self):
        text = render_model(day_matrix_model())
        magic, kind, _, payload = text.split("\n", 3)
        body = payload[:-1]
        digest = hashlib.sha256(body.encode("ascii")).hexdigest()
        edited = "\n".join([magic, kind, f"sha256 {digest}", body])
        assert load_outcome(edited) == per_line_outcome(edited) == load_outcome(text)

    @pytest.mark.parametrize("edit", EDITS)
    def test_edited_day_line_loads_or_raises_as_the_per_line_reader(self, edit):
        change, raises = self.EDITS[edit]
        text = render_model(day_matrix_model())
        payload = text.splitlines()[3:]
        third = [line.startswith("day ") for line in payload].index(True) + 2
        edited = with_payload(text, payload[:third] + change(payload[third]) + payload[third + 1:])
        outcome = load_outcome(edited)
        assert outcome == per_line_outcome(edited)
        if raises is None:
            assert outcome == load_outcome(text)
        else:
            assert outcome[0] is raises
