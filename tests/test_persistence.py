"""Model file format: round-trips, integrity checks, golden fixture."""

import io
from pathlib import Path

import numpy as np
import pytest

from conftest import replace_payload_line
from twotier.errors import (
    ChecksumMismatch,
    InvariantViolation,
    MalformedModelFile,
    PersistenceError,
    UnsupportedVersion,
)
from twotier.knn import KnnConfig, KnnModel
from twotier.nn import NnConfig, build, forward
from twotier.persistence import load_model, render_model, save_model

DATA_DIR = Path(__file__).parent / "data"


def small_knn_model():
    contexts = np.array([[1.5, 2.5], [3.25, 0.125], [10.0, 0.5]])
    targets = np.array([[100.0], [200.5], [50.25]])
    return KnnModel(KnnConfig(depth_days=2, neighbors=2), contexts, targets)


def roundtrip(model):
    buf = io.StringIO()
    save_model(model, buf)
    return load_model(io.StringIO(buf.getvalue()))


class TestRoundTrip:
    def test_knn_bit_equal(self):
        model = small_knn_model()
        back = roundtrip(model)
        assert back.config == model.config
        assert np.array_equal(back.contexts, model.contexts)
        assert np.array_equal(back.targets, model.targets)

    def test_knn_random_values_bit_equal(self):
        rng = np.random.default_rng(71)
        contexts = rng.uniform(0, 35000, (7, 6))
        targets = rng.uniform(0, 35000, (7, 3))
        model = KnnModel(KnnConfig(depth_days=2, neighbors=3), contexts, targets)
        back = roundtrip(model)
        assert np.array_equal(back.contexts, model.contexts)

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
        model = small_knn_model()
        a, b = io.StringIO(), io.StringIO()
        save_model(model, a)
        save_model(model, b)
        assert a.getvalue() == b.getvalue()


class TestIntegrity:
    def test_corrupted_checksum(self):
        text = render_model(small_knn_model())
        lines = text.splitlines()
        # flip one digit inside a payload value, keep the recorded hash
        corrupted = [
            line.replace("100.0", "100.1") if "100.0" in line else line
            for line in lines
        ]
        with pytest.raises(ChecksumMismatch):
            load_model(io.StringIO("\n".join(corrupted) + "\n"))

    def test_future_version(self):
        text = render_model(small_knn_model())
        bumped = text.replace("htm-model 1", "htm-model 2", 1)
        with pytest.raises(UnsupportedVersion):
            load_model(io.StringIO(bumped))

    def test_truncated_file(self):
        text = render_model(small_knn_model())
        lines = text.splitlines()
        shortened = "\n".join(lines[: len(lines) // 2]) + "\n"
        with pytest.raises((MalformedModelFile, ChecksumMismatch)):
            load_model(io.StringIO(shortened))

    def test_unknown_kind(self):
        text = render_model(small_knn_model())
        with pytest.raises((MalformedModelFile, ChecksumMismatch)):
            load_model(io.StringIO(text.replace("kind knn", "kind svm")))

    def test_negative_field_rejected(self):
        text = render_model(small_knn_model())
        rebuilt = replace_payload_line(text, "depth_days 2", "depth_days -2")
        with pytest.raises(InvariantViolation):
            load_model(io.StringIO(rebuilt))

    def test_trailing_garbage_rejected(self):
        text = render_model(small_knn_model())
        with pytest.raises((MalformedModelFile, ChecksumMismatch)):
            load_model(io.StringIO(text + "extra line\n"))

    def test_empty_file(self):
        with pytest.raises(MalformedModelFile):
            load_model(io.StringIO(""))

    @pytest.mark.parametrize("old, new", [
        ("pairs 3", "pairs 1000000000000"),
        ("context_length 2", "context_length 10000000000"),
        ("target_length 1", "target_length 10000000000"),
    ])
    def test_oversized_knn_header_rejected_without_allocating(self, old, new):
        # a small file with a valid checksum whose header promises a huge
        # pair table is rejected from its lines, not by a failed allocation
        text = replace_payload_line(render_model(small_knn_model()), old, new)
        assert len(text) < 300
        with pytest.raises(PersistenceError):
            load_model(text)

    def test_bytes_and_binary_stream_load(self):
        text = render_model(small_knn_model())
        for source in (text.encode("utf-8"), io.BytesIO(text.encode("utf-8"))):
            assert np.array_equal(load_model(source).contexts, small_knn_model().contexts)

    def test_non_utf8_bytes_name_the_offset(self):
        data = render_model(small_knn_model()).encode("utf-8")
        bad = data[:20] + b"\xff" + data[20:]
        for source in (bad, io.BytesIO(bad)):
            with pytest.raises(MalformedModelFile) as err:
                load_model(source)
            assert str(err.value) == "input is not UTF-8 text: byte 20 is invalid"


class TestGoldenFixture:
    """Pin the on-disk format: this file was written once and committed.
    If rendering changes, these assertions catch the break."""

    def test_golden_knn_loads(self):
        model = load_model((DATA_DIR / "golden-knn.htm-model").read_text())
        assert model.config.depth_days == 2
        assert model.config.neighbors == 2
        assert np.array_equal(
            model.contexts, [[1.5, 2.5], [3.25, 0.125], [10.0, 0.5]]
        )
        assert np.array_equal(model.targets, [[100.0], [200.5], [50.25]])

    def test_golden_knn_round_trips_to_same_bytes(self):
        text = (DATA_DIR / "golden-knn.htm-model").read_text()
        assert render_model(load_model(text)) == text
