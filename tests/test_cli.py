"""End-to-end command-line behavior and the exit-code contract."""

import contextlib
import errno
import hashlib
import io
import multiprocessing
import os
import re
import shlex
import shutil
import subprocess
import stat
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    VERSION_1_KNN_FILE, force_lanes, forks_with_blas_threads, make_series, printed_best,
    repeating_clear_days, replace_payload_line,
)
from twotier import BLAS_THREAD_VARIABLES, cli, persistence, timeseries
from twotier.config import parse_config
from twotier.errors import InsufficientTrainingDays, MalformedRow, quoted
from twotier.knn import KnnModel
from twotier.nn import NnConfig, NnModel
from twotier.synth import SynthConfig, generate, read_labels_csv
from twotier.timeseries import export_csv

CLOUDY_DEMO_DAY = "2015-04-02"   # labeled cloudy, lands in the test split
CLEAR_DEMO_DAY = "2015-03-31"    # labeled sunny, lands in the test split


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synth+train run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data.csv"
    models = root / "models"
    assert cli.main(["synth", "--out", str(data)]) == 0
    assert cli.main(["train", "--data", str(data), "--out", str(models)]) == 0
    return {"root": root, "data": data, "models": models}


def check_other_grid_exit_3(command, pipeline, tmp_path, capsys, extra):
    """Models trained on 900 s data cannot be used on a 1800 s data set:
    exit 3 with one error line naming the models and both grids."""
    data = tmp_path / "half-hourly.csv"
    grid = ["--sample-interval-seconds", "1800",
            "--synth-sunrise-sample", "13", "--synth-sunset-sample", "35"]
    code = cli.main(["synth", *grid, "--out", str(data)])
    assert code == 0
    capsys.readouterr()
    code = cli.main(
        [command, *grid, "--models", str(pipeline["models"]), "--data", str(data),
         *extra]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"models in {pipeline['models']} " in err
    assert "96 (knn) and 96 (nn) samples per day" in err
    assert "data has 48 (1800 s interval)" in err


class TestSynth:
    def test_writes_csv_and_labels(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert cli.main(["synth", "--days", "10", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "generated 10 days" in captured.out
        assert out.exists()
        assert (tmp_path / "d.labels.csv").exists()
        header = out.read_text().splitlines()[0]
        assert header == "timestamp,power_w"

    def test_stdout_by_default(self, capsys):
        assert cli.main(["synth", "--days", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("timestamp,power_w")
        # 2 days x 96 samples + header
        assert len(captured.out.splitlines()) == 1 + 192
        assert "generated 2 days" in captured.err

    def test_zero_days_is_usage_error(self, capsys):
        assert cli.main(["synth", "--days", "0"]) == 2

    def test_days_past_date_max_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        argv = ["synth", "--synth-start-date", "9999-12-30", "--days", "5",
                "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: 5 days from 9999-12-30 run past 9999-12-31\n"
        assert not out.exists()

    def test_cloud_event_rate_above_the_poisson_bound_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "rate.csv"
        assert cli.main(["synth", "--synth-cloud-event-rate", "800", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: cloud_event_rate must be in [0, 700]\n"
        assert not out.exists()
        assert not (tmp_path / "rate.labels.csv").exists()

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["synth", "--out", str(a)]) == 0
        assert cli.main(["synth", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_flag_changes_data(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["synth", "--out", str(a), "--seed", "1"]) == 0
        assert cli.main(["synth", "--out", str(b), "--seed", "2"]) == 0
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("out", [".", "", "{tmp}", "{tmp}/", "new/"])
    def test_out_naming_no_file_exit_3(self, tmp_path, monkeypatch, capsys, out):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["synth", "--days", "2", "--out", out.format(tmp=tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("days, digest", [
        ([], "f641af16498e3942dc2b21a4a480ab8107e54896be596fba49611c72efa65ee3"),
        (["--days", "365"], "86f75190f63f81677819dfa7242a1a61201131f51ea37967c1f1889beb4744d6"),
    ])
    def test_seed_1_bytes_pinned(self, tmp_path, days, digest):
        # the exported CSV's exact bytes, as written by the per-sample writer
        out = tmp_path / "d.csv"
        assert cli.main(["synth", "--seed", "1", *days, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestConfigHandling:
    def test_flag_beats_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("synth_days = 3\n")
        out = tmp_path / "d.csv"
        code = cli.main(
            ["synth", "--config", str(cfg), "--days", "2", "--out", str(out)]
        )
        assert code == 0
        assert "generated 2 days" in capsys.readouterr().out

    def test_config_file_beats_default(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("synth_days = 3\n")
        out = tmp_path / "d.csv"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        assert "generated 3 days" in capsys.readouterr().out

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sede = 5\n")
        assert cli.main(["synth", "--config", str(cfg)]) == 2

    def test_non_utf8_config_file_exit_2_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xffsynth_days = 3\n")
        assert cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d.csv")]) == 2
        assert capsys.readouterr().err == f"error: {cfg} is not UTF-8 text: byte 0 is invalid\n"
        assert not (tmp_path / "d.csv").exists()

    def test_missing_config_file_exit_3(self, tmp_path):
        assert cli.main(["synth", "--config", str(tmp_path / "nope.cfg")]) == 3


class TestIngest:
    def test_summary(self, pipeline, capsys):
        assert cli.main(["ingest", "--data", str(pipeline["data"])]) == 0
        out = capsys.readouterr().out
        assert "50 days from 2015-02-15 to 2015-04-05" in out
        assert "96 samples/day" in out

    def test_reexport_round_trips(self, pipeline, tmp_path):
        out = tmp_path / "copy.csv"
        code = cli.main(
            ["ingest", "--data", str(pipeline["data"]), "--out", str(out)]
        )
        assert code == 0
        assert out.read_bytes() == pipeline["data"].read_bytes()

    def test_missing_file_exit_3(self, tmp_path):
        assert cli.main(["ingest", "--data", str(tmp_path / "nope.csv")]) == 3

    def test_malformed_csv_exit_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,power_w\n2015-02-15T00:00:00,abc\n")
        assert cli.main(["ingest", "--data", str(bad)]) == 3

    def test_incomplete_day_exit_3(self, tmp_path, pipeline):
        lines = pipeline["data"].read_text().splitlines()
        bad = tmp_path / "short.csv"
        bad.write_text("\n".join(lines[:-1]) + "\n")
        assert cli.main(["ingest", "--data", str(bad)]) == 3

    @pytest.mark.parametrize("dropped, line", [
        ("2015-03-07T", "error: incomplete day: 2015-03-07 (no rows)\n"),
        ("2015-03-07T10:00:00,", "error: incomplete day: 2015-03-07\n"),
    ], ids=["whole-day", "slot-40"])
    def test_day_missing_rows_exit_3(self, tmp_path, pipeline, capsys, dropped, line):
        """The default set without a day's rows, or without one row of
        it, names the day; a day with no rows says so."""
        lines = pipeline["data"].read_text().splitlines(keepends=True)
        bad = tmp_path / "gap.csv"
        bad.write_text("".join(x for x in lines if not x.startswith(dropped)))
        assert cli.main(["ingest", "--data", str(bad)]) == 3
        assert capsys.readouterr() == ("", line)

    def test_first_and_last_date_csv_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "ends.csv"
        bad.write_text(
            "timestamp,power_w\n"
            "0001-01-01T00:00:00,0.0\n"
            "9999-12-31T00:00:00,0.0\n"
        )
        assert cli.main(["ingest", "--data", str(bad)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "0001-01-01" in err
        assert err.count("\n") == 1

    def test_timestamp_with_offset_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "aware.csv"
        bad.write_text("timestamp,power_w\n2015-02-15T00:00:00+00:00,0.0\n")
        assert cli.main(["ingest", "--data", str(bad)]) == 3
        assert capsys.readouterr().err == "error: line 2: timestamp must be naive local time\n"

    def test_header_only_csv_exit_4(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("timestamp,power_w\n")
        assert cli.main(["ingest", "--data", str(empty)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_utf8_csv_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"timestamp,power_w\n2015-02-15T00:00:00,\xff\n")
        assert cli.main(["ingest", "--data", str(bad)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {bad} is not UTF-8 text: byte 38 is invalid\n"

    def test_nul_after_a_value_exit_3(self, tmp_path, pipeline, capsys):
        # float rejects "1.0\x00": the whole-file reader must hand the file
        # to the per-line parser, which names the line
        lines = pipeline["data"].read_text().splitlines()
        lines[40] = lines[40].split(",")[0] + ",1.0\x00"
        bad = tmp_path / "nul.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert cli.main(["ingest", "--data", str(bad)]) == 3
        assert capsys.readouterr().err == "error: line 41: non-numeric power '1.0\\x00'\n"

    @pytest.mark.parametrize("value", ["1e13", "2000000000000.0"])
    @pytest.mark.parametrize("command", ["ingest", "tune", "train", "evaluate"])
    def test_power_above_the_limit_exit_3(self, pipeline, tmp_path, capsys, command, value):
        """A reading above MAX_POWER_W is a data error naming its line, not
        a numpy warning: at 1e160 W the squared k-NN distances overflowed.
        Plain, the value reaches the block reader's own bound."""
        lines = pipeline["data"].read_text().splitlines()
        lines[50] = lines[50].split(",")[0] + "," + value
        data = tmp_path / "huge.csv"
        data.write_text("\n".join(lines) + "\n")
        extra = {
            "ingest": [],
            "tune": ["--knn-only", "--out", str(tmp_path / "tuned.cfg")],
            "train": ["--out", str(tmp_path / "models")],
            "evaluate": ["--models", str(pipeline["models"]),
                         "--out", str(tmp_path / "report.csv")],
        }[command]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main([command, "--data", str(data), *extra]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        check_one_error_line(capsys, f"line 51: power '{value}' above the 1e+12 W limit")
        assert [path.name for path in tmp_path.iterdir()] == ["huge.csv"]


class TestTrain:
    def test_models_written_and_loadable(self, pipeline):
        knn_path = pipeline["models"] / "knn.htm-model"
        nn_path = pipeline["models"] / "nn.htm-model"
        assert knn_path.exists() and nn_path.exists()
        assert isinstance(persistence.load_model(knn_path.read_text()), KnnModel)
        assert isinstance(persistence.load_model(nn_path.read_text()), NnModel)

    def test_retrain_byte_identical(self, pipeline, tmp_path):
        again = tmp_path / "models2"
        code = cli.main(
            ["train", "--data", str(pipeline["data"]), "--out", str(again)]
        )
        assert code == 0
        for name in ("knn.htm-model", "nn.htm-model"):
            assert (again / name).read_bytes() == (pipeline["models"] / name).read_bytes()

    def test_knn_only(self, pipeline, tmp_path):
        out = tmp_path / "only"
        code = cli.main(
            ["train", "--data", str(pipeline["data"]), "--out", str(out), "--knn-only"]
        )
        assert code == 0
        assert (out / "knn.htm-model").exists()
        assert not (out / "nn.htm-model").exists()

    @pytest.mark.parametrize("command", ["tune", "train"])
    def test_conflicting_flags_exit_2(self, command, pipeline, tmp_path, capsys):
        code = cli.main(
            [command, "--data", str(pipeline["data"]),
             "--out", str(tmp_path / "x"), "--knn-only", "--nn-only"]
        )
        assert code == 2
        assert capsys.readouterr() == ("", "error: --knn-only and --nn-only exclude each other\n")
        assert list(tmp_path.iterdir()) == []

    def test_too_few_days_exit_4(self, tmp_path, capsys):
        data = tmp_path / "tiny.csv"
        assert cli.main(["synth", "--days", "4", "--out", str(data)]) == 0
        assert cli.main(["train", "--data", str(data), "--out", str(tmp_path / "m")]) == 4

    def test_bad_nn_setting_writes_no_model(self, pipeline, tmp_path, capsys):
        # the k-NN model is valid, but nothing is written before the NN
        # settings are checked
        out = tmp_path / "m"
        out.mkdir()
        code = cli.main(["train", "--data", str(pipeline["data"]), "--out", str(out),
                         "--nn-hidden-neurons", "0"])
        assert code == 2
        check_one_error_line(capsys, "hidden_neurons")
        assert list(out.iterdir()) == []

    def test_knn_shortage_creates_no_directory(self, pipeline, tmp_path, capsys):
        # 30 training days cannot fit a 100-day context
        out = tmp_path / "m"
        code = cli.main(["train", "--data", str(pipeline["data"]), "--out", str(out),
                         "--knn-depth-days", "100"])
        assert code == 4
        check_one_error_line(capsys, "needs >= 103 training days, have 30")
        assert not out.exists()

    @pytest.mark.parametrize("out, message", [
        ("data.csv", "[Errno 17] File exists: 'data.csv'"),
        ("data.csv/models", "[Errno 20] Not a directory: 'data.csv/models'"),
    ], ids=["existing-file", "under-a-file"])
    def test_unusable_out_fails_before_fitting(
        self, pipeline, tmp_path, monkeypatch, capsys, out, message
    ):
        # fitting would fail differently, so only a check made before it passes
        def no_fit(*args):
            raise AssertionError("fitted before checking --out")

        monkeypatch.setattr("twotier.knn.fit", no_fit)
        monkeypatch.chdir(tmp_path)
        shutil.copy(pipeline["data"], "data.csv")
        code = cli.main(["train", "--data", "data.csv", "--out", out])
        assert code == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["data.csv"]

    def test_failed_model_write_exit_3(self, pipeline, tmp_path, monkeypatch, capsys):
        # the sink's OSError reaches the CLI as it was raised
        class FullDisk(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "_write_file", lambda path, text, mode="x": FullDisk().write(text))
        code = cli.main(["train", "--data", str(pipeline["data"]),
                         "--out", str(tmp_path / "m"), "--knn-only"])
        assert code == 3
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"

    def test_failed_fit_touches_no_model_file(self, pipeline, tmp_path, monkeypatch, capsys):
        """A re-train whose NN fit fails leaves the linked k-NN model (a
        symlink is written in place, not replaced) and the old NN model
        as they were, and no new file: every model is fitted before any
        output path is opened."""
        def failed_fit(*args):
            raise InsufficientTrainingDays("the NN fit failed")

        models, linked = tmp_path / "models", tmp_path / "linked.htm-model"
        models.mkdir()
        linked.write_bytes(b"old knn\n")
        (models / "knn.htm-model").symlink_to(linked)
        (models / "nn.htm-model").write_bytes(b"old nn\n")
        monkeypatch.setattr("twotier.nn.fit_day_ahead", failed_fit)
        code = cli.main(["train", "--data", str(pipeline["data"]), "--out", str(models)])
        assert code == 4
        assert capsys.readouterr() == ("", "error: the NN fit failed\n")
        assert (models / "knn.htm-model").is_symlink()
        assert linked.read_bytes() == b"old knn\n"
        assert (models / "nn.htm-model").read_bytes() == b"old nn\n"
        assert sorted(path.name for path in models.iterdir()) == ["knn.htm-model", "nn.htm-model"]


    @forks_with_blas_threads
    @pytest.mark.parametrize("lanes", [1, 2])
    def test_singular_step_exit_3_whatever_the_lanes(
        self, pipeline, tmp_path, monkeypatch, capsys, lanes
    ):
        """np.linalg.solve fails in this process and, forked after the
        patch, in every restart worker: the same exit code and error line
        in one lane as in two, no model file and no child process left."""
        def solve(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", solve)
        force_lanes(monkeypatch, lanes)
        models = tmp_path / "models"
        assert cli.main(["train", "--data", str(pipeline["data"]), "--out", str(models)]) == 3
        assert capsys.readouterr() == ("", "error: normal equations unsolvable at damping 1e+10\n")
        assert not models.exists()
        assert multiprocessing.active_children() == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestTune:
    def test_full_tune_under_five_minutes(self, readme_run):
        """The README's full default tune, then its `train --config`."""
        root, steps = readme_run
        tunes = [step for step in steps if step[0][0] == "tune"]
        assert len(tunes) == 1
        argv, _, code, out, elapsed = tunes[0]
        assert code == 0, argv
        assert elapsed < 300
        assert "is normalized to 1" in out
        assert "best depth_days" in out
        assert "best hidden_neurons" in out
        # the tuned file is a complete, reparseable run configuration
        tuned_config = parse_config((root / "tuned.cfg").read_text())
        assert 1 <= tuned_config.knn_depth_days <= 8
        assert 2 <= tuned_config.knn_neighbors <= 4
        assert 3 <= tuned_config.nn_hidden_neurons <= 8
        # each printed best is the value written
        assert printed_best(out) == {
            "depth_days": tuned_config.knn_depth_days,
            "neighbors": tuned_config.knn_neighbors,
            "hidden_neurons": tuned_config.nn_hidden_neurons,
        }
        # and cmd_train accepts it directly
        argv, _, code, _, _ = steps[steps.index(tunes[0]) + 1]
        assert argv[:3] == ["train", "--config", "tuned.cfg"]
        assert code == 0, argv

    def test_knn_only_quick(self, pipeline, tmp_path, capsys):
        tuned = tmp_path / "t.cfg"
        code = cli.main(
            ["tune", "--data", str(pipeline["data"]), "--out", str(tuned), "--knn-only"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hidden_neurons" not in out
        assert "best depth_days" in out

    def test_grid_csv_report(self, pipeline, tmp_path):
        tuned = tmp_path / "t.cfg"
        report = tmp_path / "grids.csv"
        code = cli.main(
            ["tune", "--data", str(pipeline["data"]), "--out", str(tuned),
             "--knn-only", "--report", str(report)]
        )
        assert code == 0
        text = report.read_text()
        assert "depth_days" in text and "neighbors" in text

    def test_printed_best_is_the_written_winner_on_a_tie(self, tmp_path, capsys):
        # 33 days of two repeating patterns, split 30/1/2: cells (2, 4) and
        # (3, 2) tie exactly at 14.153 W. The winner is the smaller depth,
        # and the neighbors table must name its 4, not the 2 of (3, 2).
        rng = np.random.default_rng(53)
        days = rng.integers(12, 41)
        pool = rng.integers(0, 100, (rng.integers(2, 5), 4))
        rows = pool[rng.integers(0, len(pool), days)]
        data = tmp_path / "ties.csv"
        with open(data, "w", encoding="utf-8", newline="\n") as sink:
            export_csv(make_series(rows, interval_seconds=21600), sink)
        tuned = tmp_path / "t.cfg"
        # a 4-slot day: every command rejects the default window and sunset
        argv = ["tune", "--knn-only", "--sample-interval-seconds", "21600",
                "--correction-window", "3", "--correction-harmonics", "1",
                "--synth-sunrise-sample", "0", "--synth-sunset-sample", "3",
                "--split-train", "0.91", "--split-tune", "0.031", "--split-test", "0.059",
                "--data", str(data), "--out", str(tuned)]
        assert cli.main(argv) == 0
        assert printed_best(capsys.readouterr().out) == {"depth_days": 2, "neighbors": 4}
        config = parse_config(tuned.read_text())
        assert (config.knn_depth_days, config.knn_neighbors) == (2, 4)

    def test_untrainable_network_exit_4(self, tmp_path, capsys):
        # a 1-day train split trains no network of any size
        data = tmp_path / "five.csv"
        assert cli.main(["synth", "--days", "5", "--out", str(data)]) == 0
        capsys.readouterr()
        argv = ["tune", "--nn-only", "--split-train", "0.2", "--split-tune", "0.4",
                "--split-test", "0.4", "--data", str(data), "--out", str(tmp_path / "t.cfg")]
        assert cli.main(argv) == 4
        assert capsys.readouterr().err == (
            "error: every candidate on axis hidden_neurons was untrainable\n")
        assert not (tmp_path / "t.cfg").exists()

    @staticmethod
    def tune_repeated_day(tmp_path, capsys):
        """`tune --knn-only` on one day repeated 50 times; its stdout."""
        day = generate(SynthConfig(), 1).series.power[0]
        data = tmp_path / "repeat.csv"
        with open(data, "w", encoding="utf-8", newline="\n") as sink:
            export_csv(make_series(np.tile(day, (50, 1))), sink)
        code = cli.main(
            ["tune", "--knn-only", "--data", str(data), "--out", str(tmp_path / "t.cfg")]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return captured.out

    def test_exact_candidate_normalizes_to_zero(self, tmp_path, capsys):
        # one day repeated 50 times: some k-NN cells forecast the tune days
        # exactly, so their RMSE is 0 next to positive ones
        out = self.tune_repeated_day(tmp_path, capsys)
        rows = [line.split() for line in out.splitlines()
                if line.startswith("normalized RMSE")]
        assert any("0.000" in row for row in rows)

    def test_tiny_reference_footnote_is_not_zero(self, tmp_path, capsys):
        # the neighbors row is 0, a rounding-level RMSE, 0: its footnote
        # must not read like the all-zero depth row's
        tables = self.tune_repeated_day(tmp_path, capsys).split("\n\n")
        assert tables[0].splitlines()[-1] == "RMSE 0.0 is normalized to 1"
        assert tables[1].splitlines()[1].split()[2:] == ["0.000", "1.000", "0.000"]
        assert re.fullmatch(r"RMSE \d\.\d\de-1\d is normalized to 1",
                            tables[1].splitlines()[-1])


class TestSimulate:
    def test_cloudy_day_improves_both_methods(self, pipeline, tmp_path, capsys):
        code = cli.main(
            ["simulate", "--models", str(pipeline["models"]),
             "--data", str(pipeline["data"]), "--day", CLOUDY_DEMO_DAY,
             "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.startswith(("knn:", "nn:")):
                fields = line.split()
                global_rmse = float(fields[3])
                corrected_rmse = float(fields[7])
                assert corrected_rmse < global_rmse

    def test_clear_day_not_degraded(self, pipeline, tmp_path, capsys):
        code = cli.main(
            ["simulate", "--models", str(pipeline["models"]),
             "--data", str(pipeline["data"]), "--day", CLEAR_DEMO_DAY,
             "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        improvements = [
            float(line.rsplit("improvement", 1)[1].rstrip("%").strip())
            for line in out.splitlines()
            if line.startswith(("knn:", "nn:")) and "n/a" not in line
        ]
        assert improvements
        assert all(v >= -1.0 for v in improvements)

    def test_rounding_level_rmse_has_no_improvement(self, tmp_path, capsys):
        # RMSEs of about 1e-12 W: their ratio is rounding noise, not a gain
        data = tmp_path / "data.csv"
        with open(data, "w", encoding="utf-8", newline="\n") as sink:
            export_csv(repeating_clear_days(), sink)
        models = tmp_path / "models"
        code = cli.main(["train", "--data", str(data), "--out", str(models),
                         "--nn-restarts", "1", "--nn-max-iterations", "2"])
        assert code == 0
        capsys.readouterr()
        code = cli.main(["simulate", "--models", str(models), "--data", str(data),
                         "--day", "2015-03-25", "--out", str(tmp_path)])
        assert code == 0
        knn_line = capsys.readouterr().out.splitlines()[0]
        assert knn_line == "knn: global RMSE 0.0 W, corrected RMSE 0.0 W, improvement n/a"

    def test_trace_row_count(self, pipeline, tmp_path):
        code = cli.main(
            ["simulate", "--models", str(pipeline["models"]),
             "--data", str(pipeline["data"]), "--day", CLOUDY_DEMO_DAY,
             "--out", str(tmp_path)]
        )
        assert code == 0
        for label in ("knn", "nn"):
            trace = tmp_path / f"trace-{label}-{CLOUDY_DEMO_DAY}.csv"
            lines = trace.read_text().splitlines()
            assert len(lines) == 1 + 96

    def test_unknown_date_exit_5(self, pipeline, tmp_path):
        code = cli.main(
            ["simulate", "--models", str(pipeline["models"]),
             "--data", str(pipeline["data"]), "--day", "2019-01-01",
             "--out", str(tmp_path)]
        )
        assert code == 5

    def test_insufficient_history_exit_4(self, pipeline, tmp_path):
        code = cli.main(
            ["simulate", "--models", str(pipeline["models"]),
             "--data", str(pipeline["data"]), "--day", "2015-02-16",
             "--out", str(tmp_path)]
        )
        assert code == 4

    def test_nn_history_missing_exit_4(self, pipeline, tmp_path, capsys):
        # with D = 1 the k-NN rule holds on the second day; the NN's does not
        models = tmp_path / "models"
        code = cli.main(
            ["train", "--knn-depth-days", "1", "--nn-restarts", "1",
             "--data", str(pipeline["data"]), "--out", str(models)]
        )
        assert code == 0
        capsys.readouterr()
        code = cli.main(
            ["simulate", "--models", str(models), "--data", str(pipeline["data"]),
             "--day", "2015-02-16", "--out", str(tmp_path)]
        )
        assert code == 4
        assert capsys.readouterr().err == (
            "error: 2015-02-16 needs 2015-02-14..2015-02-15; "
            "series covers 2015-02-15..2015-04-05\n"
        )

    def test_models_from_other_grid_exit_3(self, pipeline, tmp_path, capsys):
        check_other_grid_exit_3(
            "simulate", pipeline, tmp_path, capsys,
            ["--day", CLOUDY_DEMO_DAY, "--out", str(tmp_path)],
        )


class TestEvaluate:
    def test_report_and_consistency(self, pipeline, tmp_path, capsys):
        report_path = tmp_path / "report.csv"
        code = cli.main(
            ["evaluate", "--models", str(pipeline["models"]),
             "--data", str(pipeline["data"]), "--out", str(report_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        for label in ("knn", "nn", "knn+local", "nn+local"):
            assert label in out
        rows = report_path.read_text().splitlines()
        daily = {}
        averages = {}
        improvements = {}
        for row in rows[1:]:
            fields = row.split(",")
            if fields[0] == "average":
                averages[fields[1]] = float(fields[2])
            elif fields[0] == "improvement":
                improvements[fields[1]] = float(fields[2])
            elif fields[0].startswith("2015-"):
                daily.setdefault(fields[1], []).append(float(fields[2]))
        for method, avg in averages.items():
            assert avg == pytest.approx(np.mean(daily[method]), abs=1e-9)
        for pair, got in improvements.items():
            improved, base = pair.split(" vs ")
            expect = 100.0 * (averages[base] - averages[improved]) / averages[base]
            assert got == pytest.approx(expect, abs=1e-9)

    def test_models_from_other_grid_exit_3(self, pipeline, tmp_path, capsys):
        check_other_grid_exit_3(
            "evaluate", pipeline, tmp_path, capsys,
            ["--out", str(tmp_path / "r.csv")],
        )

    def test_missing_models_exit_3(self, pipeline, tmp_path):
        code = cli.main(
            ["evaluate", "--models", str(tmp_path / "nothing"),
             "--data", str(pipeline["data"]), "--out", str(tmp_path / "r.csv")]
        )
        assert code == 3

    @pytest.mark.parametrize("old, new", [
        ("days 30", "days 1000000000000"),
        ("samples_per_day 96", "samples_per_day 10000000000"),
        ("depth_days 5", "depth_days 10000000000"),
        ("neighbors 2", "neighbors 1000000000000"),
    ])
    def test_oversized_knn_header_exit_3(self, pipeline, tmp_path, capsys, old, new):
        models = tmp_path / "models"
        shutil.copytree(pipeline["models"], models)
        path = models / "knn.htm-model"
        text = path.read_text()
        assert text.startswith("htm-model 2\n")
        path.write_text(replace_payload_line(text, old, new))
        code = cli.main(
            ["evaluate", "--models", str(models),
             "--data", str(pipeline["data"]), "--out", str(tmp_path / "r.csv")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_version_1_knn_file_exit_3(self, pipeline, tmp_path, capsys):
        """A k-NN pairs file of builds before the day-matrix format is an
        unsupported version: one error line, nothing on stdout."""
        models = tmp_path / "models"
        shutil.copytree(pipeline["models"], models)
        (models / "knn.htm-model").write_text(VERSION_1_KNN_FILE)
        code = cli.main(
            ["evaluate", "--models", str(models),
             "--data", str(pipeline["data"]), "--out", str(tmp_path / "r.csv")]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == "error: format version 1 has no kind knn\n"
        assert captured.out == ""
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("name, field, value, message", [
        ("knn", "day", "1e200", "stored pairs must be finite, at most 1e+12 W in magnitude"),
        ("knn", "day", "2000000000000.0",
         "stored pairs must be finite, at most 1e+12 W in magnitude"),
        ("nn", "scale_max", "1e200", "scale_max must be in (0, 1e+12]"),
    ])
    def test_model_value_above_the_power_limit_exit_3(self, pipeline, tmp_path, capsys,
                                                      name, field, value, message):
        """A model value above MAX_POWER_W is an unusable model file, not a
        numpy warning: a 1e200 W k-NN day overflowed the distances. A plain
        k-NN value is read as a block and bounded after it."""
        models = tmp_path / "models"
        shutil.copytree(pipeline["models"], models)
        path = models / f"{name}{persistence.MODEL_SUFFIX}"
        text = path.read_text()
        old = next(line for line in text.splitlines() if line.startswith(field + " "))
        values = old.split(" ")
        values[-1] = value
        path.write_text(replace_payload_line(text, old, " ".join(values)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["evaluate", "--models", str(models), "--data", str(pipeline["data"]),
                             "--out", str(tmp_path / "r.csv")])
        assert code == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        check_one_error_line(capsys, message)
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("command", ["evaluate", "simulate"])
    def test_swapped_model_files_exit_3(self, pipeline, tmp_path, capsys, command):
        models = tmp_path / "models"
        models.mkdir()
        for name, other in (("knn", "nn"), ("nn", "knn")):
            shutil.copy(pipeline["models"] / f"{other}.htm-model", models / f"{name}.htm-model")
        day = ["--day", CLOUDY_DEMO_DAY] if command == "simulate" else []
        code = cli.main([command, "--models", str(models), "--data", str(pipeline["data"]),
                         *day, "--out", str(tmp_path / "out")])
        assert code == 3
        check_one_error_line(capsys, f"error: {models / 'knn.htm-model'} does not contain "
                                     "a knn model")
        assert not (tmp_path / "out").exists()

    def test_non_utf8_model_exit_3(self, pipeline, tmp_path, capsys):
        models = tmp_path / "models"
        shutil.copytree(pipeline["models"], models)
        with open(models / "knn.htm-model", "ab") as sink:
            sink.write(b"\xff")
        code = cli.main(
            ["evaluate", "--models", str(models),
             "--data", str(pipeline["data"]), "--out", str(tmp_path / "r.csv")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {models / 'knn.htm-model'} is not UTF-8 text")
        assert err.count("\n") == 1

    def test_bad_version_field_exit_3(self, pipeline, tmp_path, capsys):
        models = tmp_path / "models"
        shutil.copytree(pipeline["models"], models)
        path = models / "knn.htm-model"
        path.write_text(path.read_text().replace("htm-model 2\n", "htm-model x\n", 1))
        code = cli.main(
            ["evaluate", "--models", str(models),
             "--data", str(pipeline["data"]), "--out", str(tmp_path / "r.csv")]
        )
        assert code == 3
        assert capsys.readouterr().err == "error: bad version field 'x'\n"
        assert not (tmp_path / "r.csv").exists()

    def test_crlf_model_exit_3(self, pipeline, tmp_path, capsys):
        models = tmp_path / "models"
        shutil.copytree(pipeline["models"], models)
        path = models / "knn.htm-model"
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        code = cli.main(
            ["evaluate", "--models", str(models),
             "--data", str(pipeline["data"]), "--out", str(tmp_path / "r.csv")]
        )
        assert code == 3
        # the version field, the first text to end in CR, is read as save_model writes it
        assert capsys.readouterr().err == "error: bad version field '2\\r'\n"
        assert not (tmp_path / "r.csv").exists()


def check_one_error_line(capsys, *parts):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for part in parts:
        assert part in err


LONG = "x" * 100_000
SPACES = " " * 100_000  # the per-line parser strips them before it reads a timestamp
# each reader's file, holding an offender of at least 100 000 characters, and
# a flag value of 5000
LONG_OFFENDERS = {
    "csv-header": LONG + "\n",
    "csv-timestamp": f"timestamp,power_w\n{LONG},0.0\n",
    "csv-value": f"timestamp,power_w\n2015-02-15T00:00:00,{LONG}\n",
    "csv-misaligned": f"timestamp,power_w\n2015-02-15T00:07:00{SPACES},0.0\n",
    "csv-duplicate":
        f"timestamp,power_w\n2015-02-15T00:00:00,0.0\n2015-02-15T00:00:00{SPACES},0.0\n",
    "config-line": LONG + "\n",
    "config-value": "seed = " + "1" * 100_000 + "\n",
    "model-line": LONG + "\n",
    "argv-seed": "9" * 5000,
}


@pytest.mark.parametrize("offender", LONG_OFFENDERS)
def test_long_offender_gives_one_short_error_line(pipeline, tmp_path, capsys, offender):
    """Every reader quotes at most 40 characters of a rejected input, so a
    long offender still gives one short error line."""
    text = LONG_OFFENDERS[offender]
    reader = offender.split("-")[0]
    if reader == "argv":
        with pytest.raises(SystemExit) as exited:
            cli.main(["synth", "--seed", text])
        last = capsys.readouterr().err.splitlines()[-1]  # after argparse's usage lines
        assert exited.value.code == 2 and len(last) < 200, last[:300]
        assert "... (5000 characters)" in last
        return
    if reader == "csv":
        path, code = tmp_path / "d.csv", 3
        argv = ["ingest", "--data", str(path)]
    elif reader == "config":
        path, code = tmp_path / "run.cfg", 2
        argv = ["synth", "--config", str(path), "--out", str(tmp_path / "d.csv")]
    else:
        models = tmp_path / "models"
        shutil.copytree(pipeline["models"], models)
        path, code = models / "knn.htm-model", 3
        argv = ["evaluate", "--models", str(models), "--data", str(pipeline["data"]),
                "--out", str(tmp_path / "r.csv")]
    path.write_text(text)
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and len(err) < 200, err[:300]
    assert "... (100" in err


@pytest.mark.parametrize("argv, line", [
    (["synth", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
    (["synth", "--days", "1.5"], "argument --days: invalid int value: '1.5'"),
    (["synth", "--split-train", "0.x"], "argument --split-train: invalid float value: '0.x'"),
    (["simulate", "--models", "m", "--data", "d.csv", "--day", "2015-13-01"],
     "argument --day: invalid fromisoformat value: '2015-13-01'"),
])
def test_short_rejected_flag_value_keeps_the_argparse_text(capsys, argv, line):
    """A flag value of 40 characters or fewer is quoted whole, as argparse
    quotes it."""
    with pytest.raises(SystemExit) as exited:
        cli.main(argv)
    assert exited.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"twotier {argv[0]}: error: {line}"


def with_bom(source, target):
    """Write the bytes of `source` to `target` after a UTF-8 byte-order mark."""
    target.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    return target


def test_config_with_bom_gives_the_same_csv(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 5\nsynth_days = 3\n")
    for config, out in ((cfg, "plain.csv"), (with_bom(cfg, tmp_path / "bom.cfg"), "bom.csv")):
        assert cli.main(["synth", "--config", str(config), "--out", str(tmp_path / out)]) == 0
    assert (tmp_path / "bom.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_model_with_bom_gives_the_same_report(pipeline, tmp_path, capsys):
    models = tmp_path / "models"
    shutil.copytree(pipeline["models"], models)
    with_bom(models / "knn.htm-model", models / "knn.htm-model")
    runs = []
    for directory, out in ((pipeline["models"], "plain.csv"), (models, "bom.csv")):
        assert cli.main(["evaluate", "--models", str(directory), "--data", str(pipeline["data"]),
                         "--out", str(tmp_path / out)]) == 0
        runs.append(capsys.readouterr().out.replace(out, ""))
    assert runs[0] == runs[1]
    assert (tmp_path / "bom.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_canonical_csv_with_bom_takes_the_block_path(pipeline, tmp_path, monkeypatch, capsys):
    """A leading BOM is dropped in the one decode, so a canonical CSV with
    one is read as one byte block, not by the per-line reader."""
    assert cli.main(["ingest", "--data", str(pipeline["data"])]) == 0
    plain = capsys.readouterr().out

    def per_line_reader(*args):
        raise AssertionError("the per-line reader ran")

    monkeypatch.setattr(timeseries, "_ingest_lines", per_line_reader)
    bom = with_bom(pipeline["data"], tmp_path / "bom.csv")
    assert cli.main(["ingest", "--data", str(bom)]) == 0
    assert capsys.readouterr().out == plain


def test_bom_after_the_first_line_exit_3(pipeline, tmp_path, capsys):
    """Only a leading BOM is dropped: one before a row's timestamp is part
    of the timestamp."""
    lines = pipeline["data"].read_text().splitlines(keepends=True)
    lines[5] = "\ufeff" + lines[5]
    bad = tmp_path / "bom6.csv"
    bad.write_text("".join(lines), encoding="utf-8")
    assert cli.main(["ingest", "--data", str(bad)]) == 3
    assert capsys.readouterr().err == (
        "error: line 6: bad timestamp '\\ufeff2015-02-15T01:00:00'\n")


def test_two_leading_boms_exit_3(pipeline, tmp_path, capsys):
    """One leading BOM is dropped per file, by the CSV reader; a second
    is part of the header, as it is for `ingest_csv` alone."""
    bom = with_bom(with_bom(pipeline["data"], tmp_path / "bom.csv"), tmp_path / "bom2.csv")
    assert cli.main(["ingest", "--data", str(bom)]) == 3
    assert capsys.readouterr() == ("", (
        "error: line 1: expected header 'timestamp,power_w', "
        "got '\\ufefftimestamp,power_w'\n"))


# The characters other than LF that `str.splitlines` ends a line at. No
# reader does: a line ends at LF and nothing else.
NOT_LINE_ENDS = {"FF": "\x0c", "VT": "\x0b", "FS": "\x1c", "GS": "\x1d", "RS": "\x1e",
                 "NEL": "\x85", "U+2028": "\u2028", "U+2029": "\u2029", "CR": "\r"}


def join_lines(text, line, char):
    """`text` with the LF that ends its line `line` (from 1) replaced by `char`."""
    *head, rest = text.split("\n", line)
    return "\n".join(head) + char + rest


@pytest.mark.parametrize("char", NOT_LINE_ENDS.values(), ids=NOT_LINE_ENDS)
def test_only_an_lf_ends_a_line(pipeline, tmp_path, capsys, char):
    """Each reader reads two lines joined by `char` as one line, and
    rejects it: a data CSV, a config file, a labels file and a model
    file's header."""
    data = tmp_path / "d.csv"
    data.write_bytes(join_lines(pipeline["data"].read_text(), 10, char).encode())
    assert cli.main(["ingest", "--data", str(data)]) == 3
    assert capsys.readouterr() == ("", "error: line 10: expected 2 fields, got 3\n")

    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(join_lines("seed = 5\nknn_neighbors = 3\n", 1, char).encode())
    assert cli.main(["synth", "--config", str(cfg), "--out", str(data)]) == 2
    check_one_error_line(capsys, "line 1: seed: bad integer ")

    with pytest.raises(MalformedRow, match="^line 2: expected 2 fields, got 3$"):
        read_labels_csv(join_lines("date,label\n2015-02-15,sunny\n2015-02-16,cloudy\n", 2, char))

    models = tmp_path / "models"
    shutil.copytree(pipeline["models"], models)
    model = models / "knn.htm-model"
    model.write_bytes(join_lines(model.read_text(), 1, char).encode())
    assert cli.main(["evaluate", "--models", str(models), "--data", str(pipeline["data"]),
                     "--out", str(tmp_path / "r.csv")]) == 3
    assert capsys.readouterr() == (
        "", f"error: bad version field {quoted('2' + char + 'kind knn')}\n")


def test_crlf_files_read_as_lf(pipeline, tmp_path, capsys):
    """A CR before an LF is blank padding: a CRLF data CSV or config file
    gives what its LF form gives, and a bad CRLF config line is quoted
    without its CR."""
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(pipeline["data"].read_bytes().replace(b"\n", b"\r\n"))
    runs = []
    for data in (pipeline["data"], crlf):
        assert cli.main(["ingest", "--data", str(data)]) == 0
        runs.append(capsys.readouterr())
    assert runs[0] == runs[1]

    text = "seed = 5\nsynth_days = 3\n"
    runs = []
    for name, line_end in (("lf", "\n"), ("crlf", "\r\n")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_bytes(text.replace("\n", line_end).encode())
        assert cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d.csv")]) == 0
        runs.append((capsys.readouterr(), (tmp_path / "d.csv").read_bytes()))
    assert runs[0] == runs[1]

    cfg.write_bytes(b"seed = 5\r\nbogus line\r\n")
    assert cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d.csv")]) == 2
    assert capsys.readouterr().err == "error: line 2: expected 'key = value', got 'bogus line'\n"


@pytest.mark.parametrize("command", ["evaluate", "simulate"])
@pytest.mark.parametrize("window, code", [(95, 0), (96, 2), (97, 2)])
def test_correction_window_as_long_as_a_day_exit_2(pipeline, tmp_path, capsys,
                                                   command, window, code):
    """A window of a day's 96 samples or more would correct no slot, so the
    run stops with one error line naming both numbers and writes nothing;
    a window of 95 still corrects the last slot."""
    out = tmp_path / "out"
    day = ["--day", CLOUDY_DEMO_DAY] if command == "simulate" else []
    argv = [command, "--correction-window", str(window), "--models", str(pipeline["models"]),
            "--data", str(pipeline["data"]), *day, "--out", str(out)]
    assert cli.main(argv) == code
    if code:
        check_one_error_line(
            capsys, f"correction window {window} must be shorter than a day of 96 samples")
        assert not out.exists()
    else:
        assert out.exists()


def test_correction_without_harmonics_on_the_default_set(pipeline, tmp_path, capsys):
    """With L = 0 the local tier subtracts the mean of the last n
    residuals, the last one at n = 1. On the default set both beat the
    paper's n = 8, L = 2, and n = 1 beats n = 4; the global tiers do not
    move. A trace then holds a0 alone."""
    averages = {}
    for window, harmonics in ((8, 2), (4, 0), (1, 0)):
        argv = ["evaluate", "--correction-window", str(window),
                "--correction-harmonics", str(harmonics), "--models", str(pipeline["models"]),
                "--data", str(pipeline["data"]), "--out", str(tmp_path / f"r{window}.csv")]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("averaged RMSE (watts)") + 1
        averages[window] = dict(line.split() for line in lines[start : start + 4])
    assert averages == {
        8: {"knn": "3691.4", "nn": "6223.9", "knn+local": "1366.5", "nn+local": "2727.8"},
        4: {"knn": "3691.4", "nn": "6223.9", "knn+local": "596.3", "nn+local": "1390.7"},
        1: {"knn": "3691.4", "nn": "6223.9", "knn+local": "255.8", "nn+local": "780.6"},
    }
    argv = ["simulate", "--correction-window", "1", "--correction-harmonics", "0",
            "--models", str(pipeline["models"]), "--data", str(pipeline["data"]),
            "--day", CLOUDY_DEMO_DAY, "--out", str(tmp_path / "traces")]
    assert cli.main(argv) == 0
    for label in ("knn", "nn"):
        trace = (tmp_path / "traces" / f"trace-{label}-{CLOUDY_DEMO_DAY}.csv").read_text()
        header, first, second, *_ = trace.splitlines()
        assert header == "sample_index,global_w,measured_w,corrected_w,a0"
        assert first.endswith(",") and not second.endswith(",")


class TestNonFiniteSettings:
    """Each library check is asserted before the command runs, so that a
    regression fails instead of training or generating forever."""

    @pytest.mark.parametrize("flag", ["--nn-lm-initial-damping", "--nn-lm-damping-factor",
                                      "--nn-loss-tolerance"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_lm_setting_exit_2(self, pipeline, tmp_path, capsys, flag, value):
        field = flag[len("--nn-"):].replace("-", "_")
        with pytest.raises(ValueError, match=field):
            NnConfig(**{field: float(value)})
        argv = ["train", "--nn-only", "--nn-restarts", "1", flag, value,
                "--data", str(pipeline["data"]), "--out", str(tmp_path / "m")]
        assert cli.main(argv) == 2
        check_one_error_line(capsys, field)

    @pytest.mark.parametrize("flag", ["--synth-peak-power-w", "--synth-cloud-event-rate"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_synth_knob_exit_2(self, tmp_path, capsys, flag, value):
        field = flag[len("--synth-"):].replace("-", "_")
        with pytest.raises(ValueError, match=field):
            SynthConfig(**{field: float(value)})
        assert cli.main(["synth", flag, value, "--out", str(tmp_path / "d.csv")]) == 2
        check_one_error_line(capsys, field)

    def test_synth_peak_power_past_rounding_limit_exit_2(self, tmp_path, capsys):
        # 1e308 W overflowed the 1e-6 W rounding: numpy printed a warning,
        # then the non-finite sample failed
        argv = ["synth", "--synth-peak-power-w", "1e308", "--out", str(tmp_path / "d.csv")]
        assert cli.main(argv) == 2
        check_one_error_line(capsys, "peak_power_w")

    @pytest.mark.parametrize("flag", ["--split-train", "--split-tune", "--split-test"])
    def test_nan_split_ratio_exit_2(self, pipeline, tmp_path, capsys, flag):
        argv = ["tune", "--knn-only", flag, "nan", "--data", str(pipeline["data"]),
                "--out", str(tmp_path / "tuned.cfg")]
        assert cli.main(argv) == 2
        check_one_error_line(capsys, "split ratios must sum to 1, got nan")


# A rejected setting of any component, with the command it is given to, as
# [command, flags] given the pipeline's data file, and its error text.
# Each rejected setting as (argv, message); "DATA" and "MODELS" stand for
# the pipeline's files.
REJECTED_SETTINGS = {
    "synth-nn": (["synth", "--nn-restarts", "0"], "restarts must be >= 1"),
    "ingest-knn": (["ingest", "--knn-neighbors", "1", "--data", "DATA"],
                   "neighbors must be >= 2"),
    "tune-knn-only-nn": (["tune", "--knn-only", "--nn-restarts", "0", "--data", "DATA"],
                         "restarts must be >= 1"),
    "train-restarts": (["train", "--nn-restarts", "0", "--data", "DATA"],
                       "restarts must be >= 1"),
    "train-iterations": (["train", "--nn-max-iterations", "-1", "--data", "DATA"],
                         "max_iterations must be >= 0"),
    "ingest-grid": (["ingest", "--sample-interval-seconds", "0", "--data", "DATA"],
                    "sample_interval_seconds must be a positive integer"),
    "synth-sunset": (["synth", "--synth-sunset-sample", "96"],
                     "sunset sample 96 outside grid of 96 samples"),
    "tune-knn-only-window": (["tune", "--knn-only", "--correction-window", "96",
                              "--data", "DATA"],
                             "correction window 96 must be shorter than a day of 96 samples"),
    "tune-knn-only-sunset": (["tune", "--knn-only", "--synth-sunset-sample", "96",
                              "--data", "DATA"],
                             "sunset sample 96 outside grid of 96 samples"),
    "tune-knn-only-days": (["tune", "--knn-only", "--synth-days", "0", "--data", "DATA"],
                           "num_days must be >= 1"),
    "train-span": (["train", "--synth-start-date", "9999-12-30", "--data", "DATA"],
                   "50 days from 9999-12-30 run past 9999-12-31"),
    "synth-split": (["synth", "--split-train", "2"],
                    "split ratios must sum to 1, got 2.4000000000000004"),
    "ingest-split": (["ingest", "--split-train", "2", "--data", "DATA"],
                     "split ratios must sum to 1, got 2.4000000000000004"),
    "simulate-split": (["simulate", "--split-train", "2", "--models", "MODELS",
                        "--data", "DATA", "--day", CLOUDY_DEMO_DAY],
                       "split ratios must sum to 1, got 2.4000000000000004"),
}


@pytest.mark.parametrize("case", REJECTED_SETTINGS)
def test_rejected_setting_exit_2_writing_nothing(pipeline, tmp_path, capsys, case):
    """A setting that any command rejects, every command rejects, not only
    the commands that use it: a `tuned.cfg` that `tune` writes is one that
    every command accepts with `--config`."""
    argv, message = REJECTED_SETTINGS[case]
    files = {"DATA": str(pipeline["data"]), "MODELS": str(pipeline["models"])}
    argv = [files.get(arg, arg) for arg in argv]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


def test_rejected_setting_fails_before_the_data_is_read(tmp_path, capsys):
    argv = ["ingest", "--knn-neighbors", "1", "--data", str(tmp_path / "missing.csv")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: neighbors must be >= 2\n"


@pytest.mark.parametrize("command", ["tune", "train", "evaluate"])
@pytest.mark.parametrize("ratios, message", [
    (("1.2", "-0.4", "0.2"), "split ratios must be >= 0, got (1.2, -0.4, 0.2)"),
    (("0.9", "0.2", "0.2"), "split ratios must sum to 1, got 1.3"),
    (("0.6", "nan", "0.2"), "split ratios must sum to 1, got nan"),
], ids=["negative", "sum", "nan"])
def test_bad_split_ratios_exit_2_writing_nothing(pipeline, tmp_path, capsys, command,
                                                 ratios, message):
    out = str(tmp_path / "out")
    argv = {
        "tune": ["tune", "--out", out],
        "train": ["train", "--out", out],
        "evaluate": ["evaluate", "--models", str(pipeline["models"]), "--out", out],
    }[command]
    for flag, value in zip(("--split-train", "--split-tune", "--split-test"), ratios):
        argv += [flag, value]
    assert cli.main([*argv, "--data", str(pipeline["data"])]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


# Each command with its last output file at `taken`, as [command, flags]
# given the pipeline; simulate writes `taken` in the --out directory.
TAKEN_OUTPUT = {
    "ingest": lambda run, taken: ["ingest", "--data", run["data"], "--out", taken],
    "tune --out": lambda run, taken: ["tune", "--knn-only", "--data", run["data"],
                                      "--out", taken],
    "tune --report": lambda run, taken: ["tune", "--knn-only", "--data", run["data"],
                                         "--out", taken.parent / "t.cfg", "--report", taken],
    "evaluate": lambda run, taken: ["evaluate", "--models", run["models"],
                                    "--data", run["data"], "--out", taken],
    "simulate": lambda run, taken: ["simulate", "--models", run["models"], "--data", run["data"],
                                    "--day", CLOUDY_DEMO_DAY, "--out", taken.parent],
}


@pytest.mark.parametrize("case", TAKEN_OUTPUT)
def test_failed_write_exit_3_printing_nothing(pipeline, tmp_path, capsys, case):
    """An output path that is an existing directory exits 3 with one error
    line naming it and an empty stdout, and no other output is written."""
    taken = tmp_path / f"trace-nn-{CLOUDY_DEMO_DAY}.csv"
    taken.mkdir()
    argv = TAKEN_OUTPUT[case](pipeline, taken)
    assert cli.main([str(arg) for arg in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{taken}'\n"
    )
    assert list(tmp_path.iterdir()) == [taken]
    assert list(taken.iterdir()) == []


@pytest.mark.parametrize("out, error", [
    ("missing/d.csv", errno.ENOENT),
    ("data.csv/d.csv", errno.ENOTDIR),
], ids=["missing-directory", "under-a-file"])
def test_unreachable_output_named_in_the_error(pipeline, tmp_path, monkeypatch, capsys,
                                               out, error):
    """The error names the output path, as opening it would, not the new
    file written beside it."""
    monkeypatch.chdir(tmp_path)
    shutil.copy(pipeline["data"], "data.csv")
    assert cli.main(["ingest", "--data", "data.csv", "--out", out]) == 3
    assert capsys.readouterr() == ("", f"error: [Errno {error}] {os.strerror(error)}: '{out}'\n")
    assert [path.name for path in tmp_path.iterdir()] == ["data.csv"]


def test_symlinked_output_written_through_the_link(pipeline, tmp_path, capsys):
    """An output path that is a symlink stays one, and the file it points
    to gets the output, as opening the path would."""
    argv = ["ingest", "--data", str(pipeline["data"]), "--out"]
    assert cli.main([*argv, str(tmp_path / "plain.csv")]) == 0
    linked, link = tmp_path / "linked.csv", tmp_path / "link.csv"
    linked.write_bytes(b"old\n")
    link.symlink_to(linked)
    assert cli.main([*argv, str(link)]) == 0
    assert link.is_symlink()
    assert linked.read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "link.csv", "linked.csv", "plain.csv"]


def test_fifo_output_written_in_place(pipeline, tmp_path, capsys):
    """An output path that is a FIFO, like a device such as /dev/null, is
    opened and written; it is not replaced by a regular file."""
    argv = ["ingest", "--data", str(pipeline["data"]), "--out"]
    assert cli.main([*argv, str(tmp_path / "plain.csv")]) == 0
    fifo, received = tmp_path / "fifo", []
    os.mkfifo(fifo)
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert cli.main([*argv, str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert received == [(tmp_path / "plain.csv").read_bytes()]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["fifo", "plain.csv"]


# Each command with two output files, as [command, flags] given the
# pipeline and a directory `out` to write into, and the two targets.
TWO_OUTPUTS = {
    "synth --out": (lambda run, out: ["synth", "--days", "2", "--out", out / "s.csv"],
                    ["s.csv", "s.labels.csv"]),
    "tune --out --report": (
        lambda run, out: ["tune", "--knn-only", "--data", run["data"],
                          "--out", out / "t.cfg", "--report", out / "grids.csv"],
        ["t.cfg", "grids.csv"]),
    "train": (lambda run, out: ["train", "--data", run["data"], "--nn-restarts", "1",
                                "--out", out / "models"],
              ["models/knn.htm-model", "models/nn.htm-model"]),
    "simulate": (lambda run, out: ["simulate", "--models", run["models"], "--data", run["data"],
                                   "--day", CLOUDY_DEMO_DAY, "--out", out / "traces"],
                 [f"traces/trace-knn-{CLOUDY_DEMO_DAY}.csv",
                  f"traces/trace-nn-{CLOUDY_DEMO_DAY}.csv"]),
}


def tree(root):
    """{relative path: bytes, or None for a directory} of everything under root."""
    return {str(path.relative_to(root)): None if path.is_dir() else path.read_bytes()
            for path in root.rglob("*")}


def fail_write(monkeypatch, position):
    """Make the `position`-th file write of a run (1 for the first)
    write a few bytes and then raise ENOSPC; return the list of the paths
    the run writes to, filled in as it runs."""
    write_file, paths = cli._write_file, []

    def counted(path, text, mode="x"):
        paths.append(path)
        if len(paths) != position:
            return write_file(path, text, mode)
        write_file(path, "partial", mode)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "_write_file", counted)
    return paths


@pytest.mark.parametrize("existing", [False, True], ids=["new-targets", "old-targets"])
@pytest.mark.parametrize("position", [1, 2])
@pytest.mark.parametrize("case", TWO_OUTPUTS)
def test_failed_write_at_any_position_changes_nothing(
    pipeline, tmp_path, monkeypatch, capsys, case, position, existing
):
    """A write that fails at any position exits 3 with one error line and
    an empty stdout, leaves every target as it was (or absent), and
    leaves no new file or directory behind."""
    command, targets = TWO_OUTPUTS[case]
    if existing:
        for name in targets:
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_bytes(f"old {name}\n".encode())
    before = tree(tmp_path)
    paths = fail_write(monkeypatch, position)
    assert cli.main([str(arg) for arg in command(pipeline, tmp_path)]) == 3
    assert len(paths) == position
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert tree(tmp_path) == before


def test_retrain_failing_at_the_nn_model_keeps_both_old_models(
    pipeline, tmp_path, monkeypatch, capsys
):
    """A re-train into an existing model directory whose NN model write
    fails keeps the old k-NN model too, so the directory never holds
    models of two runs; the same run without the failure replaces both."""
    models = tmp_path / "models"
    shutil.copytree(pipeline["models"], models)
    old = tree(models)
    argv = ["train", "--data", str(pipeline["data"]), "--knn-neighbors", "3",
            "--nn-restarts", "1", "--out", str(models)]
    fail_write(monkeypatch, 2)
    assert cli.main(argv) == 3
    assert capsys.readouterr().out == ""
    assert tree(models) == old
    monkeypatch.undo()
    assert cli.main(argv) == 0
    new = tree(models)
    assert new.keys() == old.keys()
    assert all(new[name] != old[name] for name in old)


def test_one_path_for_config_and_report_keeps_the_report(pipeline, tmp_path, capsys):
    """`tune --out P --report P` prints both `wrote P` lines and leaves the
    report in P, the output written last."""
    same, report = tmp_path / "P", tmp_path / "grids.csv"
    argv = ["tune", "--knn-only", "--data", str(pipeline["data"])]
    assert cli.main([*argv, "--out", str(tmp_path / "t.cfg"), "--report", str(report)]) == 0
    capsys.readouterr()
    assert cli.main([*argv, "--out", str(same), "--report", str(same)]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [f"wrote {same}"] * 2
    assert same.read_bytes() == report.read_bytes()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["P", "grids.csv", "t.cfg"]


def test_stdout_write_error_exits_3(pipeline, monkeypatch, capsys):
    """A stdout that fails (a closed pipe) exits 3 with one error line."""
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise OSError(errno.EPIPE, os.strerror(errno.EPIPE))

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert cli.main(["ingest", "--data", str(pipeline["data"])]) == 3
    assert capsys.readouterr().err == f"error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_pipe_closed_while_writing_exits_3(unbuffered):
    """A reader that leaves after 10 bytes of `synth`'s 1.7 MB CSV makes it
    exit 3 with the EPIPE error line, buffered or not (python -u): the
    write it was blocked in must not end the run as a success."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    with subprocess.Popen([sys.executable, "-m", "twotier.cli", "synth", "--days", "365"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as run:
        assert run.stdout.read(10) == b"timestamp,"
        run.stdout.close()
        err = run.stderr.read().decode()
        assert run.wait(timeout=120) == 3
    assert err.endswith(f"error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("stdout, error", [
    ("/dev/full", errno.ENOSPC),
    ("closed pipe", errno.EPIPE),
], ids=["full-device", "closed-pipe"])
def test_unwritable_stdout_exits_3(pipeline, stdout, error, unbuffered):
    """`ingest`, whose one line fits stdout's buffer, exits 3 with one
    error line when stdout is a full device or a pipe whose reader has
    already left, buffered or not (python -u): main flushes the line, and
    interpreter exit does not report the failure again."""
    if stdout == "/dev/full":
        fd = os.open(stdout, os.O_WRONLY)
    else:
        reader, fd = os.pipe()
        os.close(reader)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        run = subprocess.run(
            [sys.executable, "-m", "twotier.cli", "ingest", "--data", str(pipeline["data"])],
            stdout=fd, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(fd)
    assert run.returncode == 3
    assert run.stderr.decode() == f"error: [Errno {error}] {os.strerror(error)}\n"


def run_python(args, **variables):
    """A Python subprocess that imports twotier from this checkout, in an
    environment with none of the BLAS thread variables but `variables`."""
    env = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_VARIABLES}
    env.update(variables, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("module, variables, threads, lanes", [
    ("twotier.__main__", {}, "1", True),
    ("twotier.__main__", {"OPENBLAS_NUM_THREADS": "2"}, "2", False),
    ("twotier.__main__", {"GOTO_NUM_THREADS": "2"}, "None", False),
    ("twotier.__main__", {"GOTO_NUM_THREADS": "1"}, "None", True),
    ("twotier.__main__", {"OMP_NUM_THREADS": "2"}, "None", False),
    ("twotier.__main__", {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, "2", False),
    ("twotier.cli", {}, "None", False),
    ("twotier", {}, "None", False),
], ids=["entry", "entry-openblas-2", "entry-goto-2", "entry-goto-1", "entry-omp-2",
        "entry-openblas-2-omp-1", "cli", "package"])
def test_entry_runs_blas_on_one_thread_unless_the_user_set_a_count(
    module, variables, threads, lanes
):
    """The command's entry module (the console script and `python -m
    twotier`) sets OPENBLAS_NUM_THREADS=1 before numpy is imported, so
    the network trains in lanes, unless a BLAS thread variable is already
    set; importing the package or its cli sets nothing. There are lanes
    when the first BLAS thread variable that is set reads 1."""
    report = ("import os; from twotier import nn; "
              "print(os.getenv('OPENBLAS_NUM_THREADS'), nn._lanes(2))")
    done = run_python(["-c", f"import {module}; {report}"], **variables)
    assert done.returncode == 0, done.stderr
    cpus = len(os.sched_getaffinity(0))
    assert done.stdout.split() == [threads, str(min(2, cpus) if lanes else 1)]


@pytest.mark.parametrize("variables, lanes", [({}, 1), ({"OPENBLAS_NUM_THREADS": "1"}, 4)],
                         ids=["default", "one-blas-thread"])
def test_lanes_read_the_same_after_each_fork(variables, lanes):
    """OpenBLAS stops its threads at a fork and starts them again at the
    next call that needs them, and a pool's threads end a moment after its
    shutdown returns; neither moves the lanes of 50 back-to-back
    _in_lanes calls."""
    script = ("from twotier import nn\nnn._usable_cpus = lambda: 4\nprint(nn._lanes(10))\n"
              "for _ in range(50):\n    nn._in_lanes(abs, 4, 2)\n    print(nn._lanes(10))\n")
    done = run_python(["-c", script], **variables)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(lanes)] * 51


def test_module_entry_trains_the_bytes_of_an_in_process_run(pipeline, tmp_path):
    done = run_python(["-m", "twotier", "train", "--data", str(pipeline["data"]),
                       "--out", str(tmp_path)])
    assert done.returncode == 0, done.stderr
    assert tree(tmp_path) == tree(pipeline["models"])


def test_parser_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_main_runs_the_cmd_on_the_module_when_called(monkeypatch, capsys):
    """main looks each command up by name when it runs, so a `cmd_*`
    replaced after the parser was built (as the benchmark's tracer does)
    is the one called."""
    cli.build_parser()
    calls = []

    def replaced(args, config):
        calls.append((args.data, config.seed))
        return "replaced\n", {}

    monkeypatch.setattr(cli, "cmd_ingest", replaced)
    assert cli.main(["ingest", "--data", "absent.csv", "--seed", "7"]) == 0
    assert capsys.readouterr().out == "replaced\n"
    assert calls == [("absent.csv", 7)]


def test_one_parser_runs_each_command_as_a_fresh_one_does(tmp_path, monkeypatch, capsys):
    """Commands run one after another in one process, on the one parser,
    give each the exit code, stdout, stderr and files of the same command
    run on a newly built parser: no state carries from one call to the
    next."""
    evaluate = ["evaluate", "--models", "m", "--data", "s.csv", "--out", "r.csv"]
    commands = [
        ["synth", "--days", "20", "--out", "s.csv"],
        ["train", "--data", "s.csv", "--out", "m", "--nn-restarts", "1"],
        evaluate,
        ["tune", "--bogus", "--data", "s.csv"],
        ["simulate", "--help"],
        evaluate,
    ]

    def run(directory, fresh):
        directory.mkdir()
        monkeypatch.chdir(directory)
        results = []
        for argv in commands:
            if fresh:
                cli.build_parser.cache_clear()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's exits: a usage error, --help
                code = exc.code
            results.append((code, *capsys.readouterr(), tree(directory)))
        return results

    shared = run(tmp_path / "shared", fresh=False)
    assert [code for code, *_ in shared] == [0, 0, 0, 2, 0, 0]
    assert shared == run(tmp_path / "fresh", fresh=True)


def readme_quick_start():
    """(argv, shown lines) for every `$ twotier ...` command in the
    README's Quick start section, in order. Shown lines keep blank lines
    and `...` elisions but not the blank lines that end a command."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    commands = []
    for block in section.split("```")[1::2]:
        for line in block.splitlines():
            if line.startswith("$ twotier "):
                commands.append((shlex.split(line)[2:], []))
            elif commands:
                commands[-1][1].append(line)
    for _, shown in commands:
        while shown and not shown[-1].strip():
            shown.pop()
    return commands


def fits(shown, printed):
    """Whether `printed` is `shown` line for line, where each `...` line
    of `shown` stands for any number of printed lines."""
    if not shown:
        return not printed
    if shown[0] == "...":
        return any(fits(shown[1:], printed[i:]) for i in range(len(printed) + 1))
    return bool(printed) and printed[0] == shown[0] and fits(shown[1:], printed[1:])


@pytest.fixture(scope="module")
def readme_run(tmp_path_factory):
    """The README's Quick start commands, run once in order in a fresh
    directory: that directory and, per command, (argv, shown lines, exit
    code, stdout, seconds). The full default tune runs only here."""
    root = tmp_path_factory.mktemp("readme")
    steps = []
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)
        for argv, shown in readme_quick_start():
            started = time.monotonic()
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = cli.main(argv)
            elapsed = time.monotonic() - started
            steps.append((argv, shown, code, out.getvalue(), elapsed))
    return root, steps


class TestReadmeQuickStart:
    def test_printed_lines_match(self, readme_run):
        """The Quick start and tune commands print exactly the README's
        lines at the default seed, `...` standing for the elided ones. A
        command the README shows no output for must succeed."""
        _, steps = readme_run
        commands = [(argv, shown) for argv, shown, *_ in steps]
        assert [argv[0] for argv, _ in commands] == [
            "synth", "ingest", "train", "simulate", "evaluate", "tune", "train"
        ]
        assert "  nn         6223.9" in commands[4][1]
        assert commands[5][1][-2:] == ["...", "wrote tuned.cfg"]
        assert commands[6][0][:3] == ["train", "--config", "tuned.cfg"]
        for argv, shown, code, out, _ in steps:
            assert code == 0, argv
            if shown:
                assert fits(shown, out.splitlines()), (argv, shown, out)
