"""End-to-end command-line behavior and the exit-code contract."""

import contextlib
import hashlib
import io
import re
import shlex
import shutil
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    make_series, printed_best, rendered, repeating_clear_days, replace_payload_line
)
from twotier import cli, persistence
from twotier.config import RunConfig, parse_config
from twotier.knn import KnnModel
from twotier.nn import NnConfig, NnModel
from twotier.synth import SynthConfig, generate
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
    grid = ["--sample-interval-seconds", "1800"]
    code = cli.main(
        ["synth", *grid, "--synth-sunrise-sample", "13",
         "--synth-sunset-sample", "35", "--out", str(data)]
    )
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
    assert "96 (k-NN) and 96 (NN) samples per day" in err
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

    @pytest.mark.parametrize("out", [".", "", "{tmp}", "{tmp}/"])
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

    @pytest.mark.parametrize("command", ["tune", "train", "evaluate"])
    def test_power_above_the_limit_exit_3(self, pipeline, tmp_path, capsys, command):
        """A reading above MAX_POWER_W is a data error naming its line, not
        a numpy warning: at 1e160 W the squared k-NN distances overflowed."""
        lines = pipeline["data"].read_text().splitlines()
        lines[50] = lines[50].split(",")[0] + ",1e13"
        data = tmp_path / "huge.csv"
        data.write_text("\n".join(lines) + "\n")
        extra = {
            "tune": ["--knn-only", "--out", str(tmp_path / "tuned.cfg")],
            "train": ["--out", str(tmp_path / "models")],
            "evaluate": ["--models", str(pipeline["models"]),
                         "--out", str(tmp_path / "report.csv")],
        }[command]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main([command, "--data", str(data), *extra]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        check_one_error_line(capsys, "line 51: power '1e13' above the 1e+12 W limit")
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

    def test_conflicting_flags_exit_2(self, pipeline, tmp_path):
        code = cli.main(
            ["train", "--data", str(pipeline["data"]),
             "--out", str(tmp_path / "x"), "--knn-only", "--nn-only"]
        )
        assert code == 2

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
        tuned_config = parse_config((root / "tuned.cfg").read_text(), RunConfig())
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
        argv = ["tune", "--knn-only", "--sample-interval-seconds", "21600",
                "--split-train", "0.91", "--split-tune", "0.031", "--split-test", "0.059",
                "--data", str(data), "--out", str(tuned)]
        assert cli.main(argv) == 0
        assert printed_best(capsys.readouterr().out) == {"depth_days": 2, "neighbors": 4}
        config = parse_config(tuned.read_text(), RunConfig())
        assert (config.knn_depth_days, config.knn_neighbors) == (2, 4)

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
        ("pairs 25", "pairs 1000000000000"),
        ("context_length 480", "context_length 10000000000"),
        ("target_length 96", "target_length 10000000000"),
        ("days 30", "days 1000000000000"),
        ("samples_per_day 96", "samples_per_day 10000000000"),
    ])
    def test_oversized_knn_header_exit_3(self, pipeline, tmp_path, capsys, old, new):
        models = tmp_path / "models"
        shutil.copytree(pipeline["models"], models)
        path = models / "knn.htm-model"
        text = path.read_text()
        assert text.startswith("htm-model 2\n")
        if old.split()[0] in ("pairs", "context_length", "target_length"):
            # version 1: the fitted pairs in reverse order, which no day
            # matrix lays out
            fitted = persistence.load_model(text)
            text = rendered(KnnModel(fitted.config, fitted.contexts[::-1], fitted.targets[::-1]))
            assert text.startswith("htm-model 1\n")
        path.write_text(replace_payload_line(text, old, new))
        code = cli.main(
            ["evaluate", "--models", str(models),
             "--data", str(pipeline["data"]), "--out", str(tmp_path / "r.csv")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name, field, message", [
        ("knn", "day", "stored pairs must be finite, at most 1e+12 W in magnitude"),
        ("nn", "scale_max", "scale_max must be in (0, 1e+12]"),
    ])
    def test_model_value_above_the_power_limit_exit_3(self, pipeline, tmp_path, capsys,
                                                      name, field, message):
        """A model value above MAX_POWER_W is an unusable model file, not a
        numpy warning: a 1e200 W k-NN day overflowed the distances."""
        models = tmp_path / "models"
        shutil.copytree(pipeline["models"], models)
        path = models / f"{name}{persistence.MODEL_SUFFIX}"
        text = path.read_text()
        old = next(line for line in text.splitlines() if line.startswith(field + " "))
        values = old.split(" ")
        values[-1] = "1e200"
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
        err = capsys.readouterr().err
        assert err.startswith("error: payload hash ") and err.endswith(" does not match header\n")
        assert err.count("\n") == 1
        assert not (tmp_path / "r.csv").exists()


def check_one_error_line(capsys, *parts):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for part in parts:
        assert part in err


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
