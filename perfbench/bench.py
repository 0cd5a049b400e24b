"""Workloads, output checks and metrics of the twotier benchmark.

The CLI runs in-process (`twotier.cli.main`) as a closed loop with one
client: each op starts when the previous one has finished. There is no
queue, lock or second process, so the benchmark records no wait time.
Start it through run.py, which pins BLAS to one thread first.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import twotier
from twotier import cli, nn
from twotier.timeseries import SamplingGrid, ingest_csv, split_chronological

import tracer
from calibration import REFERENCE_CHUNK_MS, Calibration

# Set up at least SETUP_REPEATS times, and until SETUP_MIN_S seconds of
# set-up have been timed, so a cheap set-up still gets a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SAMPLES_PER_DAY = SamplingGrid().samples_per_day
SPLIT = (0.6, 0.2, 0.2)
RMSE_METRICS = {
    "knn": "rmse_knn_w",
    "nn": "rmse_nn_w",
    "knn+local": "rmse_knn_local_w",
    "nn+local": "rmse_nn_local_w",
}

# README quick-start output on the default 50-day set. The k-NN tier has
# no seed, so its lines hold for every workload seed; the network's only
# for seed 1, the README's.
README_LINES_ANY_SEED = (
    "generated 50 days (22 sunny, 28 cloudy), seed 1",
    "50 days from 2015-02-15 to 2015-04-05, 96 samples/day, peak 35000.0 W",
    "     depth_days      1      2      3      4      5      6      7      8",
    "normalized RMSE  0.713  1.000  0.854  0.551  0.698  0.711  0.789  0.895",
    "RMSE 7431.1 is normalized to 1",
    "trained on 30 days; wrote {models}/knn.htm-model, {models}/nn.htm-model",
    "knn: global RMSE 12566.2 W, corrected RMSE 4129.7 W, improvement 67.14%",
    "  knn        3691.4",
    "  knn+local  1366.5",
    "improvement knn+local vs knn: 62.98%",
)
README_LINES_SEED_1 = (
    "nn: global RMSE 10051.8 W, corrected RMSE 3269.3 W, improvement 67.48%",
    "  nn         6223.9",
    "  nn+local   2727.8",
    "improvement nn+local vs nn: 56.17%",
)
README_DAY = "2015-04-02"


class OutputError(Exception):
    """The program ran but its output is wrong."""


def run_cli(argv: list[str]) -> str:
    """Run one twotier subcommand in-process; return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise OutputError(f"twotier {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_report(path: Path) -> tuple[dict[str, float], dict[tuple[str, str], float]]:
    """Averaged RMSE per method and per-day RMSE per (date, method)."""
    averages, per_day = {}, {}
    with open(path, newline="", encoding="utf-8") as f:
        for first, method, value in list(csv.reader(f))[1:]:
            if first == "average":
                averages[method] = float(value)
            elif first not in ("improvement", "skipped"):
                per_day[(first, method)] = float(value)
    return averages, per_day


def read_trace(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != SAMPLES_PER_DAY:
        raise OutputError(f"{path.name}: {len(rows)} rows, expected {SAMPLES_PER_DAY}")
    trace = {
        key: np.array([float(r[key]) for r in rows])
        for key in ("global_w", "measured_w", "corrected_w")
    }
    if np.any(trace["corrected_w"] < 0):
        raise OutputError(f"{path.name}: negative corrected_w")
    return trace


def rmse(predicted: np.ndarray, actual: np.ndarray) -> float:
    diff = predicted - actual
    return math.sqrt(float(diff @ diff) / diff.size)


def averaged_rmse(report: Path) -> dict[str, float]:
    averages, _ = read_report(report)
    if set(averages) != set(RMSE_METRICS):
        raise OutputError(f"{report.name}: averages for {sorted(averages)}")
    return {RMSE_METRICS[m]: v for m, v in averages.items()}


def files_under(directory: Path) -> list[Path]:
    return sorted(p for p in directory.rglob("*") if p.is_file())


def training_rows(data: Path) -> tuple[int, float]:
    """Rows of the NN training set and the share that repeat another row."""
    series = ingest_csv(data.read_text(encoding="utf-8"), SamplingGrid())
    train = split_chronological(series, SPLIT).train
    scale_max = train.max_power() or 1.0
    inputs, targets = nn.day_ahead_samples(train, scale_max)
    rows = np.column_stack([inputs, targets])
    distinct = np.unique(rows, axis=0).shape[0]
    return rows.shape[0], 1.0 - distinct / rows.shape[0]


class Workload:
    """One set of inputs. `setup` is timed and repeated; `op(i)` is timed;
    `check(i, stdout)` and `accuracy()` are not."""

    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.setup_dir = work / "setup"
        self.op_dir = work / "op"
        # The data set and models the ops read or write.
        self.data = self.setup_dir / "data.csv"
        self.models = self.setup_dir / "models"

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed bookkeeping after the last set-up."""

    def op(self, i: int) -> str:
        raise NotImplementedError

    def check(self, i: int, stdout: str) -> list[Path]:
        """Raise OutputError on wrong output; return the files op i wrote."""
        raise NotImplementedError

    def accuracy(self) -> dict[str, float]:
        raise NotImplementedError


class Offline50d(Workload):
    """README chain; data is the documented default set, the workload seed
    is the network's initialization seed."""

    name = "offline-50d"

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.data = self.op_dir / "data.csv"
        self.models = self.op_dir / "models"

    def setup(self) -> None:
        # Warm-up: the op regenerates this set; set-up fills lazy imports
        # and caches so the first op is not charged for them.
        run_cli(["synth", "--out", self.setup_dir / "data.csv"])

    def op(self, i: int) -> str:
        d, data, models = self.op_dir, self.data, self.models
        d.mkdir(parents=True, exist_ok=True)
        seed = ["--seed", self.seed]
        return "".join(
            run_cli(argv)
            for argv in (
                ["synth", "--out", data],
                ["ingest", "--data", data],
                ["tune", *seed, "--data", data, "--out", d / "tuned.cfg"],
                ["train", *seed, "--data", data, "--out", models],
                ["simulate", *seed, "--models", models, "--data", data,
                 "--day", README_DAY, "--out", d / "traces"],
                ["evaluate", *seed, "--models", models, "--data", data,
                 "--out", d / "report.csv"],
            )
        )

    def check(self, i: int, stdout: str) -> list[Path]:
        lines = set(stdout.splitlines())
        expected = list(README_LINES_ANY_SEED)
        if self.seed == 1:
            expected += README_LINES_SEED_1
        for line in expected:
            line = line.format(models=self.models)
            if line not in lines:
                raise OutputError(f"missing README line {line!r}")
        for label in ("knn", "nn"):
            read_trace(self.op_dir / "traces" / f"trace-{label}-{README_DAY}.csv")
        return files_under(self.op_dir)

    def accuracy(self) -> dict[str, float]:
        return averaged_rmse(self.op_dir / "report.csv")


class Year(Workload):
    """Shared set-up of the 365-day workloads: the synthetic year and
    models trained with one NN restart, both from the workload seed."""

    def setup(self) -> None:
        seed = ["--seed", self.seed]
        run_cli(["synth", *seed, "--days", 365, "--out", self.data])
        run_cli(["train", *seed, "--nn-restarts", 1, "--data", self.data,
                 "--out", self.models])

    def prepare(self) -> None:
        series = ingest_csv(self.data.read_text(encoding="utf-8"), SamplingGrid())
        test = split_chronological(series, SPLIT).test
        self.dates = [day.date.isoformat() for day in test.days]

    def accuracy(self) -> dict[str, float]:
        """Scores of the set-up's models from an untimed `evaluate`."""
        return averaged_rmse(self.evaluate())

    def evaluate(self) -> Path:
        report = self.work / "accuracy" / "report.csv"
        report.parent.mkdir(parents=True, exist_ok=True)
        run_cli(["evaluate", "--models", self.models, "--data", self.data, "--out", report])
        return report


class Evaluate365d(Year):
    name = "evaluate-365d"

    def op(self, i: int) -> str:
        self.op_dir.mkdir(parents=True, exist_ok=True)
        return run_cli(["evaluate", "--models", self.models, "--data", self.data,
                        "--out", self.op_dir / "report.csv"])

    def check(self, i: int, stdout: str) -> list[Path]:
        report = self.op_dir / "report.csv"
        _, per_day = read_report(report)
        if len(per_day) != 4 * len(self.dates):
            raise OutputError(f"report has {len(per_day)} day rows for {len(self.dates)} days")
        return [report]

    def accuracy(self) -> dict[str, float]:
        return averaged_rmse(self.op_dir / "report.csv")


class Simulate365d(Year):
    name = "simulate-365d"

    def op(self, i: int) -> str:
        day = self.dates[i % len(self.dates)]
        return run_cli(["simulate", "--models", self.models, "--data", self.data,
                        "--day", day, "--out", self.op_dir])

    def check(self, i: int, stdout: str) -> list[Path]:
        day = self.dates[i % len(self.dates)]
        paths = [self.op_dir / f"trace-{label}-{day}.csv" for label in ("knn", "nn")]
        for path in paths:
            read_trace(path)
        if sum(line.startswith(("knn: global RMSE", "nn: global RMSE"))
               for line in stdout.splitlines()) != 2:
            raise OutputError(f"simulate {day}: unexpected stdout {stdout!r}")
        return paths

    def accuracy(self) -> dict[str, float]:
        """Scores from `evaluate`, after checking that every trace written
        reproduces evaluate's per-day RMSE for its day."""
        report = self.evaluate()
        _, per_day = read_report(report)
        for path in sorted(self.op_dir.glob("trace-*.csv")):
            _, label, day = path.stem.split("-", 2)
            trace = read_trace(path)
            measured = trace["measured_w"]
            for method, column in ((label, "global_w"), (f"{label}+local", "corrected_w")):
                from_trace = rmse(trace[column], measured)
                if not math.isclose(from_trace, per_day[(day, method)], rel_tol=1e-9):
                    raise OutputError(
                        f"{path.name}: {method} RMSE {from_trace!r} != report "
                        f"{per_day[(day, method)]!r}"
                    )
        return averaged_rmse(report)


class TuneKnn365d(Year):
    name = "tune-knn-365d"

    def op(self, i: int) -> str:
        self.op_dir.mkdir(parents=True, exist_ok=True)
        return run_cli(["tune", "--knn-only", "--seed", self.seed, "--data", self.data,
                        "--out", self.op_dir / "tuned.cfg"])

    def check(self, i: int, stdout: str) -> list[Path]:
        if "best depth_days:" not in stdout or "best neighbors:" not in stdout:
            raise OutputError(f"tune printed no best values: {stdout!r}")
        return [self.op_dir / "tuned.cfg"]


WORKLOADS = {w.name: w for w in (Offline50d, Evaluate365d, Simulate365d, TuneKnn365d)}


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {name: os.environ.get(name) for name in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "twotier": twotier.__file__,
    }


class Run:
    """One benchmark run: set-up, timed loop, checks, metrics."""

    def __init__(self, workload: Workload, seconds: float, trace: bool):
        self.workload = workload
        self.seconds = seconds
        self.tracer = tracer.Tracer() if trace else None
        self.calibration = Calibration()
        self.hashes: dict[str, str] = {}
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.op_s: list[float] = []  # every op, in order
        self.traced: list[bool] = []
        self.failed = 0

    def record(self, paths: list[Path], origin: str) -> None:
        """Hash output files; a file written again must keep its bytes."""
        for path in paths:
            name = path.relative_to(self.workload.work).as_posix()
            digest = sha256(path)
            if self.hashes.setdefault(name, digest) != digest:
                raise OutputError(f"{origin}: {name} changed bytes on repeat")

    def set_up(self) -> None:
        w = self.workload
        self.calibration.slice("setup")
        k = 0
        while k < SETUP_REPEATS or sum(self.setup_s) < SETUP_MIN_S:
            shutil.rmtree(w.setup_dir, ignore_errors=True)
            w.setup_dir.mkdir(parents=True)
            with self.calibration.sampling("setup") as sampled_s:
                start = time.perf_counter()
                w.setup()
                self.setup_s.append(time.perf_counter() - start - sampled_s())
            self.calibration.slice("setup")
            try:
                self.record(files_under(w.setup_dir), f"set-up {k}")
            except OutputError as exc:
                self.problems.append(str(exc))
            k += 1
        w.prepare()

    def loop(self) -> None:
        """Closed loop until `seconds` have passed. Traced runs alternate
        untraced and traced ops and do at least one of each."""
        w = self.workload
        start = time.perf_counter()
        self.calibration.slice("op")
        i = 0
        while True:
            traced = self.tracer is not None and i % 2 == 1
            scope = self.tracer.installed(i) if traced else contextlib.nullcontext()
            stdout, error = "", None
            # Traced ops are not sampled, so no sample lands in their spans.
            with scope, self.calibration.sampling("op", active=not traced) as sampled_s:
                t0 = time.perf_counter()
                try:
                    stdout = w.op(i)
                except (Exception, SystemExit) as exc:
                    error = exc
                self.op_s.append(time.perf_counter() - t0 - sampled_s())
            self.traced.append(traced)
            self.calibration.slice("op")
            try:
                if error is not None:
                    raise OutputError(f"op raised {error!r}")
                self.record(w.check(i, stdout), f"op {i}")
            except (OutputError, OSError, ValueError, KeyError) as exc:
                self.failed += 1
                self.problems.append(f"op {i}: {exc}")
            i += 1
            done = time.perf_counter() - start >= self.seconds
            if done and (self.tracer is None or i >= 2):
                return

    def op_ms_p50(self, traced: bool) -> float:
        """Median of the untraced or the traced ops at reference speed."""
        times = self.calibration.rescale("op", self.op_s)
        return statistics.median(t for t, tr in zip(times, self.traced) if tr == traced) * 1e3

    def metrics(self) -> dict[str, tuple[float, str]]:
        """End-to-end and trace.op_ms_* times are rescaled to the
        calibration's reference speed; the other per-layer times are wall
        times."""
        w = self.workload
        cal = self.calibration
        if self.tracer is None:
            metrics = {
                "setup_s": (statistics.median(cal.rescale("setup", self.setup_s)), "s"),
                "op_ms_p50": (self.op_ms_p50(False), "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            try:
                rmses = w.accuracy()
                self.record(files_under(w.work / "accuracy"), "accuracy")
            except (OutputError, OSError, ValueError, KeyError) as exc:
                self.problems.append(f"accuracy: {exc}")
                rmses = dict.fromkeys(RMSE_METRICS.values(), 0.0)
            metrics.update({name: (value, "W") for name, value in rmses.items()})
            return metrics
        metrics = self.tracer.layer_metrics()
        rows, share = training_rows(w.data)
        model_files = w.models.glob("*.htm-model")
        traced, untraced = self.op_ms_p50(True), self.op_ms_p50(False)
        metrics.update({
            "persistence.model_bytes": (sum(p.stat().st_size for p in model_files), "bytes"),
            "nn.train_rows": (rows, "count"),
            "nn.duplicate_row_share": (share, "ratio"),
            "trace.op_ms_p50": (traced, "ms"),
            "trace.op_ms_p50_untraced": (untraced, "ms"),
            "trace.overhead_ms": (traced - untraced, "ms"),
            "wall.setup_s": (statistics.median(self.setup_s), "s"),
            "calibration.chunk_ms": (cal.chunk_ms("op"), "ms"),
        })
        return metrics


def declared_metrics(root: Path, trace: bool) -> list[str]:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(root: Path, argv=None) -> int:
    args = parse_args(argv)
    src = (root / "src").resolve()
    if Path(twotier.__file__).resolve().parents[1] != src:
        raise SystemExit(f"error: imported twotier from {twotier.__file__}, not {src}")
    work = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(WORKLOADS[args.workload](args.seed, work), args.seconds, bool(args.trace))
    run.set_up()
    run.loop()
    metrics = run.metrics()
    declared = declared_metrics(root, bool(args.trace))
    if sorted(metrics) != sorted(declared):
        raise SystemExit(
            f"error: metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json"
        )
    attempted = len(run.op_s)
    env = environment(args.seed)
    report = {
        "workload": args.workload,
        "environment": env,
        "load": "closed loop, one client, in-process twotier.cli.main",
        "wait_time": "none recorded: no queue, lock or second process",
        "setup_s": run.setup_s,
        "op_s": run.op_s,
        "op_traced": run.traced,
        "calibration_slices_s": run.calibration.slices,
        "calibration_during_s": run.calibration.during,
        "problems": run.problems,
        "sha256": run.hashes,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    if run.tracer is not None:
        report["spans"] = run.tracer.span_records()
    (work / "result.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"load {report['load']}; wait time {report['wait_time']}")
    print(f"ops attempted {attempted}  failed {run.failed}  error_rate {run.failed / attempted:g}")
    print(
        f"wall setup_s {statistics.median(run.setup_s)!r}  "
        f"op_ms_p50 {statistics.median(t for t, tr in zip(run.op_s, run.traced) if not tr) * 1e3!r}"
        f"  calibration chunk_ms "
        f"setup {run.calibration.chunk_ms('setup')!r} op {run.calibration.chunk_ms('op')!r} "
        f"(end-to-end and trace.op_ms_* times are rescaled to {REFERENCE_CHUNK_MS} ms per chunk)"
    )
    for problem in run.problems:
        print(f"problem {problem}")
    for name, digest in sorted(run.hashes.items()):
        print(f"sha256 {digest}  {name}")
    for name in declared:
        value, unit = metrics[name]
        print(f"metric {name} {value!r} {unit}")
    print(f"report {(work / 'result.json').relative_to(root)}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in declared},
    }))
    return 0
