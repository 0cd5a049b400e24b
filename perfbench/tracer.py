"""Spans around twotier's module-level functions, recorded from outside.

While `Tracer.installed(op)` is active, each target function is replaced,
in its home module and in every twotier module that binds the same
object, by a wrapper that records one span per call: op, name, start,
end and the index of the enclosing span. On exit the originals are put
back, so untraced ops run the program's own code. Hooks count the work a
call did from its arguments and result. Spans stay in memory; the run
writes them out when it ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

import numpy as np

from twotier import cli, correction, evaluation, knn, nn, persistence, synth, timeseries


def _count_lm(counts, args, result):
    trace = result[1]
    accepted = sum(trace.accepted)
    counts["nn.lm.proposals"] += len(trace.losses)
    counts["nn.lm.accepted"] += accepted
    # Every LM iteration ends in an accepted step, except a last one that
    # gave up when the damping passed the cap.
    counts["nn.lm.iterations"] += accepted + int(trace.final_damping > nn.DAMPING_CAP)


def _count_knn_scan(counts, args, result):
    model = args[0]
    counts["knn.pairs"] += model.pair_count
    # Computed, not measured: predict_day reads every stored context once.
    counts["knn.bytes_scanned_computed"] += model.contexts.nbytes


def _count_ingest(counts, args, result):
    counts["timeseries.ingest_rows"] += result.num_days * result.grid.samples_per_day


def _count_skipped(counts, args, result):
    counts["evaluation.skipped_days"] += len(result.skipped_days)


SUBCOMMANDS = ("synth", "ingest", "tune", "train", "simulate", "evaluate")

# (span name, home module, attribute, hook). The span name's first part
# is the layer; np.linalg.solve is only called by nn's LM step.
TARGETS = (
    ("synth.generate", synth, "generate", None),
    ("timeseries.ingest_csv", timeseries, "ingest_csv", _count_ingest),
    ("timeseries.export_csv", timeseries, "export_csv", None),
    ("persistence.load_model", persistence, "load_model", None),
    ("persistence.save_model", persistence, "save_model", None),
    ("knn.fit", knn, "fit", None),
    ("knn.predict_day", knn, "predict_day", _count_knn_scan),
    ("nn.lm", nn, "_train_lm_arrays", _count_lm),
    ("nn.jacobian", nn, "_jacobian_batch", None),
    ("nn.forward", nn, "_forward_batch", None),
    ("nn.solve", np.linalg, "solve", None),
    ("nn.predict_day", nn, "predict_day", None),
    ("correction.simulate_day", correction, "simulate_day", None),
    ("correction.fit_dfs", correction, "fit_dfs", None),
    ("correction.write_trace_csv", correction, "write_trace_csv", None),
    ("evaluation.tune_knn", evaluation, "tune_knn", None),
    ("evaluation.tune_nn", evaluation, "tune_nn", None),
    ("evaluation.compare_methods", evaluation, "compare_methods", _count_skipped),
    *((f"cli.{name}", cli, f"cmd_{name}", None) for name in SUBCOMMANDS),
)

SPAN_NAMES = tuple(name for name, *_ in TARGETS)
LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in SPAN_NAMES))
ROOT_SPAN = "op"


def _namespaces(home):
    """The home module's namespace and every loaded twotier module's."""
    found = {id(home): vars(home)}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "twotier" or name.startswith("twotier.")):
            found.setdefault(id(module), vars(module))
    return found.values()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [op, name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._op, name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, op: int):
        """Trace every call made while the block runs, as part of `op`."""
        swaps = []
        try:
            for name, home, attr, hook in TARGETS:
                original = getattr(home, attr)
                wrapper = self._wrap(name, original, hook)
                for namespace in _namespaces(home):
                    for key, value in list(namespace.items()):
                        if value is original:
                            namespace[key] = wrapper
                            swaps.append((namespace, key, original))
            self._op = op
            root = self._open(ROOT_SPAN)
            try:
                yield
            finally:
                self._close(root)
        finally:
            for namespace, key, original in reversed(swaps):
                namespace[key] = original

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each averaged over the traced ops.

        A span's self time is its duration minus its child spans'. A
        layer's self share is the self time of all its spans over the
        time of the traced ops.
        """
        child_time = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for index, (_, name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_time[index]
        ops = calls[ROOT_SPAN]
        if ops == 0:
            raise ValueError("no traced op")
        op_time = total[ROOT_SPAN]
        metrics = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = (calls[name] / ops, "count/op")
            metrics[f"{name}.total_s"] = (total[name] / ops, "s/op")
            metrics[f"{name}.self_s"] = (own[name] / ops, "s/op")
        for layer in LAYERS:
            layer_self = sum(own[n] for n in SPAN_NAMES if n.split(".")[0] == layer)
            metrics[f"{layer}.self_share"] = (layer_self / op_time, "ratio")
        ingest_s = total["timeseries.ingest_csv"]
        rows = self.counts["timeseries.ingest_rows"]
        metrics["timeseries.ingest_rows_per_s"] = (rows / ingest_s if ingest_s else 0.0, "1/s")
        metrics["knn.pairs"] = (self.counts["knn.pairs"] / ops, "count/op")
        metrics["knn.bytes_scanned_computed"] = (
            self.counts["knn.bytes_scanned_computed"] / ops, "bytes/op"
        )
        proposals = self.counts["nn.lm.proposals"]
        metrics["nn.lm.iterations"] = (self.counts["nn.lm.iterations"] / ops, "count/op")
        metrics["nn.lm.proposals"] = (proposals / ops, "count/op")
        metrics["nn.lm.accept_ratio"] = (
            self.counts["nn.lm.accepted"] / proposals if proposals else 0.0, "ratio"
        )
        metrics["evaluation.skipped_days"] = (
            self.counts["evaluation.skipped_days"] / ops, "count/op"
        )
        metrics["trace.spans"] = (len(self.spans) / ops, "count/op")
        return metrics

    def span_records(self) -> list[dict]:
        return [
            {"op": op, "name": name, "start": start, "end": end, "parent": parent}
            for op, name, start, end, parent in self.spans
        ]
