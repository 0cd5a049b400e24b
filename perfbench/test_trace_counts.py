"""Checks on the benchmark's traced runs.

Run from the repository root with `python3 -m pytest perfbench`. Each
workload is run twice, traced, with one seed; the two runs must agree
exactly on every work count, and the layer the workload is meant to
stress must have the largest self-time share. Takes a few minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).with_name("run.py")
SEED = 3
EXACT = (
    "nn.lm.iterations",
    "correction.fit_dfs.calls",
    "nn.duplicate_row_share",
    "knn.pairs",
)
LARGEST_SHARE = {
    "offline-50d": "nn.self_share",
    "evaluate-365d": "correction.self_share",
    "simulate-365d": "timeseries.self_share",
    "tune-knn-365d": "knn.self_share",
}


def traced_run(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stdout
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(LARGEST_SHARE))
def test_counts_repeat_exactly(workload):
    first, second = traced_run(workload), traced_run(workload)
    exact = [
        name for name in first
        if name in EXACT or (name.startswith(("knn.", "nn.")) and name.endswith(".calls"))
    ]
    assert len(exact) == 11
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}
    shares = {n: v for n, v in first.items() if n.endswith(".self_share")}
    assert max(shares, key=shares.get) == LARGEST_SHARE[workload]
