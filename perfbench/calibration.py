"""Machine-speed calibration for the end-to-end timings.

The benchmark's host is a shared virtual machine whose CPU throughput
switches between states that differ by 40-70% and last from seconds to
tens of seconds. CPU time moves with wall time, so the process is not
descheduled, just slower, and not all work slows alike. Over 200 s of
alternating runs on a 2-core Xeon VM, log time against the log of the
machine's state had slopes of 0.76 for a Python integer loop, 1.05 for
8x5 `lstsq` calls and 0.96 for a 2688x6 tanh layer, and of 0.78 for
twotier's LM training, 1.13 for `simulate_day` and 0.78 for
`load_model`; a k-NN distance scan over a 220x480 array slowed about
three quarters as much as those three kernels together. The chunk below
mixes all four, about 40% of it the scan, so that its slope sits in the
middle of the program's.

The run times one chunk every PERIOD_S while a set-up or untraced op
runs, from a SIGALRM handler on the main thread, and a short slice of
chunks between items. Each item's time, less the time spent in the
handler, is rescaled to the speed at which one chunk takes
REFERENCE_CHUNK_MS, judged from the chunks timed during the item and in
the slices on either side of it. The kernel does not use twotier, so a
change to the program moves the rescaled times exactly as it moves the
raw ones.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

# Median chunk time on the 2-core Xeon VM the benchmark was written on.
REFERENCE_CHUNK_MS = 4.0
PERIOD_S = 0.1
SLICE_S = 0.05

_rng = np.random.default_rng(0)
_WINDOW = _rng.random((8, 5))
_RESIDUAL = _rng.random(8)
_INPUTS = _rng.random((2688, 2))
_WEIGHTS = _rng.random((6, 2))
_CONTEXTS = _rng.random((220, 480))
_QUERY = _rng.random(480)


def chunk() -> float:
    """Run the kernel once; return its wall time in seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(12000):
        total += i * i
    for _ in range(35):
        np.linalg.lstsq(_WINDOW, _RESIDUAL, rcond=None)
    for _ in range(9):
        np.tanh(_INPUTS @ _WEIGHTS.T).sum()
    for _ in range(9):
        np.sqrt(((_CONTEXTS - _QUERY) ** 2).sum(axis=1)).argsort(kind="stable")
    return time.perf_counter() - start


class Calibration:
    """Chunk times per phase ("setup" or "op"): slices[phase][i] is timed
    just before item i of the phase, during[phase][i] while it runs."""

    def __init__(self):
        self.slices: dict[str, list[list[float]]] = {"setup": [], "op": []}
        self.during: dict[str, list[list[float]]] = {"setup": [], "op": []}

    def slice(self, phase: str) -> None:
        end = time.perf_counter() + SLICE_S
        chunks = [chunk()]
        while time.perf_counter() < end:
            chunks.append(chunk())
        self.slices[phase].append(chunks)

    @contextlib.contextmanager
    def sampling(self, phase: str, active: bool = True):
        """Sample the kernel while the block runs; yields a function that
        returns the seconds spent in the samples so far."""
        chunks: list[float] = []
        self.during[phase].append(chunks)
        busy = False

        def sample(signum, frame):
            nonlocal busy
            if busy:  # a chunk slower than PERIOD_S: skip, do not nest
                return
            busy = True
            try:
                chunks.append(chunk())
            finally:
                busy = False

        if not active:
            yield lambda: 0.0
            return
        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield lambda: sum(chunks)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def chunk_ms(self, phase: str) -> float:
        every = [c for group in (self.slices, self.during) for s in group[phase] for c in s]
        return statistics.median(every) * 1e3

    def rescale(self, phase: str, times: list[float]) -> list[float]:
        """Each item's time of the phase at reference speed."""
        slices, during = self.slices[phase], self.during[phase]
        return [
            t * REFERENCE_CHUNK_MS
            / (statistics.median(slices[i] + during[i] + slices[i + 1]) * 1e3)
            for i, t in enumerate(times)
        ]
