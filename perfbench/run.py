"""Run one workload of the twotier benchmark from a checkout's root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Workloads and metrics are listed in
BENCHMARK.json; perfbench/README.md says what each one measures.
"""

import os
import sys
from pathlib import Path

# Before numpy is first imported: one BLAS/OpenMP thread, so the load is
# one single-threaded process.
for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[name] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if __name__ == "__main__":
    if not (SRC / "twotier" / "cli.py").is_file():
        sys.exit(f"error: no twotier sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bench

    sys.exit(bench.main(ROOT))
