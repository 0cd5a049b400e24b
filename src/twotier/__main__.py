"""The `twotier` command: the console script and `python -m twotier`.

Before numpy is imported, this sets `OPENBLAS_NUM_THREADS=1`, unless the
environment already holds `OPENBLAS_NUM_THREADS`, `GOTO_NUM_THREADS` or
`OMP_NUM_THREADS` (the variables OpenBLAS reads its thread count from,
in that order), whatever its value. On one BLAS thread the process runs
no thread but its own, so the network's restarts train in lanes
(`nn._lanes`), and its small products run faster than on one BLAS
thread per CPU. Importing `twotier` or `twotier.cli` sets nothing, and
`python -m twotier.cli` imports numpy before any line of it runs.
"""

import os
import sys

if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .cli import main  # noqa: E402 (numpy is imported here, after the setting)

if __name__ == "__main__":
    sys.exit(main())
