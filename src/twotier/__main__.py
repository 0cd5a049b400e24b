"""The `twotier` command: the console script and `python -m twotier`.

Before numpy is imported, this sets OpenBLAS's own thread variable, the
first of `twotier.BLAS_THREAD_VARIABLES`, to 1, unless the environment
already holds one of them, whatever its value. So BLAS runs one thread,
the network's restarts train in lanes (`nn._lanes`), and its small
products run faster than on one BLAS thread per CPU. Importing `twotier`
or `twotier.cli` sets nothing, and `python -m twotier.cli` imports numpy
before any line of it runs.
"""

import os
import sys

from . import BLAS_THREAD_VARIABLES

if not os.environ.keys() & BLAS_THREAD_VARIABLES:
    os.environ[BLAS_THREAD_VARIABLES[0]] = "1"

from .cli import main  # noqa: E402 (numpy is imported here, after the setting)

if __name__ == "__main__":
    sys.exit(main())
