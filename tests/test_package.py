"""The package root, how its modules import, and the names the benchmark
tracer wraps."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import twotier

PACKAGE = Path(twotier.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")

# Imports the root alone, then each module named on the command line
# alone, from a clean slate: an import cycle surfaces as an ImportError
# whatever order the suite happened to import things in.
ISOLATED_IMPORTS = """
import importlib, sys

def forget():
    for name in [n for n in sys.modules if n == "twotier" or n.startswith("twotier.")]:
        del sys.modules[name]

forget()
import twotier
loaded = sorted(n for n in sys.modules if n.startswith("twotier."))
assert not loaded, f"importing the package root loaded {loaded}"
for module in sys.argv[1:]:
    forget()
    importlib.import_module("twotier." + module)
print(len(sys.argv) - 1)
"""


def test_each_module_imports_alone():
    assert len(MODULES) == 12
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", ISOLATED_IMPORTS, *MODULES],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{len(MODULES)}\n"


def test_every_traced_function_resolves():
    # perfbench/tracer.py wraps its targets by name only when a traced run
    # installs it, so a renamed or removed function would pass everything
    # else here; load it from its file and look each one up.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for name, home, attr, _ in tracer.TARGETS:
        assert callable(getattr(home, attr, None)), f"{name}: {home.__name__}.{attr} is gone"
