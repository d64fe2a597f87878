"""What a webmal process loads at start-up."""

import os
import subprocess
import sys

import webmal

SRC = os.path.dirname(os.path.dirname(os.path.abspath(webmal.__file__)))

# scipy.stats costs about 35 MB and 0.6 s per process, and pulls in the next
# three; scipy.sparse.csgraph costs about 9 MB of RSS per process, and pulls in
# scipy.sparse.linalg and scipy.linalg
HEAVY = ("scipy.stats", "scipy.optimize", "scipy.integrate", "scipy.interpolate",
         "scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg")

# imports every webmal module the way the benchmark worker does
IMPORT_ALL = """
import importlib, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import webmal
for mod in pkgutil.walk_packages(webmal.__path__, "webmal."):
    if not mod.name.endswith(".__main__"):
        importlib.import_module(mod.name)
"""


def _python(code: str) -> list[str]:
    return subprocess.run([sys.executable, "-c", code, SRC], check=True,
                          capture_output=True, text=True).stdout.split()


def test_package_loads_no_scipy_stats():
    out = _python(IMPORT_ALL + 'print("\\n".join(sorted(sys.modules)))')
    assert "webmal.predict" in out and "webmal.heavytail.fitting" in out
    assert [m for m in out if m.startswith(HEAVY)] == []

