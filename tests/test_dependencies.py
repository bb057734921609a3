"""numpy is the only runtime dependency: nothing else is imported."""

import json
import os
import subprocess
import sys
from pathlib import Path

import chancap

# a fresh interpreter, so that the test run's own imports do not count
PROBE = """
import json, sys
before = set(sys.modules)
import chancap, chancap.cli, chancap.verify
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_package_imports_numpy_and_the_standard_library_alone():
    env = {**os.environ, "PYTHONPATH": str(Path(chancap.__file__).resolve().parents[1])}
    probe = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                           text=True, check=True)
    loaded = set(json.loads(probe.stdout))
    assert {"chancap", "numpy"} <= loaded
    assert loaded - {"chancap", "numpy"} <= set(sys.stdlib_module_names), sorted(loaded)
