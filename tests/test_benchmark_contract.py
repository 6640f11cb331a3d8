"""The per-layer benchmark wraps named functions and methods of the package.

`perfbench/layers.py` looks each target up with `vars(owner)[name]`, so a
refactor that moves, renames or inherits one of them breaks the traced
benchmark run.  This check installs the wrappers in a child interpreter, so
they cannot leak into other tests, and fails in about a second.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import layers
layers.install(layers.Recorder())
unwrapped = []
for module, path in layers.COUNTERS + layers.SPANS:
    owner = sys.modules["halphen." + module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if not hasattr(vars(owner).get(attr), "__wrapped__"):
        unwrapped.append(module + "." + path)
print(json.dumps(unwrapped))
"""


def test_every_benchmark_target_is_bound():
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
