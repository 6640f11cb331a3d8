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


def test_traced_workloads_call_every_required_layer(monkeypatch):
    """The traced runs of all three workloads exit 0, record a call for
    every counter their workload's `must_call` in `perfbench/run.py`
    lists, and give output that the workload's own check passes: a change
    that takes the last call off a listed layer (say the last
    `kernel_basis` over Q(e)(a) or Q(e), or the last `GFpkElem.inverse`
    of the torsion census) fails here, not first in a traced benchmark
    run."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import run
    workloads = [run.WORKLOADS[name](1)
                 for name in ("verify_all", "specialized_qe", "torsion_census")]
    children = [subprocess.Popen(w.traced_argv(), cwd=ROOT, env=run._child_env(),
                                 stdout=subprocess.PIPE, text=True) for w in workloads]
    for workload, child in zip(workloads, children):
        out, _ = child.communicate(timeout=120)
        doc = json.loads(out)
        assert doc["rc"] == 0, workload.name
        idle = [stem for stem in workload.must_call if not doc["calls"].get(stem)]
        assert idle == [], workload.name
        assert workload.check(doc["rc"], doc["stdout"])[0] == 0, workload.name
