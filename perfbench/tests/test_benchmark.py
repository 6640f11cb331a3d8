"""Checks of the benchmark itself.

    python3 -m pytest perfbench/tests

The traced test runs `halphen verify all` twice under the layer wrappers
(about a minute each) and requires identical call counts, so that changes
can cite exact counts.
"""

import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))


def _traced_calls(workload):
    done = subprocess.run(workload.traced_argv(), cwd=run.ROOT,
                          env=run._child_env(), capture_output=True,
                          text=True, check=True)
    doc = json.loads(done.stdout)
    assert doc["rc"] == 0
    return doc["calls"]


def test_verify_all_call_counts_repeat_exactly():
    workload = run.VerifyAll(seed=7)
    first, second = _traced_calls(workload), _traced_calls(workload)
    assert first == second
    # the two repeated computations named in the roadmap's quick wins
    assert first["invariants.reference_report"] == 2
    assert first["torsion.find_specialization"] == 5


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == layers.metric_units())


def test_point_counts_match_the_program():
    from halphen import cubic
    from halphen.field import GF

    for p in (13, 37, 61):
        for t, n in list(run.hesse_point_counts(p).items())[:5]:
            curve = cubic.HesseCubic(GF(p), t)
            assert len(cubic.rational_points(curve)) == n


def test_census_inputs_depend_only_on_the_seed():
    assert run.TorsionCensus(3).calls == run.TorsionCensus(3).calls
    assert run.TorsionCensus(3).calls != run.TorsionCensus(4).calls
