"""Self-test of the benchmark: python3 -m pytest bench/test_bench.py

The traced pass runs twice per workload and every count it reports must
repeat exactly; the gate must reject each kind of wrong output; and the
benchmark must refuse to run where there is no source tree.
"""

import json
import shutil
import subprocess
import sys

import pytest

import tracing
import workloads
from run import BENCH, ROOT, child_env

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_names_match_benchmark_json():
    produced = tracing.layer_metrics({}, 0.0)
    assert [m["name"] for m in SPEC["per_layer"]] == list(produced)
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "setup_s", "verdict_s", "warm_verdict_s", "peak_rss_mb"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), workload, str(seed), "1"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, result["failures"]
    return result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat(workload):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = []
    for _ in range(2):
        r = _traced(workload, 7)
        values = tracing.layer_metrics(r, 0.0)
        counts.append({k: v for k, v in values.items()
                       if units[k] not in ("s", "ms")})
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] == len(workloads.units(workload, 7))


def _unit_and_doc(workload: str):
    unit = workloads.units(workload, 1)[0]
    if unit.basis_count is not None:
        doc = {"schema": "uhainf/1", "kind": "matrix", "basis_count": 784,
               "entries": [{"row": 0, "col": 0}]}
    else:
        doc = {"schema": "uhainf/1", "kind": "check", "passed": True,
               "reports": [{"checked": 3, "failures": []}]}
    return unit, doc


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_gate_accepts_a_right_document(workload):
    unit, doc = _unit_and_doc(workload)
    assert workloads.gate(unit, 0, json.dumps(doc)) is None


@pytest.mark.parametrize("mutate", [
    lambda doc: doc.update(schema="uhainf/0"),
    lambda doc: doc.update(passed=False),
    lambda doc: doc.update(reports=[]),
    lambda doc: doc["reports"][0].update(checked=0),
])
def test_gate_rejects_a_wrong_check_document(mutate):
    unit, doc = _unit_and_doc("relations")
    mutate(doc)
    assert workloads.gate(unit, 0, json.dumps(doc)) is not None


def test_gate_rejects_wrong_exit_code_raise_and_garbage():
    unit, doc = _unit_and_doc("relations")
    assert workloads.gate(unit, 1, json.dumps(doc)) is not None
    assert workloads.gate(unit, None, "") is not None
    assert workloads.gate(unit, 0, "not json") is not None


def test_gate_requires_the_negative_control_to_fail():
    control = workloads.units("relations", 1)[-1]
    assert control.exit_code == 1 and control.note == "divergent"
    passing = {"schema": "uhainf/1", "passed": True,
               "reports": [{"checked": 1, "failures": []}]}
    assert workloads.gate(control, 0, json.dumps(passing)) is not None
    failing = dict(passing, passed=False, reports=[
        {"checked": 1, "failures": [{"note": "divergent: tail terms -2 (low), 0 (high)"}]}])
    assert workloads.gate(control, 1, json.dumps(failing)) is None
    failing["reports"][0]["failures"][0]["note"] = "something else"
    assert workloads.gate(control, 1, json.dumps(failing)) is not None


def test_gate_rejects_a_wrong_matrix():
    unit, doc = _unit_and_doc("export")
    assert workloads.gate(unit, 0, json.dumps(dict(doc, basis_count=210))) is not None
    assert workloads.gate(unit, 0, json.dumps(dict(doc, entries=[]))) is not None


def test_refuses_to_run_without_sources():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "export", "--seed",
             "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
