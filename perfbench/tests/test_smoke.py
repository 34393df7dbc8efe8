"""Smoke test of the benchmark: metric names, output checks, short real runs.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(root, *args):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_benchmark_json_names_workloads_and_bounds():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in spec[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_untraced_run_reports_every_end_to_end_metric():
    result = _result(_run(ROOT, "--workload", "verify", "--seed", "1",
                          "--seconds", "1", "--trace", "0"))
    declared = _spec()["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_traced_run_reports_every_layer_metric_and_overhead():
    result = _result(_run(ROOT, "--workload", "verify", "--seed", "2",
                          "--seconds", "1", "--trace", "1"))
    assert list(result["metrics"]) == [m["name"] for m in _spec()["per_layer"]]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["harness.verify.zero-fixed-point.calls"] == 1
    assert metrics["kernels.causal_conv.calls"] > 0
    assert metrics["trace.untraced_run_s"] > 0


def _good_output(workload: str) -> dict:
    ref = workloads.REFERENCES[workload]
    if workload == "verify":
        return {"checks": [(f"check-{i}", True) for i in range(ref["checks"])]}
    res = {"status": ref["status"], "steps": ref["steps"],
           "blowup_time": ref.get("blowup_time"),
           "final_supnorm": ref.get("final_supnorm", 1.0e8)}
    return {"results": [dict(res) for _ in range(ref["results"])]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_fire_on_corrupted_reference(workload):
    good = _good_output(workload)
    assert workloads.check(workload, good) == []
    ref = dict(workloads.REFERENCES[workload])
    if workload == "verify":
        ref["checks"] += 1
    else:
        ref["status"] = "Completed" if ref["status"] == "BlowUp" else "BlowUp"
    assert workloads.check(workload, good, ref)
    for key in ("blowup_time", "final_supnorm"):
        if key in ref:
            off = dict(workloads.REFERENCES[workload])
            off[key] *= 1.0 + 10 * workloads.REL_TOL
            assert workloads.check(workload, good, off)


def test_checks_fire_on_missing_system_result():
    out = _good_output("system-1d")
    out["results"].pop()
    assert workloads.check("system-1d", out)


def test_checks_fire_on_failed_verify_check():
    out = _good_output("verify")
    out["checks"][3] = ("check-3", False)
    assert workloads.check("verify", out)


def test_same_seed_gives_same_inputs():
    for w in workloads.WORKLOADS:
        a, b = workloads.op_inputs(w, 5), workloads.op_inputs(w, 5)
        assert [next(a) for _ in range(4)] == [next(b) for _ in range(4)]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "--workload", "verify", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
