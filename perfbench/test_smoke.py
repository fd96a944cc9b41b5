"""Smoke test of the benchmark: every workload at the shortest length.

Run from the root of a checkout, with either of

    python3 perfbench/test_smoke.py
    python3 -m pytest perfbench/test_smoke.py

It checks that each workload prints every metric of BENCHMARK.json with its
unit, with tracing off and on, that two traced runs with one seed give the
same call counts, and that the benchmark refuses a directory holding only
its own files.  It takes about a minute on two cores.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, seed=3, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def _check_metrics(result, declared):
    units = {m["name"]: m["unit"] for m in declared}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name], name
        assert isinstance(metric["value"], (int, float)), name


def _counts(result):
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def test_end_to_end_metrics():
    for workload in WORKLOADS:
        result = _result(_run(workload, 0))
        _check_metrics(result, SPEC["end_to_end"])
        assert all(m["value"] > 0 for m in result["metrics"].values()), workload


def test_per_layer_metrics_repeat():
    for workload in WORKLOADS:
        first = _result(_run(workload, 1))
        _check_metrics(first, SPEC["per_layer"])
        assert _counts(first) == _counts(_result(_run(workload, 1))), workload


def test_refuses_directory_without_program():
    (ROOT / ".perfbench-run").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench-run") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(WORKLOADS[0], 0, cwd=tmp)
        assert proc.returncode != 0
        assert not proc.stdout.strip()


if __name__ == "__main__":
    for test in (test_end_to_end_metrics, test_per_layer_metrics_repeat, test_refuses_directory_without_program):
        test()
        print(f"ok {test.__name__}")
    sys.exit(0)
