"""tools/bench_export.py on a tiny synthetic pair of perfbench results files."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_export", ROOT / "tools" / "bench_export.py")
bench_export = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_export)

BENCHMARK = {
    "command": ["python3", "perfbench/run.py"],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "check_pass_ratio", "unit": "ratio", "better": "higher", "bound": 0.001},
    ],
}


def _run(workload, seed, wall, commit, trace=0, calls=None):
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "check_pass_ratio": {"value": 1.0, "unit": "ratio"}}
    if trace:
        metrics = {"contact.oracle.kij.calls": {"value": calls, "unit": "count"}}
    machine = {"python": "3.11.7", "numpy": "2.4.6", "blas": "openblas 0.3", "nproc": 2,
               "git_commit": commit, "src_lines": 100 if commit == "p" else 90}
    return {"workload": workload, "seed": seed, "seconds": 30.0, "trace": trace,
            "metrics": metrics, "machine": machine}


def _write(path, runs):
    path.write_text("".join(json.dumps(r) + "\n" for r in runs))
    return path


def test_pairs_by_workload_and_seed(tmp_path):
    parent = [_run("w", s, wall, "p") for s, wall in zip(range(1, 5), (1.0, 1.2, 1.1, 0.9))]
    parent.append(_run("w", 9, 5.0, "p"))  # no partner on the change side
    parent.append(_run("w", 1, 0.0, "p", trace=1, calls=40))
    change = [_run("w", s, wall, "c") for s, wall in zip((4, 3, 2, 1), (0.5, 0.6, 1.3, 0.4))]
    change.append(_run("w", 1, 0.0, "c", trace=1, calls=4))
    out = tmp_path / "BENCH.json"
    (tmp_path / "bench.json").write_text(json.dumps(BENCHMARK))
    bench_export.main([
        str(_write(tmp_path / "parent.jsonl", parent)), str(_write(tmp_path / "change.jsonl", change)),
        "--out", str(out), "--benchmark", str(tmp_path / "bench.json"), "--parent-commit", "abc",
    ])
    bench = json.loads(out.read_text())
    assert bench["parent"] == {"commit": "abc", "src_lines": 100}
    assert bench["change"] == {"commit": "c", "src_lines": 90}
    assert bench["machine"] == {"python": "3.11.7", "numpy": "2.4.6", "blas": "openblas 0.3", "nproc": 2}
    block = bench["workloads"]["w"]
    assert block["seeds"] == [1, 2, 3, 4]
    wall = block["end_to_end"]["wall_s"]
    # pairs (seed: parent, change): 1: 1.0, 0.4; 2: 1.2, 1.3; 3: 1.1, 0.6; 4: 0.9, 0.5
    assert wall["pairs"] == 4 and wall["change_wins"] == 3
    assert wall["parent"] == {"median": 1.05, "q1": pytest.approx(0.975), "q3": pytest.approx(1.125), "runs": 4}
    assert wall["change"]["median"] == pytest.approx(0.55)
    assert wall["median_relative_change"] == pytest.approx(0.55 / 1.05 - 1.0)
    assert wall["within_bound"] and wall["median_gap_exceeds_parent_iqr"]
    ratio = block["end_to_end"]["check_pass_ratio"]
    assert ratio["change_wins"] == 0 and ratio["within_bound"]
    assert block["per_layer"] == {
        "parent": {"contact.oracle.kij.calls": 40},
        "change": {"contact.oracle.kij.calls": 4},
    }


def test_a_worse_change_is_flagged_outside_its_bound():
    parent = [_run("w", s, 1.0, "p") for s in range(3)]
    change = [_run("w", s, 1.3, "c") for s in range(3)]
    wall = bench_export.export(parent, change, BENCHMARK)["workloads"]["w"]["end_to_end"]["wall_s"]
    assert not wall["within_bound"]
    assert wall["change_wins"] == 0


def test_empty_side_is_refused():
    with pytest.raises(ValueError):
        bench_export.export([], [_run("w", 1, 1.0, "c")], BENCHMARK)
