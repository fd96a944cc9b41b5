"""tools/bench_export.py on a tiny synthetic pair of perfbench results files, and
tools/suite_timings.py on synthetic suite runs."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_export", ROOT / "tools" / "bench_export.py")
bench_export = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_export)
sys.path.insert(0, str(ROOT / "tools"))  # suite_timings imports bench_export as a sibling
import suite_timings  # noqa: E402

sys.path.pop(0)

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


def _suite_run(side, suite, pair, wall, outcome="9 passed"):
    return {"side": side, "workload": suite, "seed": pair, "trace": 0, "outcome": outcome,
            "metrics": {"wall_s": {"value": wall, "unit": "s"}}}


def test_suite_timings_merge_into_a_bench_file():
    # tier-1 pairs (parent, change): 10, 8; 11, 9; 12, 13; 9, 7.  criterion-2 has one pair.
    runs = [_suite_run(side, "tier-1", i, wall, f"{9 if side == 'parent' else 10} passed")
            for i, walls in enumerate(((10.0, 8.0), (11.0, 9.0), (12.0, 13.0), (9.0, 7.0)))
            for side, wall in zip(("parent", "change"), walls)]
    runs += [_suite_run("change", "criterion-2", 0, 3.0), _suite_run("parent", "criterion-2", 0, 4.0)]
    runs.append(_suite_run("parent", "tier-1", 7, 99.0))  # no partner on the change side
    exported = {"workloads": {"w": {}}, "generated_by": "tools/bench_export.py"}
    bench = suite_timings.merge(exported, runs, BENCHMARK["end_to_end"][0])
    assert bench["workloads"] == {"w": {}} and bench["generated_by"] == "tools/bench_export.py"
    assert sorted(bench["suites"]) == ["criterion-2", "tier-1"]
    tier1 = bench["suites"]["tier-1"]
    assert tier1["command"] == "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors"
    assert tier1["outcomes"] == {"parent": ["9 passed"], "change": ["10 passed"]}
    wall = tier1["wall_s"]
    assert wall["pairs"] == 4 and wall["change_wins"] == 3 and wall["bound"] == 0.25
    assert wall["parent"] == {"median": 10.5, "q1": pytest.approx(9.75), "q3": pytest.approx(11.25), "runs": 4}
    assert wall["change"]["median"] == 8.5
    assert wall["median_relative_change"] == pytest.approx(8.5 / 10.5 - 1.0)
    assert wall["within_bound"] and wall["median_gap_exceeds_parent_iqr"]
    crit2 = bench["suites"]["criterion-2"]
    assert crit2["command"].endswith("tests/test_acceptance.py::test_criterion_2_randomized_theorem")
    assert crit2["wall_s"]["pairs"] == 1 and crit2["wall_s"]["change_wins"] == 1


def test_suite_outcome_is_the_pytest_summary_without_its_time():
    assert suite_timings._outcome("....\n719 passed in 13.41s\n") == "719 passed"
    assert suite_timings._outcome("F.\n= 1 failed, 9 passed, 2 warnings in 1.02s (0:00:01) =\n") == (
        "1 failed, 9 passed, 2 warnings"
    )


def _write_spans(path, spans):
    import gzip

    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        fh.write("id,parent,name,start_ns,end_ns,context\n")
        for span in spans:
            fh.write(",".join(map(str, span)) + "\n")


def test_span_stats_subtract_the_direct_children(tmp_path):
    # a (0..100) holds b (10..40) and c (50..60); b holds a (15..25)
    spans = [(0, -1, "a", 0, 100, ""), (1, 0, "b", 10, 40, ""), (2, 1, "a", 15, 25, ""), (3, 0, "c", 50, 60, "")]
    path = tmp_path / "spans.csv.gz"
    _write_spans(path, spans)
    stats = bench_export.span_stats(path, ["a", "b", "z"])
    assert stats == {"a.calls": 2, "a.self_s": (100 - 40 + 10) / 1e9, "b.calls": 1, "b.self_s": 20 / 1e9,
                     "z.calls": 0, "z.self_s": 0.0}


def test_spans_are_the_median_over_the_traced_runs_of_each_side(tmp_path):
    sides = {}
    for side, commit, counts in (("parent", "p", (6, 7, 9)), ("change", "c", (2, 2, 3))):
        root = tmp_path / side
        runs = [_run("w", 1, 1.0, commit)]
        for seed, count in zip((3, 4, 5), counts):
            runs.append(_run("w", seed, 0.0, commit, trace=1, calls=count))
            spans = [(i, -1, "immersion.random_stack", 0, 10, "") for i in range(count)]
            # one taylor per random_stack, inside it, and one sectional_curvature at the top
            spans += [(count + i, i, "numeric.taylor", 2, 5, "") for i in range(count)]
            spans.append((2 * count, -1, "charts.sectional_curvature", 0, 4 * count, ""))
            _write_spans(root / f"w-seed{seed}" / "spans.csv.gz", spans)
        sides[side] = _write(root / "results.jsonl", runs)
    out = tmp_path / "BENCH.json"
    (tmp_path / "bench.json").write_text(json.dumps(BENCHMARK))
    bench_export.main([str(sides["parent"]), str(sides["change"]), "--out", str(out),
                       "--benchmark", str(tmp_path / "bench.json")])
    spans = json.loads(out.read_text())["workloads"]["w"]["spans"]
    assert spans["parent"]["immersion.random_stack.calls"] == 7
    assert spans["parent"]["immersion.random_stack.self_s"] == 7 * 7 / 1e9
    assert spans["change"]["immersion.random_stack.calls"] == 2
    assert spans["change"]["immersion.random_stack.self_s"] == 2 * 7 / 1e9
    assert spans["change"]["immersion.gauss_residual.calls"] == 0
    for side, count in (("parent", 7), ("change", 2)):
        assert spans[side]["numeric.taylor.calls"] == count
        assert spans[side]["numeric.taylor.self_s"] == count * 3 / 1e9
        assert spans[side]["charts.sectional_curvature.calls"] == 1
        assert spans[side]["charts.sectional_curvature.self_s"] == count * 4 / 1e9


def test_the_stacked_inequality_kernels_are_spans(tmp_path):
    kernels = ("general_inequality_stack", "kmu_space_form_inequality_stack",
               "non_sasakian_inequality_stack", "decompose_stack")
    assert {f"inequality.{k}" for k in kernels} <= set(bench_export.SPANS)
    # a non-Sasakian kernel (0..50) calls decompose_stack (10..30); the general kernel runs alone
    spans = [(0, -1, "inequality.non_sasakian_inequality_stack", 0, 50, "s.json"),
             (1, 0, "inequality.decompose_stack", 10, 30, "s.json"),
             (2, -1, "inequality.general_inequality_stack", 60, 70, "s.json")]
    path = tmp_path / "spans.csv.gz"
    _write_spans(path, spans)
    stats = bench_export.span_stats(path, bench_export.SPANS)
    assert stats["inequality.non_sasakian_inequality_stack.calls"] == 1
    assert stats["inequality.non_sasakian_inequality_stack.self_s"] == 30 / 1e9
    assert stats["inequality.decompose_stack.self_s"] == 20 / 1e9
    assert stats["inequality.general_inequality_stack.self_s"] == 10 / 1e9
    assert stats["inequality.kmu_space_form_inequality_stack.calls"] == 0


def _unit_run(workload, seed, units, commit, trace=0):
    run = _run(workload, seed, 1.0, commit, trace=trace, calls=1)
    run["unit_seconds"] = units
    return run


def test_the_units_block_names_the_slowest_unit_of_each_side():
    parent = [
        _unit_run("w", 1, {"a.json": [3.0, 1.0, 2.0], "b.json": [5.0, 4.0, 9.0]}, "p"),
        _unit_run("w", 2, {"a.json": [2.0, 2.0], "b.json": [6.0, 6.0]}, "p"),
        _unit_run("w", 3, {"a.json": [4.0], "b.json": [7.0]}, "p"),
        _unit_run("w", 1, {"a.json": [99.0], "b.json": [0.0]}, "p", trace=1),  # traced: not counted
        _unit_run("v", 1, {"c.json": [99.0]}, "p"),  # another workload
    ]
    change = [_unit_run("w", s, {"a.json": [3.0], "b.json": [2.0 + s]}, "c") for s in (1, 2, 3)]
    units = bench_export.export(parent, change, BENCHMARK)["workloads"]["w"]["units"]
    # parent: a.json has run medians 2, 2, 4 and b.json 5, 6, 7
    assert units["parent"] == {"seconds": {"a.json": 2.0, "b.json": 6.0}, "slowest": "b.json"}
    assert units["change"] == {"seconds": {"a.json": 3.0, "b.json": 4.0}, "slowest": "b.json"}


def test_runs_without_unit_seconds_leave_no_units_block():
    parent, change = [_run("w", 1, 1.0, "p")], [_run("w", 1, 1.0, "c")]
    assert "units" not in bench_export.export(parent, change, BENCHMARK)["workloads"]["w"]


def test_several_results_files_per_side_are_pooled_in_the_order_given(tmp_path):
    # two checkouts per side, each running seeds 1 and 2 once and tracing seed 3
    paths = {}
    for side, commit, walls in (("parent", "p", ((1.0, 1.1), (1.2, 1.3))), ("change", "c", ((0.5, 0.6), (0.7, 0.8)))):
        for copy, (first, second) in enumerate(walls):
            root = tmp_path / f"{side}{copy}"
            root.mkdir()
            runs = [_run("w", 1, first, commit), _run("w", 2, second, commit),
                    _run("w", 3, 0.0, commit, trace=1, calls=copy)]
            count = 2 + 2 * copy  # 2 random_stack spans in the first copy, 4 in the second
            _write_spans(root / "w-seed3" / "spans.csv.gz",
                         [(i, -1, "immersion.random_stack", 0, 10, "") for i in range(count)])
            paths.setdefault(side, []).append(str(_write(root / "results.jsonl", runs)))
    out = tmp_path / "BENCH.json"
    (tmp_path / "bench.json").write_text(json.dumps(BENCHMARK))
    bench_export.main([",".join(paths["parent"]), ",".join(paths["change"]), "--out", str(out),
                       "--benchmark", str(tmp_path / "bench.json")])
    block = json.loads(out.read_text())["workloads"]["w"]
    # pairs by (seed, then file order): 1: (1.0, 0.5), (1.2, 0.7); 2: (1.1, 0.6), (1.3, 0.8)
    assert block["seeds"] == [1, 1, 2, 2]
    wall = block["end_to_end"]["wall_s"]
    assert wall["pairs"] == 4 and wall["change_wins"] == 4
    assert wall["parent"]["median"] == pytest.approx(1.15) and wall["change"]["median"] == pytest.approx(0.65)
    assert block["per_layer"]["parent"] == {"contact.oracle.kij.calls": 0.5}
    # each traced run's spans are read beside its own results file: median of 2 and 4
    assert block["spans"]["parent"]["immersion.random_stack.calls"] == 3
    assert block["spans"]["change"]["immersion.random_stack.calls"] == 3
