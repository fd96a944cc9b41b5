"""Export paired perfbench runs of a parent and a change commit as BENCH_<n>.json.

perfbench (``python3 perfbench/run.py``) appends one record per run to
``.perfbench-run/results.jsonl`` of the checkout it runs in.  Given the
results files of the parent side and those of the change side, this script
pairs the untraced runs by (workload, seed) and writes, per workload and
end-to-end metric of BENCHMARK.json:

* the median and quartiles of each side;
* the number of pairs in which the change is better (ties count for
  neither side);
* whether the change's median is worse than the parent's by more than the
  metric's bound, and whether the medians differ by more than the parent's
  interquartile range.

Traced runs (``--trace 1``) contribute the median of each per-layer metric
per side.  The ``units`` block gives, per workload and side, each unit's
raw seconds (its median over the rounds of a run, then the median over the
untraced runs) and the label of the slowest unit, so a move of
``scene_max_s`` can be tied to the scene that made it.  The file also
records the machine (Python, numpy, BLAS, core count), both commits and
both ``src/`` line counts, as perfbench measured them.  Usage:

    python3 tools/bench_export.py PARENT_RESULTS CHANGE_RESULTS --out BENCH_6.json \\
        [--parent-commit SHA] [--change-commit SHA]

A side measured from several checkouts names each results file, joined by
commas (``a/results.jsonl,b/results.jsonl``); the files are pooled in the
order given, so the n-th run of a (workload, seed) on one side pairs with
the n-th on the other.  The commits default to the ones perfbench recorded;
a checkout made with ``git archive`` has none, so pass them explicitly
there.

For the spans in ``SPANS`` (perfbench traces them but does not report
them) the file also gives, per workload and side, the calls and self time,
the median over the traced runs.  They are read from the ``spans.csv.gz``
that a traced run writes beside the results file, which holds the run's
first traced round; a workload whose traced runs left no such file has no
``spans`` block.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MACHINE_KEYS = ("python", "numpy", "blas", "nproc", "platform", "thread_caps")
SPANS = (
    "immersion.random_stack",
    "immersion.gauss_residual",
    "numeric.jet",
    "charts.sectional_curvature",
    "inequality.general_inequality_stack",
    "inequality.kmu_space_form_inequality_stack",
    "inequality.non_sasakian_inequality_stack",
    "inequality.decompose_stack",
)


def read_runs(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def _paths(value: str) -> list[Path]:
    """The results files of one side, named on the command line joined by commas."""
    return [Path(part) for part in value.split(",")]


def _spread(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def _pairs(parent: list[dict], change: list[dict]) -> dict[str, list[tuple[dict, dict]]]:
    """Untraced runs paired by (workload, seed), in file order within a key."""
    sides = []
    for runs in (parent, change):
        keyed = defaultdict(list)
        for run in runs:
            if not run.get("trace"):
                keyed[(run["workload"], run["seed"])].append(run)
        sides.append(keyed)
    out = defaultdict(list)
    for key in sorted(set(sides[0]) & set(sides[1])):
        out[key[0]].extend(zip(sides[0][key], sides[1][key]))
    return out


def _end_to_end(pairs: list[tuple[dict, dict]], spec: dict) -> dict:
    name, lower = spec["name"], spec["better"] == "lower"
    before = [p["metrics"][name]["value"] for p, _ in pairs]
    after = [c["metrics"][name]["value"] for _, c in pairs]
    wins = sum((a < b) if lower else (a > b) for b, a in zip(before, after))
    p, c = _spread(before), _spread(after)
    change = (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
    worse = change if lower else -change
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": p,
        "change": c,
        "pairs": len(pairs),
        "change_wins": wins,
        "median_relative_change": change,
        "within_bound": worse <= spec["bound"],
        "median_gap_exceeds_parent_iqr": abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
    }


def _per_layer(runs: list[dict], workload: str) -> dict:
    traced = [r for r in runs if r.get("trace") and r["workload"] == workload]
    names = sorted({k for r in traced for k in r["metrics"]})
    return {
        name: statistics.median(r["metrics"][name]["value"] for r in traced if name in r["metrics"])
        for name in names
    }


def _units(runs: list[dict], workload: str) -> dict:
    """Each unit's raw seconds, the median over the untraced runs of the
    median over each run's rounds, and the slowest unit; {} without any."""
    per_run = defaultdict(list)
    for run in runs:
        if not run.get("trace") and run["workload"] == workload:
            for label, seconds in run.get("unit_seconds", {}).items():
                per_run[label].append(statistics.median(seconds))
    seconds = {label: statistics.median(values) for label, values in per_run.items()}
    return {"seconds": seconds, "slowest": max(seconds, key=seconds.get)} if seconds else {}


def span_stats(path: Path, names) -> dict:
    """Calls and self seconds of each named span in one spans.csv.gz; a span's
    self time is its duration minus that of its direct children."""
    with gzip.open(path, "rt") as fh:
        rows = list(csv.DictReader(fh))
    duration = {row["id"]: int(row["end_ns"]) - int(row["start_ns"]) for row in rows}
    children = defaultdict(int)
    for row in rows:
        children[row["parent"]] += duration[row["id"]]
    out = {}
    for name in names:
        ids = [row["id"] for row in rows if row["name"] == name]
        out[f"{name}.calls"] = len(ids)
        out[f"{name}.self_s"] = sum(duration[i] - children[i] for i in ids) / 1e9
    return out


def _spans(side: list[tuple[Path, list[dict]]], workload: str) -> dict:
    """The median of span_stats over the traced runs of `workload`, each
    read beside the results file that holds its run."""
    stats = [
        span_stats(path, SPANS)
        for results, runs in side
        for run in runs
        if run.get("trace") and run["workload"] == workload
        and (path := results.parent / f"{workload}-seed{run['seed']}" / "spans.csv.gz").exists()
    ]
    return {key: statistics.median(s[key] for s in stats) for key in (stats[0] if stats else {})}


def _side(runs: list[dict], commit: str | None) -> dict:
    machine = runs[-1]["machine"]
    return {"commit": commit or machine.get("git_commit"), "src_lines": machine.get("src_lines")}


def export(parent: list[dict], change: list[dict], benchmark: dict, commits=(None, None)) -> dict:
    if not parent or not change:
        raise ValueError("both results files need at least one run")
    workloads = {}
    for workload, pairs in sorted(_pairs(parent, change).items()):
        workloads[workload] = {
            "seeds": [p["seed"] for p, _ in pairs],
            "seconds": pairs[0][1]["seconds"],
            "end_to_end": {m["name"]: _end_to_end(pairs, m) for m in benchmark["end_to_end"]},
            "per_layer": {"parent": _per_layer(parent, workload), "change": _per_layer(change, workload)},
        }
        units = {"parent": _units(parent, workload), "change": _units(change, workload)}
        if all(units.values()):
            workloads[workload]["units"] = units
    machine = change[-1]["machine"]
    return {
        "generated_by": "tools/bench_export.py",
        "benchmark": " ".join(benchmark["command"]),
        "parent": _side(parent, commits[0]),
        "change": _side(change, commits[1]),
        "machine": {k: machine[k] for k in MACHINE_KEYS if k in machine},
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=_paths, help="results.jsonl of the parent checkouts, joined by commas")
    parser.add_argument("change", type=_paths, help="results.jsonl of the change checkouts, joined by commas")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--parent-commit")
    parser.add_argument("--change-commit")
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    sides = [[(path, read_runs(path)) for path in paths] for paths in (args.parent, args.change)]
    runs = [[run for _, file_runs in side for run in file_runs] for side in sides]
    bench = export(*runs, json.loads(args.benchmark.read_text()), (args.parent_commit, args.change_commit))
    for workload, block in bench["workloads"].items():
        spans = {name: _spans(side, workload) for name, side in zip(("parent", "change"), sides)}
        if all(spans.values()):
            block["spans"] = spans
    args.out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    for workload, block in bench["workloads"].items():
        for name, m in block["end_to_end"].items():
            print(
                f"{workload:15s} {name:17s} parent {m['parent']['median']:.4g} "
                f"change {m['change']['median']:.4g} wins {m['change_wins']}/{m['pairs']}"
                f"{'' if m['within_bound'] else '  OUTSIDE BOUND'}"
            )
        for side, units in block.get("units", {}).items():
            slowest = units["slowest"]
            print(f"{workload:15s} slowest unit {side} {slowest} {units['seconds'][slowest]:.4g} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
