"""Time the tier-1 suite and the criterion-2 test in a parent and a change
checkout, and merge the timings into a BENCH_<n>.json.

Each pair runs one suite once in each checkout, alternating which side goes
first from pair to pair; the wall time of a run is that of the whole pytest
process (interpreter start, collection and the tests).  The suites:

* ``tier-1``: the tier-1 command of ROADMAP.md,
  ``PYTHONPATH=src python -m pytest -q --continue-on-collection-errors``;
* ``criterion-2``: the same command on
  ``tests/test_acceptance.py::test_criterion_2_randomized_theorem``.

Every run is written, as a perfbench-style record, to ``--runs``; the
BENCH file gains a ``suites`` block with, per suite, the command, each side's
pytest outcome lines and the ``wall_s`` entry of ``bench_export`` (median and
quartiles per side, change wins, the bound check of BENCHMARK.json's
``wall_s`` and whether the medians differ by more than the parent's IQR).
Usage:

    python3 tools/suite_timings.py PARENT_DIR CHANGE_DIR --pairs 10 --into BENCH_12.json
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

from bench_export import ROOT, _end_to_end, _pairs

TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
SUITES = {
    "tier-1": TIER1,
    "criterion-2": TIER1 + ["tests/test_acceptance.py::test_criterion_2_randomized_theorem"],
}


def _outcome(stdout: str) -> str:
    """pytest's summary line without its time: '675 passed', '1 failed, 9 passed'."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    last = lines[-1].strip("= ") if lines else ""
    return re.sub(r" in [0-9.]+s.*$", "", last)


def time_suite(checkout: Path, suite: str) -> tuple[float, str]:
    """Wall time of one run of `suite` in `checkout`, and its outcome line."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    start = time.perf_counter()
    done = subprocess.run(SUITES[suite], cwd=checkout, env=env, capture_output=True, text=True)
    return time.perf_counter() - start, _outcome(done.stdout)


def run_pairs(parent: Path, change: Path, pairs: int) -> list[dict]:
    """`pairs` alternating runs of every suite on both sides, as records."""
    runs = []
    for i in range(pairs):
        for suite in SUITES:
            order = (("parent", parent), ("change", change))
            for side, checkout in order if i % 2 == 0 else order[::-1]:
                seconds, outcome = time_suite(checkout, suite)
                runs.append({
                    "side": side, "workload": suite, "seed": i, "trace": 0, "outcome": outcome,
                    "metrics": {"wall_s": {"value": seconds, "unit": "s"}},
                })
                print(f"pair {i} {suite:11s} {side:6s} {seconds:7.2f} s  {outcome}", flush=True)
    return runs


def merge(bench: dict, runs: list[dict], wall_spec: dict) -> dict:
    """`bench` with a `suites` block built from the records `runs`."""
    sides = {side: [r for r in runs if r["side"] == side] for side in ("parent", "change")}
    suites = {}
    for suite, pairs in sorted(_pairs(sides["parent"], sides["change"]).items()):
        suites[suite] = {
            "command": " ".join(["PYTHONPATH=src", "python"] + SUITES[suite][1:]),
            "outcomes": {
                "parent": sorted({p["outcome"] for p, _ in pairs}),
                "change": sorted({c["outcome"] for _, c in pairs}),
            },
            "wall_s": _end_to_end(pairs, wall_spec),
        }
    return dict(bench, suites=suites)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--into", type=Path, required=True, help="BENCH_<n>.json to extend")
    parser.add_argument("--runs", type=Path, default=ROOT / ".bench_build" / "suite_runs.jsonl")
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    runs = run_pairs(args.parent.resolve(), args.change.resolve(), args.pairs)
    args.runs.parent.mkdir(parents=True, exist_ok=True)
    args.runs.write_text("".join(json.dumps(r) + "\n" for r in runs))
    wall = next(m for m in json.loads(args.benchmark.read_text())["end_to_end"] if m["name"] == "wall_s")
    bench = merge(json.loads(args.into.read_text()), runs, wall)
    args.into.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    for suite, block in bench["suites"].items():
        m = block["wall_s"]
        print(
            f"{suite:11s} wall_s parent {m['parent']['median']:.3f} change {m['change']['median']:.3f} "
            f"wins {m['change_wins']}/{m['pairs']}  {block['outcomes']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
