"""Set-up time of one workload in a fresh interpreter.

Times ``import warpcheck`` (with the CLI module) plus what the workload builds
once before its first timed call, then the reference kernel right after, and
prints ``{"setup_s": ..., "reference_s": ...}``.  Run by ``run.py``; usage:
``python3 perfbench/setup_probe.py <workload>``.
"""

import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

start = time.perf_counter()
import warpcheck  # noqa: E402
import warpcheck.cli  # noqa: E402,F401

setup_s = time.perf_counter() - start

import reference  # noqa: E402
import workloads  # noqa: E402

if sys.argv[1] == "theorem-sweep":
    start = time.perf_counter()
    workloads.sweep_setup(warpcheck)
    setup_s += time.perf_counter() - start
kernel = statistics.median(reference.reference_seconds() for _ in range(15))
print(json.dumps({"setup_s": setup_s, "reference_s": kernel}))
