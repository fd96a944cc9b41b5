"""warpcheck benchmark: three workloads, end to end and per module.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload theorem-sweep --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``theorem-sweep``: ``random_data`` then ``general_inequality`` per sample on
  the four ambients of acceptance criterion 2, ``n1, n2`` in {1, 2}.
* ``contact-scenes``: ``warpcheck verify --output json --out`` on the contact
  example scenes plus seed-generated contact scenes.
* ``chart-geometry``: the same verify call on finite-difference chart scenes:
  ``sphere-in-euclidean(n)`` for n = 2, 4, 6, 8, plane, cylinder,
  ``scenes/sphere.json``, the warped-chart catalog and an explicit warped
  product.

Load model: one process, one caller in a closed loop.  BLAS threads are capped
at the number of usable cores before numpy is imported.  The program receives
only the generated scene files, ambient parameters and a seeded Generator.

A run repeats a fixed round of work until ``--seconds`` have passed (at least
one round) and reports medians over rounds.  The host is a shared virtual
machine whose speed drifts by up to 2x, so while a run measures it samples
the host speed every 0.1 s with a fixed reference kernel
(``reference.py``) and scales each unit's time by the nominal over the
median kernel time within 0.5 s of the unit: times are seconds at a nominal
host speed.  Raw times are kept in the run's record.  With ``--trace 0`` it prints
the end-to-end metrics:

* ``wall_s``: median time of a round, program calls only;
* ``setup_s``: median over fresh interpreters of ``import warpcheck`` plus
  the workload's one-off set-up (the four ambients of theorem-sweep), each
  scaled by the reference kernel timed right after in the same interpreter;
* ``samples_per_s``: pointwise samples of a round, counted from the inputs,
  over ``wall_s``; chart-geometry counts one sample per check and chart point;
* ``scene_p50_s`` / ``scene_max_s``: median and slowest unit of a round, each
  unit's time a median over rounds; a unit is one scene verification, or one
  ambient block in theorem-sweep;
* ``peak_rss_mb``: peak resident set of the run's process;
* ``check_pass_ratio``: one minus FAIL or error records over records
  attempted (theorem-sweep: samples with a finite gap >= -1e-9 over samples).

With ``--trace 1`` it alternates untraced and traced rounds and prints the
per-layer metrics: call counts of the first traced round (which must repeat
in every traced round), self times as medians over traced rounds, and the
tracing overhead.

Every round checks the program's outputs: theorem-sweep has no gap below
-1e-9 and a finite minimum gap, the example scenes keep their verdicts, and
each scene's canonical JSON report has the same sha256 in every round.  Check
records that FAIL count as failed operations; they do not make the run
incorrect, so known defects stay visible in ``check_pass_ratio``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every run also appends a record
(metrics, failures, report digests, machine) to
``.perfbench-run/results.jsonl``; a traced run writes its first traced
round's spans next to it.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench-run"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_threads() -> dict[str, str]:
    """Cap BLAS threads at the usable core count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    caps = {}
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        cap = min(nproc, int(current)) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = caps[var] = str(cap)
    return caps


THREAD_CAPS = _cap_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from reference import NOMINAL_S, SpeedSampler  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("theorem-sweep", "contact-scenes", "chart-geometry")
SETUP_PROBES = 7
SPEED_WINDOW_S = 0.5
SPHERE_DIMS = (2, 4, 6, 8)

# per-layer metrics: .calls and .self_s of each span
LAYER_SPANS = [
    "numeric.sym_eigen",
    "numeric.central_diff",
    "numeric.cross_diff",
    "numeric.gram_schmidt",
    "charts.ChartMetric.at",
    "charts.christoffel",
    "charts.riemann",
    "charts.laplacian",
    "warped.check_laplacian_ratio",
    "warped.check_connection_identity",
    "warped.mixed_sectional",
    "contact.make_ambient",
    "contact.oracle.kij",
    "contact.oracle.value",
    "contact.check_km_condition",
    "immersion.random_data",
    "immersion.mean_curvatures",
    "immersion.complete_normal_frame",
    "immersion.a_xi_identity",
    "immersion.is_C_totally_real",
    "immersion.second_fundamental_form",
    "inequality.general_inequality",
    "inequality.kmu_space_form_inequality",
    "inequality.non_sasakian_inequality",
    "inequality.decompose",
    "inequality.chart_inequality",
    "scenes.parse_scene",
    "scenes.run",
    "scenes.emit",
    "cli.main",
]
# per-dimension metrics: (span, statistic), taken within sphere-in-euclidean(N)
DIM_METRICS = [
    ("charts.christoffel", "total_s"),
    ("charts.riemann", "self_s"),
    ("immersion.second_fundamental_form", "total_s"),
    ("immersion.gauss_residual", "total_s"),
    ("charts.ChartMetric.at", "calls"),
    ("immersion.chart_map", "calls"),
]


class BenchmarkError(Exception):
    """The checkout cannot be benchmarked (missing sources or scenes)."""


def _load_program():
    src = ROOT / "src"
    if not (src / "warpcheck" / "__init__.py").is_file():
        raise BenchmarkError(f"no warpcheck sources under {src}")
    missing = [n for n in wl.EXAMPLE_CONTACT_SCENES + wl.EXAMPLE_CHART_SCENES if not (ROOT / "scenes" / n).is_file()]
    if missing:
        raise BenchmarkError(f"example scenes missing: {missing}")
    sys.path.insert(0, str(src))
    import warpcheck
    import warpcheck.cli  # noqa: F401

    if Path(warpcheck.__file__).resolve().parent != (src / "warpcheck").resolve():
        raise BenchmarkError(f"imported warpcheck from {warpcheck.__file__}, not from {src}")
    return warpcheck


# ---------------------------------------------------------------------------
# workload plans
# ---------------------------------------------------------------------------


class Plan:
    """Units of one round, the one-off set-up, and how to run a unit."""

    def __init__(self, wc, workload: str, seed: int, work_dir: Path):
        self.wc, self.workload, self.seed = wc, workload, seed
        self.reports = work_dir / "reports"
        if workload == "theorem-sweep":
            self.units = wl.sweep_units()
            return
        self.reports.mkdir(parents=True, exist_ok=True)
        if workload == "contact-scenes":
            generated = wl.contact_scenes(seed)
            examples = wl.EXAMPLE_CONTACT_SCENES
            count = wl.contact_samples
        else:
            generated = wl.chart_scenes(seed)
            examples = wl.EXAMPLE_CHART_SCENES
            count = lambda scene: wl.chart_samples(wc, scene)  # noqa: E731
        self.units = []
        for name in examples:
            path = ROOT / "scenes" / name
            self.units.append(
                wl.Unit(label=name, samples=count(json.loads(path.read_text())), scene_path=path, expect_all_pass=True)
            )
        paths = wl.write_scenes(work_dir / "scenes", generated)
        for (label, scene), path in zip(generated, paths):
            self.units.append(
                wl.Unit(label=label, samples=count(scene), scene_path=path, context=wl.dimension_context(scene))
            )

    def setup(self):
        return wl.sweep_setup(self.wc) if self.workload == "theorem-sweep" else None

    def run_unit(self, state, unit: wl.Unit) -> wl.UnitResult:
        if self.workload == "theorem-sweep":
            return wl.run_sweep_block(self.wc, state, unit, self.seed)
        return wl.verify_scene(self.wc, unit, self.reports / (unit.scene_path.stem + ".report.json"))


class Ledger:
    """Outcomes of every round: program times, host-speed scales, failures,
    digests and problems."""

    def __init__(self):
        self.sampler: SpeedSampler | None = None
        self.unit_seconds: dict[str, list[float]] = {}
        self.timings: list[tuple[int, str, float, float]] = []  # round, unit, start, seconds
        self.round_seconds: list[float] = []
        self.round_bytes: list[int] = []
        self.attempted = 0
        self.failures: Counter = Counter()
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.min_gap = float("inf")

    def run_round(self, plan: Plan, state, tracer: Tracer | None = None) -> float:
        """Run every unit once; return the round's program time."""
        total = 0.0
        emitted = 0
        for unit in plan.units:
            if tracer is not None:
                tracer.context = unit.context
            res = plan.run_unit(state, unit)
            seconds = res.seconds
            if self.sampler is not None:
                seconds -= self.sampler.busy(res.start, res.start + res.seconds)
            total += seconds
            emitted += res.emitted_bytes
            self.unit_seconds.setdefault(unit.label, []).append(seconds)
            self.timings.append((len(self.round_seconds), unit.label, res.start, seconds))
            self.attempted += res.attempted
            self.failures.update(res.failed_labels)
            self.problems.extend(res.problems)
            if res.min_gap is not None:
                self.min_gap = min(self.min_gap, res.min_gap)
            if res.digest is not None:
                first = self.digests.setdefault(unit.label, res.digest)
                if first != res.digest:
                    self.problems.append(f"{unit.label}: report digest changed between rounds")
        if tracer is not None:
            tracer.context = ""
        self.round_seconds.append(total)
        self.round_bytes.append(emitted)
        return total

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _setup_seconds(workload: str) -> float:
    """Median set-up time over fresh interpreters, each scaled by the
    reference kernel timed in the same interpreter."""
    values = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        values.append(probe["setup_s"] * NOMINAL_S / probe["reference_s"])
    return statistics.median(values)


def end_to_end(plan: Plan, ledger: Ledger) -> dict:
    """End-to-end metrics.  Each unit's time is scaled to the nominal host
    speed by the speed samples taken within SPEED_WINDOW_S of the unit."""
    rounds: dict[int, float] = {}
    units: dict[str, list[float]] = {}
    for rnd, label, start, seconds in ledger.timings:
        scaled = seconds * ledger.sampler.scale(start - SPEED_WINDOW_S, start + seconds + SPEED_WINDOW_S)
        rounds[rnd] = rounds.get(rnd, 0.0) + scaled
        units.setdefault(label, []).append(scaled)
    wall = statistics.median(rounds.values())
    per_unit = [statistics.median(v) for v in units.values()]
    samples = sum(u.samples for u in plan.units)
    return {
        "wall_s": (wall, "s"),
        "setup_s": (_setup_seconds(plan.workload), "s"),
        "samples_per_s": (samples / wall, "1/s"),
        "scene_p50_s": (statistics.median(per_unit), "s"),
        "scene_max_s": (max(per_unit), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "check_pass_ratio": (1.0 - ledger.failed / ledger.attempted, "ratio"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracers: list[Tracer], traced_s: list[float], untraced_s: list[float], emitted: int) -> dict:
    first = tracers[0]
    out = {}
    for span in LAYER_SPANS:
        out[f"{span}.calls"] = (first.calls(span), "count")
        out[f"{span}.self_s"] = (statistics.median(t.self_s(span) for t in tracers), "s")
    out["immersion.chart_map.calls"] = (first.calls("immersion.chart_map"), "count")
    out["charts.ChartMetric.at.per_riemann"] = (
        _ratio(first.calls("charts.ChartMetric.at"), first.calls("charts.riemann")),
        "ratio",
    )
    out["immersion.mean_curvatures.per_inequality"] = (
        _ratio(first.calls("immersion.mean_curvatures"), first.calls("inequality.general_inequality")),
        "ratio",
    )
    for n in SPHERE_DIMS:
        for span, stat in DIM_METRICS:
            ctx = f"n{n}"
            if stat == "calls":
                out[f"{span}.calls.{ctx}"] = (first.calls(span, ctx), "count")
            else:
                fn = Tracer.total_s if stat == "total_s" else Tracer.self_s
                out[f"{span}.{stat}.{ctx}"] = (statistics.median(fn(t, span, ctx) for t in tracers), "s")
    out["scenes.emit.bytes"] = (emitted, "bytes")
    out["trace.overhead_ratio"] = (statistics.median(traced_s) / statistics.median(untraced_s), "ratio")
    return out


def machine(wc) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "thread_caps": THREAD_CAPS,
        "git_commit": commit,
        "warpcheck_version": wc.__version__,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        wc = _load_program()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    work_dir = OUT_DIR / f"{args.workload}-seed{args.seed}"
    plan = Plan(wc, args.workload, args.seed, work_dir)
    ledger = Ledger()
    state = plan.setup()
    plan.run_unit(state, min(plan.units, key=lambda u: u.samples))  # warm-up, not counted

    start = time.perf_counter()
    if not args.trace:
        with SpeedSampler() as ledger.sampler:
            while not ledger.round_seconds or time.perf_counter() - start < args.seconds:
                ledger.run_round(plan, state)
        metrics = end_to_end(plan, ledger)
    else:
        tracers, traced_s, untraced_s = [], [], []
        while not tracers or time.perf_counter() - start < args.seconds:
            untraced_s.append(ledger.run_round(plan, state))
            tracer = Tracer()
            tracer.install(wc)
            try:
                traced_s.append(ledger.run_round(plan, plan.setup(), tracer))
            finally:
                tracer.uninstall()
            if tracers:
                if tracer.call_counts() != tracers[0].call_counts():
                    ledger.problems.append("traced call counts differ between rounds of one run")
                tracer.spans = []
            tracers.append(tracer)
        metrics = per_layer(tracers, traced_s, untraced_s, ledger.round_bytes[-1])
        tracers[0].write_spans(work_dir / "spans.csv.gz")

    correct = not ledger.problems
    failures = dict(sorted(ledger.failures.items()))
    reference = json.loads((BENCH_DIR / "reference_digests.json").read_text())
    changed = sorted(k for k, v in reference.items() if k in ledger.digests and ledger.digests[k] != v)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(ledger.round_seconds),
        "round_seconds": ledger.round_seconds,
        "unit_seconds": ledger.unit_seconds,
        "speed_samples": len(ledger.sampler.samples) if ledger.sampler else 0,
        "correct": correct,
        "problems": ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": failures,
        "min_gap": ledger.min_gap if args.workload == "theorem-sweep" else None,
        "report_digests": ledger.digests,
        "example_digests_changed": changed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "machine": machine(wc),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"# {args.workload} seed {args.seed}: {record['rounds']} rounds, trace {args.trace}")
    for problem in ledger.problems:
        print(f"# problem: {problem}")
    for label, count in failures.items():
        print(f"# FAIL x{count}: {label}")
    if changed:
        print(f"# example reports differ from perfbench/reference_digests.json: {changed}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
