"""The three benchmark workloads: their inputs, one round of work, and the
checks on the program's outputs.

A round is a fixed amount of work that depends only on the seed, so every
round of a run repeats the same calls and its timings can be compared. A
round is made of units: an ambient block in ``theorem-sweep`` and one scene
verification in the two scene workloads. The scene-percentile metrics are
taken over units.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Ambients of acceptance criterion 2 (tests/test_acceptance.py).
SWEEP_AMBIENTS = [
    ("euclidean", {"m": 7}),
    ("kmu-space-form", {"m": 3, "kappa": 0.5, "mu": -1.0, "c": 1.7}),
    ("sasakian-space-form", {"m": 3, "c": -2.0}),
    ("non-sasakian-kmu", {"m": 3, "kappa": 0.2, "mu": 0.8}),
]
SWEEP_SAMPLES_PER_AMBIENT = 1000
GAP_FLOOR = -1e-9

EXAMPLE_CONTACT_SCENES = [
    "non_sasakian_random.json",
    "tangent_sphere_bundle.json",
    "sasakian_obstruction.json",
]
EXAMPLE_CHART_SCENES = ["sphere.json"]

# Samples a sampled check draws, as a function of the scene's "samples" S and
# whether the source is one fixed point.  These are the library's sampling
# rules; the benchmark counts samples from its inputs with them.
_PER_SCENE_SAMPLES: dict[str, Callable[[int, bool], int]] = {
    "general_inequality": lambda s, fixed: 1 if fixed else s,
    "kmu_space_form_inequality": lambda s, fixed: 1 if fixed else s,
    "non_sasakian_inequality": lambda s, fixed: 1 if fixed else s,
    "decompose": lambda s, fixed: 1 if fixed else s,
    "equality_case": lambda s, fixed: s,
    "chen_lemma": lambda s, fixed: s,
    "km_condition": lambda s, fixed: min(s, 50),
    "phi_sectional": lambda s, fixed: min(s, 100),
    "oracle_symmetries": lambda s, fixed: min(s, 200),
}

CHART_CHECKS = [
    "general_inequality",
    "gauss_residual",
    "laplacian_ratio",
    "connection_identity",
    "mixed_sectional",
]
WARPED_CHECKS = ["laplacian_ratio", "connection_identity", "mixed_sectional"]
_PER_POINT_CHECKS = {"laplacian_ratio", "connection_identity", "mixed_sectional", "trivial"}


@dataclass
class Unit:
    """One timed call: a scene verification or an ambient block."""

    label: str
    samples: int
    context: str = ""
    scene_path: Path | None = None
    expect_all_pass: bool = False
    ambient_index: int = -1


@dataclass
class UnitResult:
    start: float  # time.perf_counter() when the timed call began
    seconds: float
    attempted: int
    failed_labels: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    digest: str | None = None
    min_gap: float | None = None
    emitted_bytes: int = 0


# ---------------------------------------------------------------------------
# theorem-sweep
# ---------------------------------------------------------------------------


def sweep_setup(wc) -> list:
    """Program-side set-up of theorem-sweep: the four ambient models."""
    return [wc.make_ambient(kind, **params) for kind, params in SWEEP_AMBIENTS]


def sweep_units() -> list[Unit]:
    return [
        Unit(label=kind, samples=SWEEP_SAMPLES_PER_AMBIENT, ambient_index=i)
        for i, (kind, _) in enumerate(SWEEP_AMBIENTS)
    ]


def run_sweep_block(wc, ambients: list, unit: Unit, seed: int) -> UnitResult:
    """random_data then general_inequality per sample, n1, n2 in {1, 2}."""
    amb = ambients[unit.ambient_index]
    rng = np.random.default_rng([seed, unit.ambient_index])
    random_data, general_inequality = wc.immersion.random_data, wc.general_inequality
    gaps = []
    start = time.perf_counter()
    for _ in range(unit.samples):
        n1 = int(rng.integers(1, 3))
        n2 = int(rng.integers(1, 3))
        gaps.append(general_inequality(random_data(rng, amb, n1, n2)).gap)
    seconds = time.perf_counter() - start
    bad = [g for g in gaps if not (math.isfinite(g) and g >= GAP_FLOOR)]
    res = UnitResult(start=start, seconds=seconds, attempted=len(gaps), min_gap=float(min(gaps)))
    res.failed_labels = [f"{unit.label}: gap {g!r}" for g in bad]
    if bad:
        res.problems.append(f"{unit.label}: {len(bad)} samples violate gap >= {GAP_FLOOR}")
    if not math.isfinite(res.min_gap):
        res.problems.append(f"{unit.label}: min_gap is not finite")
    return res


# ---------------------------------------------------------------------------
# scene workloads
# ---------------------------------------------------------------------------


def _uniform(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def contact_scenes(seed: int) -> list[tuple[str, dict]]:
    """Seed-generated contact scenes.

    Structure (ambient kind, m, n1, n2, checks, samples) is fixed so that the
    work of a round does not depend on the seed; the seed draws the ambient
    parameters, the explicit frame and sigma, and each scene's own seed.
    phi_sectional is only requested where the phi-sectional curvature is
    constant: the space forms and non-Sasakian ambients with mu = kappa + 1.
    """
    rng = np.random.default_rng([seed, 101])
    kappa_ns = _uniform(rng, -0.6, 0.8)
    ambients = {
        "sasakian-space-form": (
            {"kind": "sasakian-space-form", "m": 3, "c": _uniform(rng, -4.0, 3.0)},
            "kmu_space_form_inequality",
            True,
        ),
        "kmu-space-form": (
            {
                "kind": "kmu-space-form",
                "m": 3,
                "kappa": _uniform(rng, -0.5, 0.9),
                "mu": _uniform(rng, -2.0, 2.0),
                "c": _uniform(rng, -3.0, 3.0),
            },
            "kmu_space_form_inequality",
            True,
        ),
        "non-sasakian-kmu": (
            {"kind": "non-sasakian-kmu", "m": 3, "kappa": kappa_ns, "mu": kappa_ns + 1.0},
            "non_sasakian_inequality",
            True,
        ),
        "tangent-sphere-bundle": (
            {"kind": "tangent-sphere-bundle", "m": 3, "c": _uniform(rng, 0.2, 0.8)},
            "non_sasakian_inequality",
            False,
        ),
    }
    scenes = []
    for kind, (ambient, specialized, phi_constant) in ambients.items():
        ctr_checks = [
            specialized,
            "general_inequality",
            "c_totally_real",
            "a_xi_identity",
            "decompose",
            "km_condition",
            "oracle_symmetries",
        ] + (["phi_sectional"] if phi_constant else [])
        generated = [
            ("c-totally-real", {"n1": 1, "n2": 2}, ctr_checks, 20),
            ("equality", {"n1": 1, "n2": 1}, ["equality_case", "general_inequality", "decompose"], 20),
            (
                "minimal",
                {"n1": 1, "n2": 1},
                [{"name": "obstruction", "harmonic": True, "minimal": True}, "chen_lemma"],
                20,
            ),
        ]
        for generator, dims, checks, samples in generated:
            scenes.append(
                (
                    f"{kind}/{generator}",
                    {
                        "ambient": ambient,
                        "source": {"kind": "synthetic", "generator": generator, **dims},
                        "checks": checks,
                        "samples": samples,
                        "seed": int(rng.integers(0, 2**31)),
                    },
                )
            )

    # explicit source: a generic orthonormal 2-frame and a symmetric sigma in
    # a 5-dimensional (kappa, mu) space form; the normal frame is completed by
    # the program.
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    raw = rng.normal(size=(3, 2, 2))
    sigma = 0.5 * (raw + raw.transpose(0, 2, 1))
    scenes.append(
        (
            "explicit",
            {
                "ambient": {
                    "kind": "kmu-space-form",
                    "m": 2,
                    "kappa": _uniform(rng, -0.5, 0.9),
                    "mu": _uniform(rng, -2.0, 2.0),
                    "c": _uniform(rng, -3.0, 3.0),
                },
                "source": {
                    "kind": "explicit",
                    "n1": 1,
                    "n2": 1,
                    "tangent": q[:, :2].tolist(),
                    "sigma": sigma.tolist(),
                },
                "checks": ["general_inequality", "decompose", "gauss_residual"],
                "seed": int(rng.integers(0, 2**31)),
            },
        )
    )
    scenes.append(
        (
            "dplus-leaf",
            {
                "ambient": {
                    "kind": "non-sasakian-kmu",
                    "m": 3,
                    "kappa": _uniform(rng, -0.6, 0.8),
                    "mu": _uniform(rng, -2.0, 2.0),
                },
                "source": {"kind": "chart-immersion", "key": "dplus-leaf", "params": {"n1": 1, "n2": 1}},
                "checks": [
                    "general_inequality",
                    "non_sasakian_inequality",
                    "c_totally_real",
                    "a_xi_identity",
                    "decompose",
                    "km_condition",
                ],
                "samples": 20,
                "seed": int(rng.integers(0, 2**31)),
            },
        )
    )
    scenes.append(
        (
            "real-space-form/random",
            {
                "ambient": {"kind": "real-space-form", "m": 6, "c": _uniform(rng, -2.0, 2.0)},
                "source": {"kind": "synthetic", "generator": "random", "n1": 2, "n2": 2},
                "checks": [
                    "general_inequality",
                    "decompose",
                    "gauss_residual",
                    "equality_case",
                    "oracle_symmetries",
                ],
                "samples": 20,
                "seed": int(rng.integers(0, 2**31)),
            },
        )
    )
    return scenes


def chart_scenes(seed: int) -> list[tuple[str, dict]]:
    """Seed-generated chart scenes: the structure is fixed, the seed sets each
    scene's own seed and the explicit warped product's warping and points."""
    rng = np.random.default_rng([seed, 202])
    scenes = []
    for n in (2, 4, 6, 8):
        scenes.append(
            (
                f"sphere-in-euclidean({n})",
                {
                    "ambient": {"kind": "euclidean", "m": n + 1},
                    "source": {"kind": "chart-immersion", "key": "sphere-in-euclidean", "params": {"n": n}},
                    "checks": CHART_CHECKS,
                    "seed": int(rng.integers(0, 2**31)),
                },
            )
        )
    for key in ("plane", "cylinder"):
        scenes.append(
            (
                key,
                {
                    "ambient": {"kind": "euclidean", "m": 3},
                    "source": {"kind": "chart-immersion", "key": key},
                    "checks": CHART_CHECKS,
                    "seed": int(rng.integers(0, 2**31)),
                },
            )
        )
    for key, params, trivial in (
        ("sphere", {"n2": 3}, False),
        ("hyperbolic", {"n2": 2}, False),
        ("cone", {}, False),
        ("flat-product", {}, True),
    ):
        scenes.append(
            (
                f"warped-chart/{key}",
                {
                    "ambient": {"kind": "euclidean", "m": 5},
                    "source": {"kind": "warped-chart", "key": key, "params": params},
                    "checks": WARPED_CHECKS + [{"name": "trivial", "expect": trivial}],
                    "seed": int(rng.integers(0, 2**31)),
                },
            )
        )
    # polynomial warping 1 + a t + b t^2 with |a|, |b| <= 0.3 stays positive
    # on |t| <= 0.5
    coeffs = [1.0, _uniform(rng, -0.3, 0.3), _uniform(rng, -0.3, 0.3)]
    points = [
        [_uniform(rng, -0.5, 0.5), _uniform(rng, 0.5, 1.2), _uniform(rng, 0.0, 1.0)]
        for _ in range(3)
    ]
    scenes.append(
        (
            "explicit-warped",
            {
                "ambient": {"kind": "euclidean", "m": 4},
                "source": {
                    "kind": "explicit-warped",
                    "factor1": {"kind": "euclidean", "dim": 1},
                    "factor2": {"kind": "round-sphere", "dim": 2},
                    "warping": {"kind": "polynomial", "coeffs": coeffs},
                    "points": points,
                },
                "checks": WARPED_CHECKS + [{"name": "trivial", "expect": False}],
                "seed": int(rng.integers(0, 2**31)),
            },
        )
    )
    return scenes


def _check_names(scene: dict) -> list[str]:
    return [c if isinstance(c, str) else c["name"] for c in scene.get("checks", [])]


def contact_samples(scene: dict) -> int:
    """Pointwise samples a contact scene evaluates, counted from its input."""
    fixed = scene["source"]["kind"] in ("explicit", "chart-immersion")
    s = int(scene.get("samples", 100))
    return sum(_PER_SCENE_SAMPLES.get(name, lambda s, f: 1)(s, fixed) for name in _check_names(scene))


def chart_points(wc, scene: dict) -> int:
    """Chart points of a chart scene's warped structure."""
    src = scene["source"]
    if src["kind"] == "explicit-warped":
        return len(src["points"])
    if src["kind"] == "warped-chart":
        return len(wc.warped.named_chart(src["key"], **src.get("params", {})).sample_points)
    im = wc.immersion.chart_immersion_catalog()[src["key"]](**src.get("params", {}))
    return len(im.warped.sample_points)


def chart_samples(wc, scene: dict) -> int:
    """Chart evaluations of a chart scene: one per point-wise check and chart
    point, one for each single-point check."""
    points = chart_points(wc, scene)
    return sum(points if name in _PER_POINT_CHECKS else 1 for name in _check_names(scene))


_UNSAFE = re.compile(r"[^\w.-]+")


def dimension_context(scene: dict) -> str:
    """Trace context "nN" for a generated sphere-in-euclidean(N) scene."""
    src = scene["source"]
    return f"n{src['params']['n']}" if src.get("key") == "sphere-in-euclidean" else ""


def write_scenes(out_dir: Path, scenes: list[tuple[str, dict]]) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, (label, scene) in enumerate(scenes):
        path = out_dir / f"{i:02d}-{_UNSAFE.sub('-', label)}.json"
        path.write_text(json.dumps(scene, indent=1, sort_keys=True) + "\n")
        paths.append(path)
    return paths


def verify_scene(wc, unit: Unit, report_path: Path) -> UnitResult:
    """`warpcheck verify <scene> --output json --out <report>`, timed."""
    argv = ["verify", str(unit.scene_path), "--output", "json", "--out", str(report_path)]
    start = time.perf_counter()
    try:
        rc = wc.cli.main(argv)
    except Exception as exc:  # a crash is a wrong output, not a benchmark error
        seconds = time.perf_counter() - start
        return UnitResult(
            start=start,
            seconds=seconds,
            attempted=1,
            failed_labels=[f"{unit.label}: crashed"],
            problems=[f"{unit.label}: {type(exc).__name__}: {exc}"],
        )
    seconds = time.perf_counter() - start
    if rc not in (0, 1):  # invalid input: no report was written
        return UnitResult(
            start=start,
            seconds=seconds,
            attempted=1,
            failed_labels=[f"{unit.label}: exit code {rc}"],
            problems=[f"{unit.label}: verify exited with code {rc}"],
        )
    payload = report_path.read_bytes()
    res = UnitResult(start=start, seconds=seconds, attempted=0, emitted_bytes=len(payload))
    res.digest = hashlib.sha256(payload).hexdigest()
    records = json.loads(payload)["records"]
    res.attempted = len(records)
    for rec in records:
        if not rec.get("pass", False):
            res.failed_labels.append(f"{unit.label}: {rec['name']}")
    if (rc == 0) != (not res.failed_labels):
        res.problems.append(f"{unit.label}: exit code {rc} disagrees with the records")
    if unit.expect_all_pass and res.failed_labels:
        res.problems.append(f"{unit.label}: example scene lost its expected verdicts")
    return res
