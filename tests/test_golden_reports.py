"""Canonical reports of the example scenes against committed golden copies.

Verdicts and every non-float field must match exactly; floats may differ by
round-off only (1e-12 absolute or 1e-9 relative), so the check does not
depend on the platform's BLAS summation order.  A change that alters a
report on purpose regenerates its golden copy with
``warpcheck verify scenes/<name> --output json --out tests/golden/<name>``.
"""

import json
from pathlib import Path

import pytest

from warpcheck.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SCENES = sorted(p.name for p in (ROOT / "scenes").glob("*.json"))
ABS_TOL = 1e-12
REL_TOL = 1e-9


def _mismatches(got, want, path="$"):
    if type(got) is not type(want):
        return [f"{path}: type {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        pairs = enumerate(zip(got, want))
        return [m for i, (g, w) in pairs for m in _mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float):
        diff = abs(got - want)
        if diff <= ABS_TOL or diff <= REL_TOL * abs(want):
            return []
        return [f"{path}: {got!r} != {want!r} (abs {diff:.3e})"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def test_every_example_scene_has_a_golden_report():
    assert SCENES
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == SCENES


@pytest.mark.parametrize("name", SCENES)
def test_example_scene_matches_its_golden_report(name, tmp_path):
    out = tmp_path / name
    rc = cli_main(["verify", str(ROOT / "scenes" / name), "--output", "json", "--out", str(out)])
    assert rc == 0
    got = json.loads(out.read_text())
    want = json.loads((GOLDEN / name).read_text())
    assert _mismatches(got, want) == []


def test_the_comparison_rejects_a_verdict_flip_and_a_real_change():
    def report(passed=True, gap=1.0, samples=100):
        return {"records": [{"pass": passed, "gap": gap, "samples": samples}]}

    want = report()
    assert _mismatches(report(), want) == []
    assert _mismatches(report(gap=1.0 + 1e-10), want) == []
    assert _mismatches(report(passed=False), want)
    assert _mismatches(report(gap=1.001), want)
    assert _mismatches(report(samples=101), want)
    assert _mismatches(report(gap=1), want)
