"""tools/report_digests.py on the example scenes: one line per scene, the
same on every run."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCENES = sorted(p.name for p in (ROOT / "scenes").glob("*.json"))


def _digests() -> list[str]:
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_digests.py"), "--seeds"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return out.stdout.splitlines()


def test_example_scene_digests_are_deterministic():
    first = _digests()
    assert [line.split("  ", 1)[1] for line in first] == [f"scenes/{name}" for name in SCENES]
    assert all(len(line.split("  ", 1)[0]) == 64 for line in first)
    assert _digests() == first


def test_criterion_2_digest_is_deterministic():
    spec = importlib.util.spec_from_file_location("report_digests", ROOT / "tools" / "report_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    first = tool.criterion_2_digest(samples=25)
    assert len(first.split("  ", 1)[0]) == 64
    assert "4x25 samples" in first
    assert tool.criterion_2_digest(samples=25) == first
    assert tool.criterion_2_digest(samples=26) != first
