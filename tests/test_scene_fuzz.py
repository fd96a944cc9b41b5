"""Single-leaf mutations of the example scenes through the CLI.

Each case replaces one leaf of a scene (a number, string or boolean inside
its objects and lists) with NaN, +-inf, 1e300 or a value of the wrong type,
or deletes it.  Whatever the mutation, `warpcheck verify` exits 0, 1 or 2
with no traceback, and exits 0 only when every number of its report is
finite.  No mutation writes an integer, so every dimension stays as small as
the scene had it or is refused.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from warpcheck.cli import main as cli_main

SCENE_DIR = Path(__file__).resolve().parent.parent / "scenes"

# the warped checks of CI's curved-leaf scene, its polynomial warping
# nested in a sum and a product so that every warping kind is in reach
CURVED_LEAF = {
    "ambient": {"kind": "euclidean", "m": 5},
    "source": {
        "kind": "explicit-warped",
        "factor1": {"kind": "round-sphere", "dim": 2},
        "factor2": {"kind": "round-sphere", "dim": 2},
        "warping": {
            "kind": "sum",
            "terms": [
                {"kind": "polynomial", "coeffs": [1.0, 0.3, -0.2]},
                {"kind": "product", "terms": [{"kind": "const", "a": 0.1}, {"kind": "cos"}, {"kind": "exp"}]},
            ],
        },
        "points": [[0.7, 0.4, 0.9, 0.6], [1.1, -0.3, 0.5, 1.0], [0.9, 0.8, 1.2, 0.4]],
    },
    "checks": ["laplacian_ratio", "connection_identity", "mixed_sectional", {"name": "trivial", "expect": False}],
    "seed": 11,
}

SCENES = [json.loads(p.read_text()) for p in sorted(SCENE_DIR.glob("*.json"))] + [CURVED_LEAF]
DELETE = object()


def _wrong_type(leaf):
    return [leaf] if isinstance(leaf, str) else str(leaf)


MUTATIONS = [lambda leaf: math.nan, lambda leaf: math.inf, lambda leaf: -math.inf, lambda leaf: 1e300, _wrong_type]


def _leaves(node, path=()):
    """The paths of every leaf of a decoded JSON value."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else None
    if items is None:
        yield path
        return
    for key, child in items:
        yield from _leaves(child, path + (key,))


CASES = [(i, path, m) for i, scene in enumerate(SCENES) for path in _leaves(scene) for m in [*MUTATIONS, DELETE]]


def _mutated(scene, path, mutation):
    scene = json.loads(json.dumps(scene))
    parent = scene
    for key in path[:-1]:
        parent = parent[key]
    if mutation is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = mutation(parent[path[-1]])
    return scene


def _numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            yield from _numbers(child)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node
    elif node in ("NaN", "Infinity", "-Infinity"):  # the canonical form of a non-finite float
        yield math.nan


def _verify(scene: dict) -> tuple[int, str, dict | None]:
    """Exit status, standard error and report of `warpcheck verify` on a scene."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "scene.json", Path(tmp) / "report.json"
        path.write_text(json.dumps(scene))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            status = cli_main(["verify", str(path), "--output", "json", "--out", str(out)])
        return status, err.getvalue(), json.loads(out.read_text()) if out.exists() else None


def test_every_scene_passes_unmutated():
    assert len(SCENES) == 5
    assert [_verify(scene)[0] for scene in SCENES] == [0] * 5


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(CASES))
def test_a_mutated_scene_exits_0_1_or_2_and_passes_only_on_finite_numbers(case):
    index, path, mutation = case
    status, err, report = _verify(_mutated(SCENES[index], path, mutation))
    assert status in (0, 1, 2), case
    assert "Traceback" not in err, case
    if status == 0:
        assert all(math.isfinite(x) for x in _numbers(report)), case
