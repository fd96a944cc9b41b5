"""The command line builds one argument parser per process and shares it
between calls: no flag of one call reaches the next.  Bad input, in a scene
file or in the environment, exits 2."""

import json
from pathlib import Path

import pytest

from warpcheck.cli import _build_parser, main as cli_main
from warpcheck.scenes import emit, parse_scene, run

SCENE = Path(__file__).resolve().parent.parent / "scenes" / "non_sasakian_random.json"


def _report(tmp_path, *flags) -> bytes:
    out = tmp_path / "report.json"
    assert cli_main(["verify", str(SCENE), "--output", "json", "--out", str(out), *flags]) in (0, 1)
    return out.read_bytes()


def test_the_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_no_flag_leaks_into_the_next_call(tmp_path):
    flagged = _report(tmp_path, "--seed", "5", "--samples", "3", "--tol-fd", "2e-4")
    plain = _report(tmp_path)
    assert plain == emit(run(parse_scene(str(SCENE))))
    assert flagged != plain


def test_a_bad_flag_exits_2_and_the_next_call_still_works(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["verify", str(SCENE), "--samples", "x"])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err
    assert _report(tmp_path) == emit(run(parse_scene(str(SCENE))))


def _write_scene(tmp_path, ambient, seed=7) -> Path:
    scene = {
        "ambient": ambient,
        "source": {"kind": "chart-immersion", "key": "sphere-in-euclidean", "params": {"n": 2}},
        "checks": ["general_inequality", "gauss_residual"],
    }
    if seed is not None:
        scene["seed"] = seed
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    return path


@pytest.mark.parametrize(
    "ambient",
    [
        {"kind": "real-space-form", "m": 3, "c": 5.0},
        {"kind": "sasakian-space-form", "m": 1, "c": 5.0},
    ],
)
def test_a_chart_immersion_in_a_curved_ambient_exits_2(tmp_path, capsys, ambient):
    assert cli_main(["verify", str(_write_scene(tmp_path, ambient))]) == 2
    err = capsys.readouterr().err
    assert ambient["kind"] in err and "curved" in err


def test_a_chart_immersion_in_a_flat_real_space_form_runs_as_in_euclidean_space(tmp_path):
    def records(ambient):
        out = tmp_path / "report.json"
        argv = ["verify", str(_write_scene(tmp_path, ambient)), "--output", "json", "--out", str(out)]
        assert cli_main(argv) == 0
        return json.loads(out.read_bytes())["records"]

    flat = records({"kind": "real-space-form", "m": 3, "c": 0.0})
    assert flat == records({"kind": "euclidean", "m": 3})


@pytest.mark.parametrize("value", ["abc", "1.5", "-1"])
def test_a_bad_seed_environment_variable_exits_2(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("WARPCHECK_SEED", value)
    scene = _write_scene(tmp_path, {"kind": "euclidean", "m": 3}, seed=None)
    assert cli_main(["verify", str(scene)]) == 2
    assert "WARPCHECK_SEED" in capsys.readouterr().err


def test_the_seed_environment_variable_reads_like_the_seed_flag(tmp_path, monkeypatch):
    scene = _write_scene(tmp_path, {"kind": "euclidean", "m": 3}, seed=None)
    out = tmp_path / "report.json"

    def report(*flags) -> bytes:
        assert cli_main(["verify", str(scene), "--output", "json", "--out", str(out), *flags]) == 0
        return out.read_bytes()

    flagged = report("--seed", "7")
    monkeypatch.setenv("WARPCHECK_SEED", "7")
    assert report() == flagged
    monkeypatch.setenv("WARPCHECK_SEED", "")
    assert report() == report("--seed", "0")
