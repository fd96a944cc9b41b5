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


WARPED = {"ambient": {"kind": "euclidean", "m": 5}, "source": {"kind": "warped-chart", "key": "flat-product"}}
CONTACT = {
    "ambient": {"kind": "sasakian-space-form", "m": 3, "c": -4.0},
    "source": {"kind": "synthetic", "generator": "minimal", "n1": 1, "n2": 1},
    "samples": 4,
}


def _verify(tmp_path, base, check, *flags) -> int:
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({**base, "checks": [check]}))
    return cli_main(["verify", str(path), *flags])


BOOLEAN, NUMBER, POSITIVE = "must be true or false", "must be a finite number", "must be a number > 0"


@pytest.mark.parametrize(
    "base,check,message",
    [
        (WARPED, {"name": "trivial", "expect": "false"}, f"check 'trivial' option 'expect' {BOOLEAN}"),
        (WARPED, {"name": "trivial", "expect": 0}, f"check 'trivial' option 'expect' {BOOLEAN}"),
        (WARPED, {"name": "trivial", "expectt": False}, "check 'trivial' has no option 'expectt'"),
        (WARPED, {"name": "connection_identity", "expect": True}, "check 'connection_identity' has no option 'expect'"),
        (CONTACT, {"name": "c_totally_real", "expect": "true"}, f"check 'c_totally_real' option 'expect' {BOOLEAN}"),
        (CONTACT, {"name": "phi_sectional", "expect": "1"}, f"check 'phi_sectional' option 'expect' {NUMBER}"),
        (CONTACT, {"name": "phi_sectional", "expect": True}, f"check 'phi_sectional' option 'expect' {NUMBER}"),
        (CONTACT, {"name": "kmu_space_form_inequality", "c": "x"}, f"check 'kmu_space_form_inequality' option 'c' {NUMBER}"),
        (CONTACT, {"name": "kmu_space_form_inequality", "c": None}, f"check 'kmu_space_form_inequality' option 'c' {NUMBER}"),
        (CONTACT, {"name": "obstruction", "harmonic": 1, "minimal": True}, f"check 'obstruction' option 'harmonic' {BOOLEAN}"),
        (CONTACT, {"name": "obstruction", "harmonic": True, "minimal": "yes"}, f"check 'obstruction' option 'minimal' {BOOLEAN}"),
        (CONTACT, {"name": "obstruction", "eigenvalue": 0, "minimal": True}, f"check 'obstruction' option 'eigenvalue' {POSITIVE}"),
        (CONTACT, {"name": "obstruction", "eigenvalue": "2", "minimal": True}, f"check 'obstruction' option 'eigenvalue' {NUMBER}"),
        (
            CONTACT,
            {"name": "obstruction", "harmonic": True, "minimal": True, "expect": "nonexistence"},
            "check 'obstruction' option 'expect' must be one of",
        ),
        (CONTACT, {"name": "chen_lemma", "samples": 3}, "check 'chen_lemma' has no option 'samples'"),
    ],
)
def test_a_bad_check_option_exits_2_and_names_the_check_and_the_key(tmp_path, capsys, base, check, message):
    assert _verify(tmp_path, base, check) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("expect,status", [(False, 1), (True, 0)])
def test_a_boolean_expect_sets_the_verdict_of_trivial(tmp_path, expect, status):
    assert _verify(tmp_path, WARPED, {"name": "trivial", "expect": expect}) == status


@pytest.mark.parametrize(
    "check",
    [
        {"name": "phi_sectional", "expect": -4},
        {"name": "kmu_space_form_inequality", "c": -4},
        {"name": "obstruction", "eigenvalue": 1, "minimal": True},
        {"name": "obstruction", "harmonic": True, "minimal": True, "expect": "NONEXISTENCE"},
        {"name": "c_totally_real", "expect": True},
    ],
)
def test_well_typed_options_run_and_the_report_keeps_them_as_written(tmp_path, check):
    out = tmp_path / "report.json"
    assert _verify(tmp_path, CONTACT, check, "--output", "json", "--out", str(out)) == 0
    report = json.loads(out.read_bytes())
    assert report["scene"]["checks"] == [check]
    assert report["records"][0]["pass"] is True
