"""The command line builds one argument parser per process and shares it
between calls: no flag of one call reaches the next.  Bad input, in a scene
file or in the environment, exits 2, and so does an `--out` that cannot be
written.  `--out` is overwritten in place."""

import json
import os
import threading
from pathlib import Path

import pytest

from warpcheck.cli import _build_parser, main as cli_main
from warpcheck.scenes import emit, parse_scene, run

SCENES = Path(__file__).resolve().parent.parent / "scenes"
SCENE = SCENES / "non_sasakian_random.json"


def _report(tmp_path, *flags) -> bytes:
    out = tmp_path / "report.json"
    assert cli_main(["verify", str(SCENE), "--output", "json", "--out", str(out), *flags]) in (0, 1)
    return out.read_bytes()


def test_the_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_no_flag_leaks_into_the_next_call(tmp_path):
    flagged = _report(tmp_path, "--seed", "5", "--samples", "3", "--tol-algebraic", "2e-10")
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


@pytest.mark.parametrize(
    "check",
    [
        {"name": "obstruction", "harmonic": True},
        {"name": "obstruction", "harmonic": True, "minimal": False},
        {"name": "obstruction", "eigenvalue": 1, "harmonic": False},
        {"name": "obstruction", "harmonic": True, "eigenvalue": 1, "minimal": True},
        {"name": "obstruction", "minimal": True},
        {"name": "obstruction", "harmonic": False, "minimal": True},
    ],
)
def test_obstruction_options_that_never_give_a_verdict_exit_2(tmp_path, capsys, check):
    # each used to run and become a FAIL record with exit 1
    assert _verify(tmp_path, CONTACT, check) == 2
    assert "check 'obstruction' needs" in capsys.readouterr().err


def _explicit_scene(**arrays) -> dict:
    tangent = [[0.0, 0.0] for _ in range(7)]
    tangent[1][0] = tangent[2][1] = 1.0
    source = {"kind": "explicit", "n1": 1, "n2": 1, "tangent": tangent, "sigma": [[[0.0, 0.0], [0.0, 0.0]]] * 5}
    source.update(arrays)
    return {
        "ambient": {"kind": "non-sasakian-kmu", "m": 3, "kappa": 0.5, "mu": 0.3},
        "source": source,
        "checks": ["general_inequality", "gauss_residual"],
        "seed": 0,
    }


def _with_entry(array, index, value):
    out = json.loads(json.dumps(array))
    target = out
    for i in index[:-1]:
        target = target[i]
    target[index[-1]] = value
    return out


@pytest.mark.parametrize(
    "field,index,value,message",
    [
        ("tangent", (1, 0), True, "explicit source 'tangent'[1][0] must be a finite number (got True)"),
        ("tangent", (2, 1), "1", "explicit source 'tangent'[2][1] must be a finite number (got '1')"),
        ("tangent", (3, 0), None, "explicit source 'tangent'[3][0] must be a finite number (got None)"),
        ("sigma", (0, 0, 0), "0.5", "explicit source 'sigma'[0][0][0] must be a finite number (got '0.5')"),
        ("sigma", (4, 1, 1), False, "explicit source 'sigma'[4][1][1] must be a finite number (got False)"),
        ("sigma", (2, 0, 1), 10**400, "explicit source 'sigma'[2][0][1] must be a finite number"),
        ("normal", (0, 0), "x", "explicit source 'normal'[0][0] must be a finite number (got 'x')"),
        ("normal", (5, 4), {"a": 1}, "explicit source 'normal'[5][4] must be a finite number"),
    ],
    ids=["true", "string-1", "null", "string-0.5", "false", "beyond-float", "string-x", "object"],
)
def test_an_explicit_array_entry_that_is_not_a_number_exits_2_and_is_named(
    tmp_path, capsys, field, index, value, message
):
    # before, true, "1" and "0.5" were read as 1.0, 1.0 and 0.5 and the scene passed
    scene = _explicit_scene()
    if field == "normal":
        scene["source"]["normal"] = [[float(i == c) for c in (0, 3, 4, 5, 6)] for i in range(7)]
    scene["source"][field] = _with_entry(scene["source"][field], index, value)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    assert cli_main(["verify", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_an_explicit_source_of_finite_numbers_runs_as_before(tmp_path):
    # integers are numbers: [0, 1] reads like [0.0, 1.0]
    floats = tmp_path / "floats.json"
    floats.write_text(json.dumps(_explicit_scene()))
    ints = tmp_path / "ints.json"
    scene = _explicit_scene()
    scene["source"]["tangent"] = [[int(v) for v in row] for row in scene["source"]["tangent"]]
    ints.write_text(json.dumps(scene))
    outs = []
    for path in (floats, ints):
        out = tmp_path / f"{path.stem}.report.json"
        assert cli_main(["verify", str(path), "--output", "json", "--out", str(out)]) == 0
        outs.append(json.loads(out.read_text())["records"])
    assert outs[0] == outs[1]



SYNTHETIC = {
    "ambient": {"kind": "non-sasakian-kmu", "m": 3, "kappa": 0.5, "mu": 0.3},
    "source": {"kind": "synthetic", "generator": "random", "n1": 1, "n2": 1},
    "checks": ["general_inequality"],
}
REAL_FORM = dict(SYNTHETIC, ambient={"kind": "real-space-form", "m": 5, "c": 0.5})
SPHERE = {
    "ambient": {"kind": "euclidean", "m": 3},
    "source": {"kind": "chart-immersion", "key": "sphere-in-euclidean", "params": {"n": 2}, "point": [0.3, 0.8]},
    "checks": ["general_inequality"],
}
WARPED_SPHERE = {
    "ambient": {"kind": "euclidean", "m": 5},
    "source": {"kind": "warped-chart", "key": "sphere", "params": {"n2": 2}},
    "checks": ["laplacian_ratio"],
}
FLAT_PRODUCT = dict(WARPED_SPHERE, source={"kind": "warped-chart", "key": "flat-product", "params": {"n1": 2}})
EXPLICIT_WARPED = dict(
    WARPED_SPHERE,
    source={
        "kind": "explicit-warped",
        "factor1": {"kind": "euclidean", "dim": 1},
        "factor2": {"kind": "round-sphere", "dim": 2},
        "warping": {"kind": "cos"},
        "points": [[0.2, 0.8, 0.5]],
    },
)


@pytest.mark.parametrize(
    "base,index,bad,message",
    [
        (REAL_FORM, ("ambient", "m"), True, "ambient parameter m must be an integer >= 1 (got True)"),
        (REAL_FORM, ("ambient", "c"), True, "ambient parameter c must be a finite number (got True)"),
        (SYNTHETIC, ("ambient", "kappa"), "0.5", "ambient parameter kappa must be a finite number (got '0.5')"),
        (SYNTHETIC, ("ambient", "mu"), True, "ambient parameter mu must be a finite number (got True)"),
        (SPHERE, ("source", "params", "n"), 2.0, "source parameter n must be an integer >= 1 (got 2.0)"),
        (FLAT_PRODUCT, ("source", "params", "n1"), True, "source parameter n1 must be an integer >= 1 (got True)"),
        (WARPED_SPHERE, ("source", "params", "n2"), True, "source parameter n2 must be an integer >= 1 (got True)"),
        (SPHERE, ("source", "point", 0), True, "chart-immersion source 'point'[0] must be a finite number (got True)"),
        (
            EXPLICIT_WARPED, ("source", "points", 0, 0), True,
            "explicit-warped source 'points'[0][0] must be a finite number (got True)",
        ),
    ],
    ids=["ambient-m", "ambient-c", "ambient-kappa", "ambient-mu", "params-n", "params-n1", "params-n2", "point", "points"],
)
def test_a_scene_number_that_is_not_one_exits_2_and_names_its_key(tmp_path, capsys, base, index, bad, message):
    # before, a boolean was read as 1: each of these but m and n ran and passed
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({**base, "seed": 0}))
    assert cli_main(["verify", str(path)]) == 0
    path.write_text(json.dumps({**_with_entry(base, index, bad), "seed": 0}))
    assert cli_main(["verify", str(path)]) == 2
    assert message in capsys.readouterr().err


def _write_json(scene: Path, out: Path) -> int:
    return cli_main(["verify", str(scene), "--output", "json", "--out", str(out)])


def test_a_shorter_report_over_a_longer_one_leaves_only_its_own_bytes(tmp_path):
    short = SCENES / "sasakian_obstruction.json"
    out, fresh = tmp_path / "report.json", tmp_path / "fresh.json"
    assert _write_json(SCENE, out) in (0, 1)
    longer = out.stat().st_size
    assert _write_json(short, out) == _write_json(short, fresh)
    assert fresh.stat().st_size < longer
    assert out.read_bytes() == fresh.read_bytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="the platform has no named pipes")
def test_a_report_written_into_a_fifo_arrives_whole(tmp_path):
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    received, status = [], []
    threads = [
        threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True),
        threading.Thread(target=lambda: status.append(_write_json(SCENE, fifo)), daemon=True),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert status[0] in (0, 1)
    assert received == [_report(tmp_path)]


@pytest.mark.parametrize("where", ["missing/report.json", ""], ids=["missing-directory", "directory"])
def test_an_out_that_cannot_be_written_exits_2(tmp_path, capsys, where):
    # before, a missing directory ended in a FileNotFoundError traceback and exit 1
    assert _write_json(SCENE, tmp_path / where) == 2
    assert "error: cannot write report: " in capsys.readouterr().err


DPLUS_LEAF = {
    "ambient": {"kind": "non-sasakian-kmu", "m": 3, "kappa": 0.5, "mu": 0.7},
    "source": {"kind": "chart-immersion", "key": "dplus-leaf", "params": {"n1": 1, "n2": 1}},
    "checks": ["general_inequality"],
}
SEVEN_DIMENSIONAL = {
    "ambient": {"kind": "euclidean", "m": 7},
    "source": {"kind": "synthetic", "generator": "random", "n2": 2},
    "checks": ["general_inequality"],
}


@pytest.mark.parametrize(
    "base,where,key,value,message",
    [
        (SEVEN_DIMENSIONAL, ("source",), "n_1", 3, "unknown keys in the 'synthetic' source: ['n_1']"),
        (_explicit_scene(), ("source",), "normals", [], "unknown keys in the 'explicit' source: ['normals']"),
        (SPHERE, ("source",), "points", [[0.3, 0.8]], "unknown keys in the 'chart-immersion' source: ['points']"),
        (DPLUS_LEAF, ("source",), "point", [0.1, 0.2], "unknown keys in the dplus-leaf source: ['point']"),
        (DPLUS_LEAF, ("source", "params"), "n", 3, "unknown keys in the dplus-leaf 'params': ['n']"),
        (WARPED_SPHERE, ("source",), "point", [0.2, 0.8, 0.5], "unknown keys in the 'warped-chart' source: ['point']"),
        (EXPLICIT_WARPED, ("source",), "warp", {"kind": "exp"}, "unknown keys in the 'explicit-warped' source: ['warp']"),
    ],
    ids=["synthetic", "explicit", "chart-immersion", "dplus-leaf", "dplus-leaf-params", "warped-chart", "explicit-warped"],
)
def test_a_source_key_its_kind_does_not_read_exits_2_and_is_named(tmp_path, capsys, base, where, key, value, message):
    # before, each ran without the key: the synthetic one with n1 = 1, and passed
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({**base, "seed": 0}))
    assert cli_main(["verify", str(path)]) == 0
    scene = json.loads(json.dumps(base))
    target = scene
    for k in where:
        target = target[k]
    target[key] = value
    path.write_text(json.dumps({**scene, "seed": 0}))
    assert cli_main(["verify", str(path)]) == 2
    assert message in capsys.readouterr().err
