import json
from pathlib import Path

import numpy as np
import pytest

from warpcheck.cli import main as cli_main
from warpcheck.errors import SceneParseError, SceneValidationError
from warpcheck.scenes import SceneSpec, _canonical_json, emit, parse_scene, run, warp_from_descriptor

CONTACT_EXAMPLES = ["non_sasakian_random.json", "tangent_sphere_bundle.json", "sasakian_obstruction.json"]

SPHERE_SCENE = {
    "ambient": {"kind": "euclidean", "m": 3},
    "source": {"kind": "chart-immersion", "key": "sphere-in-euclidean", "params": {"n": 2}},
    "checks": ["general_inequality", "laplacian_ratio"],
    "seed": 7,
}


def _write(tmp_path, obj, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_parse_minimal_sphere_scene(tmp_path):
    spec = parse_scene(_write(tmp_path, SPHERE_SCENE))
    assert spec.ambient["kind"] == "euclidean"
    assert spec.checks[0] == {"name": "general_inequality"}
    assert spec.seed == 7


def test_parse_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"ambient": }')
    with pytest.raises(SceneParseError) as err:
        parse_scene(str(path))
    assert "line" in str(err.value)


def test_parse_missing_file():
    with pytest.raises(SceneParseError):
        parse_scene("/nonexistent/scene.json")


def test_unknown_scene_key(tmp_path):
    bad = dict(SPHERE_SCENE, plots=True)
    with pytest.raises(SceneValidationError):
        parse_scene(_write(tmp_path, bad))


def test_unknown_check_name(tmp_path):
    bad = dict(SPHERE_SCENE, checks=["does_not_exist"])
    with pytest.raises(SceneValidationError):
        parse_scene(_write(tmp_path, bad))


def test_unknown_ambient(tmp_path):
    bad = dict(SPHERE_SCENE, ambient={"kind": "lorentzian", "m": 3})
    with pytest.raises(SceneValidationError):
        parse_scene(_write(tmp_path, bad))


def test_dimension_overflow_rejected(tmp_path):
    bad = {
        "ambient": {"kind": "sasakian-space-form", "m": 2, "c": 1.0},
        "source": {"kind": "synthetic", "generator": "random", "n1": 3, "n2": 3},
        "checks": ["general_inequality"],
    }
    with pytest.raises(SceneValidationError):
        parse_scene(_write(tmp_path, bad))


def test_sasakian_parameters_reject_non_sasakian_check(tmp_path):
    bad = {
        "ambient": {"kind": "kmu-space-form", "m": 3, "kappa": 1.0, "mu": 0.5, "c": 1.0},
        "source": {"kind": "synthetic", "generator": "c-totally-real", "n1": 1, "n2": 1},
        "checks": ["non_sasakian_inequality"],
    }
    with pytest.raises(SceneValidationError):
        parse_scene(_write(tmp_path, bad))


def test_contact_check_needs_contact_ambient(tmp_path):
    bad = dict(SPHERE_SCENE, checks=["kmu_space_form_inequality"])
    with pytest.raises(SceneValidationError):
        parse_scene(_write(tmp_path, bad))


def test_explicit_source_requires_arrays(tmp_path):
    bad = {
        "ambient": {"kind": "euclidean", "m": 4},
        "source": {"kind": "explicit", "n1": 1, "n2": 1},
        "checks": ["general_inequality"],
    }
    with pytest.raises(SceneValidationError):
        parse_scene(_write(tmp_path, bad))


def test_explicit_warped_requires_points(tmp_path):
    bad = {
        "ambient": {"kind": "euclidean", "m": 3},
        "source": {
            "kind": "explicit-warped",
            "factor1": {"kind": "euclidean", "dim": 1},
            "factor2": {"kind": "euclidean", "dim": 1},
            "warping": {"kind": "cos"},
        },
        "checks": ["laplacian_ratio"],
    }
    with pytest.raises(SceneValidationError):
        parse_scene(_write(tmp_path, bad))


def test_bad_warping_kind_rejected_at_parse(tmp_path):
    bad = {
        "ambient": {"kind": "euclidean", "m": 3},
        "source": {
            "kind": "explicit-warped",
            "factor1": {"kind": "euclidean", "dim": 1},
            "factor2": {"kind": "euclidean", "dim": 1},
            "warping": {"kind": "tan"},
            "points": [[0.1, 0.2]],
        },
        "checks": ["laplacian_ratio"],
    }
    with pytest.raises(SceneValidationError):
        parse_scene(_write(tmp_path, bad))


def test_warp_descriptor_catalog():
    f = warp_from_descriptor(
        {"kind": "sum", "terms": [{"kind": "const", "a": 2.0}, {"kind": "cos"}]}
    )
    assert abs(f.fn(0.0) - 3.0) < 1e-14
    with pytest.raises(SceneValidationError):
        warp_from_descriptor({"kind": "sin"})


def test_run_sphere_scene(tmp_path):
    spec = parse_scene(_write(tmp_path, SPHERE_SCENE))
    report = run(spec)
    assert report.all_passed
    by_name = {r["name"]: r for r in report.records}
    assert abs(by_name["general_inequality"]["gap"]) < 1e-3


def test_run_obstruction_scene():
    spec = parse_scene(
        {
            "ambient": {"kind": "sasakian-space-form", "m": 3, "c": -4.0},
            "source": {"kind": "synthetic", "generator": "minimal", "n1": 1, "n2": 1},
            "checks": [
                {"name": "obstruction", "harmonic": True, "minimal": True, "expect": "NONEXISTENCE"}
            ],
            "seed": 1,
        }
    )
    report = run(spec)
    assert report.all_passed
    assert report.records[0]["verdict"] == "NONEXISTENCE"


def test_run_randomized_scene_all_gaps():
    spec = parse_scene(
        {
            "ambient": {"kind": "non-sasakian-kmu", "m": 3, "kappa": 0.25, "mu": -0.8},
            "source": {"kind": "synthetic", "generator": "c-totally-real", "n1": 1, "n2": 2},
            "checks": ["non_sasakian_inequality"],
            "samples": 100,
            "seed": 11,
        }
    )
    report = run(spec)
    assert report.all_passed
    assert report.records[0]["min_gap"] >= -1e-9


def test_check_errors_do_not_abort_siblings():
    spec = parse_scene(
        {
            "ambient": {"kind": "sasakian-space-form", "m": 3, "c": -3.0},
            # generic random frames are not C-totally real -> config error
            "source": {"kind": "synthetic", "generator": "random", "n1": 1, "n2": 1},
            "checks": ["kmu_space_form_inequality", "km_condition"],
            "samples": 5,
            "seed": 0,
        }
    )
    report = run(spec)
    assert not report.records[0]["pass"]
    assert "error" in report.records[0]
    assert report.records[1]["pass"]  # sibling still ran


def test_empty_check_list_valid_json(tmp_path):
    spec = parse_scene(dict(SPHERE_SCENE, checks=[]))
    report = run(spec)
    payload = emit(report, "json")
    decoded = json.loads(payload)
    assert decoded["records"] == []


def test_json_determinism(tmp_path):
    spec = parse_scene(_write(tmp_path, SPHERE_SCENE))
    b1 = emit(run(spec), "json")
    b2 = emit(run(spec), "json")
    assert b1 == b2


def test_seed_changes_randomized_payload():
    scene = {
        "ambient": {"kind": "euclidean", "m": 5},
        "source": {"kind": "synthetic", "generator": "random", "n1": 1, "n2": 1},
        "checks": ["general_inequality"],
        "samples": 20,
    }
    r1 = run(parse_scene(scene), seed=1)
    r2 = run(parse_scene(scene), seed=2)
    assert r1.records[0]["min_gap"] != r2.records[0]["min_gap"]


def test_scene_round_trip(tmp_path):
    spec = parse_scene(_write(tmp_path, SPHERE_SCENE))
    report = run(spec)
    echoed = json.loads(emit(report, "json"))["scene"]
    spec2 = parse_scene(_write(tmp_path, echoed, "echo.json"))
    assert spec2 == spec


def test_text_format(tmp_path):
    spec = parse_scene(_write(tmp_path, SPHERE_SCENE))
    text = emit(run(spec), "text").decode()
    lines = [l for l in text.splitlines() if l and not l.startswith(("--", "note:"))]
    assert len(lines) == 2
    assert all(("PASS" in l) or ("FAIL" in l) for l in lines)


def test_warped_chart_source():
    spec = parse_scene(
        {
            "ambient": {"kind": "euclidean", "m": 3},
            "source": {"kind": "warped-chart", "key": "hyperbolic"},
            "checks": ["laplacian_ratio", "connection_identity", "mixed_sectional",
                       {"name": "trivial", "expect": False}],
            "seed": 4,
        }
    )
    report = run(spec)
    assert report.all_passed


def test_dplus_leaf_source():
    spec = parse_scene(
        {
            "ambient": {"kind": "non-sasakian-kmu", "m": 3, "kappa": 0.5, "mu": 0.7},
            "source": {
                "kind": "chart-immersion",
                "key": "dplus-leaf",
                "params": {"n1": 1, "n2": 1},
            },
            "checks": ["non_sasakian_inequality", "c_totally_real", "a_xi_identity", "decompose"],
            "seed": 0,
        }
    )
    report = run(spec)
    assert report.all_passed


def test_explicit_warped_source():
    spec = parse_scene(
        {
            "ambient": {"kind": "euclidean", "m": 3},
            "source": {
                "kind": "explicit-warped",
                "factor1": {"kind": "euclidean", "dim": 1},
                "factor2": {"kind": "euclidean", "dim": 2},
                "warping": {"kind": "exp"},
                "points": [[0.3, 0.1, 0.2], [-0.4, 0.0, 0.5]],
            },
            "checks": ["laplacian_ratio", "connection_identity", {"name": "trivial", "expect": False}],
            "seed": 2,
        }
    )
    report = run(spec)
    assert report.all_passed


def test_explicit_pointwise_source():
    tangent = np.zeros((7, 2))
    tangent[1, 0] = 1.0
    tangent[2, 1] = 1.0
    spec = parse_scene(
        {
            "ambient": {"kind": "non-sasakian-kmu", "m": 3, "kappa": 0.5, "mu": 0.3},
            "source": {
                "kind": "explicit",
                "n1": 1,
                "n2": 1,
                "tangent": tangent.tolist(),
                "sigma": np.zeros((5, 2, 2)).tolist(),
            },
            "checks": ["non_sasakian_inequality", "c_totally_real", "a_xi_identity"],
            "seed": 0,
        }
    )
    report = run(spec)
    assert report.all_passed


def test_cli_rejects_non_finite_explicit_sigma(tmp_path, capsys):
    tangent = np.zeros((7, 2))
    tangent[1, 0] = 1.0
    tangent[2, 1] = 1.0
    sigma = np.zeros((5, 2, 2))
    sigma[3, 1, 0] = np.nan
    scene = {
        "ambient": {"kind": "non-sasakian-kmu", "m": 3, "kappa": 0.5, "mu": 0.3},
        "source": {
            "kind": "explicit",
            "n1": 1,
            "n2": 1,
            "tangent": tangent.tolist(),
            "sigma": sigma.tolist(),
        },
        "checks": ["general_inequality", "decompose"],
        "seed": 0,
    }
    path = _write(tmp_path, scene)
    assert cli_main(["verify", path, "--output", "text"]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_nan_gap_fails_the_sampled_inequality(monkeypatch):
    import warpcheck.scenes as scenes_mod

    original = scenes_mod.general_inequality_stack

    def nan_on_second_sample(stack):
        batch = original(stack)
        batch.gap[:] = [0.5, float("nan"), 0.25]
        return batch

    monkeypatch.setattr(scenes_mod, "general_inequality_stack", nan_on_second_sample)
    spec = parse_scene(
        {
            "ambient": {"kind": "euclidean", "m": 5},
            "source": {"kind": "synthetic", "generator": "random", "n1": 1, "n2": 1},
            "checks": ["general_inequality"],
            "samples": 3,
            "seed": 0,
        }
    )
    (record,) = run(spec).records
    assert record["pass"] is False
    assert np.isnan(record["min_gap"])


def test_cli_exit_codes(tmp_path, capsys):
    good = _write(tmp_path, SPHERE_SCENE, "good.json")
    assert cli_main(["verify", good, "--output", "text"]) == 0
    capsys.readouterr()

    failing = _write(
        tmp_path,
        {
            "ambient": {"kind": "sasakian-space-form", "m": 3, "c": -4.0},
            "source": {"kind": "synthetic", "generator": "minimal", "n1": 1, "n2": 1},
            "checks": [
                {"name": "obstruction", "harmonic": True, "minimal": True, "expect": "UNOBSTRUCTED"}
            ],
            "seed": 1,
        },
        "failing.json",
    )
    assert cli_main(["verify", failing, "--output", "text"]) == 1
    capsys.readouterr()

    invalid = _write(tmp_path, dict(SPHERE_SCENE, checks=["nope"]), "invalid.json")
    assert cli_main(["verify", invalid]) == 2
    capsys.readouterr()


ADMISSIBLE_AMBIENTS = {
    "real-space-form": {"m": 3, "c": -1.0},
    "sasakian-space-form": {"m": 2, "c": 0.5},
    "kmu-space-form": {"m": 2, "kappa": 0.5, "mu": 0.3, "c": 0.7},
    "non-sasakian-kmu": {"m": 2, "kappa": 0.5, "mu": 0.3},
    "tangent-sphere-bundle": {"m": 2, "c": 0.5},
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "kind,key",
    [(k, key) for k, p in ADMISSIBLE_AMBIENTS.items() for key in ("c", "kappa", "mu") if key in p],
)
def test_cli_rejects_non_finite_ambient_parameters(tmp_path, capsys, kind, key, bad):
    ambient = dict(ADMISSIBLE_AMBIENTS[kind], kind=kind)
    ambient[key] = bad
    scene = {
        "ambient": ambient,
        "source": {"kind": "synthetic", "generator": "random", "n1": 1, "n2": 1},
        "checks": ["general_inequality", "oracle_symmetries"],
        "samples": 3,
        "seed": 0,
    }
    assert cli_main(["verify", _write(tmp_path, scene)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("m", [0, -1, 2.5, np.inf, True])
@pytest.mark.parametrize("kind", ["euclidean", "real-space-form"])
def test_cli_rejects_inadmissible_real_form_dimension(tmp_path, capsys, kind, m):
    ambient = {"kind": kind, "m": m} if kind == "euclidean" else {"kind": kind, "m": m, "c": 1.0}
    scene = dict(SPHERE_SCENE, ambient=ambient, checks=["oracle_symmetries", "general_inequality"])
    assert cli_main(["verify", _write(tmp_path, scene)]) == 2
    assert "m must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("m", [2, 4])
def test_chart_immersion_must_match_the_ambient_dimension(m):
    with pytest.raises(SceneValidationError, match="3-dimensional chart"):
        parse_scene(dict(SPHERE_SCENE, ambient={"kind": "euclidean", "m": m}))


def test_dplus_leaf_needs_a_contact_ambient():
    scene = {
        "ambient": {"kind": "euclidean", "m": 5},
        "source": {"kind": "chart-immersion", "key": "dplus-leaf"},
        "checks": ["general_inequality"],
    }
    with pytest.raises(SceneValidationError, match="contact ambient"):
        parse_scene(scene)


def test_cli_writes_output_file(tmp_path):
    good = _write(tmp_path, SPHERE_SCENE)
    out = tmp_path / "report.json"
    assert cli_main(["verify", good, "--output", "json", "--out", str(out)]) == 0
    decoded = json.loads(out.read_text())
    assert decoded["environment"]["seed"] == 7


def test_cli_catalog(capsys):
    assert cli_main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "sasakian-space-form" in out
    assert "sphere-in-euclidean" in out
    assert "general_inequality" in out


def test_env_seed_fallback(monkeypatch):
    scene = {
        "ambient": {"kind": "euclidean", "m": 5},
        "source": {"kind": "synthetic", "generator": "random", "n1": 1, "n2": 1},
        "checks": ["general_inequality"],
        "samples": 10,
    }
    monkeypatch.setenv("WARPCHECK_SEED", "123")
    r1 = run(parse_scene(scene))
    assert r1.environment["seed"] == 123


def test_tolerance_override_spec():
    spec = SceneSpec(
        ambient={"kind": "euclidean", "m": 3},
        source={"kind": "chart-immersion", "key": "plane"},
        checks=[{"name": "general_inequality"}],
        tolerances={"equality_gap": 1e-3},
        samples=1,
        seed=0,
    )
    report = run(spec)
    assert report.environment["tolerances"]["equality_gap"] == 1e-3


def test_nan_oracle_values_fail_the_oracle_checks(monkeypatch, nan_row_generator):
    import warpcheck.scenes as scenes_mod

    original = scenes_mod.make_ambient
    original_km = scenes_mod.check_km_condition

    def nan_ambient(kind, **params):
        amb = original(kind, **params)
        # R(u1, phi u1, phi u1, u1), an entry that every phi-sectional value reads
        amb.oracle.tensor[1, 3, 3, 1] = np.nan
        return amb

    def km_with_one_nan_sample(oracle, frame, rng, samples):
        # km_condition reads only the xi slot of the tensor, where the NaN entry is not
        return original_km(oracle, frame, nan_row_generator(rng, row=1), samples)

    monkeypatch.setattr(scenes_mod, "make_ambient", nan_ambient)
    monkeypatch.setattr(scenes_mod, "check_km_condition", km_with_one_nan_sample)
    spec = parse_scene(
        {
            "ambient": {"kind": "sasakian-space-form", "m": 2, "c": 0.5},
            "source": {"kind": "synthetic", "generator": "random", "n1": 1, "n2": 1},
            "checks": ["km_condition", "oracle_symmetries", "phi_sectional"],
            "samples": 10,
            "seed": 0,
        }
    )
    records = {r["name"]: r for r in run(spec).records}
    assert not any(r["pass"] for r in records.values())
    assert np.isnan(records["km_condition"]["residual"])
    assert np.isnan(records["oracle_symmetries"]["max_residual"])
    assert np.isnan(records["phi_sectional"]["spread"])


@pytest.mark.parametrize(
    "check,target,key",
    [
        ("connection_identity", "check_connection_identity", "max_residual"),
        ("mixed_sectional", "mixed_sectional", "max_residual"),
        ("laplacian_ratio", "check_laplacian_ratio", "max_deviation"),
    ],
)
def test_nan_residual_fails_the_warped_checks(monkeypatch, check, target, key):
    # each warped check evaluates every sample point in one stacked call; the
    # NaN lands in the second point's residual only
    import warpcheck.scenes as scenes_mod

    original = getattr(scenes_mod, target)
    stacks = []

    def patched(wp, cp, *args, **kwargs):
        out = original(wp, cp, *args, **kwargs)
        stacks.append(np.shape(cp.x))
        values = np.array(out["max_deviation"] if target == "check_laplacian_ratio" else out)
        values[1] = np.nan
        return {**out, "max_deviation": values} if target == "check_laplacian_ratio" else values

    monkeypatch.setattr(scenes_mod, target, patched)
    spec = parse_scene(
        {
            "ambient": {"kind": "euclidean", "m": 5},
            "source": {"kind": "warped-chart", "key": "sphere", "params": {"n2": 2}},
            "checks": [check],
            "seed": 0,
        }
    )
    (record,) = run(spec).records
    assert stacks == [(3, 3)]  # one call on the three sample points of sphere(n2=2)
    assert record["pass"] is False
    assert np.isnan(record[key])


def test_nan_intrinsic_curvature_fails_the_gauss_check(monkeypatch):
    import warpcheck.scenes as scenes_mod

    original = scenes_mod.gauss_residual

    def nan_intrinsic(data, **kwargs):
        return original(data, intrinsic=np.full((data.n,) * 4, np.nan), **kwargs)

    monkeypatch.setattr(scenes_mod, "gauss_residual", nan_intrinsic)
    spec = parse_scene(
        {
            "ambient": {"kind": "real-space-form", "m": 5, "c": 1.0},
            "source": {"kind": "synthetic", "generator": "random", "n1": 1, "n2": 1},
            "checks": ["gauss_residual"],
            "seed": 0,
        }
    )
    (record,) = run(spec).records
    assert record["pass"] is False
    assert np.isnan(record["gauss_max"]) and np.isnan(record["kij_max"])


SCENE_DIR = Path(__file__).resolve().parent.parent / "scenes"


def _dependent_columns():
    tangent = np.zeros((7, 2))
    tangent[1, 0] = tangent[1, 1] = 1.0  # both columns along e_1
    return tangent.tolist()


@pytest.mark.parametrize(
    "tangent",
    [_dependent_columns(), np.eye(7).tolist(), [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]],
    ids=["dependent-columns", "no-normal-direction", "not-a-matrix"],
)
def test_cli_rejects_an_explicit_tangent_it_cannot_complete(tmp_path, capsys, tangent):
    scene = {
        "ambient": {"kind": "non-sasakian-kmu", "m": 3, "kappa": 0.5, "mu": 0.3},
        "source": {
            "kind": "explicit",
            "n1": 1,
            "n2": 1,
            "tangent": tangent,
            "sigma": np.zeros((5, 2, 2)).tolist(),
        },
        "checks": ["general_inequality"],
        "seed": 0,
    }
    assert cli_main(["verify", _write(tmp_path, scene), "--output", "text"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_verify_builds_the_ambient_once(monkeypatch, tmp_path):
    import warpcheck.scenes as scenes_mod

    calls = []
    original = scenes_mod.make_ambient

    def counting(kind, **params):
        calls.append(kind)
        return original(kind, **params)

    monkeypatch.setattr(scenes_mod, "make_ambient", counting)
    argv = ["verify", str(SCENE_DIR / "tangent_sphere_bundle.json"), "--output", "json"]
    assert cli_main(argv + ["--out", str(tmp_path / "report.json")]) == 0
    assert calls == ["tangent-sphere-bundle"]


def _gauss_record(out, *flags):
    argv = ["verify", str(SCENE_DIR / "sphere.json"), "--output", "json", "--out", str(out)]
    cli_main(argv + list(flags))
    records = json.loads(out.read_text())["records"]
    return out.read_bytes(), next(r for r in records if r["name"] == "gauss_residual")


def test_tol_fd_reaches_the_chart_second_fundamental_form(tmp_path):
    default_bytes, default = _gauss_record(tmp_path / "default.json")
    same_bytes, _ = _gauss_record(tmp_path / "explicit.json", "--tol-fd", "1e-4")
    assert same_bytes == default_bytes
    _, coarse = _gauss_record(tmp_path / "coarse.json", "--tol-fd", "1e-3")
    for key in ("gauss_max", "kij_max", "tau_identity_residual"):
        assert coarse[key] != default[key], key


def test_tol_fd_reaches_the_chart_pullback_metric(monkeypatch, tmp_path):
    import warpcheck.scenes as scenes_mod

    _, coarse = _gauss_record(tmp_path / "coarse.json", "--tol-fd", "1e-3")
    # the same run with the pull-back and its curvature pinned to the default step
    steps, pulled = [], []
    original_pullback, original_riemann = scenes_mod.pullback_metric, scenes_mod.riemann

    def pinned_pullback(im, h):
        steps.append(("pullback", h))
        pulled.append(original_pullback(im))
        return pulled[-1]

    def pinned_riemann(metric, x, h=None):
        if not any(metric is m for m in pulled):
            return original_riemann(metric, x) if h is None else original_riemann(metric, x, h)
        steps.append(("riemann", h))
        return original_riemann(metric, x)

    monkeypatch.setattr(scenes_mod, "pullback_metric", pinned_pullback)
    monkeypatch.setattr(scenes_mod, "riemann", pinned_riemann)
    _, pinned = _gauss_record(tmp_path / "pinned.json", "--tol-fd", "1e-3")
    assert steps == [("pullback", 1e-3), ("riemann", 1e-3)]
    for key in ("gauss_max", "kij_max", "tau_identity_residual"):
        assert coarse[key] != pinned[key], key


def _explicit_zero_sigma_scene(checks):
    """A 2-frame with zero sigma in a real space form: the equality case."""
    tangent = np.linalg.qr(np.random.default_rng(3).normal(size=(5, 5)))[0][:, :2]
    return {
        "ambient": {"kind": "real-space-form", "m": 5, "c": 0.6},
        "source": {
            "kind": "explicit",
            "n1": 1,
            "n2": 1,
            "tangent": tangent.tolist(),
            "sigma": np.zeros((3, 2, 2)).tolist(),
        },
        "checks": checks,
        "samples": 10,
        "seed": 0,
    }


@pytest.mark.parametrize("earlier", ["equality_case", "decompose", "non_sasakian_inequality"])
def test_a_record_does_not_depend_on_the_checks_before_it(earlier):
    alone = run(parse_scene(_explicit_zero_sigma_scene(["general_inequality"]))).records
    scene = _explicit_zero_sigma_scene([earlier, "general_inequality"])
    if earlier == "non_sasakian_inequality":
        scene["ambient"] = {"kind": "non-sasakian-kmu", "m": 2, "kappa": 0.3, "mu": 0.5}
        alone = run(parse_scene({**scene, "checks": ["general_inequality"]})).records
    after = run(parse_scene(scene)).records
    assert after[1] == alone[0]
    assert alone[0]["min_gap"] == 0.0 and alone[0]["diagnostics"]["mixed_totally_geodesic"]
    if earlier == "equality_case":
        assert after[0]["pass"] and after[0]["misclassifications"] == 0


def test_chart_scene_computes_its_second_fundamental_form_once(monkeypatch, tmp_path):
    import warpcheck.inequality as inequality_mod
    import warpcheck.scenes as scenes_mod

    calls = []
    original = scenes_mod.second_fundamental_form

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (scenes_mod, inequality_mod):
        monkeypatch.setattr(module, "second_fundamental_form", counting)
    argv = ["verify", str(SCENE_DIR / "sphere.json"), "--output", "json"]
    assert cli_main(argv + ["--out", str(tmp_path / "report.json")]) == 0
    assert len(calls) == 1


def _oracle_symmetries(monkeypatch, entry, delta):
    """The oracle_symmetries record of a (kappa, mu) space form whose tensor
    has `delta` added to one entry (the unperturbed residual is round-off)."""
    import warpcheck.scenes as scenes_mod

    original = scenes_mod.make_ambient

    def perturbed(kind, **params):
        amb = original(kind, **params)
        amb.oracle.tensor[entry] += delta
        return amb

    monkeypatch.setattr(scenes_mod, "make_ambient", perturbed)
    spec = parse_scene(
        {
            "ambient": {"kind": "kmu-space-form", "m": 2, "kappa": 0.4, "mu": -0.7, "c": 1.3},
            "source": {"kind": "synthetic", "generator": "random", "n1": 1, "n2": 1},
            "checks": ["oracle_symmetries"],
            "seed": 0,
        }
    )
    (record,) = run(spec).records
    return record


@pytest.mark.parametrize(
    "entry,multiple",
    [
        # an entry whose repeated indices make its identity's residual the
        # largest: 2 delta for R(X,Y,Z,W) = -R(Y,X,Z,W) at [0, 0, 1, 2], the
        # other identities delta
        ((0, 0, 1, 2), 2),
        # 2 delta for R(X,Y,Z,W) = -R(X,Y,W,Z) at [1, 2, 0, 0]
        ((1, 2, 0, 0), 2),
        # R(X,Y,Z,W) = R(Z,W,X,Y) follows from the other three, so one entry
        # moves them by delta too
        ((1, 2, 3, 4), 1),
        # 3 delta for the first Bianchi identity at [0, 0, 0, 1]
        ((0, 0, 0, 1), 3),
    ],
    ids=["antisymmetry-ij", "antisymmetry-kl", "pair-symmetry", "bianchi"],
)
def test_oracle_symmetries_fail_on_one_perturbed_entry(monkeypatch, entry, multiple):
    record = _oracle_symmetries(monkeypatch, entry, 1e-6)
    assert record["pass"] is False
    assert abs(record["max_residual"] - multiple * 1e-6) < 1e-12


@pytest.mark.parametrize("samples,k", [(7, 7), (150, 100)])
def test_phi_sectional_draws_one_block(samples, k):
    # one (k, d) normal draw, k = min(samples, 100): the generator is left
    # where that block leaves it, so later checks draw what they drew before
    import warpcheck.scenes as scenes_mod

    spec = parse_scene(
        {
            "ambient": {"kind": "sasakian-space-form", "m": 2, "c": -2.5},
            "source": {"kind": "synthetic", "generator": "random", "n1": 1, "n2": 1},
            "checks": ["phi_sectional"],
            "seed": 5,
        }
    )
    rng = np.random.default_rng(5)
    ctx = scenes_mod._Context(spec.ambient_space(), spec.source_data(), spec.tolerance(), rng, samples)
    record = scenes_mod._check_phi_sectional(ctx, {"expect": -2.5})
    assert record["pass"] is True and abs(record["value"] + 2.5) < 1e-12
    reference = np.random.default_rng(5)
    reference.normal(size=(k, 5))
    assert rng.bit_generator.state == reference.bit_generator.state


def test_the_contact_example_scenes_never_call_oracle_value(monkeypatch):
    # every ambient-curvature check contracts the (0,4) array; value stays
    # the one-quadruple reference that the tests compare against
    from warpcheck.contact import CurvatureOracle

    calls = []
    original = CurvatureOracle.value

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(CurvatureOracle, "value", counted)
    specs = [parse_scene(str(SCENE_DIR / name)) for name in CONTACT_EXAMPLES]
    specs += [
        parse_scene(
            {
                "ambient": {"kind": "kmu-space-form", "m": 3, "kappa": 0.4, "mu": 1.4, "c": -1.8},
                "source": {"kind": "synthetic", "generator": "c-totally-real", "n1": 1, "n2": 2},
                "checks": ["general_inequality", "gauss_residual", "km_condition", "oracle_symmetries", "phi_sectional"],
                "samples": 20,
                "seed": 1,
            }
        ),
        parse_scene(str(SCENE_DIR / "sphere.json")),  # the chart gauss_residual
    ]
    for spec in specs:
        assert all(r["pass"] for r in run(spec).records)
    assert calls == []


@pytest.mark.parametrize(
    "text",
    ["", "plain", 'say "yes"', "back\\slash", "tab\tnew\nline\r\x00\x1f\x7f", "κ μ", "κ_ij \"μ\" \\ \u2028 \U0001f600"],
)
def test_canonical_json_renders_strings_as_json_dumps(text):
    assert _canonical_json({text: text}) == "{" + json.dumps(text) + ": " + json.dumps(text) + "}"
    assert _canonical_json([text]) == "[" + json.dumps(text) + "]"


def test_canonical_json_renders_booleans_and_none_as_literals():
    assert _canonical_json([True, np.True_, False, np.False_, None]) == "[true, true, false, false, null]"
    assert _canonical_json({"pass": np.bool_(True), "error": None}) == '{"error": null, "pass": true}'
