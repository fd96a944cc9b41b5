import json
from dataclasses import replace
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


KMU_OBSTRUCTION_AMBIENT = {"kind": "kmu-space-form", "m": 3, "kappa": 0.25, "mu": -1.4, "c": -4.7}


def _minimal_scene(ambient, checks):
    return parse_scene(
        {
            "ambient": ambient,
            "source": {"kind": "synthetic", "generator": "minimal", "n1": 1, "n2": 1},
            "checks": checks,
            "samples": 50,
            "seed": 3,
        }
    )


@pytest.mark.parametrize(
    "ambient",
    [
        {"kind": "real-space-form", "m": 3, "c": -1.0},
        {"kind": "sasakian-space-form", "m": 3, "c": -4.0},
        KMU_OBSTRUCTION_AMBIENT,
        {"kind": "non-sasakian-kmu", "m": 3, "kappa": 0.25, "mu": -0.8},
        {"kind": "tangent-sphere-bundle", "m": 3, "c": 0.5},
    ],
    ids=lambda a: a["kind"],
)
def test_the_obstruction_verdicts_read_the_ambients_own_curvature(ambient):
    import warpcheck.scenes as scenes_mod
    from warpcheck.inequality import general_inequality_stack, obstruction_check

    spec = _minimal_scene(ambient, [{"name": "obstruction", "harmonic": True, "minimal": True}])
    (record,) = run(spec).records
    ctx = scenes_mod._Context(spec.ambient_space(), spec.source_data(), spec.tolerance(), np.random.default_rng(3), 50)
    batch = general_inequality_stack(ctx.stack())
    verdicts = obstruction_check(batch, harmonic=True, minimal=True)
    assert record["verdicts"] == {v: int(np.count_nonzero(verdicts == v)) for v in record["verdicts"]}
    assert sum(record["verdicts"].values()) == 50
    assert record["rhs_curvature_term"] == (batch.rhs - batch.mean_term)[record["worst_sample"]]
    if ambient is KMU_OBSTRUCTION_AMBIENT:  # non_sasakian_inequality gives 50 UNOBSTRUCTED on this data
        assert record["verdicts"] == {"NONEXISTENCE": 32, "WARPED_PRODUCT_IMMERSION": 0, "UNOBSTRUCTED": 18}


def test_contact_data_that_is_not_c_totally_real_gets_obstruction_verdicts():
    # the general theorem needs no C-totally real data; the specialized one refuses it
    spec = parse_scene(
        {
            "ambient": {"kind": "sasakian-space-form", "m": 3, "c": -4.0},
            "source": {"kind": "synthetic", "generator": "random", "n1": 1, "n2": 2, "sigma_scale": 0.0},
            "checks": [{"name": "obstruction", "harmonic": True, "minimal": True}, "kmu_space_form_inequality"],
            "samples": 20,
            "seed": 4,
        }
    )
    obstruction, specialized = run(spec).records
    assert "error" not in obstruction and sum(obstruction["verdicts"].values()) == 20
    assert specialized["error"].startswith("InvalidConfigurationError: data is not C-totally real")


def test_a_specialized_inequality_fails_where_its_formula_does_not_describe_the_ambient():
    records = run(_minimal_scene(KMU_OBSTRUCTION_AMBIENT, ["non_sasakian_inequality", "kmu_space_form_inequality"])).records
    wrong, own = (r["max_rhs_cross_residual"] for r in records)
    assert not records[0]["pass"] and 2.7 < wrong < 2.8
    assert records[1]["pass"] and own <= 1e-14


@pytest.mark.parametrize("kappa", [-0.6, 0.0, 0.3, 0.9])
def test_the_non_sasakian_inequality_describes_the_kmu_space_form_of_mu_kappa_plus_1(kappa):
    # Koufogiorgos: the (kappa, mu)-space form with mu = kappa + 1 has c = -2 kappa - 1
    ambient = {"kind": "kmu-space-form", "m": 3, "kappa": kappa, "mu": kappa + 1.0, "c": -2.0 * kappa - 1.0}
    (record,) = run(_minimal_scene(ambient, ["non_sasakian_inequality"])).records
    # rounding only: 8.9e-16 at kappa = 0.3, 1.3e-15 at kappa = -0.6
    assert record["pass"] and record.get("max_rhs_cross_residual", 0.0) <= 1e-14


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


def test_empty_check_list_is_refused():
    # a scene with no checks would PASS with nothing evaluated
    with pytest.raises(SceneValidationError, match="at least one check"):
        parse_scene(dict(SPHERE_SCENE, checks=[]))
    spec = parse_scene(SPHERE_SCENE)
    spec.checks = []
    with pytest.raises(SceneValidationError, match="at least one check"):
        run(spec)


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
    assert record["worst_sample"] == 1


@pytest.mark.parametrize(
    "ambient,check,stack_fn",
    [
        ({"kind": "real-space-form", "m": 6, "c": 0.4}, "general_inequality", "general_inequality_stack"),
        (
            {"kind": "kmu-space-form", "m": 3, "kappa": 0.4, "mu": 1.4, "c": -1.8},
            "kmu_space_form_inequality",
            "kmu_space_form_inequality_stack",
        ),
        ({"kind": "non-sasakian-kmu", "m": 3, "kappa": 0.25, "mu": -0.8}, "non_sasakian_inequality", "non_sasakian_inequality_stack"),
    ],
)
def test_an_inequality_record_describes_its_worst_sample(ambient, check, stack_fn):
    import warpcheck.scenes as scenes_mod

    spec = parse_scene(
        {
            "ambient": ambient,
            "source": {"kind": "synthetic", "generator": "c-totally-real" if "mu" in ambient else "random", "n1": 1, "n2": 2},
            "checks": [check],
            "samples": 40,
            "seed": 9,
        }
    )
    (record,) = run(spec).records
    ctx = scenes_mod._Context(spec.ambient_space(), spec.source_data(), spec.tolerance(), np.random.default_rng(9), 40)
    batch = getattr(scenes_mod, stack_fn)(ctx.stack())
    i = int(np.argmin(batch.gap))
    assert i != 39  # the last sample, which the record described before, is not the worst here
    worst = batch.report(i)
    assert record["worst_sample"] == i
    assert record["min_gap"] == worst.gap == np.min(batch.gap)
    assert (record["lhs"], record["rhs"], record["equality"]) == (worst.lhs, worst.rhs, worst.equality)
    assert record["diagnostics"] == worst.diagnostics


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
        tolerances={"algebraic": 1e-8},
        samples=1,
        seed=0,
    )
    report = run(spec)
    assert report.environment["tolerances"] == {"algebraic": 1e-8}
    for removed in ("equality_gap", "finite_difference"):
        with pytest.raises(SceneValidationError, match=removed):
            run(replace(spec, tolerances={removed: 1e-3}))


def test_nan_oracle_values_fail_the_oracle_checks(monkeypatch):
    import warpcheck.scenes as scenes_mod

    original = scenes_mod.make_ambient

    def nan_ambient(kind, **params):
        amb = original(kind, **params)
        # R(u1, phi u1, xi, u1): an entry of the xi slot, which km_condition
        # reads; the phi-sectional contraction carries it into every entry
        amb.oracle.tensor[1, 3, 0, 1] = np.nan
        return amb

    monkeypatch.setattr(scenes_mod, "make_ambient", nan_ambient)
    spec = parse_scene(
        {
            "ambient": {"kind": "sasakian-space-form", "m": 2, "c": 0.5},
            "source": {"kind": "synthetic", "generator": "random", "n1": 1, "n2": 1},
            "checks": ["km_condition", "oracle_symmetries", "phi_sectional"],
            "samples": 10,
            "seed": 0,
        }
    )
    report = run(spec)
    records = {r["name"]: r for r in report.records}
    assert not any(r["pass"] for r in records.values())
    assert np.isnan(records["km_condition"]["residual"])
    assert np.isnan(records["oracle_symmetries"]["max_residual"])
    assert np.isnan(records["phi_sectional"]["spread"])
    # the emitted report is JSON: each NaN reads back as the string "NaN"
    emitted = {r["name"]: r for r in json.loads(emit(report))["records"]}
    assert emitted["km_condition"] == {"name": "km_condition", "pass": False, "residual": "NaN"}
    assert emitted["phi_sectional"]["spread"] == "NaN" and emitted["phi_sectional"]["pass"] is False


def test_a_perturbation_with_the_symmetries_fails_km_and_phi_in_a_scene(monkeypatch):
    # eps S(Y,Z) S(X,W) - eps S(X,Z) S(Y,W), S symmetric, has every symmetry
    # of a curvature tensor, so oracle_symmetries still passes
    import warpcheck.scenes as scenes_mod

    original = scenes_mod.make_ambient

    def perturbed_ambient(kind, **params):
        amb = original(kind, **params)
        S = np.random.default_rng(3).normal(size=(amb.dim, amb.dim))
        S = S + S.T
        T = S[None, :, :, None] * S[:, None, None, :]
        amb.oracle.tensor += 1e-6 * (T - T.transpose(1, 0, 2, 3))
        return amb

    monkeypatch.setattr(scenes_mod, "make_ambient", perturbed_ambient)
    spec = parse_scene(
        {
            "ambient": {"kind": "non-sasakian-kmu", "m": 3, "kappa": 0.2, "mu": 1.2},
            "source": {"kind": "synthetic", "n1": 1, "n2": 1},
            "checks": ["km_condition", "oracle_symmetries", {"name": "phi_sectional", "expect": -1.4}],
        }
    )
    records = {r["name"]: r for r in run(spec).records}
    assert records["oracle_symmetries"]["pass"] is True
    assert records["km_condition"]["pass"] is False and records["km_condition"]["residual"] > 1e-7
    assert records["phi_sectional"]["pass"] is False and records["phi_sectional"]["spread"] > 1e-7


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


def test_a_failing_chart_sample_is_built_once_and_raised_by_every_check_that_needs_it(monkeypatch):
    # at t = pi/2 the sphere's map collapses its S^(n-1) factor to a point
    import warpcheck.scenes as scenes_mod

    scene = {
        "ambient": {"kind": "euclidean", "m": 4},
        "source": {
            "kind": "chart-immersion",
            "key": "sphere-in-euclidean",
            "params": {"n": 3},
            "point": [np.pi / 2, 0.8, 0.8],
        },
        "checks": ["general_inequality", "gauss_residual"],
    }
    alone = [run(parse_scene({**scene, "checks": [name]})).records[0] for name in scene["checks"]]
    calls = []
    original = scenes_mod.second_fundamental_form

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(scenes_mod, "second_fundamental_form", counting)
    records = run(parse_scene(scene)).records
    assert len(calls) == 1
    assert records == alone
    assert [r["error"].split(":")[0] for r in records] == ["ImmersionDegeneracyError"] * 2


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


def test_the_identity_checks_leave_the_random_stream_where_it_was():
    import warpcheck.scenes as scenes_mod

    contact = parse_scene(
        {
            "ambient": {"kind": "sasakian-space-form", "m": 2, "c": -2.5},
            "source": {"kind": "synthetic", "generator": "random", "n1": 1, "n2": 1},
            "checks": ["km_condition", {"name": "phi_sectional", "expect": -2.5}],
        }
    )
    warped = parse_scene(
        {
            "ambient": {"kind": "euclidean", "m": 5},
            "source": {"kind": "warped-chart", "key": "sphere", "params": {"n2": 3}},
            "checks": ["connection_identity", "mixed_sectional"],
        }
    )
    for spec in (contact, warped):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        ctx = scenes_mod._Context(spec.ambient_space(), spec.source_data(), spec.tolerance(), rng, 150)
        for check in spec.checks:
            opts = {k: v for k, v in check.items() if k != "name"}
            assert scenes_mod._CHECKS[check["name"]][0](ctx, opts)["pass"] is True
        assert rng.bit_generator.state == before


def test_moving_the_contact_identity_checks_leaves_every_other_record_byte_identical():
    sampled = ["general_inequality", "decompose", "c_totally_real", "a_xi_identity", "equality_case", "chen_lemma"]
    identities = ["km_condition", {"name": "phi_sectional", "expect": -1.4}]
    scene = {
        "ambient": {"kind": "non-sasakian-kmu", "m": 3, "kappa": 0.2, "mu": 1.2},
        "source": {"kind": "synthetic", "generator": "c-totally-real", "n1": 1, "n2": 2},
        "samples": 30,
        "seed": 17,
    }
    first = run(parse_scene({**scene, "checks": identities + sampled})).records
    last = run(parse_scene({**scene, "checks": sampled + identities})).records
    assert all(r["pass"] for r in first + last)
    assert [_canonical_json(r) for r in first[2:]] == [_canonical_json(r) for r in last[:-2]]
    assert [_canonical_json(r) for r in first[:2]] == [_canonical_json(r) for r in last[-2:]]


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


def test_canonical_json_renders_non_finite_floats_as_json_strings():
    values = [float("nan"), np.float64(-np.nan), float("inf"), np.float32(-np.inf), 1.5, -0.0]
    text = _canonical_json(values)
    assert text == '["NaN", "NaN", "Infinity", "-Infinity", 1.500000000000e+00, -0.000000000000e+00]'
    assert json.loads(text, parse_constant=lambda name: pytest.fail(f"bare {name}")) == [
        "NaN", "NaN", "Infinity", "-Infinity", 1.5, -0.0
    ]


def test_canonical_json_renders_booleans_and_none_as_literals():
    assert _canonical_json([True, np.True_, False, np.False_, None]) == "[true, true, false, false, null]"
    assert _canonical_json({"pass": np.bool_(True), "error": None}) == '{"error": null, "pass": true}'
