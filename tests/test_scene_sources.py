"""Scene input is read once, at parse time: every source kind is built by one
builder, every check states the sources and ambients it needs, and bad
numbers exit 2 before anything is drawn."""

import json
from pathlib import Path

import numpy as np
import pytest

from warpcheck.cli import main as cli_main
from warpcheck.errors import InvalidInputError, SceneValidationError
from warpcheck.numeric import Tolerance
from warpcheck.scenes import RunReport, SceneSpec, emit, parse_scene, run

SCENE_DIR = Path(__file__).resolve().parent.parent / "scenes"

REAL = {
    "ambient": {"kind": "real-space-form", "m": 5, "c": 0.6},
    "source": {"kind": "synthetic", "generator": "random", "n1": 1, "n2": 1},
    "checks": ["oracle_symmetries", "general_inequality"],
    "samples": 10,
    "seed": 0,
}
SASAKIAN = {
    "ambient": {"kind": "sasakian-space-form", "m": 3, "c": -4.0},
    "source": {"kind": "synthetic", "generator": "minimal", "n1": 1, "n2": 1},
    "checks": ["phi_sectional", "km_condition"],
    "samples": 10,
    "seed": 3,
}
SPHERE_IMMERSION = {
    "ambient": {"kind": "euclidean", "m": 3},
    "source": {"kind": "chart-immersion", "key": "sphere-in-euclidean", "params": {"n": 2}},
    "checks": ["general_inequality", "gauss_residual"],
    "seed": 7,
}


def _verify(tmp_path, scene, *flags):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    return cli_main(["verify", str(path), "--output", "json", "--out", str(tmp_path / "report.json"), *flags])


def _rejected(tmp_path, capsys, scene, *flags) -> str:
    """Verify the scene, assert exit code 2 and return the error line."""
    assert _verify(tmp_path, scene, *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    return err


def _explicit_zero_sigma_source(**dims):
    tangent = np.linalg.qr(np.random.default_rng(3).normal(size=(5, 5)))[0][:, :2]
    return {"kind": "explicit", **dims, "tangent": tangent.tolist(), "sigma": np.zeros((3, 2, 2)).tolist()}


# --- scene numbers --------------------------------------------------------


@pytest.mark.parametrize("samples", [0, -5, "abc", True, 2.5, None])
def test_scene_samples_must_be_a_positive_integer(tmp_path, capsys, samples):
    err = _rejected(tmp_path, capsys, dict(REAL, samples=samples))
    assert "samples must be an integer >= 1" in err


def test_zero_samples_on_a_sasakian_scene_exits_2(tmp_path, capsys):
    _rejected(tmp_path, capsys, dict(SASAKIAN, samples=0))


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_samples_flag_must_be_a_positive_integer(tmp_path, capsys, samples):
    err = _rejected(tmp_path, capsys, REAL, "--samples", samples)
    assert "samples must be an integer >= 1" in err


def test_run_rejects_a_non_positive_sample_count():
    spec = parse_scene(REAL)
    with pytest.raises(SceneValidationError, match="samples"):
        run(spec, samples=0)
    with pytest.raises(SceneValidationError, match="samples"):
        run(spec, samples=True)


@pytest.mark.parametrize("seed", ["abc", -1, 1.5, False])
def test_scene_seed_must_be_an_integer_or_null(tmp_path, capsys, seed):
    err = _rejected(tmp_path, capsys, dict(REAL, seed=seed))
    assert "seed must be an integer >= 0" in err


def test_a_null_seed_is_accepted(tmp_path):
    assert _verify(tmp_path, dict(REAL, seed=None)) == 0


@pytest.mark.parametrize(
    "tolerances",
    [{"algebraic": "x"}, {"algebraic": float("nan")}, {"algebraic": float("inf")},
     {"algebraic": 0.0}, {"algebraic": -1e-10}, {"step": 1e-3}, {"equality_gap": 1e-6},
     {"finite_difference": 1e-4}],
    ids=["string", "nan", "inf", "zero", "negative", "unknown-key", "removed-equality-gap",
         "removed-finite-difference"],
)
def test_bad_scene_tolerances_exit_2(tmp_path, capsys, tolerances):
    err = _rejected(tmp_path, capsys, dict(REAL, tolerances=tolerances))
    assert "bad tolerances" in err
    assert not set(tolerances) - {"algebraic"} or f"'{next(iter(tolerances))}'" in err


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-0.0001"])
def test_bad_tolerance_flags_exit_2(tmp_path, capsys, value):
    _rejected(tmp_path, capsys, REAL, "--tol-algebraic", value)


def test_the_removed_step_flag_exits_2(tmp_path, capsys):
    # the central difference has a fixed step, numeric.FD_STEP
    with pytest.raises(SystemExit) as exc:
        _verify(tmp_path, REAL, "--tol-fd", "1e-4")
    assert exc.value.code == 2
    assert "--tol-fd" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_tolerance_rejects_non_finite_values(value):
    with pytest.raises(InvalidInputError, match="finite"):
        Tolerance(algebraic=value)


def test_scene_tolerances_lie_over_the_defaults_and_flags_over_both():
    spec = parse_scene(dict(REAL, tolerances={"algebraic": 1e-9}))
    assert spec.tolerance() == Tolerance(algebraic=1e-9)
    assert spec.tolerance(algebraic=None) == Tolerance(algebraic=1e-9)
    assert spec.tolerance(algebraic=1e-8) == Tolerance(algebraic=1e-8)
    assert run(spec).environment["tolerances"] == {"algebraic": 1e-9}


# --- source descriptors ---------------------------------------------------


def test_explicit_source_dimensions_default_to_one(tmp_path):
    scene = {
        "ambient": {"kind": "real-space-form", "m": 5, "c": 0.6},
        "source": _explicit_zero_sigma_source(),
        "checks": ["general_inequality", "decompose"],
        "seed": 0,
    }
    assert _verify(tmp_path, scene) == 0
    defaulted = json.loads((tmp_path / "report.json").read_text())["records"]
    scene["source"] = _explicit_zero_sigma_source(n1=1, n2=1)
    assert _verify(tmp_path, scene) == 0
    assert json.loads((tmp_path / "report.json").read_text())["records"] == defaulted


@pytest.mark.parametrize("dims", [{"n1": 0}, {"n2": "two"}, {"n1": 1.5}, {"n2": True}])
def test_source_dimensions_must_be_positive_integers(tmp_path, capsys, dims):
    _rejected(tmp_path, capsys, dict(REAL, source={**REAL["source"], **dims}))
    scene = dict(REAL, source=_explicit_zero_sigma_source(**dims), checks=["general_inequality"])
    _rejected(tmp_path, capsys, scene)
    leaf = {"kind": "chart-immersion", "key": "dplus-leaf", "params": dims}
    _rejected(tmp_path, capsys, dict(SASAKIAN, source=leaf, checks=["general_inequality"]))


def test_unknown_generator_exits_2(tmp_path, capsys):
    err = _rejected(tmp_path, capsys, dict(REAL, source={**REAL["source"], "generator": "spiral"}))
    assert "unknown generator 'spiral'" in err


@pytest.mark.parametrize(
    "point", [[0.3], [0.3, 0.8, 0.1], [0.3, float("nan")]], ids=["short", "long", "nan"]
)
def test_chart_immersion_point_is_validated(tmp_path, capsys, point):
    scene = dict(SPHERE_IMMERSION, source={**SPHERE_IMMERSION["source"], "point": point})
    _rejected(tmp_path, capsys, scene)


def test_chart_immersion_point_is_used():
    def gaps(**point):
        scene = dict(SPHERE_IMMERSION, source={**SPHERE_IMMERSION["source"], **point})
        return [r["gap"] for r in run(parse_scene(scene)).records if "gap" in r]

    # [0.3, 0.8] is the catalog's default point
    assert gaps() == gaps(point=[0.3, 0.8]) != gaps(point=[0.1, 0.5])


def test_explicit_warped_points_must_match_the_chart_dimension(tmp_path, capsys):
    scene = {
        "ambient": {"kind": "euclidean", "m": 3},
        "source": {
            "kind": "explicit-warped",
            "factor1": {"kind": "euclidean", "dim": 1},
            "factor2": {"kind": "euclidean", "dim": 2},
            "warping": {"kind": "exp"},
            "points": [[0.3, 0.1, 0.2], [-0.4, 0.0]],
        },
        "checks": ["laplacian_ratio"],
        "seed": 2,
    }
    err = _rejected(tmp_path, capsys, scene)
    assert "dimension 3" in err


def test_dplus_leaf_has_no_warped_chart(tmp_path, capsys):
    scene = {
        "ambient": {"kind": "non-sasakian-kmu", "m": 3, "kappa": 0.5, "mu": 0.7},
        "source": {"kind": "chart-immersion", "key": "dplus-leaf"},
        "checks": ["general_inequality", "laplacian_ratio"],
    }
    err = _rejected(tmp_path, capsys, scene)
    assert "['laplacian_ratio']" in err and "warped chart" in err


def test_pointwise_checks_need_pointwise_data(tmp_path, capsys):
    scene = {
        "ambient": {"kind": "euclidean", "m": 5},
        "source": {"kind": "warped-chart", "key": "sphere", "params": {"n2": 3}},
        "checks": ["laplacian_ratio", "general_inequality", "decompose", "equality_case", "gauss_residual"],
        "seed": 0,
    }
    err = _rejected(tmp_path, capsys, scene)
    assert "['decompose', 'equality_case', 'gauss_residual', 'general_inequality']" in err


def test_run_validates_a_spec_that_was_not_parsed():
    spec = SceneSpec(
        ambient={"kind": "euclidean", "m": 4},
        source={"kind": "warped-chart", "key": "sphere"},
        checks=[{"name": "general_inequality"}],
    )
    with pytest.raises(SceneValidationError, match=r"\['general_inequality'\] need"):
        run(spec)


def test_bad_source_parameters_exit_2(tmp_path, capsys):
    _rejected(tmp_path, capsys, dict(REAL, source={**REAL["source"], "sigma_scale": "wide"}))
    scene = dict(SPHERE_IMMERSION, source={**SPHERE_IMMERSION["source"], "params": {"radius": 2}})
    _rejected(tmp_path, capsys, scene)


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), -float("inf"), -1, True, "0.5"])
def test_synthetic_sigma_scale_must_be_a_finite_non_negative_number(tmp_path, capsys, scale):
    err = _rejected(tmp_path, capsys, dict(REAL, source={**REAL["source"], "sigma_scale": scale}))
    assert f"sigma_scale must be a finite number >= 0 (got {scale!r})" in err


EXPLICIT_WARPED = {
    "ambient": {"kind": "euclidean", "m": 3},
    "source": {
        "kind": "explicit-warped",
        "factor1": {"kind": "euclidean", "dim": 1},
        "factor2": {"kind": "euclidean", "dim": 1},
        "warping": {"kind": "exp"},
        "points": [[0.3, 0.1]],
    },
    "checks": ["laplacian_ratio"],
    "seed": 2,
}


def _explicit_warped(**source):
    return dict(EXPLICIT_WARPED, source={**EXPLICIT_WARPED["source"], **source})


@pytest.mark.parametrize("factor", ["factor1", "factor2"])
@pytest.mark.parametrize("dim", [1.7, True, "2", 0])
def test_explicit_warped_factor_dim_must_be_a_positive_integer(tmp_path, capsys, factor, dim):
    err = _rejected(tmp_path, capsys, _explicit_warped(**{factor: {"kind": "euclidean", "dim": dim}}))
    assert f"{factor} 'dim' must be an integer >= 1 (got {dim!r})" in err


_WARPING_NUMBER_FIELDS = [
    (lambda x: {"kind": "const", "a": x}, "warping const 'a'"),
    (lambda x: {"kind": "polynomial", "coeffs": [1.0, x]}, "warping polynomial coeffs[1]"),
    (
        lambda x: {"kind": "sum", "terms": [{"kind": "exp"}, {"kind": "const", "a": x}]},
        "warping sum terms[1] const 'a'",
    ),
    (
        lambda x: {"kind": "product", "terms": [{"kind": "polynomial", "coeffs": [x]}, {"kind": "cos"}]},
        "warping product terms[0] polynomial coeffs[0]",
    ),
]


@pytest.mark.parametrize("field", _WARPING_NUMBER_FIELDS, ids=lambda f: f[1])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), True, "0.5"])
def test_warping_numbers_must_be_finite_numbers(tmp_path, capsys, field, value):
    descriptor, name = field
    err = _rejected(tmp_path, capsys, _explicit_warped(warping=descriptor(value)))
    assert f"{name} must be a finite number (got {value!r})" in err


def test_a_mixed_coefficient_list_is_rejected_at_its_first_bad_entry(tmp_path, capsys):
    err = _rejected(tmp_path, capsys, _explicit_warped(warping={"kind": "polynomial", "coeffs": [1.0, "0.5", True]}))
    assert "warping polynomial coeffs[1] must be a finite number (got '0.5')" in err


@pytest.mark.parametrize(
    "warping,message",
    [
        ({"kind": "polynomial", "coeffs": 3}, "warping polynomial needs a non-empty 'coeffs' list"),
        ({"kind": "polynomial", "coeffs": []}, "warping polynomial needs a non-empty 'coeffs' list"),
        ({"kind": "sum", "terms": 3}, "warping sum needs at least two terms"),
    ],
)
def test_warping_lists_must_be_lists(tmp_path, capsys, warping, message):
    assert message in _rejected(tmp_path, capsys, _explicit_warped(warping=warping))


@pytest.mark.parametrize(
    "warping",
    [{"kind": "exp"}, {"kind": "sum", "terms": [{"kind": "const", "a": 2}, {"kind": "polynomial", "coeffs": [1, 0.5, -0.25]}]}],
)
def test_finite_warping_numbers_are_accepted(tmp_path, warping):
    assert _verify(tmp_path, _explicit_warped(warping=warping)) == 0


def test_synthetic_sigma_scale_zero_is_accepted(tmp_path):
    assert _verify(tmp_path, dict(REAL, source={**REAL["source"], "sigma_scale": 0})) == 0


# --- one shared source ----------------------------------------------------


def test_verify_builds_the_chart_immersion_once(monkeypatch, tmp_path):
    import warpcheck.scenes as scenes_mod

    calls = []
    original = scenes_mod.chart_immersion_catalog

    def counting_catalog():
        def counted(key, build):
            return lambda **params: calls.append(key) or build(**params)

        return {key: counted(key, build) for key, build in original().items()}

    monkeypatch.setattr(scenes_mod, "chart_immersion_catalog", counting_catalog)
    argv = ["verify", str(SCENE_DIR / "sphere.json"), "--output", "json"]
    assert cli_main(argv + ["--out", str(tmp_path / "report.json")]) == 0
    assert calls == ["sphere-in-euclidean"]


@pytest.mark.parametrize("name", ["sphere.json", "non_sasakian_random.json"])
def test_runs_of_one_spec_match_fresh_parses(name):
    path = SCENE_DIR / name
    spec = parse_scene(str(path))
    coarse = spec.tolerance(algebraic=1e-8)
    shared = [emit(run(spec), "json"), emit(run(spec, tolerances=coarse), "json"), emit(run(spec), "json")]
    fresh = [emit(run(parse_scene(str(path))), "json"), emit(run(parse_scene(str(path)), tolerances=coarse), "json")]
    assert shared == [fresh[0], fresh[1], fresh[0]]
    assert fresh[1] != fresh[0]  # the tolerance reaches the report


# --- emission -------------------------------------------------------------


def test_canonical_json_converts_numpy_values_as_it_renders():
    def report(records):
        return RunReport(scene={}, records=records, environment={"seed": 1}, wall_time=0.0)

    numpy_record = {
        "b": np.float64(0.25),
        "a": np.array([[1.0, 2.0], [3.0, 4.0]]),
        "c": (np.int64(3), np.bool_(True), np.float32(0.5)),
        2: None,
    }
    plain_record = {"b": 0.25, "a": [[1.0, 2.0], [3.0, 4.0]], "c": [3, True, 0.5], "2": None}
    assert emit(report([numpy_record]), "json") == emit(report([plain_record]), "json")
    assert emit(report([plain_record]), "json") == (
        b'{"environment": {"seed": 1}, "records": [{"2": null, '
        b'"a": [[1.000000000000e+00, 2.000000000000e+00], [3.000000000000e+00, 4.000000000000e+00]], '
        b'"b": 2.500000000000e-01, "c": [3, true, 5.000000000000e-01]}], "scene": {}}\n'
    )
