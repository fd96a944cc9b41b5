"""One sample stack per run: every sampled check of a scene reads the same
draw of its generator and the K~ table built from it once, and the checks
that report per sample name their worst sample."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import warpcheck.scenes as scenes_mod
from warpcheck.charts import riemann
from warpcheck.contact import _KIJ_BLOCK, CurvatureOracle, ambient_catalog, make_ambient
from warpcheck.errors import InvalidConfigurationError, InvalidInputError
from warpcheck.immersion import (
    gauss_residual,
    is_C_totally_real,
    pullback_metric,
    random_stack,
    second_fundamental_form,
    sphere_in_euclidean,
)
from warpcheck.inequality import (
    NONEXISTENCE,
    UNOBSTRUCTED,
    kmu_space_form_inequality_stack,
    non_sasakian_inequality_stack,
    obstruction_check,
)
from warpcheck.numeric import frame_tensor
from warpcheck.scenes import parse_scene, run

SCENE_DIR = Path(__file__).resolve().parent.parent / "scenes"


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_run_draws_each_generator_once_and_builds_one_kij_table_per_draw(monkeypatch):
    # non_sasakian_random.json runs five sampled checks on the source's
    # c-totally-real draw and equality_case on an "equality" draw
    draws = _counting(monkeypatch, scenes_mod, "random_stack")
    tables = _counting(monkeypatch, CurvatureOracle, "kij")
    report = run(parse_scene(str(SCENE_DIR / "non_sasakian_random.json")))
    assert report.all_passed
    assert len(draws) == 2
    assert [args[4] for args in draws] == [200, 200]  # the scene's samples, each time
    # the c-totally-real draw contracts its 200 frames, the dplus draw its one frame
    assert [len(args[1]) for args in tables] == [200, 1]


def test_an_equality_source_has_one_draw():
    spec = parse_scene(
        {
            "ambient": {"kind": "real-space-form", "m": 5, "c": 0.5},
            "source": {"kind": "synthetic", "generator": "equality", "n1": 1, "n2": 2},
            "checks": ["general_inequality", "equality_case", "decompose", "gauss_residual"],
            "samples": 12,
            "seed": 4,
        }
    )
    ctx = scenes_mod._Context(spec.ambient_space(), spec.source_data(), spec.tolerance(), np.random.default_rng(4), 12)
    assert ctx.stack() is ctx.stack("equality") is ctx.stack()
    assert len(ctx.stack()) == 12


def test_a_fixed_source_is_one_stack_for_every_generator():
    spec = parse_scene(
        {
            "ambient": {"kind": "non-sasakian-kmu", "m": 3, "kappa": 0.5, "mu": 0.3},
            "source": {"kind": "chart-immersion", "key": "dplus-leaf", "params": {"n1": 1, "n2": 1}},
            "checks": ["general_inequality"],
        }
    )
    rng = np.random.default_rng(0)
    ctx = scenes_mod._Context(spec.ambient_space(), spec.source_data(), spec.tolerance(), rng, 30)
    assert ctx.stack() is ctx.stack("equality")
    assert len(ctx.stack()) == 1
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state  # nothing drawn


# --- the K~ table of a stack -------------------------------------------------


def _stack(seed=8):
    amb = make_ambient("non-sasakian-kmu", m=3, kappa=0.4, mu=1.1)
    return random_stack(np.random.default_rng(seed), amb, 1, 2, 6, frame_kind="c-totally-real")


def test_ambient_kij_is_built_once_and_equals_oracle_kij(monkeypatch):
    stack = _stack()
    expected = stack.oracle.kij(stack.tangent)
    calls = _counting(monkeypatch, CurvatureOracle, "kij")
    table = stack.ambient_kij()
    assert stack.ambient_kij() is table
    assert np.array_equal(table, expected)
    assert len(calls) == 1


def test_a_copy_with_the_same_frames_reuses_the_table(monkeypatch):
    stack = _stack()
    table = stack.ambient_kij()
    calls = _counting(monkeypatch, CurvatureOracle, "kij")
    copy = replace(stack, sigma=2.0 * stack.sigma)
    assert copy.ambient_kij() is table
    assert calls == []


def test_a_copy_with_other_frames_or_another_oracle_builds_its_own_table():
    stack = _stack()
    table = stack.ambient_kij()
    other = _stack(9)
    moved = replace(stack, tangent=other.tangent, normal=other.normal)
    assert np.array_equal(moved.ambient_kij(), other.oracle.kij(other.tangent))
    assert not np.array_equal(moved.ambient_kij(), table)
    flat = CurvatureOracle("flat", np.zeros((7,) * 4))
    assert not replace(stack, oracle=flat).ambient_kij().any()
    assert stack.ambient_kij() is table


def test_the_tangent_of_a_stack_or_a_sample_cannot_be_written_in_place():
    stack = _stack()
    stack.ambient_kij()
    for tangent in (stack.tangent, stack.sample(2).tangent, stack.sample(-1).tangent):
        with pytest.raises(ValueError, match="read-only"):
            tangent[0, 0] = 1.0


# one parameter set per catalog kind; the contact kinds are those with a frame
_KIND_PARAMS = {
    "euclidean": {},
    "real-space-form": {"c": 0.5},
    "sasakian-space-form": {"c": -2.0},
    "kmu-space-form": {"kappa": 0.35, "mu": -1.2, "c": 2.4},
    "non-sasakian-kmu": {"kappa": 0.4, "mu": 1.1},
    "tangent-sphere-bundle": {"c": 0.4},
}
_CONTACT_KINDS = [k for k, p in _KIND_PARAMS.items() if make_ambient(k, m=1, **p).frame is not None]


def test_the_dplus_cases_cover_every_contact_kind_of_the_catalog():
    assert set(_KIND_PARAMS) == set(ambient_catalog())
    assert len(_CONTACT_KINDS) == 4


@pytest.mark.parametrize("count", [1, 7, _KIJ_BLOCK + 1])
@pytest.mark.parametrize("kind", _CONTACT_KINDS)
def test_a_dplus_draw_contracts_its_one_frame_once_for_the_table_of_the_stack(monkeypatch, kind, count):
    # every split n1 + n2 = n <= m of the positive eigenspace, at m = 1..4;
    # the last count is past one block of CurvatureOracle.kij
    for m in range(1, 5):
        amb = make_ambient(kind, m=m, **_KIND_PARAMS[kind])
        for n in range(1, m + 1):
            for n1 in range(1, n + 1):
                with monkeypatch.context() as patch:
                    calls = _counting(patch, CurvatureOracle, "kij")
                    stack = random_stack(np.random.default_rng(m), amb, n1, n - n1, count, frame_kind="dplus")
                    table = stack.ambient_kij()
                assert [args[1].shape for args in calls] == [(1, amb.dim, n)]
                assert table.shape == (count, n, n)
                assert np.array_equal(table, stack.oracle.kij(stack.tangent))


def _tensordot_frame(R, F):
    """R(F[:, a], F[:, b], F[:, c], F[:, d]) as four one-slot tensordots, the
    reference for numeric.frame_tensor."""
    for _ in range(4):  # contract the leading slot with F, its new index goes last
        R = np.tensordot(R, F, (0, 0))
    return R


def test_the_tangent_tensor_is_the_rotated_oracle():
    stack = _stack()
    tensor = frame_tensor(stack.oracle.tensor, stack.tangent)
    for i in range(len(stack)):
        assert np.array_equal(tensor[i], _tensordot_frame(stack.oracle.tensor, stack.tangent[i]))
        one = frame_tensor(stack.oracle.tensor, stack.tangent[i : i + 1])[0]
        assert np.array_equal(tensor[i], one)


@pytest.mark.parametrize("n", range(2, 9))
def test_the_chart_pullback_tensor_in_its_frame_is_the_rotated_oracle(n):
    # the chart gauss_residual rotates the pull-back tensor into the frame of
    # second_fundamental_form, at the default point and the sample points
    im = sphere_in_euclidean(n)
    for p in [im.default_point, *im.warped.sample_points]:
        coeff = second_fundamental_form(im, p).extras["frame_coefficients"]
        R = riemann(pullback_metric(im), p).riemann04
        expected = _tensordot_frame(R, coeff)
        assert np.array_equal(frame_tensor(R, coeff[None])[0], expected)


def test_a_non_finite_pullback_tensor_fails_the_chart_gauss_record(monkeypatch):
    original = scenes_mod.riemann

    def poisoned(*args, **kwargs):
        cp = original(*args, **kwargs)
        cp.riemann04[0, 1, 1, 0] = np.nan
        return cp

    monkeypatch.setattr(scenes_mod, "riemann", poisoned)
    scene = {
        "ambient": {"kind": "euclidean", "m": 3},
        "source": {"kind": "chart-immersion", "key": "sphere-in-euclidean", "params": {"n": 2}},
        "checks": ["general_inequality", "gauss_residual"],
    }
    general, gauss = run(parse_scene(scene)).records
    assert general["pass"] is True
    assert gauss["pass"] is False
    assert np.isnan(gauss["gauss_max"]) and np.isnan(gauss["kij_max"])


# --- gauss_residual on a stack -------------------------------------------------

GAUSS_AMBIENTS = [
    ("sasakian-space-form", {"m": 3, "c": -1.5}, "c-totally-real"),
    ("kmu-space-form", {"m": 3, "kappa": 0.4, "mu": 1.4, "c": -1.8}, "c-totally-real"),
    ("non-sasakian-kmu", {"m": 3, "kappa": 0.4, "mu": 1.1}, "c-totally-real"),
    ("tangent-sphere-bundle", {"m": 3, "c": 0.5}, "c-totally-real"),
    ("non-sasakian-kmu", {"m": 4, "kappa": -0.3, "mu": 0.6}, "generic"),
    ("real-space-form", {"m": 5, "c": 0.7}, "generic"),
]


@pytest.mark.parametrize("kind,params,frame_kind", GAUSS_AMBIENTS)
@pytest.mark.parametrize("perturbed", [False, True], ids=["closure", "perturbed-intrinsic"])
def test_stacked_gauss_residual_equals_the_per_sample_calls(kind, params, frame_kind, perturbed):
    amb = make_ambient(kind, **params)
    stack = random_stack(np.random.default_rng(31), amb, 1, 2, 9, frame_kind=frame_kind)
    intrinsic = None
    if perturbed:
        intrinsic = np.random.default_rng(32).normal(size=(9,) + (3,) * 4)
    got = gauss_residual(stack, intrinsic=intrinsic)
    for i in range(len(stack)):
        one = gauss_residual(stack.sample(i), intrinsic=None if intrinsic is None else intrinsic[i])
        assert set(one) == set(got) == {"gauss_max", "kij_max", "tau_identity_residual"}
        for key, value in one.items():
            assert value.shape == (1,)
            assert np.array_equal(got[key][i : i + 1], value), (key, i)
    if not perturbed:
        # definitional closure: exactly zero
        assert not got["gauss_max"].any() and not got["kij_max"].any()


def test_stacked_gauss_residual_broadcasts_one_intrinsic_tensor():
    stack = _stack()
    nan = gauss_residual(stack, intrinsic=np.full((3,) * 4, np.nan))
    assert all(np.isnan(v).all() and v.shape == (6,) for v in nan.values())
    with pytest.raises(InvalidInputError, match=r"\(6, 3, 3, 3, 3\)"):
        gauss_residual(stack, intrinsic=np.zeros((5,) + (3,) * 4))


# --- obstruction verdicts per sample --------------------------------------------


def test_obstruction_check_on_a_stack_is_the_per_sample_verdict():
    amb = make_ambient("non-sasakian-kmu", m=3, kappa=0.75, mu=2.9)
    stack = random_stack(np.random.default_rng(3), amb, 1, 1, 40, 0.0, "c-totally-real")
    verdicts = obstruction_check(non_sasakian_inequality_stack(stack), harmonic=True, minimal=True)
    expected = [
        obstruction_check(non_sasakian_inequality_stack(stack.sample(i)), harmonic=True, minimal=True)[0]
        for i in range(len(stack))
    ]
    assert verdicts.tolist() == expected
    assert {NONEXISTENCE, UNOBSTRUCTED} <= set(expected)  # the verdict depends on the frame


def test_obstruction_check_names_the_sample_that_is_not_minimal():
    amb = make_ambient("sasakian-space-form", m=3, c=-4.0)
    stack = random_stack(np.random.default_rng(3), amb, 1, 1, 5, 0.0, "c-totally-real")
    sigma = stack.sigma.copy()
    sigma[3, 1, 0, 0] = 1.0
    batch = kmu_space_form_inequality_stack(replace(stack, sigma=sigma))
    with pytest.raises(InvalidConfigurationError, match=r"\|H\| = 5.000e-01 in sample 3"):
        obstruction_check(batch, harmonic=True, minimal=True)
    one = kmu_space_form_inequality_stack(stack.sample(0))
    assert obstruction_check(one, harmonic=True, minimal=True).tolist() == [NONEXISTENCE]


def test_a_split_obstruction_passes_without_expect_and_counts_each_verdict():
    scene = {
        "ambient": {"kind": "non-sasakian-kmu", "m": 3, "kappa": 0.75, "mu": 2.9},
        "source": {"kind": "synthetic", "generator": "minimal", "n1": 1, "n2": 1},
        "checks": [{"name": "obstruction", "harmonic": True, "minimal": True}],
        "samples": 40,
        "seed": 3,
    }
    (record,) = run(parse_scene(scene)).records
    counts = record["verdicts"]
    assert record["pass"] is True
    assert sum(counts.values()) == 40 and counts[NONEXISTENCE] and counts[UNOBSTRUCTED]
    scene["checks"] = [{"name": "obstruction", "harmonic": True, "minimal": True, "expect": UNOBSTRUCTED}]
    (record,) = run(parse_scene(scene)).records
    assert record["pass"] is False
    assert record["verdict"] == NONEXISTENCE and record["verdicts"] == counts


# --- one bad draw among twenty ---------------------------------------------------


def _frame(d, tangent_axes):
    eye = np.eye(d)
    normal_axes = [a for a in range(d) if a not in tangent_axes]
    return eye[:, list(tangent_axes)], eye[:, normal_axes]


def _xi_tangent(stack):
    """Sample 1 spans xi and e_1: not C-totally real."""
    tangent, normal = stack.tangent.copy(), stack.normal.copy()
    tangent[1], normal[1] = _frame(tangent.shape[1], (0, 1))
    return replace(stack, tangent=tangent, normal=normal)


def _xi_component(stack):
    """Sample 1's sigma along xi (normal column 0 of a c-totally-real frame)
    no longer equals the tangential part of phi h."""
    sigma = stack.sigma.copy()
    sigma[1, 0] += 0.1 * np.eye(stack.n)
    return replace(stack, sigma=sigma)


def _dplus_among_dminus(stack):
    """Every sample spans e_4, e_5 in D-, where the curvature term is
    2 - mu - 2 sqrt(1 - kappa) < 0; sample 1 spans e_1, e_2 in D+, where it
    is 2 - mu + 2 sqrt(1 - kappa) > 0."""
    d = stack.tangent.shape[1]
    tangent, normal = (np.repeat(a[None], len(stack), axis=0) for a in _frame(d, (4, 5)))
    tangent[1], normal[1] = _frame(d, (1, 2))
    return replace(stack, tangent=tangent, normal=normal)


SASAKIAN = {"kind": "sasakian-space-form", "m": 3, "c": -4.0}
BAD_DRAWS = [
    (SASAKIAN, {"name": "c_totally_real"}, _xi_tangent, "xi_tangency"),
    (SASAKIAN, {"name": "c_totally_real", "expect": True}, _xi_tangent, "xi_tangency"),
    (SASAKIAN, {"name": "a_xi_identity"}, _xi_component, "residual"),
    (
        {"kind": "non-sasakian-kmu", "m": 3, "kappa": 0.75, "mu": 2.9},
        {"name": "obstruction", "harmonic": True, "minimal": True, "expect": NONEXISTENCE},
        _dplus_among_dminus,
        "rhs_curvature_term",
    ),
]


@pytest.mark.parametrize(
    "ambient,check,spoil,key", BAD_DRAWS, ids=["c_totally_real", "c_totally_real-expect", "a_xi_identity", "obstruction"]
)
def test_one_bad_draw_fails_the_check_and_is_named(monkeypatch, ambient, check, spoil, key):
    original = scenes_mod.random_stack

    def second_draw_spoiled(*args, **kwargs):
        stack = original(*args, **kwargs)
        return spoil(stack) if len(stack) > 1 else stack

    scene = {
        "ambient": ambient,
        "source": {"kind": "synthetic", "generator": "minimal", "n1": 1, "n2": 1},
        "checks": [check],
        "samples": 20,
        "seed": 11,
    }
    (clean,) = run(parse_scene(scene)).records
    monkeypatch.setattr(scenes_mod, "random_stack", second_draw_spoiled)
    (record,) = run(parse_scene(scene)).records
    assert "error" not in record, record
    assert record["pass"] is False and record["worst_sample"] == 1
    assert record[key] != clean[key]
    if check["name"] == "obstruction":
        assert record["verdict"] == UNOBSTRUCTED
        assert record["verdicts"] == {NONEXISTENCE: 19, UNOBSTRUCTED: 1, "WARPED_PRODUCT_IMMERSION": 0}
    if check["name"] == "c_totally_real":
        assert record["c_totally_real"] is False and record["xi_tangency"] == 1.0


def test_an_expectation_of_false_names_the_sample_nearest_to_c_total_reality():
    scene = {
        "ambient": SASAKIAN,
        "source": {"kind": "synthetic", "generator": "random", "n1": 1, "n2": 1},
        "checks": [{"name": "c_totally_real", "expect": False}],
        "samples": 20,
        "seed": 11,
    }
    spec = parse_scene(scene)
    (record,) = run(spec).records
    ctx = scenes_mod._Context(spec.ambient_space(), spec.source_data(), spec.tolerance(), np.random.default_rng(11), 20)
    ok, residuals = is_C_totally_real(ctx.stack())
    nearest = int(np.argmin(np.maximum(residuals["xi_tangency"], residuals["anti_invariance"])))
    assert not ok.any()
    assert record["pass"] is True and record["c_totally_real"] is False
    assert record["worst_sample"] == nearest
    assert record["xi_tangency"] == residuals["xi_tangency"][nearest]


def test_gauss_residual_reports_the_worst_sample_of_the_run(monkeypatch):
    original = scenes_mod.gauss_residual

    def nan_in_sample_3(stack, **kwargs):
        intrinsic = np.zeros((len(stack),) + (stack.n,) * 4)
        intrinsic[3] = np.nan
        res = original(stack, **kwargs)
        res["gauss_max"] = original(stack, intrinsic=intrinsic, **kwargs)["gauss_max"]
        return res

    monkeypatch.setattr(scenes_mod, "gauss_residual", nan_in_sample_3)
    scene = {
        "ambient": {"kind": "real-space-form", "m": 5, "c": 1.0},
        "source": {"kind": "synthetic", "generator": "random", "n1": 1, "n2": 1},
        "checks": ["gauss_residual"],
        "samples": 8,
        "seed": 0,
    }
    (record,) = run(parse_scene(scene)).records
    assert record["pass"] is False and record["worst_sample"] == 3 and np.isnan(record["gauss_max"])
