
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import warpcheck
from warpcheck import charts, immersion, inequality
from warpcheck.contact import KAPPA_SINGULAR, make_ambient
from warpcheck.errors import (
    InadmissibleTupleError,
    InvalidConfigurationError,
    InvalidInputError,
    InvalidWarpingError,
    SceneValidationError,
    NumericalDomainError,
    SingularParameterError,
)
from warpcheck.immersion import (
    ChartImmersion,
    _spherical_point,
    balance_for_equality,
    dplus_leaf_in,
    force_xi_consistency,
    intrinsic_kij,
    is_mixed_totally_geodesic,
    mean_curvatures,
    random_data,
    random_stack,
)
from warpcheck.inequality import (
    NONEXISTENCE,
    UNOBSTRUCTED,
    WARPED_PRODUCT_IMMERSION,
    chart_inequality,
    chen_lemma,
    decompose_stack,
    general_inequality,
    general_inequality_stack,
    kmu_space_form_inequality_stack,
    non_sasakian_inequality_stack,
    obstruction_check,
)
from warpcheck.scenes import parse_scene, run
from warpcheck.warped import WarpedProductChart, const_fn, cos_fn, flat_factor, round_sphere_factor, sum_fn


# --- the trace lemma -------------------------------------------------------


def test_lemma_equality_tuple():
    res = chen_lemma([1.0, 2.0, 3.0], 4.0)
    assert res["holds"] and res["equality"] and res["tail_condition"]


def test_lemma_strict_tuple():
    res = chen_lemma([1.0, 1.0, 3.0], 1.5)
    assert res["holds"] and not res["equality"] and not res["tail_condition"]
    assert abs(res["slack"] - 0.5) < 1e-12


def test_lemma_two_values_always_equality():
    x = 0.8
    res = chen_lemma([x, x], 2 * x * x)
    assert res["equality"] and res["tail_condition"]


def test_lemma_rejects_inadmissible():
    with pytest.raises(InadmissibleTupleError):
        chen_lemma([1.0, 2.0, 3.0], 100.0)


@pytest.mark.parametrize(
    "a,b",
    [([1.0, 2.0], np.inf), ([np.inf, 1.0], 0.0), ([1.0, np.nan, 2.0], 1.0), ([1.0, 2.0], -np.inf)],
)
def test_lemma_refuses_a_non_finite_value(a, b):
    # before, ([1, 2], inf) held with equality at slack -inf, and ([inf, 1], 0)
    # held with equality at a NaN constraint residual
    with pytest.raises(NumericalDomainError, match="non-finite input"):
        chen_lemma(a, b)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 10),
    st.integers(0, 2**31 - 1),
    st.booleans(),
)
def test_lemma_randomized(ell, seed, force_equality):
    rng = np.random.default_rng(seed)
    a = list(rng.normal(size=ell))
    if force_equality and ell >= 3:
        a = [a[0], a[1]] + [a[0] + a[1]] * (ell - 2)
    s = sum(a)
    b = s * s / (ell - 1) - sum(v * v for v in a)
    res = chen_lemma(a, b)
    assert res["holds"]
    assert res["equality"] == res["tail_condition"]


# --- decomposition ---------------------------------------------------------


def test_decompose_zero_sigma():
    rng = np.random.default_rng(0)
    amb = make_ambient("euclidean", m=5)
    data = random_data(rng, amb, 1, 2, sigma_scale=0.0)
    dec = decompose_stack(data)
    assert dec.a1[0] == dec.a2[0] == dec.a3[0] == 0.0
    assert abs(dec.b[0] - dec.delta[0]) < 1e-12
    assert dec.delta[0] <= 1e-12  # forced by 2 a1 a2 >= b with a = 0


def test_decompose_constraint_residual():
    rng = np.random.default_rng(1)
    amb = make_ambient("kmu-space-form", m=3, kappa=0.5, mu=0.3, c=-0.4)
    for _ in range(200):
        data = random_data(rng, amb, 2, 2)
        dec = decompose_stack(data)
        assert dec.ai_residual[0] < 1e-9
        assert dec.lemma_slack[0] >= -1e-9
        # equality in the lemma step holds exactly when a1 + a2 = a3
        assert (abs(dec.lemma_slack[0]) < 1e-9) == dec.lemma_equality[0]


def test_decompose_sphere_data():
    from warpcheck.immersion import second_fundamental_form, sphere_in_euclidean

    im = sphere_in_euclidean(2)
    data = second_fundamental_form(im, im.default_point)
    dec = decompose_stack(data)
    assert dec.ai_residual[0] < 1e-9


def test_decompose_equality_detection():
    rng = np.random.default_rng(2)
    amb = make_ambient("euclidean", m=6)
    data = random_data(rng, amb, 2, 2)
    data.sigma = balance_for_equality(data.sigma, 2)
    dec = decompose_stack(data)
    assert dec.lemma_equality[0]
    assert abs(dec.lemma_slack[0]) < 1e-9
    assert max(dec.trace_residuals[0]) < 1e-9


# --- the general inequality ------------------------------------------------


AMBIENTS = [
    ("euclidean", {"m": 7}),
    ("real-space-form", {"m": 6, "c": -1.0}),
    ("kmu-space-form", {"m": 3, "kappa": 0.5, "mu": -1.0, "c": 1.7}),
    ("sasakian-space-form", {"m": 3, "c": -2.0}),
    ("non-sasakian-kmu", {"m": 3, "kappa": 0.2, "mu": 0.8}),
]


@pytest.mark.parametrize("kind,params", AMBIENTS)
def test_general_inequality_randomized(kind, params):
    rng = np.random.default_rng(3)
    amb = make_ambient(kind, **params)
    for _ in range(300):
        n1 = int(rng.integers(1, 3))
        n2 = int(rng.integers(1, 3))
        data = random_data(rng, amb, n1, n2)
        rep = general_inequality(data)
        assert rep.gap >= -1e-9


def test_zero_sigma_flat_equality():
    rng = np.random.default_rng(4)
    amb = make_ambient("euclidean", m=5)
    data = random_data(rng, amb, 1, 1, sigma_scale=0.0)
    rep = general_inequality(data)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.equality


def test_equality_characterization_both_directions():
    rng = np.random.default_rng(5)
    amb = make_ambient("euclidean", m=7)
    for _ in range(100):
        data = random_data(rng, amb, 2, 2)
        data.sigma = balance_for_equality(data.sigma, 2)
        rep = general_inequality(data)
        assert abs(rep.gap) < 1e-8
        assert rep.equality
        assert rep.diagnostics["mixed_totally_geodesic"]
        assert rep.diagnostics["partial_mean_equal"]
        data.sigma[0, 0, 2] += 1e-2
        data.sigma[0, 2, 0] += 1e-2
        rep2 = general_inequality(data)
        assert rep2.gap >= 1e-5
        assert not rep2.equality
        assert not rep2.diagnostics["mixed_totally_geodesic"]


def test_sphere_chart_report():
    from warpcheck.immersion import sphere_in_euclidean

    rep = chart_inequality(sphere_in_euclidean(2), np.array([0.25, 0.6]))
    assert abs(rep.lhs - 1.0) < 1e-3
    assert abs(rep.rhs - 1.0) < 1e-3
    assert rep.equality
    assert rep.diagnostics["mixed_totally_geodesic"]
    assert rep.diagnostics["partial_mean_equal"]
    assert rep.extras["lhs_agreement"] < 1e-3


# --- contact specializations ----------------------------------------------


def _consistent_ctr_data(rng, amb, n1, n2):
    data = random_data(rng, amb, n1, n2, frame_kind="c-totally-real")
    data.sigma = force_xi_consistency(data.sigma, (data.tangent, data.normal), amb.frame)
    return data


def test_kmu_specialization_cross_check():
    rng = np.random.default_rng(6)
    amb = make_ambient("kmu-space-form", m=4, kappa=0.3, mu=-0.7, c=2.1)
    for _ in range(100):
        data = _consistent_ctr_data(rng, amb, 2, 2)
        rep = kmu_space_form_inequality_stack(data).report(0)
        assert rep.extras["rhs_cross_residual"] < 1e-9
        assert rep.gap >= -1e-9


def test_kmu_requires_c_totally_real():
    rng = np.random.default_rng(7)
    amb = make_ambient("kmu-space-form", m=4, kappa=0.3, mu=-0.7, c=2.1)
    data = random_data(rng, amb, 2, 2)  # generic frame
    with pytest.raises(InvalidConfigurationError):
        kmu_space_form_inequality_stack(data)


def test_sasakian_collapse():
    # with h = 0 the specialized rhs is exactly n^2/(4 n2)|H|^2 + n1 (c+3)/4
    rng = np.random.default_rng(8)
    c = -1.2
    amb = make_ambient("sasakian-space-form", m=4, c=c)
    for _ in range(20):
        data = _consistent_ctr_data(rng, amb, 2, 2)
        rep = kmu_space_form_inequality_stack(data).report(0)
        assert abs(rep.rhs - (rep.mean_term + 2 * (c + 3.0) / 4.0)) < 1e-12


def test_non_sasakian_cross_check():
    rng = np.random.default_rng(9)
    amb = make_ambient("non-sasakian-kmu", m=4, kappa=0.3, mu=-0.7)
    for _ in range(100):
        data = _consistent_ctr_data(rng, amb, 2, 2)
        rep = non_sasakian_inequality_stack(data).report(0)
        assert rep.extras["rhs_cross_residual"] < 1e-9
        assert rep.gap >= -1e-9


def test_non_sasakian_matches_space_form_on_constant_c():
    rng = np.random.default_rng(10)
    kappa = 0.25
    amb = make_ambient("non-sasakian-kmu", m=4, kappa=kappa, mu=kappa + 1.0)
    for _ in range(20):
        data = _consistent_ctr_data(rng, amb, 1, 2)
        rep_n = non_sasakian_inequality_stack(data)
        rep_k = kmu_space_form_inequality_stack(data, c=-2.0 * kappa - 1.0)
        assert abs(rep_n.rhs[0] - rep_k.rhs[0]) < 1e-9


def test_non_sasakian_equality_case():
    rng = np.random.default_rng(11)
    amb = make_ambient("non-sasakian-kmu", m=4, kappa=0.4, mu=0.9)
    for _ in range(50):
        data = random_data(rng, amb, 2, 2, frame_kind="dplus")
        data.sigma = balance_for_equality(data.sigma, 2)
        data.sigma = force_xi_consistency(data.sigma, (data.tangent, data.normal), amb.frame)
        rep = non_sasakian_inequality_stack(data).report(0)
        assert abs(rep.gap) < 1e-8
        assert rep.diagnostics["mixed_totally_geodesic"]
        assert rep.diagnostics["partial_mean_equal"]


def test_non_sasakian_rejects_sasakian_parameters():
    rng = np.random.default_rng(12)
    amb = make_ambient("sasakian-space-form", m=3, c=0.5)
    data = _consistent_ctr_data(rng, amb, 1, 1)
    with pytest.raises(SingularParameterError):
        non_sasakian_inequality_stack(data)


@pytest.mark.parametrize("above", [False, True])
def test_library_and_scenes_share_the_singular_kappa_bound(above):
    # at kappa = 0.99999999 the library returned a gap while a scene exited 2
    kappa = np.nextafter(KAPPA_SINGULAR, 2.0) if above else 0.99999999
    params = {"m": 3, "kappa": float(kappa), "mu": 0.5, "c": 1.0}
    data = _consistent_ctr_data(np.random.default_rng(36), make_ambient("kmu-space-form", **params), 1, 2)
    scene = {
        "ambient": {"kind": "kmu-space-form", **params},
        "source": {"kind": "synthetic", "generator": "c-totally-real", "n1": 1, "n2": 2},
        "checks": ["non_sasakian_inequality"],
    }
    if above:
        with pytest.raises(SingularParameterError):
            non_sasakian_inequality_stack(data)
        with pytest.raises(SceneValidationError, match="kappa < 1"):
            parse_scene(scene)
    else:
        assert np.isfinite(non_sasakian_inequality_stack(data).gap).all()
        assert parse_scene(scene).ambient_space().params["kappa"] == kappa


# --- obstructions ----------------------------------------------------------


def _minimal_sasakian_stack(c):
    rng = np.random.default_rng(13)
    amb = make_ambient("sasakian-space-form", m=3, c=c)
    data = random_data(rng, amb, 1, 1, sigma_scale=0.0, frame_kind="c-totally-real")
    return kmu_space_form_inequality_stack(data)


def test_obstruction_table():
    assert obstruction_check(_minimal_sasakian_stack(-4.0), harmonic=True, minimal=True).tolist() == [NONEXISTENCE]
    assert obstruction_check(_minimal_sasakian_stack(-3.0), harmonic=True, minimal=True).tolist() == [
        WARPED_PRODUCT_IMMERSION
    ]
    assert obstruction_check(_minimal_sasakian_stack(-3.0), eigenvalue=0.5, minimal=True).tolist() == [NONEXISTENCE]
    assert obstruction_check(_minimal_sasakian_stack(1.0), harmonic=True, minimal=True).tolist() == [UNOBSTRUCTED]


def test_obstruction_eigenfunction_below_minus_three():
    # eigenvalue warping excludes minimal immersions whenever c <= -3
    for c in (-3.0, -4.0, -6.5):
        batch = _minimal_sasakian_stack(c)
        assert obstruction_check(batch, eigenvalue=0.5, minimal=True).tolist() == [NONEXISTENCE]


def test_obstruction_eigenvalue_below_curvature_term():
    # positive curvature term above the eigenvalue leaves existence open
    batch = _minimal_sasakian_stack(1.0)  # curvature term = n1 (c+3)/4 = 1
    assert obstruction_check(batch, eigenvalue=0.5, minimal=True).tolist() == [UNOBSTRUCTED]


def test_obstruction_flag_validation():
    batch = _minimal_sasakian_stack(-3.0)
    with pytest.raises(InvalidConfigurationError):
        obstruction_check(batch, harmonic=True, eigenvalue=0.5, minimal=True)
    with pytest.raises(InvalidConfigurationError):
        obstruction_check(batch, minimal=True)
    with pytest.raises(InvalidConfigurationError):
        obstruction_check(batch, harmonic=True)  # not flagged minimal
    with pytest.raises(InvalidConfigurationError):
        obstruction_check(batch, eigenvalue=-1.0, minimal=True)


@pytest.mark.parametrize("eigenvalue", [np.nan, np.inf, 0.0])
def test_obstruction_refuses_an_eigenvalue_that_is_not_positive_and_finite(eigenvalue):
    # before, NaN gave UNOBSTRUCTED and inf gave NONEXISTENCE for every sample
    amb = make_ambient("sasakian-space-form", m=3, c=-4.0)
    stack = random_stack(np.random.default_rng(15), amb, 1, 1, 6, 0.0, "c-totally-real")
    batch = kmu_space_form_inequality_stack(stack)
    with pytest.raises(InvalidConfigurationError, match=f"eigenvalue must be positive and finite, got {eigenvalue}"):
        obstruction_check(batch, eigenvalue=eigenvalue, minimal=True)
    assert set(obstruction_check(batch, eigenvalue=0.5, minimal=True).tolist()) == {NONEXISTENCE}


def test_obstruction_rejects_nonminimal_report():
    rng = np.random.default_rng(14)
    amb = make_ambient("sasakian-space-form", m=3, c=-4.0)
    data = _make_nonminimal(rng, amb)
    batch = kmu_space_form_inequality_stack(data)
    with pytest.raises(InvalidConfigurationError, match="in sample 0"):
        obstruction_check(batch, harmonic=True, minimal=True)


def _make_nonminimal(rng, amb):
    data = random_data(rng, amb, 1, 1, frame_kind="c-totally-real")
    data.sigma = force_xi_consistency(data.sigma, (data.tangent, data.normal), amb.frame)
    return data


def test_dplus_leaf_inequality():
    leaf = dplus_leaf_in(make_ambient("non-sasakian-kmu", m=3, kappa=0.5, mu=0.7), 1, 1)
    rep = non_sasakian_inequality_stack(leaf)
    assert rep.gap[0] >= -1e-9
    assert rep.extras["rhs_cross_residual"][0] < 1e-9


# --- one-pass engine: parity with the per-quantity formulas ------------------
#
# Frozen reference: the formulas of the engine in which every entry point
# derived its own kij table, mean curvature record and normal-frame rotation.
# The engine must reproduce them exactly (==), not approximately.  Each
# reference reads the one sample of a stack of one: row 0 of its arrays.

SWEEP_AMBIENTS = [
    ("euclidean", {"m": 7}),
    ("kmu-space-form", {"m": 3, "kappa": 0.5, "mu": -1.0, "c": 1.7}),
    ("sasakian-space-form", {"m": 3, "c": -2.0}),
    ("non-sasakian-kmu", {"m": 3, "kappa": 0.2, "mu": 0.8}),
]
BLOCKS = [(1, 1), (1, 2), (2, 1), (2, 2)]


def _ref_rotated_sigma(data):
    rec = mean_curvatures(data)
    sigma, components = data.sigma[0], rec.components[0]
    k = sigma.shape[0]
    if rec.norm_H.item() < 1e-14 or k == 1:
        return sigma.copy()
    first = components / np.linalg.norm(components)
    rot = np.linalg.qr(np.column_stack([first, np.eye(k)]))[0][:, :k]
    if rot[:, 0] @ first < 0.0:
        rot = -rot
    return np.einsum("sr,sij->rij", rot, sigma)


def _ref_diagnostics(data, tol=1e-8):
    diag = np.einsum("rii->ri", data.sigma[0])
    tr1 = diag[:, : data.n1].sum(axis=1)
    tr2 = diag[:, data.n1 :].sum(axis=1)
    partial_residual = float(np.max(np.abs(tr1 - tr2)))
    rdiag = np.einsum("rii->ri", _ref_rotated_sigma(data))
    rtr1 = rdiag[:, : data.n1].sum(axis=1)
    rtr2 = rdiag[:, data.n1 :].sum(axis=1)
    conditions = [abs(float(rtr1[0] - rtr2[0]))]
    conditions.extend(max(abs(float(a)), abs(float(b))) for a, b in zip(rtr1[1:], rtr2[1:]))
    return {
        "mixed_totally_geodesic": bool(is_mixed_totally_geodesic(data, tol).item()),
        "partial_mean_equal": partial_residual < tol,
        "partial_mean_residual": partial_residual,
        "trace_conditions": conditions,
    }


def _ref_general(data, lhs=None, tol=1e-8):
    n, n1, n2 = data.n, data.n1, data.n2
    kij = data.ambient_kij()[0]
    tau_full = float(kij[np.triu_indices(n, k=1)].sum())
    tau_1 = float(kij[:n1, :n1][np.triu_indices(n1, k=1)].sum())
    tau_2 = float(kij[n1:, n1:][np.triu_indices(n2, k=1)].sum())
    norm_H = mean_curvatures(data).norm_H.item()
    mean_term = n * n / (4.0 * n2) * norm_H**2
    rhs = mean_term + (tau_full - tau_1 - tau_2) / n2
    if lhs is None:
        lhs = float(intrinsic_kij(data)[0, :n1, n1:].sum()) / n2
    return {
        "lhs": float(lhs),
        "rhs": rhs,
        "gap": rhs - float(lhs),
        "mean_term": mean_term,
        "norm_H": norm_H,
        "diagnostics": _ref_diagnostics(data, tol),
    }


def _ref_decompose(data):
    n, n1 = data.n, data.n1
    sigma = _ref_rotated_sigma(data)
    iu = np.triu_indices(n, k=1)
    tau_p = float(intrinsic_kij(data)[0][iu].sum())
    tau_ambient = float(data.ambient_kij()[0][iu].sum())
    delta = 0.5 * (4.0 * tau_p - 4.0 * tau_ambient - n * n * mean_curvatures(data).norm_H.item() ** 2)
    diag0 = np.diag(sigma[0])
    a1, a2, a3 = float(diag0[0]), float(diag0[1:n1].sum()), float(diag0[n1:].sum())
    off0 = float(np.sum(sigma[0] ** 2) - np.sum(diag0**2))
    rest = float(np.sum(sigma[1:] ** 2))
    pair1 = float(np.sum(np.outer(diag0[1:n1], diag0[1:n1])) - np.sum(diag0[1:n1] ** 2))
    pair2 = float(np.sum(np.outer(diag0[n1:], diag0[n1:])) - np.sum(diag0[n1:] ** 2))
    b = delta + off0 + rest - pair1 - pair2
    total = a1 + a2 + a3
    residuals = []
    for r in range(sigma.shape[0]):
        d = np.diag(sigma[r])
        tr1, tr2 = float(d[:n1].sum()), float(d[n1:].sum())
        residuals.append(abs(tr1 - tr2) if r == 0 else max(abs(tr1), abs(tr2)))
    return {
        "delta": delta,
        "a1": a1,
        "a2": a2,
        "a3": a3,
        "b": b,
        "ai_residual": abs(total * total - 2.0 * (a1 * a1 + a2 * a2 + a3 * a3 + b)),
        "lemma_slack": 2.0 * a1 * a2 - b,
        "trace_residuals": residuals,
        "rotated_sigma": sigma,
    }


def _parity_samples(rng, amb, n1, n2, frame_kind="generic"):
    """Generic, zero-sigma (H = 0) and equality-balanced data."""
    out = []
    for scale, balanced in ((1.0, False), (0.0, False), (1.0, True)):
        data = random_data(rng, amb, n1, n2, sigma_scale=scale, frame_kind=frame_kind)
        if balanced:
            data.sigma = balance_for_equality(data.sigma, n1)
        if frame_kind != "generic":
            data.sigma = force_xi_consistency(data.sigma, (data.tangent, data.normal), amb.frame)
        out.append(data)
    return out


def _assert_matches(rep, ref):
    assert rep.lhs == ref["lhs"]
    assert rep.mean_term == ref["mean_term"]
    assert rep.norm_H == ref["norm_H"]
    assert rep.diagnostics == ref["diagnostics"]
    assert type(rep.diagnostics) is dict


@pytest.mark.parametrize("kind,params", SWEEP_AMBIENTS)
def test_general_inequality_matches_reference_exactly(kind, params):
    rng = np.random.default_rng(31)
    amb = make_ambient(kind, **params)
    for n1, n2 in BLOCKS:
        for _ in range(10):
            for data in _parity_samples(rng, amb, n1, n2):
                ref = _ref_general(data)
                rep = general_inequality(data)
                _assert_matches(rep, ref)
                assert rep.rhs == ref["rhs"] and rep.gap == ref["gap"]
                assert rep.equality == (abs(ref["gap"]) < 1e-8)


@pytest.mark.parametrize("kind,params", SWEEP_AMBIENTS)
def test_decompose_matches_reference_exactly(kind, params):
    rng = np.random.default_rng(32)
    amb = make_ambient(kind, **params)
    for n1, n2 in BLOCKS:
        for _ in range(10):
            for data in _parity_samples(rng, amb, n1, n2):
                ref = _ref_decompose(data)
                dec = decompose_stack(data)
                for key, value in ref.items():
                    assert np.array_equal(getattr(dec, key)[0], value), key


SPECIALIZED = [
    ("kmu-space-form", {"m": 3, "kappa": 0.5, "mu": -1.0, "c": 1.7}, kmu_space_form_inequality_stack),
    ("sasakian-space-form", {"m": 3, "c": -2.0}, kmu_space_form_inequality_stack),
    ("non-sasakian-kmu", {"m": 3, "kappa": 0.2, "mu": 0.8}, non_sasakian_inequality_stack),
    ("kmu-space-form", {"m": 3, "kappa": 0.5, "mu": -1.0, "c": 1.7}, non_sasakian_inequality_stack),
]


@pytest.mark.parametrize("kind,params,fn", SPECIALIZED)
def test_specializations_match_reference_exactly(kind, params, fn):
    rng = np.random.default_rng(33)
    amb = make_ambient(kind, **params)
    for n1, n2 in [(1, 1), (1, 2), (2, 1)]:  # anti-invariance caps n at m = 3
        for _ in range(10):
            for data in _parity_samples(rng, amb, n1, n2, frame_kind="c-totally-real"):
                ref = _ref_general(data)
                rep = fn(data).report(0)
                _assert_matches(rep, ref)
                assert rep.extras["rhs_general"] == ref["rhs"]
                assert rep.rhs == rep.mean_term + rep.ambient_term
                assert rep.gap == rep.rhs - ref["lhs"]
                assert rep.extras["rhs_cross_residual"] == abs(rep.rhs - ref["rhs"])


def test_diagnostics_snapshot_survives_sigma_mutation():
    rng = np.random.default_rng(34)
    amb = make_ambient("non-sasakian-kmu", m=3, kappa=0.2, mu=0.8)
    data = random_data(rng, amb, 1, 2, frame_kind="c-totally-real")
    data.sigma = force_xi_consistency(data.sigma, (data.tangent, data.normal), amb.frame)
    expected = _ref_diagnostics(data)
    rep = general_inequality(data)
    special = non_sasakian_inequality_stack(data).report(0)
    data.sigma[0, 0, 0, data.n1] += 0.5
    data.sigma[0, 0, data.n1, 0] += 0.5
    data.sigma *= 3.0
    assert rep.diagnostics == expected
    assert special.diagnostics == expected
    assert general_inequality(data).diagnostics != expected


def _count_kij(data):
    calls = []
    base = data.oracle.kij

    def counting(V):
        calls.append(1)
        return base(V)

    data.oracle.kij = counting
    return calls


@pytest.mark.parametrize(
    "fn",
    [general_inequality_stack, kmu_space_form_inequality_stack, non_sasakian_inequality_stack, decompose_stack],
    ids=lambda f: f.__name__,
)
def test_one_ambient_kij_table_per_call(fn):
    rng = np.random.default_rng(35)
    amb = make_ambient("kmu-space-form", m=3, kappa=0.5, mu=-1.0, c=1.7)
    data = _consistent_ctr_data(rng, amb, 1, 2)
    calls = _count_kij(data)
    rep = fn(data)
    assert len(calls) == 1
    if fn is not decompose_stack:
        rep.report(0).diagnostics  # computed on read, from the snapshot
        assert len(calls) == 1


def test_chart_inequality_matches_reference_exactly():
    from warpcheck.immersion import second_fundamental_form, sphere_in_euclidean

    im = sphere_in_euclidean(3)
    data = second_fundamental_form(im, im.default_point)
    rep = chart_inequality(im, im.default_point)
    ref = _ref_general(data, lhs=rep.extras["lhs_chart"], tol=inequality.CHART_EQUALITY_TOL)
    _assert_matches(rep, ref)
    assert rep.rhs == ref["rhs"] and rep.gap == ref["gap"]
    assert rep.extras["lhs_proxy"] == _ref_general(data)["lhs"]


def test_chart_inequality_refuses_data_of_another_immersion_or_point():
    from warpcheck.immersion import cylinder_immersion, second_fundamental_form, sphere_in_euclidean

    im = sphere_in_euclidean(3)
    p, q = im.default_point, np.array([0.1, 0.7, 0.2])
    # before, the cylinder's data gave a gap of -0.75 with no error
    for other in (second_fundamental_form(cylinder_immersion(), q[:2]), second_fundamental_form(im, q)):
        with pytest.raises(InvalidInputError, match="is not second_fundamental_form of this"):
            chart_inequality(im, p, data=other)
    own = second_fundamental_form(im, p.tolist())
    assert chart_inequality(im, p, data=own) == chart_inequality(im, p)


@pytest.mark.parametrize("t", [2.0, -2.5])
def test_chart_inequality_refuses_a_point_where_the_warp_is_not_positive(t):
    # cos t < 0 lies outside the chart's (-pi/2, pi/2), where the map is still
    # an immersion; Delta f / f divided by the negative f there and PASSed
    from warpcheck.immersion import sphere_in_euclidean

    im, p = sphere_in_euclidean(3), [t, 0.8, 0.8]
    message = f"warping function non-positive ({float(np.cos(t))!r}) at {np.array([t])}"
    with pytest.raises(InvalidWarpingError) as raised:
        chart_inequality(im, np.array(p))
    assert str(raised.value) == message
    scene = {
        "ambient": {"kind": "euclidean", "m": 4},
        "source": {"kind": "chart-immersion", "key": "sphere-in-euclidean", "params": {"n": 3}, "point": p},
        "checks": ["general_inequality"],
    }
    record = run(parse_scene(scene)).records[0]
    assert record == {"name": "general_inequality", "pass": False, "error": f"InvalidWarpingError: {message}"}


def _torus(n: int, R: float = 2.0):
    """x(t, theta) = ((R + cos t) S^{n-1}(theta), sin t) in R^{n+1}, the
    warped chart R x_{R + cos t} S^{n-1}: principal curvatures 1 along t and
    k = cos t / (R + cos t) along the n - 1 sphere directions."""
    def mapping(u):
        t = u[..., :1]
        return np.concatenate([(R + np.cos(t)) * _spherical_point(u[..., 1:]), np.sin(t)], axis=-1)

    wp = WarpedProductChart(flat_factor(1), round_sphere_factor(n - 1), sum_fn(const_fn(R), cos_fn()))
    return ChartImmersion(mapping, n + 1, 1, n - 1, warped=wp, label=f"torus({n})")


def _torus_gap(n: int, t: float, R: float = 2.0) -> float:
    """n^2 H^2 / (4 (n - 1)) - Delta f / f, with Delta f / f = k."""
    k = np.cos(t) / (R + np.cos(t))
    H = (1.0 + (n - 1) * k) / n
    return n * n * H * H / (4.0 * (n - 1)) - k


@pytest.mark.parametrize("n", range(4, 9))
def test_chart_equality_band_separates_a_torus_level_set_from_nearby_strict_points(n):
    # equality holds exactly where k = 1/(n - 1), i.e. cos t = R/(n - 2)
    im = _torus(n)
    level = float(np.arccos(2.0 / (n - 2)))
    strict = {8: [1.2], 4: [0.3], 6: [-1.0], 7: [1.2]}.get(n, [])
    for t in [level, *strict, 0.6]:
        rep = chart_inequality(im, np.array([t] + [0.8] * (n - 1)))
        assert abs(rep.gap - _torus_gap(n, t)) <= 1e-8, (n, t)
        assert rep.equality == (t == level), (n, t, rep.gap)
        assert rep.diagnostics["partial_mean_equal"] == (t == level), (n, t)


# --- signatures ------------------------------------------------------------


def test_each_inequality_kernel_has_one_entry_point():
    # the one-sample twins of the stacked kernels, and the float rows of a
    # decomposition, are deleted; general_inequality stays for the benchmark
    for name in ("decompose", "kmu_space_form_inequality", "non_sasakian_inequality", "_rebased"):
        assert not hasattr(warpcheck, name) and not hasattr(inequality, name), name
        assert name not in inequality.__all__, name
    assert not hasattr(inequality.ProofDecomposition, "row")
    assert callable(warpcheck.general_inequality) and callable(warpcheck.chart_inequality)


def test_no_parameter_with_one_value_in_use():
    # each of these had a single value in use, now the module's constant
    removed = {
        inequality.general_inequality: {"lhs"},
        inequality.general_inequality_stack: {"lhs"},
        inequality.kmu_space_form_inequality_stack: {"lhs", "equality_tol"},
        inequality.non_sasakian_inequality_stack: {"lhs", "equality_tol"},
        inequality.decompose_stack: {"tau_p"},
        inequality.chart_inequality: {"equality_tol"},
        inequality.obstruction_check: {"tol"},
        charts.sectional_curvature: {"tol"},
        immersion.dplus_leaf_in: {"label"},
    }
    assert sum(map(len, removed.values())) == 11
    for fn, names in removed.items():
        assert not names & set(inspect.signature(fn).parameters), fn.__name__
    # two values in use: chart_inequality's 1e-6 and acceptance criterion 4's 1e-10
    for fn, name in [
        (inequality.general_inequality, "equality_tol"),
        (inequality.general_inequality_stack, "equality_tol"),
        (inequality.chen_lemma, "tol"),
    ]:
        assert name in inspect.signature(fn).parameters, fn.__name__
