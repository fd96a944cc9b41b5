import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpcheck.charts import riemann
from warpcheck.contact import CurvatureOracle, make_ambient
from warpcheck.errors import (
    ImmersionDegeneracyError,
    InvalidConfigurationError,
    InvalidInputError,
    NumericalDomainError,
)
from warpcheck.immersion import (
    ChartImmersion,
    PointwiseStack,
    a_xi_identity,
    balance_for_equality,
    chart_immersion_catalog,
    complete_normal_frame,
    cylinder_immersion,
    dplus_frame,
    dplus_leaf,
    force_xi_consistency,
    gauss_residual,
    intrinsic_kij,
    is_C_totally_real,
    is_mixed_totally_geodesic,
    mean_curvatures,
    plane_immersion,
    pullback_metric,
    random_data,
    random_stack,
    second_fundamental_form,
    sphere_in_euclidean,
)
from warpcheck.warped import build_metric


def test_plane_totally_geodesic():
    data = second_fundamental_form(plane_immersion(), np.array([0.3, 0.5]))
    assert np.max(np.abs(data.sigma)) < 1e-8
    rec = mean_curvatures(data)
    assert rec.norm_H < 1e-8


def test_sphere_umbilic():
    im = sphere_in_euclidean(2)
    data = second_fundamental_form(im, im.default_point)
    # inward-normal components are +delta_ij; our completion may orient the
    # normal outward, so compare against the sign of <N, inward direction>
    N = data.extras["normal_ambient"][:, 0]
    inward = -data.extras["ambient_point"]
    sign = np.sign(N @ inward)
    assert np.max(np.abs(data.sigma[0, 0] - sign * np.eye(2))) < 1e-5
    rec = mean_curvatures(data)
    assert abs(rec.norm_H - 1.0) < 1e-5
    assert abs(rec.norm_H1 - 1.0) < 1e-5 and abs(rec.norm_H2 - 1.0) < 1e-5


def test_sigma_symmetric_within_fd_tolerance():
    for im in (sphere_in_euclidean(2), cylinder_immersion()):
        data = second_fundamental_form(im, im.default_point)
        assert data.extras["sigma_asymmetry"] < 1e-6


def test_cylinder_principal_values():
    im = cylinder_immersion()
    data = second_fundamental_form(im, im.default_point)
    vals = np.sort(np.abs(np.linalg.eigvalsh(data.sigma[0, 0])))
    assert np.allclose(vals, [0.0, 1.0], atol=1e-5)
    assert abs(mean_curvatures(data).norm_H - 0.5) < 1e-5


def _block_mean_components(data):
    """H1 and H2 in the normal frame, from the block traces of the sigma of
    a stack of one."""
    diag = np.einsum("rii->ri", data.sigma[0])
    return diag[:, : data.n1].sum(axis=1) / data.n1, diag[:, data.n1 :].sum(axis=1) / data.n2


def test_trace_additivity_exact():
    rng = np.random.default_rng(0)
    amb = make_ambient("euclidean", m=7)
    for _ in range(50):
        data = random_data(rng, amb, 2, 3)
        rec = mean_curvatures(data)
        h1, h2 = _block_mean_components(data)
        lhs = data.n * rec.components
        rhs = data.n1 * h1 + data.n2 * h2
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        assert abs(rec.norm_H1 - np.linalg.norm(h1)) < 1e-12
        assert abs(rec.norm_H2 - np.linalg.norm(h2)) < 1e-12


def test_mean_curvature_zero_sigma():
    rng = np.random.default_rng(1)
    amb = make_ambient("euclidean", m=5)
    data = random_data(rng, amb, 1, 2, sigma_scale=0.0)
    rec = mean_curvatures(data)
    assert rec.norm_H == rec.norm_H1 == rec.norm_H2 == 0.0


def test_block_trace_only_in_first_block():
    rng = np.random.default_rng(2)
    amb = make_ambient("euclidean", m=6)
    data = random_data(rng, amb, 2, 2, sigma_scale=0.0)
    data.sigma[0, 0, 0, 0] = 1.0
    data.sigma[0, 0, 1, 1] = 1.0
    rec = mean_curvatures(data)
    assert rec.norm_H2 == 0.0
    h1, _ = _block_mean_components(data)
    assert np.max(np.abs(data.n * rec.components - data.n1 * h1)) < 1e-12
    assert abs(rec.norm_H1 - np.linalg.norm(h1)) < 1e-12


def test_gauss_residual_sphere_chart_intrinsic():
    im = sphere_in_euclidean(2)
    p = im.default_point
    data = second_fundamental_form(im, p)

    cp = riemann(pullback_metric(im), p)
    coeff = data.extras["frame_coefficients"]
    intrinsic = np.einsum("ijkl,ia,jb,kc,ld->abcd", cp.riemann04, coeff, coeff, coeff, coeff)

    res = gauss_residual(data, intrinsic=intrinsic)
    assert res["gauss_max"] < 1e-4
    assert res["kij_max"] < 1e-4
    assert res["tau_identity_residual"] < 1e-4


def _chart_gauss_residual(im, p):
    data = second_fundamental_form(im, p)
    cp = riemann(pullback_metric(im), p)
    intrinsic = CurvatureOracle("chart", cp.riemann04).rotated(data.extras["frame_coefficients"]).tensor
    return gauss_residual(data, intrinsic=intrinsic)


def test_gauss_residual_catalog_random_points():
    # every catalog immersion closes the Gauss equation, on all n^4 entries,
    # within 1e-4: at random points, and for sphere-in-euclidean(2..8) at its
    # default point and its warped chart's sample points
    rng = np.random.default_rng(17)
    cases = [
        (sphere_in_euclidean(2), lambda: rng.uniform([-1.0, 0.3], [1.0, 2.5])),
        (sphere_in_euclidean(3), lambda: rng.uniform([-1.0, 0.3, 0.2], [1.0, 2.5, 2.0])),
        (plane_immersion(), lambda: rng.uniform(-2.0, 2.0, size=2)),
        (cylinder_immersion(), lambda: rng.uniform([-1.0, 0.0], [1.0, 3.0])),
    ]
    for im, draw in cases:
        for _ in range(25):
            res = _chart_gauss_residual(im, draw())
            assert max(res.values()) < 1e-4, (im.label, res)
    failures = []
    for n in range(2, 9):
        im = sphere_in_euclidean(n)
        for i, p in enumerate([im.default_point, *im.warped.sample_points]):
            res = _chart_gauss_residual(im, p)
            if not max(res.values()) < 1e-4:
                failures.append((n, i, res))
    assert not failures, failures


def test_gauss_residual_definitional_closure():
    rng = np.random.default_rng(4)
    amb = make_ambient("non-sasakian-kmu", m=3, kappa=0.4, mu=1.1)
    data = random_data(rng, amb, 1, 2)
    state = rng.bit_generator.state
    res = gauss_residual(data)
    assert res["gauss_max"] == 0.0 and res["kij_max"] == 0.0  # zero by definition
    assert res["tau_identity_residual"] < 1e-10
    assert rng.bit_generator.state == state


def test_gauss_residual_keeps_a_nan_intrinsic_value():
    rng = np.random.default_rng(4)
    amb = make_ambient("non-sasakian-kmu", m=3, kappa=0.4, mu=1.1)
    res = gauss_residual(random_data(rng, amb, 1, 2), intrinsic=np.full((3, 3, 3, 3), np.nan))
    assert np.isnan(res["gauss_max"])
    assert np.isnan(res["kij_max"])
    assert np.isnan(res["tau_identity_residual"])


@pytest.mark.parametrize("intrinsic", [1.0, np.zeros((3, 3)), np.zeros((3, 3, 3, 2)), np.zeros((2, 2, 2, 2))])
def test_gauss_residual_rejects_an_intrinsic_of_another_shape(intrinsic):
    # a scalar or a wrong shape would broadcast against the (n, n, n, n) Gauss tensor
    data = random_data(np.random.default_rng(4), make_ambient("real-space-form", m=5, c=1.0), 1, 2)
    with pytest.raises(InvalidInputError, match=r"\(3, 3, 3, 3\)"):
        gauss_residual(data, intrinsic=intrinsic)


def _gauss_reference(data, intrinsic):
    """The scalar form of gauss_residual: each entry, each pair and tau one
    tuple of frame vectors at a time through CurvatureOracle.value, for the
    one sample of a stack of one."""
    n, s, T = data.n, data.sigma[0], data.tangent[0]
    eye, iu = np.eye(n), np.triu_indices(n, 1)

    def r_gauss(a, b, c, d):
        amb = data.oracle.value(T @ a, T @ b, T @ c, T @ d)
        return amb + float(np.einsum("rij,i,j->r", s, a, d) @ np.einsum("rij,i,j->r", s, b, c)) - float(
            np.einsum("rij,i,j->r", s, a, c) @ np.einsum("rij,i,j->r", s, b, d)
        )

    def r_int(*v):
        return float(np.einsum("ijkl,i,j,k,l->", intrinsic, *v))

    worst = max(abs(r_int(*eye[list(q)]) - r_gauss(*eye[list(q)])) for q in np.ndindex((n,) * 4))
    k_gauss = intrinsic_kij(data)[0]
    kij_worst = max(abs(r_int(eye[i], eye[j], eye[j], eye[i]) - k_gauss[i, j]) for i, j in zip(*iu))
    tau = sum(r_int(eye[i], eye[j], eye[j], eye[i]) for i, j in zip(*iu))
    norm_H = mean_curvatures(data).norm_H.item()
    tau_ambient = float(data.ambient_kij()[0][iu].sum())
    tau_res = abs(2.0 * tau - (2.0 * tau_ambient + n * n * norm_H**2 - float(np.sum(s**2))))
    return {"gauss_max": worst, "kij_max": kij_worst, "tau_identity_residual": tau_res}


@pytest.mark.parametrize("n1,n2", [(1, 1), (1, 2), (2, 2), (2, 3)])
def test_gauss_residual_equals_the_scalar_contractions_and_draws_nothing(n1, n2):
    # the tensor form against the one-tuple-at-a-time form through
    # CurvatureOracle.value, on a perturbed intrinsic tensor; the generator
    # that drew the data is not read again
    rng = np.random.default_rng(21)
    data = random_data(rng, make_ambient("non-sasakian-kmu", m=3, kappa=0.4, mu=1.1), n1, n2)
    n = data.n
    intrinsic = rng.normal(size=(n,) * 4)
    state = rng.bit_generator.state
    got = gauss_residual(data, intrinsic=intrinsic)
    assert rng.bit_generator.state == state
    expected = _gauss_reference(data, intrinsic)
    for key, value in expected.items():
        assert abs(got[key] - value) <= 1e-12 * max(1.0, abs(value)), key


def test_sphere_gauss_numbers():
    # K = 0 + 1*1 - 0 and 2 tau = 0 + 4 |H|^2 - |sigma|^2 = 2
    im = sphere_in_euclidean(2)
    data = second_fundamental_form(im, im.default_point)
    assert abs(intrinsic_kij(data)[0, 0, 1] - 1.0) < 1e-5
    assert abs(np.sum(data.sigma**2) - 2.0) < 1e-5


def test_pullback_metric_matches_the_analytic_warped_metric():
    # J^T J of the sphere's map and its derivative (d_k J)^T J + J^T d_k J
    # against g1 + cos^2(t) g_{S^(n-1)} and its analytic dg
    for n in range(2, 9):
        im = sphere_in_euclidean(n)
        pts = np.stack([im.default_point, *im.warped.sample_points])
        pull, warped = pullback_metric(im), build_metric(im.warped)
        assert np.max(np.abs(pull.at(pts) - warped.at(pts))) < 1e-14, n
        dg = pull.g_dg(pts)[1]
        assert np.array_equal(dg, np.swapaxes(dg, -1, -2)), n
        assert np.max(np.abs(dg - warped.g_dg(pts)[1])) < 1e-8, n


def test_riemann_of_a_pullback_metric_evaluates_the_map_once():
    # g and dg come from one jet of the map, on the (2n+1, 2n+1, n+1, n)
    # complex points of riemann's Gamma stencil; g is the complex-step g
    im = sphere_in_euclidean(3)
    calls = []

    def counted(u):
        calls.append(u.shape)
        return im.map(u)

    pull = pullback_metric(ChartImmersion(counted, im.ambient_dim, im.n1, im.n2))
    cp = riemann(pull, im.default_point)
    assert calls == [(7, 7, 4, 3)]
    assert np.array_equal(cp.g, pull.at(im.default_point))
    g, dg = pull.g_dg(im.default_point)
    assert np.array_equal(g, cp.g) and np.array_equal(dg, pull.g_dg(im.default_point[None])[1][0])


def test_chart_immersion_data_has_a_zero_ambient_tensor():
    # the ambient of a chart immersion is flat R^d: every entry +0.0, at the
    # default point and the warped chart's sample points, sphere n = 2..8
    for key, build in chart_immersion_catalog().items():
        for params in ({"n": n} for n in range(2, 9)) if key == "sphere-in-euclidean" else ({},):
            im = build(**params)
            for p in [im.default_point, *im.warped.sample_points]:
                tensor = second_fundamental_form(im, p).oracle.tensor
                assert tensor.shape == (im.ambient_dim,) * 4
                assert not tensor.any() and not np.signbit(tensor).any(), im.label


def test_dplus_leaf_c_totally_real():
    leaf = dplus_leaf(3, 0.5, 0.7, 1, 1)
    ok, residuals = is_C_totally_real(leaf)
    assert ok
    assert residuals["xi_tangency"] < 1e-12
    assert is_mixed_totally_geodesic(leaf)
    assert a_xi_identity(leaf)["residual"] < 1e-12


def test_xi_tangent_frame_rejected():
    amb = make_ambient("non-sasakian-kmu", m=4, kappa=0.3, mu=-0.5)
    t = np.zeros((9, 2))
    t[0, 0] = 1.0  # xi itself
    t[1, 1] = 1.0
    data = PointwiseStack(
        1, 1, t[None], complete_normal_frame(t)[None], np.zeros((1, 7, 2, 2)), amb.oracle, amb.frame
    )
    assert not is_C_totally_real(data)[0]


def test_phi_invariant_frame_rejected():
    amb = make_ambient("non-sasakian-kmu", m=4, kappa=0.3, mu=-0.5)
    t = np.zeros((9, 2))
    t[1, 0] = 1.0  # u_1
    t[5, 1] = 1.0  # phi u_1
    data = PointwiseStack(
        1, 1, t[None], complete_normal_frame(t)[None], np.zeros((1, 7, 2, 2)), amb.oracle, amb.frame
    )
    assert not is_C_totally_real(data)[0]


def test_c_totally_real_frame_random():
    rng = np.random.default_rng(5)
    amb = make_ambient("kmu-space-form", m=4, kappa=0.6, mu=0.2, c=1.0)
    for n in (1, 2, 3, 4):
        t = random_stack(rng, amb, 1, n - 1, 1, frame_kind="c-totally-real").tangent[0]
        assert np.max(np.abs(t.T @ t - np.eye(n))) < 1e-10
        assert np.max(np.abs(amb.frame.xi @ t)) < 1e-12
        assert np.max(np.abs(t.T @ (amb.frame.phi @ t))) < 1e-10


def test_c_totally_real_frame_dimension_cap():
    rng = np.random.default_rng(6)
    amb = make_ambient("non-sasakian-kmu", m=2, kappa=0.1, mu=0.0)
    with pytest.raises(InvalidConfigurationError, match="anti-invariance"):
        random_stack(rng, amb, 1, 2, 1, frame_kind="c-totally-real")


def test_a_xi_sasakian_forces_zero():
    rng = np.random.default_rng(7)
    amb = make_ambient("sasakian-space-form", m=3, c=-1.0)
    data = random_data(rng, amb, 1, 2, frame_kind="c-totally-real")
    data.sigma = force_xi_consistency(data.sigma, (data.tangent, data.normal), amb.frame)
    res = a_xi_identity(data)
    assert res["residual"] < 1e-12
    assert np.max(np.abs(res["a_xi"])) < 1e-12  # (phi h)^T = 0 when h = 0
    w = amb.frame.xi @ data.normal
    xi_component = np.einsum("...r,...rij->...ij", w, data.sigma)
    assert np.max(np.abs(xi_component)) < 1e-12


def test_a_xi_dplus_frame_vanishes():
    amb = make_ambient("non-sasakian-kmu", m=3, kappa=0.0, mu=0.4)
    t = dplus_frame(amb.frame, 2)
    data = PointwiseStack(
        1, 1, t[None], complete_normal_frame(t)[None], np.zeros((1, 5, 2, 2)), amb.oracle, amb.frame
    )
    res = a_xi_identity(data)
    assert np.max(np.abs(res["a_xi"])) < 1e-12


def test_a_xi_negative_control():
    # sigma violating the identity is flagged by a positive residual
    amb = make_ambient("non-sasakian-kmu", m=3, kappa=0.0, mu=0.4)
    rng = np.random.default_rng(8)
    data = random_data(rng, amb, 1, 1, frame_kind="c-totally-real")
    res = a_xi_identity(data)
    assert res["residual"] > 1e-3


def test_mixed_totally_geodesic_detection():
    rng = np.random.default_rng(9)
    amb = make_ambient("euclidean", m=6)
    data = random_data(rng, amb, 2, 2, sigma_scale=0.0)
    assert is_mixed_totally_geodesic(data)
    umbilic = np.einsum("r,ij->rij", rng.normal(size=data.sigma.shape[1]), np.eye(4))
    data.sigma = umbilic[None]
    assert is_mixed_totally_geodesic(data)
    data.sigma[0, 1, 0, 3] = 0.1
    data.sigma[0, 1, 3, 0] = 0.1
    assert not is_mixed_totally_geodesic(data)


def test_balance_for_equality_properties():
    rng = np.random.default_rng(10)
    raw = rng.normal(size=(3, 5, 5))
    sigma = 0.5 * (raw + raw.transpose(0, 2, 1))
    out = balance_for_equality(sigma, 2)
    assert np.max(np.abs(out[:, :2, 2:])) == 0.0
    for r in range(3):
        assert abs(np.trace(out[r, :2, :2]) - np.trace(out[r, 2:, 2:])) < 1e-12


def test_degenerate_immersion_rejected():
    collapsed = ChartImmersion(
        map=lambda u: np.stack([u[..., 0], u[..., 0], 0.0 * u[..., 0]], axis=-1),
        ambient_dim=3,
        n1=1,
        n2=1,
    )
    with pytest.raises(ImmersionDegeneracyError):
        second_fundamental_form(collapsed, np.array([0.1, 0.2]))


def test_frame_orthonormality_enforced():
    amb = make_ambient("euclidean", m=4)
    t = np.zeros((4, 2))
    t[0, 0] = 1.0
    t[0, 1] = 1.0  # duplicated direction
    with pytest.raises(InvalidConfigurationError):
        PointwiseStack(1, 1, t[None], np.eye(4)[None, :, 2:], np.zeros((1, 2, 2, 2)), amb.oracle)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["tangent", "normal", "sigma"]),
    st.integers(0, 2**31 - 1),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)
def test_non_finite_frame_or_sigma_rejected(name, seed, bad):
    rng = np.random.default_rng(seed)
    data = random_data(rng, make_ambient("euclidean", m=6), 1, 2)
    arrays = {k: getattr(data, k).copy() for k in ("tangent", "normal", "sigma")}
    target = arrays[name]
    target[np.unravel_index(int(rng.integers(target.size)), target.shape)] = bad
    with pytest.raises(NumericalDomainError):
        PointwiseStack(n1=1, n2=2, oracle=data.oracle, **arrays)
