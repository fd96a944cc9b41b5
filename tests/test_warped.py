from dataclasses import replace

import numpy as np
import pytest

from warpcheck.errors import InvalidInputError, InvalidWarpingError, NumericalDomainError
from warpcheck.inequality import chart_inequality
from warpcheck.charts import riemann, sectional_curvature
from warpcheck.immersion import sphere_in_euclidean
from warpcheck.warped import (
    WarpFunction,
    WarpedProductChart,
    build_metric,
    check_connection_identity,
    check_laplacian_ratio,
    chart_catalog,
    const_fn,
    cos_fn,
    exp_fn,
    flat_factor,
    flat_product_chart,
    hyperbolic_chart,
    is_trivial,
    mixed_sectional,
    named_chart,
    poly_fn,
    sphere_chart,
    sum_fn,
)


def _curvature(wp, x):
    """The CurvaturePoint the warped checks read, at a point or stack x."""
    return riemann(build_metric(wp), x)


def test_build_metric_product():
    wp = flat_product_chart(2, 2)
    g = build_metric(wp).at(np.array([0.1, 0.2, 0.3, 0.4]))
    assert np.allclose(g, np.eye(4))


def test_build_metric_sphere_block():
    wp = sphere_chart()
    g = build_metric(wp).at(np.array([0.5, 1.0]))
    assert np.allclose(g, np.diag([1.0, np.cos(0.5) ** 2]))


def test_build_metric_exponential():
    wp = hyperbolic_chart()
    g = build_metric(wp).at(np.array([0.7, -0.2]))
    assert np.allclose(g, np.diag([1.0, np.exp(1.4)]))


def test_warping_positive_enforced():
    wp = WarpedProductChart(flat_factor(1), flat_factor(1), poly_fn([0.0, 1.0]))
    with pytest.raises(InvalidWarpingError):
        build_metric(wp).g(np.array([-1.0, 0.0]))


@pytest.mark.parametrize(
    "wp,x",
    [(flat_product_chart(), [0.3, 0.4]), (sphere_chart(), [0.3, 0.2]), (hyperbolic_chart(), [0.2, 0.3])],
    ids=["constant", "sphere", "exponential"],
)
def test_connection_identity_holds_on_the_catalog(wp, x):
    assert check_connection_identity(wp, _curvature(wp, np.array(x))) < 1e-12


def test_connection_identity_fails_with_a_wrong_warp_gradient():
    # the block metric's derivative reads a d1 off by 1e-3 from the derivative
    # of cos t, and the identity the complex step of cos t itself
    wp = sphere_chart(n2=2)
    points = np.stack(wp.sample_points)
    assert np.max(check_connection_identity(wp, _curvature(wp, points))) < 1e-12
    wrong = replace(wp, warp=WarpFunction("cos+", np.cos, lambda t: -np.sin(t) + 1e-3, lambda t: -np.cos(t)))
    cp = _curvature(wrong, points)
    residual = check_connection_identity(wrong, cp)
    assert residual.shape == (3,)
    assert np.all(np.abs(residual - 1e-3 / np.cos(cp.x[:, 0])) < 1e-12)  # |d_t f| / f over |d_t|


def test_mixed_sectional_constant_warp_zero():
    wp = flat_product_chart(2, 1)
    form = mixed_sectional(wp, _curvature(wp, np.array([0.1, 0.2, -0.3])))
    assert form.shape == (2, 2)
    assert np.all(form == 0.0)


@pytest.mark.parametrize("t", [-0.4, 0.0, 0.6])
def test_mixed_sectional_sphere_is_one(t):
    wp = sphere_chart()
    assert abs(mixed_sectional(wp, _curvature(wp, np.array([t, 0.3])))[0, 0] - 1.0) < 1e-12


def test_mixed_sectional_exponential_is_minus_one():
    wp = hyperbolic_chart()
    assert abs(mixed_sectional(wp, _curvature(wp, np.array([0.4, 0.1])))[0, 0] + 1.0) < 1e-12


def test_mixed_sectional_cross_validates_riemann():
    # the form at a unit leaf X is K(X ^ Z) for every unit fibre Z
    for key in ("sphere", "hyperbolic", "cone"):
        wp = named_chart(key)
        cp = riemann(build_metric(wp), np.stack(wp.sample_points))
        X = np.zeros((len(cp.x), wp.dim))
        X[:, 0] = 1.0 / np.sqrt(cp.g[:, 0, 0])
        Z = np.zeros((len(cp.x), wp.dim))
        Z[:, wp.n1] = 1.0 / np.sqrt(cp.g[:, wp.n1, wp.n1])
        form = mixed_sectional(wp, cp)[:, 0, 0] / cp.g[:, 0, 0]
        assert np.max(np.abs(form - sectional_curvature(cp, X, Z))) < 1e-7


def test_laplacian_ratio_sphere():
    wp = sphere_chart()
    rep = check_laplacian_ratio(wp, _curvature(wp, np.array([0.2, 0.5])))
    assert abs(rep["laplacian_ratio"] - 1.0) < 1e-6
    assert rep["max_deviation"] < 1e-3


def test_laplacian_ratio_constant_warp_zero():
    wp = flat_product_chart()
    rep = check_laplacian_ratio(wp, _curvature(wp, np.array([0.1, 0.4])))
    assert abs(rep["laplacian_ratio"]) < 1e-10
    assert rep["max_deviation"] < 1e-6


def test_laplacian_ratio_exponential_plane():
    # R x_{e^t} R^2: ratio -1 against both fibre directions
    wp = hyperbolic_chart(n2=2)
    rep = check_laplacian_ratio(wp, _curvature(wp, np.array([0.3, 0.1, 0.2])))
    assert abs(rep["laplacian_ratio"] + 1.0) < 1e-6
    assert rep["max_deviation"] < 1e-3
    assert rep["spread"] < 1e-3
    assert len(rep["per_s_sums"]) == 2


def test_laplacian_ratio_catalog():
    for key in chart_catalog():
        wp = named_chart(key)
        for p in wp.sample_points:
            rep = check_laplacian_ratio(wp, _curvature(wp, p))
            assert rep["max_deviation"] < 1e-3, (key, p)


def test_is_trivial():
    assert is_trivial(flat_product_chart(), flat_product_chart().sample_points)
    wp = sphere_chart()
    assert not is_trivial(wp, wp.sample_points)


def test_is_trivial_below_tolerance():
    warp = sum_fn(const_fn(1.0), poly_fn([0.0, 1e-15]))
    wp = WarpedProductChart(flat_factor(1), flat_factor(1), warp)
    pts = [np.array([t, 0.0]) for t in (-1.0, 0.0, 1.0)]
    assert is_trivial(wp, pts)


def test_is_trivial_rejects_a_nan_warp_value():
    wp = flat_product_chart()
    second = float(wp.sample_points[1][0])
    wp.warp = WarpFunction(
        "nan-at-second", lambda t: np.nan if t == second else 1.0, lambda t: 0.0, lambda t: 0.0
    )
    with pytest.raises(NumericalDomainError):
        is_trivial(wp, wp.sample_points)


def test_is_trivial_needs_samples():
    with pytest.raises(InvalidInputError):
        is_trivial(flat_product_chart(), [])


def test_warp_function_calculus():
    f = sum_fn(cos_fn(), exp_fn())
    t = 0.37
    assert abs(f.fn(t) - (np.cos(t) + np.exp(t))) < 1e-14
    assert abs(f.d2(t) - (-np.cos(t) + np.exp(t))) < 1e-14


def test_catalog_identities_random_points():
    # connection residual < 1e-12, the mixed form against the Riemann
    # tensor's sectional curvature < 1e-3, and fibrewise sums pairwise
    # within 1e-3, at random chart points
    rng = np.random.default_rng(21)
    domains = {
        "sphere": lambda: np.array([rng.uniform(-1.2, 1.2), rng.uniform(0.0, 3.0)]),
        "hyperbolic": lambda: rng.uniform(-1.0, 1.0, size=2),
        "cone": lambda: np.array([rng.uniform(0.4, 2.0), rng.uniform(0.0, 3.0)]),
        "flat-product": lambda: rng.uniform(-1.0, 1.0, size=2),
    }
    for key, draw in domains.items():
        wp = named_chart(key)
        cp = riemann(build_metric(wp), np.stack([draw() for _ in range(25)]))
        assert np.max(check_connection_identity(wp, cp)) < 1e-12, key
        X, Z = np.eye(wp.dim)[0] / np.sqrt(cp.g[:, :1, 0]), np.eye(wp.dim)[1] / np.sqrt(cp.g[:, 1:2, 1])
        direct = mixed_sectional(wp, cp)[:, 0, 0] / cp.g[:, 0, 0]
        assert np.max(np.abs(direct - sectional_curvature(cp, X, Z))) < 1e-3, key
        assert np.max(check_laplacian_ratio(wp, cp)["spread"]) < 1e-3, key


def test_chen_special_case_sphere():
    # unit sphere in R^3: Delta f / f = 1 equals n^2/(4 n2) |H|^2 + n1 * 0
    rep = chart_inequality(sphere_in_euclidean(2), np.array([0.3, 0.8]))
    assert abs(rep.lhs - 1.0) < 1e-3
    assert abs(rep.mean_term - 1.0) < 1e-3
    assert abs(rep.gap) < 1e-3
