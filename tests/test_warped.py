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


def test_connection_identity_constant_warp():
    wp = flat_product_chart()
    res = check_connection_identity(
        wp, _curvature(wp, np.array([0.3, 0.4])), np.array([1.0, 0.0]), np.array([0.0, 1.0])
    )
    assert res < 1e-6


def test_connection_identity_sphere():
    wp = sphere_chart()
    res = check_connection_identity(
        wp, _curvature(wp, np.array([0.3, 0.2])), np.array([1.0, 0.0]), np.array([0.0, 1.0])
    )
    assert res < 1e-6


def test_connection_identity_exponential():
    wp = hyperbolic_chart()
    res = check_connection_identity(
        wp, _curvature(wp, np.array([0.2, 0.3])), np.array([1.0, 0.0]), np.array([0.0, 1.0])
    )
    assert res < 1e-6


def test_connection_identity_rejects_mixed_blocks():
    wp = sphere_chart()
    with pytest.raises(InvalidInputError):
        check_connection_identity(
            wp, _curvature(wp, np.array([0.3, 0.2])), np.array([1.0, 1.0]), np.array([0.0, 1.0])
        )


def test_mixed_sectional_constant_warp_zero():
    wp = flat_product_chart()
    cp = _curvature(wp, np.array([0.1, 0.2]))
    val = mixed_sectional(wp, cp, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert abs(val) < 1e-10


@pytest.mark.parametrize("t", [-0.4, 0.0, 0.6])
def test_mixed_sectional_sphere_is_one(t):
    wp = sphere_chart()
    x = np.array([t, 0.3])
    Z = np.array([0.0, 1.0 / np.cos(t)])
    assert abs(mixed_sectional(wp, _curvature(wp, x), np.array([1.0, 0.0]), Z) - 1.0) < 1e-4


def test_mixed_sectional_exponential_is_minus_one():
    wp = hyperbolic_chart()
    x = np.array([0.4, 0.1])
    Z = np.array([0.0, np.exp(-0.4)])
    assert abs(mixed_sectional(wp, _curvature(wp, x), np.array([1.0, 0.0]), Z) + 1.0) < 1e-4


def test_mixed_sectional_requires_unit_vectors():
    wp = sphere_chart()
    cp = _curvature(wp, np.array([0.3, 0.2]))
    with pytest.raises(InvalidInputError):
        mixed_sectional(wp, cp, np.array([2.0, 0.0]), np.array([0.0, 1.0]))


def test_mixed_sectional_cross_validates_riemann():
    for key in ("sphere", "hyperbolic", "cone"):
        wp = named_chart(key)
        metric = build_metric(wp)
        for p in wp.sample_points:
            gx = metric.at(p)
            X = np.zeros(wp.dim)
            X[0] = 1.0 / np.sqrt(gx[0, 0])
            Z = np.zeros(wp.dim)
            Z[wp.n1] = 1.0 / np.sqrt(gx[wp.n1, wp.n1])
            cp = riemann(metric, p)
            direct = mixed_sectional(wp, cp, X, Z)
            via = sectional_curvature(cp, X, Z)
            assert abs(direct - via) < 1e-3


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
    # connection residual < 1e-5, direct vs Riemann mixed curvature < 1e-3,
    # and fibrewise sums pairwise within 1e-3, at random chart points
    rng = np.random.default_rng(21)
    domains = {
        "sphere": lambda: np.array([rng.uniform(-1.2, 1.2), rng.uniform(0.0, 3.0)]),
        "hyperbolic": lambda: rng.uniform(-1.0, 1.0, size=2),
        "cone": lambda: np.array([rng.uniform(0.4, 2.0), rng.uniform(0.0, 3.0)]),
        "flat-product": lambda: rng.uniform(-1.0, 1.0, size=2),
    }
    for key, draw in domains.items():
        wp = named_chart(key)
        metric = build_metric(wp)
        for _ in range(25):
            p = draw()
            X = np.zeros(wp.dim)
            X[: wp.n1] = rng.normal(size=wp.n1)
            Y = np.zeros(wp.dim)
            Y[wp.n1 :] = rng.normal(size=wp.n2)
            cp = riemann(metric, p)
            assert check_connection_identity(wp, cp, X, Y) < 1e-5, key
            gx = metric.at(p)
            Xu = X / np.sqrt(X @ gx @ X)
            Yu = Y / np.sqrt(Y @ gx @ Y)
            direct = mixed_sectional(wp, cp, Xu, Yu)
            via = sectional_curvature(cp, Xu, Yu)
            assert abs(direct - via) < 1e-3, key
            assert check_laplacian_ratio(wp, cp)["spread"] < 1e-3, key


def test_chen_special_case_sphere():
    # unit sphere in R^3: Delta f / f = 1 equals n^2/(4 n2) |H|^2 + n1 * 0
    rep = chart_inequality(sphere_in_euclidean(2), np.array([0.3, 0.8]))
    assert abs(rep.lhs - 1.0) < 1e-3
    assert abs(rep.mean_term - 1.0) < 1e-3
    assert abs(rep.gap) < 1e-3
