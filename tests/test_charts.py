import inspect
from dataclasses import MISSING, fields

import numpy as np
import pytest

from warpcheck.charts import (
    ChartMetric,
    _metric_derivatives,
    euclidean_metric,
    riemann,
    sectional_curvature,
    trace_laplacian,
)
from warpcheck.errors import (
    DegenerateMetricError,
    DegeneratePlaneError,
    InvalidInputError,
    NumericalDomainError,
)
from warpcheck.immersion import (
    chart_immersion_catalog,
    pullback_metric,
    second_fundamental_form,
    sphere_in_euclidean,
)
from warpcheck.inequality import chart_inequality
from warpcheck.numeric import FD_STEP, Tolerance, axis_stencil, bilinear, complex_step, jet
from warpcheck.warped import (
    WarpFunction,
    _adapted_frame,
    build_metric,
    chart_catalog,
    const_fn,
    cos_fn,
    named_chart,
    poly_fn,
    round_sphere_factor,
)


def diag(*entries):
    """Diagonal metrics (..., n, n) from n entries broadcasting over a stack."""
    d = np.stack(np.broadcast_arrays(*entries), axis=-1)
    return d[..., None] * np.eye(d.shape[-1])


def line_warped_metric(w, dw):
    """diag(1, w(x_0)^2) with its exact derivative d_0 g_11 = 2 w w'."""

    def g_dg(x):
        t = x[..., 0]
        dg = np.zeros(x.shape + (2, 2), dtype=np.result_type(x, float))
        dg[..., 0, 1, 1] = 2.0 * w(t) * dw(t)
        return diag(1.0, w(t) ** 2), dg

    return ChartMetric(2, g_dg)


def sphere_metric():
    return line_warped_metric(np.sin, np.cos)


def hyperbolic_metric():
    return line_warped_metric(np.cosh, np.sinh)


@pytest.mark.parametrize(
    "fn",
    [axis_stencil, jet, riemann, trace_laplacian, pullback_metric, second_fundamental_form, chart_inequality],
    ids=lambda fn: fn.__name__,
)
def test_no_chart_derivative_takes_a_step(fn):
    # the one central difference has the fixed step FD_STEP
    assert "h" not in inspect.signature(fn).parameters


def test_a_chart_metric_has_one_derivative_callable_and_the_tolerance_one_bound():
    assert [f.name for f in fields(ChartMetric)] == ["dim", "g_dg"]
    assert fields(ChartMetric)[1].default is MISSING
    assert [f.name for f in fields(Tolerance)] == ["algebraic"]


def laplacian(metric, x, grad, hess):
    """Delta f at a point or stack x by the checks' path: Gamma and g from
    riemann, then trace_laplacian of the analytic gradient and Hessian."""
    cp = riemann(metric, x)
    return trace_laplacian(cp.g, cp.gamma, cp.x, grad(cp.x), hess(cp.x))


def test_christoffel_euclidean_zero():
    gamma = riemann(euclidean_metric(3), np.array([0.4, -1.0, 2.0])).gamma
    assert np.max(np.abs(gamma)) < 1e-12


def test_christoffel_polar():
    polar = line_warped_metric(lambda t: t, np.ones_like)
    gamma = riemann(polar, np.array([2.0, 0.3])).gamma
    assert abs(gamma[0, 1, 1] + 2.0) < 1e-6
    assert abs(gamma[1, 0, 1] - 0.5) < 1e-6


def test_christoffel_sphere():
    gamma = riemann(sphere_metric(), np.array([np.pi / 4, 0.2])).gamma
    assert abs(gamma[0, 1, 1] + 0.5) < 1e-6  # -sin(pi/4)cos(pi/4)


def test_riemann_euclidean_zero():
    cp = riemann(euclidean_metric(3), np.array([0.1, 0.2, 0.3]))
    assert np.max(np.abs(cp.riemann04)) < 1e-10


@pytest.mark.parametrize(
    "metric,expected,t",
    [
        (sphere_metric(), 1.0, np.pi / 3),
        (hyperbolic_metric(), -1.0, 0.5),
        (euclidean_metric(2), 0.0, 0.4),
    ],
)
def test_constant_curvature_charts(metric, expected, t):
    x = np.array([t, 0.7])
    cp = riemann(metric, x)
    K = sectional_curvature(cp, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert abs(K - expected) < 1e-4


def test_sectional_scaling_invariance():
    metric = sphere_metric()
    x = np.array([1.0, 0.5])
    cp = riemann(metric, x)
    X, Y = np.array([1.0, 0.2]), np.array([0.1, 1.0])
    k1 = sectional_curvature(cp, X, Y)
    k2 = sectional_curvature(cp, 3.0 * X, Y)
    assert abs(k1 - k2) < 1e-12


def test_sectional_degenerate_plane():
    metric = euclidean_metric(2)
    x = np.zeros(2)
    cp = riemann(metric, x)
    with pytest.raises(DegeneratePlaneError):
        sectional_curvature(cp, np.array([1.0, 0.0]), np.array([2.0, 0.0]))


def _sectional_cases():
    """The warped catalog (sphere and hyperbolic at n2 = 1..7) and the warped
    charts of the chart immersions (sphere-in-euclidean at n = 2..8)."""
    for key in ("sphere", "hyperbolic"):
        for n2 in range(1, 8):
            yield pytest.param(named_chart(key, n2=n2), id=f"{key}-{n2}")
    for key in ("cone", "flat-product"):
        yield pytest.param(named_chart(key), id=key)
    for key, build in chart_immersion_catalog().items():
        for params in ({"n": n} for n in range(2, 9)) if key == "sphere-in-euclidean" else ({},):
            yield pytest.param(build(**params).warped, id="-".join([key, *map(str, params.values())]))


def _five_operand_sectional(cp, X, Y):
    """K(X ^ Y) with R(X, Y, Y, X) as one 5-operand einsum, and the sum of
    the absolute values of its terms over the same Gram determinant."""
    xy = bilinear(cp.g, X, Y)
    denom = bilinear(cp.g, X, X) * bilinear(cp.g, Y, Y) - xy * xy
    terms = [cp.riemann04, X, Y, Y, X]
    value, absolute = (np.einsum("...ijkl,...i,...j,...k,...l->...", *t) for t in (terms, map(np.abs, terms)))
    return value / denom, absolute / denom


@pytest.mark.parametrize("wp", _sectional_cases())
def test_sectional_curvature_contracts_as_the_five_operand_einsum(wp):
    # on the adapted frames, coordinate-aligned, every sum has one nonzero
    # term: equal bit for bit; on random planes within round-off of the sum
    # of the absolute terms; a point's values are those of its one-point call
    points = np.array(wp.sample_points)
    cp = riemann(build_metric(wp), points)
    frame1, frame2 = _adapted_frame(wp, cp.g)
    adapted = sectional_curvature(cp, frame1[:, None], frame2[None])
    assert np.array_equal(adapted, _five_operand_sectional(cp, frame1[:, None], frame2[None])[0])
    X, Y = np.random.default_rng(5).normal(size=(2, 20) + points.shape)
    K = sectional_curvature(cp, X, Y)
    ref, absolute = _five_operand_sectional(cp, X, Y)
    assert np.all(np.abs(K - ref) <= 1e-13 * absolute)
    for i, p in enumerate(points):
        single = riemann(build_metric(wp), p)
        assert np.array_equal(sectional_curvature(single, X[:, i], Y[:, i]), K[:, i])
        f1, f2 = _adapted_frame(wp, single.g)
        assert np.array_equal(sectional_curvature(single, f1[:, None], f2[None]), adapted[..., i])


def scalar_curvature(cp, frame):
    """Sum of K(e_i ^ e_j) over the pairs i < j of an orthogonal frame
    (k, n), one stacked sectional_curvature call at the point of cp."""
    i, j = np.triu_indices(len(frame), 1)
    return float(np.sum(sectional_curvature(cp, frame[i], frame[j])))


def test_scalar_curvature_sphere_s2():
    metric = sphere_metric()
    x = np.array([0.9, 0.4])
    cp = riemann(metric, x)
    tau = scalar_curvature(cp, np.eye(2))
    assert abs(tau - 1.0) < 1e-4


def test_scalar_curvature_s3():
    def s3_g_dg(x):
        (s0, s1), (c0, c1) = np.sin(x[..., :2].T), np.cos(x[..., :2].T)
        dg = np.zeros(x.shape + (3, 3))
        dg[..., 0, 1, 1] = 2.0 * s0 * c0
        dg[..., 0, 2, 2] = 2.0 * s0 * c0 * s1**2
        dg[..., 1, 2, 2] = 2.0 * s0**2 * s1 * c1
        return diag(1.0, s0**2, (s0 * s1) ** 2), dg

    s3 = ChartMetric(3, s3_g_dg)
    x = np.array([1.1, 0.9, 0.4])
    cp = riemann(s3, x)
    tau = scalar_curvature(cp, np.eye(3))  # the coordinate frame of a diagonal metric
    assert abs(tau - 3.0) < 1e-3


def test_flat_two_plane_zero():
    metric = euclidean_metric(3)
    x = np.zeros(3)
    cp = riemann(metric, x)
    tau = scalar_curvature(cp, np.eye(3)[[0, 2]])
    assert abs(tau) < 1e-10


def _random_analytic_metric(rng, dim):
    """Positive-definite metric with analytic derivatives built from a few
    low-frequency trigonometric modes."""
    amps = rng.uniform(-0.15, 0.15, size=(dim, dim, dim))
    amps = 0.5 * (amps + amps.transpose(1, 0, 2))
    phases = rng.uniform(0, 2 * np.pi, size=(dim, dim, dim))
    phases = np.where(
        np.arange(dim)[:, None, None] <= np.arange(dim)[None, :, None], phases,
        phases.transpose(1, 0, 2),
    )

    def g(x):
        out = np.eye(dim)
        for k in range(dim):
            out = out + amps[:, :, k] * np.sin(x[..., k, None, None] + phases[:, :, k])
        return out

    def dg(x):
        out = np.zeros(x.shape[:-1] + (dim, dim, dim))
        for k in range(dim):
            out[..., k, :, :] = amps[:, :, k] * np.cos(x[..., k, None, None] + phases[:, :, k])
        return out

    return ChartMetric(dim, lambda x: (g(x), dg(x)))


def test_riemann_symmetries_random_metrics():
    # antisymmetries, pair symmetry and first Bianchi within 5e-4
    rng = np.random.default_rng(5)
    total_points = 0
    while total_points < 100:
        dim = int(rng.integers(2, 4))
        metric = _random_analytic_metric(rng, dim)
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, size=dim)
            try:
                cp = riemann(metric, x)
            except DegenerateMetricError:
                continue
            r = cp.riemann04
            assert np.max(np.abs(r + r.transpose(1, 0, 2, 3))) < 5e-4
            assert np.max(np.abs(r + r.transpose(0, 1, 3, 2))) < 5e-4
            assert np.max(np.abs(r - r.transpose(2, 3, 0, 1))) < 5e-4
            bianchi = r + r.transpose(1, 2, 0, 3) + r.transpose(2, 0, 1, 3)
            assert np.max(np.abs(bianchi)) < 5e-4
            total_points += 1


def test_scalar_curvature_matches_ricci_half_trace():
    # independent route: tau = (1/2) trace of Ricci in an orthonormal frame
    rng = np.random.default_rng(9)
    metric = _random_analytic_metric(rng, 3)
    x = rng.uniform(-0.5, 0.5, size=3)
    cp = riemann(metric, x)
    gx = metric.at(x)
    # the rows of L^-1, gx = L L^T: a gx-orthonormal frame
    frame = list(np.linalg.inv(np.linalg.cholesky(gx)))
    ricci_trace = 0.0
    for j in range(3):
        for i in range(3):
            ricci_trace += float(
                np.einsum("ijkl,i,j,k,l->", cp.riemann04, frame[i], frame[j], frame[j], frame[i])
            )
    tau_indep = 0.5 * ricci_trace
    tau = scalar_curvature(cp, np.array(frame))
    assert abs(tau - tau_indep) < 1e-4


def test_degenerate_metric_rejected():
    bad = line_warped_metric(lambda t: 0.0 * t, lambda t: 0.0 * t)
    with pytest.raises(DegenerateMetricError):
        riemann(bad, np.zeros(2))


def test_laplacian_sign_convention():
    line = euclidean_metric(1)
    # the analytic gradient and Hessian of a function of x_0 (WarpFunction)
    five, square, cosine = const_fn(5.0), poly_fn([0.0, 0.0, 1.0]), cos_fn()
    assert abs(laplacian(line, np.array([0.3]), five.grad, five.hess)) < 1e-9
    assert abs(laplacian(line, np.array([0.3]), square.grad, square.hess) + 2.0) < 1e-5
    # Delta cos = +cos at 0, so Delta f / f = 1
    assert abs(laplacian(line, np.array([0.0]), cosine.grad, cosine.hess) - 1.0) < 1e-6


def test_laplacian_on_curved_chart():
    # on the round 2-sphere, cos(polar angle) is an eigenfunction: using the
    # -div grad sign, Delta cos t = 2 cos t
    s2 = round_sphere_factor(2)
    cosine = cos_fn()
    for t in (0.4, 1.0, 2.2):
        x = np.array([t, 0.7])
        val = laplacian(s2, x, cosine.grad, cosine.hess)
        assert abs(val - 2.0 * np.cos(t)) < 1e-5


def test_laplacian_analytic_callbacks():
    line = euclidean_metric(1)
    val = laplacian(
        line,
        np.array([0.2]),
        grad=lambda x: np.array([-np.sin(x[0])]),
        hess=lambda x: np.array([[-np.cos(x[0])]]),
    )
    assert abs(val - np.cos(0.2)) < 1e-12


def test_trace_laplacian_validates_the_gradient_and_hessian_of_a_stack():
    # grad and hess follow the stack contract: their values on the points
    # (..., n) are validated by stack_values
    s2 = round_sphere_factor(2)
    x = np.array([[0.4, 0.7], [1.0, 0.7], [2.2, -0.3]])
    cosine = cos_fn()
    grad, hess = cosine.grad, cosine.hess
    val = laplacian(s2, x, grad, hess)
    assert np.max(np.abs(val - 2.0 * np.cos(x[:, 0]))) < 1e-7
    with pytest.raises(InvalidInputError, match="gradient returned shape"):
        laplacian(s2, x, lambda p: 5.0, hess)
    with pytest.raises(InvalidInputError, match="Hessian returned shape"):
        laplacian(s2, x, grad, grad)
    # the row of point 1
    nan_at_one = WarpFunction("nan-at-one", np.cos, lambda t: np.where(t == 1.0, np.nan, -np.sin(t)), np.cos)
    with pytest.raises(NumericalDomainError, match=r"gradient has non-finite entries at .*\(stack index \(1,\)\)"):
        laplacian(s2, x, nan_at_one.grad, nan_at_one.hess)


def test_metric_derivatives_are_one_validated_g_dg_call():
    # one g_dg call on the stack itself; its pair is validated, never symmetrized
    calls = []
    sphere = round_sphere_factor(3)

    def counted(x):
        calls.append(x.copy())
        return sphere.g_dg(x)

    x = np.array([[0.9, 0.4, 1.2], [0.5, 1.1, 0.3]])
    gx, dg = _metric_derivatives(ChartMetric(3, counted), x)
    assert len(calls) == 1 and np.array_equal(calls[0], x)
    g_ref, dg_ref = sphere.g_dg(x)
    assert np.array_equal(gx, g_ref) and np.array_equal(dg, dg_ref)


@pytest.mark.parametrize(
    "g_dg",
    [lambda x: np.eye(2), lambda x: [np.eye(2), np.zeros((2, 2, 2))], lambda x: (np.eye(2),)],
    ids=["matrix", "list", "one-tuple"],
)
def test_a_g_dg_that_does_not_return_a_pair_is_rejected(g_dg):
    # an old-style g-only metric would otherwise unpack its matrix rows
    metric = ChartMetric(2, g_dg)
    for evaluate in (metric.at, lambda x: riemann(metric, x)):
        with pytest.raises(InvalidInputError, match=r"g_dg returned \w+, expected the pair \(g, dg\)"):
            evaluate(np.array([0.9, 0.4]))


def _analytic_metrics():
    """The package's metrics whose g_dg is complex-analytic (all but the
    pull-back), each with a stack of points."""

    def points(lo, hi, d):
        return np.linspace(lo, hi, 3 * d).reshape(3, d)

    cases = []
    for d in range(1, 5):
        cases.append(pytest.param(euclidean_metric(d), points(-0.7, 0.8, d), id=f"euclidean({d})"))
    for d in range(1, 6):
        cases.append(pytest.param(round_sphere_factor(d), points(0.3, 1.3, d), id=f"round-sphere({d})"))
    for key in chart_catalog():
        for params in ({"n2": 1}, {"n2": 3}) if key in ("sphere", "hyperbolic") else ({},):
            wp = named_chart(key, **params)
            cases.append(pytest.param(build_metric(wp), np.stack(wp.sample_points), id=wp.label))
    return cases


@pytest.mark.parametrize("metric,points", _analytic_metrics())
def test_the_analytic_dg_is_the_complex_step_of_the_metrics_own_g(metric, points):
    # the pull-back is left out: its g_dg takes real points only
    dg = metric.g_dg(points)[1]
    reference = complex_step(lambda z: metric.g_dg(z)[0], points, (metric.dim, metric.dim), "metric")[1]
    assert np.max(np.abs(dg - reference)) <= 1e-14 * max(1.0, np.max(np.abs(reference)))


def _riemann_reference(metric, x):
    """R(d_i, d_j, d_k, d_l) by the explicit index loop over Gamma and its
    central differences."""
    n = metric.dim
    gamma = riemann(metric, x).gamma
    dgamma = np.empty((n, n, n, n))
    for a in range(n):
        xp, xm = x.copy(), x.copy()
        xp[a] += FD_STEP
        xm[a] -= FD_STEP
        dgamma[a] = (riemann(metric, xp).gamma - riemann(metric, xm).gamma) / (2.0 * FD_STEP)
    r_up = np.empty((n, n, n, n))
    for l in range(n):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    r_up[l, i, j, k] = (
                        dgamma[i, l, j, k]
                        - dgamma[j, l, i, k]
                        + np.dot(gamma[:, j, k], gamma[l, i, :])
                        - np.dot(gamma[:, i, k], gamma[l, j, :])
                    )
    return np.einsum("lm,mijk->ijkl", metric.at(x), r_up)


@pytest.mark.parametrize("dim", range(2, 9))
def test_riemann_matches_reference_loop(dim):
    sphere = round_sphere_factor(dim)
    x = np.array([0.4 + 0.1 * i for i in range(dim)])
    pull = pullback_metric(sphere_in_euclidean(dim))
    p = sphere_in_euclidean(dim).default_point
    cases = [(sphere, x), (pull, p)]
    if dim == 3:
        cases.append((_random_analytic_metric(np.random.default_rng(9), 3), x))
    for metric, point in cases:
        r04 = riemann(metric, point).riemann04
        assert np.max(np.abs(r04 - _riemann_reference(metric, point))) < 1e-12
