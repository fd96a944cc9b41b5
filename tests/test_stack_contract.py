"""The stack contract of the chart layer.

Geometry callables take a stack of points (..., n) and broadcast over its
leading axes; `riemann` evaluates whole stacks, with the axis shifts of
step FD_STEP that it differences the symbols on, in one g_dg call,
validating every metric on it.
"""

import re

import numpy as np
import pytest

from warpcheck.charts import ChartMetric, _metric_derivatives, euclidean_metric, riemann
from warpcheck.errors import DegenerateMetricError, InvalidInputError, NumericalDomainError
from warpcheck.immersion import (
    ChartImmersion,
    chart_immersion_catalog,
    pullback_metric,
    second_fundamental_form,
    sphere_in_euclidean,
)
from warpcheck.numeric import FD_STEP
from warpcheck.warped import (
    build_metric,
    chart_catalog,
    const_fn,
    cos_fn,
    exp_fn,
    named_chart,
    poly_fn,
    product_fn,
    round_sphere_factor,
    sum_fn,
)


def _random_metric(rng, dim):
    """g = I + M M^T with M(x) = sum_k A_k sin(x_k + phi_k): positive
    definite everywhere, with its analytic derivative."""
    amps = rng.uniform(-0.5, 0.5, size=(dim, dim, dim))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(dim, dim, dim))

    def factor(x, fn):
        return sum(amps[k] * fn(x[..., k, None, None] + phases[k]) for k in range(dim))

    def g(x):
        m = factor(x, np.sin)
        return np.eye(dim) + m @ np.swapaxes(m, -1, -2)

    def dg(x):
        m = factor(x, np.sin)
        out = np.empty(x.shape[:-1] + (dim, dim, dim))
        for k in range(dim):
            dm = amps[k] * np.cos(x[..., k, None, None] + phases[k])
            out[..., k, :, :] = dm @ np.swapaxes(m, -1, -2) + m @ np.swapaxes(dm, -1, -2)
        return out

    return ChartMetric(dim, lambda x: (g(x), dg(x)))


def _metrics(dim):
    rng = np.random.default_rng(100 + dim)
    cases = {
        "euclidean": (euclidean_metric(dim), rng.uniform(-1.0, 1.0, size=(3, dim))),
        "round-sphere": (round_sphere_factor(dim), rng.uniform(0.4, 1.2, size=(3, dim))),
        "random-analytic": (_random_metric(rng, dim), rng.uniform(-1.0, 1.0, size=(3, dim))),
        "random-analytic-second-draw": (_random_metric(rng, dim), rng.uniform(-1.0, 1.0, size=(3, dim))),
        "sphere-pullback": (
            pullback_metric(sphere_in_euclidean(dim)),
            sphere_in_euclidean(dim).default_point + rng.uniform(-0.2, 0.2, size=(3, dim)),
        ),
    }
    if dim > 1:
        wp = named_chart("sphere", n2=dim - 1)
        cases["warped-sphere"] = (build_metric(wp), np.stack(wp.sample_points))
    return cases


@pytest.mark.parametrize("dim", range(2, 9))
def test_stacked_geometry_equals_the_pointwise_calls_exactly(dim):
    for name, (metric, points) in _metrics(dim).items():
        cp = riemann(metric, points)
        assert cp.gamma.shape == (len(points), dim, dim, dim), name
        assert cp.riemann04.shape == (len(points), dim, dim, dim, dim), name
        for i, x in enumerate(points):
            single = riemann(metric, x)
            assert np.array_equal(cp.gamma[i], single.gamma), name
            assert np.array_equal(cp.riemann04[i], single.riemann04), name


def test_a_stack_of_stacks_keeps_its_leading_axes():
    metric = round_sphere_factor(3)
    points = np.random.default_rng(1).uniform(0.4, 1.2, size=(2, 3, 3))
    cp = riemann(metric, points)
    assert cp.riemann04.shape == (2, 3, 3, 3, 3, 3)
    assert np.array_equal(cp.riemann04[1, 2], riemann(metric, points[1, 2]).riemann04)


def _bad_metric(mask, bad, part=0):
    """diag(1, 1) with zero derivative, except that g[1, 1] (part 0) or
    d_0 g[1, 1] (part 1) is `bad` where mask(x)."""

    def g_dg(x):
        pair = [np.eye(2) + 0.0 * x[..., :1, None], np.zeros(x.shape + (2, 2))]
        pair[part][(mask(x),) + (0,) * part + (1, 1)] = bad
        return tuple(pair)

    return ChartMetric(2, g_dg)


X0 = np.array([0.3, 0.1])  # both |x_k| < 1: riemann's step is FD_STEP


@pytest.mark.parametrize("bad,error", [(0.0, DegenerateMetricError), (np.nan, NumericalDomainError)])
def test_a_bad_metric_at_a_shifted_stencil_point_is_rejected(bad, error):
    # bad only at x - h e_0, the stencil row 1 + n + 0 = 3 of riemann
    metric = _bad_metric(lambda x: x[..., 0] < X0[0] - 0.5 * FD_STEP, bad)
    assert np.array_equal(metric.at(X0), np.eye(2))
    with pytest.raises(error, match=r"stack index \(3,\)"):
        riemann(metric, X0)


def test_a_non_finite_metric_derivative_is_rejected():
    # NaN only at x + h e_1, the stencil row 1 + 1 of riemann
    metric = _bad_metric(lambda x: x[..., 1] > X0[1] + 0.5 * FD_STEP, np.nan, part=1)
    _metric_derivatives(metric, X0)
    with pytest.raises(NumericalDomainError, match=r"metric derivative has non-finite entries .*stack index \(2,\)"):
        riemann(metric, X0)
    with pytest.raises(NumericalDomainError, match=r"stack index \(1,\)"):
        _metric_derivatives(metric, np.stack([X0, X0 + 0.1]))


def test_a_metric_that_ignores_the_stack_axis_is_rejected():
    eye = ChartMetric(2, lambda x: (np.eye(2), np.zeros((2, 2, 2))))
    assert np.array_equal(eye.at(X0), np.eye(2))  # a single point is well-formed
    _metric_derivatives(eye, X0)
    with pytest.raises(InvalidInputError, match="metric returned shape"):
        _metric_derivatives(eye, np.stack([X0, X0]))
    with pytest.raises(InvalidInputError, match="metric returned shape"):
        riemann(eye, X0)
    flat = euclidean_metric(2)
    flat_dg = ChartMetric(2, lambda x: (flat.g_dg(x)[0], np.zeros((2, 2, 2))))
    with pytest.raises(InvalidInputError, match="metric derivative returned shape"):
        riemann(flat_dg, X0)


def test_a_map_that_ignores_the_stack_axis_is_rejected():
    # indexes the stack axis instead of the coordinate axis
    cylinder = ChartImmersion(
        map=lambda u: np.array([np.cos(u[1]), np.sin(u[1]), u[0]]),
        ambient_dim=3,
        n1=1,
        n2=1,
    )
    p = np.array([0.1, 0.7])
    with pytest.raises(InvalidInputError, match="shape"):
        second_fundamental_form(cylinder, p)
    with pytest.raises(InvalidInputError, match="shape"):
        pullback_metric(cylinder).at(p)


def test_a_callable_that_leaves_its_real_domain_is_rejected():
    # sqrt of a negative coordinate is finite but not real; the complex step
    # alone would read a finite derivative there
    im = ChartImmersion(lambda u: np.stack([u[..., 0], np.sqrt(u[..., 1]), u[..., 1]], axis=-1), 3, 1, 1)
    for evaluate in (
        lambda p: second_fundamental_form(im, p),
        lambda p: pullback_metric(im).at(p),
        lambda p: riemann(pullback_metric(im), p),
    ):
        evaluate(np.array([0.2, 0.5]))
        with pytest.raises(NumericalDomainError, match="map is not real at the real point"):
            evaluate(np.array([0.2, -0.5]))


def test_a_map_that_drops_the_imaginary_part_is_rejected():
    # a float-casting map would read as a constant one: J = 0
    cylinder = ChartImmersion(
        map=lambda u: np.stack([np.cos(u.real[..., 1]), np.sin(u.real[..., 1]), u.real[..., 0]], axis=-1),
        ambient_dim=3,
        n1=1,
        n2=1,
    )
    p = np.array([0.1, 0.7])
    assert np.array_equal(cylinder.map(p), chart_immersion_catalog()["cylinder"]().map(p))
    with pytest.raises(InvalidInputError, match="map returned float64 values for complex points"):
        second_fundamental_form(cylinder, p)
    for evaluate in (lambda m: m.at(p), lambda m: m.g_dg(p), lambda m: riemann(m, p)):
        with pytest.raises(InvalidInputError, match="map returned float64 values for complex points"):
            evaluate(pullback_metric(cylinder))


def _complex_stack(rng, shape, lo, hi):
    return rng.uniform(lo, hi, size=shape).astype(np.complex128)


def _assert_keeps_dtype(fn, z, label):
    got = fn(z)
    want = fn(z.real)
    assert got.dtype == np.complex128, label
    assert want.dtype == np.float64, label
    assert got.shape == want.shape, label
    # complex sin, cos and pow may round the last bit differently
    np.testing.assert_allclose(got.real, want, rtol=1e-15, atol=1e-15, err_msg=label)


def test_catalog_maps_and_metrics_keep_the_input_dtype():
    rng = np.random.default_rng(4)
    for key, build in chart_immersion_catalog().items():
        for params in ({"n": n} for n in range(2, 6)) if key == "sphere-in-euclidean" else ({},):
            im = build(**params)
            z = _complex_stack(rng, (4, 3, im.n), 0.2, 1.2)
            _assert_keeps_dtype(im.map, z, f"{key}{params}.map")
    for dim in range(1, 6):
        factor = round_sphere_factor(dim)
        z = _complex_stack(rng, (5, dim), 0.2, 1.2)
        for part in (0, 1):
            _assert_keeps_dtype(lambda x: factor.g_dg(x)[part], z, f"round-sphere({dim}).g_dg[{part}]")
    for key in chart_catalog():
        wp = named_chart(key)
        metric = build_metric(wp)
        z = np.stack(wp.sample_points).astype(np.complex128)
        for part in (0, 1):
            _assert_keeps_dtype(lambda x: metric.g_dg(x)[part], z, f"{key}.g_dg[{part}]")
    t = _complex_stack(rng, (6,), -0.5, 0.5)
    warps = [const_fn(1.5), cos_fn(), exp_fn(), poly_fn([1.0, 0.2, -0.3])]
    warps += [sum_fn(cos_fn(), exp_fn()), product_fn(poly_fn([1.0, 0.5]), cos_fn())]
    for w in warps:
        for part in ("fn", "d1", "d2"):
            _assert_keeps_dtype(getattr(w, part), t, f"{w.label}.{part}")
        x1 = t[:, None]
        for part in ("value", "grad", "hess"):
            _assert_keeps_dtype(getattr(w, part), x1, f"{w.label}.{part}")


def _round_sphere_loops(dim, x):
    """g and dg of the round sphere by the scalar loops the stacked
    callables replaced."""
    g = np.eye(dim)
    acc = 1.0
    for i in range(1, dim):
        acc *= np.sin(x[i - 1]) ** 2
        g[i, i] = acc
    dg = np.zeros((dim, dim, dim))
    for k in range(dim - 1):
        for i in range(k + 1, dim):
            prod = 1.0
            for j in range(i):
                prod *= np.sin(x[j]) ** 2
            dg[k, i, i] = prod * 2.0 * np.cos(x[k]) / np.sin(x[k])
    return g, dg


def _sphere_map_loop(u):
    k = len(u) - 1
    fibre = np.empty(k + 1)
    acc = 1.0
    for i in range(k):
        fibre[i] = acc * np.cos(u[1 + i])
        acc *= np.sin(u[1 + i])
    fibre[k] = acc
    return np.concatenate([[np.sin(u[0])], np.cos(u[0]) * fibre])


@pytest.mark.parametrize("dim", range(2, 9))
def test_stacked_catalog_callables_equal_their_scalar_loops_exactly(dim):
    # enough points that a last-bit difference in sin^2 (about 1 in 1000) shows
    points = np.random.default_rng(dim).uniform(0.2, 1.4, size=(500, dim))
    factor = round_sphere_factor(dim)
    sphere_map = sphere_in_euclidean(dim).map
    (g, dg), mapped = factor.g_dg(points), sphere_map(points)
    assert np.array_equal(factor.at(points), g)
    for i, x in enumerate(points):
        g_loop, dg_loop = _round_sphere_loops(dim, x)
        assert np.array_equal(g[i], g_loop)
        assert np.array_equal(dg[i], dg_loop)
        assert np.array_equal(mapped[i], _sphere_map_loop(x))
