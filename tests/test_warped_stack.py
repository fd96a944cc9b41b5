"""The warped checks on stacks: a stacked call gives every point the numbers
that a call on that point alone gives, a scene run evaluates its warped
chart's curvature once, and bad input fails naming its point or row."""

import numpy as np
import pytest

import warpcheck.scenes as scenes_mod
from warpcheck.charts import covariant_hessian, riemann, sectional_curvature, trace_laplacian
from warpcheck.errors import DegeneratePlaneError, NumericalDomainError
from warpcheck.numeric import bilinear, taylor
from warpcheck.scenes import parse_scene, run
from warpcheck.warped import (
    WarpedProductChart,
    WarpFunction,
    build_metric,
    chart_catalog,
    check_connection_identity,
    check_laplacian_ratio,
    flat_factor,
    mixed_sectional,
    named_chart,
    poly_fn,
    round_sphere_factor,
)


def _polynomial_chart() -> WarpedProductChart:
    """(-1/2, 1/2) x_f S^2 with f = 1 + 0.2 t - 0.25 t^2."""
    return WarpedProductChart(
        factor1=flat_factor(1),
        factor2=round_sphere_factor(2),
        warp=poly_fn([1.0, 0.2, -0.25]),
        label="polynomial",
        sample_points=[np.array([t, 0.6 + 0.3 * t, 0.2 - t]) for t in (-0.45, -0.1, 0.2, 0.4)],
    )


CHARTS = {key: named_chart(key) for key in chart_catalog()}
CHARTS["sphere(n2=3)"] = named_chart("sphere", n2=3)
CHARTS["hyperbolic(n2=2)"] = named_chart("hyperbolic", n2=2)
CHARTS["polynomial"] = _polynomial_chart()


def _unit_leaf_fibre(wp, g, seed):
    """One unit leaf vector and one unit fibre vector per point."""
    draws = np.random.default_rng(seed).normal(size=(len(g), wp.dim))
    leaf = np.arange(wp.dim) < wp.n1
    X, Y = np.where(leaf, draws, 0.0), np.where(leaf, 0.0, draws)
    return X / np.sqrt(bilinear(g, X, X))[:, None], Y / np.sqrt(bilinear(g, Y, Y))[:, None]


def _reference_checks(wp, p):
    """The three checks at one point, written as one-point loops: (connection
    residual over the coordinate pairs, the mixed form -Hess f / f, Laplacian
    ratio, per-s sums)."""
    metric = build_metric(wp)
    gx, cp = metric.at(p), riemann(metric, p)
    x1, f = p[: wp.n1], wp.warp.value(p[: wp.n1])
    gamma, df = cp.gamma, wp.warp.grad(x1)
    connection = 0.0
    for i in range(wp.n1):
        for s in range(wp.n1, wp.dim):
            diff = gamma[:, i, s] - np.eye(wp.dim)[s] * (df[i] / f)
            connection = max(connection, np.sqrt(diff @ gx @ diff) / np.sqrt(gx[i, i] * gx[s, s]))
    hess = wp.warp.hess(x1) - np.einsum("kij,k->ij", riemann(wp.factor1, x1).gamma, df)
    lap = -float(np.einsum("ij,ij->", np.linalg.inv(wp.factor1.at(x1)), hess))
    inner = lambda u, v: float(u @ gx @ v)
    # each block's frame: the rows of L^-1, g_b = L L^T, zero off the block
    frame1, frame2 = np.zeros((wp.n1, wp.dim)), np.zeros((wp.n2, wp.dim))
    frame1[:, : wp.n1] = np.linalg.inv(np.linalg.cholesky(gx[: wp.n1, : wp.n1]))
    frame2[:, wp.n1 :] = np.linalg.inv(np.linalg.cholesky(gx[wp.n1 :, wp.n1 :]))

    def K(u, v):
        denom = inner(u, u) * inner(v, v) - inner(u, v) * inner(u, v)
        return float(np.einsum("ijkl,i,j,k,l->", cp.riemann04, u, v, v, u)) / denom

    per_s = [sum(K(e_j, e_s) for e_j in frame1) for e_s in frame2]
    return connection, -hess / f, lap / f, per_s


@pytest.mark.parametrize("key", sorted(CHARTS))
def test_stacked_warped_checks_equal_the_pointwise_calls_exactly(key):
    wp = CHARTS[key]
    metric = build_metric(wp)
    points = np.stack(wp.sample_points)
    cp = riemann(metric, points)
    X, Y = _unit_leaf_fibre(wp, cp.g, seed=len(key))
    connection = check_connection_identity(wp, cp)
    mixed = mixed_sectional(wp, cp)
    K = sectional_curvature(cp, X, Y)
    ratio = check_laplacian_ratio(wp, cp)
    assert connection.shape == K.shape == (len(points),)
    assert mixed.shape == (len(points), wp.n1, wp.n1)
    assert ratio["per_s_sums"].shape == (len(points), wp.n2)
    for i, p in enumerate(points):
        reference = _reference_checks(wp, p)
        assert abs(connection[i] - reference[0]) < 1e-15
        assert np.array_equal(mixed[i], reference[1])
        assert ratio["laplacian_ratio"][i] == reference[2]
        assert np.array_equal(ratio["per_s_sums"][i], reference[3])
        single = riemann(metric, p)
        assert np.array_equal(single.g, metric.at(p))
        assert connection[i] == check_connection_identity(wp, single)
        assert np.array_equal(mixed[i], mixed_sectional(wp, single))
        assert K[i] == sectional_curvature(single, X[i], Y[i])
        alone = check_laplacian_ratio(wp, single)
        assert alone.keys() == ratio.keys()
        for name, value in alone.items():
            assert np.array_equal(ratio[name][i], value), name


def laplacian(metric, x, grad, hess):
    """Delta f at a point or stack x by the checks' path: Gamma and g from
    riemann, then trace_laplacian."""
    cp = riemann(metric, x)
    return trace_laplacian(cp.g, cp.gamma, cp.x, grad(cp.x), hess(cp.x))


def _jet_derivatives(f):
    """Gradient and Hessian callables of f from its Taylor coefficients
    (numeric.taylor)."""
    return (lambda x: taylor(f, x, (), "function")[1]), (lambda x: taylor(f, x, (), "function")[2])


@pytest.mark.parametrize("key", sorted(CHARTS))
def test_sectional_curvature_and_laplacian_on_a_stack_equal_the_pointwise_calls(key):
    wp = CHARTS[key]
    metric = build_metric(wp)
    points = np.stack(wp.sample_points)
    cp = riemann(metric, points)
    X, Y = _unit_leaf_fibre(wp, cp.g, seed=7)
    # extra leading axes: every plane of the stack at every point
    planes = sectional_curvature(cp, X[:, None], Y[None])
    assert planes.shape == (len(points), len(points))
    x1 = points[:, : wp.n1]
    warp_jet, cos_jet = _jet_derivatives(wp.warp.value), _jet_derivatives(lambda q: np.cos(q[..., 0]))
    analytic = laplacian(wp.factor1, x1, wp.warp.grad, wp.warp.hess)
    from_taylor = laplacian(wp.factor1, x1, *warp_jet)
    curved = laplacian(wp.factor2, points[:, wp.n1 :], *cos_jet)
    for i, p in enumerate(points):
        single = riemann(metric, p)
        for j in range(len(points)):
            assert planes[j, i] == sectional_curvature(single, X[j], Y[i])
        assert analytic[i] == laplacian(wp.factor1, x1[i], wp.warp.grad, wp.warp.hess)
        assert from_taylor[i] == laplacian(wp.factor1, x1[i], *warp_jet)
        assert curved[i] == laplacian(wp.factor2, points[i, wp.n1 :], *cos_jet)


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(scenes_mod, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(scenes_mod, name, counted)
    return calls


@pytest.mark.parametrize(
    "source",
    [
        {"kind": "warped-chart", "key": "sphere", "params": {"n2": 3}},
        {
            "kind": "explicit-warped",
            "factor1": {"kind": "euclidean", "dim": 1},
            "factor2": {"kind": "round-sphere", "dim": 2},
            "warping": {"kind": "polynomial", "coeffs": [1.0, 0.2, -0.25]},
            "points": [[-0.3, 0.7, 0.1], [0.1, 0.9, 0.4], [0.35, 1.1, 0.8]],
        },
    ],
    ids=["warped-chart", "explicit-warped"],
)
def test_a_scene_run_evaluates_its_warped_curvature_once(monkeypatch, source):
    riemann_calls = _count_calls(monkeypatch, "riemann")
    metric_calls = _count_calls(monkeypatch, "build_metric")
    spec = parse_scene(
        {
            "ambient": {"kind": "euclidean", "m": 5},
            "source": source,
            "checks": ["connection_identity", "mixed_sectional", "laplacian_ratio"],
            "seed": 4,
        }
    )
    records = run(spec).records
    assert all(r["pass"] for r in records), records
    assert len(riemann_calls) == 1 and len(metric_calls) == 1


# round-sphere first factors, whose Christoffel symbols are not zero (every
# catalog chart has a flat first factor), under the warp 1 + 0.3 t - 0.2 t^2
CURVED_LEAF_POINTS = {
    2: [[0.7, 0.4, 0.9, 0.6], [1.1, -0.3, 0.5, 1.0], [0.9, 0.8, 1.2, 0.4]],
    3: [[0.7, 0.5, 0.4, 0.9, 0.6], [1.1, 0.8, -0.3, 0.5, 1.0], [0.9, 1.3, 0.8, 1.2, 0.4]],
}


def _curved_leaf_source(n1: int) -> dict:
    return {
        "kind": "explicit-warped",
        "factor1": {"kind": "round-sphere", "dim": n1},
        "factor2": {"kind": "round-sphere", "dim": 2},
        "warping": {"kind": "polynomial", "coeffs": [1.0, 0.3, -0.2]},
        "points": CURVED_LEAF_POINTS[n1],
    }


@pytest.mark.parametrize("n1", sorted(CURVED_LEAF_POINTS))
def test_a_curved_first_factor_gives_the_numbers_of_its_own_metric(n1):
    spec = parse_scene(
        {
            "ambient": {"kind": "euclidean", "m": n1 + 3},
            "source": _curved_leaf_source(n1),
            "checks": ["laplacian_ratio", "connection_identity", "mixed_sectional"],
            "seed": 11,
        }
    )
    records = run(spec).records
    assert all(r["pass"] for r in records), records
    wp = spec.source_data().warped
    x = np.stack(wp.sample_points)
    x1 = x[:, :n1]
    gamma1 = riemann(wp.factor1, x1).gamma
    assert np.abs(gamma1).max() > 0.1
    cp = riemann(build_metric(wp), x)
    lap = laplacian(wp.factor1, x1, wp.warp.grad, wp.warp.hess)
    assert np.array_equal(check_laplacian_ratio(wp, cp)["laplacian_ratio"], lap / wp.warp_at(x))
    X, Z = _unit_leaf_fibre(wp, cp.g, seed=n1)
    hess = covariant_hessian(gamma1, x1, wp.warp.grad(x1), wp.warp.hess(x1))
    mixed = mixed_sectional(wp, cp)
    assert np.array_equal(mixed, -hess / wp.warp_at(x)[:, None, None])
    # the form at a unit leaf X is K(X ^ Z) for any unit fibre Z
    K = bilinear(mixed, X[:, :n1], X[:, :n1])
    assert np.max(np.abs(K - sectional_curvature(cp, X, Z))) < 1e-7


@pytest.mark.parametrize("n1", sorted(CURVED_LEAF_POINTS))
def test_the_warped_checks_evaluate_no_metric_of_the_first_factor(monkeypatch, n1):
    scene = {"ambient": {"kind": "euclidean", "m": n1 + 3}, "source": _curved_leaf_source(n1), "checks": ["trivial"]}
    wp = parse_scene(scene).source_data().warped
    cp = riemann(build_metric(wp), np.stack(wp.sample_points))
    calls = []

    def counting(name, f):
        def counted(x):
            calls.append(name)
            return f(x)

        return counted

    for name in ("at", "g_dg"):
        monkeypatch.setattr(wp.factor1, name, counting(name, getattr(wp.factor1, name)))
    check_connection_identity(wp, cp)
    mixed_sectional(wp, cp)
    check_laplacian_ratio(wp, cp)
    assert calls == []


def _nan_at_second_point() -> WarpedProductChart:
    """A flat product whose warping function is NaN at the second sample
    point's t only."""
    wp = named_chart("flat-product")
    second = float(wp.sample_points[1][0])
    wp.warp = WarpFunction(
        "nan-at-second",
        lambda t: np.where(t == second, np.nan, 1.0 + 0.0 * t),  # complex for complex t
        lambda t: np.zeros(np.shape(t)),
        lambda t: np.zeros(np.shape(t)),
    )
    return wp


def test_a_warp_that_is_nan_at_one_point_fails_naming_it():
    wp = _nan_at_second_point()
    points = np.stack(wp.sample_points)
    with pytest.raises(NumericalDomainError, match=r"\[-0\.4 -0\.4\] \(stack index \(1, 0"):
        riemann(build_metric(wp), points)
    # a NaN warp under a finite curvature point stays in its row of the checks
    # that read the analytic warp; the connection identity, which takes the
    # complex step of its value, names the point
    cp = riemann(build_metric(named_chart("flat-product")), points)
    for values in (mixed_sectional(wp, cp), check_laplacian_ratio(wp, cp)["max_deviation"]):
        assert np.isfinite(values[0]).all() and np.isnan(values[1]).all(), values
    at_second = r"warping function has non-finite entries at \[-0\.4\] \(stack index \(1, 0\)\)"
    with pytest.raises(NumericalDomainError, match=at_second):
        check_connection_identity(wp, cp)


def test_a_scene_whose_warp_is_nan_at_one_point_fails_every_warped_check():
    spec = parse_scene(
        {
            "ambient": {"kind": "euclidean", "m": 3},
            "source": {"kind": "warped-chart", "key": "flat-product"},
            "checks": ["connection_identity", "mixed_sectional", "laplacian_ratio"],
            "seed": 0,
        }
    )
    spec.source_data().warped.warp = _nan_at_second_point().warp
    records = run(spec).records
    assert [r["pass"] for r in records] == [False] * 3
    for r in records:
        assert r["error"].startswith("NumericalDomainError") and "stack index (1, 0)" in r["error"], r


def test_a_failing_warped_curvature_is_evaluated_once_per_scene(monkeypatch):
    # the shared riemann raises; each warped check re-raises its stored error
    riemann_calls = _count_calls(monkeypatch, "riemann")
    spec = parse_scene(
        {
            "ambient": {"kind": "euclidean", "m": 3},
            "source": {"kind": "warped-chart", "key": "flat-product"},
            "checks": ["connection_identity", "mixed_sectional", "laplacian_ratio"],
            "seed": 0,
        }
    )
    wp = spec.source_data().warped
    wp.warp = _nan_at_second_point().warp
    with pytest.raises(NumericalDomainError) as direct:
        riemann(build_metric(wp), np.stack(wp.sample_points))
    records = run(spec).records
    assert len(riemann_calls) == 1
    assert [r["error"] for r in records] == [f"NumericalDomainError: {direct.value}"] * 3


def test_a_degenerate_plane_in_a_stack_names_its_row():
    wp = CHARTS["sphere(n2=3)"]
    metric = build_metric(wp)
    points = np.stack(wp.sample_points)
    cp = riemann(metric, points)
    X, Y = _unit_leaf_fibre(wp, cp.g, seed=3)
    Y[2] = 2.0 * X[2]
    with pytest.raises(DegeneratePlaneError, match=r"stack index \(2,\)"):
        sectional_curvature(cp, X, Y)


def _wrong_hessian(wp: WarpedProductChart, delta: float) -> WarpFunction:
    """wp's warp with its t-Hessian off by delta; the metric, which reads
    only the value and the gradient, is unchanged."""
    w = wp.warp
    return WarpFunction(f"{w.label}+hess", w.fn, w.d1, lambda t: w.d2(t) + delta)


def test_a_wrong_warp_hessian_fails_mixed_sectional_in_a_scene():
    spec = parse_scene(
        {
            "ambient": {"kind": "euclidean", "m": 5},
            "source": _curved_leaf_source(2),
            "checks": ["connection_identity", "mixed_sectional", "laplacian_ratio"],
            "seed": 0,
        }
    )
    wp = spec.source_data().warped
    cp = riemann(build_metric(wp), np.stack(wp.sample_points))
    right = mixed_sectional(wp, cp)
    wp.warp = _wrong_hessian(wp, 1e-2)
    # the form moves by exactly -delta / f in its tt entry
    moved = mixed_sectional(wp, cp) - right
    assert np.max(np.abs(moved[:, 0, 0] + 1e-2 / wp.warp_at(cp.x))) < 1e-15
    assert np.all(moved[:, 1:, :] == 0.0) and np.all(moved[:, :, 1:] == 0.0)
    records = {r["name"]: r for r in run(spec).records}
    assert records["connection_identity"]["pass"] is True
    assert records["mixed_sectional"]["pass"] is False
    assert records["mixed_sectional"]["max_residual"] > 5e-3
    assert records["laplacian_ratio"]["pass"] is False


def test_a_wrong_warp_gradient_fails_the_connection_identity_in_a_scene():
    # the block metric's derivative reads d1, off by 1e-2; the identity reads
    # the complex step of the warp's value
    spec = parse_scene(
        {
            "ambient": {"kind": "euclidean", "m": 4},
            "source": {"kind": "warped-chart", "key": "sphere", "params": {"n2": 2}},
            "checks": ["connection_identity"],
            "seed": 0,
        }
    )
    assert run(spec).records[0]["pass"] is True
    wp = spec.source_data().warped
    wp.warp = WarpFunction("cos+", np.cos, lambda t: -np.sin(t) + 1e-2, lambda t: -np.cos(t))
    (record,) = run(spec).records
    assert record["pass"] is False
    # |d1 - f'| / f = 1e-2 / cos t over the sample points t
    assert record["max_residual"] == pytest.approx(1e-2 / np.cos(0.9), rel=1e-9)


@pytest.mark.parametrize("t,passed", [(5e-5, True), (-5e-5, False)])
def test_the_warped_checks_read_the_warp_at_the_point_alone(t, passed):
    # f(t) = t is positive at t = 5e-5, where every check runs and passes:
    # riemann evaluates no real neighbour such as t - 1e-4.  At t = -5e-5
    # every check fails with InvalidWarpingError; the checks share riemann
    source = {
        "kind": "explicit-warped",
        "factor1": {"kind": "euclidean", "dim": 1},
        "factor2": {"kind": "euclidean", "dim": 1},
        "warping": {"kind": "polynomial", "coeffs": [0.0, 1.0]},
        "points": [[t, 0.3]],
    }
    spec = parse_scene(
        {
            "ambient": {"kind": "euclidean", "m": 3},
            "source": source,
            "checks": ["connection_identity", "mixed_sectional", "laplacian_ratio"],
            "seed": 0,
        }
    )
    records = run(spec).records
    assert [r["pass"] for r in records] == [passed] * 3, records
    assert all(r.get("error", "").startswith("InvalidWarpingError") != passed for r in records), records
