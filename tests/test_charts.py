import numpy as np
import pytest

from warpcheck.charts import (
    ChartMetric,
    _metric_derivatives,
    christoffel,
    euclidean_metric,
    laplacian,
    riemann,
    sectional_curvature,
)
from warpcheck.errors import (
    DegenerateMetricError,
    DegeneratePlaneError,
    InvalidInputError,
    NumericalDomainError,
)
from warpcheck.immersion import pullback_metric, sphere_in_euclidean
from warpcheck.warped import round_sphere_factor


def diag(*entries):
    """Diagonal metrics (..., n, n) from n entries broadcasting over a stack."""
    d = np.stack(np.broadcast_arrays(*entries), axis=-1)
    return d[..., None] * np.eye(d.shape[-1])


def sphere_metric():
    return ChartMetric(2, lambda x: diag(1.0, np.sin(x[..., 0]) ** 2))


def hyperbolic_metric():
    return ChartMetric(2, lambda x: diag(1.0, np.cosh(x[..., 0]) ** 2))


def test_christoffel_euclidean_zero():
    gamma = christoffel(euclidean_metric(3), np.array([0.4, -1.0, 2.0]))
    assert np.max(np.abs(gamma)) < 1e-12


def test_christoffel_polar():
    polar = ChartMetric(2, lambda x: diag(1.0, x[..., 0] ** 2))
    gamma = christoffel(polar, np.array([2.0, 0.3]))
    assert abs(gamma[0, 1, 1] + 2.0) < 1e-6
    assert abs(gamma[1, 0, 1] - 0.5) < 1e-6


def test_christoffel_sphere():
    gamma = christoffel(sphere_metric(), np.array([np.pi / 4, 0.2]))
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
    s3 = ChartMetric(
        3,
        lambda x: diag(
            1.0, np.sin(x[..., 0]) ** 2, (np.sin(x[..., 0]) * np.sin(x[..., 1])) ** 2
        ),
    )
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

    return ChartMetric(dim, g, dg)


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
    from warpcheck.numeric import gram_schmidt

    frame = gram_schmidt([np.eye(3)[i] for i in range(3)], inner=lambda u, v: float(u @ gx @ v))
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
    bad = ChartMetric(2, lambda x: diag(1.0, 0.0 * x[..., 0]))
    with pytest.raises(DegenerateMetricError):
        christoffel(bad, np.zeros(2))


def test_laplacian_sign_convention():
    line = euclidean_metric(1)
    assert abs(laplacian(line, lambda x: np.full(x.shape[:-1], 5.0, dtype=x.dtype), np.array([0.3]))) < 1e-9
    assert abs(laplacian(line, lambda x: x[..., 0] ** 2, np.array([0.3])) + 2.0) < 1e-5
    # Delta cos = +cos at 0, so Delta f / f = 1
    assert abs(laplacian(line, lambda x: np.cos(x[..., 0]), np.array([0.0])) - 1.0) < 1e-6


def test_laplacian_on_curved_chart():
    # on the round 2-sphere, cos(polar angle) is an eigenfunction: using the
    # -div grad sign, Delta cos t = 2 cos t
    s2 = round_sphere_factor(2)
    for t in (0.4, 1.0, 2.2):
        x = np.array([t, 0.7])
        val = laplacian(s2, lambda p: np.cos(p[..., 0]), x)
        assert abs(val - 2.0 * np.cos(t)) < 1e-5


def test_laplacian_analytic_callbacks():
    line = euclidean_metric(1)
    val = laplacian(
        line,
        lambda x: np.cos(x[..., 0]),
        np.array([0.2]),
        grad=lambda x: np.array([-np.sin(x[0])]),
        hess=lambda x: np.array([[-np.cos(x[0])]]),
    )
    assert abs(val - np.cos(0.2)) < 1e-12


def test_laplacian_evaluates_f_once_on_its_jet_stencil():
    # f follows the stack contract: one call on the complex step of the
    # (..., 2n+1, n) axis stencil of every point, (..., 2n+1, n+1, n), its
    # values validated by stack_values
    s2 = round_sphere_factor(2)
    x = np.array([[0.4, 0.7], [1.0, 0.7], [2.2, -0.3]])
    calls = []

    def f(p):
        calls.append(p.shape)
        return np.cos(p[..., 0])

    val = laplacian(s2, f, x)
    assert calls == [(3, 5, 3, 2)]
    assert np.max(np.abs(val - 2.0 * np.cos(x[:, 0]))) < 1e-7
    with pytest.raises(InvalidInputError, match="function returned shape"):
        laplacian(s2, lambda p: 5.0, x)
    with pytest.raises(InvalidInputError, match="function returned float64 values for complex points"):
        laplacian(s2, lambda p: np.cos(p.real[..., 0]), x)
    # the centre row of point 1, met first at the real point itself
    with pytest.raises(NumericalDomainError, match=r"stack index \(1, 0, 0\)"):
        laplacian(s2, lambda p: np.where(p[..., 0].real == 1.0, np.nan, np.cos(p[..., 0])), x)
    # log is singular at 0, and not real below it
    with np.errstate(divide="ignore", invalid="ignore"):
        for t, match in ((1.0, "non-finite"), (0.5, "not real at the real point")):
            with pytest.raises(NumericalDomainError, match=match):
                laplacian(s2, lambda p: np.log(p[..., 0] - t), x)


def test_metric_derivatives_are_the_complex_step_of_one_metric_call():
    # one metric call whose stack holds, for each point, x and then
    # x + i eps e_k for the n coordinates k, eps = 1e-30
    for n in (2, 5, 8):
        calls = []

        def g(x, n=n):
            calls.append(x.copy())
            return np.eye(n) + 0.1 * x[..., :, None] * x[..., None, :]

        x = np.linspace(-0.5, 0.6, n)
        gx, dg = _metric_derivatives(ChartMetric(n, g), x)
        assert len(calls) == 1 and calls[0].dtype == np.complex128
        assert np.array_equal(calls[0], x + 1e-30j * np.eye(n + 1, n, -1))
        assert np.array_equal(gx, g(x))
        # d_k (x_i x_j) = delta_ki x_j + x_i delta_kj, exact
        eye = np.eye(n)
        exact = 0.1 * (np.einsum("ki,j->kij", eye, x) + np.einsum("i,kj->kij", x, eye))
        assert np.max(np.abs(dg - exact)) < 1e-15
        assert np.array_equal(dg, dg.transpose(0, 2, 1))


def test_a_metric_that_drops_the_imaginary_part_is_rejected():
    # a float-casting g would read as a flat metric
    cast = ChartMetric(2, lambda x: diag(1.0, np.sin(x.real[..., 0]) ** 2))
    x = np.array([0.9, 0.4])
    assert np.array_equal(cast.at(x), sphere_metric().at(x))
    for fn in (christoffel, riemann):
        with pytest.raises(InvalidInputError, match="metric returned float64 values for complex points"):
            fn(cast, x)
    # a real result that also ignores the stack axis fails on its shape first
    with pytest.raises(InvalidInputError, match="shape"):
        christoffel(ChartMetric(2, lambda x: np.eye(2)), x)


def _riemann_reference(metric, x, h=1e-4):
    """R(d_i, d_j, d_k, d_l) by the explicit index loop over Gamma and its
    central differences."""
    n = metric.dim
    gamma = christoffel(metric, x)
    dgamma = np.empty((n, n, n, n))
    for a in range(n):
        ha = h * max(1.0, abs(float(x[a])))
        xp, xm = x.copy(), x.copy()
        xp[a] += ha
        xm[a] -= ha
        dgamma[a] = (christoffel(metric, xp) - christoffel(metric, xm)) / (2.0 * ha)
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
