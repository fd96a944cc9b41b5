"""Warped-product charts g = g1 + f^2 g2 and the identities they satisfy.

The first factor's coordinates come first in the product chart; the warping
function is evaluated through them only.  A small closed catalog of warping
functions (constant, cosine, exponential, polynomial, sums/products) carries
analytic first and second derivatives, each the complex-analytic extension
of its real formula.

The two lemmas of a warped product are tensor identities, polynomial in
their vectors, so each is decided on coordinate vectors with no sampling:
nabla_X Y = (Xf/f) Y for X in the leaf and Y in the fibre
(check_connection_identity), and R(X, Z, Z, W) = -Hess_{g1} f(X, W)/f g(Z, Z)
(mixed_sectional gives the leaf form -Hess_{g1} f / f).

Every catalog callable (factor metrics, warping functions, the block metric)
follows the stack contract of ``charts``: it takes a point or a stack of
points (..., n), broadcasts over the leading axes and keeps the input's float
or complex dtype.  The three checks take only the chart and the
``CurvaturePoint`` cp that ``riemann(build_metric(wp), x)`` gives at a point
or stack x, validate every row and evaluate no metric: the checks of one chart
share cp.  g1 and its Christoffel symbols are cp's leaf blocks g[..., :n1, :n1]
and gamma[..., :n1, :n1, :n1], since the block metric's leaf block is g1(x1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .charts import (
    ChartMetric,
    CurvaturePoint,
    covariant_hessian,
    euclidean_metric,
    sectional_curvature,
    trace_laplacian,
)
from .errors import InvalidInputError, InvalidWarpingError
from .numeric import DEFAULT_TOLERANCE, as_points, as_vector, complex_step

__all__ = [
    "WarpFunction",
    "const_fn",
    "cos_fn",
    "exp_fn",
    "poly_fn",
    "sum_fn",
    "product_fn",
    "WarpedProductChart",
    "build_metric",
    "check_connection_identity",
    "mixed_sectional",
    "check_laplacian_ratio",
    "is_trivial",
    "flat_factor",
    "round_sphere_factor",
    "chart_catalog",
    "named_chart",
    "sphere_chart",
    "hyperbolic_chart",
    "cone_chart",
    "flat_product_chart",
]


@dataclass(frozen=True)
class WarpFunction:
    """Function of the first factor-1 coordinate t with analytic t-derivatives.

    fn, d1 and d2 map an array of t values to an array of the same shape;
    value, grad and hess take a factor-1 point or stack (..., n1).
    """

    label: str
    fn: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]

    def value(self, x1: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(x1)[..., 0])

    def grad(self, x1: np.ndarray) -> np.ndarray:
        x1 = np.asarray(x1)
        out = np.zeros(x1.shape, dtype=np.result_type(x1, float))
        out[..., 0] = self.d1(x1[..., 0])
        return out

    def hess(self, x1: np.ndarray) -> np.ndarray:
        x1 = np.asarray(x1)
        out = np.zeros(x1.shape + x1.shape[-1:], dtype=np.result_type(x1, float))
        out[..., 0, 0] = self.d2(x1[..., 0])
        return out


def _full(t: np.ndarray, a: float) -> np.ndarray:
    return np.full(np.shape(t), a, dtype=np.result_type(t, float))


def const_fn(a: float) -> WarpFunction:
    return WarpFunction(
        f"const({a})", lambda t: _full(t, a), lambda t: _full(t, 0.0), lambda t: _full(t, 0.0)
    )


def cos_fn() -> WarpFunction:
    return WarpFunction("cos", np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t))


def exp_fn() -> WarpFunction:
    return WarpFunction("exp", np.exp, np.exp, np.exp)


def poly_fn(coeffs: Sequence[float]) -> WarpFunction:
    """Polynomial sum(coeffs[k] * t^k)."""
    c = list(map(float, coeffs))
    p = np.polynomial.Polynomial(c)
    return WarpFunction(f"polynomial({c})", p, p.deriv(1), p.deriv(2))


def sum_fn(a: WarpFunction, b: WarpFunction) -> WarpFunction:
    return WarpFunction(
        f"sum({a.label},{b.label})",
        lambda t: a.fn(t) + b.fn(t),
        lambda t: a.d1(t) + b.d1(t),
        lambda t: a.d2(t) + b.d2(t),
    )


def product_fn(a: WarpFunction, b: WarpFunction) -> WarpFunction:
    return WarpFunction(
        f"product({a.label},{b.label})",
        lambda t: a.fn(t) * b.fn(t),
        lambda t: a.d1(t) * b.fn(t) + a.fn(t) * b.d1(t),
        lambda t: a.d2(t) * b.fn(t) + 2.0 * a.d1(t) * b.d1(t) + a.fn(t) * b.d2(t),
    )


@dataclass
class WarpedProductChart:
    """Two factor charts and a positive warping function on the first."""

    factor1: ChartMetric
    factor2: ChartMetric
    warp: WarpFunction
    label: str = ""
    sample_points: list[np.ndarray] = field(default_factory=list)

    @property
    def n1(self) -> int:
        return self.factor1.dim

    @property
    def n2(self) -> int:
        return self.factor2.dim

    @property
    def dim(self) -> int:
        return self.n1 + self.n2

    def split(self, x: np.ndarray):
        """Factor coordinates (x1, x2) of a point or stack (..., dim)."""
        x = np.asarray(x)
        if x.ndim < 1 or x.shape[-1] != self.dim:
            raise InvalidInputError(f"expected points of dimension {self.dim}, got shape {x.shape}")
        return x[..., : self.n1], x[..., self.n1 :]

    def warp_at(self, x: np.ndarray) -> np.ndarray:
        """f at a point or stack; raises unless every value (its real part,
        for a complex stack) is positive."""
        x1, _ = self.split(x)
        f = self.warp.value(x1)
        bad = np.real(f) <= 0.0
        if np.any(bad):
            idx = tuple(np.argwhere(bad)[0])
            raise InvalidWarpingError(
                f"warping function non-positive ({np.asarray(f)[idx]}) at {x1[idx]}"
            )
        return f


def build_metric(wp: WarpedProductChart) -> ChartMetric:
    """Block metric diag(g1(x1), f(x1)^2 g2(x2)) on the product chart."""
    n1, n2 = wp.n1, wp.n2
    n = n1 + n2

    def g_dg(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x1, x2 = wp.split(x)
        f = np.asarray(wp.warp_at(x))[..., None, None]
        df = wp.warp.grad(x1)
        (g1, dg1), (g2, dg2) = wp.factor1.g_dg(x1), wp.factor2.g_dg(x2)
        dtype = np.result_type(x1, float)
        out = np.zeros(x1.shape[:-1] + (n, n), dtype=dtype)
        out[..., :n1, :n1] = g1
        out[..., n1:, n1:] = (f * f) * g2
        dout = np.zeros(x1.shape[:-1] + (n, n, n), dtype=dtype)
        dout[..., :n1, :n1, :n1] = dg1
        dout[..., n1:, n1:, n1:] = (f * f)[..., None] * dg2
        for k in range(n1):
            dout[..., k, n1:, n1:] += 2.0 * f * df[..., k, None, None] * g2
        return out, dout

    return ChartMetric(dim=n, g_dg=g_dg)


def check_connection_identity(wp: WarpedProductChart, cp: CurvaturePoint) -> float | np.ndarray:
    """Residual of nabla_X Y = (Xf/f) Y for X in the leaf and Y in the fibre,
    at the points of cp = riemann(build_metric(wp), x).

    The identity is bilinear in (X, Y), so the coordinate pairs decide it:
    for each leaf i and fibre s the vector Gamma^k_is - delta^k_s d_i f / f,
    its g-norm over |d_i| |d_s|.  Returns the largest per point.  d_i f is
    the complex step of the warp's value (numeric.complex_step), not its
    analytic d1, which the block metric's derivative reads: a d1 that
    disagrees with fn shows here.
    """
    x, n1 = as_points(cp.x, wp.dim), wp.n1
    f, df = complex_step(wp.warp.value, x[..., :n1], (), "warping function")
    df_f = df / f[..., None]
    diff = cp.gamma[..., :, :n1, n1:] - np.eye(wp.dim)[:, None, n1:] * df_f[..., None, :, None]
    norm2 = np.einsum("...kl,...kis,...lis->...is", cp.g, diff, diff)
    lengths = np.sqrt(np.diagonal(cp.g, axis1=-2, axis2=-1))
    residual = np.sqrt(np.maximum(norm2, 0.0)) / (lengths[..., :n1, None] * lengths[..., None, n1:])
    return np.max(residual, axis=(-2, -1))[()]  # keeps a NaN


def mixed_sectional(wp: WarpedProductChart, cp: CurvaturePoint) -> np.ndarray:
    """The leaf form -Hess_{g1} f / f (..., n1, n1) at the points of
    cp = riemann(build_metric(wp), x).

    R(X, Z, Z, W) = -Hess f(X, W) / f * g(Z, Z) for X, W in the leaf and Z in
    the fibre, so K(X ^ Z) is this form at (X, X) for a unit leaf X, whatever
    the fibre Z.
    """
    x, n1 = as_points(cp.x, wp.dim), wp.n1
    x1 = x[..., :n1]
    hess = covariant_hessian(cp.gamma[..., :n1, :n1, :n1], x1, wp.warp.grad(x1), wp.warp.hess(x1))
    return -hess / wp.warp_at(x)[..., None, None]


def _adapted_frame(wp: WarpedProductChart, gx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal frames (n1, ..., n) and (n2, ..., n) adapted to the block
    split for each metric of gx (..., n, n): of each block g_b = L L^T
    (Cholesky), the columns of L^-T, the one frame of the block whose
    coordinates are upper triangular with a positive diagonal (the frame
    Gram-Schmidt gives on the block's coordinate basis)."""
    frames = []
    for block in (slice(0, wp.n1), slice(wp.n1, wp.dim)):
        inv = np.linalg.inv(np.linalg.cholesky(gx[..., block, block]))
        frame = np.zeros(gx.shape[:-1] + inv.shape[-1:])  # (..., n, k)
        frame[..., block, :] = np.swapaxes(inv, -1, -2)
        frames.append(np.moveaxis(frame, -1, 0))
    return frames[0], frames[1]


def check_laplacian_ratio(wp: WarpedProductChart, cp: CurvaturePoint) -> dict:
    """Compare Delta f / f on the first factor with the mixed-curvature sums,
    at the points of cp = riemann(build_metric(wp), x).

    For every fibre frame direction e_s the sum over leaf directions
    sum_j K(e_j ^ e_s) must reproduce Delta f / f (geometers' sign); reports
    all per-s sums (..., n2), the maximal deviation and the s-independence
    spread (...).
    """
    x, n1 = as_points(cp.x, wp.dim), wp.n1
    x1, g1, gamma1 = x[..., :n1], cp.g[..., :n1, :n1], cp.gamma[..., :n1, :n1, :n1]
    ratio = trace_laplacian(g1, gamma1, x1, wp.warp.grad(x1), wp.warp.hess(x1)) / wp.warp_at(x)
    frame1, frame2 = _adapted_frame(wp, cp.g)
    # K[j, s] = K(e_j ^ e_s), summed over j in order
    K = sectional_curvature(cp, frame1[:, None], frame2[None])
    per_s = np.moveaxis(sum(K), 0, -1)
    return {
        "laplacian_ratio": ratio,
        "per_s_sums": per_s,
        "max_deviation": np.max(np.abs(per_s - np.asarray(ratio)[..., None]), axis=-1)[()],
        "spread": (np.max(per_s, axis=-1) - np.min(per_s, axis=-1))[()],
    }


def is_trivial(
    wp: WarpedProductChart,
    samples: Sequence[np.ndarray],
    tol: float = DEFAULT_TOLERANCE.algebraic,
) -> bool:
    """True iff the warping function is constant over the sample set."""
    if len(samples) == 0:
        raise InvalidInputError("sample set must be nonempty")
    # a NaN compares false against tol, so non-finite values are rejected first
    values = as_vector([wp.warp.value(wp.split(p)[0]) for p in samples])
    return float(np.max(np.abs(values - values[0]))) < tol


def flat_factor(dim: int) -> ChartMetric:
    return euclidean_metric(dim)


def round_sphere_factor(dim: int) -> ChartMetric:
    """Round unit-sphere metric in nested spherical coordinates:
    g = diag(1, s_0, s_0 s_1, ...) with s_j = sin^2 x_j."""
    if dim == 1:
        return flat_factor(1)
    k, i = np.triu_indices(dim, 1)
    diag = np.arange(1, dim)

    def g_dg(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x)
        s = np.sin(x[..., :-1])
        # float_power squares through the C library's pow, as the scalar
        # ** of numpy does; the SIMD square differs from it in the last bit
        prod = np.cumprod(np.float_power(s, 2), axis=-1)
        g = np.zeros(prod.shape[:-1] + (dim, dim), dtype=prod.dtype)
        g[..., 0, 0] = 1.0
        g[..., diag, diag] = prod
        # d_k g_ii = g_ii * 2 cos x_k / sin x_k for k < i
        dg = np.zeros(x.shape + (dim, dim), dtype=prod.dtype)
        dg[..., k, i, i] = prod[..., i - 1] * 2.0 * np.cos(x[..., k]) / s[..., k]
        return g, dg

    return ChartMetric(dim=dim, g_dg=g_dg)


def chart_catalog() -> dict[str, Callable[..., WarpedProductChart]]:
    """Named warped charts addressable from scene files."""
    return {
        "sphere": sphere_chart,
        "hyperbolic": hyperbolic_chart,
        "cone": cone_chart,
        "flat-product": flat_product_chart,
    }


def sphere_chart(n2: int = 1) -> WarpedProductChart:
    """(-pi/2, pi/2) x_{cos t} S^{n2}: the unit round sphere S^{1+n2}."""
    pts = [np.array([t] + [0.4 + 0.1 * i for i in range(n2)]) for t in (-0.6, 0.2, 0.9)]
    return WarpedProductChart(
        factor1=flat_factor(1),
        factor2=round_sphere_factor(n2),
        warp=cos_fn(),
        label=f"sphere(n2={n2})",
        sample_points=pts,
    )


def hyperbolic_chart(n2: int = 1) -> WarpedProductChart:
    """R x_{e^t} R^{n2}: constant curvature -1."""
    pts = [np.array([t] + [0.3] * n2) for t in (-0.5, 0.0, 0.7)]
    return WarpedProductChart(
        factor1=flat_factor(1),
        factor2=flat_factor(n2),
        warp=exp_fn(),
        label=f"hyperbolic(n2={n2})",
        sample_points=pts,
    )


def cone_chart() -> WarpedProductChart:
    """(0, inf) x_t S^1: flat cone (punctured plane in polar coordinates)."""
    pts = [np.array([r, 0.5]) for r in (0.6, 1.0, 1.8)]
    return WarpedProductChart(
        factor1=flat_factor(1),
        factor2=flat_factor(1),
        warp=poly_fn([0.0, 1.0]),
        label="cone",
        sample_points=pts,
    )


def flat_product_chart(n1: int = 1, n2: int = 1) -> WarpedProductChart:
    """Trivial warped product: f == 1."""
    pts = [np.full(n1 + n2, 0.2), np.full(n1 + n2, -0.4)]
    return WarpedProductChart(
        factor1=flat_factor(n1),
        factor2=flat_factor(n2),
        warp=const_fn(1.0),
        label=f"flat-product({n1},{n2})",
        sample_points=pts,
    )


def named_chart(key: str, **params) -> WarpedProductChart:
    catalog = chart_catalog()
    if key not in catalog:
        raise InvalidInputError(
            f"unknown warped chart {key!r}; known: {sorted(catalog)}"
        )
    return catalog[key](**params)
