"""Riemannian geometry on a coordinate chart.

Conventions used throughout the package:

* curvature: R(X,Y,Z,W) = <(nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X,Y]) Z, W>,
  so the sectional curvature of a coordinate pair is K(e_i ^ e_j) = R_{ijji};
* Laplacian: Delta = -div grad (the geometers' sign), so Delta f = -f'' on the
  Euclidean line.

Every check takes Gamma, R and g from a CurvaturePoint, and
sectional_curvature, covariant_hessian and trace_laplacian work from those.

Stack contract: the geometry callables (ChartMetric.g_dg, the ``map`` of a
chart immersion, the parts of a warping function) take a stack of points
(..., n), a single point being the stack of none, and broadcast over its
leading axes.  They take complex points too, for their exact derivatives:
each must be the complex-analytic extension of its real formula, with no
abs, max/min, comparison or real-part cast of the points.  The functions
below accept stacks, and a point's numbers do not depend on its stack.

``curvature`` is one closed form in a metric's exact (g, dg, ddg) at each
point: a ChartMetric's jet (``riemann``) or a chart immersion's induced one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateMetricError, DegeneratePlaneError, InvalidInputError
from .numeric import (
    DEFAULT_TOLERANCE,
    _first_point,
    as_points,
    bilinear,
    complex_step,
    require_positive_definite,
    stack_values,
)

__all__ = [
    "ChartMetric",
    "CurvaturePoint",
    "curvature",
    "riemann",
    "sectional_curvature",
    "covariant_hessian",
    "trace_laplacian",
    "euclidean_metric",
]

@dataclass
class ChartMetric:
    """Riemannian metric on a coordinate chart, given by one callable.

    g_dg maps points (..., dim) to the pair (g, dg) from one evaluation: g
    (..., dim, dim) symmetric positive definite, and dg (..., dim, dim, dim)
    its exact derivatives, dg[..., k, i, j] = d g_ij / dx_k.  A complex
    stack gives a complex pair (the stack contract above).
    """

    dim: int
    g_dg: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

    def at(self, x: np.ndarray) -> np.ndarray:
        """The metric at a point or stack, validated as every metric the
        package evaluates: shape, finiteness, symmetry within 1e-8 and
        g - 1e-12*I positive definite (a Cholesky attempt)."""
        x = as_points(x, self.dim)
        return _require_metric(_metric_rows(self.g_dg, x, self.dim)[..., 0, :, :], x)

    def jet(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The validated g, dg and ddg[..., a, k, i, j] = d_a d_k g_ij on a
        float stack x (..., n), from one g_dg call on (..., n+1, n) complex
        points: ddg is the complex step of dg."""
        n = self.dim
        rows, steps = complex_step(lambda z: _metric_rows(self.g_dg, z, n), x, (n + 1, n, n), "metric")
        return _require_metric(rows[..., 0, :, :], x), rows[..., 1:, :, :], steps[..., 1:, :, :]


def _require_metric(gx: np.ndarray, x: np.ndarray) -> np.ndarray:
    return require_positive_definite(gx, x, 1e-12, 1e-8, DegenerateMetricError, "metric")


@dataclass
class CurvaturePoint:
    """Christoffel symbols, the (0,4) curvature tensor and the metric at a
    point or stack x (..., n).

    gamma[..., k, i, j] is the symbol with upper index k; riemann04[..., i,
    j, k, l] is R(d_i, d_j, d_k, d_l) in the convention of this module; g is
    the validated metric at x.
    """

    x: np.ndarray
    gamma: np.ndarray
    riemann04: np.ndarray
    g: np.ndarray


def euclidean_metric(dim: int) -> ChartMetric:
    def g_dg(x):
        lead, dtype = np.shape(x)[:-1], np.result_type(x, float)
        return np.broadcast_to(np.eye(dim, dtype=dtype), lead + (dim, dim)), np.zeros(lead + (dim,) * 3, dtype)

    return ChartMetric(dim=dim, g_dg=g_dg)


def _metric_rows(g_dg: Callable, z: np.ndarray, n: int) -> np.ndarray:
    """g and dg of one g_dg call on a float or complex stack z (..., n),
    validated by stack_values, as the rows (..., n+1, n, n): g, then dg."""
    pair = g_dg(z)
    if not (isinstance(pair, tuple) and len(pair) == 2):
        raise InvalidInputError(f"g_dg returned {type(pair).__name__}, expected the pair (g, dg)")
    g = stack_values(pair[0], z.real, (n, n), "metric", np.iscomplexobj(z))
    dg = stack_values(pair[1], z.real, (n, n, n), "metric derivative", np.iscomplexobj(z))
    return np.concatenate([g[..., None, :, :], dg], axis=-3)


def _last(a: np.ndarray, *perm: int) -> np.ndarray:
    """a with its last len(perm) axes permuted."""
    lead = a.ndim - len(perm)
    return a.transpose(*range(lead), *(lead + p for p in perm))


def riemann(metric: ChartMetric, x: np.ndarray) -> CurvaturePoint:
    """Christoffel symbols and curvature tensor of a ChartMetric at a point
    or a stack, the curvature of its validated metric.jet(x)."""
    x = as_points(x, metric.dim)
    return curvature(x, *metric.jet(x))


def curvature(x: np.ndarray, gx: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> CurvaturePoint:
    """Christoffel symbols and curvature tensor at the points x (..., n) from
    a validated metric's g, dg[..., k, i, j] = d_k g_ij and ddg[..., a, k, i,
    j] = d_a d_k g_ij there:

    Gamma_{l,ij} = 1/2 (d_i g_jl + d_j g_il - d_l g_ij),  Gamma^k_ij = g^kl Gamma_{l,ij},
    R_ijkl = 1/2 (d_i d_k g_jl + d_j d_l g_ik - d_i d_l g_jk - d_j d_k g_il)
             + g_pq (Gamma^p_ik Gamma^q_jl - Gamma^p_jk Gamma^q_il).
    """
    n = x.shape[-1]
    # lowered[l,i,j] = Gamma_{l,ij}   (dg[k,i,j] = d_k g_ij)
    lowered = 0.5 * (_last(dg, 2, 0, 1) + _last(dg, 2, 1, 0) - dg)
    flat = lowered.reshape(x.shape[:-1] + (n, n * n))
    gamma = (np.linalg.inv(gx) @ flat).reshape(lowered.shape)
    second = _last(ddg, 0, 2, 1, 3)  # [i,j,k,l] = d_i d_k g_jl
    second = second + _last(second, 1, 0, 3, 2)
    # Gamma^p_ik Gamma_{p,jl}, laid out [i,k,j,l]
    quad = _last((np.swapaxes(gamma.reshape(flat.shape), -1, -2) @ flat).reshape(ddg.shape), 0, 2, 1, 3)
    r04 = 0.5 * (second - _last(second, 0, 1, 3, 2)) + quad - _last(quad, 1, 0, 2, 3)
    return CurvaturePoint(x=x, gamma=gamma, riemann04=r04, g=gx)


def sectional_curvature(cp: CurvaturePoint, X: np.ndarray, Y: np.ndarray) -> float | np.ndarray:
    """K(X ^ Y) = R(X,Y,Y,X) / (|X|^2 |Y|^2 - <X,Y>^2) at the points of cp,
    one plane X, Y (..., n) per point (extra leading axes: several planes per
    point).  DegeneratePlaneError names the first point where X and Y do not
    span a 2-plane, i.e. where the Gram determinant is below
    DEFAULT_TOLERANCE.algebraic."""
    n = cp.x.shape[-1]
    X, Y = as_points(X, n), as_points(Y, n)
    xy = bilinear(cp.g, X, Y)
    denom = bilinear(cp.g, X, X) * bilinear(cp.g, Y, Y) - xy * xy
    flat = denom < DEFAULT_TOLERANCE.algebraic
    if np.any(flat):
        at = _first_point(np.broadcast_to(cp.x, flat.shape + (n,)), flat)
        raise DegeneratePlaneError(f"X and Y do not span a 2-plane at {at}")
    # R(X, ., ., .), then Y into the next slot, then Y and X: one slot at a time, per point alone
    R = cp.riemann04.reshape(cp.riemann04.shape[:-4] + (n, n**3))
    RX = X[..., None, :] @ R
    RXY = Y[..., None, :] @ RX.reshape(RX.shape[:-2] + (n, n * n))
    return (bilinear(RXY.reshape(RXY.shape[:-2] + (n, n)), Y, X) / denom)[()]


def covariant_hessian(gamma: np.ndarray, x: np.ndarray, df, d2f) -> np.ndarray:
    """Hess f = d_i d_j f - Gamma^k_ij d_k f on a stack x (..., n), from the
    Christoffel symbols gamma (..., n, n, n) at x, the gradient df (..., n)
    and the coordinate Hessian d2f (..., n, n), both validated first."""
    n = x.shape[-1]
    df = stack_values(df, x, (n,), "gradient")
    d2f = stack_values(d2f, x, (n, n), "Hessian")
    return d2f - np.einsum("...kij,...k->...ij", gamma, df)


def trace_laplacian(gx: np.ndarray, gamma: np.ndarray, x: np.ndarray, df, d2f) -> float | np.ndarray:
    """Geometers' Laplacian -g^ij Hess f_ij from the metric gx at x and covariant_hessian's inputs."""
    return -np.einsum("...ij,...ij->...", np.linalg.inv(gx), covariant_hessian(gamma, x, df, d2f))[()]

