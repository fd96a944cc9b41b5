"""Riemannian geometry on a coordinate chart.

Conventions used throughout the package:

* curvature: R(X,Y,Z,W) = <(nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X,Y]) Z, W>,
  so the sectional curvature of a coordinate pair is K(e_i ^ e_j) = R_{ijji};
* Laplacian: Delta = -div grad (the geometers' sign), so Delta f = -f'' on the
  Euclidean line.

Every check takes Gamma, R and g from riemann (a CurvaturePoint), and
sectional_curvature, covariant_hessian and trace_laplacian work from those.

Stack contract: the geometry callables (ChartMetric.g_dg, the ``map`` of a
chart immersion, the parts of a warping function) take a stack of points
(..., n) and broadcast over its leading axes; a single point (n,) is the
stack-of-none case.  g_dg and those that are differentiated numerically
also take complex points: each must be the complex-analytic extension of
its real formula, with no abs, max/min, comparison or real-part cast of the
points.  A callable may be called on any flattened stack, such as the
distinct points of a stencil (numeric.jet).  The functions below accept
stacks too, and a point's numbers do not depend on its stack.

Derivatives follow the one rule of ``numeric``: the metric derivatives are
exact, from the one g_dg call that gives the metric, and ``riemann`` takes
one central difference, of the Christoffel symbols on the (..., 2n+1, n)
axis stencil of the fixed step numeric.FD_STEP, the same at every point.  A
pull-back metric is the exception: its dg is itself a central difference of
the exact Jacobian, on the stencil of each point of riemann's stencil; those
nested stencils share their points, 2n^2+2n+1 of them distinct.
Every metric a stencil evaluates is validated.
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
    axis_stencil,
    bilinear,
    central_differences,
    require_positive_definite,
    stack_values,
)

__all__ = [
    "ChartMetric",
    "CurvaturePoint",
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
        return _metric_derivatives(self, as_points(x, self.dim))[0]


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
    eye = np.eye(dim)
    zeros = np.zeros((dim, dim, dim))

    def constant(value, x):
        return np.broadcast_to(value.astype(np.result_type(x, float)), np.shape(x)[:-1] + value.shape)

    def g_dg(x):
        return constant(eye, x), constant(zeros, x)

    return ChartMetric(dim=dim, g_dg=g_dg)


def _metric_derivatives(metric: ChartMetric, x: np.ndarray):
    """The validated metric and its exact first derivatives (..., n, n, n)
    on a stack x (..., n), from one g_dg call."""
    n = metric.dim
    pair = metric.g_dg(x)
    if not (isinstance(pair, tuple) and len(pair) == 2):
        raise InvalidInputError(f"g_dg returned {type(pair).__name__}, expected the pair (g, dg)")
    gx = _require_metric(stack_values(pair[0], x, (n, n), "metric"), x)
    return gx, stack_values(pair[1], x, (n, n, n), "metric derivative")


def _christoffel(metric: ChartMetric, x: np.ndarray):
    """Levi-Civita symbols Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij)
    (..., n, n, n) and the validated metric on a stack x (..., n)."""
    gx, dg = _metric_derivatives(metric, x)
    g_inv = np.linalg.inv(gx)
    # bracket[l,i,j] = d_i g_jl + d_j g_il - d_l g_ij   (dg[k,i,j] = d_k g_ij)
    bracket = np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg) - dg
    return 0.5 * np.einsum("...kl,...lij->...kij", g_inv, bracket), gx


def _last4(a: np.ndarray, *perm: int) -> np.ndarray:
    lead = a.ndim - 4
    return a.transpose(*range(lead), *(lead + p for p in perm))


def riemann(metric: ChartMetric, x: np.ndarray) -> CurvaturePoint:
    """Curvature tensor from Gamma and its central differences, lowered with g(x),
    at a point or a stack.

    R^l_{ijk} = d_i Gamma^l_jk - d_j Gamma^l_ik
                + Gamma^m_jk Gamma^l_im - Gamma^m_ik Gamma^l_jm

    Gamma is evaluated once, on the axis stencil of x (numeric.axis_stencil).
    """
    x = as_points(x, metric.dim)
    pts = axis_stencil(x)
    gammas, gs = _christoffel(metric, pts)
    gamma = gammas[..., 0, :, :, :]
    dgamma = central_differences(gammas, x.ndim - 1)  # dgamma[..., a] = d_a Gamma
    # R^l_{ijk}; quad[l,i,j,k] = Gamma^m_jk Gamma^l_im
    quad = np.einsum("...mjk,...lim->...lijk", gamma, gamma)
    r_up = _last4(dgamma, 1, 0, 2, 3) - _last4(dgamma, 1, 2, 0, 3) + quad - _last4(quad, 0, 2, 1, 3)
    gx = gs[..., 0, :, :]
    r04 = np.einsum("...lm,...mijk->...ijkl", gx, r_up)
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

