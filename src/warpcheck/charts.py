"""Finite-difference Riemannian geometry on a coordinate chart.

Conventions used throughout the package:

* curvature: R(X,Y,Z,W) = <(nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X,Y]) Z, W>,
  so the sectional curvature of a coordinate pair is K(e_i ^ e_j) = R_{ijji};
* Laplacian: Delta = -div grad (the geometers' sign), so Delta f = -f'' on the
  Euclidean line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateMetricError, DegeneratePlaneError
from .numeric import (
    DEFAULT_TOLERANCE,
    as_matrix,
    as_vector,
    central_diff,
    cross_diff,
    gram_schmidt,
    sym_eigen,
)

__all__ = [
    "ChartMetric",
    "CurvaturePoint",
    "christoffel",
    "riemann",
    "sectional_curvature",
    "plane_scalar_curvature",
    "laplacian",
    "euclidean_metric",
]

# step for differentiating Christoffel symbols (one nesting level above the
# metric-derivative step); widened to balance truncation vs cancellation
GAMMA_DIFF_STEP = 1e-3


@dataclass
class ChartMetric:
    """Riemannian metric given by a component function on a coordinate chart.

    g(x) must return a symmetric positive-definite dim x dim matrix.  dg, when
    supplied, returns the analytic derivative array dg[k][i][j] = d g_ij / dx_k
    and spares one finite-difference level in curvature computations.
    """

    dim: int
    g: Callable[[np.ndarray], np.ndarray]
    dg: Callable[[np.ndarray], np.ndarray] | None = None

    def at(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the metric and check positive definiteness."""
        x = as_vector(x, self.dim)
        gx = as_matrix(self.g(x), self.dim, self.dim)
        evals, _ = sym_eigen(gx, tol=1e-8)
        if evals[0] <= 1e-12:
            raise DegenerateMetricError(
                f"metric not positive definite at {x}: min eigenvalue {evals[0]:.3e}"
            )
        return gx

    def inner(self, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
        return float(as_vector(u, self.dim) @ self.at(x) @ as_vector(v, self.dim))


@dataclass
class CurvaturePoint:
    """Christoffel symbols and the (0,4) curvature tensor at one point.

    gamma[k][i][j] is the symbol with upper index k; riemann04[i][j][k][l] is
    R(d_i, d_j, d_k, d_l) in the convention of this module.
    """

    x: np.ndarray
    gamma: np.ndarray
    riemann04: np.ndarray


def euclidean_metric(dim: int) -> ChartMetric:
    eye = np.eye(dim)
    zeros = np.zeros((dim, dim, dim))
    return ChartMetric(dim=dim, g=lambda x: eye, dg=lambda x: zeros)


def _metric_derivatives(metric: ChartMetric, x: np.ndarray, h: float) -> np.ndarray:
    if metric.dg is not None:
        return np.asarray(metric.dg(x), dtype=float)
    n = metric.dim
    iu = np.triu_indices(n)
    dg = np.empty((n, n, n))
    for k in range(n):
        upper = central_diff(metric.g, x, k, h)[iu]
        dg[k][iu] = upper
        dg[k][iu[::-1]] = upper
    return dg


def christoffel(
    metric: ChartMetric,
    x: np.ndarray,
    h: float = DEFAULT_TOLERANCE.finite_difference,
) -> np.ndarray:
    """Levi-Civita symbols Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij)."""
    x = as_vector(x, metric.dim)
    gx = metric.at(x)
    dg = _metric_derivatives(metric, x, h)
    g_inv = np.linalg.inv(gx)
    # bracket[l,i,j] = d_i g_jl + d_j g_il - d_l g_ij   (dg[k,i,j] = d_k g_ij)
    bracket = np.einsum("ijl->lij", dg) + np.einsum("jil->lij", dg) - dg
    return 0.5 * np.einsum("kl,lij->kij", g_inv, bracket)


def riemann(
    metric: ChartMetric,
    x: np.ndarray,
    h: float = DEFAULT_TOLERANCE.finite_difference,
) -> CurvaturePoint:
    """Curvature tensor from Gamma and its central differences, lowered with g(x).

    R^l_{ijk} = d_i Gamma^l_jk - d_j Gamma^l_ik
                + Gamma^m_jk Gamma^l_im - Gamma^m_ik Gamma^l_jm
    """
    x = as_vector(x, metric.dim)
    n = metric.dim
    gamma = christoffel(metric, x, h)
    dgamma = np.empty((n, n, n, n))  # dgamma[a] = d_a Gamma
    for a in range(n):
        ha = GAMMA_DIFF_STEP * max(1.0, abs(float(x[a])))
        xp, xm = x.copy(), x.copy()
        xp[a] += ha
        xm[a] -= ha
        dgamma[a] = (christoffel(metric, xp, h) - christoffel(metric, xm, h)) / (2.0 * ha)
    # R^l_{ijk}; quad[l,i,j,k] = Gamma^m_jk Gamma^l_im
    quad = np.einsum("mjk,lim->lijk", gamma, gamma)
    r_up = (
        dgamma.transpose(1, 0, 2, 3)
        - dgamma.transpose(1, 2, 0, 3)
        + quad
        - quad.transpose(0, 2, 1, 3)
    )
    gx = metric.at(x)
    r04 = np.einsum("lm,mijk->ijkl", gx, r_up)
    return CurvaturePoint(x=x, gamma=gamma, riemann04=r04)


def _apply_r04(r04: np.ndarray, X, Y, Z, W) -> float:
    return float(np.einsum("ijkl,i,j,k,l->", r04, X, Y, Z, W))


def sectional_curvature(
    cp: CurvaturePoint,
    metric: ChartMetric,
    x: np.ndarray,
    X: np.ndarray,
    Y: np.ndarray,
    tol: float = DEFAULT_TOLERANCE.algebraic,
) -> float:
    """K(X ^ Y) = R(X,Y,Y,X) / (|X|^2 |Y|^2 - <X,Y>^2) at x."""
    gx = metric.at(x)
    X = as_vector(X, metric.dim)
    Y = as_vector(Y, metric.dim)
    xx = float(X @ gx @ X)
    yy = float(Y @ gx @ Y)
    xy = float(X @ gx @ Y)
    denom = xx * yy - xy * xy
    if denom < tol:
        raise DegeneratePlaneError("X and Y do not span a 2-plane")
    return _apply_r04(cp.riemann04, X, Y, Y, X) / denom


def plane_scalar_curvature(
    cp: CurvaturePoint,
    metric: ChartMetric,
    x: np.ndarray,
    basis: list[np.ndarray],
) -> float:
    """Sum of K(e_i ^ e_j) over i < j of the orthonormalized basis.

    With the full coordinate basis this is the scalar curvature at x.
    """
    gx = metric.at(x)
    try:
        frame = gram_schmidt(basis, inner=lambda u, v: float(u @ gx @ v))
    except Exception as exc:  # degenerate span
        raise DegeneratePlaneError(str(exc)) from exc
    total = 0.0
    for i in range(len(frame)):
        for j in range(i + 1, len(frame)):
            total += _apply_r04(cp.riemann04, frame[i], frame[j], frame[j], frame[i])
    return total


def laplacian(
    metric: ChartMetric,
    f: Callable[[np.ndarray], float],
    x: np.ndarray,
    h: float = DEFAULT_TOLERANCE.finite_difference,
    grad: Callable[[np.ndarray], np.ndarray] | None = None,
    hess: Callable[[np.ndarray], np.ndarray] | None = None,
) -> float:
    """Geometers' Laplacian: Delta f = -g^ij (d_i d_j f - Gamma^k_ij d_k f).

    Equals sum_j {(nabla_{e_j} e_j) f - e_j(e_j f)} over any orthonormal
    frame; analytic gradient/Hessian callbacks are used when given.
    """
    x = as_vector(x, metric.dim)
    n = metric.dim
    gx = metric.at(x)
    gamma = christoffel(metric, x, h)
    if grad is not None:
        df = as_vector(grad(x), n)
    else:
        df = np.array([central_diff(f, x, i, h) for i in range(n)])
    if hess is not None:
        d2f = as_matrix(hess(x), n, n)
    else:
        d2f = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                d2f[i, j] = cross_diff(f, x, i, j, h)
                d2f[j, i] = d2f[i, j]
    g_inv = np.linalg.inv(gx)
    hess_cov = d2f - np.einsum("kij,k->ij", gamma, df)
    return -float(np.einsum("ij,ij->", g_inv, hess_cov))
