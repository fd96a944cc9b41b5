"""Dense numeric substrate: small vectors/matrices, orthonormalization,
a validated symmetric eigensolver (np.linalg.eigh) and finite-difference
stencils over scalar- or array-valued functions.

Vectors and matrices are plain numpy arrays (float64).  Everything here is
sized for frames of dimension <= ~30; no sparse or blocked structures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateInputError, InvalidInputError, NumericalDomainError

__all__ = [
    "Tolerance",
    "as_vector",
    "as_matrix",
    "gram_schmidt",
    "sym_eigen",
    "qr_q",
    "central_diff",
    "second_diff",
    "cross_diff",
]


@dataclass(frozen=True)
class Tolerance:
    """Tolerance policy shared across the package.

    algebraic: exact-identity checks on frame-level algebra.
    finite_difference: default step / acceptance band for stencil-based geometry.
    equality_gap: |rhs - lhs| band under which an inequality is reported as equality.
    """

    algebraic: float = 1e-10
    finite_difference: float = 1e-4
    equality_gap: float = 1e-6

    def __post_init__(self):
        if min(self.algebraic, self.finite_difference, self.equality_gap) <= 0.0:
            raise InvalidInputError("tolerances must be strictly positive")


DEFAULT_TOLERANCE = Tolerance()


def as_vector(v, dim: int | None = None) -> np.ndarray:
    """Validate and return a finite 1-d float array (dim >= 1)."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidInputError(f"expected a 1-d vector, got shape {arr.shape}")
    if dim is not None and arr.size != dim:
        raise InvalidInputError(f"expected dimension {dim}, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise NumericalDomainError("vector has non-finite entries")
    return arr


def as_matrix(m, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Validate and return a finite 2-d float array."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise InvalidInputError(f"expected a 2-d matrix, got shape {arr.shape}")
    if rows is not None and arr.shape[0] != rows:
        raise InvalidInputError(f"expected {rows} rows, got {arr.shape[0]}")
    if cols is not None and arr.shape[1] != cols:
        raise InvalidInputError(f"expected {cols} cols, got {arr.shape[1]}")
    if not np.all(np.isfinite(arr)):
        raise NumericalDomainError("matrix has non-finite entries")
    return arr


def qr_q(a: np.ndarray) -> np.ndarray:
    """Reduced QR factor Q of each matrix of a stack (N, m, n).  LAPACK runs
    once per matrix either way, so the result is bit-identical to N separate
    np.linalg.qr calls; a stack of one takes the 2-d call, which costs numpy
    less."""
    return np.linalg.qr(a[0])[0][None] if len(a) == 1 else np.linalg.qr(a)[0]


def gram_schmidt(
    vectors: Sequence[np.ndarray],
    inner: Callable[[np.ndarray, np.ndarray], float] | None = None,
    tol: float = DEFAULT_TOLERANCE.algebraic,
) -> list[np.ndarray]:
    """Orthonormalize `vectors` with modified Gram-Schmidt.

    `inner` is a positive-definite bilinear form; Euclidean dot product when
    omitted.  Prefix spans are preserved.  Raises InvalidInputError unless
    the inputs are 1-d vectors of one length, NumericalDomainError on a
    non-finite entry and DegenerateInputError when a pivot norm falls below
    `tol` (dependent input).
    """
    if len(vectors) == 0:
        return []
    try:
        stacked = np.array(vectors, dtype=float)
    except ValueError as exc:  # ragged input
        raise InvalidInputError(f"expected 1-d vectors of one length: {exc}") from exc
    if stacked.ndim != 2 or stacked.shape[1] < 1:
        raise InvalidInputError(f"expected 1-d vectors, got stacked shape {stacked.shape}")
    if not np.isfinite(stacked).all():
        raise NumericalDomainError("vector has non-finite entries")
    dot = np.dot if inner is None else inner
    out: list[np.ndarray] = []
    for w in stacked:  # rows of a private copy, updated in place
        for u in out:
            w -= dot(u, w) * u
        norm = np.sqrt(max(dot(w, w), 0.0))
        if norm < tol:
            raise DegenerateInputError(
                f"rank-deficient input at vector {len(out)}: pivot norm {norm:.3e}"
            )
        out.append(w / norm)
    return out


def sym_eigen(m: np.ndarray, tol: float = DEFAULT_TOLERANCE.algebraic):
    """Eigendecomposition of a symmetric matrix (LAPACK, via np.linalg.eigh).

    Returns (eigenvalues ascending, eigenvectors as columns).  Raises
    InvalidInputError if `m` is not square or not symmetric within `tol`.
    """
    a = as_matrix(m)
    if a.shape[1] != a.shape[0]:
        raise InvalidInputError("matrix must be square")
    if np.max(np.abs(a - a.T)) > tol:
        raise InvalidInputError("matrix not symmetric within tolerance")
    return np.linalg.eigh(0.5 * (a + a.T))


def _check_finite(value):
    """A scalar evaluation as a float, an array evaluation as a float array."""
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise NumericalDomainError("function evaluation returned a non-finite value")
    return float(arr) if arr.ndim == 0 else arr


def _step(x: np.ndarray, i: int, h: float) -> float:
    # absolute step scaled by the coordinate magnitude; charts here are O(1)
    return h * max(1.0, abs(float(x[i])))


def central_diff(
    f: Callable[[np.ndarray], float | np.ndarray],
    x: np.ndarray,
    i: int,
    h: float = DEFAULT_TOLERANCE.finite_difference,
) -> float | np.ndarray:
    """Second-order central difference of f along coordinate i at x.

    f may return a scalar or an array; an array is differenced entrywise.
    """
    x = as_vector(x)
    hi = _step(x, i, h)
    xp, xm = x.copy(), x.copy()
    xp[i] += hi
    xm[i] -= hi
    return (_check_finite(f(xp)) - _check_finite(f(xm))) / (2.0 * hi)


def second_diff(
    f: Callable[[np.ndarray], float | np.ndarray],
    x: np.ndarray,
    i: int,
    h: float = DEFAULT_TOLERANCE.finite_difference,
) -> float | np.ndarray:
    """3-point stencil for the pure second derivative along coordinate i.

    f may return a scalar or an array; an array is differenced entrywise.
    """
    x = as_vector(x)
    hi = _step(x, i, h)
    xp, xm = x.copy(), x.copy()
    xp[i] += hi
    xm[i] -= hi
    return (
        _check_finite(f(xp)) - 2.0 * _check_finite(f(x)) + _check_finite(f(xm))
    ) / (hi * hi)


def cross_diff(
    f: Callable[[np.ndarray], float | np.ndarray],
    x: np.ndarray,
    i: int,
    j: int,
    h: float = DEFAULT_TOLERANCE.finite_difference,
) -> float | np.ndarray:
    """4-point cross stencil for the mixed second derivative along (i, j).

    f may return a scalar or an array; an array is differenced entrywise.
    """
    if i == j:
        return second_diff(f, x, i, h)
    x = as_vector(x)
    hi, hj = _step(x, i, h), _step(x, j, h)
    xpp, xpm, xmp, xmm = x.copy(), x.copy(), x.copy(), x.copy()
    xpp[[i, j]] += (hi, hj)
    xpm[i] += hi
    xpm[j] -= hj
    xmp[i] -= hi
    xmp[j] += hj
    xmm[[i, j]] -= (hi, hj)
    return (
        _check_finite(f(xpp))
        - _check_finite(f(xpm))
        - _check_finite(f(xmp))
        + _check_finite(f(xmm))
    ) / (4.0 * hi * hj)
