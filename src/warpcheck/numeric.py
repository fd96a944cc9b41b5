"""Dense numeric substrate: small vectors/matrices, orthonormalization,
validation of a callable's values on a stack of points (shape, finiteness,
a Cholesky positive-definiteness test), and the one derivative rule of the
package.  First derivatives are exact: the complex step
d_a f(x) = Im f(x + i eps e_a) / eps has no cancellation error, and f(x)
itself, evaluated alongside, must be real.  Second
derivatives are one central difference of those, on the axis stencil
(centre and axis shifts) of each point, at the fixed step FD_STEP scaled
by max(1, |x_k|).  Each rule evaluates a function that broadcasts over
stacks once, on all of its complex points.

Vectors and matrices are plain numpy arrays (float64).  Everything here is
sized for frames of dimension <= ~30; no sparse or blocked structures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DegenerateInputError, InvalidInputError, NumericalDomainError

__all__ = [
    "Tolerance",
    "as_vector",
    "as_matrix",
    "as_points",
    "bilinear",
    "frame_tensor",
    "stack_values",
    "require_positive_definite",
    "gram_schmidt",
    "qr_q",
    "qr_q_complete",
    "axis_stencil",
    "central_differences",
    "complex_step",
    "jet",
]


@dataclass(frozen=True)
class Tolerance:
    """Tolerance policy shared across the package.

    algebraic: exact-identity checks on frame-level algebra.
    """

    algebraic: float = 1e-10

    def __post_init__(self):
        if not (np.isfinite(self.algebraic) and self.algebraic > 0.0):
            raise InvalidInputError("tolerances must be finite and strictly positive")


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


def as_points(x, dim: int) -> np.ndarray:
    """Validate and return a finite float point (dim,) or stack of points (..., dim)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim < 1 or arr.shape[-1] != dim:
        raise InvalidInputError(f"expected points of dimension {dim}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NumericalDomainError("point has non-finite entries")
    return arr


def bilinear(m: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u^T m v for stacks m (..., k, k), u, v (..., k), broadcast; each value
    is the one that `u @ m @ v` gives for its point alone."""
    return (u[..., None, :] @ m @ v[..., :, None])[..., 0, 0]


def frame_tensor(R: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """R(F_a, F_b, F_c, F_d) of a (0,4) tensor R (d, d, d, d) over each frame F of a stack (N, d, n),
    as (N, n, n, n, n): four one-slot contractions, one matrix product per frame each."""
    N, d, n = frames.shape
    out = R.reshape(d, -1).T  # the leading slot last: (d^3, d)
    for _ in range(3):  # contract the leading slot, its new index goes last
        out = np.matmul(out, frames).reshape(N, d, -1).swapaxes(1, 2)
    return np.matmul(out, frames).reshape(N, n, n, n, n)


def _first_point(points: np.ndarray, mask: np.ndarray) -> str:
    idx = tuple(int(i) for i in np.argwhere(mask)[0])
    return f"{points[idx]}" + (f" (stack index {idx})" if idx else "")


def stack_values(value, points: np.ndarray, value_shape: tuple, what: str, complex_: bool = False) -> np.ndarray:
    """A callable's result on the stack `points` (..., n) as a float array
    (..., *value_shape), or as it is when `complex_`.  Raises
    InvalidInputError unless it has that shape (a callable that ignores the
    stack axis fails here) and, when `complex_`, a complex dtype (a callable
    that casts its points to float drops the imaginary part); then
    NumericalDomainError naming the first point with a non-finite value."""
    arr = np.asarray(value) if complex_ else np.asarray(value, dtype=float)
    lead = points.shape[:-1]
    if arr.shape != lead + tuple(value_shape):
        raise InvalidInputError(f"{what} returned shape {arr.shape}, expected {lead + tuple(value_shape)}")
    if complex_ and not np.iscomplexobj(arr):
        raise InvalidInputError(
            f"{what} returned {arr.dtype} values for complex points: it must keep their imaginary part"
        )
    finite = np.isfinite(arr).reshape(lead + (-1,)).all(axis=-1)
    if not finite.all():
        raise NumericalDomainError(f"{what} has non-finite entries at {_first_point(points, ~finite)}")
    return arr


def require_positive_definite(
    m: np.ndarray, points: np.ndarray, margin: float, sym_tol: float, error: type, what: str
) -> np.ndarray:
    """Validate a stack (..., k, k) of finite symmetric matrices, one for each
    point of `points` (..., n): symmetric within `sym_tol`
    (InvalidInputError) and m - margin*I positive definite, tested by a
    Cholesky attempt (`error`).  Each error names the first offending point."""
    asym = np.abs(m - np.swapaxes(m, -1, -2)).max(axis=(-2, -1)) > sym_tol
    if asym.any():
        raise InvalidInputError(f"{what} not symmetric within {sym_tol:g} at {_first_point(points, asym)}")
    shifted = m - margin * np.eye(m.shape[-1])
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        failed = np.zeros(m.shape[:-2], dtype=bool)
        for idx in np.ndindex(failed.shape):
            try:
                np.linalg.cholesky(shifted[idx])
            except np.linalg.LinAlgError:
                failed[idx] = True
        raise error(
            f"{what} not positive definite (least eigenvalue <= {margin:g}) "
            f"at {_first_point(points, failed)}"
        ) from None
    return m


def _raise_qr_error(err, flag):
    raise np.linalg.LinAlgError("Incorrect argument found while performing QR factorization")


def qr_q(a: np.ndarray) -> np.ndarray:
    """Reduced QR factor Q (..., m, min(m, n)) of each matrix of a float64 or
    complex128 stack (..., m, n).

    Runs the two LAPACK gufuncs that numpy.linalg.qr runs, on a private copy
    (qr_r_raw overwrites its input with the Householder vectors and returns
    tau; qr_reduced forms Q from them), under the error state numpy.linalg.qr
    sets, so Q is bit-identical to numpy.linalg.qr(a)[0] and a LAPACK error
    raises LinAlgError.  What is skipped is the wrapper's R (a triu that
    Q's callers discard) and its second errstate.  The gufunc names and
    signatures are those of numpy >= 2.0; tests/test_numeric.py pins the
    identity.
    """
    t = "D" if np.iscomplexobj(a) else "d"
    return _qr_gufuncs(np.array(a, dtype=t), t, False)[0]


def qr_q_complete(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The reduced factor Q of qr_q and the complete factor Q (..., m, m) of
    each matrix of a float64 or complex128 stack (..., m, n), both formed
    from one Householder factorization.

    Each is bit-identical to numpy.linalg.qr(a, mode)[0] for its mode,
    "reduced" and "complete": the complete one comes from qr_complete, the
    gufunc numpy.linalg.qr runs for it when m > n.  When m <= n the two
    factors coincide and the one array is returned twice.
    """
    t = "D" if np.iscomplexobj(a) else "d"
    return _qr_gufuncs(np.array(a, dtype=t), t, True)


@np.errstate(call=_raise_qr_error, invalid="call", over="ignore", divide="ignore", under="ignore")
def _qr_gufuncs(a: np.ndarray, t: str, complete: bool) -> tuple[np.ndarray, np.ndarray]:
    # the error state of numpy.linalg.qr, set by the decorator with less
    # work than a with-block per call; qr_reduced and qr_complete read the
    # Householder vectors in `a` without changing them
    tau = _umath_linalg.qr_r_raw(a, signature=f"{t}->{t}")
    q = _umath_linalg.qr_reduced(a, tau, signature=f"{t}{t}->{t}")
    if not complete or a.shape[-2] <= a.shape[-1]:
        return q, q
    return q, _umath_linalg.qr_complete(a, tau, signature=f"{t}{t}->{t}")


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # for one pair of vectors the value of np.dot, over stacks too
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def gram_schmidt(
    vectors: Sequence[np.ndarray],
    inner: Callable[[np.ndarray, np.ndarray], float | np.ndarray] | None = None,
    tol: float = DEFAULT_TOLERANCE.algebraic,
) -> list[np.ndarray]:
    """Orthonormalize `vectors` with modified Gram-Schmidt.

    The vectors are arrays of one shape (..., n): single vectors (n,), or
    one vector per point of a stack, orthonormalized point by point with the
    arithmetic of a single vector.  `inner` is a positive-definite bilinear
    form broadcasting over the stack (e.g. ``bilinear`` against a stacked
    metric); Euclidean dot product when omitted.  Prefix spans are
    preserved.  Raises InvalidInputError unless the inputs are arrays of one
    shape with n >= 1, NumericalDomainError on a non-finite entry and
    DegenerateInputError, naming the vector and the first point, when a
    pivot norm falls below `tol` (dependent input).
    """
    if len(vectors) == 0:
        return []
    try:
        stacked = np.array(vectors, dtype=float)
    except ValueError as exc:  # ragged input
        raise InvalidInputError(f"expected vectors of one shape: {exc}") from exc
    if stacked.ndim < 2 or stacked.shape[-1] < 1:
        raise InvalidInputError(f"expected vectors (..., n), got stacked shape {stacked.shape}")
    if not np.isfinite(stacked).all():
        raise NumericalDomainError("vector has non-finite entries")
    dot = _dot if inner is None else inner
    out: list[np.ndarray] = []
    for w in stacked:  # private copies, updated in place
        for u in out:
            w -= np.expand_dims(dot(u, w), -1) * u
        norm = np.sqrt(np.maximum(dot(w, w), 0.0))
        small = norm < tol
        if np.any(small):
            idx = tuple(int(i) for i in np.argwhere(small)[0])
            at = f" (stack index {idx})" if idx else ""
            raise DegenerateInputError(
                f"rank-deficient input at vector {len(out)}{at}: pivot norm {norm[idx]:.3e}"
            )
        out.append(w / np.expand_dims(norm, -1))
    return out


# ---------------------------------------------------------------------------
# derivatives.  A stencil lays out all of its points in one array, so that a
# function broadcasting over stacks is evaluated once per stencil.
# ---------------------------------------------------------------------------

COMPLEX_STEP = 1e-30
FD_STEP = 1e-4


def axis_stencil(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centre and axis shifts of each point of x (..., n).

    Returns (points, steps): points (..., 2n+1, n) hold x in row 0,
    x + s_i e_i in row 1+i and x - s_i e_i in row 1+n+i, with the steps
    s = FD_STEP max(1, |x_i|) of shape (..., n) (charts here are O(1)).
    """
    n = x.shape[-1]
    steps = FD_STEP * np.maximum(1.0, np.abs(x))
    pts = np.repeat(x[..., None, :], 2 * n + 1, axis=-2)
    r = np.arange(n)
    pts[..., 1 + r, r] += steps
    pts[..., 1 + n + r, r] -= steps
    return pts, steps


def central_differences(values: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """First derivatives d_i f (..., n, *value_shape) from f on the rows of
    axis_stencil, values (..., 2n+1, *value_shape)."""
    n = steps.shape[-1]
    lead = (slice(None),) * (steps.ndim - 1)
    plus, minus = values[lead + (slice(1, n + 1),)], values[lead + (slice(n + 1, 2 * n + 1),)]
    return (plus - minus) / (2.0 * steps.reshape(steps.shape + (1,) * (plus.ndim - steps.ndim)))


def complex_step(f: Callable, x: np.ndarray, value_shape: tuple, what: str) -> tuple[np.ndarray, np.ndarray]:
    """f and its exact first derivatives on a float stack x (..., n), from
    one call of f on the complex points (..., n+1, n): x itself, then
    x + i eps e_a, with eps = COMPLEX_STEP.

    Returns the value f(x) (..., *value_shape) and d_a f = Im f(x + i eps
    e_a) / eps (..., n, *value_shape).  The values are validated by
    stack_values: a wrong shape or a real dtype raises InvalidInputError, a
    non-finite entry NumericalDomainError naming the stack index (..., r) of
    its point (r = 0 for x, 1 + a for the step along e_a).  So does an
    imaginary part at x itself, where f has left its real domain.

    f must be the complex-analytic extension of its real formula: abs,
    max/min, comparisons or real-part casts of the points give a wrong
    derivative, with no error unless the result is wholly real.
    """
    z = x[..., None, :] + (1j * COMPLEX_STEP) * np.eye(x.shape[-1] + 1, x.shape[-1], -1)
    values = stack_values(f(z), z.real, value_shape, what, complex_=True)
    value = np.take(values, 0, axis=x.ndim - 1)
    off = (value.imag != 0).reshape(x.shape[:-1] + (-1,)).any(axis=-1)
    if off.any():
        raise NumericalDomainError(f"{what} is not real at the real point {_first_point(x, off)}")
    steps = values.imag[(slice(None),) * (x.ndim - 1) + (slice(1, None),)]
    return value.real, steps / COMPLEX_STEP


def jet(f: Callable, x: np.ndarray, value_shape: tuple, what: str):
    """Value, first and second derivatives of f on a float stack x (..., n),
    from one call of f on the complex step of axis_stencil(x), the points
    (..., 2n+1, n+1, n).

    Returns (value, first, second): value (..., *value_shape); first
    (..., n, *value_shape), exact; second (..., n, n, *value_shape), the
    central differences (step FD_STEP max(1, |x_k|)) of the exact first
    derivatives, symmetrized.  Errors as complex_step, whose stack index of
    a bad value is (..., row, r).
    """
    pts, steps = axis_stencil(x)
    values, first = complex_step(f, pts, value_shape, what)
    second = central_differences(first, steps)  # second[..., k, a] = d_k d_a f
    axis = x.ndim - 1
    second = 0.5 * (second + np.swapaxes(second, axis, axis + 1))
    return np.take(values, 0, axis=axis), np.take(first, 0, axis=axis), second
