"""Dense numeric substrate: small vectors/matrices, the Householder QR
factors that every frame computed in Euclidean coordinates comes from,
validation of a callable's values on a stack of points (shape, finiteness,
a Cholesky positive-definiteness test), and the two derivative rules of the
package, both exact.  complex_step gives first derivatives, Im f(x + i eps
e_a) / eps; taylor gives the first to third from Taylor coefficients on
complex circles.  Each evaluates a function that broadcasts over stacks
once, on all of its complex points, validates it there, and requires f to
be real at the real point itself.

Vectors and matrices are plain numpy arrays (float64).  Everything here is
sized for frames of dimension <= ~30; no sparse or blocked structures.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import InvalidInputError, NumericalDomainError

__all__ = [
    "Tolerance",
    "as_vector",
    "as_matrix",
    "as_points",
    "bilinear",
    "frame_tensor",
    "stack_values",
    "require_positive_definite",
    "qr_q",
    "qr_q_complete",
    "complex_step",
    "taylor",
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


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

COMPLEX_STEP = 1e-30
TAYLOR_RADIUS = 0.1
TAYLOR_NODES = 12


def _evaluate(f: Callable, x: np.ndarray, offsets: np.ndarray, value_shape: tuple, what: str):
    """f on x + offsets (..., rows, n), validated, and its real row 0, f(x)."""
    z = x[..., None, :] + offsets
    values = stack_values(f(z), z.real, value_shape, what, complex_=True)
    value = np.take(values, 0, axis=x.ndim - 1)
    off = (value.imag != 0).reshape(x.shape[:-1] + (-1,)).any(axis=-1)
    if off.any():
        raise NumericalDomainError(f"{what} is not real at the real point {_first_point(x, off)}")
    return values, value.real


def complex_step(f: Callable, x: np.ndarray, value_shape: tuple, what: str) -> tuple[np.ndarray, np.ndarray]:
    """f(x) and its exact first derivatives d_a f = Im f(x + i eps e_a) / eps
    (..., n, *value_shape) on a float stack x (..., n), eps = COMPLEX_STEP, from
    one call of f on (..., n+1, n) complex points, x then the steps.  A wrong
    shape or a real dtype raises InvalidInputError; a non-finite value, or an
    imaginary part at x (f left its real domain), NumericalDomainError naming
    the stack index (..., r) of its point (r = 0 for x, 1 + a for e_a).  f must
    be the complex-analytic extension of its real formula: abs, max/min,
    comparisons or real-part casts of the points give a wrong derivative."""
    values, value = _evaluate(f, x, (1j * COMPLEX_STEP) * np.eye(x.shape[-1] + 1, x.shape[-1], -1), value_shape, what)
    return value, values.imag[(slice(None),) * (x.ndim - 1) + (slice(1, None),)] / COMPLEX_STEP


@functools.cache
def _taylor_plan(n: int) -> tuple:
    """taylor's pairs, pair numbers, triples, offsets and weights, read-only."""
    eye = np.eye(n)
    pairs = np.triu_indices(n, 1)
    number = np.zeros((n, n), dtype=np.intp)  # of the pair a < b in pairs
    number[pairs] = np.arange(len(pairs[0]))
    a, b, c = np.indices((n, n, n)).reshape(3, -1)
    triples = tuple(t[(a < b) & (b < c)] for t in (a, b, c))
    dirs = [eye, eye[pairs[0]] + eye[pairs[1]], eye[pairs[0]] - eye[pairs[1]], sum(eye[t] for t in triples)]
    j, k = np.arange(TAYLOR_NODES // 2 + 1), np.arange(1, 4)[:, None]
    nodes = np.exp(2j * np.pi * j / TAYLOR_NODES)
    circle = TAYLOR_RADIUS * nodes[:, None, None] * np.concatenate(dirs)
    offsets = np.concatenate([np.zeros((1, n)), circle.reshape(-1, n)])
    # k! w^(-jk) / (N r^k); the conjugate nodes N - j double the inner ones
    weights = np.where((j == 0) | (2 * j == TAYLOR_NODES), 1.0, 2.0) * nodes**-k / (TAYLOR_NODES * TAYLOR_RADIUS**k)
    weights *= np.array([1.0, 2.0, 6.0])[:, None]
    for arr in (*pairs, number, *triples, offsets, weights):
        arr.flags.writeable = False
    return pairs, number, triples, offsets, weights


def taylor(f: Callable, x: np.ndarray, value_shape: tuple, what: str) -> tuple[np.ndarray, ...]:
    """f(x) and its exact first, second and third derivatives, (..., n, ...,
    *value_shape), on a float stack x (..., n): one call of f on x and x + r
    w^j v, j = 0..N/2, for v = e_a, e_a +- e_b (a < b) and e_a + e_b + e_c
    (a < b < c), 1 + (N/2 + 1)(n + n(n-1) + C(n, 3)) rows per point, with N =
    TAYLOR_NODES, w = exp(2 pi i / N) and r = TAYLOR_RADIUS; f is real on
    real points, so the conjugate nodes go unevaluated.  A circle's DFT
    gives D^k f[v, ..., v] = k! c_k (J. N. Lyness and C. B. Moler, SIAM J.
    Numer. Anal. 4, 1967), off by aliasing, c_(k+N) r^N, and rounding, eps
    k!/r^k of f's size; polarization gives the mixed derivatives, exactly
    symmetric.  f must be analytic on the disc of radius r sqrt(3) around
    each point.  Errors as complex_step: a stack index (..., r) names the
    row r, 0 for x."""
    n, lead = x.shape[-1], x.shape[:-1]
    (ia, ib), number, (a, b, c), offsets, weights = _taylor_plan(n)
    values, value = _evaluate(f, x, offsets, value_shape, what)
    V, axis, p = int(np.prod(value_shape)), np.arange(n), len(ia)
    circles = values.reshape(lead + (1, len(offsets), V))[..., 1:, :].reshape(lead + (1, weights.shape[1], -1))
    # d[..., k-1, v, :] = D^k f[v, ..., v], summed over the nodes in order, as for one point
    terms = weights.real[..., None] * circles.real - weights.imag[..., None] * circles.imag
    d = np.add.reduce(terms, axis=-2).reshape(lead + (3, -1, V))
    plus, minus = d[..., n : n + p, :], d[..., n + p : n + 2 * p, :]
    cube, s, t = d[..., 2, :n, :], plus[..., 2, :, :], minus[..., 2, :, :]
    aab = (s - t - 2.0 * cube[..., ib, :]) / 6.0  # d_a d_a d_b f
    abb = (s + t - 2.0 * cube[..., ia, :]) / 6.0  # d_a d_b d_b f
    both = [(aab + abb)[..., number[u, v], :] for u, v in ((a, b), (a, c), (b, c))]
    pure = cube[..., a, :] + cube[..., b, :] + cube[..., c, :]
    abc = (d[..., 2, n + 2 * p :, :] - pure - 3.0 * sum(both)) / 6.0  # d_a d_b d_c f
    # each symmetric tensor's distinct entries, as (index arrays, values)
    parts = [
        [((axis, axis), d[..., 1, :n, :]), ((ia, ib), 0.25 * (plus[..., 1, :, :] - minus[..., 1, :, :]))],
        [((axis,) * 3, cube), ((ia, ia, ib), aab), ((ia, ib, ib), abb), ((a, b, c), abc)],
    ]
    out = [d[..., 0, :n, :]]
    for k, entries in enumerate(parts, start=2):
        out.append(np.empty(lead + (n,) * k + (V,)))
        for index, part in entries:  # into every distinct permutation of the index arrays
            for perm in {tuple(map(id, q)): q for q in itertools.permutations(index)}.values():
                out[-1][(Ellipsis, *perm, slice(None))] = part
    return (value, *(o.reshape(o.shape[:-1] + tuple(value_shape)) for o in out))
