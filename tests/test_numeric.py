import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpcheck.errors import DegenerateInputError, InvalidInputError, NumericalDomainError
from warpcheck.numeric import (
    Tolerance,
    bilinear,
    central_diff,
    cross_diff,
    gram_schmidt,
    second_diff,
    sym_eigen,
)


def test_tolerance_positive():
    with pytest.raises(InvalidInputError):
        Tolerance(algebraic=0.0)


def test_gram_schmidt_identity_passthrough():
    out = gram_schmidt([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert np.allclose(out[0], [1, 0]) and np.allclose(out[1], [0, 1])


def test_gram_schmidt_hand_example():
    out = gram_schmidt([np.array([2.0, 0.0]), np.array([1.0, 1.0])])
    assert np.allclose(out[0], [1, 0], atol=1e-12)
    assert np.allclose(out[1], [0, 1], atol=1e-12)


def test_gram_schmidt_dependent_raises():
    with pytest.raises(DegenerateInputError):
        gram_schmidt([np.array([1.0, 0.0]), np.array([2.0, 0.0])])


def test_gram_schmidt_custom_inner():
    g = np.diag([4.0, 9.0])
    inner = lambda u, v: float(u @ g @ v)
    out = gram_schmidt([np.array([1.0, 0.0]), np.array([1.0, 1.0])], inner=inner)
    for i, u in enumerate(out):
        for j, v in enumerate(out):
            assert abs(inner(u, v) - (i == j)) < 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**31 - 1))
def test_gram_schmidt_orthonormality_property(dim, seed):
    rng = np.random.default_rng(seed)
    vecs = [rng.normal(size=dim) for _ in range(dim)]
    try:
        out = gram_schmidt(vecs)
    except DegenerateInputError:
        return  # nearly dependent draw
    mat = np.column_stack(out)
    assert np.max(np.abs(mat.T @ mat - np.eye(dim))) < 1e-10


def _gram_schmidt_per_vector(vectors, inner=None, tol=1e-10):
    """Reference: validate each vector, then the same modified Gram-Schmidt."""
    if inner is None:
        inner = lambda u, v: float(u @ v)
    out = []
    for v in vectors:
        w = np.array(v, dtype=float)
        assert w.ndim == 1 and np.isfinite(w).all()
        for u in out:
            w = w - inner(u, w) * u
        norm = np.sqrt(max(inner(w, w), 0.0))
        if norm < tol:
            raise DegenerateInputError("dependent")
        out.append(w / norm)
    return out


def test_gram_schmidt_matches_per_vector_reference_exactly():
    rng = np.random.default_rng(0)
    for _ in range(300):
        d = int(rng.integers(1, 12))
        a = rng.normal(size=(d, d))
        g = a @ a.T + d * np.eye(d)
        vecs = list(rng.normal(size=(d, int(rng.integers(1, d + 1)))).T)  # strided views
        for inner in (None, lambda u, v: float(u @ g @ v)):
            expected = _gram_schmidt_per_vector(vecs, inner)
            got = gram_schmidt(vecs, inner)
            assert len(got) == len(expected)
            assert all(np.array_equal(x, y) for x, y in zip(got, expected))


@pytest.mark.parametrize(
    "vectors,error",
    [
        ([np.array([1.0, 0.0]), np.array([0.0, 1.0, 0.0])], InvalidInputError),
        ([np.eye(2), np.ones(2)], InvalidInputError),  # a stack and a single vector
        ([np.array(1.0)], InvalidInputError),
        ([np.zeros(0)], InvalidInputError),
        ([np.array([1.0, 0.0]), np.array([0.0, np.nan])], NumericalDomainError),
        ([np.array([np.inf, 0.0]), np.array([0.0, 1.0])], NumericalDomainError),
    ],
)
def test_gram_schmidt_rejects_bad_input(vectors, error):
    with pytest.raises(error):
        gram_schmidt(vectors)


def test_gram_schmidt_empty_input():
    assert gram_schmidt([]) == []


def test_gram_schmidt_on_a_stack_equals_the_pointwise_calls_exactly():
    rng = np.random.default_rng(1)
    for _ in range(100):
        d, k = int(rng.integers(1, 8)), int(rng.integers(1, 5))
        a = rng.normal(size=(k, d, d))
        g = a @ np.swapaxes(a, -1, -2) + d * np.eye(d)
        vecs = list(rng.normal(size=(d, k, int(rng.integers(1, d + 1)))).T)  # (k, d) each
        stacked = gram_schmidt(vecs, lambda u, v: bilinear(g, u, v))
        plain = gram_schmidt(vecs)
        for i in range(k):
            one = gram_schmidt([v[i] for v in vecs], lambda u, v: float(u @ g[i] @ v))
            assert all(np.array_equal(s[i], o) for s, o in zip(stacked, one))
            assert all(np.array_equal(s[i], o) for s, o in zip(plain, gram_schmidt([v[i] for v in vecs])))


def test_gram_schmidt_names_the_point_of_a_dependent_stack():
    vecs = [np.ones((3, 2)), np.array([[0.0, 1.0], [0.0, 1.0], [2.0, 2.0]])]
    with pytest.raises(DegenerateInputError, match=r"vector 1 \(stack index \(2,\)\)"):
        gram_schmidt(vecs)


def test_sym_eigen_identity():
    evals, _ = sym_eigen(np.eye(3))
    assert np.allclose(evals, [1, 1, 1])


def test_sym_eigen_diagonal_sorted():
    evals, _ = sym_eigen(np.diag([-1.0, 0.0, 1.0]))
    assert np.allclose(evals, [-1, 0, 1])


def test_sym_eigen_offdiagonal():
    evals, vecs = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(evals, [-1, 1])
    assert np.max(np.abs(vecs.T @ vecs - np.eye(2))) < 1e-12


def test_sym_eigen_rejects_asymmetric():
    with pytest.raises(InvalidInputError):
        sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sym_eigen_random_reconstruction():
    # module invariant: |mV - V Lambda| < 1e-9 up to dim 15, 10^3 trials
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(2, 16))
        a = rng.normal(size=(n, n))
        m = 0.5 * (a + a.T)
        evals, vecs = sym_eigen(m)
        assert np.max(np.abs(m @ vecs - vecs * evals)) < 1e-9
        assert np.max(np.abs(vecs @ np.diag(evals) @ vecs.T - m)) < 1e-10


def test_central_diff_quadratic():
    f = lambda x: float(x[0] ** 2)
    assert abs(central_diff(f, np.array([1.0]), 0) - 2.0) < 1e-9


def test_second_diff_cosine():
    f = lambda x: float(np.cos(x[0]))
    assert abs(second_diff(f, np.array([0.0]), 0) + 1.0) < 1e-6


def test_central_diff_constant_zero():
    f = lambda x: 3.5
    assert central_diff(f, np.array([0.7]), 0) == 0.0


def test_diff_exact_on_low_degree_polynomials():
    # exact up to 1e-9 with the default step for degree <= 2
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b, c = rng.normal(size=3)
        f = lambda x: float(a * x[0] ** 2 + b * x[0] + c)
        x = rng.normal(size=1)
        assert abs(central_diff(f, x, 0) - (2 * a * x[0] + b)) < 1e-9
        assert abs(second_diff(f, x, 0) - 2 * a) < 1e-5


def test_cross_diff_mixed_term():
    f = lambda x: float(x[0] * x[1] ** 2)
    val = cross_diff(f, np.array([0.4, 0.9]), 0, 1)
    assert abs(val - 2 * 0.9) < 1e-6


def test_non_finite_evaluation_raises():
    f = lambda x: float(np.log(x[0]))
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(NumericalDomainError):
        central_diff(f, np.array([0.0]), 0)


def _array_f(x):
    # 3x2 array of smooth, distinct functions of a 3-vector
    return np.array(
        [
            [np.sin(x[0]) * x[1], np.exp(0.3 * x[2])],
            [x[0] * x[1] * x[2], np.cos(x[1] + 2.0 * x[2])],
            [x[2] ** 3, 1.5],
        ]
    )


def test_array_stencils_match_scalar_calls_bitwise():
    x = np.array([0.4, -1.3, 0.7])
    for i in range(3):
        arr = central_diff(_array_f, x, i)
        assert arr.shape == (3, 2)
        for idx in np.ndindex(3, 2):
            scalar = central_diff(lambda p: float(_array_f(p)[idx]), x, i)
            assert isinstance(scalar, float)
            assert arr[idx] == scalar
        for j in range(3):
            arr = cross_diff(_array_f, x, i, j)
            for idx in np.ndindex(3, 2):
                scalar = cross_diff(lambda p: float(_array_f(p)[idx]), x, i, j)
                assert isinstance(scalar, float)
                assert arr[idx] == scalar
        arr = second_diff(_array_f, x, i)
        for idx in np.ndindex(3, 2):
            assert arr[idx] == second_diff(lambda p: float(_array_f(p)[idx]), x, i)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_array_stencils_raise_on_one_non_finite_entry(bad):
    x = np.array([0.4, -1.3, 0.7])
    for idx in np.ndindex(3, 2):

        def f(p, idx=idx):
            out = _array_f(p)
            out[idx] = bad
            return out

        with pytest.raises(NumericalDomainError):
            central_diff(f, x, 0)
        with pytest.raises(NumericalDomainError):
            second_diff(f, x, 1)
        with pytest.raises(NumericalDomainError):
            cross_diff(f, x, 0, 2)
