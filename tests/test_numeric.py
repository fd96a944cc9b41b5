import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpcheck.errors import DegenerateInputError, InvalidInputError, NumericalDomainError
from warpcheck.numeric import (
    FD_STEP,
    Tolerance,
    bilinear,
    complex_step,
    gram_schmidt,
    jet,
    qr_q,
    qr_q_complete,
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


def _derivatives(f, x, value_shape=()):
    """First and second derivatives of f, taking a stack, from its jet: one
    f call on the complex step of the axis stencil of x, validated."""
    _, d1, d2 = jet(f, np.asarray(x, dtype=float), value_shape, "f")
    return d1, d2


def _qr_inputs(rng, m, complex_):
    """Square, tall and wide m-row matrices (the k x (k + 1) [H | I] shape of
    the equality diagnostics among them), alone and in stacks of 1 and 6."""
    for cols in sorted({m, max(1, m // 2), max(1, m - 1), m + 1, m + 3}):
        for lead in ((), (1,), (6,)):
            a = rng.normal(size=lead + (m, cols))
            yield a + 1j * rng.normal(size=a.shape) if complex_ else a


def _numpy_q_or_error(a):
    try:
        return np.linalg.qr(a)[0]
    except Exception as exc:  # the class is compared
        return type(exc)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("m", range(1, 12))
def test_qr_q_is_numpy_qr_bit_for_bit(m, complex_):
    rng = np.random.default_rng(100 + m)
    for a in _qr_inputs(rng, m, complex_):
        q, ref = qr_q(a), np.linalg.qr(a)[0]
        assert q.dtype == ref.dtype and q.shape == ref.shape == a.shape[:-1] + (min(a.shape[-2:]),)
        assert np.array_equal(q, ref), a.shape


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("m", range(1, 12))
def test_qr_q_complete_is_numpy_qr_in_both_modes_bit_for_bit(m, complex_):
    rng = np.random.default_rng(200 + m)
    for a in _qr_inputs(rng, m, complex_):
        before = a.copy()
        q, full = qr_q_complete(a)
        assert np.array_equal(a, before)
        assert q.dtype == full.dtype == a.dtype
        assert np.array_equal(q, np.linalg.qr(a)[0]), a.shape
        assert np.array_equal(full, np.linalg.qr(a, mode="complete")[0]), a.shape


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_qr_q_follows_numpy_qr_on_non_finite_input(bad, complex_):
    rng = np.random.default_rng(7)
    for m in (1, 3, 7):
        for a in _qr_inputs(rng, m, complex_):
            a[..., m // 2, 0] = bad
            ref = _numpy_q_or_error(a)
            if isinstance(ref, type):
                with pytest.raises(ref):
                    qr_q(a)
            else:
                assert np.array_equal(qr_q(a), ref, equal_nan=True), a.shape


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_qr_q_leaves_the_callers_array_unchanged(complex_):
    rng = np.random.default_rng(8)
    block = rng.normal(size=(4, 60))
    if complex_:
        block = block + 1j * rng.normal(size=block.shape)
    frames = block[:, :49].reshape(4, 7, 7)  # a view, as random_stack passes it
    before = block.copy()
    qr_q(frames)
    assert np.array_equal(block, before)
    frames = before[:, :49].reshape(4, 7, 7).copy()
    frames.flags.writeable = False  # factored in a private copy, never in place
    assert np.array_equal(qr_q(frames), np.linalg.qr(frames)[0])


def test_central_diff_quadratic():
    d1, _ = _derivatives(lambda x: x[..., 0] ** 2, [1.0])
    assert d1[0] == 2.0  # the complex step is exact


def test_second_diff_cosine():
    _, d2 = _derivatives(lambda x: np.cos(x[..., 0]), [0.0])
    assert abs(d2[0, 0] + 1.0) < 1e-6


def test_central_diff_constant_zero():
    d1, d2 = _derivatives(lambda x: np.full(x.shape[:-1], 3.5, dtype=x.dtype), [0.7])
    assert d1[0] == 0.0 and d2[0, 0] == 0.0


def test_diff_exact_on_low_degree_polynomials():
    # exact up to 1e-9 with the step FD_STEP for degree <= 2
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b, c = rng.normal(size=3)
        x = rng.normal(size=1)
        d1, d2 = _derivatives(lambda p: a * p[..., 0] ** 2 + b * p[..., 0] + c, x)
        assert abs(d1[0] - (2 * a * x[0] + b)) < 1e-9
        assert abs(d2[0, 0] - 2 * a) < 1e-5


def test_cross_diff_mixed_term():
    _, d2 = _derivatives(lambda x: x[..., 0] * x[..., 1] ** 2, [0.4, 0.9])
    assert abs(d2[0, 1] - 2 * 0.9) < 1e-6
    assert d2[1, 0] == d2[0, 1]


def test_non_finite_evaluation_raises():
    # log is singular at 0 (the complex step alone would read it as finite);
    # exp overflows at 800
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for f, x in ((np.log, 0.0), (np.exp, 800.0)):
            with pytest.raises(NumericalDomainError, match="non-finite"):
                _derivatives(lambda p: f(p[..., 0]), [x])


@pytest.mark.parametrize("f", [np.sqrt, np.log, np.arcsin], ids=["sqrt", "log", "arcsin"])
def test_leaving_the_real_domain_raises(f):
    # at x = -2 the complex extension is finite but not real: the complex
    # step alone would return a finite derivative
    for x, index in (([-2.0], ""), ([[0.5], [-2.0]], r" \(stack index \(1,\)\)")):
        x = np.array(x)
        with pytest.raises(NumericalDomainError, match=r"f is not real at the real point \[-2\.\]" + index):
            complex_step(lambda p: f(p[..., 0]), x, (), "f")
    with pytest.raises(NumericalDomainError, match=r"stack index \(0,\)"):
        _derivatives(lambda p: f(p[..., 0]), [-2.0])


def test_complex_step_is_exact_where_a_difference_is_not():
    # d/dx x^-20 at 1e-3: a central difference of step 1e-4 is off by 102%
    x = np.array([[1e-3], [2.0]])
    value, d1 = complex_step(lambda p: p[..., 0] ** -20, x, (), "f")
    assert np.allclose(value, x[:, 0] ** -20, rtol=1e-15, atol=0.0)
    assert np.allclose(d1[:, 0], -20.0 * x[:, 0] ** -21, rtol=1e-14, atol=0.0)


def test_the_jet_evaluates_f_once_on_the_complex_axis_stencil():
    # rows: x, x + s_k e_k, x - s_k e_k with s_k = FD_STEP max(1, |x_k|); each row
    # taken as it is, then stepped by i eps along every coordinate
    calls = []

    def f(p):
        calls.append(p.copy())
        return np.sin(p[..., 0]) * p[..., 1] ** 2

    x = np.array([[0.4, -1.3], [2.0, 0.5]])
    value, d1, d2 = jet(f, x, (), "f")
    assert len(calls) == 1 and calls[0].shape == (2, 5, 3, 2)
    steps = FD_STEP * np.maximum(1.0, np.abs(x))
    shifts = steps[:, :, None] * np.eye(2)
    rows = np.concatenate([x[:, None], x[:, None] + shifts, x[:, None] - shifts], axis=1)
    assert np.array_equal(calls[0].real, np.broadcast_to(rows[:, :, None], (2, 5, 3, 2)))
    assert np.array_equal(calls[0].imag, np.broadcast_to(1e-30 * np.eye(3, 2, -1), (2, 5, 3, 2)))
    s, c, y = np.sin(x[:, 0]), np.cos(x[:, 0]), x[:, 1]
    assert np.allclose(value, s * y**2, rtol=1e-15)
    assert np.allclose(d1, np.stack([c * y**2, 2.0 * s * y], axis=-1), rtol=1e-15)
    hess = np.stack([np.stack([-s * y**2, 2 * c * y], -1), np.stack([2 * c * y, 2 * s], -1)], -2)
    assert np.array_equal(d2, np.swapaxes(d2, -1, -2))
    assert np.max(np.abs(d2 - hess)) < 1e-5


def _as_float(p):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", np.exceptions.ComplexWarning)
        return np.asarray(p, dtype=float)


@pytest.mark.parametrize("cast", [np.real, np.abs, _as_float], ids=["real", "abs", "asarray-float"])
def test_a_function_that_drops_the_imaginary_part_is_rejected(cast):
    # its derivative would read 0; the shape is checked first
    x = np.array([0.4, 0.9])
    for rule in (lambda f: complex_step(f, x, (), "f"), lambda f: jet(f, x, (), "f")):
        with pytest.raises(InvalidInputError, match="f returned float64 values for complex points"):
            rule(lambda p: np.sin(cast(p)[..., 0]))
        with pytest.raises(InvalidInputError, match="shape"):
            rule(lambda p: np.sin(cast(p)))


def _array_f(x):
    # 3x2 array of smooth, distinct functions of a 3-vector, per stack point
    x0, x1, x2 = np.moveaxis(x, -1, 0)
    rows = [
        [np.sin(x0) * x1, np.exp(0.3 * x2)],
        [x0 * x1 * x2, np.cos(x1 + 2.0 * x2)],
        [x2**3, np.full_like(x0, 1.5)],
    ]
    return np.moveaxis(np.array(rows), (0, 1), (-2, -1))


def test_array_stencils_match_scalar_calls_bitwise():
    x = np.array([0.4, -1.3, 0.7])
    d1, d2 = _derivatives(_array_f, x, (3, 2))
    assert d1.shape == (3, 3, 2) and d2.shape == (3, 3, 3, 2)
    for idx in np.ndindex(3, 2):
        s1, s2 = _derivatives(lambda p: _array_f(p)[(...,) + idx], x)
        assert np.array_equal(d1[(...,) + idx], s1)
        assert np.array_equal(d2[(...,) + idx], s2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_array_stencils_raise_on_one_non_finite_entry(bad):
    x = np.array([0.4, -1.3, 0.7])
    for idx in np.ndindex(3, 2):
        # (stencil row, complex-step row): the real point, steps along e_a
        for row, a in ((0, 0), (1, 3), (6, 1)):

            def f(p, idx=idx, row=row, a=a):
                out = _array_f(p)
                out[(row, a) + idx] = bad
                return out

            with pytest.raises(NumericalDomainError, match=f"stack index \\({row}, {a}\\)"):
                _derivatives(f, x, (3, 2))
