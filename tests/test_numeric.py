import inspect
import itertools
import warnings
from math import factorial

import numpy as np
import pytest

from warpcheck.errors import InvalidInputError, NumericalDomainError
from warpcheck.numeric import (
    TAYLOR_NODES,
    TAYLOR_RADIUS,
    Tolerance,
    complex_step,
    qr_q,
    qr_q_complete,
    taylor,
)


def test_tolerance_positive():
    with pytest.raises(InvalidInputError):
        Tolerance(algebraic=0.0)


def _derivatives(f, x, value_shape=()):
    """First and second derivatives of f, taking a stack, from its Taylor
    coefficients: one f call on the complex circles of x, validated."""
    _, d1, d2, _ = taylor(f, np.asarray(x, dtype=float), value_shape, "f")
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


def test_taylor_first_derivative_of_a_quadratic():
    d1, _ = _derivatives(lambda x: x[..., 0] ** 2, [1.0])
    assert abs(d1[0] - 2.0) < 1e-15


def test_taylor_second_derivative_of_the_cosine():
    _, d2 = _derivatives(lambda x: np.cos(x[..., 0]), [0.0])
    assert abs(d2[0, 0] + 1.0) < 1e-13


def test_taylor_derivatives_of_a_constant_vanish():
    d1, d2 = _derivatives(lambda x: np.full(x.shape[:-1], 3.5, dtype=x.dtype), [0.7])
    assert abs(d1[0]) < 1e-14 and abs(d2[0, 0]) < 1e-12


def test_taylor_is_exact_on_low_degree_polynomials():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b, c = rng.normal(size=3)
        x = rng.normal(size=1)
        d1, d2 = _derivatives(lambda p: a * p[..., 0] ** 2 + b * p[..., 0] + c, x)
        assert abs(d1[0] - (2 * a * x[0] + b)) < 1e-13
        assert abs(d2[0, 0] - 2 * a) < 1e-12


def test_taylor_mixed_second_derivative():
    _, d2 = _derivatives(lambda x: x[..., 0] * x[..., 1] ** 2, [0.4, 0.9])
    assert abs(d2[0, 1] - 2 * 0.9) < 1e-13
    assert d2[1, 0] == d2[0, 1]


@pytest.mark.parametrize("n", range(1, 9))
def test_taylor_is_exact_on_cubic_polynomials(n):
    # a cubic has no Taylor coefficient beyond the third, so no aliasing:
    # what is left is the rounding of its values, about eps k! / r^k of
    # their size in the k-th derivative (1.3e-12 at k = 3)
    rng = np.random.default_rng(40 + n)
    A = rng.normal(size=(n, n, n))
    A = sum(A.transpose(p) for p in itertools.permutations(range(3))) / 6.0
    B = rng.normal(size=(n, n))
    B = B + B.T
    c, a0 = rng.normal(size=n), rng.normal()
    sizes = []

    def f(p):
        out = np.einsum("abc,...a,...b,...c->...", A, p, p, p) / 6.0 + np.einsum("ab,...a,...b->...", B, p, p) / 2.0
        out = out + p @ c + a0
        sizes.append(np.abs(out).max())
        return out

    for x in rng.uniform(-1.0, 1.0, size=(3, n)):
        value, d1, d2, d3 = taylor(f, x, (), "f")
        assert abs(value - f(x)) <= 1e-15 * sizes[-1]  # f itself, on real rather than complex points
        exact = (A @ x @ x / 2.0 + B @ x + c, A @ x + B, A)
        for k, (got, want) in enumerate(zip((d1, d2, d3), exact), start=1):
            bound = 10.0 * np.finfo(float).eps * factorial(k) / TAYLOR_RADIUS**k * sizes[0]
            assert np.max(np.abs(got - want)) <= min(bound, 1e-10), (k, np.max(np.abs(got - want)))
        sizes.clear()


def test_taylor_derivatives_are_exactly_symmetric():
    x = np.array([0.4, -1.3, 0.7, 0.2])
    out = taylor(_array_f4, x, (3, 2), "f")
    for k, d in enumerate(out[2:], start=2):
        for perm in itertools.permutations(range(k)):
            assert np.array_equal(d, d.transpose(*perm, k, k + 1))


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
    with pytest.raises(NumericalDomainError, match=r"f is not real at the real point \[-2\.\]$"):
        _derivatives(lambda p: f(p[..., 0]), [-2.0])


def test_complex_step_is_exact_where_a_difference_is_not():
    # d/dx x^-20 at 1e-3: a central difference of step 1e-4 is off by 102%
    x = np.array([[1e-3], [2.0]])
    value, d1 = complex_step(lambda p: p[..., 0] ** -20, x, (), "f")
    assert np.allclose(value, x[:, 0] ** -20, rtol=1e-15, atol=0.0)
    assert np.allclose(d1[:, 0], -20.0 * x[:, 0] ** -21, rtol=1e-14, atol=0.0)


def test_taylor_evaluates_f_once_on_the_point_and_its_half_circles():
    # rows: x, then x + r w^j v for j = 0..N/2 and the directions v = e_0,
    # e_1, e_0 + e_1, e_0 - e_1 (two axes have no triple); the other half
    # circle is the conjugate
    calls = []

    def f(p):
        calls.append(p.copy())
        return np.sin(p[..., 0]) * p[..., 1] ** 2

    x = np.array([[0.4, -1.3], [2.0, 0.5]])
    value, d1, d2, _ = taylor(f, x, (), "f")
    half = TAYLOR_NODES // 2 + 1
    assert len(calls) == 1 and calls[0].shape == (2, 1 + half * 4, 2)
    nodes = TAYLOR_RADIUS * np.exp(2j * np.pi * np.arange(half) / TAYLOR_NODES)
    dirs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
    rows = np.concatenate([np.zeros((1, 2)), (nodes[:, None, None] * dirs).reshape(-1, 2)])
    assert np.array_equal(calls[0], x[:, None, :] + rows)
    s, c, y = np.sin(x[:, 0]), np.cos(x[:, 0]), x[:, 1]
    assert np.array_equal(value, s * y**2)
    assert np.allclose(d1, np.stack([c * y**2, 2.0 * s * y], axis=-1), rtol=1e-14, atol=0.0)
    hess = np.stack([np.stack([-s * y**2, 2 * c * y], -1), np.stack([2 * c * y, 2 * s], -1)], -2)
    assert np.array_equal(d2, np.swapaxes(d2, -1, -2))
    assert np.max(np.abs(d2 - hess)) < 1e-13


def test_taylor_of_one_point_evaluates_one_row_per_node_and_direction():
    # n = 3: 3 axes, 3 pairs twice and the one triple
    calls = []
    x = np.array([0.4, -1.3, 2.5])
    taylor(lambda p: calls.append(p.shape) or _array_f(p), x, (3, 2), "f")
    assert calls == [(1 + (TAYLOR_NODES // 2 + 1) * 10, 3)]


def test_taylor_has_one_order():
    # the value and the first three derivatives, always: no order to choose
    assert list(inspect.signature(taylor).parameters) == ["f", "x", "value_shape", "what"]


def test_stacked_taylor_equals_the_one_point_rule_exactly():
    rng = np.random.default_rng(5)
    x = np.array([0.4, -1.3, 2.5])
    alone = taylor(_array_f, x, (3, 2), "f")
    for stack in (np.array([x, x]), np.array([[x, x + 0.3], rng.uniform(-1, 1, (2, 3))])):
        together = taylor(_array_f, stack, (3, 2), "f")
        for idx in np.ndindex(stack.shape[:-1]):
            single = taylor(_array_f, stack[idx], (3, 2), "f")
            assert all(np.array_equal(t[idx], a) for t, a in zip(together, single))
            if np.array_equal(stack[idx], x):
                assert all(np.array_equal(t[idx], a) for t, a in zip(together, alone))


def test_a_non_finite_value_on_a_circle_names_its_row():
    x = np.array([[0.4, -1.3], [0.1, 0.2]])
    row = 1 + 3 * 4 + 2  # node j = 3 of the direction e_0 + e_1

    def f(p):
        out = np.sin(p[..., 0]) * p[..., 1]
        out[1, row] = np.nan
        return out

    with pytest.raises(NumericalDomainError, match=rf"f has non-finite entries at .* \(stack index \(1, {row}\)\)"):
        taylor(f, x, (), "f")


def test_taylor_of_a_value_not_real_at_the_real_point_raises():
    # sqrt(-1 - x^2) is finite and analytic near x, but not real there
    x = np.array([[0.5, 0.2], [0.4, -1.3]])
    sign = np.array([1.0, -1.0])[:, None]
    with pytest.raises(NumericalDomainError, match=r"f is not real at the real point \[ 0\.4 -1\.3\] \(stack index \(1,\)\)"):
        taylor(lambda p: np.sqrt(sign * (1.0 + p[..., 0] ** 2)), x, (), "f")


def test_a_taylor_stack_whose_f_ignores_the_stack_axis_is_rejected():
    x = np.array([[0.4, -1.3], [0.4, -1.3]])
    with pytest.raises(InvalidInputError, match=r"f returned shape \(\d+,\), expected \(2, \d+\)"):
        taylor(lambda p: np.sin(p[0, :, 0]), x, (), "f")


def _as_float(p):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", np.exceptions.ComplexWarning)
        return np.asarray(p, dtype=float)


@pytest.mark.parametrize("cast", [np.real, np.abs, _as_float], ids=["real", "abs", "asarray-float"])
def test_a_function_that_drops_the_imaginary_part_is_rejected(cast):
    # its derivative would read 0; the shape is checked first
    x = np.array([0.4, 0.9])
    rules = [lambda f: complex_step(f, x, (), "f"), lambda f: taylor(f, x, (), "f")]
    for rule in rules:
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


def _array_f4(x):
    # 3x2 array of smooth, distinct functions of a 4-vector, per stack point
    x0, x1, x2, x3 = np.moveaxis(x, -1, 0)
    rows = [
        [np.sin(x0) * x1 * x3, np.exp(0.3 * x2 - x3)],
        [x0 * x1 * x2, np.cos(x1 + 2.0 * x2) * x3],
        [x2**3, np.full_like(x0, 1.5)],
    ]
    return np.moveaxis(np.array(rows), (0, 1), (-2, -1))


def test_array_taylor_matches_scalar_calls_bitwise():
    x = np.array([0.4, -1.3, 0.7, 0.2])
    out = taylor(_array_f4, x, (3, 2), "f")
    assert [d.shape for d in out] == [(3, 2)] + [(4,) * k + (3, 2) for k in range(1, 4)]
    for idx in np.ndindex(3, 2):
        scalar = taylor(lambda p: _array_f4(p)[(...,) + idx], x, (), "f")
        assert all(np.array_equal(d[(...,) + idx], s) for d, s in zip(out, scalar))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_array_taylor_raises_on_one_non_finite_entry(bad):
    x = np.array([0.4, -1.3, 0.7])
    for idx in np.ndindex(3, 2):
        # the real point, the first node of e_0, and the last row
        for row in (0, 1, 70):

            def f(p, idx=idx, row=row):
                out = _array_f(p)
                out[(row,) + idx] = bad
                return out

            with pytest.raises(NumericalDomainError, match=f"stack index \\({row},\\)"):
                _derivatives(f, x, (3, 2))
