import warnings

import numpy as np
import pytest

from warpcheck.errors import InvalidInputError, NumericalDomainError
from warpcheck.numeric import (
    FD_STEP,
    Tolerance,
    axis_stencil,
    complex_step,
    jet,
    qr_q,
    qr_q_complete,
)


def test_tolerance_positive():
    with pytest.raises(InvalidInputError):
        Tolerance(algebraic=0.0)


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
    # rows: x, x + h e_k, x - h e_k with h = FD_STEP at every point; each row
    # taken as it is, then stepped by i eps along every coordinate.  The two
    # stencils share no point, so f sees all 10 rows
    calls = []

    def f(p):
        calls.append(p.copy())
        return np.sin(p[..., 0]) * p[..., 1] ** 2

    x = np.array([[0.4, -1.3], [2.0, 0.5]])
    value, d1, d2 = jet(f, x, (), "f")
    assert len(calls) == 1 and calls[0].shape == (10, 3, 2)
    shifts = FD_STEP * np.eye(2)[None]
    rows = np.concatenate([x[:, None], x[:, None] + shifts, x[:, None] - shifts], axis=1).reshape(10, 2)
    seen = calls[0].real[:, 0]
    assert np.array_equal(seen[np.lexsort(seen.T)], rows[np.lexsort(rows.T)])
    assert np.array_equal(calls[0].real, np.broadcast_to(seen[:, None], (10, 3, 2)))
    assert np.array_equal(calls[0].imag, np.broadcast_to(1e-30 * np.eye(3, 2, -1), (10, 3, 2)))
    s, c, y = np.sin(x[:, 0]), np.cos(x[:, 0]), x[:, 1]
    assert np.allclose(value, s * y**2, rtol=1e-15)
    assert np.allclose(d1, np.stack([c * y**2, 2.0 * s * y], axis=-1), rtol=1e-15)
    hess = np.stack([np.stack([-s * y**2, 2 * c * y], -1), np.stack([2 * c * y, 2 * s], -1)], -2)
    assert np.array_equal(d2, np.swapaxes(d2, -1, -2))
    assert np.max(np.abs(d2 - hess)) < 1e-5


def test_the_jet_of_one_point_evaluates_its_whole_stencil():
    # a single point's 2n+1 stencil rows are distinct: one call on all of them
    calls = []
    x = np.array([0.4, -1.3, 2.5])
    jet(lambda p: calls.append(p.shape) or _array_f(p), x, (3, 2), "f")
    assert calls == [(7, 4, 3)]


def test_a_point_held_twice_in_a_stack_gets_its_own_jet():
    calls = []

    def f(p):
        calls.append(p.shape)
        return _array_f(p)

    x = np.array([0.4, -1.3, 2.5])
    alone = jet(f, x, (3, 2), "f")
    for stack in (np.array([x, x]), np.array([[x, x + 0.3], [x, x]])):
        calls.clear()
        twice = jet(f, stack, (3, 2), "f")
        assert calls == [(7 * len(np.unique(stack.reshape(-1, 3), axis=0)), 4, 3)]
        for idx in np.ndindex(stack.shape[:-1]):
            if np.array_equal(stack[idx], x):
                assert all(np.array_equal(t[idx], a) for t, a in zip(twice, alone))


def test_a_non_finite_value_at_a_shared_stencil_point_names_its_first_stencil_index():
    # the stencils of x + h e_0 (row 1) and x + h e_1 (row 2) of the
    # stencil of x both hold x + h e_0 + h e_1: at (1, 2) and at (2, 1)
    x = np.array([0.4, -1.3])
    pts = axis_stencil(x)
    shared = pts[1] + np.array([0.0, FD_STEP])
    assert np.array_equal(axis_stencil(pts)[1, 2], shared) and np.array_equal(axis_stencil(pts)[2, 1], shared)

    def f(p):
        at = (p.real == shared).all(axis=-1)
        return np.where(at, np.nan, np.sin(p[..., 0]) * p[..., 1])

    with pytest.raises(NumericalDomainError, match=r"f has non-finite entries at .* \(stack index \(1, 2, 0\)\)"):
        jet(f, pts, (), "f")


def test_leaving_the_real_domain_at_a_shared_stencil_point_names_its_first_stencil_index():
    # f is validated on the U distinct points of the 5 stencils; only the
    # error calls f again, on the whole (5, 5) stencil, to name the first row
    x = np.array([0.4, -1.3])
    pts = axis_stencil(x)
    shared = pts[1] + np.array([0.0, FD_STEP])
    U = len(np.unique(axis_stencil(pts).reshape(-1, 2), axis=0))
    assert U < 25
    calls = []

    def f(p):
        calls.append(p.shape)
        sign = np.where((p.real == shared).all(axis=-1), -1.0, 1.0)
        return np.sqrt(sign * (1.0 + p[..., 0] ** 2))

    with pytest.raises(NumericalDomainError, match=r"f is not real at the real point .* \(stack index \(1, 2\)\)"):
        jet(f, pts, (), "f")
    assert calls == [(U, 3, 2), (5, 5, 3, 2)]
    calls.clear()
    jet(f, pts + 1.0, (), "f")
    assert len(calls) == 1 and calls[0][1:] == (3, 2)


def test_a_jet_stack_whose_f_ignores_the_stack_axis_is_rejected_on_its_one_call():
    # the shape is checked on the call on the distinct points (U, n+1, n)
    x = np.array([[0.4, -1.3], [0.4, -1.3]])
    with pytest.raises(InvalidInputError, match=r"f returned shape \(3,\), expected \(5, 3\)"):
        jet(lambda p: np.sin(p[0, :, 0]), x, (), "f")


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
