"""The one frame routine, householder_frame: its property test, its error
paths and its agreement with a frozen Gram-Schmidt reference, which
second_fundamental_form and the warped checks' adapted frames follow too;
and the closed-form normal frames of random_stack, which never call it."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpcheck import immersion
from warpcheck.charts import riemann
from warpcheck.contact import make_ambient, make_kmu_frame
from warpcheck.errors import ImmersionDegeneracyError, NumericalDomainError
from warpcheck.immersion import (
    dplus_frame,
    householder_frame,
    random_stack,
    second_fundamental_form,
    sphere_in_euclidean,
)
from warpcheck.inequality import chart_inequality
from warpcheck.numeric import taylor
from warpcheck.warped import _adapted_frame, build_metric, chart_catalog, named_chart

PARITY = 1e-13


def _gram_schmidt(vectors, inner=lambda u, v: float(u @ v), tol=1e-8):
    """Modified Gram-Schmidt, frozen from the routine the package used before
    Householder QR: ValueError on a pivot norm below tol."""
    out = []
    for v in vectors:
        w = np.array(v, dtype=float)
        for u in out:
            w = w - inner(u, w) * u
        norm = np.sqrt(max(inner(w, w), 0.0))
        if norm < tol:
            raise ValueError("dependent")
        out.append(w / norm)
    return out


def _reference_frame(J):
    """Gram-Schmidt frame of the columns of J (d, n) with its coordinate
    coefficients (tracked through an augmented tail the inner product
    ignores), and the normal frame completed by the standard basis, skipping
    dependent candidates, each column's largest-magnitude entry positive."""
    d, n = J.shape
    augmented = [np.concatenate([J[:, a], np.eye(n)[a]]) for a in range(n)]
    ortho = _gram_schmidt(augmented, inner=lambda u, v: float(u[:d] @ v[:d]))
    tangent, coeff = np.column_stack([w[:d] for w in ortho]), np.column_stack([w[d:] for w in ortho])
    frame = list(tangent.T)
    for a in range(d):
        if len(frame) == d:
            break
        try:
            frame = _gram_schmidt(frame + [np.eye(d)[a]])
        except ValueError:
            continue
    normal = np.column_stack(frame[n:])
    peak = normal[np.abs(normal).argmax(axis=0), np.arange(d - n)]
    return tangent, coeff, normal * np.where(peak < 0.0, -1.0, 1.0)


def _assert_matches_reference(J, tol=1e-12):
    """Tangent and coefficients agree with the reference; the normal frames
    span the same space, and are the same frame for a hypersurface.  The
    reference loses digits where a standard-basis candidate lies near the
    tangent span, hence the looser default."""
    tangent, r, normal = householder_frame(J)
    ref_tangent, ref_coeff, ref_normal = _reference_frame(J)
    assert np.max(np.abs(tangent - ref_tangent)) <= tol
    assert np.max(np.abs(np.linalg.inv(r) - ref_coeff)) <= tol * max(1.0, np.abs(ref_coeff).max())
    assert np.max(np.abs(normal @ normal.T - ref_normal @ ref_normal.T)) <= tol
    if normal.shape[1] == 1:
        assert np.max(np.abs(normal - ref_normal)) <= tol


# --- the property test ------------------------------------------------------


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 9), st.data())
def test_householder_frame_is_orthonormal_and_factors_the_jacobian_at_any_condition(d, data):
    n = data.draw(st.integers(1, d - 1))
    log_cond = data.draw(st.floats(0.0, 12.0))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    # singular values from 1e-6 * cond down to 1e-6, so every pivot clears 1e-8
    U = np.linalg.qr(rng.normal(size=(d, n)))[0]
    V = np.linalg.qr(rng.normal(size=(n, n)))[0]
    J = (U * np.logspace(log_cond - 6.0, -6.0, n)) @ V.T
    tangent, r, normal = householder_frame(J)
    full = np.hstack([tangent, normal])
    assert np.max(np.abs(full.T @ full - np.eye(d))) <= 1e-14
    assert np.array_equal(r, np.triu(r)) and (np.diagonal(r) > 0.0).all()
    peak = normal[np.abs(normal).argmax(axis=0), np.arange(d - n)]
    assert (peak > 0.0).all()
    assert np.max(np.abs(tangent @ r - J)) <= 8 * np.finfo(float).eps * np.abs(J).max() * d


# --- agreement with the Gram-Schmidt reference -------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_matches_the_reference_on_c_totally_real_tangents(m):
    rng = np.random.default_rng(100 + m)
    amb = make_ambient("non-sasakian-kmu", m=m, kappa=0.3, mu=0.5)
    for n in range(1, m + 1):
        for tangent in random_stack(rng, amb, 1, n - 1, 10, frame_kind="c-totally-real").tangent:
            _assert_matches_reference(tangent)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_dplus_tangents_give_the_closed_form_normal_frame(m):
    frame = make_kmu_frame(m, kappa=0.3, mu=0.5)
    d = frame.dim
    for n in range(1, m + 1):
        tangent = dplus_frame(frame, n)
        _assert_matches_reference(tangent)
        # e_1..e_n span the tangent, so the normal frame is e_0, e_{n+1}, ...
        expected = np.eye(d)[:, [0] + list(range(n + 1, d))]
        assert np.array_equal(householder_frame(tangent)[2], expected)
        assert np.array_equal(householder_frame(tangent)[2], immersion._dplus_normal(frame, n))


@pytest.mark.parametrize("d", range(2, 14))
def test_matches_the_reference_on_random_orthonormal_tangents(d):
    rng = np.random.default_rng(d)
    for n in range(1, d):
        for _ in range(5):
            _assert_matches_reference(np.linalg.qr(rng.normal(size=(d, d)))[0][:, :n])


def test_matches_the_reference_on_independent_non_orthonormal_tangents():
    rng = np.random.default_rng(7)
    for d in range(2, 10):
        for n in range(1, d):
            tangent = rng.normal(size=(d, n))
            tangent[:, 0] *= 3.0
            _assert_matches_reference(tangent)


@pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-7, 1e-10])
def test_coordinate_directions_near_the_tangent_leave_the_frame_orthonormal(eps):
    # e_0 and e_2 lie within eps of the tangent plane
    tangent = np.linalg.qr(np.array([[1.0, 0.0], [eps, eps], [0.0, 1.0]]))[0]
    tangent, _, normal = householder_frame(tangent)
    full = np.hstack([tangent, normal])
    assert np.max(np.abs(full.T @ full - np.eye(3))) < 1e-15


@pytest.mark.parametrize("n", range(2, 9))
def test_second_fundamental_form_matches_the_reference_on_spheres(n):
    im = sphere_in_euclidean(n)
    rng = np.random.default_rng(n)
    low, high = [-1.2] + [0.3] * (n - 1), [1.2] + [2.8] * (n - 1)
    points = [im.default_point] + [rng.uniform(low, high) for _ in range(4)]
    for p in points:
        data = second_fundamental_form(im, p)
        _, jt, S, _ = taylor(im.map, p, (n + 1,), "map")
        tangent, coeff, normal = _reference_frame(jt.T)
        sigma = np.einsum("ai,bj,rab->rij", coeff, coeff, np.einsum("abk,kr->rab", S, normal))
        sigma = 0.5 * (sigma + sigma.transpose(0, 2, 1))
        extras = data.extras
        assert np.max(np.abs(extras["tangent_ambient"] - tangent)) <= PARITY
        assert np.max(np.abs(extras["frame_coefficients"] - coeff)) <= PARITY
        assert np.max(np.abs(extras["normal_ambient"] - normal)) <= PARITY
        assert np.max(np.abs(data.sigma[0] - sigma)) <= PARITY
        reference = chart_inequality(im, p, replace(data, sigma=sigma[None]))
        assert abs(chart_inequality(im, p, data).gap - reference.gap) <= PARITY


@pytest.mark.parametrize("key", sorted(chart_catalog()))
def test_adapted_frame_matches_the_reference_on_the_warped_catalog(key):
    wp = named_chart(key)
    g = riemann(build_metric(wp), np.stack(wp.sample_points)).g
    frame1, frame2 = _adapted_frame(wp, g)
    for i, gx in enumerate(g):
        inner = lambda u, v: float(u @ gx @ v)
        basis = list(np.eye(wp.dim))
        for got, block in ((frame1, basis[: wp.n1]), (frame2, basis[wp.n1 :])):
            want = np.stack(_gram_schmidt(block, inner, tol=1e-10))
            assert np.max(np.abs(got[:, i] - want)) <= 1e-14


# --- error paths ---------------------------------------------------------------


@pytest.mark.parametrize(
    "tangent",
    [
        np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0], [0.0, 0.0]]),  # parallel columns
        np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),  # zero column
        np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    ],
)
def test_dependent_tangent_raises(tangent):
    with pytest.raises(ImmersionDegeneracyError, match="depends on the previous ones"):
        householder_frame(tangent)


def test_tangent_without_a_normal_direction_raises():
    with pytest.raises(ImmersionDegeneracyError):
        householder_frame(np.eye(3))
    with pytest.raises(ImmersionDegeneracyError):
        householder_frame(np.ones((3, 4)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises(bad):
    tangent = np.zeros((5, 2))
    tangent[1, 0] = tangent[2, 1] = 1.0
    tangent[3, 1] = bad
    with pytest.raises(NumericalDomainError):
        householder_frame(tangent)


# --- closed-form normal frames of random_stack ----------------------------


def _c_totally_real_cases():
    for m in range(1, 6):
        for n in range(1, m + 1):
            for n1 in range(1, n + 1):
                yield m, n1, n - n1


@pytest.mark.parametrize("m,n1,n2", list(_c_totally_real_cases()))
def test_closed_form_c_totally_real_normal_frame(m, n1, n2):
    amb = make_ambient("non-sasakian-kmu", m=m, kappa=0.3, mu=0.5)
    frame, d = amb.frame, amb.dim
    stack = random_stack(np.random.default_rng(10 * m + n1), amb, n1, n2, 20, frame_kind="c-totally-real")
    T, N = stack.tangent, stack.normal
    full = np.concatenate([T, N], axis=2)
    assert np.max(np.abs(full.transpose(0, 2, 1) @ full - np.eye(d))) <= 1e-12
    assert np.array_equal(N[:, :, 0], np.broadcast_to(frame.xi, (len(stack), d)))
    phi_t = frame.phi @ T
    assert np.max(np.abs(phi_t - N @ (N.transpose(0, 2, 1) @ phi_t))) <= 1e-12


@pytest.mark.parametrize("frame_kind", ["generic", "c-totally-real", "dplus"])
def test_random_stack_never_completes_a_frame(monkeypatch, frame_kind):
    def fail(tangent):
        raise AssertionError("householder_frame called")

    monkeypatch.setattr(immersion, "householder_frame", fail)
    amb = make_ambient("kmu-space-form", m=3, kappa=0.5, mu=-1.0, c=1.7)
    for n1, n2 in ((1, 1), (1, 2), (2, 1)):
        stack = random_stack(np.random.default_rng(5), amb, n1, n2, 8, frame_kind=frame_kind)
        assert stack.normal.shape == (8, amb.dim, amb.dim - n1 - n2)
