"""One-pass normal-frame completion against the per-candidate routine it
replaced, plus its error paths, and the closed-form normal frames of
random_stack, which never call it."""

import numpy as np
import pytest

from warpcheck.contact import make_ambient, make_kmu_frame
from warpcheck.errors import (
    DegenerateInputError,
    ImmersionDegeneracyError,
    NumericalDomainError,
)
from warpcheck import immersion
from warpcheck.immersion import complete_normal_frame, dplus_frame, random_stack
from warpcheck.numeric import gram_schmidt

PARITY = 1e-12


def _reference_completion(tangent):
    """The previous routine, frozen: modified Gram-Schmidt of the whole frame
    again for every standard-basis candidate, skipping dependent ones."""
    d, n = tangent.shape
    frame = list(tangent.T)
    for a in range(d):
        if len(frame) == d:
            break
        cand = np.zeros(d)
        cand[a] = 1.0
        try:
            frame = gram_schmidt(frame + [cand], tol=1e-8)
        except DegenerateInputError:
            continue
    if len(frame) != d:
        raise ImmersionDegeneracyError("failed to complete the normal frame")
    normal = np.column_stack(frame[n:])
    for r in range(normal.shape[1]):
        k = int(np.argmax(np.abs(normal[:, r])))
        if normal[k, r] < 0.0:
            normal[:, r] = -normal[:, r]
    return normal


def _assert_parity(tangent):
    got = complete_normal_frame(tangent)
    want = _reference_completion(tangent)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= PARITY


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_parity_on_c_totally_real_tangents(m):
    rng = np.random.default_rng(100 + m)
    amb = make_ambient("non-sasakian-kmu", m=m, kappa=0.3, mu=0.5)
    for n in range(1, m + 1):
        for tangent in random_stack(rng, amb, 1, n - 1, 10, frame_kind="c-totally-real").tangent:
            _assert_parity(tangent)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_parity_on_dplus_tangents_skips_the_dependent_candidates(m):
    frame = make_kmu_frame(m, kappa=0.3, mu=0.5)
    d = frame.dim
    for n in range(1, m + 1):
        tangent = dplus_frame(frame, n)
        _assert_parity(tangent)
        # e_1..e_n span the tangent, so the normal frame is e_0, e_{n+1}, ...
        expected = np.eye(d)[:, [0] + list(range(n + 1, d))]
        assert np.array_equal(complete_normal_frame(tangent), expected)


@pytest.mark.parametrize("d", range(2, 14))
def test_parity_on_random_orthonormal_tangents(d):
    rng = np.random.default_rng(d)
    for n in range(1, d):
        for _ in range(5):
            _assert_parity(np.linalg.qr(rng.normal(size=(d, d)))[0][:, :n])


def test_parity_on_independent_non_orthonormal_tangents():
    rng = np.random.default_rng(7)
    for d in range(2, 10):
        for n in range(1, d):
            tangent = rng.normal(size=(d, n))
            tangent[:, 0] *= 3.0
            _assert_parity(tangent)


@pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-7])
def test_reorthogonalization_keeps_nearly_dependent_candidates_orthogonal(eps):
    # e_0 and e_2 lie within eps of the tangent plane, so their remainders
    # are O(eps) and one projection pass would leave O(1e-16 / eps) overlap
    tangent = np.array([[1.0, 0.0], [eps, eps], [0.0, 1.0]])
    tangent = np.linalg.qr(tangent)[0]
    full = np.hstack([tangent, complete_normal_frame(tangent)])
    assert np.max(np.abs(full.T @ full - np.eye(3))) < 1e-14


def test_candidate_with_remainder_below_the_threshold_is_skipped():
    # e_0 is within 1e-10 of the tangent: its remainder (~1e-10, along
    # e_1 + e_2) is skipped, so e_1 and e_2 are accepted on their own
    tangent = np.array([[1.0], [1e-10], [1e-10], [0.0]])
    tangent /= np.linalg.norm(tangent)
    _assert_parity(tangent)
    normal = complete_normal_frame(tangent)
    assert np.max(np.abs(normal - np.eye(4)[:, 1:])) < 1e-9
    assert np.array_equal(normal[:, 2], np.eye(4)[:, 3])


def test_candidate_with_remainder_above_the_threshold_is_accepted():
    # the remainder of e_0 has norm ~1.4e-7 >= 1e-8 and points along e_1 + e_2
    tangent = np.array([[1.0], [1e-7], [1e-7], [0.0]])
    tangent /= np.linalg.norm(tangent)
    normal = complete_normal_frame(tangent)
    along = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
    assert np.max(np.abs(normal[:, 0] - along)) < 1e-6
    full = np.hstack([tangent, normal])
    assert np.max(np.abs(full.T @ full - np.eye(4))) < 1e-14


@pytest.mark.parametrize(
    "tangent",
    [
        np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0], [0.0, 0.0]]),  # parallel columns
        np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),  # zero column
        np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    ],
)
def test_dependent_tangent_raises(tangent):
    with pytest.raises(ImmersionDegeneracyError):
        complete_normal_frame(tangent)


def test_tangent_without_a_normal_direction_raises():
    with pytest.raises(ImmersionDegeneracyError):
        complete_normal_frame(np.eye(3))
    with pytest.raises(ImmersionDegeneracyError):
        complete_normal_frame(np.ones((3, 4)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises(bad):
    tangent = np.zeros((5, 2))
    tangent[1, 0] = tangent[2, 1] = 1.0
    tangent[3, 1] = bad
    with pytest.raises(NumericalDomainError):
        complete_normal_frame(tangent)


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
    assert np.max(np.abs(full.transpose(0, 2, 1) @ full - np.eye(d))) <= PARITY
    assert np.array_equal(N[:, :, 0], np.broadcast_to(frame.xi, (len(stack), d)))
    phi_t = frame.phi @ T
    assert np.max(np.abs(phi_t - N @ (N.transpose(0, 2, 1) @ phi_t))) <= PARITY
    # the normal frame is read only as xi @ normal, and that is the same
    # bytes as for the Gram-Schmidt completion of the same tangents
    assert (frame.xi @ N).tobytes() == (frame.xi @ complete_normal_frame(T)).tobytes()


@pytest.mark.parametrize("frame_kind", ["generic", "c-totally-real", "dplus"])
def test_random_stack_never_completes_a_frame_by_gram_schmidt(monkeypatch, frame_kind):
    def fail(tangent):
        raise AssertionError("complete_normal_frame called")

    monkeypatch.setattr(immersion, "complete_normal_frame", fail)
    amb = make_ambient("kmu-space-form", m=3, kappa=0.5, mu=-1.0, c=1.7)
    for n1, n2 in ((1, 1), (1, 2), (2, 1)):
        stack = random_stack(np.random.default_rng(5), amb, n1, n2, 8, frame_kind=frame_kind)
        assert stack.normal.shape == (8, amb.dim, amb.dim - n1 - n2)
