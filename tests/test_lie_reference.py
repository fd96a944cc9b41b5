"""An independent reference for the contact curvature tensors: left-invariant
metrics on Lie groups.

An orthonormal left-invariant frame e_0..e_{d-1} is given by its structure
constants C[i,j,k] = <[e_i, e_j], e_k>.  The Koszul formula gives the
connection, <nabla_{e_i} e_j, e_k> = (C_ijk - C_jki + C_kij) / 2, and
R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z gives
R[i,j,k,l] = <R(e_i, e_j) e_k, e_l>, the convention of contact.py.  No
closed-form model and no finite difference enters.

The algebras carry the contact structure of make_kmu_frame: xi = e_0,
phi = -C[:, :, 0] / 2 (so that d eta(X, Y) = g(X, phi Y)) and
h = (L_xi phi) / 2, each checked against the frame before the tensors are
compared.  Every algebra is guarded by its Jacobi identity.

* Milnor frames in dimension 3, [e_1, e_2] = 2 e_0, [e_2, e_0] = c2 e_1,
  [e_0, e_1] = c3 e_2 with c3 > c2: the non-Sasakian (kappa, mu) model at
  kappa = 1 - (c3 - c2)^2 / 4, mu = 2 - (c2 + c3), and the (kappa, mu)
  space form whose c is the algebra's phi-sectional curvature.
* The Heisenberg algebra of dimension 2m + 1, [e_i, e_{m+i}] = 2 e_0: the
  Sasakian space form with c = -3, at m = 1..4.

Boeckx's algebras, which would give the same reference for m >= 2 on the
non-Sasakian kinds, are not built here.
"""

import numpy as np
import pytest

from warpcheck.contact import (
    CurvatureOracle,
    check_km_condition,
    curvature_kmu_space_form,
    curvature_non_sasakian,
    make_ambient,
    make_kmu_frame,
)

TOL = 1e-12


def _jacobi_residual(C):
    """max |[[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]|."""
    J = np.einsum("ijl,lkm->ijkm", C, C)
    return np.abs(J + J.transpose(1, 2, 0, 3) + J.transpose(2, 0, 1, 3)).max()


def lie_curvature(C):
    """R[i,j,k,l] of the left-invariant metric with orthonormal frame of
    structure constants C, after the Jacobi-identity guard."""
    assert np.array_equal(C, -C.transpose(1, 0, 2)), "the bracket is not skew"
    assert _jacobi_residual(C) <= TOL, "not a Lie algebra"
    G = 0.5 * (C - np.einsum("jki->ijk", C) + np.einsum("kij->ijk", C))  # <nabla_i e_j, e_k>
    return (
        np.einsum("jkl,ilm->ijkm", G, G)
        - np.einsum("ikl,jlm->ijkm", G, G)
        - np.einsum("ijl,lkm->ijkm", C, G)
    )


def _bracket(d, pairs):
    """Structure constants from {(i, j): {k: coefficient}} for [e_i, e_j]."""
    C = np.zeros((d, d, d))
    for (i, j), terms in pairs.items():
        for k, value in terms.items():
            C[i, j, k], C[j, i, k] = value, -value
    return C


def milnor(c2, c3):
    return _bracket(3, {(1, 2): {0: 2.0}, (2, 0): {1: c2}, (0, 1): {2: c3}})


def heisenberg(m):
    return _bracket(2 * m + 1, {(i, m + i): {0: 2.0} for i in range(1, m + 1)})


def _assert_carries_the_frame(C, frame):
    """xi = e_0, phi = -C[:, :, 0] / 2 and h = (L_xi phi) / 2 of the algebra
    are those of the frame."""
    assert np.array_equal(frame.xi, np.eye(frame.dim)[0])
    assert np.abs(-0.5 * C[:, :, 0] - frame.phi).max() <= TOL
    ad_xi = C[0].T  # column j holds [xi, e_j]
    h = 0.5 * (ad_xi @ frame.phi - frame.phi @ ad_xi)  # (L_xi phi) X = [xi, phi X] - phi [xi, X]
    assert np.abs(h - frame.h).max() <= TOL


MILNOR = [(0.0, 1.5), (-1.0, 0.5), (0.3, 2.7), (-2.0, 3.0), (1.0, 1.2), (-3.5, -0.5)]


def _milnor_frame(c2, c3, c=None):
    return make_kmu_frame(1, 1.0 - (c3 - c2) ** 2 / 4.0, 2.0 - (c2 + c3), c=c)


def test_the_jacobi_guard_refuses_a_bracket_that_is_not_a_lie_algebra():
    # [e_0, e_1] = e_2, [e_1, e_2] = e_3 and [e_2, e_3] = e_0: the Jacobi sum on (1, 2, 3) is e_2
    C = _bracket(4, {(0, 1): {2: 1.0}, (1, 2): {3: 1.0}, (2, 3): {0: 1.0}})
    assert _jacobi_residual(C) > 0.5
    with pytest.raises(AssertionError, match="not a Lie algebra"):
        lie_curvature(C)


def test_su2_is_the_unit_sphere():
    # c2 = c3 = 2: SU(2) with the round metric of curvature 1
    R = lie_curvature(milnor(2.0, 2.0))
    eye = np.eye(3)
    expected = np.einsum("jk,il->ijkl", eye, eye) - np.einsum("ik,jl->ijkl", eye, eye)
    assert np.abs(R - expected).max() <= TOL


@pytest.mark.parametrize("c2, c3", MILNOR)
def test_milnor_frames_are_the_non_sasakian_model_at_m_1(c2, c3):
    C = milnor(c2, c3)
    frame = _milnor_frame(c2, c3)
    _assert_carries_the_frame(C, frame)
    R = lie_curvature(C)
    assert check_km_condition(CurvatureOracle("lie", R), frame) <= TOL  # the nullity of R(X, Y) xi
    assert np.abs(R - curvature_non_sasakian(frame).tensor).max() <= TOL
    # the reference tells a wrong mu apart
    other = make_kmu_frame(1, frame.kappa, frame.mu + 0.5)
    assert np.abs(R - curvature_non_sasakian(other).tensor).max() > 0.1


@pytest.mark.parametrize("c2, c3", MILNOR + [(2.0, 2.0), (-1.0, -1.0)])
def test_milnor_frames_are_the_kmu_space_form_at_m_1(c2, c3):
    C = milnor(c2, c3)
    R = lie_curvature(C)
    c = R[1, 2, 2, 1]  # the phi-sectional curvature K(e_1 ^ phi e_1)
    frame = _milnor_frame(c2, c3, c)
    _assert_carries_the_frame(C, frame)
    assert np.abs(R - curvature_kmu_space_form(frame).tensor).max() <= TOL


@pytest.mark.parametrize("c", [-1.0, 0.0, 0.4])
def test_the_tangent_sphere_bundle_at_m_1_is_the_milnor_frame_2c_2(c):
    # kappa = c (2 - c) and mu = -2c are the Milnor kappa and mu of (c2, c3) = (2c, 2)
    ambient = make_ambient("tangent-sphere-bundle", m=1, c=c)
    C = milnor(2.0 * c, 2.0)
    _assert_carries_the_frame(C, ambient.frame)
    assert np.abs(lie_curvature(C) - ambient.oracle.tensor).max() <= TOL


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_the_heisenberg_algebra_is_the_sasakian_space_form_of_c_minus_3(m):
    C = heisenberg(m)
    frame = make_kmu_frame(m, 1.0, 0.0, c=-3.0)
    _assert_carries_the_frame(C, frame)
    assert np.abs(lie_curvature(C) - curvature_kmu_space_form(frame).tensor).max() <= TOL
    ambient = make_ambient("sasakian-space-form", m=m, c=-3.0)
    assert np.abs(lie_curvature(C) - ambient.oracle.tensor).max() <= TOL
