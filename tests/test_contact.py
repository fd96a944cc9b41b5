
import numpy as np
import pytest

from warpcheck.contact import (
    ContactFrame,
    CurvatureOracle,
    check_km_condition,
    curvature_kmu_space_form,
    curvature_non_sasakian,
    curvature_real_space_form,
    _kmu_tensor,
    make_ambient,
    make_kmu_frame,
    phi_sectional_constant,
)
from warpcheck.errors import (
    InvalidFrameError,
    InvalidInputError,
    InvalidParameterError,
    SingularParameterError,
)

KAPPA_GRID = [-1.0, 0.0, 0.5, 0.99]
MU_GRID = [-2.0, 0.0, 1.0, 3.0]


def unit_perp_xi(rng, frame):
    X = rng.normal(size=frame.dim)
    X -= (frame.eta @ X) * frame.xi
    return X / np.linalg.norm(X)


def phi_sectional(oracle, frame, X):
    """K(X ^ phi X) = R(X, phi X, phi X, X) of a unit X orthogonal to xi."""
    pX = frame.phi @ X
    return oracle.value(X, pX, pX, X)


def test_sasakian_degeneracy():
    frame = make_kmu_frame(1, 1.0, 0.3)
    assert frame.dim == 3
    assert np.max(np.abs(frame.h)) == 0.0


def test_h_eigenvalues():
    frame = make_kmu_frame(1, 0.0, 0.0)
    evals = np.sort(np.linalg.eigvalsh(frame.h))
    assert np.allclose(evals, [-1.0, 0.0, 1.0])


def test_h_squared_identity():
    frame = make_kmu_frame(2, 0.75, 0.5)
    assert abs(np.max(np.linalg.eigvalsh(frame.h)) - 0.5) < 1e-15
    res = frame.h @ frame.h + 0.25 * (frame.phi @ frame.phi)
    assert np.max(np.abs(res)) < 1e-12


def test_kappa_above_one_rejected():
    with pytest.raises(InvalidParameterError):
        make_kmu_frame(2, 1.5, 0.0)


def test_frame_validation_rejects_bad_h():
    frame = make_kmu_frame(2, 0.5, 0.0)
    h_bad = frame.h.copy()
    h_bad[1, 2] = 0.3  # breaks h phi + phi h = 0
    with pytest.raises(InvalidFrameError):
        ContactFrame(2, frame.phi, frame.xi, frame.eta, h_bad, 0.5, 0.0)


def test_kmu_phi_sectional_equals_c():
    rng = np.random.default_rng(0)
    frame = make_kmu_frame(2, 0.5, -1.0, c=2.3)
    oracle = curvature_kmu_space_form(frame)
    vals = [phi_sectional(oracle, frame, unit_perp_xi(rng, frame)) for _ in range(30)]
    assert max(vals) - min(vals) < 1e-10
    assert abs(vals[0] - 2.3) < 1e-10


def test_kmu_antisymmetry_degenerate_slots():
    frame = make_kmu_frame(2, 0.3, 0.4, c=1.0)
    oracle = curvature_kmu_space_form(frame)
    rng = np.random.default_rng(1)
    X, Z, W = rng.normal(size=(3, frame.dim))
    assert abs(oracle.value(X, X, Z, W)) < 1e-12


def test_kmu_reduces_to_sasakian():
    # at kappa = 1 (h = 0) mu drops out: the tensor is the Sasakian space form's
    frame = make_kmu_frame(2, 1.0, 0.7, c=-2.0)
    o_kmu = curvature_kmu_space_form(frame)
    o_sas = make_ambient("sasakian-space-form", m=2, c=-2.0).oracle
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(300):
        X, Y, Z, W = rng.normal(size=(4, frame.dim))
        worst = max(worst, abs(o_kmu.value(X, Y, Z, W) - o_sas.value(X, Y, Z, W)))
    assert worst < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_the_sasakian_space_form_is_the_kmu_tensor_of_its_h_zero_frame(m):
    for c in (-4.0, -3.0, -2.0, 0.0, 1.0, 1.7, 3.0):
        amb = make_ambient("sasakian-space-form", m=m, c=c)
        frame = amb.frame
        expected = _kmu_tensor(frame.phi, frame.eta, np.zeros_like(frame.h), 1.0, 0.0, c)
        assert amb.kind == "sasakian-space-form" and amb.params == {"m": m, "c": c}
        assert amb.oracle.tensor.tobytes() == expected.tobytes()


def test_the_kmu_space_form_takes_c_from_its_frame():
    with pytest.raises(InvalidInputError, match="phi-sectional curvature c required"):
        curvature_kmu_space_form(make_kmu_frame(2, 1.0, 0.0))


def test_sasakian_phi_sections():
    rng = np.random.default_rng(3)
    frame = make_kmu_frame(2, 1.0, 0.0, c=1.0)
    oracle = curvature_kmu_space_form(frame)
    for _ in range(10):
        X = unit_perp_xi(rng, frame)
        assert abs(phi_sectional(oracle, frame, X) - 1.0) < 1e-12


def test_sasakian_c_minus_3_flat_sections():
    frame = make_kmu_frame(2, 1.0, 0.0, c=-3.0)
    oracle = curvature_kmu_space_form(frame)
    u1, u2 = np.eye(5)[1], np.eye(5)[2]
    assert abs(oracle.value(u1, u2, u2, u1)) < 1e-14


def test_sasakian_xi_sections_unit():
    rng = np.random.default_rng(4)
    frame = make_kmu_frame(3, 1.0, 0.0, c=-5.0)
    oracle = curvature_kmu_space_form(frame)
    for _ in range(10):
        X = unit_perp_xi(rng, frame)
        assert abs(oracle.value(X, frame.xi, frame.xi, X) - 1.0) < 1e-12


def test_non_sasakian_dplus_pair_value():
    frame = make_kmu_frame(2, 0.19, 0.4)
    oracle = curvature_non_sasakian(frame)
    u1, u2 = np.eye(5)[1], np.eye(5)[2]
    expected = 2.0 - 0.4 + 2.0 * np.sqrt(1.0 - 0.19)
    assert abs(oracle.value(u1, u2, u2, u1) - expected) < 1e-12


def test_non_sasakian_constant_phi_sectional():
    rng = np.random.default_rng(5)
    kappa = 0.3
    frame = make_kmu_frame(2, kappa, kappa + 1.0)
    oracle = curvature_non_sasakian(frame)
    vals = [phi_sectional(oracle, frame, unit_perp_xi(rng, frame)) for _ in range(30)]
    assert max(vals) - min(vals) < 1e-10
    assert abs(vals[0] - (-2.0 * kappa - 1.0)) < 1e-10


def test_non_sasakian_pair_symmetry():
    frame = make_kmu_frame(2, 0.3, 1.2)
    oracle = curvature_non_sasakian(frame)
    rng = np.random.default_rng(6)
    for _ in range(50):
        X, Y, Z, W = rng.normal(size=(4, frame.dim))
        assert abs(oracle.value(X, Y, Z, W) - oracle.value(Z, W, X, Y)) < 1e-12


def test_non_sasakian_rejects_near_sasakian():
    frame = make_kmu_frame(2, 1.0, 0.5)
    with pytest.raises(SingularParameterError):
        curvature_non_sasakian(frame)


def test_km_condition_grid():
    for kappa in KAPPA_GRID:
        for mu in MU_GRID:
            frame = make_kmu_frame(2, kappa, mu, c=0.7)
            assert check_km_condition(curvature_kmu_space_form(frame), frame) < 1e-10
            if kappa < 1.0 - 1e-8:
                assert check_km_condition(curvature_non_sasakian(frame), frame) < 1e-10


def test_km_condition_keeps_a_nan_residual():
    frame = make_kmu_frame(2, 0.5, 0.3, c=0.7)
    oracle = curvature_kmu_space_form(frame)
    assert check_km_condition(oracle, frame) < 1e-10
    # one NaN entry in the xi slot among finite ones: a NaN-dropping fold would pass it
    oracle.tensor[1, 3, 0, 2] = np.nan
    assert np.isnan(check_km_condition(oracle, frame))


def test_km_condition_sasakian_form():
    # with kappa = 1, h = 0 the condition is R(X,Y)xi = eta(Y)X - eta(X)Y
    frame = make_kmu_frame(2, 1.0, 0.9, c=2.0)
    oracle = curvature_kmu_space_form(frame)
    assert check_km_condition(oracle, frame) < 1e-10


def _ambient_cases():
    """(ambient, its phi-sectional curvature or None when it is not constant)
    for every contact kind at m = 1..4."""
    cases = []
    for m in (1, 2, 3, 4):
        generic = make_ambient("non-sasakian-kmu", m=m, kappa=-0.4, mu=0.7)
        bundle = make_ambient("tangent-sphere-bundle", m=m, c=0.5)
        for name, amb, c in [
            ("sasakian", make_ambient("sasakian-space-form", m=m, c=-1.7), -1.7),
            ("kmu-space-form", make_ambient("kmu-space-form", m=m, kappa=0.35, mu=-1.2, c=2.4), 2.4),
            ("non-sasakian-mu=kappa+1", make_ambient("non-sasakian-kmu", m=m, kappa=0.2, mu=1.2), -1.4),
            # at m = 1 every X ^ phi X is the one plane xi-perp, so K is constant
            ("non-sasakian", generic, phi_sectional(generic.oracle, generic.frame, np.eye(3)[1]) if m == 1 else None),
            ("tangent-sphere-bundle", bundle, phi_sectional(bundle.oracle, bundle.frame, np.eye(3)[1]) if m == 1 else None),
        ]:
            cases.append(pytest.param(amb, c, id=f"{name}-m{m}"))
    return cases


@pytest.mark.parametrize("amb,c", _ambient_cases())
def test_every_contact_kind_holds_km_and_phi_exactly(amb, c):
    assert check_km_condition(amb.oracle, amb.frame) < 1e-14
    value, deviation = phi_sectional_constant(amb.oracle, amb.frame)
    # the pointwise reference at unit vectors orthogonal to xi
    X = np.random.default_rng(amb.dim).normal(size=(40, amb.dim))
    X -= (X @ amb.frame.eta)[:, None] * amb.frame.xi
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    pointwise = np.array([phi_sectional(amb.oracle, amb.frame, x) for x in X])
    if c is None:
        assert deviation > 1e-3
        assert np.ptp(pointwise) > 1e-3
    else:
        assert deviation < 1e-14
        assert abs(value - c) < 1e-12
        assert np.max(np.abs(pointwise - value)) < 1e-13


def _algebraic_perturbation(dim: int, eps: float) -> np.ndarray:
    """eps S(Y,Z) S(X,W) - eps S(X,Z) S(Y,W) for a fixed symmetric S: a tensor
    with every curvature symmetry and the first Bianchi identity."""
    S = np.random.default_rng(99).normal(size=(dim, dim))
    S = S + S.T
    T = S[None, :, :, None] * S[:, None, None, :]
    return eps * (T - T.transpose(1, 0, 2, 3))


def test_a_perturbation_with_the_symmetries_fails_km_and_phi():
    amb = make_ambient("kmu-space-form", m=2, kappa=0.35, mu=-1.2, c=2.4)
    perturbed = CurvatureOracle("perturbed", amb.oracle.tensor + _algebraic_perturbation(amb.dim, 1e-6))
    R = perturbed.tensor
    assert np.max(np.abs(R + R.transpose(1, 0, 2, 3))) < 1e-15
    assert np.max(np.abs(R - R.transpose(2, 3, 0, 1))) < 1e-15
    assert np.max(np.abs(R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3))) < 1e-14
    assert check_km_condition(perturbed, amb.frame) > 1e-7
    assert phi_sectional_constant(perturbed, amb.frame)[1] > 1e-7


def test_phi_sectional_constant_keeps_a_nan():
    amb = make_ambient("sasakian-space-form", m=2, c=0.5)
    amb.oracle.tensor[1, 3, 3, 1] = np.nan
    value, deviation = phi_sectional_constant(amb.oracle, amb.frame)
    assert np.isnan(value) and np.isnan(deviation)


def _symmetry_bianchi_worst(oracle, dim, rng, samples):
    worst = 0.0
    for _ in range(samples):
        X, Y, Z, W = rng.normal(size=(4, dim))
        v = oracle.value(X, Y, Z, W)
        worst = max(
            worst,
            abs(v + oracle.value(Y, X, Z, W)),
            abs(v + oracle.value(X, Y, W, Z)),
            abs(v - oracle.value(Z, W, X, Y)),
            abs(v + oracle.value(Y, Z, X, W) + oracle.value(Z, X, Y, W)),
        )
    return worst


def test_oracle_symmetries_and_bianchi():
    rng = np.random.default_rng(9)
    frames = [
        (curvature_kmu_space_form(make_kmu_frame(2, 0.5, -1.0, c=1.3)), 5),
        (curvature_kmu_space_form(make_kmu_frame(2, 1.0, 0.0, c=-3.0)), 5),
        (curvature_non_sasakian(make_kmu_frame(2, 0.2, 0.8)), 5),
        (curvature_real_space_form(4, -1.0), 4),
    ]
    for oracle, dim in frames:
        assert _symmetry_bianchi_worst(oracle, dim, rng, 100) < 1e-10


def test_kij_matches_scalar_evaluation():
    rng = np.random.default_rng(10)
    frame = make_kmu_frame(3, 0.4, -0.6, c=0.9)
    for oracle in (
        curvature_kmu_space_form(frame),
        curvature_non_sasakian(frame),
        curvature_real_space_form(frame.dim, 0.5),
    ):
        q, _ = np.linalg.qr(rng.normal(size=(frame.dim, frame.dim)))
        kij = oracle.kij(q)
        for i in range(frame.dim):
            for j in range(i + 1, frame.dim):
                direct = oracle.value(q[:, i], q[:, j], q[:, j], q[:, i])
                assert abs(kij[i, j] - direct) < 1e-12


def test_oracles_multilinear():
    rng = np.random.default_rng(13)
    frame = make_kmu_frame(2, 0.4, -0.3, c=1.1)
    oracles = [
        curvature_kmu_space_form(frame),
        curvature_non_sasakian(frame),
        curvature_real_space_form(frame.dim, -2.0),
    ]
    for orc in oracles:
        X1, X2, Y, Z, W = rng.normal(size=(5, frame.dim))
        a, b = rng.normal(size=2)
        combined = orc.value(a * X1 + b * X2, Y, Z, W)
        split = a * orc.value(X1, Y, Z, W) + b * orc.value(X2, Y, Z, W)
        assert abs(combined - split) < 1e-11


def test_models_agree_at_constant_phi_sectional():
    # with mu = kappa + 1 the (kappa, mu) tensor has constant phi-sectional
    # curvature -2 kappa - 1 and must equal the space-form tensor slotwise
    rng = np.random.default_rng(12)
    for kappa in (-0.5, 0.0, 0.3, 0.8):
        frame = make_kmu_frame(2, kappa, kappa + 1.0, c=-2.0 * kappa - 1.0)
        o_n = curvature_non_sasakian(frame)
        o_k = curvature_kmu_space_form(frame)
        for _ in range(100):
            X, Y, Z, W = rng.normal(size=(4, frame.dim))
            assert abs(o_n.value(X, Y, Z, W) - o_k.value(X, Y, Z, W)) < 1e-12


def test_both_models_have_the_phi_sectional_curvature_c_at_mu_kappa_plus_one():
    rng = np.random.default_rng(15)
    frame = make_kmu_frame(3, 0.3, 1.3, c=-1.6)
    for oracle in (curvature_non_sasakian(frame), curvature_kmu_space_form(frame)):
        values = [phi_sectional(oracle, frame, unit_perp_xi(rng, frame)) for _ in range(100)]
        assert np.max(np.abs(np.array(values) + 1.6)) < 1e-12


def test_tangent_sphere_bundle_parameters():
    amb = make_ambient("tangent-sphere-bundle", m=3, c=0.5)
    assert abs(amb.params["kappa"] - 0.75) < 1e-15
    assert abs(amb.params["mu"] + 1.0) < 1e-15
    assert amb.notes  # sign-convention note travels with the ambient
    with pytest.raises(InvalidParameterError):
        make_ambient("tangent-sphere-bundle", m=3, c=1.0)


def test_sasakian_unit_sphere_model():
    # at c = 1 the Sasakian model is the constant-curvature-1 tensor (the
    # round unit sphere with its standard contact structure)
    frame = make_kmu_frame(2, 1.0, 0.0, c=1.0)
    o_s = curvature_kmu_space_form(frame)
    o_r = curvature_real_space_form(frame.dim, 1.0)
    rng = np.random.default_rng(14)
    for _ in range(100):
        X, Y, Z, W = rng.normal(size=(4, frame.dim))
        assert abs(o_s.value(X, Y, Z, W) - o_r.value(X, Y, Z, W)) < 1e-12


def test_real_space_form_constant_curvature():
    oracle = curvature_real_space_form(4, -1.0)
    rng = np.random.default_rng(11)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(4, 2)))
        assert abs(oracle.kij(q)[0, 1] + 1.0) < 1e-12
