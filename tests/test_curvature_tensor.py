"""The (0,4) tensor models against a frozen copy of the scalar closed-form
expressions they replace, and the contractions built on the tensor."""

import numpy as np
import pytest

from warpcheck.contact import CurvatureOracle, make_ambient
from warpcheck.errors import InvalidInputError, NumericalDomainError
from warpcheck.numeric import frame_tensor

# ---------------------------------------------------------------------------
# reference: the slot-by-slot expressions of each model, kept verbatim
# ---------------------------------------------------------------------------


def ref_real_space_form(c):
    def value(X, Y, Z, W):
        return c * float((Y @ Z) * (X @ W) - (X @ Z) * (Y @ W))

    return value


def ref_kmu_space_form(frame, c):
    phi, h, eta = frame.phi, frame.h, frame.eta
    kappa, mu = frame.kappa, frame.mu
    a1 = (c + 3.0) / 4.0
    a2 = (c - 1.0) / 4.0
    a3 = (c + 3.0 - 4.0 * kappa) / 4.0

    def value(X, Y, Z, W):
        pX, pY, pZ = phi @ X, phi @ Y, phi @ Z
        hX, hY = h @ X, h @ Y
        phX, phY = phi @ hX, phi @ hY
        p2X, p2Y = phi @ pX, phi @ pY
        eX, eY, eZ, eW = eta @ X, eta @ Y, eta @ Z, eta @ W
        t1 = a1 * ((Y @ Z) * (X @ W) - (X @ Z) * (Y @ W))
        t2 = a2 * (2.0 * (X @ pY) * (pZ @ W) + (X @ pZ) * (pY @ W) - (Y @ pZ) * (pX @ W))
        t3 = a3 * (
            eX * eZ * (Y @ W) - eY * eZ * (X @ W) + (X @ Z) * eY * eW - (Y @ Z) * eX * eW
        )
        t4 = 0.5 * (
            (hY @ Z) * (hX @ W) - (hX @ Z) * (hY @ W)
            + (phX @ Z) * (phY @ W) - (phY @ Z) * (phX @ W)
        )
        t5 = (pY @ pZ) * (hX @ W) - (pX @ pZ) * (hY @ W)
        t6 = (hX @ Z) * (p2Y @ W) - (hY @ Z) * (p2X @ W)
        t7 = mu * (
            eY * eZ * (hX @ W) - eX * eZ * (hY @ W) + (hY @ Z) * eX * eW - (hX @ Z) * eY * eW
        )
        return float(t1 + t2 + t3 + t4 + t5 + t6 + t7)

    return value


def ref_sasakian_space_form(frame, c):
    phi, eta = frame.phi, frame.eta
    a1 = (c + 3.0) / 4.0
    a2 = (c - 1.0) / 4.0

    def value(X, Y, Z, W):
        pX, pY, pZ = phi @ X, phi @ Y, phi @ Z
        eX, eY, eZ, eW = eta @ X, eta @ Y, eta @ Z, eta @ W
        t1 = a1 * ((Y @ Z) * (X @ W) - (X @ Z) * (Y @ W))
        t2 = a2 * (
            2.0 * (X @ pY) * (pZ @ W) + (X @ pZ) * (pY @ W) - (Y @ pZ) * (pX @ W)
            + eX * eZ * (Y @ W) - eY * eZ * (X @ W)
            + (X @ Z) * eY * eW - (Y @ Z) * eX * eW
        )
        return float(t1 + t2)

    return value


def ref_non_sasakian(frame):
    phi, h, eta = frame.phi, frame.h, frame.eta
    kappa, mu = frame.kappa, frame.mu
    a = 1.0 - mu / 2.0
    e1 = (1.0 - mu / 2.0) / (1.0 - kappa)
    e2 = (kappa - mu / 2.0) / (1.0 - kappa)
    b1 = kappa - 1.0 + mu / 2.0
    b2 = mu - 1.0

    def value(X, Y, Z, W):
        pX, pY, pZ = phi @ X, phi @ Y, phi @ Z
        hX, hY = h @ X, h @ Y
        phX, phY = phi @ hX, phi @ hY
        eX, eY, eZ, eW = eta @ X, eta @ Y, eta @ Z, eta @ W
        t1 = a * ((Y @ Z) * (X @ W) - (X @ Z) * (Y @ W))
        t2 = -mu / 2.0 * (
            2.0 * (X @ pY) * (pZ @ W) + (X @ pZ) * (pY @ W) - (Y @ pZ) * (pX @ W)
        )
        t3 = (
            (Y @ Z) * (hX @ W) - (X @ Z) * (hY @ W)
            - (Y @ W) * (hX @ Z) + (X @ W) * (hY @ Z)
        )
        t4 = e1 * ((hY @ Z) * (hX @ W) - (hX @ Z) * (hY @ W))
        t5 = e2 * ((phY @ Z) * (phX @ W) - (phX @ Z) * (phY @ W))
        t6 = eX * eW * (b1 * (Y @ Z) + b2 * (hY @ Z))
        t7 = -eX * eZ * (b1 * (Y @ W) + b2 * (hY @ W))
        t8 = eY * eZ * (b1 * (X @ W) + b2 * (hX @ W))
        t9 = -eY * eW * (b1 * (X @ Z) + b2 * (hX @ Z))
        return float(t1 + t2 + t3 + t4 + t5 + t6 + t7 + t8 + t9)

    return value


def _reference(amb):
    p = amb.params
    if amb.kind in ("euclidean", "real-space-form"):
        return ref_real_space_form(p.get("c", 0.0))
    if amb.kind == "sasakian-space-form":
        return ref_sasakian_space_form(amb.frame, p["c"])
    if amb.kind == "kmu-space-form":
        return ref_kmu_space_form(amb.frame, p["c"])
    return ref_non_sasakian(amb.frame)


REAL_FORMS = [("euclidean", {}), ("real-space-form", {"c": -1.3}), ("real-space-form", {"c": 0.6})]
CONTACT_FORMS = [
    ("sasakian-space-form", {"c": -2.0}),
    ("sasakian-space-form", {"c": 3.5}),
    ("kmu-space-form", {"kappa": 0.5, "mu": -1.0, "c": 1.7}),
    ("kmu-space-form", {"kappa": -0.8, "mu": 2.3, "c": -0.4}),
    ("kmu-space-form", {"kappa": 1.0, "mu": 0.9, "c": 0.3}),
    ("non-sasakian-kmu", {"kappa": 0.2, "mu": 0.8}),
    ("non-sasakian-kmu", {"kappa": -1.5, "mu": -2.0}),
    ("tangent-sphere-bundle", {"c": 0.5}),
    ("tangent-sphere-bundle", {"c": -1.2}),
]
CASES = [(k, dict(p, m=m)) for k, p in REAL_FORMS for m in range(1, 8)] + [
    (k, dict(p, m=m)) for k, p in CONTACT_FORMS for m in range(1, 5)
]


def _case_id(case):
    kind, p = case
    return kind + "-" + "-".join(f"{k}{v}" for k, v in sorted(p.items()))


@pytest.fixture(params=CASES, ids=[_case_id(c) for c in CASES])
def ambient(request):
    kind, params = request.param
    return make_ambient(kind, **params)


def test_tensor_matches_reference_expressions(ambient):
    rng = np.random.default_rng(ambient.dim)
    ref = _reference(ambient)
    for _ in range(50):
        X, Y, Z, W = rng.normal(size=(4, ambient.dim))
        expected = ref(X, Y, Z, W)
        got = ambient.oracle.value(X, Y, Z, W)
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def test_kij_matches_value_on_every_pair(ambient):
    rng = np.random.default_rng(ambient.dim + 100)
    d = ambient.dim
    for V in (np.linalg.qr(rng.normal(size=(d, d)))[0], rng.normal(size=(d, max(1, d - 1)))):
        kij = ambient.oracle.kij(V)
        for a in range(V.shape[1]):
            assert kij[a, a] == 0.0
            for b in range(V.shape[1]):
                if a != b:
                    expected = ambient.oracle.value(V[:, a], V[:, b], V[:, b], V[:, a])
                    assert abs(kij[a, b] - expected) <= 1e-12 * max(1.0, abs(expected))


def test_the_frame_tensor_evaluates_the_frame_vectors(ambient):
    rng = np.random.default_rng(ambient.dim + 200)
    d = ambient.dim
    base = ambient.oracle
    for F in (np.linalg.qr(rng.normal(size=(d, d)))[0], rng.normal(size=(d, d + 1))):
        T = frame_tensor(base.tensor, F[None])[0]
        for _ in range(10):
            a, b, c, e = rng.normal(size=(4, F.shape[1]))
            expected = base.value(F @ a, F @ b, F @ c, F @ e)
            assert abs(a @ ((T @ e @ c) @ b) - expected) <= 1e-12 * max(1.0, abs(expected))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_tensor_rejected(bad):
    R = np.zeros((3, 3, 3, 3))
    R[0, 1, 1, 0] = bad
    with pytest.raises(NumericalDomainError):
        CurvatureOracle("test", R)


@pytest.mark.parametrize("shape", [(3, 3, 3), (3, 3, 3, 2), (2,) * 5])
def test_non_square_tensor_rejected(shape):
    with pytest.raises(InvalidInputError):
        CurvatureOracle("test", np.zeros(shape))
