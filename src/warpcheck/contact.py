"""Pointwise contact-metric structures and closed-form ambient curvature models.

A ContactFrame is algebraic data in an orthonormal basis (the metric is the
identity): the structure tensor phi, Reeb vector xi, contact form eta, the
symmetric operator h and the constants kappa, mu.  Three curvature models are
exposed as (0,4) oracles; each satisfies the standard tensor symmetries and
the defining curvature-along-xi identity, which the test-suite pins down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    InvalidFrameError,
    InvalidInputError,
    InvalidParameterError,
    SingularParameterError,
)
from .numeric import as_matrix, as_vector

__all__ = [
    "ContactFrame",
    "CurvatureOracle",
    "make_kmu_frame",
    "curvature_real_space_form",
    "curvature_kmu_space_form",
    "curvature_sasakian_space_form",
    "curvature_non_sasakian",
    "check_km_condition",
    "phi_sectional",
    "AmbientSpace",
    "ambient_catalog",
    "make_ambient",
    "TSB_NOTE",
]

FRAME_TOL = 1e-10

# The tangent-sphere-bundle parameter map below uses mu = -2c; the opposite
# sign convention mu = +2c also circulates for the same construction, so runs
# that request this ambient carry the note.
TSB_NOTE = (
    "tangent-sphere-bundle ambient built with kappa = c(2-c), mu = -2c; "
    "an alternative convention with mu = +2c exists for the same construction"
)


@dataclass
class ContactFrame:
    """Contact-metric structure data at a point, in an orthonormal frame.

    Dimension is 2m+1.  Invariants (checked to 1e-10 on construction):
    phi^2 = -I + eta (x) xi, eta(xi) = 1, phi xi = 0, eta o phi = 0, phi
    skew-adjoint, xi = eta (identity metric), h symmetric with h xi = 0,
    h phi + phi h = 0, trace h = trace(phi h) = 0, h^2 = (kappa-1) phi^2 and
    kappa <= 1.
    """

    m: int
    phi: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    h: np.ndarray
    kappa: float
    mu: float
    c: float | None = None

    def __post_init__(self):
        d = 2 * self.m + 1
        self.phi = as_matrix(self.phi, d, d)
        self.xi = as_vector(self.xi, d)
        self.eta = as_vector(self.eta, d)
        self.h = as_matrix(self.h, d, d)
        self._validate()

    @property
    def dim(self) -> int:
        return 2 * self.m + 1

    @property
    def lam(self) -> float:
        """Positive h-eigenvalue sqrt(1 - kappa)."""
        return float(np.sqrt(max(1.0 - self.kappa, 0.0)))

    def _validate(self):
        phi, xi, eta, h = self.phi, self.xi, self.eta, self.h
        d = self.dim
        eye = np.eye(d)
        checks = {
            "phi^2 = -I + eta(x)xi": phi @ phi + eye - np.outer(xi, eta),
            "eta(xi) = 1": np.array([eta @ xi - 1.0]),
            "phi xi = 0": phi @ xi,
            "eta o phi = 0": eta @ phi,
            "compatibility phi'phi + eta(x)eta = I": phi.T @ phi + np.outer(eta, eta) - eye,
            "phi skew-adjoint": phi.T + phi,
            "xi metric-dual to eta": xi - eta,
            "h symmetric": h.T - h,
            "h xi = 0": h @ xi,
            "h phi + phi h = 0": h @ phi + phi @ h,
            "trace h = 0": np.array([np.trace(h)]),
            "trace phi h = 0": np.array([np.trace(phi @ h)]),
            "h^2 = (kappa-1) phi^2": h @ h - (self.kappa - 1.0) * (phi @ phi),
        }
        for name, residual in checks.items():
            err = float(np.max(np.abs(residual)))
            if err > FRAME_TOL:
                raise InvalidFrameError(f"frame identity violated: {name} (residual {err:.3e})")
        if self.kappa > 1.0 + FRAME_TOL:
            raise InvalidFrameError("kappa must satisfy kappa <= 1")

    def is_sasakian(self) -> bool:
        return float(np.max(np.abs(self.h))) < FRAME_TOL


def make_kmu_frame(m: int, kappa: float, mu: float, c: float | None = None) -> ContactFrame:
    """Canonical frame {xi, u_1..u_m, phi u_1..phi u_m} with h-eigenvalues 0, lam, -lam.

    kappa = 1 yields the degenerate h = 0 (Sasakian) frame; kappa > 1 is
    rejected.
    """
    if m < 1:
        raise InvalidParameterError("m must be >= 1")
    if kappa > 1.0:
        raise InvalidParameterError(f"kappa = {kappa} > 1 is not admissible")
    d = 2 * m + 1
    lam = np.sqrt(1.0 - kappa)
    xi = np.zeros(d)
    xi[0] = 1.0
    phi = np.zeros((d, d))
    for i in range(1, m + 1):
        phi[m + i, i] = 1.0  # phi u_i = phi-u_i slot
        phi[i, m + i] = -1.0  # phi(phi u_i) = -u_i
    h = np.zeros((d, d))
    for i in range(1, m + 1):
        h[i, i] = lam
        h[m + i, m + i] = -lam
    return ContactFrame(m=m, phi=phi, xi=xi, eta=xi.copy(), h=h, kappa=kappa, mu=mu, c=c)


@dataclass
class CurvatureOracle:
    """(0,4) ambient curvature model R(X,Y,Z,W) on frame-coordinate vectors.

    `value` evaluates the defining expression slot by slot; `kij` returns the
    matrix of sectional curvatures K(v_i ^ v_j) for the columns of an
    orthonormal V in one vectorized pass (same expression, batched).
    """

    provenance: str
    value: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], float]
    kij: Callable[[np.ndarray], np.ndarray]
    params: dict = field(default_factory=dict)

    def sectional(self, X: np.ndarray, Y: np.ndarray) -> float:
        xx, yy, xy = float(X @ X), float(Y @ Y), float(X @ Y)
        denom = xx * yy - xy * xy
        if denom <= 1e-14:
            raise InvalidInputError("degenerate plane for sectional curvature")
        return self.value(X, Y, Y, X) / denom


def curvature_real_space_form(dim: int, c: float) -> CurvatureOracle:
    """Constant-curvature model R(X,Y,Z,W) = c(<Y,Z><X,W> - <X,Z><Y,W>)."""

    def value(X, Y, Z, W) -> float:
        return c * float((Y @ Z) * (X @ W) - (X @ Z) * (Y @ W))

    def kij(V: np.ndarray) -> np.ndarray:
        G = V.T @ V
        Gd = G.diagonal()
        out = c * (Gd[:, None] * Gd[None, :] - G * G)
        np.fill_diagonal(out, 0.0)
        return out

    return CurvatureOracle("real-space-form", value, kij, {"c": c, "dim": dim})


def curvature_kmu_space_form(frame: ContactFrame, c: float | None = None) -> CurvatureOracle:
    """Curvature tensor of a contact space form with constant phi-sectional
    curvature c, carrying the h-dependent correction blocks."""
    if c is None:
        c = frame.c
    if c is None:
        raise InvalidInputError("phi-sectional curvature c required")
    phi, h, eta = frame.phi, frame.h, frame.eta
    kappa, mu = frame.kappa, frame.mu
    a1 = (c + 3.0) / 4.0
    a2 = (c - 1.0) / 4.0
    a3 = (c + 3.0 - 4.0 * kappa) / 4.0

    def value(X, Y, Z, W) -> float:
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

    def kij(V: np.ndarray) -> np.ndarray:
        G = V.T @ V
        PhiV = phi @ V
        HV = h @ V
        F = V.T @ PhiV
        Hm = V.T @ HV
        PH = V.T @ (phi @ HV)
        PP = PhiV.T @ PhiV
        M2 = V.T @ (phi @ PhiV)
        E = eta @ V
        Gd, Fd, Hmd, PHd, PPd, M2d = (
            G.diagonal(), F.diagonal(), Hm.diagonal(), PH.diagonal(), PP.diagonal(), M2.diagonal(),
        )
        E2 = E * E
        EE = E[:, None] * E[None, :]
        t1 = a1 * (Gd[:, None] * Gd[None, :] - G * G)
        t2 = a2 * (3.0 * F * F - Fd[:, None] * Fd[None, :])
        t3 = a3 * (2.0 * EE * G - Gd[:, None] * E2[None, :] - E2[:, None] * Gd[None, :])
        t4 = 0.5 * (Hmd[:, None] * Hmd[None, :] - Hm * Hm + PH * PH - PHd[:, None] * PHd[None, :])
        t5 = Hmd[:, None] * PPd[None, :] - PP * Hm
        t6 = Hm * M2 - M2d[:, None] * Hmd[None, :]
        t7 = mu * (Hmd[:, None] * E2[None, :] + E2[:, None] * Hmd[None, :] - 2.0 * EE * Hm)
        out = t1 + t2 + t3 + t4 + t5 + t6 + t7
        np.fill_diagonal(out, 0.0)
        return out

    return CurvatureOracle(
        "kmu-space-form", value, kij,
        {"m": frame.m, "kappa": kappa, "mu": mu, "c": c},
    )


def curvature_sasakian_space_form(frame: ContactFrame, c: float | None = None) -> CurvatureOracle:
    """Sasakian space-form tensor (requires h = 0)."""
    if not frame.is_sasakian():
        raise InvalidFrameError("Sasakian space-form oracle requires h = 0")
    if c is None:
        c = frame.c
    if c is None:
        raise InvalidInputError("phi-sectional curvature c required")
    phi, eta = frame.phi, frame.eta
    a1 = (c + 3.0) / 4.0
    a2 = (c - 1.0) / 4.0

    def value(X, Y, Z, W) -> float:
        pX, pY, pZ = phi @ X, phi @ Y, phi @ Z
        eX, eY, eZ, eW = eta @ X, eta @ Y, eta @ Z, eta @ W
        t1 = a1 * ((Y @ Z) * (X @ W) - (X @ Z) * (Y @ W))
        t2 = a2 * (
            2.0 * (X @ pY) * (pZ @ W) + (X @ pZ) * (pY @ W) - (Y @ pZ) * (pX @ W)
            + eX * eZ * (Y @ W) - eY * eZ * (X @ W)
            + (X @ Z) * eY * eW - (Y @ Z) * eX * eW
        )
        return float(t1 + t2)

    def kij(V: np.ndarray) -> np.ndarray:
        G = V.T @ V
        F = V.T @ (phi @ V)
        E = eta @ V
        Gd, Fd = G.diagonal(), F.diagonal()
        E2 = E * E
        EE = E[:, None] * E[None, :]
        t1 = a1 * (Gd[:, None] * Gd[None, :] - G * G)
        t2 = a2 * (
            3.0 * F * F - Fd[:, None] * Fd[None, :]
            + 2.0 * EE * G - Gd[:, None] * E2[None, :] - E2[:, None] * Gd[None, :]
        )
        out = t1 + t2
        np.fill_diagonal(out, 0.0)
        return out

    return CurvatureOracle(
        "sasakian-space-form", value, kij, {"m": frame.m, "c": c}
    )


def curvature_non_sasakian(frame: ContactFrame) -> CurvatureOracle:
    """Curvature tensor determined by (kappa, mu) alone in the non-Sasakian case.

    Requires kappa strictly below 1 (the 1/(1-kappa) blocks); refuses
    kappa > 1 - 1e-8 rather than evaluating near-singular denominators.
    """
    kappa, mu = frame.kappa, frame.mu
    if kappa > 1.0 - 1e-8:
        raise SingularParameterError(
            f"non-Sasakian model needs kappa < 1 (got {kappa})"
        )
    phi, h, eta = frame.phi, frame.h, frame.eta
    a = 1.0 - mu / 2.0
    e1 = (1.0 - mu / 2.0) / (1.0 - kappa)
    e2 = (kappa - mu / 2.0) / (1.0 - kappa)
    b1 = kappa - 1.0 + mu / 2.0
    b2 = mu - 1.0

    def value(X, Y, Z, W) -> float:
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

    def kij(V: np.ndarray) -> np.ndarray:
        G = V.T @ V
        PhiV = phi @ V
        HV = h @ V
        F = V.T @ PhiV
        Hm = V.T @ HV
        PH = V.T @ (phi @ HV)
        E = eta @ V
        Gd, Fd, Hmd, PHd = G.diagonal(), F.diagonal(), Hm.diagonal(), PH.diagonal()
        t1 = a * (Gd[:, None] * Gd[None, :] - G * G)
        t2 = -mu / 2.0 * (3.0 * F * F - Fd[:, None] * Fd[None, :])
        t3 = Hmd[:, None] * Gd[None, :] + Gd[:, None] * Hmd[None, :] - 2.0 * G * Hm
        t4 = e1 * (Hmd[:, None] * Hmd[None, :] - Hm * Hm)
        t5 = e2 * (PHd[:, None] * PHd[None, :] - PH * PH)
        E2 = E * E
        EE = E[:, None] * E[None, :]
        t69 = (
            b1 * (E2[:, None] * Gd[None, :] + Gd[:, None] * E2[None, :] - 2.0 * EE * G)
            + b2 * (E2[:, None] * Hmd[None, :] + Hmd[:, None] * E2[None, :] - 2.0 * EE * Hm)
        )
        out = t1 + t2 + t3 + t4 + t5 + t69
        np.fill_diagonal(out, 0.0)
        return out

    return CurvatureOracle(
        "non-sasakian-kmu", value, kij, {"m": frame.m, "kappa": kappa, "mu": mu}
    )


def check_km_condition(
    oracle: CurvatureOracle,
    frame: ContactFrame,
    rng: np.random.Generator | None = None,
    samples: int = 20,
) -> float:
    """Max residual of R(X,Y)xi = (kappa I + mu h)(eta(Y) X - eta(X) Y).

    R(X,Y)xi is reconstructed from the (0,4) oracle by pairing the last slot
    with the orthonormal basis vectors.
    """
    rng = rng or np.random.default_rng(0)
    d = frame.dim
    eye = np.eye(d)
    op = frame.kappa * eye + frame.mu * frame.h
    worst = 0.0
    for _ in range(samples):
        X = rng.normal(size=d)
        Y = rng.normal(size=d)
        lhs = np.array([oracle.value(X, Y, frame.xi, eye[:, l]) for l in range(d)])
        rhs = op @ ((frame.eta @ Y) * X - (frame.eta @ X) * Y)
        worst = np.maximum(worst, np.max(np.abs(lhs - rhs)))  # keeps a NaN
    return float(worst)


def phi_sectional(
    oracle: CurvatureOracle, frame: ContactFrame, X: np.ndarray, tol: float = 1e-8
) -> float:
    """K(X ^ phi X) for a unit X orthogonal to xi."""
    X = as_vector(X, frame.dim)
    if abs(float(X @ X) - 1.0) > tol or abs(float(frame.eta @ X)) > tol:
        raise InvalidInputError("X must be unit and orthogonal to xi")
    pX = frame.phi @ X
    return float(oracle.value(X, pX, pX, X))


@dataclass
class AmbientSpace:
    """Ambient model: dimension, curvature oracle and optional contact frame."""

    kind: str
    dim: int
    oracle: CurvatureOracle
    frame: ContactFrame | None = None
    params: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def _ambient_euclidean(m: int) -> AmbientSpace:
    return AmbientSpace(
        "euclidean", m, curvature_real_space_form(m, 0.0), params={"m": m}
    )


def _ambient_real_space_form(m: int, c: float) -> AmbientSpace:
    return AmbientSpace(
        "real-space-form", m, curvature_real_space_form(m, c), params={"m": m, "c": c}
    )


def _ambient_sasakian(m: int, c: float) -> AmbientSpace:
    frame = make_kmu_frame(m, 1.0, 0.0, c=c)
    return AmbientSpace(
        "sasakian-space-form",
        frame.dim,
        curvature_sasakian_space_form(frame, c),
        frame=frame,
        params={"m": m, "c": c},
    )


def _ambient_kmu_space_form(m: int, kappa: float, mu: float, c: float) -> AmbientSpace:
    frame = make_kmu_frame(m, kappa, mu, c=c)
    return AmbientSpace(
        "kmu-space-form",
        frame.dim,
        curvature_kmu_space_form(frame, c),
        frame=frame,
        params={"m": m, "kappa": kappa, "mu": mu, "c": c},
    )


def _ambient_non_sasakian(m: int, kappa: float, mu: float) -> AmbientSpace:
    frame = make_kmu_frame(m, kappa, mu)
    return AmbientSpace(
        "non-sasakian-kmu",
        frame.dim,
        curvature_non_sasakian(frame),
        frame=frame,
        params={"m": m, "kappa": kappa, "mu": mu},
    )


def _ambient_tangent_sphere_bundle(m: int, c: float) -> AmbientSpace:
    """Unit tangent bundle of a constant-curvature-c base: kappa = c(2-c), mu = -2c."""
    if abs(c - 1.0) < 1e-12:
        raise InvalidParameterError("base curvature c = 1 gives the Sasakian degenerate case")
    kappa = c * (2.0 - c)
    mu = -2.0 * c
    amb = _ambient_non_sasakian(m, kappa, mu)
    amb.kind = "tangent-sphere-bundle"
    amb.params = {"m": m, "c": c, "kappa": kappa, "mu": mu}
    amb.notes.append(TSB_NOTE)
    return amb


def ambient_catalog() -> dict[str, Callable[..., AmbientSpace]]:
    return {
        "euclidean": _ambient_euclidean,
        "real-space-form": _ambient_real_space_form,
        "sasakian-space-form": _ambient_sasakian,
        "kmu-space-form": _ambient_kmu_space_form,
        "non-sasakian-kmu": _ambient_non_sasakian,
        "tangent-sphere-bundle": _ambient_tangent_sphere_bundle,
    }


def make_ambient(kind: str, **params) -> AmbientSpace:
    catalog = ambient_catalog()
    if kind not in catalog:
        raise InvalidInputError(f"unknown ambient kind {kind!r}; known: {sorted(catalog)}")
    return catalog[kind](**params)
