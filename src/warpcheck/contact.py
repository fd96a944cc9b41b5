"""Pointwise contact-metric structures and closed-form ambient curvature models.

A ContactFrame is algebraic data in an orthonormal basis (the metric is the
identity): the structure tensor phi, Reeb vector xi, contact form eta, the
symmetric operator h and the constants kappa, mu.  Each curvature model is one
(0,4) array R[i,j,k,l], built once from products of I, phi, h and eta; a
CurvatureOracle holds that array (`tensor`) and evaluates R(X,Y,Z,W) for one
quadruple (`value`) and the sectional-curvature table of a frame or a stack
of frames (`kij`) as contractions of it; numeric.frame_tensor gives the same
curvature in another frame.  Every contact space form of constant
phi-sectional curvature c is curvature_kmu_space_form of its frame; the
Sasakian space form is that of the h = 0 frame (kappa = 1, mu = 0).  The
checks of this package work on the array itself:
the symmetry identities, the (kappa, mu)-nullity of R(X,Y)xi and the
constancy of the phi-sectional curvature are each decided exactly on the
array's entries, with no random vectors and no call per tuple.  Each
model satisfies the standard tensor symmetries and the defining
curvature-along-xi identity, which the test-suite pins down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Callable

import numpy as np

from .errors import (
    InvalidFrameError,
    InvalidInputError,
    InvalidParameterError,
    NumericalDomainError,
    SingularParameterError,
)
from .numeric import as_matrix, as_vector, frame_tensor, qr_q_complete

__all__ = [
    "ContactFrame",
    "CurvatureOracle",
    "make_kmu_frame",
    "curvature_real_space_form",
    "curvature_kmu_space_form",
    "curvature_non_sasakian",
    "check_km_condition",
    "phi_sectional_constant",
    "AmbientSpace",
    "ambient_catalog",
    "make_ambient",
    "TSB_NOTE",
]

FRAME_TOL = 1e-10
# The non-Sasakian (kappa, mu) formulas divide by 1 - kappa; a kappa above
# this is refused as singular by the library and by scenes alike.
KAPPA_SINGULAR = 1.0 - 1e-8
# Samples per pass of CurvatureOracle.kij on a stack: bounds its two
# (samples * n) x d^2 intermediates, 4.8 MB each at d = 7, n = 6.
_KIJ_BLOCK = 2048

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


def make_kmu_frame(m: int, kappa: float, mu: float, c: float | None = None) -> ContactFrame:
    """Canonical frame {xi, u_1..u_m, phi u_1..phi u_m} with h-eigenvalues 0, lam, -lam.

    kappa = 1 yields the degenerate h = 0 (Sasakian) frame; kappa > 1 is
    rejected.
    """
    _require_dim(m)
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


def _require_dim(m) -> None:
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
        raise InvalidParameterError(f"m must be an integer >= 1 (got {m!r})")


@dataclass
class CurvatureOracle:
    """(0,4) ambient curvature model held as the array R[i,j,k,l] = R(e_i,e_j,e_k,e_l).

    `value` and `kij` are contractions of the one tensor; `kij`
    returns the matrix of R(v_a, v_b, v_b, v_a) over the columns
    of V, the sectional curvatures K(v_a ^ v_b) when V is orthonormal, and
    one such matrix per frame for a stack of frames V (N, d, n).
    Instances stay mutable so a caller can rebind `value` or `kij` on one
    oracle (call counting, fault injection).
    """

    provenance: str
    tensor: np.ndarray

    def __post_init__(self):
        R = self.tensor = np.asarray(self.tensor, dtype=float)
        if R.ndim != 4 or len(set(R.shape)) != 1:
            raise InvalidInputError(f"curvature tensor must be (d,d,d,d), got {R.shape}")
        if not np.isfinite(R).all():
            raise NumericalDomainError(f"{self.provenance} curvature tensor has non-finite entries")
        # Q[(i,l),(j,k)] = R[i,j,k,l], so kij is one matrix sandwich
        self._q = R.transpose(0, 3, 1, 2).reshape(R.shape[0] ** 2, -1)

    def value(self, X: np.ndarray, Y: np.ndarray, Z: np.ndarray, W: np.ndarray) -> float:
        return float(X @ ((self.tensor @ W @ Z) @ Y))

    def kij(self, V: np.ndarray) -> np.ndarray:
        """Table R(v_a, v_b, v_b, v_a) over the columns of V (d, n), zero on
        the diagonal.  A stack V (N, d, n) gives the N tables (N, n, n): with
        P = (v_a (x) v_a) as (N, d^2, n), P^T Q P is two batched matrix
        products, one matrix product per sample each, so a sample's table is
        the one it gets alone, whatever stack it is in.  A long stack is
        evaluated in blocks of _KIJ_BLOCK samples, which keeps P^T and P^T Q
        at (_KIJ_BLOCK n) x d^2 however long the stack is."""
        V = np.asarray(V, dtype=float)
        if V.ndim < 3 or len(V) <= _KIJ_BLOCK:
            return self._kij(V)
        n = V.shape[-1]
        out = np.empty(V.shape[:-2] + (n, n))
        for start in range(0, len(V), _KIJ_BLOCK):
            out[start : start + _KIJ_BLOCK] = self._kij(V[start : start + _KIJ_BLOCK])
        return out

    def _kij(self, V: np.ndarray) -> np.ndarray:
        """kij of a frame or stack V in one pass."""
        d, n = V.shape[-2:]
        Vt = V.swapaxes(-1, -2)
        Pt = (Vt[..., :, None] * Vt[..., None, :]).reshape(Vt.shape[:-1] + (d * d,))  # v_a (x) v_a
        out = (Pt @ self._q) @ Pt.swapaxes(-1, -2)
        out.reshape(-1, n * n)[:, :: n + 1] = 0.0  # the diagonal of each table
        return out


# The models are sums of the (0,4) products below; a bilinear form
# A(X, Y) = X^T A Y is passed as its matrix A (the form <T X, Y> as T.T).


def _pair(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """P(A,B)(X,Y,Z,W) = A(Y,Z) B(X,W) - A(X,Z) B(Y,W)."""
    T = A[None, :, :, None] * B[:, None, None, :]
    return T - T.transpose(1, 0, 2, 3)


def _phi_block(phi: np.ndarray) -> np.ndarray:
    """P(phi,phi) - 2 phi (x) phi, with phi(X, Y) = <X, phi Y>."""
    return _pair(phi, phi) - 2.0 * np.multiply.outer(phi, phi)


def curvature_real_space_form(dim: int, c: float) -> CurvatureOracle:
    """Constant-curvature model R(X,Y,Z,W) = c(<Y,Z><X,W> - <X,Z><Y,W>)."""
    _require_dim(dim)
    eye = np.eye(dim)
    return CurvatureOracle("real-space-form", c * _pair(eye, eye))


def _kmu_tensor(phi, eta, h, kappa: float, mu: float, c: float) -> np.ndarray:
    eye, E = np.eye(len(eta)), np.outer(eta, eta)
    hb, phb = h.T, (phi @ h).T
    return (
        (c + 3.0) / 4.0 * _pair(eye, eye)
        + (c - 1.0) / 4.0 * _phi_block(phi)
        - (c + 3.0 - 4.0 * kappa) / 4.0 * (_pair(E, eye) + _pair(eye, E))
        + 0.5 * (_pair(hb, hb) - _pair(phb, phb))
        + _pair(phi.T @ phi, hb)
        - _pair(hb, (phi @ phi).T)
        + mu * (_pair(E, hb) + _pair(hb, E))
    )


def curvature_kmu_space_form(frame: ContactFrame) -> CurvatureOracle:
    """Curvature tensor of a contact space form with constant phi-sectional
    curvature frame.c, carrying the h-dependent correction blocks.  The
    Sasakian space form is the h = 0, kappa = 1, mu = 0 frame's tensor."""
    if frame.c is None:
        raise InvalidInputError("phi-sectional curvature c required")
    R = _kmu_tensor(frame.phi, frame.eta, frame.h, frame.kappa, frame.mu, frame.c)
    return CurvatureOracle("kmu-space-form", R)


def curvature_non_sasakian(frame: ContactFrame) -> CurvatureOracle:
    """Curvature tensor determined by (kappa, mu) alone in the non-Sasakian case.

    Requires kappa strictly below 1 (the 1/(1-kappa) blocks); refuses
    kappa > KAPPA_SINGULAR rather than evaluating near-singular denominators.
    """
    kappa, mu = frame.kappa, frame.mu
    if kappa > KAPPA_SINGULAR:
        raise SingularParameterError(f"non-Sasakian model needs kappa < 1 (got {kappa})")
    phi, hb, phb = frame.phi, frame.h.T, (frame.phi @ frame.h).T
    eye, E = np.eye(frame.dim), np.outer(frame.eta, frame.eta)
    B = (kappa - 1.0 + mu / 2.0) * eye + (mu - 1.0) * hb
    R = (
        (1.0 - mu / 2.0) * _pair(eye, eye)
        - mu / 2.0 * _phi_block(phi)
        + _pair(eye, hb) + _pair(hb, eye)
        + (1.0 - mu / 2.0) / (1.0 - kappa) * _pair(hb, hb)
        + (kappa - mu / 2.0) / (1.0 - kappa) * _pair(phb, phb)
        + _pair(B, E) + _pair(E, B)
    )
    return CurvatureOracle("non-sasakian-kmu", R)


def check_km_condition(oracle: CurvatureOracle, frame: ContactFrame) -> float:
    """Max residual of R(X,Y)xi = (kappa I + mu h)(eta(Y) X - eta(X) Y).

    Both sides are bilinear in (X, Y), so the d^3 basis entries decide the
    identity: R(e_i, e_j, xi, e_l), one contraction of the (0,4) tensor over
    the xi slot, against op[l,i] eta_j - op[l,j] eta_i with op = kappa I + mu h.
    """
    eta = frame.eta
    r_xi = np.tensordot(oracle.tensor, frame.xi, axes=(2, 0))  # [i, j, l]
    op_t = (frame.kappa * np.eye(frame.dim) + frame.mu * frame.h).T  # op_t[i, l] = op[l, i]
    rhs = op_t[:, None, :] * eta[None, :, None] - eta[:, None, None] * op_t[None, :, :]
    return float(np.max(np.abs(r_xi - rhs)))  # keeps a NaN


def phi_sectional_constant(oracle: CurvatureOracle, frame: ContactFrame) -> tuple[float, float]:
    """The phi-sectional curvature c and how far K(X ^ phi X) is from constant.

    Over an orthonormal basis B of xi-perp, T[i,j,k,l] = R(Be_i, phi Be_j,
    phi Be_k, Be_l) is one frame contraction of the tensor, and K(X ^ phi X)
    is the quartic form T(x,x,x,x) of a unit X = Bx.  It is the constant c
    exactly when Sym T = c Sym(delta (x) delta); returns the least-squares c
    and max |Sym T - c Sym(delta (x) delta)| (NaN when the tensor has one).
    """
    B = qr_q_complete(frame.xi[:, None])[1][:, 1:]  # the complement of xi
    n = B.shape[1]
    T = frame_tensor(oracle.tensor, np.hstack([B, frame.phi @ B])[None])[0][:n, n:, n:, :n]
    sym_t = sum(T.transpose(p) for p in permutations(range(4))) / 24.0
    dd = np.multiply.outer(np.eye(n), np.eye(n))
    sym_dd = (dd + dd.transpose(0, 2, 1, 3) + dd.transpose(0, 2, 3, 1)) / 3.0
    c = np.sum(sym_t * sym_dd) / np.sum(sym_dd * sym_dd)
    return float(c), float(np.max(np.abs(sym_t - c * sym_dd)))


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
    return AmbientSpace("euclidean", m, curvature_real_space_form(m, 0.0), params={"m": m})


def _ambient_real_space_form(m: int, c: float) -> AmbientSpace:
    return AmbientSpace(
        "real-space-form", m, curvature_real_space_form(m, c), params={"m": m, "c": c}
    )


def _ambient_sasakian(m: int, c: float) -> AmbientSpace:
    """The (kappa, mu) space form at kappa = 1, mu = 0, where h = 0."""
    amb = _ambient_kmu_space_form(m, 1.0, 0.0, c)
    amb.kind = "sasakian-space-form"
    amb.params = {"m": m, "c": c}
    return amb


def _ambient_kmu_space_form(m: int, kappa: float, mu: float, c: float) -> AmbientSpace:
    frame = make_kmu_frame(m, kappa, mu, c=c)
    return AmbientSpace(
        "kmu-space-form",
        frame.dim,
        curvature_kmu_space_form(frame),
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
    # a non-finite parameter yields a non-finite tensor, which CurvatureOracle rejects
    with np.errstate(invalid="ignore", over="ignore"):
        return catalog[kind](**params)
