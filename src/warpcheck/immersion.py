"""Submanifold machinery: second fundamental form, mean curvatures,
Gauss-equation bookkeeping and the contact-tangency predicates.

Two input flavors share one downstream representation.  Chart immersions are
differentiated numerically and re-expressed in an adapted orthonormal frame;
pointwise data is synthesized directly in the ambient model's orthonormal
coordinates.  Downstream of PointwiseImmersionData every inner product is a
plain dot product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .charts import ChartMetric, christoffel, riemann
from .contact import AmbientSpace, ContactFrame, CurvatureOracle, make_ambient
from .errors import (
    ImmersionDegeneracyError,
    InvalidConfigurationError,
    InvalidInputError,
    NumericalDomainError,
)
from .numeric import (
    DEFAULT_TOLERANCE,
    as_matrix,
    as_vector,
    cross_diff,
    gram_schmidt,
    sym_eigen,
)
from .warped import WarpedProductChart, flat_product_chart, sphere_chart

__all__ = [
    "PointwiseImmersionData",
    "MeanCurvatureRecord",
    "ChartImmersion",
    "second_fundamental_form",
    "pullback_metric",
    "mean_curvatures",
    "gauss_residual",
    "is_C_totally_real",
    "a_xi_identity",
    "is_mixed_totally_geodesic",
    "random_data",
    "c_totally_real_frame",
    "dplus_frame",
    "complete_normal_frame",
    "symmetric_random_sigma",
    "balance_for_equality",
    "force_xi_consistency",
    "sphere_in_euclidean",
    "plane_immersion",
    "cylinder_immersion",
    "dplus_leaf",
    "dplus_leaf_in",
    "chart_immersion_catalog",
]


@dataclass
class PointwiseImmersionData:
    """Adapted orthonormal frame, second-fundamental-form components and the
    ambient curvature oracle at a single point.

    tangent: (ambient_dim, n) orthonormal columns, first n1 spanning the leaf
    block; normal: the orthonormal complement; sigma[r, i, j] are the
    components <sigma(e_i, e_j), N_r>.
    """

    n1: int
    n2: int
    tangent: np.ndarray
    normal: np.ndarray
    sigma: np.ndarray
    oracle: CurvatureOracle
    contact: ContactFrame | None = None
    label: str = ""
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        self.tangent = np.asarray(self.tangent, dtype=float)
        self.normal = np.asarray(self.normal, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        n = self.n
        d = self.tangent.shape[0]
        if self.tangent.shape != (d, n):
            raise InvalidConfigurationError("tangent frame shape mismatch with n1 + n2")
        if self.normal.shape != (d, d - n):
            raise InvalidConfigurationError("normal frame must complete the ambient dimension")
        if self.sigma.shape != (d - n, n, n):
            raise InvalidConfigurationError("sigma shape mismatch")
        full = np.hstack([self.tangent, self.normal])
        # NaN residuals compare false against every bound below
        if not np.isfinite(full).all():
            raise NumericalDomainError("tangent or normal frame has non-finite entries")
        if not np.isfinite(self.sigma).all():
            raise NumericalDomainError("sigma has non-finite entries")
        ortho_err = float(np.max(np.abs(full.T @ full - np.eye(d))))
        if ortho_err > 1e-8:
            raise InvalidConfigurationError(f"frame not orthonormal (residual {ortho_err:.3e})")
        sym_err = float(np.max(np.abs(self.sigma - self.sigma.transpose(0, 2, 1))))
        if sym_err > 1e-8:
            raise InvalidConfigurationError(f"sigma not symmetric (residual {sym_err:.3e})")

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def ambient_dim(self) -> int:
        return self.tangent.shape[0]

    @property
    def num_normals(self) -> int:
        return self.normal.shape[1]

    def sigma_norm_sq(self) -> float:
        return float(np.sum(self.sigma**2))

    def ambient_kij(self) -> np.ndarray:
        """Ambient sectional curvatures K(e_i ^ e_j) over the tangent frame."""
        return self.oracle.kij(self.tangent)


@dataclass
class MeanCurvatureRecord:
    """Mean curvature vector with its two partial (block) traces."""

    H: np.ndarray
    H1: np.ndarray
    H2: np.ndarray
    norm_H: float
    norm_H1: float
    norm_H2: float
    components: np.ndarray  # H in the normal frame


def mean_curvatures(data: PointwiseImmersionData) -> MeanCurvatureRecord:
    """Trace parts of sigma: n H = n1 H1 + n2 H2 holds by construction."""
    n, n1 = data.n, data.n1
    diag = np.einsum("rii->ri", data.sigma)  # (num_normals, n)
    h_comp = diag.sum(axis=1) / n
    h1_comp = diag[:, :n1].sum(axis=1) / n1
    h2_comp = diag[:, n1:].sum(axis=1) / data.n2
    H = data.normal @ h_comp
    H1 = data.normal @ h1_comp
    H2 = data.normal @ h2_comp
    return MeanCurvatureRecord(
        H=H,
        H1=H1,
        H2=H2,
        norm_H=float(np.linalg.norm(h_comp)),
        norm_H1=float(np.linalg.norm(h1_comp)),
        norm_H2=float(np.linalg.norm(h2_comp)),
        components=h_comp,
    )


def intrinsic_kij(data: PointwiseImmersionData, ambient: np.ndarray | None = None) -> np.ndarray:
    """Sectional curvatures of the submanifold from the Gauss equation:
    K_ij = K~_ij + sum_r (sigma^r_ii sigma^r_jj - (sigma^r_ij)^2), over the
    K~ table `ambient` when the caller holds it (data.ambient_kij() if not)."""
    ambient = data.ambient_kij() if ambient is None else ambient
    diag = np.einsum("rii->ri", data.sigma)
    corr = np.einsum("ri,rj->ij", diag, diag) - np.einsum("rij,rij->ij", data.sigma, data.sigma)
    out = ambient + corr
    np.fill_diagonal(out, 0.0)
    return out


def gauss_residual(
    data: PointwiseImmersionData,
    intrinsic: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], float] | None = None,
    rng: np.random.Generator | None = None,
    samples: int = 30,
) -> dict:
    """Residuals of the Gauss equation, its sectional form and the global
    trace identity 2 tau = 2 tau~ + n^2 |H|^2 - |sigma|^2.

    `intrinsic` takes tangent-frame components (length n); when omitted the
    intrinsic curvature is defined through the Gauss equation itself and the
    quadruple residual is definitionally zero.
    """
    rng = rng or np.random.default_rng(0)
    n = data.n

    def r_gauss(a, b, c, d) -> float:
        X, Y, Z, W = (data.tangent @ v for v in (a, b, c, d))
        amb = data.oracle.value(X, Y, Z, W)
        s = data.sigma
        sXW = np.einsum("rij,i,j->r", s, a, d)
        sYZ = np.einsum("rij,i,j->r", s, b, c)
        sXZ = np.einsum("rij,i,j->r", s, a, c)
        sYW = np.einsum("rij,i,j->r", s, b, d)
        return amb + float(sXW @ sYZ) - float(sXZ @ sYW)

    if intrinsic is None:
        intrinsic = r_gauss

    # np.maximum keeps a NaN residual, where max would drop it
    worst = 0.0
    for _ in range(samples):
        quad = rng.normal(size=(4, n))
        quad /= np.linalg.norm(quad, axis=1, keepdims=True)
        a, b, c, d = quad
        worst = np.maximum(worst, abs(intrinsic(a, b, c, d) - r_gauss(a, b, c, d)))

    ambient = data.ambient_kij()
    k_gauss = intrinsic_kij(data, ambient=ambient)
    kij_worst = 0.0
    eye = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            kij_worst = np.maximum(
                kij_worst, abs(intrinsic(eye[i], eye[j], eye[j], eye[i]) - k_gauss[i, j])
            )

    iu = np.triu_indices(n, k=1)
    tau = 0.0
    for i, j in zip(*iu):
        tau += intrinsic(eye[i], eye[j], eye[j], eye[i])
    tau_ambient = float(ambient[iu].sum())
    rec = mean_curvatures(data)
    tau_res = abs(
        2.0 * tau - (2.0 * tau_ambient + n * n * rec.norm_H**2 - data.sigma_norm_sq())
    )
    return {
        "gauss_max": float(worst),
        "kij_max": float(kij_worst),
        "tau_identity_residual": float(tau_res),
    }


def _require_contact(data: PointwiseImmersionData) -> ContactFrame:
    if data.contact is None:
        raise InvalidConfigurationError("operation requires an attached contact frame")
    return data.contact


def is_C_totally_real(
    data: PointwiseImmersionData, tol: float = DEFAULT_TOLERANCE.algebraic
) -> tuple[bool, dict]:
    """True iff xi is normal and phi maps the tangent space into the normal space."""
    frame = _require_contact(data)
    xi_res = float(np.max(np.abs(frame.xi @ data.tangent)))
    anti_res = float(np.max(np.abs(data.tangent.T @ (frame.phi @ data.tangent))))
    ok = xi_res < tol and anti_res < tol
    residuals = {"xi_tangency": xi_res, "anti_invariance": anti_res}
    if ok and data.n > frame.m:
        # anti-invariance caps the dimension at m inside a (2m+1)-dim ambient
        raise InvalidConfigurationError(
            f"C-totally real data with n = {data.n} > m = {frame.m} is inconsistent"
        )
    return ok, residuals


def tangential_operator(data: PointwiseImmersionData, op: np.ndarray) -> np.ndarray:
    """Matrix <op e_i, e_j> of an ambient operator restricted to the tangent frame."""
    return data.tangent.T @ (op @ data.tangent)


def _block_stats(mat: np.ndarray, n1: int) -> dict:
    b1, b2 = mat[:n1, :n1], mat[n1:, n1:]
    return {
        "trace": float(np.trace(mat)),
        "trace_1": float(np.trace(b1)),
        "trace_2": float(np.trace(b2)),
        "norm_sq": float(np.sum(mat**2)),
        "norm_sq_1": float(np.sum(b1**2)),
        "norm_sq_2": float(np.sum(b2**2)),
    }


def a_xi_identity(data: PointwiseImmersionData) -> dict:
    """Compare the xi-component of sigma with the tangential part of phi h.

    Returns the max entry residual together with the restricted traces and
    squared norms of h^T and A_xi over the two warped blocks (the quantities
    the contact inequalities consume).
    """
    frame = _require_contact(data)
    w = frame.xi @ data.normal  # xi in normal-frame coordinates
    a_from_sigma = np.einsum("r,rij->ij", w, data.sigma)
    a_geometric = tangential_operator(data, frame.phi @ frame.h)
    h_tan = tangential_operator(data, frame.h)
    residual = float(np.max(np.abs(a_from_sigma - a_geometric)))
    return {
        "residual": residual,
        "a_xi": a_geometric,
        "a_xi_from_sigma": a_from_sigma,
        "h_tan": h_tan,
        "h_stats": _block_stats(h_tan, data.n1),
        "a_stats": _block_stats(a_geometric, data.n1),
    }


def is_mixed_totally_geodesic(
    data: PointwiseImmersionData, tol: float = DEFAULT_TOLERANCE.algebraic
) -> bool:
    """True iff sigma vanishes on all cross-block pairs."""
    return float(np.max(np.abs(data.sigma[:, : data.n1, data.n1 :]))) < tol


# ---------------------------------------------------------------------------
# synthetic data generators
# ---------------------------------------------------------------------------


def symmetric_random_sigma(
    rng: np.random.Generator, num_normals: int, n: int, scale: float = 1.0
) -> np.ndarray:
    raw = rng.normal(scale=scale, size=(num_normals, n, n))
    return 0.5 * (raw + raw.transpose(0, 2, 1))


def balance_for_equality(sigma: np.ndarray, n1: int) -> np.ndarray:
    """Project sigma onto the equality class: zero cross blocks and equal
    block traces per normal direction."""
    out = sigma.copy()
    n = sigma.shape[1]
    n2 = n - n1
    out[:, :n1, n1:] = 0.0
    out[:, n1:, :n1] = 0.0
    for r in range(out.shape[0]):
        tr1 = float(np.trace(out[r, :n1, :n1]))
        tr2 = float(np.trace(out[r, n1:, n1:]))
        shift = (tr1 - tr2) / n2
        out[r, n1:, n1:] += shift * np.eye(n2)
    return out


def force_xi_consistency(
    sigma: np.ndarray, data_frame: tuple[np.ndarray, np.ndarray], contact: ContactFrame
) -> np.ndarray:
    """Correct sigma so its xi-component equals the tangential part of phi h."""
    tangent, normal = data_frame
    w = contact.xi @ normal
    target = tangent.T @ (contact.phi @ (contact.h @ tangent))
    target = 0.5 * (target + target.T)
    current = np.einsum("r,rij->ij", w, sigma)
    out = sigma + np.einsum("r,ij->rij", w, target - current)
    return out


def complete_normal_frame(tangent: np.ndarray, gram: np.ndarray | None = None) -> np.ndarray:
    """Deterministic completion of a tangent frame by the standard basis,
    orthonormal for the metric `gram` (identity when omitted).

    One pass over the candidates: the tangent columns, then e_0, e_1, ... .
    Each candidate is projected against the frame accepted so far with one
    matrix product, and the projection is repeated once (classical
    Gram-Schmidt with one re-orthogonalization).  A remainder of `gram`-norm
    at least 1e-8 is normalized and accepted; a smaller one is skipped, or
    raises ImmersionDegeneracyError for a tangent column (dependent tangent).
    Each normal column has its largest-magnitude entry positive.  Raises
    NumericalDomainError on non-finite input and ImmersionDegeneracyError
    when the frame cannot be completed.
    """
    tangent = as_matrix(tangent)
    d, n = tangent.shape
    g = np.eye(d) if gram is None else as_matrix(gram, d, d)
    if n >= d:
        raise ImmersionDegeneracyError(f"{n} tangent vectors leave no normal direction in R^{d}")
    candidates = np.vstack([tangent.T, np.eye(d)])
    # accepted vectors u as rows of `frame`, with the rows u^T g beside them
    frame, gframe = np.empty((d, d)), np.empty((d, d))
    k = 0
    for j, cand in enumerate(candidates):
        if k == d:
            break
        accepted, gaccepted = frame[:k], gframe[:k]
        w = cand - np.dot(np.dot(gaccepted, cand), accepted)
        w -= np.dot(np.dot(gaccepted, w), accepted)
        wg = np.dot(w, g)
        norm = math.sqrt(max(float(np.dot(wg, w)), 0.0))
        if norm >= 1e-8:
            frame[k], gframe[k] = w / norm, wg / norm
            k += 1
        elif j < n:
            raise ImmersionDegeneracyError(f"tangent column {j} depends on the previous ones")
    if k != d:
        raise ImmersionDegeneracyError("failed to complete the normal frame")
    normal = frame[n:].T
    # deterministic sign: largest-magnitude entry positive
    peak = normal[np.argmax(np.abs(normal), axis=0), np.arange(d - n)]
    return normal * np.where(peak < 0.0, -1.0, 1.0)


def random_data(
    rng: np.random.Generator,
    ambient: AmbientSpace,
    n1: int,
    n2: int,
    sigma_scale: float = 1.0,
    frame_kind: str = "generic",
) -> PointwiseImmersionData:
    """Random PointwiseImmersionData over an ambient model.

    frame_kind: 'generic' (any orthonormal frame), 'c-totally-real'
    (anti-invariant, xi normal) or 'dplus' (inside the positive h-eigenspace);
    the last two require a contact ambient.
    """
    n = n1 + n2
    d = ambient.dim
    if n >= d:
        raise InvalidConfigurationError("need codimension >= 1")
    if frame_kind == "generic":
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        tangent, normal = q[:, :n], q[:, n:]
    elif frame_kind == "c-totally-real":
        tangent = c_totally_real_frame(rng, _frame_of(ambient), n)
        normal = complete_normal_frame(tangent)
    elif frame_kind == "dplus":
        tangent = dplus_frame(_frame_of(ambient), n)
        normal = complete_normal_frame(tangent)
    else:
        raise InvalidInputError(f"unknown frame kind {frame_kind!r}")
    sigma = symmetric_random_sigma(rng, d - n, n, sigma_scale)
    return PointwiseImmersionData(
        n1=n1,
        n2=n2,
        tangent=tangent,
        normal=normal,
        sigma=sigma,
        oracle=ambient.oracle,
        contact=ambient.frame,
        label=f"random-{frame_kind}",
    )


def _frame_of(ambient: AmbientSpace) -> ContactFrame:
    if ambient.frame is None:
        raise InvalidConfigurationError(f"{ambient.kind} ambient carries no contact frame")
    return ambient.frame


def c_totally_real_frame(
    rng: np.random.Generator, frame: ContactFrame, n: int
) -> np.ndarray:
    """Random anti-invariant tangent frame orthogonal to xi.

    Columns are built from a complex matrix with orthonormal columns: the
    real/imaginary parts populate the u_i / phi u_i slots, which makes the
    span automatically orthonormal and phi-anti-invariant.
    """
    m = frame.m
    if n > m:
        raise InvalidConfigurationError(f"anti-invariance requires n <= m (n={n}, m={m})")
    z = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    q, _ = np.linalg.qr(z)
    tangent = np.zeros((frame.dim, n))
    tangent[1 : m + 1, :] = q.real
    tangent[m + 1 :, :] = q.imag
    return tangent


def dplus_frame(frame: ContactFrame, n: int) -> np.ndarray:
    """Tangent frame spanned by the first n positive h-eigenvectors."""
    if n > frame.m:
        raise InvalidConfigurationError(f"the positive eigenspace has dimension {frame.m}")
    tangent = np.zeros((frame.dim, n))
    for j in range(n):
        tangent[1 + j, j] = 1.0
    return tangent


# ---------------------------------------------------------------------------
# chart immersions
# ---------------------------------------------------------------------------


@dataclass
class ChartImmersion:
    """Map from an n-dim source chart into an ambient chart."""

    map: Callable[[np.ndarray], np.ndarray]
    ambient: ChartMetric
    n1: int
    n2: int
    warped: WarpedProductChart | None = None
    label: str = ""
    default_point: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.n1 + self.n2


def _jacobian(im: ChartImmersion, p: np.ndarray, h: float) -> np.ndarray:
    d = im.ambient.dim
    n = im.n
    J = np.empty((d, n))
    for a in range(n):
        ha = h * max(1.0, abs(float(p[a])))
        pp, pm = p.copy(), p.copy()
        pp[a] += ha
        pm[a] -= ha
        J[:, a] = (np.asarray(im.map(pp)) - np.asarray(im.map(pm))) / (2.0 * ha)
    return J


def pullback_metric(im: ChartImmersion) -> ChartMetric:
    """Induced metric J^T g~ J on the source chart, with a central-difference
    Jacobian (step 1e-4)."""

    def g(u: np.ndarray) -> np.ndarray:
        J = _jacobian(im, np.asarray(u, float), 1e-4)
        gx = im.ambient.at(np.asarray(im.map(u), float))
        return J.T @ gx @ J

    return ChartMetric(im.n, g)


def second_fundamental_form(
    im: ChartImmersion,
    p: np.ndarray,
    h: float = DEFAULT_TOLERANCE.finite_difference,
) -> PointwiseImmersionData:
    """Adapted frame and second-fundamental-form components at p.

    The tangent frame orthonormalizes the pushed-forward coordinate basis
    (preserving the leaf/fibre split), the normal frame completes it from the
    ambient coordinate directions, and sigma is the normal part of the ambient
    acceleration of the immersion.  Downstream components live in the adapted
    frame, where the effective metric is the identity.
    """
    p = as_vector(p, im.n)
    x = np.asarray(im.map(p), dtype=float)
    d, n = im.ambient.dim, im.n
    J = _jacobian(im, p, h)
    gx = im.ambient.at(x)
    gram = J.T @ gx @ J
    evals, _ = sym_eigen(gram, tol=1e-6)
    if evals[0] < 1e-10:
        raise ImmersionDegeneracyError(
            f"Jacobian rank-deficient at {p}: min Gram eigenvalue {evals[0]:.3e}"
        )

    # Gram-Schmidt on pushforwards, tracking source-coordinate coefficients
    # through an augmented tail that the inner product ignores.
    augmented = [np.concatenate([J[:, a], np.eye(n)[a]]) for a in range(n)]
    ortho = gram_schmidt(augmented, inner=lambda u, v: float(u[:d] @ gx @ v[:d]), tol=1e-8)
    tangent_ambient = np.column_stack([w[:d] for w in ortho])
    coeff = np.column_stack([w[d:] for w in ortho])  # e_i = sum_a coeff[a,i] d_a

    # complete to an ambient-orthonormal frame with coordinate directions
    normal_ambient = complete_normal_frame(tangent_ambient, gram=gx)

    # ambient acceleration S_ab = d_a d_b x + Gamma~(J_a, J_b)
    gamma = christoffel(im.ambient, x)
    d2 = np.empty((n, n, d))
    for a in range(n):
        for b in range(a, n):
            d2[a, b] = d2[b, a] = cross_diff(im.map, p, a, b, h)
    S = d2 + np.einsum("kij,ia,jb->abk", gamma, J, J)

    # normal components, then transform source-coordinate indices to the frame
    sigma_coord = np.einsum("abk,kl,lr->rab", S, gx, normal_ambient)
    sigma = np.einsum("ai,bj,rab->rij", coeff, coeff, sigma_coord)
    asymmetry = float(np.max(np.abs(sigma - sigma.transpose(0, 2, 1))))
    sigma = 0.5 * (sigma + sigma.transpose(0, 2, 1))

    # ambient curvature at x, rotated into the adapted frame
    full_frame = np.column_stack([tangent_ambient, normal_ambient])
    oracle = CurvatureOracle("chart-numeric", riemann(im.ambient, x).riemann04).rotated(full_frame)

    eye = np.eye(d)
    return PointwiseImmersionData(
        n1=im.n1,
        n2=im.n2,
        tangent=eye[:, :n],
        normal=eye[:, n:],
        sigma=sigma,
        oracle=oracle,
        contact=None,
        label=im.label,
        extras={
            "point": p,
            "ambient_point": x,
            "tangent_ambient": tangent_ambient,
            "normal_ambient": normal_ambient,
            "frame_coefficients": coeff,
            "sigma_asymmetry": asymmetry,
        },
    )


# ---------------------------------------------------------------------------
# named immersions
# ---------------------------------------------------------------------------


def _spherical_point(angles: np.ndarray) -> np.ndarray:
    """Unit vector in R^{k+1} from k nested angles."""
    k = len(angles)
    out = np.empty(k + 1)
    acc = 1.0
    for i in range(k):
        out[i] = acc * np.cos(angles[i])
        acc *= np.sin(angles[i])
    out[k] = acc
    return out


def sphere_in_euclidean(n: int = 2) -> ChartImmersion:
    """Unit sphere S^n in R^{n+1} as the warped chart (-pi/2,pi/2) x_{cos t} S^{n-1}."""
    if n < 2:
        raise InvalidInputError("need n >= 2")

    def mapping(u: np.ndarray) -> np.ndarray:
        t = u[0]
        fibre = _spherical_point(u[1:])
        return np.concatenate([[np.sin(t)], np.cos(t) * fibre])

    eye = np.eye(n + 1)
    zeros = np.zeros((n + 1, n + 1, n + 1))
    ambient = ChartMetric(n + 1, lambda x: eye, lambda x: zeros)
    return ChartImmersion(
        map=mapping,
        ambient=ambient,
        n1=1,
        n2=n - 1,
        warped=sphere_chart(n2=n - 1),
        label=f"sphere-in-euclidean({n})",
        default_point=np.array([0.3] + [0.8] * (n - 1)),
    )


def plane_immersion() -> ChartImmersion:
    """Affine 2-plane in R^3 (totally geodesic)."""
    eye = np.eye(3)
    zeros = np.zeros((3, 3, 3))
    ambient = ChartMetric(3, lambda x: eye, lambda x: zeros)
    return ChartImmersion(
        map=lambda u: np.array([u[0], u[1], 0.0]),
        ambient=ambient,
        n1=1,
        n2=1,
        warped=flat_product_chart(),
        label="plane",
        default_point=np.array([0.2, -0.4]),
    )


def cylinder_immersion() -> ChartImmersion:
    """Unit cylinder in R^3: principal curvatures (1, 0), |H| = 1/2."""
    eye = np.eye(3)
    zeros = np.zeros((3, 3, 3))
    ambient = ChartMetric(3, lambda x: eye, lambda x: zeros)
    return ChartImmersion(
        map=lambda u: np.array([np.cos(u[1]), np.sin(u[1]), u[0]]),
        ambient=ambient,
        n1=1,
        n2=1,
        warped=flat_product_chart(),
        label="cylinder",
        default_point=np.array([0.1, 0.7]),
    )


def dplus_leaf(
    m: int, kappa: float, mu: float, n1: int = 1, n2: int = 1
) -> PointwiseImmersionData:
    """Totally geodesic leaf of the positive h-eigendistribution (sigma = 0)."""
    ambient = make_ambient("non-sasakian-kmu", m=m, kappa=kappa, mu=mu)
    return dplus_leaf_in(ambient, n1, n2, label=f"dplus-leaf(m={m},kappa={kappa},mu={mu})")


def dplus_leaf_in(
    ambient: AmbientSpace, n1: int = 1, n2: int = 1, label: str = "dplus-leaf"
) -> PointwiseImmersionData:
    """The dplus leaf drawn inside a given contact ambient."""
    tangent = dplus_frame(_frame_of(ambient), n1 + n2)
    return PointwiseImmersionData(
        n1=n1,
        n2=n2,
        tangent=tangent,
        normal=complete_normal_frame(tangent),
        sigma=np.zeros((ambient.dim - n1 - n2, n1 + n2, n1 + n2)),
        oracle=ambient.oracle,
        contact=ambient.frame,
        label=label,
    )


def chart_immersion_catalog() -> dict[str, Callable[..., ChartImmersion]]:
    return {
        "sphere-in-euclidean": sphere_in_euclidean,
        "plane": plane_immersion,
        "cylinder": cylinder_immersion,
    }
