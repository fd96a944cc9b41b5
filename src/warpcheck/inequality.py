"""The curvature inequality engine.

Implements the quadratic trace lemma, the proof-level decomposition of the
second fundamental form, the general warped-product inequality

    n2 * (Delta f / f) <= n^2/4 |H|^2 + tau~(T_pM) - tau~(T_pM_1) - tau~(T_pM_2),

its two contact specializations and the nonexistence / warped-product
obstruction verdicts.  All reports are normalized to Delta f / f units (the
general statement divided by n2), so the general and specialized right-hand
sides are directly comparable.

For pointwise-algebraic data the left-hand side is the Gauss-equation proxy
n2 * Delta f / f := tau(p) - tau(T_pM_1) - tau(T_pM_2), with the intrinsic
scalar curvatures reconstructed from the ambient model and sigma.  For chart
data callers may pass the genuine Delta f / f computed on the first factor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .charts import laplacian
from .errors import (
    InadmissibleTupleError,
    InvalidConfigurationError,
    InvalidInputError,
    SingularParameterError,
)
from .immersion import (
    ChartImmersion,
    MeanCurvatureRecord,
    PointwiseImmersionData,
    a_xi_identity,
    intrinsic_kij,
    is_C_totally_real,
    is_mixed_totally_geodesic,
    mean_curvatures,
    second_fundamental_form,
)
from .numeric import DEFAULT_TOLERANCE

__all__ = [
    "chen_lemma",
    "ProofDecomposition",
    "decompose",
    "InequalityReport",
    "general_inequality",
    "kmu_space_form_inequality",
    "non_sasakian_inequality",
    "NONEXISTENCE",
    "WARPED_PRODUCT_IMMERSION",
    "UNOBSTRUCTED",
    "obstruction_check",
    "chart_inequality",
]

ALGEBRAIC_EQUALITY_TOL = 1e-8
CHART_EQUALITY_TOL = 1e-3


def chen_lemma(a: Sequence[float], b: float, tol: float = 1e-9) -> dict:
    """Quadratic trace lemma: if (sum a_i)^2 = (l-1)(sum a_i^2 + b) with
    l >= 2, then 2 a_1 a_2 >= b, with equality iff a_1 + a_2 = a_3 = ... = a_l.

    Raises InadmissibleTupleError when the constraint fails beyond `tol`
    (scaled by the tuple magnitude).  Returns the constraint residual, the
    inequality slack and both equality detectors.
    """
    a = [float(v) for v in a]
    ell = len(a)
    if ell < 2:
        raise InvalidInputError("need at least two values")
    s = sum(a)
    sq = sum(v * v for v in a)
    residual = abs(s * s - (ell - 1) * (sq + b))
    scale = max(1.0, s * s, abs(b))
    if residual > tol * scale:
        raise InadmissibleTupleError(
            f"constraint violated: residual {residual:.3e} (scale {scale:.3e})"
        )
    slack = 2.0 * a[0] * a[1] - b
    tail = [a[0] + a[1]] + a[2:]
    tail_dev = max(abs(v - tail[0]) for v in tail)
    return {
        "constraint_residual": residual,
        "holds": slack >= -tol * scale,
        "slack": slack,
        "equality": abs(slack) <= tol * scale,
        "tail_condition": tail_dev <= tol * max(1.0, max(abs(v) for v in tail)),
        "tail_deviation": tail_dev,
    }


@dataclass
class ProofDecomposition:
    """Trace decomposition of sigma in the frame whose first normal direction
    is parallel to the mean curvature vector."""

    delta: float
    a1: float
    a2: float
    a3: float
    b: float
    ai_residual: float
    lemma_slack: float
    lemma_equality: bool
    trace_residuals: list[float]
    rotated_sigma: np.ndarray


@functools.cache
def _triu(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Strict upper-triangle index pairs of an n x n table, built on first use
    and shared read-only."""
    iu = np.triu_indices(n, k=1)
    for a in iu:
        a.flags.writeable = False
    return iu


def _rotate_normal_frame(sigma: np.ndarray, rec: MeanCurvatureRecord) -> np.ndarray:
    """Sigma components after rotating the normal frame so that the first
    direction is parallel to H; identity rotation when H = 0."""
    k = sigma.shape[0]
    if rec.norm_H < 1e-14 or k == 1:
        return sigma.copy()
    first = rec.components / np.linalg.norm(rec.components)
    # QR of [H | I] yields an orthonormal basis whose first vector follows H
    rot = np.linalg.qr(np.column_stack([first, np.eye(k)]))[0][:, :k]
    if rot[:, 0] @ first < 0.0:
        rot = -rot
    return np.einsum("sr,sij->rij", rot, sigma)


def _trace_conditions(rotated_sigma: np.ndarray, n1: int) -> list[float]:
    """Per-direction residuals of the block-trace conditions in the frame
    whose first normal direction follows H: |tr1 - tr2| along H, then
    max(|tr1|, |tr2|) for the remaining directions."""
    diag = np.einsum("rii->ri", rotated_sigma)
    tr1 = diag[:, :n1].sum(axis=1)
    tr2 = diag[:, n1:].sum(axis=1)
    out = [abs(float(tr1[0] - tr2[0]))]
    out.extend(max(abs(float(a)), abs(float(b))) for a, b in zip(tr1[1:], tr2[1:]))
    return out


def decompose(
    data: PointwiseImmersionData, tau_p: float | None = None
) -> ProofDecomposition:
    """Proof-level decomposition feeding the trace lemma with l = 3.

    tau_p defaults to the Gauss-equation intrinsic scalar curvature; a
    chart-computed value may be supplied instead.
    """
    n, n1 = data.n, data.n1
    kij = data.ambient_kij()
    rec = mean_curvatures(data)
    sigma = _rotate_normal_frame(data.sigma, rec)
    iu = _triu(n)
    if tau_p is None:
        tau_p = float(intrinsic_kij(data, ambient=kij)[iu].sum())
    tau_ambient = float(kij[iu].sum())
    nh2 = n * n * rec.norm_H**2
    delta = 0.5 * (4.0 * tau_p - 4.0 * tau_ambient - nh2)

    diag0 = np.diag(sigma[0])
    a1 = float(diag0[0])
    a2 = float(diag0[1:n1].sum())
    a3 = float(diag0[n1:].sum())

    off0 = float(np.sum(sigma[0] ** 2) - np.sum(diag0**2))
    rest = float(np.sum(sigma[1:] ** 2))
    pair1 = float(np.sum(np.outer(diag0[1:n1], diag0[1:n1])) - np.sum(diag0[1:n1] ** 2))
    pair2 = float(np.sum(np.outer(diag0[n1:], diag0[n1:])) - np.sum(diag0[n1:] ** 2))
    b = delta + off0 + rest - pair1 - pair2

    total = a1 + a2 + a3
    ai_residual = abs(total * total - 2.0 * (a1 * a1 + a2 * a2 + a3 * a3 + b))
    slack = 2.0 * a1 * a2 - b

    return ProofDecomposition(
        delta=delta,
        a1=a1,
        a2=a2,
        a3=a3,
        b=b,
        ai_residual=ai_residual,
        lemma_slack=slack,
        lemma_equality=abs(a1 + a2 - a3) < 1e-9 * max(1.0, abs(a3)),
        trace_residuals=_trace_conditions(sigma, n1),
        rotated_sigma=sigma,
    )


@dataclass(eq=False)
class _EqualityDiagnostics:
    """Inputs of the equality diagnostics, kept when a report is built (sigma
    is a copy: callers may change data.sigma afterwards).  The dict, with the
    QR-rotated trace conditions, is built on first read of `table`."""

    mixed_totally_geodesic: bool
    sigma: np.ndarray
    rec: MeanCurvatureRecord
    n1: int
    tol: float

    @functools.cached_property
    def table(self) -> dict:
        diag = np.einsum("rii->ri", self.sigma)
        tr1 = diag[:, : self.n1].sum(axis=1)  # n1 * H1 in the normal frame
        tr2 = diag[:, self.n1 :].sum(axis=1)
        partial_residual = float(np.max(np.abs(tr1 - tr2)))
        rotated = _rotate_normal_frame(self.sigma, self.rec)
        return {
            "mixed_totally_geodesic": self.mixed_totally_geodesic,
            "partial_mean_equal": partial_residual < self.tol,
            "partial_mean_residual": partial_residual,
            "trace_conditions": _trace_conditions(rotated, self.n1),
        }


@dataclass
class InequalityReport:
    """Both sides of a warped-product curvature inequality plus the equality
    diagnostics; values are in Delta f / f units.  The diagnostics dict,
    trace conditions included, is computed on first read from a copy of sigma
    taken when the report was built, and shared with the specialized reports
    built on it."""

    name: str
    lhs: float
    rhs: float
    gap: float
    equality: bool
    mean_term: float
    ambient_term: float
    norm_H: float
    n1: int
    n2: int
    equality_tol: float
    _diagnostics: _EqualityDiagnostics = field(repr=False, compare=False)
    verdict: str | None = None
    extras: dict = field(default_factory=dict)

    @property
    def diagnostics(self) -> dict:
        return self._diagnostics.table


def _rebased(report: InequalityReport, lhs: float, rhs: float, **changes) -> InequalityReport:
    """Copy of `report` with new sides, its gap and equality flag recomputed."""
    gap = rhs - lhs
    return replace(
        report, lhs=lhs, rhs=rhs, gap=gap, equality=abs(gap) < report.equality_tol, **changes
    )


def general_inequality(
    data: PointwiseImmersionData,
    lhs: float | None = None,
    equality_tol: float = ALGEBRAIC_EQUALITY_TOL,
) -> InequalityReport:
    """The inequality for an arbitrary ambient model.

    rhs = n^2/(4 n2) |H|^2 + [tau~(T_pM) - tau~(T_pM_1) - tau~(T_pM_2)] / n2;
    lhs defaults to the Gauss-equation proxy.  Equality holds exactly when the
    immersion data is mixed totally geodesic with n1 H1 = n2 H2.
    """
    n, n1, n2 = data.n, data.n1, data.n2
    kij = data.ambient_kij()
    tau_full = float(kij[_triu(n)].sum())
    tau_1 = float(kij[:n1, :n1][_triu(n1)].sum())
    tau_2 = float(kij[n1:, n1:][_triu(n2)].sum())
    rec = mean_curvatures(data)
    mean_term = n * n / (4.0 * n2) * rec.norm_H**2
    ambient_term = (tau_full - tau_1 - tau_2) / n2
    rhs = mean_term + ambient_term
    if lhs is None:
        # Gauss-equation proxy: the mixed-pair intrinsic curvatures, built on
        # the ambient table above
        lhs_val = float(intrinsic_kij(data, ambient=kij)[:n1, n1:].sum()) / n2
    else:
        lhs_val = float(lhs)
    gap = rhs - lhs_val
    return InequalityReport(
        name="general_inequality",
        lhs=lhs_val,
        rhs=rhs,
        gap=gap,
        equality=abs(gap) < equality_tol,
        mean_term=mean_term,
        ambient_term=ambient_term,
        norm_H=rec.norm_H,
        n1=n1,
        n2=n2,
        equality_tol=equality_tol,
        _diagnostics=_EqualityDiagnostics(
            is_mixed_totally_geodesic(data, equality_tol), data.sigma.copy(), rec, n1, equality_tol
        ),
    )


def _contact_rhs_inputs(data: PointwiseImmersionData):
    ok, residuals = is_C_totally_real(data)
    if not ok:
        raise InvalidConfigurationError(
            f"data is not C-totally real: residuals {residuals}"
        )
    stats = a_xi_identity(data)
    return stats["h_stats"], stats["a_stats"]


def _specialized(
    general: InequalityReport, name: str, curvature_term: float, **extras
) -> InequalityReport:
    """A contact specialization: its own curvature term in place of the
    general ambient term, on the general report's lhs, mean term and
    diagnostics, with the rhs cross-check in the extras."""
    rhs = general.mean_term + curvature_term
    extras.update(rhs_general=general.rhs, rhs_cross_residual=abs(rhs - general.rhs))
    return _rebased(general, general.lhs, rhs, name=name, ambient_term=curvature_term, extras=extras)


def kmu_space_form_inequality(
    data: PointwiseImmersionData,
    c: float | None = None,
    lhs: float | None = None,
    equality_tol: float = ALGEBRAIC_EQUALITY_TOL,
) -> InequalityReport:
    """Specialized right-hand side for a constant-phi-sectional-curvature
    contact ambient, in terms of the restricted traces of h^T and A_xi.

    Cross-checks its RHS against the general inequality evaluated with the
    same ambient oracle (stored as extras['rhs_cross_residual']).
    """
    frame = data.contact
    if frame is None:
        raise InvalidConfigurationError("contact frame required")
    if c is None:
        c = frame.c
    if c is None:
        raise InvalidInputError("phi-sectional curvature c required")
    hs, As = _contact_rhs_inputs(data)
    n1, n2 = data.n1, data.n2
    bracket = (
        hs["trace"] ** 2 - hs["trace_1"] ** 2 - hs["trace_2"] ** 2
        - As["trace"] ** 2 + As["trace_1"] ** 2 + As["trace_2"] ** 2
        - hs["norm_sq"] + hs["norm_sq_1"] + hs["norm_sq_2"]
        + As["norm_sq"] - As["norm_sq_1"] - As["norm_sq_2"]
    )
    curvature_term = (
        0.25 * n1 * (c + 3.0)
        + hs["trace_1"]
        + (n1 / n2) * hs["trace_2"]
        + bracket / (4.0 * n2)
    )
    general = general_inequality(data, lhs=lhs, equality_tol=equality_tol)
    return _specialized(general, "kmu_space_form_inequality", curvature_term, c=c)


def non_sasakian_inequality(
    data: PointwiseImmersionData,
    lhs: float | None = None,
    equality_tol: float = ALGEBRAIC_EQUALITY_TOL,
) -> InequalityReport:
    """Specialized right-hand side for an ambient whose curvature is
    determined by (kappa, mu) with kappa < 1.

    The A_xi bracket groups carry the signs forced by the ambient curvature
    tensor (so that this RHS is exactly the general one), which flips the
    A_xi groups relative to the h^T groups.
    """
    frame = data.contact
    if frame is None:
        raise InvalidConfigurationError("contact frame required")
    kappa, mu = frame.kappa, frame.mu
    if kappa > 1.0 - 1e-8:
        raise SingularParameterError("non-Sasakian inequality needs kappa < 1")
    hs, As = _contact_rhs_inputs(data)
    n1, n2 = data.n1, data.n2
    e1 = (1.0 - mu / 2.0) / (1.0 - kappa)
    e2 = (kappa - mu / 2.0) / (1.0 - kappa)
    trace_group_h = hs["trace"] ** 2 - hs["trace_1"] ** 2 - hs["trace_2"] ** 2
    trace_group_a = As["trace"] ** 2 - As["trace_1"] ** 2 - As["trace_2"] ** 2
    norm_group_h = hs["norm_sq"] - hs["norm_sq_1"] - hs["norm_sq_2"]
    norm_group_a = As["norm_sq"] - As["norm_sq_1"] - As["norm_sq_2"]
    curvature_term = (
        n1 * (1.0 - mu / 2.0)
        + hs["trace_1"]
        + (n1 / n2) * hs["trace_2"]
        + e1 / (2.0 * n2) * trace_group_h
        + e2 / (2.0 * n2) * trace_group_a
        - e1 / (2.0 * n2) * norm_group_h
        - e2 / (2.0 * n2) * norm_group_a
    )
    general = general_inequality(data, lhs=lhs, equality_tol=equality_tol)
    return _specialized(general, "non_sasakian_inequality", curvature_term, kappa=kappa, mu=mu)


NONEXISTENCE = "NONEXISTENCE"
WARPED_PRODUCT_IMMERSION = "WARPED_PRODUCT_IMMERSION"
UNOBSTRUCTED = "UNOBSTRUCTED"


def obstruction_check(
    report: InequalityReport,
    harmonic: bool = False,
    eigenvalue: float | None = None,
    minimal: bool = False,
    tol: float = 1e-8,
) -> str:
    """Existence verdict for minimal immersions with harmonic or eigenfunction
    warping.

    With a minimal immersion the inequality forces Delta f / f <= curvature
    term; a harmonic warping (lhs 0) facing a negative curvature term, or a
    positive eigenvalue facing a non-positive one, is a contradiction
    (NONEXISTENCE).  A harmonic warping with vanishing curvature term pins the
    equality case, which flags the immersion as a warped-product immersion
    (flag only; the decomposition theorem is cited, not re-proved).
    """
    if harmonic and eigenvalue is not None:
        raise InvalidConfigurationError("harmonic and eigenvalue flags are exclusive")
    if not harmonic and eigenvalue is None:
        raise InvalidConfigurationError("need the harmonic flag or an eigenvalue")
    if eigenvalue is not None and eigenvalue <= 0.0:
        raise InvalidConfigurationError("eigenvalue must be positive")
    if not minimal:
        raise InvalidConfigurationError("obstruction verdicts apply to minimal immersions")
    if report.norm_H > 1e-6:
        raise InvalidConfigurationError(
            f"minimal flag inconsistent with |H| = {report.norm_H:.3e}"
        )
    curvature_term = report.rhs - report.mean_term
    lhs_required = 0.0 if harmonic else float(eigenvalue)
    if lhs_required > curvature_term + tol:
        return NONEXISTENCE
    if harmonic and abs(curvature_term) <= tol:
        return WARPED_PRODUCT_IMMERSION
    return UNOBSTRUCTED


def chart_inequality(
    im: ChartImmersion,
    p: np.ndarray,
    equality_tol: float = CHART_EQUALITY_TOL,
    h: float = DEFAULT_TOLERANCE.finite_difference,
) -> InequalityReport:
    """Run the general inequality on a chart immersion of a warped chart.

    Produces both left-hand sides (the genuine Delta f / f on the first factor
    and the Gauss-equation proxy) and reports their agreement.  `h` is the
    finite-difference step of the second fundamental form.
    """
    if im.warped is None:
        raise InvalidConfigurationError("chart immersion carries no warped structure")
    data = second_fundamental_form(im, p, h=h)
    wp = im.warped
    x1 = np.asarray(p, dtype=float)[: wp.n1]
    f = wp.warp.value(x1)
    lap = laplacian(
        wp.factor1, lambda q: wp.warp.value(q), x1, grad=wp.warp.grad, hess=wp.warp.hess
    )
    lhs_chart = lap / f
    proxy = general_inequality(data, equality_tol=equality_tol)
    agreement = abs(lhs_chart - proxy.lhs)
    extras = {"lhs_chart": lhs_chart, "lhs_proxy": proxy.lhs, "lhs_agreement": agreement}
    return _rebased(proxy, float(lhs_chart), proxy.rhs, extras=extras)
