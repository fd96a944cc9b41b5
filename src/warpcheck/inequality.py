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
    PointwiseStack,
    _gauss_correction,
    _triu_flat,
    _triu_sum,
    a_xi_identity,
    intrinsic_kij,
    is_C_totally_real,
    is_mixed_totally_geodesic,
    mean_curvatures,
    second_fundamental_form,
)
from .numeric import qr_q

__all__ = [
    "chen_lemma",
    "ProofDecomposition",
    "decompose",
    "decompose_stack",
    "InequalityReport",
    "InequalityStack",
    "general_inequality",
    "general_inequality_stack",
    "kmu_space_form_inequality",
    "kmu_space_form_inequality_stack",
    "non_sasakian_inequality",
    "non_sasakian_inequality_stack",
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
    is parallel to the mean curvature vector.  For one sample the numbers are
    floats and trace_residuals a list; decompose_stack gives (N,) arrays,
    trace_residuals (N, k) and rotated_sigma (N, k, n, n), and row(i) is
    sample i."""

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

    def row(self, i: int) -> "ProofDecomposition":
        """Sample i of a decompose_stack result."""
        numbers = (self.delta, self.a1, self.a2, self.a3, self.b)
        numbers += (self.ai_residual, self.lemma_slack, self.lemma_equality)
        return ProofDecomposition(
            *(v[i].item() for v in numbers),
            trace_residuals=self.trace_residuals[i].tolist(),
            rotated_sigma=self.rotated_sigma[i],
        )


@functools.cache
def _tau_index(n: int, n1: int) -> tuple[np.ndarray, int, int]:
    """Flat indices into an (n, n) table of the pairs i < j, then of those
    inside the first block, then inside the second; with the two split
    points.  Built on first use per (n, n1) and shared read-only."""
    flat = [_triu_flat(n)]
    for lo, size in ((0, n1), (n1, n - n1)):
        i, j = np.divmod(_triu_flat(size), size)
        flat.append((i + lo) * n + j + lo)
    index = np.concatenate(flat)
    index.flags.writeable = False
    return index, len(flat[0]), len(flat[0]) + len(flat[1])


def _rotate_normal_frames(
    sigma: np.ndarray, norm_H: np.ndarray, components: np.ndarray
) -> np.ndarray:
    """Sigma components (N, k, n, n) after rotating each sample's normal frame
    so that the first direction is parallel to H; identity rotation where
    |H| < 1e-14 or k = 1.  The other rows get one stacked QR of [H | I]."""
    out = sigma.copy()
    k = sigma.shape[1]
    rows = np.flatnonzero(~(norm_H < 1e-14)) if k > 1 else np.empty(0, dtype=int)
    if rows.size:
        comp = components[rows]
        # the norm of each row as one BLAS dot, like np.linalg.norm of a vector
        first = comp / np.sqrt(np.matmul(comp[:, None, :], comp[:, :, None])[:, 0])
        # QR of [H | I] yields an orthonormal basis whose first vector follows H
        eye = np.broadcast_to(np.eye(k), (rows.size, k, k))
        rot = qr_q(np.concatenate([first[:, :, None], eye], axis=2))[:, :, :k]
        flip = np.matmul(rot[:, None, :, 0], first[:, :, None])[:, 0, 0] < 0.0
        rot[flip] = -rot[flip]
        out[rows] = np.einsum("...sr,...sij->...rij", rot, sigma[rows])
    return out


def _trace_conditions(rotated_sigma: np.ndarray, n1: int) -> np.ndarray:
    """Per-direction residuals of the block-trace conditions in the frame
    whose first normal direction follows H: |tr1 - tr2| along H, then
    max(|tr1|, |tr2|) for the remaining directions (last axis; leading axes
    are samples)."""
    diag = np.einsum("...rii->...ri", rotated_sigma)
    tr1 = diag[..., :n1].sum(axis=-1)
    tr2 = diag[..., n1:].sum(axis=-1)
    along_h = np.abs(tr1[..., :1] - tr2[..., :1])
    rest = np.maximum(np.abs(tr1[..., 1:]), np.abs(tr2[..., 1:]))
    return np.concatenate([along_h, rest], axis=-1)


def _partial_mean_residual(sigma: np.ndarray, n1: int) -> np.ndarray:
    """max_r |tr_1 sigma^r - tr_2 sigma^r|, i.e. |n1 H1 - n2 H2| in the max
    norm of the normal frame, per sample."""
    diag = np.einsum("...rii->...ri", sigma)
    return np.abs(diag[..., :n1].sum(axis=-1) - diag[..., n1:].sum(axis=-1)).max(axis=-1)


def decompose_stack(
    stack: PointwiseStack, tau_p: float | np.ndarray | None = None
) -> ProofDecomposition:
    """Proof-level decomposition feeding the trace lemma with l = 3, for
    every sample of a stack at once (the stack's K~ table, one stacked QR).

    tau_p defaults to the Gauss-equation intrinsic scalar curvature; a
    chart-computed value (or one per sample) may be supplied instead.
    """
    n, n1 = stack.n, stack.n1
    kij = stack.ambient_kij()
    rec = mean_curvatures(stack)
    sigma = _rotate_normal_frames(stack.sigma, rec.norm_H, rec.components)
    if tau_p is None:
        tau_p = _triu_sum(intrinsic_kij(stack, ambient=kij))
    tau_ambient = _triu_sum(kij)
    nh2 = n * n * rec.norm_H**2
    delta = 0.5 * (4.0 * tau_p - 4.0 * tau_ambient - nh2)

    diag0 = np.einsum("sii->si", sigma[:, 0])
    a1 = diag0[:, 0]
    a2 = diag0[:, 1:n1].sum(axis=1)
    a3 = diag0[:, n1:].sum(axis=1)

    def pair_sum(d):  # sum_{i != j} d_i d_j
        return (d[:, :, None] * d[:, None, :]).sum(axis=(1, 2)) - (d**2).sum(axis=1)

    off0 = (sigma[:, 0] ** 2).sum(axis=(1, 2)) - (diag0**2).sum(axis=1)
    rest = (sigma[:, 1:] ** 2).sum(axis=(1, 2, 3))
    b = delta + off0 + rest - pair_sum(diag0[:, 1:n1]) - pair_sum(diag0[:, n1:])

    total = a1 + a2 + a3
    return ProofDecomposition(
        delta=delta,
        a1=a1,
        a2=a2,
        a3=a3,
        b=b,
        ai_residual=np.abs(total * total - 2.0 * (a1 * a1 + a2 * a2 + a3 * a3 + b)),
        lemma_slack=2.0 * a1 * a2 - b,
        lemma_equality=np.abs(a1 + a2 - a3) < 1e-9 * np.maximum(1.0, np.abs(a3)),
        trace_residuals=_trace_conditions(sigma, n1),
        rotated_sigma=sigma,
    )


def _one_sample(data: PointwiseStack) -> PointwiseStack:
    """`data` when it holds one sample; InvalidInputError naming its length if not."""
    if len(data) != 1:
        raise InvalidInputError(f"expected a stack of one sample, got {len(data)} samples")
    return data


def decompose(data: PointwiseStack, tau_p: float | None = None) -> ProofDecomposition:
    """Proof-level decomposition of a stack of one, with float numbers."""
    return decompose_stack(_one_sample(data), tau_p).row(0)


@dataclass(eq=False)
class _EqualityDiagnostics:
    """Inputs of the equality diagnostics, kept when a report is built (sigma
    is a copy: callers may change data.sigma afterwards).  The dict, with the
    QR-rotated trace conditions, is built on first read of `table`; sigma and
    n1 are read as a sample's."""

    sigma: np.ndarray
    rec: MeanCurvatureRecord
    n1: int
    tol: float

    @functools.cached_property
    def table(self) -> dict:
        partial_residual = float(_partial_mean_residual(self.sigma, self.n1))
        rotated = _rotate_normal_frames(
            self.sigma[None], np.array([self.rec.norm_H]), self.rec.components[None]
        )
        return {
            "mixed_totally_geodesic": bool(is_mixed_totally_geodesic(self, self.tol)),
            "partial_mean_equal": partial_residual < self.tol,
            "partial_mean_residual": partial_residual,
            "trace_conditions": _trace_conditions(rotated[0], self.n1).tolist(),
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
    extras: dict = field(default_factory=dict)

    @property
    def diagnostics(self) -> dict:
        return self._diagnostics.table


@dataclass
class InequalityStack:
    """One inequality over every sample of a PointwiseStack: (N,) arrays of
    both sides, the gap and the mean and ambient terms, and the mean
    curvature record; extras hold the specialization's parameters and its
    per-sample rhs cross-check.  The equality predicates are computed on
    read, and report(i) builds sample i's InequalityReport, whose diagnostics
    are computed on first read."""

    name: str
    stack: PointwiseStack
    lhs: np.ndarray
    rhs: np.ndarray
    gap: np.ndarray
    mean_term: np.ndarray
    ambient_term: np.ndarray
    rec: MeanCurvatureRecord
    equality_tol: float
    extras: dict = field(default_factory=dict)

    @property
    def equality(self) -> np.ndarray:
        return np.abs(self.gap) < self.equality_tol

    @property
    def norm_H(self) -> np.ndarray:
        return self.rec.norm_H

    @property
    def mixed_totally_geodesic(self) -> np.ndarray:
        return is_mixed_totally_geodesic(self.stack, self.equality_tol)

    @property
    def partial_mean_equal(self) -> np.ndarray:
        """n1 H1 = n2 H2 per sample, the trace half of the equality case."""
        return _partial_mean_residual(self.stack.sigma, self.stack.n1) < self.equality_tol

    def report(self, i: int) -> InequalityReport:
        rec = self.rec
        row = MeanCurvatureRecord(
            rec.norm_H.item(i), rec.norm_H1.item(i), rec.norm_H2.item(i), rec.components[i]
        )
        gap = self.gap.item(i)
        extras = {}
        if self.extras:
            extras = {k: v.item(i) if isinstance(v, np.ndarray) else v for k, v in self.extras.items()}
        return InequalityReport(
            name=self.name,
            lhs=self.lhs.item(i),
            rhs=self.rhs.item(i),
            gap=gap,
            equality=abs(gap) < self.equality_tol,
            mean_term=self.mean_term.item(i),
            ambient_term=self.ambient_term.item(i),
            norm_H=row.norm_H,
            n1=self.stack.n1,
            n2=self.stack.n2,
            equality_tol=self.equality_tol,
            _diagnostics=_EqualityDiagnostics(
                self.stack.sigma[i].copy(),
                row,
                self.stack.n1,
                self.equality_tol,
            ),
            extras=extras,
        )


def _rebased(report: InequalityReport, lhs: float, rhs: float, **changes) -> InequalityReport:
    """Copy of `report` with new sides, its gap and equality flag recomputed."""
    gap = rhs - lhs
    return replace(
        report, lhs=lhs, rhs=rhs, gap=gap, equality=abs(gap) < report.equality_tol, **changes
    )


def general_inequality_stack(
    stack: PointwiseStack,
    lhs: float | np.ndarray | None = None,
    equality_tol: float = ALGEBRAIC_EQUALITY_TOL,
) -> InequalityStack:
    """The inequality for an arbitrary ambient model, on every sample of a
    stack, over the stack's K~ table (stack.ambient_kij).

    rhs = n^2/(4 n2) |H|^2 + [tau~(T_pM) - tau~(T_pM_1) - tau~(T_pM_2)] / n2;
    lhs defaults to the Gauss-equation proxy (a float or one value per sample
    may be supplied).  Equality holds exactly when the immersion data is
    mixed totally geodesic with n1 H1 = n2 H2.
    """
    n, n1, n2 = stack.n, stack.n1, stack.n2
    kij = stack.ambient_kij()
    index, s1, s2 = _tau_index(n, n1)
    # take keeps the rows C-ordered, so each row is summed in the order a
    # stack of one sums it (kij[:, index] is column-major)
    pairs = kij.reshape(len(kij), n * n).take(index, axis=1)
    tau_full = np.add.reduce(pairs[:, :s1], 1)
    tau_1 = np.add.reduce(pairs[:, s1:s2], 1)
    tau_2 = np.add.reduce(pairs[:, s2:], 1)
    rec = mean_curvatures(stack)
    mean_term = n * n / (4.0 * n2) * rec.norm_H**2
    ambient_term = (tau_full - tau_1 - tau_2) / n2
    rhs = mean_term + ambient_term
    if lhs is None:
        # Gauss-equation proxy: the mixed-pair intrinsic curvatures, the mixed
        # block of the ambient tables above plus its Gauss correction
        mixed = kij[:, :n1, n1:] + _gauss_correction(stack.sigma, slice(None, n1), slice(n1, None))
        lhs = np.add.reduce(mixed, (1, 2)) / n2
    else:
        lhs = np.broadcast_to(np.asarray(lhs, dtype=float), rhs.shape)
    return InequalityStack(
        name="general_inequality",
        stack=stack,
        lhs=lhs,
        rhs=rhs,
        gap=rhs - lhs,
        mean_term=mean_term,
        ambient_term=ambient_term,
        rec=rec,
        equality_tol=equality_tol,
    )


def general_inequality(
    data: PointwiseStack,
    lhs: float | None = None,
    equality_tol: float = ALGEBRAIC_EQUALITY_TOL,
) -> InequalityReport:
    """The inequality for an arbitrary ambient model on a stack of one, as a
    report with float numbers."""
    return general_inequality_stack(_one_sample(data), lhs, equality_tol).report(0)


def _contact_rhs_inputs(stack: PointwiseStack):
    ok, residuals = is_C_totally_real(stack)
    if not ok.all():
        i = int(np.argmin(ok))
        row = {k: float(v[i]) for k, v in residuals.items()}
        raise InvalidConfigurationError(
            f"data is not C-totally real: residuals {row} in sample {i}"
        )
    stats = a_xi_identity(stack)
    return stats["h_stats"], stats["a_stats"]


def _specialized(
    general: InequalityStack, name: str, curvature_term: np.ndarray, **extras
) -> InequalityStack:
    """A contact specialization: its own curvature term in place of the
    general ambient term, on the general stack's lhs, mean term and
    diagnostics, with the rhs cross-check in the extras."""
    rhs = general.mean_term + curvature_term
    extras.update(rhs_general=general.rhs, rhs_cross_residual=np.abs(rhs - general.rhs))
    gap = rhs - general.lhs
    return replace(general, name=name, rhs=rhs, gap=gap, ambient_term=curvature_term, extras=extras)


def kmu_space_form_inequality_stack(
    stack: PointwiseStack,
    c: float | None = None,
    lhs: float | np.ndarray | None = None,
    equality_tol: float = ALGEBRAIC_EQUALITY_TOL,
) -> InequalityStack:
    """Specialized right-hand side for a constant-phi-sectional-curvature
    contact ambient, in terms of the restricted traces of h^T and A_xi, on
    every sample of a stack.

    Cross-checks its RHS against the general inequality evaluated with the
    same ambient oracle (extras['rhs_cross_residual'], one per sample).
    """
    frame = stack.contact
    if frame is None:
        raise InvalidConfigurationError("contact frame required")
    if c is None:
        c = frame.c
    if c is None:
        raise InvalidInputError("phi-sectional curvature c required")
    hs, As = _contact_rhs_inputs(stack)
    n1, n2 = stack.n1, stack.n2
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
    general = general_inequality_stack(stack, lhs=lhs, equality_tol=equality_tol)
    return _specialized(general, "kmu_space_form_inequality", curvature_term, c=c)


def kmu_space_form_inequality(
    data: PointwiseStack,
    c: float | None = None,
    lhs: float | None = None,
    equality_tol: float = ALGEBRAIC_EQUALITY_TOL,
) -> InequalityReport:
    """kmu_space_form_inequality_stack on a stack of one, as a report."""
    return kmu_space_form_inequality_stack(_one_sample(data), c, lhs, equality_tol).report(0)


def non_sasakian_inequality_stack(
    stack: PointwiseStack,
    lhs: float | np.ndarray | None = None,
    equality_tol: float = ALGEBRAIC_EQUALITY_TOL,
) -> InequalityStack:
    """Specialized right-hand side for an ambient whose curvature is
    determined by (kappa, mu) with kappa < 1, on every sample of a stack.

    The A_xi bracket groups carry the signs forced by the ambient curvature
    tensor (so that this RHS is exactly the general one), which flips the
    A_xi groups relative to the h^T groups.
    """
    frame = stack.contact
    if frame is None:
        raise InvalidConfigurationError("contact frame required")
    kappa, mu = frame.kappa, frame.mu
    if kappa > 1.0 - 1e-8:
        raise SingularParameterError("non-Sasakian inequality needs kappa < 1")
    hs, As = _contact_rhs_inputs(stack)
    n1, n2 = stack.n1, stack.n2
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
    general = general_inequality_stack(stack, lhs=lhs, equality_tol=equality_tol)
    return _specialized(general, "non_sasakian_inequality", curvature_term, kappa=kappa, mu=mu)


def non_sasakian_inequality(
    data: PointwiseStack,
    lhs: float | None = None,
    equality_tol: float = ALGEBRAIC_EQUALITY_TOL,
) -> InequalityReport:
    """non_sasakian_inequality_stack on a stack of one, as a report."""
    return non_sasakian_inequality_stack(_one_sample(data), lhs, equality_tol).report(0)


NONEXISTENCE = "NONEXISTENCE"
WARPED_PRODUCT_IMMERSION = "WARPED_PRODUCT_IMMERSION"
UNOBSTRUCTED = "UNOBSTRUCTED"


def obstruction_check(
    report: InequalityReport | InequalityStack,
    harmonic: bool = False,
    eigenvalue: float | None = None,
    minimal: bool = False,
    tol: float = 1e-8,
) -> str | np.ndarray:
    """Existence verdict for minimal immersions with harmonic or eigenfunction
    warping.

    With a minimal immersion the inequality forces Delta f / f <= curvature
    term; a harmonic warping (lhs 0) facing a negative curvature term, or a
    positive eigenvalue facing a non-positive one, is a contradiction
    (NONEXISTENCE).  A harmonic warping with vanishing curvature term pins the
    equality case, which flags the immersion as a warped-product immersion
    (flag only; the decomposition theorem is cited, not re-proved).

    A report gives one verdict; an InequalityStack gives an array of them,
    one per sample, from its (N,) arrays (no per-sample report is built).
    """
    if harmonic and eigenvalue is not None:
        raise InvalidConfigurationError("harmonic and eigenvalue flags are exclusive")
    if not harmonic and eigenvalue is None:
        raise InvalidConfigurationError("need the harmonic flag or an eigenvalue")
    if eigenvalue is not None and eigenvalue <= 0.0:
        raise InvalidConfigurationError("eigenvalue must be positive")
    if not minimal:
        raise InvalidConfigurationError("obstruction verdicts apply to minimal immersions")
    norm_H = np.asarray(report.norm_H)
    inconsistent = ~(norm_H <= 1e-6)  # a NaN |H| is inconsistent too
    if inconsistent.any():
        i = int(np.argmax(inconsistent))
        where = f" in sample {i}" if norm_H.ndim else ""
        raise InvalidConfigurationError(
            f"minimal flag inconsistent with |H| = {norm_H.flat[i]:.3e}{where}"
        )
    curvature_term = np.asarray(report.rhs - report.mean_term)
    lhs_required = 0.0 if harmonic else float(eigenvalue)
    verdict = np.where(
        lhs_required > curvature_term + tol,
        NONEXISTENCE,
        np.where(harmonic & (np.abs(curvature_term) <= tol), WARPED_PRODUCT_IMMERSION, UNOBSTRUCTED),
    )
    return verdict.item() if verdict.ndim == 0 else verdict


def chart_inequality(
    im: ChartImmersion,
    p: np.ndarray,
    equality_tol: float = CHART_EQUALITY_TOL,
    data: PointwiseStack | None = None,
) -> InequalityReport:
    """Run the general inequality on a chart immersion of a warped chart.

    Produces both left-hand sides (the genuine Delta f / f on the first factor
    and the Gauss-equation proxy) and reports their agreement.  A caller
    that already holds second_fundamental_form(im, p), a stack of one,
    passes it as `data`; data of other dimensions or of another point is
    refused.
    """
    if im.warped is None:
        raise InvalidConfigurationError("chart immersion carries no warped structure")
    if data is None:
        data = second_fundamental_form(im, p)
    elif (data.n1, data.n2) != (im.n1, im.n2) or not np.array_equal(data.extras.get("point"), p):
        raise InvalidInputError(
            f"data of dimensions ({data.n1}, {data.n2}) at {data.extras.get('point')} is not "
            f"second_fundamental_form of this ({im.n1}, {im.n2}) immersion at {p}"
        )
    wp = im.warped
    x1 = np.asarray(p, dtype=float)[: wp.n1]
    f = wp.warp.value(x1)
    lap = laplacian(wp.factor1, x1, wp.warp.grad, wp.warp.hess)
    lhs_chart = lap / f
    proxy = general_inequality(data, equality_tol=equality_tol)
    agreement = abs(lhs_chart - proxy.lhs)
    extras = {"lhs_chart": lhs_chart, "lhs_proxy": proxy.lhs, "lhs_agreement": agreement}
    return _rebased(proxy, float(lhs_chart), proxy.rhs, extras=extras)
