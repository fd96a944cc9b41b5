"""Submanifold machinery: second fundamental form, mean curvatures,
Gauss-equation bookkeeping and the contact-tangency predicates.

Two input flavors share one downstream representation, the PointwiseStack
of N samples; one sample is a stack of one.  Chart immersions map into
Euclidean space, are differentiated numerically and re-expressed in an
adapted orthonormal frame; pointwise data is synthesized directly in the
ambient model's orthonormal coordinates.  Downstream of PointwiseStack every
inner product is a plain dot product, and every invariant gives one value per
sample.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from numpy._core.multiarray import c_einsum

from .charts import ChartMetric
from .contact import AmbientSpace, ContactFrame, CurvatureOracle
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
    frame_tensor,
    jet,
    qr_q,
    qr_q_complete,
    require_positive_definite,
)
from .warped import WarpedProductChart, flat_product_chart, sphere_chart

__all__ = [
    "PointwiseStack",
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
    "random_stack",
    "dplus_frame",
    "householder_frame",
    "balance_for_equality",
    "force_xi_consistency",
    "sphere_in_euclidean",
    "plane_immersion",
    "cylinder_immersion",
    "dplus_leaf_in",
    "chart_immersion_catalog",
]


@functools.cache
def _identity(d: int) -> np.ndarray:
    """The d x d identity, built on first use per d and shared read-only."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


# inf * 0 in the frame product and inf - inf in the asymmetry make the NaN
# that fails the test, so their warnings would say nothing.  The decorator
# sets the error state with less work than a with-block per call.
@np.errstate(invalid="ignore")
def _frames_within_bounds(full: np.ndarray, sigma: np.ndarray, d: int) -> bool:
    """The combined test of _check_frames; a NaN residual compares false.
    The reductions are ufunc calls: the ndarray methods add a Python layer
    that costs as much as the arithmetic on one sample."""
    return (
        np.maximum.reduce(np.abs(full.transpose(0, 2, 1) @ full - _identity(d)), None) <= 1e-8
        and np.maximum.reduce(np.abs(sigma - sigma.transpose(0, 1, 3, 2)), None) <= 1e-8
    )


def _check_frames(tangent: np.ndarray, normal: np.ndarray, sigma: np.ndarray, n: int) -> None:
    """Validation of a stack: tangent (N, d, n), normal (N, d, d - n), sigma
    (N, d - n, n, n); the error messages of a stack of more than one name
    the sample.

    Valid input costs one combined test over the whole stack: the largest
    orthonormality residual of [tangent | normal] and the largest asymmetry
    residual of sigma are both at most 1e-8.  A NaN or an infinity in a frame
    makes its orthonormality residual NaN or infinite, and one in sigma does
    the same to the asymmetry residual, so non-finite input fails the test
    too.  Only a failed test runs the ordered checks (non-finite frame,
    non-finite sigma, orthonormality, symmetry), which name the failure and
    its first sample."""
    N, d = tangent.shape[:2]
    if N == 0:
        raise InvalidInputError("a stack needs at least one sample")
    where = (lambda i: f" in sample {i}") if N > 1 else (lambda i: "")
    if tangent.shape != (N, d, n):
        raise InvalidConfigurationError("tangent frame shape mismatch with n1 + n2")
    if normal.shape != (N, d, d - n):
        raise InvalidConfigurationError("normal frame must complete the ambient dimension")
    if sigma.shape != (N, d - n, n, n):
        raise InvalidConfigurationError("sigma shape mismatch")
    full = np.concatenate([tangent, normal], axis=2)
    if _frames_within_bounds(full, sigma, d):
        return
    if not np.isfinite(full).all():
        i = int(np.argmax(~np.isfinite(full).all(axis=(1, 2))))
        raise NumericalDomainError(f"tangent or normal frame has non-finite entries{where(i)}")
    if not np.isfinite(sigma).all():
        i = int(np.argmax(~np.isfinite(sigma).all(axis=(1, 2, 3))))
        raise NumericalDomainError(f"sigma has non-finite entries{where(i)}")
    # finite frames can still overflow to a NaN residual, which is rejected
    ortho = np.abs(full.transpose(0, 2, 1) @ full - _identity(d)).max(axis=(1, 2))
    if not (ortho <= 1e-8).all():
        i = int(np.argmax(~(ortho <= 1e-8)))
        raise InvalidConfigurationError(
            f"frame not orthonormal (residual {ortho[i]:.3e}){where(i)}"
        )
    # finite sigma gives no NaN asymmetry, so some sample exceeds the bound
    sym = np.abs(sigma - sigma.transpose(0, 1, 3, 2)).max(axis=(1, 2, 3))
    i = int(np.argmax(sym > 1e-8))
    raise InvalidConfigurationError(f"sigma not symmetric (residual {sym[i]:.3e}){where(i)}")


@dataclass
class PointwiseStack:
    """N samples over one ambient and one (n1, n2), held as stacked arrays:
    tangent (N, d, n) orthonormal columns, the first n1 spanning the leaf
    block; normal (N, d, d - n), their orthonormal complement; sigma
    (N, d - n, n, n), the components <sigma(e_i, e_j), N_r>.  One sample is
    a stack of one.  The frames are validated once for the whole stack, and
    an error names the first offending sample by its index.  The tangent
    array is read-only: the K~ table of ambient_kij is built from it once.
    extras holds what a chart sample carries beside its frames."""

    n1: int
    n2: int
    tangent: np.ndarray
    normal: np.ndarray
    sigma: np.ndarray
    oracle: CurvatureOracle
    contact: ContactFrame | None = None
    label: str = ""
    extras: dict = field(default_factory=dict)
    # (tangent, oracle, table) of ambient_kij; dataclasses.replace carries it
    # to a copy, which uses it only while it holds the same tangent and oracle
    _ambient_kij: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.tangent = np.asarray(self.tangent, dtype=float)
        self.normal = np.asarray(self.normal, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        _check_frames(self.tangent, self.normal, self.sigma, self.n)
        self.tangent.setflags(write=False)

    def ambient_kij(self) -> np.ndarray:
        """Ambient sectional curvatures K(e_i ^ e_j) over each tangent frame,
        (N, n, n): one oracle.kij call on first use, then kept.  The table is
        keyed to the tangent array and the oracle it was built from, so a
        stack holding others builds its own.  A dplus draw of random_stack
        comes with its table already built from its one frame."""
        cached = self._ambient_kij
        if cached is None or cached[0] is not self.tangent or cached[1] is not self.oracle:
            cached = self._ambient_kij = (self.tangent, self.oracle, self.oracle.kij(self.tangent))
        return cached[2]

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    def __len__(self) -> int:
        return self.tangent.shape[0]

    def sample(self, i: int) -> PointwiseStack:
        """Sample i as a stack of one over views of this stack's arrays."""
        i = range(len(self))[i]  # IndexError beyond the stack
        rows = slice(i, i + 1)
        return replace(self, tangent=self.tangent[rows], normal=self.normal[rows], sigma=self.sigma[rows])


@dataclass
class MeanCurvatureRecord:
    """Lengths of the mean curvature vector and of its two partial (block)
    traces, and H in the normal frame: (N,) and (N, k) arrays, one row per
    sample of a stack (InequalityStack.report holds one row as floats and a
    (k,) vector)."""

    norm_H: np.ndarray
    norm_H1: np.ndarray
    norm_H2: np.ndarray
    components: np.ndarray  # H in the normal frame


@functools.cache
def _mean_weights(n1: int, n2: int) -> np.ndarray:
    """Columns H, H1, H2 as weights of the two block traces, built on first
    use per (n1, n2) and shared read-only."""
    n = n1 + n2
    weights = np.array([[1.0 / n, 1.0 / n1, 0.0], [1.0 / n, 0.0, 1.0 / n2]])
    weights.flags.writeable = False
    return weights


@functools.cache
def _block_starts(n1: int) -> np.ndarray:
    """The reduceat indices [0, n1] of the two tangent blocks, built on first
    use per n1 and shared read-only (a list would be converted per call)."""
    starts = np.array([0, n1], dtype=np.intp)
    starts.flags.writeable = False
    return starts


def mean_curvatures(data: PointwiseStack) -> MeanCurvatureRecord:
    """Trace parts of sigma, n H = n1 H1 + n2 H2, per sample."""
    n1 = data.n1
    # block traces (N, num_normals, 2), then H, H1, H2 as the columns of one product
    traces = np.add.reduceat(data.sigma.diagonal(0, 2, 3), _block_starts(n1), axis=2)
    parts = traces @ _mean_weights(n1, data.n2)
    norms = np.sqrt(np.add.reduce(parts**2, 1))  # (N, 3)
    return MeanCurvatureRecord(*norms.T, components=parts[..., 0])


def _gauss_correction(sigma: np.ndarray, rows: slice, cols: slice) -> np.ndarray:
    """sum_r (sigma^r_ii sigma^r_jj - (sigma^r_ij)^2) for i in `rows` and j
    in `cols` of sigma (..., k, n, n), one table per sample."""
    diag = sigma.diagonal(0, -2, -1)
    block = sigma[..., rows, cols]
    # c_einsum is what np.einsum runs without `optimize`, minus its Python layer
    return c_einsum("...ri,...rj->...ij", diag[..., rows], diag[..., cols]) - c_einsum(
        "...rij,...rij->...ij", block, block
    )


def intrinsic_kij(data: PointwiseStack, ambient: np.ndarray | None = None) -> np.ndarray:
    """Sectional curvatures of the submanifold from the Gauss equation:
    K_ij = K~_ij + sum_r (sigma^r_ii sigma^r_jj - (sigma^r_ij)^2), over the
    K~ table `ambient` when the caller holds it (data.ambient_kij() if not).
    One (n, n) table per sample."""
    ambient = data.ambient_kij() if ambient is None else ambient
    out = ambient + _gauss_correction(data.sigma, slice(None), slice(None))
    out.reshape(-1, data.n**2)[:, :: data.n + 1] = 0.0  # the diagonal of each table
    return out


@functools.cache
def _triu_flat(n: int) -> np.ndarray:
    """Flat indices of the pairs i < j of an (n, n) table, built on first use
    per n and shared read-only."""
    index = np.ravel_multi_index(np.triu_indices(n, k=1), (n, n))
    index.flags.writeable = False
    return index


def _triu_sum(tables: np.ndarray) -> np.ndarray:
    """Sum over i < j of each (n, n) table of a stack (N, n, n); take keeps
    the rows C-ordered, summed as in a stack of one (tables[:, i, j] is not)."""
    n = tables.shape[-1]
    return np.add.reduce(tables.reshape(len(tables), n * n).take(_triu_flat(n), axis=1), 1)


def gauss_residual(data: PointwiseStack, intrinsic: np.ndarray | None = None) -> dict:
    """Residuals of the Gauss equation, its sectional form and the global
    trace identity 2 tau = 2 tau~ + n^2 |H|^2 - |sigma|^2.

    `intrinsic` is the intrinsic (0,4) tensor in the tangent frame, shape
    (n, n, n, n) for every sample or (N, n, n, n, n), one per sample; when omitted
    the intrinsic curvature is defined through the Gauss equation itself, and
    the equation's two residuals are 0.  The Gauss tensor
    R~(e_a, e_b, e_c, e_d) + <s_ad, s_bc> - <s_ac, s_bd> is built once per
    sample.  gauss_max is the largest |intrinsic - Gauss| over all n^4
    entries, kij_max the largest over the sectional entries [i, j, j, i],
    i < j, and the trace identity sums the intrinsic sectional entries
    against the [i, j, j, i] entries of R~.

    Each residual is an (N,) array; each sample's residuals are the ones it
    gets alone.
    """
    N, n, s = len(data), data.n, data.sigma
    ambient = frame_tensor(data.oracle.tensor, data.tangent)
    gauss = ambient + c_einsum("...rad,...rbc->...abcd", s, s) - c_einsum("...rac,...rbd->...abcd", s, s)

    def sectional(tensor):  # the entries [i, j, j, i], i < j, of each sample: (N, n(n-1)/2)
        return c_einsum("...ijji->...ij", tensor).reshape(N, n * n).take(_triu_flat(n), axis=1)

    k_gauss = sectional(gauss)
    k_intrinsic, worst, kij_worst = k_gauss, np.zeros(N), np.zeros(N)
    if intrinsic is not None:
        intrinsic = np.asarray(intrinsic, dtype=float)
        shapes = [(n,) * 4, (N,) + (n,) * 4]
        if intrinsic.shape not in shapes:
            raise InvalidInputError(
                f"intrinsic curvature must have shape {' or '.join(map(str, shapes))}, got {intrinsic.shape}"
            )
        intrinsic = np.broadcast_to(intrinsic, gauss.shape)
        # np.max keeps a NaN residual, where max would drop it
        worst = np.max(np.abs(intrinsic - gauss).reshape(N, -1), axis=1)
        k_intrinsic = sectional(intrinsic)
        kij_worst = np.max(np.abs(k_intrinsic - k_gauss), axis=1, initial=0.0)
    sigma_sq = np.add.reduce((s**2).reshape(N, -1), 1)
    tau_gauss = 2.0 * np.add.reduce(sectional(ambient), 1) + n * n * mean_curvatures(data).norm_H**2 - sigma_sq
    tau_res = np.abs(2.0 * np.add.reduce(k_intrinsic, 1) - tau_gauss)
    return {"gauss_max": worst, "kij_max": kij_worst, "tau_identity_residual": tau_res}


def _require_contact(data: PointwiseStack) -> ContactFrame:
    if data.contact is None:
        raise InvalidConfigurationError("operation requires an attached contact frame")
    return data.contact


def is_C_totally_real(
    data: PointwiseStack, tol: float = DEFAULT_TOLERANCE.algebraic
) -> tuple[np.ndarray, dict]:
    """Per sample: True iff xi is normal and phi maps the tangent space into
    the normal space; a boolean array and residual arrays, one entry per
    sample."""
    frame = _require_contact(data)
    xi_res = np.abs(frame.xi @ data.tangent).max(axis=-1)
    anti_res = np.abs(tangential_operator(data, frame.phi)).max(axis=(-2, -1))
    ok = (xi_res < tol) & (anti_res < tol)
    residuals = {"xi_tangency": xi_res, "anti_invariance": anti_res}
    if ok.any() and data.n > frame.m:
        # anti-invariance caps the dimension at m inside a (2m+1)-dim ambient
        raise InvalidConfigurationError(
            f"C-totally real data with n = {data.n} > m = {frame.m} is inconsistent"
        )
    return ok, residuals


def tangential_operator(data: PointwiseStack, op: np.ndarray) -> np.ndarray:
    """Matrix <op e_i, e_j> of an ambient operator restricted to the tangent
    frame, one per sample."""
    return np.swapaxes(data.tangent, -1, -2) @ (op @ data.tangent)


def _block_stats(mat: np.ndarray, n1: int) -> dict:
    b1, b2 = mat[..., :n1, :n1], mat[..., n1:, n1:]
    stats = {}
    for suffix, block in (("", mat), ("_1", b1), ("_2", b2)):
        stats["trace" + suffix] = np.trace(block, axis1=-2, axis2=-1)
        stats["norm_sq" + suffix] = (block**2).sum(axis=(-2, -1))
    return stats


def a_xi_identity(data: PointwiseStack) -> dict:
    """Compare the xi-component of sigma with the tangential part of phi h.

    Returns the max entry residual together with the restricted traces and
    squared norms of h^T and A_xi over the two warped blocks (the quantities
    the contact inequalities consume); each entry has one value per sample.
    """
    frame = _require_contact(data)
    w = frame.xi @ data.normal  # xi in normal-frame coordinates
    a_from_sigma = np.einsum("...r,...rij->...ij", w, data.sigma)
    a_geometric = tangential_operator(data, frame.phi @ frame.h)
    h_tan = tangential_operator(data, frame.h)
    residual = np.abs(a_from_sigma - a_geometric).max(axis=(-2, -1))
    return {
        "residual": residual,
        "a_xi": a_geometric,
        "a_xi_from_sigma": a_from_sigma,
        "h_tan": h_tan,
        "h_stats": _block_stats(h_tan, data.n1),
        "a_stats": _block_stats(a_geometric, data.n1),
    }


def is_mixed_totally_geodesic(data: PointwiseStack, tol: float = DEFAULT_TOLERANCE.algebraic) -> np.ndarray:
    """Per sample: True iff sigma vanishes on all cross-block pairs."""
    cross = np.abs(data.sigma[..., : data.n1, data.n1 :]).max(axis=(-3, -2, -1))
    return cross < tol


# ---------------------------------------------------------------------------
# synthetic data generators
# ---------------------------------------------------------------------------


def balance_for_equality(sigma: np.ndarray, n1: int) -> np.ndarray:
    """Project sigma (one sample or a stack) onto the equality class: zero
    cross blocks and equal block traces per normal direction."""
    out = sigma.copy()
    n2 = sigma.shape[-1] - n1
    out[..., :n1, n1:] = 0.0
    out[..., n1:, :n1] = 0.0
    tr1 = np.trace(out[..., :n1, :n1], axis1=-2, axis2=-1)
    tr2 = np.trace(out[..., n1:, n1:], axis1=-2, axis2=-1)
    out[..., n1:, n1:] += ((tr1 - tr2) / n2)[..., None, None] * np.eye(n2)
    return out


def force_xi_consistency(
    sigma: np.ndarray, data_frame: tuple[np.ndarray, np.ndarray], contact: ContactFrame
) -> np.ndarray:
    """Correct sigma so its xi-component equals the tangential part of phi h
    (one sample, or a stack with stacked frames)."""
    tangent, normal = data_frame
    w = contact.xi @ normal
    target = np.swapaxes(tangent, -1, -2) @ (contact.phi @ (contact.h @ tangent))
    target = 0.5 * (target + np.swapaxes(target, -1, -2))
    current = np.einsum("...r,...rij->...ij", w, sigma)
    return sigma + np.einsum("...r,...ij->...rij", w, target - current)


def householder_frame(jacobian: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal tangent and normal frames of the column span of one
    jacobian J (d, n), from one Householder factorization (numeric.qr_q_complete).

    Returns (tangent, r, normal): tangent (d, n) and the upper triangular r
    (n, n) with J = tangent r and diag r > 0, the frame Gram-Schmidt gives on
    the columns of J; normal (d, d - n), the last columns of the complete
    factor, each with its largest-magnitude entry positive.  Raises
    NumericalDomainError on non-finite input and ImmersionDegeneracyError
    when n >= d or a column depends on the previous ones (|r_jj| < 1e-8).
    """
    J = as_matrix(jacobian)
    d, n = J.shape
    if n >= d:
        raise ImmersionDegeneracyError(f"{n} tangent vectors leave no normal direction in R^{d}")
    full = qr_q_complete(J)[1]
    r = np.triu(full[:, :n].T @ J)
    independent = np.abs(np.diagonal(r)) >= 1e-8
    if not independent.all():
        raise ImmersionDegeneracyError(f"tangent column {np.argmin(independent)} depends on the previous ones")
    signs = np.sign(np.diagonal(r))[:, None]
    normal = full[:, n:]
    peak = np.take_along_axis(normal, np.abs(normal).argmax(axis=0)[None], axis=0)
    return full[:, :n] * signs.T, signs * r, normal * np.sign(peak)


def random_stack(
    rng: np.random.Generator,
    ambient: AmbientSpace,
    n1: int,
    n2: int,
    count: int,
    sigma_scale: float = 1.0,
    frame_kind: str = "generic",
) -> PointwiseStack:
    """`count` random samples over an ambient model as one PointwiseStack.

    All samples come from one normal block drawn up front, one row per sample
    in the order random_data draws them: a generic frame takes d^2 entries
    (its QR factor gives tangent and normal), a c-totally-real frame 2 m n
    (real part, then imaginary part of a complex m x n matrix), a dplus frame
    none; then sigma_scale times k n^2 entries, symmetrized, give sigma.  So
    the stack equals `count` sequential random_data calls bit for bit, and
    leaves `rng` in the same state.  Every frame kind gives its normal frame
    in closed form, with no householder_frame completion, and the frames are
    validated once for the whole stack.  All samples of a dplus draw share
    one frame, so its K~ table (ambient_kij) is one oracle.kij contraction
    of that frame, repeated: by kij's stack contract, bit for bit the table
    of the whole stack.  A `count` that is not an integer
    >= 1 or a `sigma_scale` that is not finite and >= 0 raises
    InvalidInputError before anything is drawn.
    """
    n = n1 + n2
    d = ambient.dim
    if n >= d:
        raise InvalidConfigurationError("need codimension >= 1")
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise InvalidInputError(f"count must be an integer (got {count!r})")
    if count < 1:
        raise InvalidInputError(f"count must be at least 1 (got {count})")
    if not 0.0 <= sigma_scale < np.inf:  # NaN fails too
        raise InvalidInputError(f"sigma_scale must be finite and non-negative (got {sigma_scale})")
    k = d - n
    kij = None
    if frame_kind == "generic":
        frame_draws = d * d
    elif frame_kind == "c-totally-real":
        frame = _frame_of(ambient)
        if n > frame.m:
            raise InvalidConfigurationError(f"anti-invariance requires n <= m (n={n}, m={frame.m})")
        frame_draws = 2 * frame.m * n
    elif frame_kind == "dplus":
        frame = _frame_of(ambient)
        tangent, normal = dplus_frame(frame, n)[None], _dplus_normal(frame, n)[None]
        # every sample has this one frame: contract it once and repeat the table
        kij = np.repeat(ambient.oracle.kij(tangent), count, axis=0)
        tangent, normal = (np.repeat(a, count, axis=0) for a in (tangent, normal))
        frame_draws = 0
    else:
        raise InvalidInputError(f"unknown frame kind {frame_kind!r}")
    block = rng.normal(size=(count, frame_draws + k * n * n))
    if frame_kind == "generic":
        q = qr_q(block[:, :frame_draws].reshape(count, d, d))
        tangent, normal = q[..., :n], q[..., n:]
    elif frame_kind == "c-totally-real":
        tangent, normal = _c_totally_real_frames(block[:, :frame_draws], frame, n)
    raw = block[:, frame_draws:].reshape(count, k, n, n)
    if sigma_scale != 1.0:  # loc + scale * z, the arithmetic of rng.normal(scale=sigma_scale)
        raw = 0.0 + sigma_scale * raw
    return PointwiseStack(
        n1=n1,
        n2=n2,
        tangent=tangent,
        normal=normal,
        sigma=0.5 * (raw + raw.transpose(0, 1, 3, 2)),
        oracle=ambient.oracle,
        contact=ambient.frame,
        label=f"random-{frame_kind}",
        _ambient_kij=None if kij is None else (tangent, ambient.oracle, kij),
    )


def random_data(
    rng: np.random.Generator,
    ambient: AmbientSpace,
    n1: int,
    n2: int,
    sigma_scale: float = 1.0,
    frame_kind: str = "generic",
) -> PointwiseStack:
    """One random sample over an ambient model, as a stack of one: the
    one-sample case of random_stack, so N sequential calls draw exactly the
    stack of N.

    frame_kind: 'generic' (any orthonormal frame), 'c-totally-real'
    (anti-invariant, xi normal) or 'dplus' (inside the positive h-eigenspace);
    the last two require a contact ambient.
    """
    return random_stack(rng, ambient, n1, n2, 1, sigma_scale, frame_kind)


def _frame_of(ambient: AmbientSpace) -> ContactFrame:
    if ambient.frame is None:
        raise InvalidConfigurationError(f"{ambient.kind} ambient carries no contact frame")
    return ambient.frame


def _c_totally_real_frames(block: np.ndarray, frame: ContactFrame, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Random anti-invariant tangent frames orthogonal to xi and their normal
    frames, one pair per row of 2 m n normal draws.

    With iota(v) = [0; Re v; Im v], an isometry of C^m onto the orthogonal
    complement of xi with phi iota(v) = iota(i v), the tangent is iota(q) for
    the reduced QR factor q (m x n) of a complex matrix, so its span is
    orthonormal and phi-anti-invariant.  The last m - n columns c of the
    complete factor of the same factorization give the normal frame in
    closed form: [xi | phi T | iota(c) | phi iota(c)], where the first two
    blocks span <xi> + phi(TM) and the last two the phi-invariant rest.
    """
    m, d, count = frame.m, frame.dim, len(block)
    parts = block.reshape(count, 2, m, n)
    q, full = qr_q_complete(parts[:, 0] + 1j * parts[:, 1])
    tangent = np.zeros((count, d, n))
    tangent[:, 1 : m + 1, :] = q.real
    tangent[:, m + 1 :, :] = q.imag
    c = full[..., n:]
    # iota(i q) = phi T, iota(c), iota(i c) = phi iota(c): the columns after xi
    spans = np.concatenate([1j * q, c, 1j * c], axis=2)
    normal = np.zeros((count, d, d - n))
    normal[:, 0, 0] = 1.0
    normal[:, 1 : m + 1, 1:] = spans.real
    normal[:, m + 1 :, 1:] = spans.imag
    return tangent, normal


def dplus_frame(frame: ContactFrame, n: int) -> np.ndarray:
    """Tangent frame spanned by the first n positive h-eigenvectors e_1..e_n."""
    if n > frame.m:
        raise InvalidConfigurationError(f"the positive eigenspace has dimension {frame.m}")
    return np.eye(frame.dim)[:, 1 : n + 1]


def _dplus_normal(frame: ContactFrame, n: int) -> np.ndarray:
    """Normal frame of dplus_frame in closed form: e_0, e_{n+1}, ..., the
    normal frame householder_frame gives for it."""
    return np.eye(frame.dim)[:, [0, *range(n + 1, frame.dim)]]


# ---------------------------------------------------------------------------
# chart immersions
# ---------------------------------------------------------------------------


@dataclass
class ChartImmersion:
    """Map from an n-dim source chart into Euclidean R^ambient_dim.

    map takes source points (..., n) to points (..., ambient_dim),
    broadcasting over the leading axes (the stack contract of ``charts``);
    it may be called on any flattened stack, such as the distinct points of
    a stencil.  It is differentiated by the complex step, so it must be the
    complex-analytic extension of its real formula (see
    numeric.complex_step).
    """

    map: Callable[[np.ndarray], np.ndarray]
    ambient_dim: int
    n1: int
    n2: int
    warped: WarpedProductChart | None = None
    label: str = ""
    default_point: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.n1 + self.n2


def pullback_metric(im: ChartImmersion) -> ChartMetric:
    """Induced metric g = J^T J on the source chart, with its derivatives
    d_k g = (d_k J)^T J + J^T d_k J, both from the jet of the map
    (numeric.jet), one call on the complex steps of the distinct points of
    its stencils: J is exact, and d_k J is its central difference, so
    riemann of this metric differences twice (J to dg, then Gamma).  Its
    g_dg takes real points only."""

    def g_dg(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        _, jt, hess = jet(im.map, np.asarray(u, float), (im.ambient_dim,), "map")
        j = np.swapaxes(jt, -1, -2)
        half = hess @ j[..., None, :, :]  # (d_k J)^T J
        return jt @ j, half + np.swapaxes(half, -1, -2)

    return ChartMetric(im.n, g_dg)


def second_fundamental_form(im: ChartImmersion, p: np.ndarray) -> PointwiseStack:
    """Adapted frame and second-fundamental-form components at p, as a stack
    of one.

    The tangent frame orthonormalizes the pushed-forward coordinate basis in
    order (preserving the leaf/fibre split), the normal frame completes it,
    both from one Householder factorization of the Jacobian
    (householder_frame), and sigma is the normal part of the second
    derivatives of the map.  Downstream components live in the adapted frame,
    where the ambient curvature is zero.  The map is evaluated once, for its
    jet at p (numeric.jet): the exact Jacobian and the Hessian.
    """
    p = as_vector(p, im.n)
    d, n = im.ambient_dim, im.n
    point, jt, S = jet(im.map, p, (d,), "map")  # jt[a] = d_a x, the columns of J
    require_positive_definite(jt @ jt.T, p, 1e-10, 1e-6, ImmersionDegeneracyError, "Jacobian Gram matrix")

    tangent_ambient, r, normal_ambient = householder_frame(jt.T)
    coeff = np.linalg.inv(r)  # e_i = sum_a coeff[a,i] d_a

    # normal components of S_ab = d_a d_b x, then source-coordinate indices to the frame
    sigma_coord = np.einsum("abk,kr->rab", S, normal_ambient)
    sigma = np.einsum("ai,bj,rab->rij", coeff, coeff, sigma_coord)
    asymmetry = float(np.max(np.abs(sigma - sigma.transpose(0, 2, 1))))
    sigma = 0.5 * (sigma + sigma.transpose(0, 2, 1))

    eye = np.eye(d)
    return PointwiseStack(
        n1=im.n1,
        n2=im.n2,
        tangent=eye[None, :, :n],
        normal=eye[None, :, n:],
        sigma=sigma[None],
        oracle=CurvatureOracle("euclidean", np.zeros((d,) * 4)),
        contact=None,
        label=im.label,
        extras={
            "point": p,
            "ambient_point": point,
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
    """Unit vectors in R^{k+1} from stacks of k nested angles (..., k)."""
    sines = np.cumprod(np.sin(angles), axis=-1)
    prefix = np.concatenate([np.ones_like(sines[..., :1]), sines[..., :-1]], axis=-1)
    return np.concatenate([prefix * np.cos(angles), sines[..., -1:]], axis=-1)


def sphere_in_euclidean(n: int = 2) -> ChartImmersion:
    """Unit sphere S^n in R^{n+1} as the warped chart (-pi/2,pi/2) x_{cos t} S^{n-1}."""
    if n < 2:
        raise InvalidInputError("need n >= 2")

    def mapping(u: np.ndarray) -> np.ndarray:
        t = u[..., :1]
        return np.concatenate([np.sin(t), np.cos(t) * _spherical_point(u[..., 1:])], axis=-1)

    return ChartImmersion(
        map=mapping,
        ambient_dim=n + 1,
        n1=1,
        n2=n - 1,
        warped=sphere_chart(n2=n - 1),
        label=f"sphere-in-euclidean({n})",
        default_point=np.array([0.3] + [0.8] * (n - 1)),
    )


def plane_immersion() -> ChartImmersion:
    """Affine 2-plane in R^3 (totally geodesic)."""
    return ChartImmersion(
        map=lambda u: np.stack([u[..., 0], u[..., 1], np.zeros_like(u[..., 0])], axis=-1),
        ambient_dim=3,
        n1=1,
        n2=1,
        warped=flat_product_chart(),
        label="plane",
        default_point=np.array([0.2, -0.4]),
    )


def cylinder_immersion() -> ChartImmersion:
    """Unit cylinder in R^3: principal curvatures (1, 0), |H| = 1/2."""
    return ChartImmersion(
        map=lambda u: np.stack([np.cos(u[..., 1]), np.sin(u[..., 1]), u[..., 0]], axis=-1),
        ambient_dim=3,
        n1=1,
        n2=1,
        warped=flat_product_chart(),
        label="cylinder",
        default_point=np.array([0.1, 0.7]),
    )


def dplus_leaf_in(ambient: AmbientSpace, n1: int = 1, n2: int = 1) -> PointwiseStack:
    """Totally geodesic leaf of the positive h-eigendistribution (sigma = 0)
    inside a given contact ambient, as a stack of one."""
    frame = _frame_of(ambient)
    return PointwiseStack(
        n1=n1,
        n2=n2,
        tangent=dplus_frame(frame, n1 + n2)[None],
        normal=_dplus_normal(frame, n1 + n2)[None],
        sigma=np.zeros((1, ambient.dim - n1 - n2, n1 + n2, n1 + n2)),
        oracle=ambient.oracle,
        contact=ambient.frame,
        label="dplus-leaf",
    )


def chart_immersion_catalog() -> dict[str, Callable[..., ChartImmersion]]:
    return {
        "sphere-in-euclidean": sphere_in_euclidean,
        "plane": plane_immersion,
        "cylinder": cylinder_immersion,
    }
