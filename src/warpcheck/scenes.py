"""Declarative scene ingestion, batch verification and report emission.

A scene is a JSON object with keys "ambient", "source", "checks",
"tolerances", "samples" and "seed".  Running a scene executes each requested
check against the declared ambient model and data source; per-check failures
are captured in the report and never abort sibling checks.  Reports serialize
to canonical JSON (sorted keys, floats rendered as %.12e, volatile wall time
excluded), so a fixed (scene, seed, tolerance) triple is byte-reproducible.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from . import __version__
from .contact import (
    AmbientSpace,
    CurvatureOracle,
    ambient_catalog,
    check_km_condition,
    make_ambient,
    phi_sectional,
)
from .errors import SceneParseError, SceneValidationError
from .immersion import (
    ChartImmersion,
    PointwiseImmersionData,
    PointwiseStack,
    a_xi_identity,
    balance_for_equality,
    chart_immersion_catalog,
    complete_normal_frame,
    dplus_leaf_in,
    gauss_residual,
    is_C_totally_real,
    pullback_metric,
    random_stack,
    second_fundamental_form,
    force_xi_consistency,
)
from .inequality import (
    chart_inequality,
    chen_lemma,
    decompose_stack,
    general_inequality,
    general_inequality_stack,
    kmu_space_form_inequality,
    kmu_space_form_inequality_stack,
    non_sasakian_inequality,
    non_sasakian_inequality_stack,
    obstruction_check,
)
from .numeric import Tolerance
from .warped import (
    WarpedProductChart,
    WarpFunction,
    build_metric,
    check_connection_identity,
    check_laplacian_ratio,
    chart_catalog,
    const_fn,
    cos_fn,
    exp_fn,
    flat_factor,
    is_trivial,
    mixed_sectional,
    named_chart,
    poly_fn,
    product_fn,
    round_sphere_factor,
    sum_fn,
)
from .charts import riemann, sectional_curvature

__all__ = [
    "SceneSpec",
    "RunReport",
    "parse_scene",
    "run",
    "emit",
    "check_names",
    "ENV_SEED",
]

ENV_SEED = "WARPCHECK_SEED"

_SCENE_KEYS = {"ambient", "source", "checks", "tolerances", "samples", "seed"}
_TOL_KEYS = {"algebraic", "finite_difference", "equality_gap"}


@dataclass
class SceneSpec:
    """Validated scene: ambient descriptor, data source, checks to run."""

    ambient: dict
    source: dict
    checks: list[dict]
    tolerances: dict = field(default_factory=dict)
    samples: int = 100
    seed: int | None = None
    _ambient_space: AmbientSpace | None = field(default=None, init=False, repr=False, compare=False)

    def ambient_space(self) -> AmbientSpace:
        """The declared ambient model, built on first use; validation and
        every run of this spec share the one instance."""
        if self._ambient_space is None:
            amb = dict(self.ambient)
            kind = amb.pop("kind", None)
            _require(kind in ambient_catalog(), f"unknown ambient kind {kind!r}")
            try:
                self._ambient_space = make_ambient(kind, **amb)
            except TypeError as exc:
                raise SceneValidationError(f"bad ambient parameters for {kind!r}: {exc}") from exc
        return self._ambient_space

    def to_dict(self) -> dict:
        return {
            "ambient": self.ambient,
            "source": self.source,
            "checks": self.checks,
            "tolerances": self.tolerances,
            "samples": self.samples,
            "seed": self.seed,
        }


@dataclass
class RunReport:
    """Per-check records plus the environment that produced them."""

    scene: dict
    records: list[dict]
    environment: dict
    wall_time: float

    @property
    def all_passed(self) -> bool:
        return all(r.get("pass", False) for r in self.records)


def _require(cond: bool, msg: str):
    if not cond:
        raise SceneValidationError(msg)


def warp_from_descriptor(d: dict) -> WarpFunction:
    """Closed warping-function catalog; no general expression evaluation."""
    _require(isinstance(d, dict) and "kind" in d, "warping descriptor needs a 'kind'")
    kind = d["kind"]
    if kind == "const":
        return const_fn(float(d.get("a", 1.0)))
    if kind == "cos":
        return cos_fn()
    if kind == "exp":
        return exp_fn()
    if kind == "polynomial":
        _require("coeffs" in d, "polynomial warping needs 'coeffs'")
        return poly_fn([float(v) for v in d["coeffs"]])
    if kind in ("sum", "product"):
        terms = d.get("terms", [])
        _require(len(terms) >= 2, f"{kind} warping needs at least two terms")
        combine = sum_fn if kind == "sum" else product_fn
        out = warp_from_descriptor(terms[0])
        for t in terms[1:]:
            out = combine(out, warp_from_descriptor(t))
        return out
    raise SceneValidationError(f"unknown warping kind {kind!r}")


def _factor_from_descriptor(d: dict):
    _require(isinstance(d, dict) and "kind" in d, "factor descriptor needs a 'kind'")
    kind = d["kind"]
    dim = int(d.get("dim", 1))
    _require(dim >= 1, "factor dimension must be >= 1")
    if kind == "euclidean":
        return flat_factor(dim)
    if kind == "round-sphere":
        return round_sphere_factor(dim)
    raise SceneValidationError(f"unknown factor metric kind {kind!r}")


def parse_scene(path_or_dict) -> SceneSpec:
    """Load and validate a scene file (or an already-decoded scene object)."""
    if isinstance(path_or_dict, dict):
        raw = path_or_dict
    else:
        try:
            with open(path_or_dict) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise SceneParseError(f"cannot read scene file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SceneParseError(
                f"malformed scene file at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    if not isinstance(raw, dict):
        raise SceneValidationError("scene must be a JSON object")
    unknown = set(raw) - _SCENE_KEYS
    _require(not unknown, f"unknown scene keys: {sorted(unknown)}")
    _require("ambient" in raw and "source" in raw, "scene needs 'ambient' and 'source'")

    tolerances = raw.get("tolerances", {})
    _require(isinstance(tolerances, dict), "'tolerances' must be an object")
    bad = set(tolerances) - _TOL_KEYS
    _require(not bad, f"unknown tolerance keys: {sorted(bad)}")

    checks_raw = raw.get("checks", [])
    _require(isinstance(checks_raw, list), "'checks' must be a list")
    checks = []
    for c in checks_raw:
        if isinstance(c, str):
            checks.append({"name": c})
        elif isinstance(c, dict) and "name" in c:
            checks.append(dict(c))
        else:
            raise SceneValidationError(f"bad check entry: {c!r}")

    spec = SceneSpec(
        ambient=dict(raw["ambient"]),
        source=dict(raw["source"]),
        checks=checks,
        tolerances=dict(tolerances),
        samples=int(raw.get("samples", 100)),
        seed=raw.get("seed"),
    )
    _validate(spec)
    return spec


def _immersion_of(src: dict) -> ChartImmersion:
    try:
        return chart_immersion_catalog()[src["key"]](**src.get("params", {}))
    except TypeError as exc:
        raise SceneValidationError(f"bad immersion parameters for {src['key']!r}: {exc}") from exc


_CONTACT_CHECKS = {
    "kmu_space_form_inequality",
    "non_sasakian_inequality",
    "a_xi_identity",
    "c_totally_real",
    "km_condition",
    "phi_sectional",
}


def _validate(spec: SceneSpec):
    ambient = spec.ambient_space()  # raises on bad kind/parameters
    src = spec.source
    _require(isinstance(src, dict) and "kind" in src, "source needs a 'kind'")
    kind = src["kind"]
    known_sources = {"warped-chart", "explicit-warped", "chart-immersion", "synthetic", "explicit"}
    _require(kind in known_sources, f"unknown source kind {kind!r}")
    if kind == "warped-chart":
        _require(src.get("key") in chart_catalog(), f"unknown chart key {src.get('key')!r}")
    if kind == "chart-immersion" and src.get("key") == "dplus-leaf":
        _require(ambient.frame is not None, "dplus-leaf needs a contact ambient")
    elif kind == "chart-immersion":
        _require(
            src.get("key") in chart_immersion_catalog(), f"unknown immersion key {src.get('key')!r}"
        )
        im_dim = _immersion_of(src).ambient.dim
        _require(
            im_dim == ambient.dim,
            f"immersion {src['key']!r} maps into a {im_dim}-dimensional chart, "
            f"the ambient is {ambient.dim}-dimensional",
        )
    if kind in ("synthetic", "explicit"):
        n1, n2 = int(src.get("n1", 1)), int(src.get("n2", 1))
        _require(n1 >= 1 and n2 >= 1, "need n1, n2 >= 1")
        _require(
            n1 + n2 < ambient.dim,
            f"n = {n1 + n2} does not fit inside the {ambient.dim}-dimensional ambient",
        )
    if kind == "explicit":
        _require(
            "tangent" in src and "sigma" in src,
            "explicit source needs 'tangent' and 'sigma' arrays",
        )
    if kind == "explicit-warped":
        _require(
            all(k in src for k in ("factor1", "factor2", "warping")),
            "explicit-warped source needs 'factor1', 'factor2' and 'warping'",
        )
        _factor_from_descriptor(src["factor1"])
        _factor_from_descriptor(src["factor2"])
        warp_from_descriptor(src["warping"])
        _require(len(src.get("points", [])) > 0, "explicit-warped source needs 'points'")
    names = {c["name"] for c in spec.checks}
    unknown = names - set(check_names())
    _require(not unknown, f"unknown checks: {sorted(unknown)}")
    needs_contact = names & _CONTACT_CHECKS
    if needs_contact and ambient.frame is None:
        raise SceneValidationError(
            f"checks {sorted(needs_contact)} require a contact ambient, got {ambient.kind!r}"
        )
    if "non_sasakian_inequality" in names:
        kappa = ambient.params.get("kappa", 1.0)
        _require(
            kappa < 1.0 - 1e-8,
            "non_sasakian_inequality needs kappa < 1 (singular parameter)",
        )
    wants_warped = names & {"connection_identity", "mixed_sectional", "laplacian_ratio", "trivial"}
    if wants_warped:
        _require(
            kind in ("warped-chart", "explicit-warped", "chart-immersion"),
            f"checks {sorted(wants_warped)} need a warped-chart source",
        )


# ---------------------------------------------------------------------------
# source construction
# ---------------------------------------------------------------------------


@dataclass
class _Context:
    spec: SceneSpec
    ambient: AmbientSpace
    tol: Tolerance
    rng: np.random.Generator
    samples: int
    warped: WarpedProductChart | None = None
    immersion: Any = None
    fixed_data: PointwiseImmersionData | None = None
    generator: str | None = None
    source_params: dict = field(default_factory=dict)

    def fixed_sample(self) -> PointwiseImmersionData | None:
        """The source's one sample (explicit data, a dplus leaf or a chart
        immersion at its point), computed once per scene; None for a
        synthetic source."""
        if self.fixed_data is None and self.immersion is not None:
            self.fixed_data = second_fundamental_form(
                self.immersion, self.chart_point(), h=self.tol.finite_difference
            )
        return self.fixed_data

    def chart_point(self) -> np.ndarray:
        p = self.source_params.get("point")
        return np.asarray(p, float) if p is not None else self.immersion.default_point

    def make_stack(self, count: int, generator: str | None = None) -> PointwiseStack:
        """The samples of one sampled check: the fixed sample as a stack of
        one, or `count` fresh draws of the declared generator in one block."""
        fixed = self.fixed_sample()
        if fixed is not None:
            return fixed.stack()
        n1 = int(self.source_params.get("n1", 1))
        n2 = int(self.source_params.get("n2", 1))
        scale = float(self.source_params.get("sigma_scale", 1.0))
        gen = generator or self.generator or "random"
        contact = self.ambient.frame
        frame_kind = {
            "random": "generic",
            "c-totally-real": "c-totally-real",
            "equality": "dplus" if contact is not None else "generic",
            "minimal": "c-totally-real" if contact is not None else "generic",
        }.get(gen)
        if frame_kind is None:
            raise SceneValidationError(f"unknown generator {gen!r}")
        if gen == "minimal":
            scale = 0.0
        stack = random_stack(self.rng, self.ambient, n1, n2, count, scale, frame_kind)
        if gen == "equality":
            stack.sigma = balance_for_equality(stack.sigma, n1)
        if gen in ("c-totally-real", "equality") and contact is not None:
            stack.sigma = force_xi_consistency(stack.sigma, (stack.tangent, stack.normal), contact)
        return stack

    def make_data(self, generator: str | None = None) -> PointwiseImmersionData:
        """One data sample according to the declared source."""
        fixed = self.fixed_sample()
        return fixed if fixed is not None else self.make_stack(1, generator).sample(0)

    def sampled_stack(self, generator: str | None = None) -> PointwiseStack:
        """The stack a sampled check evaluates: `samples` draws (at least
        one), or the fixed sample."""
        return self.make_stack(max(1, self.samples), generator)


def _build_context(spec: SceneSpec, tol: Tolerance, rng, samples: int) -> _Context:
    ambient = spec.ambient_space()
    ctx = _Context(spec=spec, ambient=ambient, tol=tol, rng=rng, samples=samples)
    src = spec.source
    kind = src["kind"]
    if kind == "warped-chart":
        ctx.warped = named_chart(src["key"], **src.get("params", {}))
    elif kind == "explicit-warped":
        ctx.warped = WarpedProductChart(
            factor1=_factor_from_descriptor(src["factor1"]),
            factor2=_factor_from_descriptor(src["factor2"]),
            warp=warp_from_descriptor(src["warping"]),
            label="explicit",
            sample_points=[np.asarray(p, float) for p in src.get("points", [])],
        )
        _require(len(ctx.warped.sample_points) > 0, "explicit-warped source needs 'points'")
    elif kind == "chart-immersion":
        if src["key"] == "dplus-leaf":
            # totally geodesic leaf drawn inside the declared contact ambient
            params = src.get("params", {})
            ctx.fixed_data = dplus_leaf_in(ambient, int(params.get("n1", 1)), int(params.get("n2", 1)))
        else:
            ctx.immersion = _immersion_of(src)
            ctx.warped = ctx.immersion.warped
            ctx.source_params = dict(src)
    elif kind == "synthetic":
        ctx.generator = src.get("generator", "random")
        ctx.source_params = dict(src)
    elif kind == "explicit":
        tangent = np.asarray(src["tangent"], float)
        normal = (
            np.asarray(src["normal"], float)
            if "normal" in src
            else complete_normal_frame(tangent)
        )
        ctx.fixed_data = PointwiseImmersionData(
            n1=int(src["n1"]),
            n2=int(src["n2"]),
            tangent=tangent,
            normal=normal,
            sigma=np.asarray(src["sigma"], float),
            oracle=ctx.ambient.oracle,
            contact=ctx.ambient.frame,
            label="explicit",
        )
    return ctx


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _chart_points(ctx: _Context) -> list[np.ndarray]:
    if ctx.warped is None:
        raise SceneValidationError("check needs a warped-chart source")
    pts = ctx.warped.sample_points
    if not pts:
        raise SceneValidationError("warped chart provides no sample points")
    return pts


# The folds below use np.maximum / np.minimum / np.ptp, which keep a NaN
# residual where Python's max and min would drop it.


def _check_connection_identity(ctx: _Context, opts: dict) -> dict:
    wp = ctx.warped
    worst = 0.0
    for p in _chart_points(ctx):
        X = np.zeros(wp.dim)
        X[: wp.n1] = ctx.rng.normal(size=wp.n1)
        Y = np.zeros(wp.dim)
        Y[wp.n1 :] = ctx.rng.normal(size=wp.n2)
        worst = np.maximum(worst, check_connection_identity(wp, p, X, Y))
    return {"pass": bool(worst < 1e-5), "max_residual": float(worst)}


def _check_mixed_sectional(ctx: _Context, opts: dict) -> dict:
    wp = ctx.warped
    metric = build_metric(wp)
    worst = 0.0
    for p in _chart_points(ctx):
        gx = metric.at(p)
        X = np.zeros(wp.dim)
        X[: wp.n1] = ctx.rng.normal(size=wp.n1)
        X /= np.sqrt(X @ gx @ X)
        Z = np.zeros(wp.dim)
        Z[wp.n1 :] = ctx.rng.normal(size=wp.n2)
        Z /= np.sqrt(Z @ gx @ Z)
        direct = mixed_sectional(wp, p, X, Z)
        cp = riemann(metric, p)
        via_riemann = sectional_curvature(cp, metric, p, X, Z)
        worst = np.maximum(worst, abs(direct - via_riemann))
    return {"pass": bool(worst < 1e-3), "max_residual": float(worst)}


def _check_laplacian_ratio(ctx: _Context, opts: dict) -> dict:
    worst = 0.0
    payload = []
    for p in _chart_points(ctx):
        rep = check_laplacian_ratio(ctx.warped, p)
        worst = np.maximum(worst, rep["max_deviation"])
        payload.append(rep)
    return {"pass": bool(worst < 1e-3), "max_deviation": float(worst), "points": payload}


def _check_trivial(ctx: _Context, opts: dict) -> dict:
    flag = is_trivial(ctx.warped, _chart_points(ctx), tol=ctx.tol.algebraic)
    expected = opts.get("expect")
    ok = True if expected is None else (flag == bool(expected))
    return {"pass": ok, "trivial": flag}


def _check_gauss_residual(ctx: _Context, opts: dict) -> dict:
    data = ctx.make_data()
    if ctx.immersion is not None:
        # intrinsic curvature from the pulled-back metric, independent of sigma
        h = ctx.tol.finite_difference
        cp = riemann(pullback_metric(ctx.immersion, h=h), ctx.chart_point(), h=h)
        intrinsic = CurvatureOracle("chart-pullback", cp.riemann04).rotated(
            data.extras["frame_coefficients"]
        )
        res = gauss_residual(data, intrinsic=intrinsic.value, rng=ctx.rng, samples=20)
        threshold = 1e-4
    else:
        res = gauss_residual(data, rng=ctx.rng, samples=20)
        threshold = 1e-9
    worst = np.max(list(res.values()))
    return {"pass": bool(worst < threshold), **res}


def _check_c_totally_real(ctx: _Context, opts: dict) -> dict:
    data = ctx.make_data()
    ok, residuals = is_C_totally_real(data, tol=ctx.tol.algebraic)
    expected = opts.get("expect")
    good = ok if expected is None else (ok == bool(expected))
    return {"pass": good, "c_totally_real": ok, **residuals}


def _check_a_xi(ctx: _Context, opts: dict) -> dict:
    data = ctx.make_data()
    res = a_xi_identity(data)
    return {"pass": res["residual"] < 1e-6, "residual": res["residual"]}


def _check_km_condition(ctx: _Context, opts: dict) -> dict:
    residual = check_km_condition(
        ctx.ambient.oracle, ctx.ambient.frame, rng=ctx.rng, samples=min(ctx.samples, 50)
    )
    return {"pass": residual < 1e-10, "residual": residual}


def _check_phi_sectional(ctx: _Context, opts: dict) -> dict:
    frame = ctx.ambient.frame
    values = []
    for _ in range(min(ctx.samples, 100)):
        X = ctx.rng.normal(size=frame.dim)
        X -= (frame.eta @ X) * frame.xi
        X /= np.linalg.norm(X)
        values.append(phi_sectional(ctx.ambient.oracle, frame, X))
    spread = float(np.ptp(values))
    expected = opts.get("expect")
    ok = spread < 1e-10 and (expected is None or abs(values[0] - expected) < 1e-9)
    return {"pass": ok, "value": values[0], "spread": spread}


def _check_oracle_symmetries(ctx: _Context, opts: dict) -> dict:
    orc = ctx.ambient.oracle
    d = ctx.ambient.dim
    worst = 0.0
    for _ in range(min(ctx.samples, 200)):
        X, Y, Z, W = ctx.rng.normal(size=(4, d))
        v = orc.value(X, Y, Z, W)
        worst = np.max(
            [
                worst,
                abs(v + orc.value(Y, X, Z, W)),
                abs(v + orc.value(X, Y, W, Z)),
                abs(v - orc.value(Z, W, X, Y)),
                abs(v + orc.value(Y, Z, X, W) + orc.value(Z, X, Y, W)),
            ]
        )
    return {"pass": bool(worst < 1e-10), "max_residual": float(worst)}


def _run_inequality(ctx: _Context, opts: dict, fn, name: str) -> dict:
    """A sampled inequality check: `fn` maps the check's stack to an
    InequalityStack; the record prints the last sample's report."""
    if ctx.immersion is not None and name == "general_inequality":
        rep = chart_inequality(
            ctx.immersion, ctx.chart_point(), h=ctx.tol.finite_difference, data=ctx.fixed_sample()
        )
        ok = rep.gap >= -rep.equality_tol and rep.extras["lhs_agreement"] < 1e-3
        return {
            "pass": bool(ok),
            "lhs": rep.lhs,
            "rhs": rep.rhs,
            "gap": rep.gap,
            "equality": rep.equality,
            "diagnostics": rep.diagnostics,
            "lhs_proxy": rep.extras["lhs_proxy"],
            "lhs_agreement": rep.extras["lhs_agreement"],
        }
    batch = fn(ctx.sampled_stack())
    # np.min / np.max propagate NaN, where min / max would drop it
    min_gap = np.min(batch.gap)
    worst_cross = np.max(batch.extras.get("rhs_cross_residual", 0.0))
    last = batch.report(-1)
    ok = min_gap >= -1e-9 and worst_cross < 1e-9
    out = {
        "pass": bool(ok),
        "samples": len(batch.gap),
        "min_gap": float(min_gap),
        "lhs": last.lhs,
        "rhs": last.rhs,
        "equality": last.equality,
        "diagnostics": last.diagnostics,
    }
    if worst_cross:
        out["max_rhs_cross_residual"] = float(worst_cross)
    return out


def _check_general_inequality(ctx: _Context, opts: dict) -> dict:
    return _run_inequality(ctx, opts, general_inequality_stack, "general_inequality")


def _check_kmu_inequality(ctx: _Context, opts: dict) -> dict:
    c = opts.get("c")
    return _run_inequality(
        ctx, opts, lambda s: kmu_space_form_inequality_stack(s, c=c), "kmu_space_form_inequality"
    )


def _check_non_sasakian_inequality(ctx: _Context, opts: dict) -> dict:
    return _run_inequality(
        ctx, opts, non_sasakian_inequality_stack, "non_sasakian_inequality"
    )


def _check_equality_case(ctx: _Context, opts: dict) -> dict:
    """Equality-constructed samples must close the gap; a single cross-block
    perturbation (applied to a copy of each sample) must reopen it and flip
    the diagnostics."""
    stack = ctx.sampled_stack(generator="equality")
    rep = general_inequality_stack(stack)
    equal = rep.equality & rep.mixed_totally_geodesic & rep.partial_mean_equal
    sigma = stack.sigma.copy()
    sigma[:, 0, 0, stack.n1] += 1e-2
    sigma[:, 0, stack.n1, 0] += 1e-2
    rep2 = general_inequality_stack(replace(stack, sigma=sigma))
    reopened = ~rep2.equality & ~rep2.mixed_totally_geodesic
    miscount = int(np.count_nonzero(~equal) + np.count_nonzero(~reopened))
    # np.max / np.min keep a NaN gap
    worst_eq = np.max(np.abs(rep.gap))
    worst_pert = np.min(rep2.gap)
    ok = miscount == 0 and worst_eq < 1e-8 and worst_pert >= 1e-5
    return {
        "pass": bool(ok),
        "misclassifications": miscount,
        "max_equality_gap": float(worst_eq),
        "min_perturbed_gap": float(worst_pert),
    }


def _check_decompose(ctx: _Context, opts: dict) -> dict:
    dec = decompose_stack(ctx.sampled_stack())
    worst_ai = np.max(dec.ai_residual)
    worst_slack = np.min(dec.lemma_slack)
    return {
        "pass": bool(worst_ai < 1e-9 and worst_slack >= -1e-9),
        "max_ai_residual": float(worst_ai),
        "min_lemma_slack": float(worst_slack),
    }


def _check_chen_lemma(ctx: _Context, opts: dict) -> dict:
    bad = 0
    for _ in range(max(1, ctx.samples)):
        ell = int(ctx.rng.integers(2, 11))
        a = list(ctx.rng.normal(size=ell))
        if ctx.rng.random() < 0.5 and ell >= 3:
            tail = a[0] + a[1]
            a = [a[0], a[1]] + [tail] * (ell - 2)
        s = sum(a)
        b = s * s / (ell - 1) - sum(v * v for v in a)
        res = chen_lemma(a, b)
        if not res["holds"] or res["equality"] != res["tail_condition"]:
            bad += 1
    return {"pass": bad == 0, "violations": bad}


def _check_obstruction(ctx: _Context, opts: dict) -> dict:
    data = ctx.make_data()
    frame = ctx.ambient.frame
    if frame is not None and frame.is_sasakian():
        rep = kmu_space_form_inequality(data, c=ctx.ambient.params.get("c"))
    elif frame is not None:
        rep = non_sasakian_inequality(data)
    else:
        rep = general_inequality(data)
    verdict = obstruction_check(
        rep,
        harmonic=bool(opts.get("harmonic", False)),
        eigenvalue=opts.get("eigenvalue"),
        minimal=bool(opts.get("minimal", False)),
    )
    rep.verdict = verdict
    expected = opts.get("expect")
    ok = True if expected is None else (verdict == expected)
    return {"pass": ok, "verdict": verdict, "rhs_curvature_term": rep.rhs - rep.mean_term}


_CHECKS: dict[str, Callable[[_Context, dict], dict]] = {
    "connection_identity": _check_connection_identity,
    "mixed_sectional": _check_mixed_sectional,
    "laplacian_ratio": _check_laplacian_ratio,
    "trivial": _check_trivial,
    "gauss_residual": _check_gauss_residual,
    "c_totally_real": _check_c_totally_real,
    "a_xi_identity": _check_a_xi,
    "km_condition": _check_km_condition,
    "phi_sectional": _check_phi_sectional,
    "oracle_symmetries": _check_oracle_symmetries,
    "general_inequality": _check_general_inequality,
    "kmu_space_form_inequality": _check_kmu_inequality,
    "non_sasakian_inequality": _check_non_sasakian_inequality,
    "equality_case": _check_equality_case,
    "decompose": _check_decompose,
    "chen_lemma": _check_chen_lemma,
    "obstruction": _check_obstruction,
}


def check_names() -> list[str]:
    return sorted(_CHECKS)


def resolve_seed(spec: SceneSpec, override: int | None = None) -> int:
    if override is not None:
        return int(override)
    if spec.seed is not None:
        return int(spec.seed)
    env = os.environ.get(ENV_SEED)
    return int(env) if env else 0


def run(
    spec: SceneSpec,
    tolerances: Tolerance | None = None,
    seed: int | None = None,
    samples: int | None = None,
) -> RunReport:
    """Execute every requested check; failures are recorded, not raised."""
    tol = tolerances or Tolerance(
        algebraic=float(spec.tolerances.get("algebraic", 1e-10)),
        finite_difference=float(spec.tolerances.get("finite_difference", 1e-4)),
        equality_gap=float(spec.tolerances.get("equality_gap", 1e-6)),
    )
    used_seed = resolve_seed(spec, seed)
    used_samples = int(samples) if samples is not None else spec.samples
    start = time.perf_counter()
    rng = np.random.default_rng(used_seed)
    try:
        ctx = _build_context(spec, tol, rng, used_samples)
    except TypeError as exc:
        raise SceneValidationError(f"bad source parameters: {exc}") from exc
    records = []
    for check in spec.checks:
        name = check["name"]
        opts = {k: v for k, v in check.items() if k != "name"}
        record = {"name": name}
        try:
            record.update(_CHECKS[name](ctx, opts))
        except Exception as exc:  # sibling checks must still run
            record.update({"pass": False, "error": f"{type(exc).__name__}: {exc}"})
        records.append(record)
    wall = time.perf_counter() - start
    env = {
        "version": __version__,
        "seed": used_seed,
        "samples": used_samples,
        "tolerances": {
            "algebraic": tol.algebraic,
            "finite_difference": tol.finite_difference,
            "equality_gap": tol.equality_gap,
        },
        "ambient_notes": list(ctx.ambient.notes),
    }
    return RunReport(
        scene=spec.to_dict(), records=records, environment=env, wall_time=wall
    )


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _canonical_json(obj) -> str:
    """Sorted keys; every float rendered as %.12e for byte-stable output."""
    obj = _jsonable(obj)
    if isinstance(obj, dict):
        items = ", ".join(
            f"{json.dumps(k)}: {_canonical_json(v)}" for k, v in sorted(obj.items())
        )
        return "{" + items + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(_canonical_json(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return json.dumps(obj)
    if isinstance(obj, float):
        return f"{obj:.12e}"
    raise TypeError(f"cannot canonicalize {type(obj)}")


def emit(report: RunReport, fmt: str = "json") -> bytes:
    """Serialize a report: canonical JSON (wall time excluded for
    byte-determinism) or a human-readable text table."""
    if fmt == "json":
        payload = {
            "scene": report.scene,
            "environment": report.environment,
            "records": report.records,
        }
        return (_canonical_json(payload) + "\n").encode()
    if fmt == "text":
        lines = []
        for r in report.records:
            status = "PASS" if r.get("pass") else "FAIL"
            detail = ""
            for key in ("gap", "min_gap", "max_residual", "residual", "max_deviation", "verdict", "error"):
                if key in r:
                    v = r[key]
                    detail = f"  {key}={v:.6e}" if isinstance(v, float) else f"  {key}={v}"
                    break
            lines.append(f"{r['name']:32s} {status}{detail}")
        lines.append(
            f"-- {len(report.records)} checks, seed {report.environment['seed']}, "
            f"{report.wall_time:.2f}s"
        )
        for note in report.environment.get("ambient_notes", []):
            lines.append(f"note: {note}")
        return ("\n".join(lines) + "\n").encode()
    raise SceneValidationError(f"unknown output format {fmt!r}")
