"""Declarative scene ingestion, batch verification and report emission.

A scene is a JSON object with keys "ambient", "source", "checks",
"tolerances", "samples" and "seed".  Running a scene executes each requested
check against the declared ambient model and data source; per-check failures
are captured in the report and never abort sibling checks.  Reports serialize
to canonical JSON (sorted keys, finite floats rendered as %.12e and the
non-finite ones as the strings "NaN", "Infinity" and "-Infinity", volatile
wall time excluded), so a fixed (scene, seed, tolerance) triple is
byte-reproducible.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from json.encoder import encode_basestring_ascii as _json_string
from typing import Callable

import numpy as np

from . import __version__
from .contact import (
    AmbientSpace,
    ambient_catalog,
    check_km_condition,
    make_ambient,
    phi_sectional_constant,
)
from .errors import InvalidInputError, SceneParseError, SceneValidationError, WarpcheckError
from .immersion import (
    ChartImmersion,
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
    NONEXISTENCE,
    UNOBSTRUCTED,
    WARPED_PRODUCT_IMMERSION,
    chart_inequality,
    chen_lemma,
    decompose_stack,
    general_inequality_stack,
    kmu_space_form_inequality_stack,
    non_sasakian_inequality_stack,
    obstruction_check,
)
from .numeric import Tolerance, as_vector, frame_tensor
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
from .charts import CurvaturePoint, riemann

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
    _source: _Source | None = field(default=None, init=False, repr=False, compare=False)

    def ambient_space(self) -> AmbientSpace:
        """The declared ambient model, built on first use; validation and
        every run of this spec share the one instance."""
        if self._ambient_space is None:
            amb = dict(self.ambient)
            kind = amb.pop("kind", None)
            _require(kind in ambient_catalog(), f"unknown ambient kind {kind!r}")
            amb = _read_numbers(amb, _AMBIENT_NUMBERS, "ambient parameter")
            try:
                self._ambient_space = make_ambient(kind, **amb)
            except TypeError as exc:
                raise SceneValidationError(f"bad ambient parameters for {kind!r}: {exc}") from exc
        return self._ambient_space

    def source_data(self) -> _Source:
        """The declared source, validated and built on first use by its
        `_SOURCES` entry; validation and every run of this spec share it."""
        if self._source is None:
            kind = self.source.get("kind")
            _require(kind in _SOURCES, f"unknown source kind {kind!r}")
            try:
                self._source = _SOURCES[kind](self.source, self.ambient_space())
            except SceneValidationError:
                raise
            # a value of the wrong type or form, or one a library constructor
            # rejects, is bad scene input
            except (TypeError, ValueError, WarpcheckError) as exc:
                raise SceneValidationError(f"bad {kind!r} source: {exc}") from exc
        return self._source

    def tolerance(self, **overrides) -> Tolerance:
        """The scene's `tolerances` laid over the `Tolerance` defaults, then
        every override that is not None (the command-line flags)."""
        values = {**self.tolerances, **{k: v for k, v in overrides.items() if v is not None}}
        try:
            return Tolerance(**{k: float(v) for k, v in values.items()})
        except (TypeError, ValueError, InvalidInputError) as exc:
            raise SceneValidationError(f"bad tolerances: {exc}") from exc

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


def _integer(value, what: str, low: int = 1) -> int:
    """`value` as an int >= low; bools and non-integers are rejected."""
    _require(
        isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= low,
        f"{what} must be an integer >= {low} (got {value!r})",
    )
    return int(value)


def _real(value, what: str, low: float = -np.inf) -> float:
    """`value` as a finite float >= low; bools, strings and non-finite
    numbers are rejected."""
    ok = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    try:
        ok = ok and math.isfinite(value) and value >= low
    except OverflowError:  # an int beyond the float range
        ok = False
    _require(ok, f"{what} must be a finite number{'' if low == -np.inf else f' >= {low:g}'} (got {value!r})")
    return float(value)


def _boolean(value, what: str) -> bool:
    """`value` as a bool; only true and false are accepted, not 0, 1 or a
    string such as "false"."""
    _require(isinstance(value, (bool, np.bool_)), f"{what} must be true or false (got {value!r})")
    return bool(value)


# the readers of the ambient parameters and of the dimensions in a source's 'params'
_AMBIENT_NUMBERS = {"m": _integer, "c": _real, "kappa": _real, "mu": _real}
_DIMENSIONS = {"n": _integer, "n1": _integer, "n2": _integer}


def _read_numbers(values: dict, readers: dict, where: str) -> dict:
    """`values` with each key that has a reader read by it; any other key is
    passed on as it is, for the constructor to reject."""
    return {k: readers[k](v, f"{where} {k}") if k in readers else v for k, v in values.items()}


def _positive(value, what: str) -> float:
    """`value` as a finite float > 0 (the rules of `_real`)."""
    x = _real(value, what)
    _require(x > 0.0, f"{what} must be a number > 0 (got {value!r})")
    return x


_VERDICTS = (NONEXISTENCE, WARPED_PRODUCT_IMMERSION, UNOBSTRUCTED)


def _verdict(value, what: str) -> str:
    _require(
        isinstance(value, str) and value in _VERDICTS, f"{what} must be one of {list(_VERDICTS)} (got {value!r})"
    )
    return value


def warp_from_descriptor(d: dict, where: str = "warping") -> WarpFunction:
    """Closed warping-function catalog; no general expression evaluation.
    Every number is checked here; `where` names the descriptor in errors."""
    _require(isinstance(d, dict) and "kind" in d, f"{where} descriptor needs a 'kind'")
    kind = d["kind"]
    if kind == "const":
        return const_fn(_real(d.get("a", 1.0), f"{where} const 'a'"))
    if kind == "cos":
        return cos_fn()
    if kind == "exp":
        return exp_fn()
    if kind == "polynomial":
        coeffs = d.get("coeffs")
        _require(isinstance(coeffs, list) and coeffs, f"{where} polynomial needs a non-empty 'coeffs' list")
        return poly_fn([_real(v, f"{where} polynomial coeffs[{i}]") for i, v in enumerate(coeffs)])
    if kind in ("sum", "product"):
        terms = d.get("terms", [])
        _require(isinstance(terms, list) and len(terms) >= 2, f"{where} {kind} needs at least two terms")
        combine = sum_fn if kind == "sum" else product_fn
        out = warp_from_descriptor(terms[0], f"{where} {kind} terms[0]")
        for i, t in enumerate(terms[1:], 1):
            out = combine(out, warp_from_descriptor(t, f"{where} {kind} terms[{i}]"))
        return out
    raise SceneValidationError(f"unknown warping kind {kind!r}")


def _factor_from_descriptor(d: dict, which: str):
    _require(isinstance(d, dict) and "kind" in d, f"{which} descriptor needs a 'kind'")
    kind = d["kind"]
    dim = _integer(d.get("dim", 1), f"{which} 'dim'")
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
    _require(
        isinstance(raw.get("ambient"), dict) and isinstance(raw.get("source"), dict),
        "scene needs 'ambient' and 'source' objects",
    )
    tolerances = raw.get("tolerances", {})
    _require(isinstance(tolerances, dict), "'tolerances' must be an object")

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

    seed = raw.get("seed")
    spec = SceneSpec(
        ambient=dict(raw["ambient"]),
        source=dict(raw["source"]),
        checks=checks,
        tolerances=dict(tolerances),
        samples=_integer(raw.get("samples", 100), "samples"),
        seed=None if seed is None else _integer(seed, "seed", 0),
    )
    _validate(spec)
    return spec


def _validate(spec: SceneSpec):
    ambient, source = spec.ambient_space(), spec.source_data()  # raise on bad input
    spec.tolerance()
    names = {c["name"] for c in spec.checks}
    unknown = names - set(_CHECKS)
    _require(not unknown, f"unknown checks: {sorted(unknown)}")
    for check in spec.checks:
        name, readers = check["name"], _CHECKS[check["name"]][2]
        for key, value in check.items():
            if key == "name":
                continue
            _require(
                key in readers,
                f"check {name!r} has no option {key!r} (its options: {sorted(readers) or 'none'})",
            )
            readers[key](value, f"check {name!r} option {key!r}")
        if name == "obstruction":  # combinations that can never give a verdict
            _require(
                check.get("harmonic", False) != ("eigenvalue" in check),
                "check 'obstruction' needs exactly one of 'harmonic': true and an 'eigenvalue'",
            )
            _require(
                check.get("minimal", False),
                "check 'obstruction' needs 'minimal': true (its verdicts apply to minimal immersions)",
            )
    for requirement, (what, holds) in _REQUIREMENTS.items():
        lacking = sorted(n for n in names if requirement in _CHECKS[n][1])
        _require(not lacking or holds(ambient, source), f"checks {lacking} need {what}")
    if "non_sasakian_inequality" in names:
        kappa = ambient.params.get("kappa", 1.0)
        _require(
            kappa < 1.0 - 1e-8,
            "non_sasakian_inequality needs kappa < 1 (singular parameter)",
        )


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Source:
    """A built scene source: the warped chart it carries, a chart immersion
    and its point, one fixed sample (a stack of one), or a synthetic
    generator's settings."""

    warped: WarpedProductChart | None = None
    immersion: ChartImmersion | None = None
    point: np.ndarray | None = None
    fixed: PointwiseStack | None = None
    generator: str | None = None
    n1: int = 1
    n2: int = 1
    sigma_scale: float = 1.0


def _only_keys(obj: dict, where: str, *keys: str) -> None:
    """Reject any key of `obj` (the object `where` names) that is not one of
    `keys`, the keys its reader reads."""
    unknown = set(obj) - set(keys)
    _require(not unknown, f"unknown keys in the {where}: {sorted(unknown)} (its keys: {sorted(keys)})")


def _dims(src: dict, ambient: AmbientSpace) -> tuple[int, int]:
    n1, n2 = _integer(src.get("n1", 1), "n1"), _integer(src.get("n2", 1), "n2")
    _require(
        n1 + n2 < ambient.dim,
        f"n = {n1 + n2} does not fit inside the {ambient.dim}-dimensional ambient",
    )
    return n1, n2


def _params(src: dict) -> dict:
    """A source's 'params' object, its dimensions read by `_integer`."""
    params = src.get("params", {})
    _require(isinstance(params, dict), f"source 'params' must be an object (got {params!r})")
    return _read_numbers(params, _DIMENSIONS, "source parameter")


def _warped_chart_source(src: dict, ambient: AmbientSpace) -> _Source:
    _only_keys(src, "'warped-chart' source", "kind", "key", "params")
    _require(src.get("key") in chart_catalog(), f"unknown chart key {src.get('key')!r}")
    return _Source(warped=named_chart(src["key"], **_params(src)))


def _explicit_warped_source(src: dict, ambient: AmbientSpace) -> _Source:
    _only_keys(src, "'explicit-warped' source", "kind", "factor1", "factor2", "warping", "points")
    _require(
        all(k in src for k in ("factor1", "factor2", "warping")),
        "explicit-warped source needs 'factor1', 'factor2' and 'warping'",
    )
    points = src.get("points")
    _require(isinstance(points, list) and points, "explicit-warped source needs a non-empty 'points' list")
    factor1 = _factor_from_descriptor(src["factor1"], "factor1")
    factor2 = _factor_from_descriptor(src["factor2"], "factor2")
    where, dim = "explicit-warped source 'points'", factor1.dim + factor2.dim
    return _Source(
        warped=WarpedProductChart(
            factor1=factor1,
            factor2=factor2,
            warp=warp_from_descriptor(src["warping"]),
            label="explicit",
            sample_points=[as_vector(_real_array(p, f"{where}[{i}]"), dim) for i, p in enumerate(points)],
        )
    )


def _chart_immersion_source(src: dict, ambient: AmbientSpace) -> _Source:
    key, params = src.get("key"), _params(src)
    if key == "dplus-leaf":
        # totally geodesic leaf drawn inside the declared contact ambient
        _only_keys(src, "dplus-leaf source", "kind", "key", "params")
        _only_keys(params, "dplus-leaf 'params'", "n1", "n2")
        _require(ambient.frame is not None, "dplus-leaf needs a contact ambient")
        return _Source(fixed=dplus_leaf_in(ambient, *_dims(params, ambient)))
    _only_keys(src, "'chart-immersion' source", "kind", "key", "params", "point")
    _require(key in chart_immersion_catalog(), f"unknown immersion key {key!r}")
    im = chart_immersion_catalog()[key](**params)
    _require(
        im.ambient_dim == ambient.dim,
        f"immersion {key!r} maps into a {im.ambient_dim}-dimensional chart, "
        f"the ambient is {ambient.dim}-dimensional",
    )
    _require(
        not ambient.oracle.tensor.any(),
        f"immersion {key!r} maps into flat R^{im.ambient_dim}, "
        f"but the {ambient.kind!r} ambient is curved",
    )
    point = im.default_point
    if "point" in src:
        point = as_vector(_real_array(src["point"], "chart-immersion source 'point'"), im.n)
    return _Source(warped=im.warped, immersion=im, point=point)


# generator: the frame kind it draws in a contact ambient and in any other
_GENERATORS = {
    "random": ("generic", "generic"),
    "c-totally-real": ("c-totally-real", "c-totally-real"),
    "equality": ("dplus", "generic"),
    "minimal": ("c-totally-real", "generic"),
}


def _synthetic_source(src: dict, ambient: AmbientSpace) -> _Source:
    _only_keys(src, "'synthetic' source", "kind", "n1", "n2", "generator", "sigma_scale")
    n1, n2 = _dims(src, ambient)
    generator = src.get("generator", "random")
    _require(generator in _GENERATORS, f"unknown generator {generator!r}")
    scale = _real(src.get("sigma_scale", 1.0), "sigma_scale", low=0.0)
    return _Source(generator=generator, n1=n1, n2=n2, sigma_scale=scale)


def _real_array(value, what: str) -> np.ndarray:
    """Nested lists of numbers as a float array; every entry must pass
    `_real`, and an error names the entry by its index, as in what[2][0]."""

    def check(v, where: str):
        if isinstance(v, list):
            for i, entry in enumerate(v):
                check(entry, f"{where}[{i}]")
        else:
            _require(not isinstance(v, float) or math.isfinite(v), f"{where} is non-finite (got {v!r})")
            _real(v, where)

    check(value, what)
    return np.asarray(value, dtype=float)


def _explicit_source(src: dict, ambient: AmbientSpace) -> _Source:
    _only_keys(src, "'explicit' source", "kind", "n1", "n2", "tangent", "normal", "sigma")
    _require("tangent" in src and "sigma" in src, "explicit source needs 'tangent' and 'sigma' arrays")
    n1, n2 = _dims(src, ambient)
    tangent = _real_array(src["tangent"], "explicit source 'tangent'")
    if "normal" in src:
        normal = _real_array(src["normal"], "explicit source 'normal'")
    else:
        normal = complete_normal_frame(tangent)
    data = PointwiseStack(
        n1=n1,
        n2=n2,
        tangent=tangent[None],
        normal=normal[None],
        sigma=_real_array(src["sigma"], "explicit source 'sigma'")[None],
        oracle=ambient.oracle,
        contact=ambient.frame,
        label="explicit",
    )
    return _Source(fixed=data)


_SOURCES: dict[str, Callable[[dict, AmbientSpace], _Source]] = {
    "warped-chart": _warped_chart_source,
    "explicit-warped": _explicit_warped_source,
    "chart-immersion": _chart_immersion_source,
    "synthetic": _synthetic_source,
    "explicit": _explicit_source,
}

# requirement: (what it asks for, whether an (ambient, source) pair meets it)
_REQUIREMENTS: dict[str, tuple[str, Callable[[AmbientSpace, _Source], bool]]] = {
    "contact": ("a contact ambient", lambda ambient, src: ambient.frame is not None),
    "warped": ("a source that carries a warped chart", lambda ambient, src: src.warped is not None),
    "pointwise": (
        "a synthetic, explicit or chart-immersion source",
        lambda ambient, src: src.generator is not None or src.fixed is not None or src.immersion is not None,
    ),
}


@dataclass
class _Context:
    """One run's ambient, source, tolerances, generator and sample count.
    What several checks share (the fixed sample, the warped curvature, the
    drawn stacks) is built on first use."""

    ambient: AmbientSpace
    source: _Source
    tol: Tolerance
    rng: np.random.Generator
    samples: int
    _stacks: dict = field(default_factory=dict, repr=False)

    @cached_property
    def fixed(self) -> PointwiseStack | None:
        """The source's one sample, as a stack of one: explicit data, a dplus
        leaf, or a chart immersion's second fundamental form at its point
        (once per run); None for a synthetic source."""
        src = self.source
        if src.immersion is None:
            return src.fixed
        return second_fundamental_form(src.immersion, src.point)

    @cached_property
    def _warped_curvature(self) -> CurvaturePoint | Exception:
        # the error too: a cached_property does not cache a raise
        wp = self.source.warped
        try:
            return riemann(build_metric(wp), np.stack(wp.sample_points))
        except Exception as exc:
            return exc

    @property
    def warped_curvature(self) -> CurvaturePoint:
        """riemann of the warped chart's block metric at its sample points, as
        one stack shared by every warped check of the run; evaluated once,
        and when it fails every warped check raises its error."""
        cp = self._warped_curvature
        if isinstance(cp, Exception):
            raise cp
        return cp

    def stack(self, generator: str | None = None) -> PointwiseStack:
        """The run's samples of `generator` (by default the source's): the
        fixed sample, or `samples` draws in one block.  Each is built on
        first use and then shared, with its K~ table, by every sampled check
        of the run; a fixed source has only the one."""
        key = None if self.fixed is not None else generator or self.source.generator
        if key not in self._stacks:
            self._stacks[key] = self.fixed if key is None else self._draw(key)
        return self._stacks[key]

    def _draw(self, gen: str) -> PointwiseStack:
        src, contact = self.source, self.ambient.frame
        scale = 0.0 if gen == "minimal" else src.sigma_scale
        frame_kind = _GENERATORS[gen][contact is None]
        stack = random_stack(self.rng, self.ambient, src.n1, src.n2, self.samples, scale, frame_kind)
        if gen == "equality":
            stack.sigma = balance_for_equality(stack.sigma, src.n1)
        if gen in ("c-totally-real", "equality") and contact is not None:
            stack.sigma = force_xi_consistency(stack.sigma, (stack.tangent, stack.normal), contact)
        return stack


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


# The folds below use np.max / np.min, which keep a NaN
# residual where Python's max and min would drop it.


def _check_connection_identity(ctx: _Context, opts: dict) -> dict:
    worst = np.max(check_connection_identity(ctx.source.warped, ctx.warped_curvature))
    return {"pass": bool(worst < 1e-5), "max_residual": float(worst)}


def _check_mixed_sectional(ctx: _Context, opts: dict) -> dict:
    """R(X, Z, Z', W) = -Hess f(X, W) / f g(Z, Z') on the leaf-fibre block of
    the shared curvature; each entry's residual is over the lengths of its
    four coordinate vectors, so it is in curvature units."""
    wp, cp = ctx.source.warped, ctx.warped_curvature
    n1, g = wp.n1, cp.g
    expected = mixed_sectional(wp, cp)[..., :, None, None, :] * g[..., None, n1:, n1:, None]
    length = np.sqrt(np.diagonal(g, axis1=-2, axis2=-1))
    leaf, fibre = length[..., :n1], length[..., n1:]
    scale = np.einsum("...i,...z,...y,...w->...izyw", leaf, fibre, fibre, leaf)
    worst = np.max(np.abs(cp.riemann04[..., :n1, n1:, n1:, :n1] - expected) / scale)
    return {"pass": bool(worst < 1e-3), "max_residual": float(worst)}


def _check_laplacian_ratio(ctx: _Context, opts: dict) -> dict:
    cp = ctx.warped_curvature
    rep = check_laplacian_ratio(ctx.source.warped, cp)
    worst = np.max(rep["max_deviation"])
    payload = [{key: value[i] for key, value in rep.items()} for i in range(len(cp.x))]
    return {"pass": bool(worst < 1e-3), "max_deviation": float(worst), "points": payload}


def _check_trivial(ctx: _Context, opts: dict) -> dict:
    wp = ctx.source.warped
    flag = is_trivial(wp, wp.sample_points, tol=ctx.tol.algebraic)
    expected = opts.get("expect")
    ok = True if expected is None else (flag == expected)
    return {"pass": ok, "trivial": flag}


def _check_gauss_residual(ctx: _Context, opts: dict) -> dict:
    im = ctx.source.immersion
    if im is not None:
        # intrinsic curvature from the pulled-back metric, independent of sigma
        data = ctx.fixed
        cp = riemann(pullback_metric(im), ctx.source.point)
        intrinsic = frame_tensor(cp.riemann04, data.extras["frame_coefficients"][None])
        res = {k: v.item() for k, v in gauss_residual(data, intrinsic=intrinsic).items()}
        worst = np.max(list(res.values()))
        return {"pass": bool(worst < 1e-4), **res}
    res = gauss_residual(ctx.stack())
    worst = np.max(list(res.values()), axis=0)
    i = int(np.argmax(worst))  # the first NaN, if there is one
    return {"pass": bool(worst[i] < 1e-9), **{k: float(v[i]) for k, v in res.items()}, "worst_sample": i}


def _check_c_totally_real(ctx: _Context, opts: dict) -> dict:
    ok, residuals = is_C_totally_real(ctx.stack(), tol=ctx.tol.algebraic)
    expected = opts.get("expect")
    good = ok if expected is None else (ok == expected)
    residual = np.maximum(residuals["xi_tangency"], residuals["anti_invariance"])
    # the sample farthest from C-total reality, or the nearest when it is not expected
    i = int(np.argmin(residual) if expected is False else np.argmax(residual))
    return {
        "pass": bool(good.all()),
        "c_totally_real": bool(ok[i]),
        **{k: float(v[i]) for k, v in residuals.items()},
        "worst_sample": i,
    }


def _check_a_xi(ctx: _Context, opts: dict) -> dict:
    residual = a_xi_identity(ctx.stack())["residual"]
    i = int(np.argmax(residual))  # the first NaN, if there is one
    return {"pass": bool(residual[i] < 1e-6), "residual": float(residual[i]), "worst_sample": i}


def _check_km_condition(ctx: _Context, opts: dict) -> dict:
    residual = check_km_condition(ctx.ambient.oracle, ctx.ambient.frame)
    return {"pass": residual < 1e-10, "residual": residual}


def _check_phi_sectional(ctx: _Context, opts: dict) -> dict:
    c, deviation = phi_sectional_constant(ctx.ambient.oracle, ctx.ambient.frame)
    expected = opts.get("expect")
    ok = deviation < 1e-10 and (expected is None or abs(c - expected) < 1e-9)
    return {"pass": bool(ok), "value": c, "spread": deviation}


def _check_oracle_symmetries(ctx: _Context, opts: dict) -> dict:
    """The antisymmetries, the pair symmetry and the first Bianchi identity
    of the (0,4) array, exactly on all of its d^4 entries."""
    R = ctx.ambient.oracle.tensor
    residuals = (
        R + R.transpose(1, 0, 2, 3),
        R + R.transpose(0, 1, 3, 2),
        R - R.transpose(2, 3, 0, 1),
        R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3),
    )
    worst = np.max([np.max(np.abs(r)) for r in residuals])
    return {"pass": bool(worst < 1e-10), "max_residual": float(worst)}


def _run_inequality(ctx: _Context, fn) -> dict:
    """A sampled inequality check: `fn` maps the check's stack to an
    InequalityStack; the record prints the report of the sample with the
    least gap, the first NaN gap if there is one, as `worst_sample`."""
    batch = fn(ctx.stack())
    i = int(np.argmin(batch.gap))
    worst = batch.report(i)
    # np.max propagates NaN, where max would drop it
    worst_cross = np.max(batch.extras.get("rhs_cross_residual", 0.0))
    ok = worst.gap >= -1e-9 and worst_cross < 1e-9
    out = {
        "pass": bool(ok),
        "samples": len(batch.gap),
        "min_gap": worst.gap,
        "lhs": worst.lhs,
        "rhs": worst.rhs,
        "equality": worst.equality,
        "diagnostics": worst.diagnostics,
        "worst_sample": i,
    }
    if worst_cross:
        out["max_rhs_cross_residual"] = float(worst_cross)
    return out


def _check_general_inequality(ctx: _Context, opts: dict) -> dict:
    src = ctx.source
    if src.immersion is None:
        return _run_inequality(ctx, general_inequality_stack)
    rep = chart_inequality(src.immersion, src.point, data=ctx.fixed)
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


def _check_kmu_inequality(ctx: _Context, opts: dict) -> dict:
    c = opts.get("c")
    return _run_inequality(ctx, lambda s: kmu_space_form_inequality_stack(s, c=c))


def _check_non_sasakian_inequality(ctx: _Context, opts: dict) -> dict:
    return _run_inequality(ctx, non_sasakian_inequality_stack)


def _check_equality_case(ctx: _Context, opts: dict) -> dict:
    """Equality-constructed samples must close the gap; a single cross-block
    perturbation (applied to a copy of each sample) must reopen it and flip
    the diagnostics."""
    stack = ctx.stack(generator="equality")
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
    dec = decompose_stack(ctx.stack())
    worst_ai = np.max(dec.ai_residual)
    worst_slack = np.min(dec.lemma_slack)
    return {
        "pass": bool(worst_ai < 1e-9 and worst_slack >= -1e-9),
        "max_ai_residual": float(worst_ai),
        "min_lemma_slack": float(worst_slack),
    }


def _check_chen_lemma(ctx: _Context, opts: dict) -> dict:
    bad = 0
    for _ in range(ctx.samples):
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
    """A verdict per sample and their counts.  The worst sample is the first
    that misses `expect`, or else the one whose curvature term lies nearest
    the required Delta f / f (0, or the eigenvalue): the closest call."""
    stack, frame = ctx.stack(), ctx.ambient.frame
    if frame is not None and frame.is_sasakian():
        batch = kmu_space_form_inequality_stack(stack, c=ctx.ambient.params.get("c"))
    elif frame is not None:
        batch = non_sasakian_inequality_stack(stack)
    else:
        batch = general_inequality_stack(stack)
    harmonic, eigenvalue = opts.get("harmonic", False), opts.get("eigenvalue")
    verdicts = obstruction_check(
        batch, harmonic=harmonic, eigenvalue=eigenvalue, minimal=opts.get("minimal", False)
    )
    curvature = batch.rhs - batch.mean_term
    expected = opts.get("expect")
    missed = np.zeros(len(verdicts), bool) if expected is None else verdicts != expected
    required = 0.0 if harmonic else eigenvalue
    i = int(np.argmax(missed) if missed.any() else np.argmin(np.abs(curvature - required)))
    return {
        "pass": not missed.any(),
        "verdict": str(verdicts[i]),
        "verdicts": {v: int(np.count_nonzero(verdicts == v)) for v in _VERDICTS},
        "rhs_curvature_term": float(curvature[i]),
        "worst_sample": i,
    }


_BOOLEAN_EXPECT = {"expect": _boolean}

# check: (its function, the `_REQUIREMENTS` a scene must meet to request it,
# a reader for each option it takes; `_validate` rejects any other key)
_CHECKS: dict[str, tuple[Callable[[_Context, dict], dict], tuple[str, ...], dict[str, Callable]]] = {
    "connection_identity": (_check_connection_identity, ("warped",), {}),
    "mixed_sectional": (_check_mixed_sectional, ("warped",), {}),
    "laplacian_ratio": (_check_laplacian_ratio, ("warped",), {}),
    "trivial": (_check_trivial, ("warped",), _BOOLEAN_EXPECT),
    "gauss_residual": (_check_gauss_residual, ("pointwise",), {}),
    "c_totally_real": (_check_c_totally_real, ("pointwise", "contact"), _BOOLEAN_EXPECT),
    "a_xi_identity": (_check_a_xi, ("pointwise", "contact"), {}),
    "km_condition": (_check_km_condition, ("contact",), {}),
    "phi_sectional": (_check_phi_sectional, ("contact",), {"expect": _real}),
    "oracle_symmetries": (_check_oracle_symmetries, (), {}),
    "general_inequality": (_check_general_inequality, ("pointwise",), {}),
    "kmu_space_form_inequality": (_check_kmu_inequality, ("pointwise", "contact"), {"c": _real}),
    "non_sasakian_inequality": (_check_non_sasakian_inequality, ("pointwise", "contact"), {}),
    "equality_case": (_check_equality_case, ("pointwise",), {}),
    "decompose": (_check_decompose, ("pointwise",), {}),
    "chen_lemma": (_check_chen_lemma, (), {}),
    "obstruction": (
        _check_obstruction,
        ("pointwise",),
        {"harmonic": _boolean, "minimal": _boolean, "eigenvalue": _positive, "expect": _verdict},
    ),
}


def check_names() -> list[str]:
    return sorted(_CHECKS)


def resolve_seed(spec: SceneSpec, override: int | None = None) -> int:
    if override is not None:
        return _integer(override, "seed", 0)
    if spec.seed is not None:
        return int(spec.seed)
    env = os.environ.get(ENV_SEED)
    if not env:
        return 0
    _require(env.isascii() and env.isdigit(), f"{ENV_SEED} must be an integer >= 0 (got {env!r})")
    return int(env)


def run(
    spec: SceneSpec,
    tolerances: Tolerance | None = None,
    seed: int | None = None,
    samples: int | None = None,
) -> RunReport:
    """Execute every requested check; failures are recorded, not raised.
    A spec that parse_scene would reject raises SceneValidationError here
    too, before any check runs."""
    _validate(spec)
    tol = tolerances or spec.tolerance()
    used_seed = resolve_seed(spec, seed)
    used_samples = spec.samples if samples is None else _integer(samples, "samples")
    start = time.perf_counter()
    rng = np.random.default_rng(used_seed)
    ctx = _Context(spec.ambient_space(), spec.source_data(), tol, rng, used_samples)
    records = []
    for check in spec.checks:
        name = check["name"]
        opts = {k: v for k, v in check.items() if k != "name"}
        record = {"name": name}
        try:
            record.update(_CHECKS[name][0](ctx, opts))
        except Exception as exc:  # sibling checks must still run
            record.update({"pass": False, "error": f"{type(exc).__name__}: {exc}"})
        records.append(record)
    wall = time.perf_counter() - start
    env = {
        "version": __version__,
        "seed": used_seed,
        "samples": used_samples,
        "tolerances": asdict(tol),
        "ambient_notes": list(ctx.ambient.notes),
    }
    return RunReport(
        scene=spec.to_dict(), records=records, environment=env, wall_time=wall
    )


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


# a non-finite float as the JSON string of its name; %.12e gives no other text
_NON_FINITE = {"nan": '"NaN"', "inf": '"Infinity"', "-inf": '"-Infinity"'}


def _canonical_json(obj) -> str:
    """Keys sorted as strings; every finite float rendered as %.12e for
    byte-stable output, and NaN, +inf and -inf as the strings "NaN",
    "Infinity" and "-Infinity", so every report is JSON; numpy values are
    converted as they are rendered.  Strings go through the encoder that
    json.dumps runs for a str (ASCII output), so keys and string values read
    exactly as json.dumps renders them."""
    if isinstance(obj, dict):
        items = sorted(((str(k), v) for k, v in obj.items()), key=lambda kv: kv[0])
        return "{" + ", ".join(f"{_json_string(k)}: {_canonical_json(v)}" for k, v in items) + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_canonical_json(v) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return _json_string(obj)
    if isinstance(obj, (float, np.floating)):
        text = f"{float(obj):.12e}"
        return _NON_FINITE.get(text, text)
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
