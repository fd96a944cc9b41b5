"""Stacked sampled algebra: stream preservation of the stacked generators,
parity of each stacked kernel on a stack with the same kernel on each
sample's stack of one, a sigma-only oracle for the gap, and validation that
names the bad sample."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from warpcheck.contact import _KIJ_BLOCK, CurvatureOracle, make_ambient
from warpcheck.errors import (
    InvalidConfigurationError,
    InvalidInputError,
    NumericalDomainError,
)
from warpcheck.immersion import (
    PointwiseStack,
    a_xi_identity,
    balance_for_equality,
    force_xi_consistency,
    gauss_residual,
    is_C_totally_real,
    is_mixed_totally_geodesic,
    mean_curvatures,
    random_data,
    random_stack,
    second_fundamental_form,
    sphere_in_euclidean,
)
from warpcheck.inequality import (
    chart_inequality,
    decompose_stack,
    general_inequality,
    general_inequality_stack,
    kmu_space_form_inequality_stack,
    non_sasakian_inequality_stack,
)
from warpcheck.scenes import _Context, parse_scene
from warpcheck.numeric import Tolerance

PARITY = 1e-12

# m = 6 for the contact models, so that anti-invariant frames reach n = 6
AMBIENTS = [
    ("euclidean", {"m": 7}),
    ("real-space-form", {"m": 7, "c": -1.3}),
    ("sasakian-space-form", {"m": 6, "c": -2.0}),
    ("kmu-space-form", {"m": 6, "kappa": 0.5, "mu": -1.0, "c": 1.7}),
    ("non-sasakian-kmu", {"m": 6, "kappa": 0.2, "mu": 0.8}),
    ("tangent-sphere-bundle", {"m": 6, "c": 0.4}),
]
BLOCKS = [(n1, n2) for n1 in (1, 2, 3) for n2 in (1, 2, 3)]


# --- stream preservation -------------------------------------------------


def _assert_same_draws(stack, samples):
    assert len(stack) == len(samples)
    for i, data in enumerate(samples):
        assert np.array_equal(stack.tangent[i : i + 1], data.tangent), i
        assert np.array_equal(stack.normal[i : i + 1], data.normal), i
        assert np.array_equal(stack.sigma[i : i + 1], data.sigma), i


@pytest.mark.parametrize(
    "kind,params,n1,n2,frame_kind,count",
    [
        ("euclidean", {"m": 7}, 2, 3, "generic", 500),
        ("non-sasakian-kmu", {"m": 4, "kappa": 0.3, "mu": 0.5}, 2, 2, "c-totally-real", 200),
        ("non-sasakian-kmu", {"m": 4, "kappa": 0.3, "mu": 0.5}, 1, 2, "dplus", 50),
        ("sasakian-space-form", {"m": 3, "c": 0.5}, 1, 2, "generic", 50),
    ],
)
@pytest.mark.parametrize("scale", [1.0, 0.0])
def test_random_stack_is_sequential_random_data(kind, params, n1, n2, frame_kind, count, scale):
    amb = make_ambient(kind, **params)
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    stack = random_stack(rng, amb, n1, n2, count, sigma_scale=scale, frame_kind=frame_kind)
    samples = [
        random_data(ref_rng, amb, n1, n2, sigma_scale=scale, frame_kind=frame_kind)
        for _ in range(count)
    ]
    _assert_same_draws(stack, samples)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # sigma_scale = 0 still draws sigma: the stream is where scale 1 leaves it
    other = np.random.default_rng(11)
    random_stack(other, amb, n1, n2, count, sigma_scale=1.0 - scale, frame_kind=frame_kind)
    assert other.bit_generator.state == rng.bit_generator.state


def _sequential_generator(rng, amb, gen, n1, n2, scale):
    """One sample of a scene generator, drawn as the per-sample loop did."""
    frame = amb.frame
    if gen == "random":
        return random_data(rng, amb, n1, n2, sigma_scale=scale)
    if gen == "c-totally-real":
        data = random_data(rng, amb, n1, n2, sigma_scale=scale, frame_kind="c-totally-real")
        data.sigma = force_xi_consistency(data.sigma, (data.tangent, data.normal), frame)
        return data
    if gen == "equality":
        kind = "dplus" if frame is not None else "generic"
        data = random_data(rng, amb, n1, n2, sigma_scale=scale, frame_kind=kind)
        data.sigma = balance_for_equality(data.sigma, n1)
        if frame is not None:
            data.sigma = force_xi_consistency(data.sigma, (data.tangent, data.normal), frame)
        return data
    kind = "c-totally-real" if frame is not None else "generic"
    return random_data(rng, amb, n1, n2, sigma_scale=0.0, frame_kind=kind)


CONTACT = {"kind": "non-sasakian-kmu", "m": 4, "kappa": 0.3, "mu": 0.5}
REAL = {"kind": "real-space-form", "m": 6, "c": 0.7}


@pytest.mark.parametrize(
    "gen,ambient",
    [(gen, CONTACT) for gen in ("random", "c-totally-real", "equality", "minimal")]
    + [(gen, REAL) for gen in ("random", "equality", "minimal")],  # c-totally-real needs a contact frame
)
def test_scene_generators_draw_the_sequential_stream(gen, ambient):
    scene = {
        "ambient": ambient,
        "source": {"kind": "synthetic", "generator": gen, "n1": 2, "n2": 2, "sigma_scale": 0.7},
        "checks": ["general_inequality"],  # a scene with no checks is refused
        "samples": 60,
        "seed": 5,
    }
    spec = parse_scene(scene)
    ctx = _Context(spec.ambient_space(), spec.source_data(), Tolerance(), np.random.default_rng(5), 60)
    stack = ctx.stack()
    ref_rng = np.random.default_rng(5)
    amb = spec.ambient_space()
    samples = [_sequential_generator(ref_rng, amb, gen, 2, 2, 0.7) for _ in range(60)]
    _assert_same_draws(stack, samples)
    assert ctx.rng.bit_generator.state == ref_rng.bit_generator.state


# --- stacked kernels against their one-sample entry points --------------------


def _close(batch_values, scalar_values):
    batch_values = np.asarray(batch_values, dtype=float)
    scalar_values = np.asarray(scalar_values, dtype=float)
    scale = np.maximum(1.0, np.abs(scalar_values))
    assert np.all(np.abs(batch_values - scalar_values) <= PARITY * scale)


def _ctr_stack(rng, amb, n1, n2, count):
    stack = random_stack(rng, amb, n1, n2, count, frame_kind="c-totally-real")
    stack.sigma = force_xi_consistency(stack.sigma, (stack.tangent, stack.normal), amb.frame)
    return stack


@pytest.mark.parametrize("kind,params", AMBIENTS, ids=[a[0] for a in AMBIENTS])
def test_stacked_kernels_match_the_one_sample_calls(kind, params):
    rng = np.random.default_rng(41)
    amb = make_ambient(kind, **params)
    for n1, n2 in BLOCKS:
        stacks = [random_stack(rng, amb, n1, n2, 12)]
        if amb.frame is not None:
            stacks.append(_ctr_stack(rng, amb, n1, n2, 12))
        for stack in stacks:
            rows = [stack.sample(i) for i in range(len(stack))]
            gen = general_inequality_stack(stack)
            # one kernel: a sample alone gives the numbers it gives in the stack
            reports = [general_inequality(r) for r in rows]
            for name in ("gap", "lhs", "rhs", "mean_term", "ambient_term"):
                assert np.array_equal(getattr(gen, name), [getattr(r, name) for r in reports]), name
            assert np.array_equal(gen.rec.norm_H, [r.norm_H for r in reports])
            dec = decompose_stack(stack)
            ref = [decompose_stack(r) for r in rows]
            _close(dec.ai_residual, [d.ai_residual[0] for d in ref])
            _close(dec.lemma_slack, [d.lemma_slack[0] for d in ref])
            assert [d.lemma_equality[0] for d in ref] == dec.lemma_equality.tolist()
            if stack.label != "random-c-totally-real":
                continue
            specs = []
            if amb.frame.c is not None:
                specs.append(kmu_space_form_inequality_stack)
            if amb.frame.kappa < 1.0 - 1e-8:
                specs.append(non_sasakian_inequality_stack)
            for stacked_fn in specs:
                spec = stacked_fn(stack)
                ref = [stacked_fn(r).report(0) for r in rows]
                _close(spec.gap, [r.gap for r in ref])
                _close(spec.extras["rhs_cross_residual"], [r.extras["rhs_cross_residual"] for r in ref])
                assert spec.report(-1) == ref[-1]


@pytest.mark.parametrize("n", range(2, 7))
def test_decompose_stack_is_exact_between_a_stack_and_a_stack_of_one(n):
    # the tau sums of n >= 5 (10 or more pairs) read C-ordered rows, so a
    # sample's numbers do not depend on the stack it is in
    rng = np.random.default_rng(60 + n)
    for kind, params in AMBIENTS:
        amb = make_ambient(kind, **params)
        for n1 in range(1, n):
            stack = random_stack(rng, amb, n1, n - n1, 16)
            dec = decompose_stack(stack)
            for i in range(len(stack)):
                one = decompose_stack(stack.sample(i))
                for name in ("delta", "b", "lemma_slack", "ai_residual"):
                    assert np.array_equal(getattr(dec, name)[i : i + 1], getattr(one, name)), (kind, n1, i, name)


def test_a_sample_is_a_stack_of_one_over_the_stack_arrays_with_its_row_of_every_kernel():
    amb = make_ambient("kmu-space-form", m=3, kappa=0.5, mu=-1.0, c=1.7)
    stack = _ctr_stack(np.random.default_rng(47), amb, 1, 2, 5)
    kernels = {
        "general": lambda s: vars(general_inequality_stack(s)),
        "kmu": lambda s: vars(kmu_space_form_inequality_stack(s)),
        "decompose": lambda s: vars(decompose_stack(s)),
        "mean": lambda s: vars(mean_curvatures(s)),
        "gauss": gauss_residual,
        "c_totally_real": lambda s: {"ok": is_C_totally_real(s)[0], **is_C_totally_real(s)[1]},
        "a_xi": lambda s: {k: v for k, v in a_xi_identity(s).items() if not k.endswith("_stats")},
        "a_xi_stats": lambda s: {**a_xi_identity(s)["h_stats"], **a_xi_identity(s)["a_stats"]},
        "mixed": lambda s: {"mixed": is_mixed_totally_geodesic(s)},
    }
    whole = {name: kernel(stack) for name, kernel in kernels.items()}
    for i in (0, 3, -1):
        one = stack.sample(i)
        assert len(one) == 1 and one.oracle is stack.oracle and one.contact is stack.contact
        for field_name in ("tangent", "normal", "sigma"):
            mine, theirs = getattr(one, field_name), getattr(stack, field_name)
            assert mine.shape == (1,) + theirs.shape[1:]
            assert np.shares_memory(mine, theirs) and np.array_equal(mine[0], theirs[i])
        row = slice(i, i + 1 or None)
        for name, kernel in kernels.items():
            for key, value in kernel(one).items():
                if isinstance(value, np.ndarray):
                    assert np.array_equal(value, whole[name][key][row]), (name, key, i)
    with pytest.raises(IndexError):
        stack.sample(5)


@pytest.mark.parametrize("fn", [general_inequality], ids=lambda f: f.__name__)
def test_the_one_sample_entry_points_reject_a_stack_of_two(fn):
    amb = make_ambient("kmu-space-form", m=3, kappa=0.5, mu=-1.0, c=1.7)
    stack = _ctr_stack(np.random.default_rng(48), amb, 1, 2, 2)
    with pytest.raises(InvalidInputError, match="expected a stack of one sample, got 2 samples"):
        fn(stack)
    fn(stack.sample(1))


def test_chart_inequality_rejects_a_stack_of_two_as_its_data():
    im = sphere_in_euclidean(3)
    data = second_fundamental_form(im, im.default_point)
    two = replace(data, **{k: np.concatenate([getattr(data, k)] * 2) for k in ("tangent", "normal", "sigma")})
    with pytest.raises(InvalidInputError, match="expected a stack of one sample, got 2 samples"):
        chart_inequality(im, im.default_point, data=two)
    assert chart_inequality(im, im.default_point, data=data) == chart_inequality(im, im.default_point)


def test_report_rows_carry_each_sample_diagnostics():
    rng = np.random.default_rng(42)
    amb = make_ambient("non-sasakian-kmu", m=3, kappa=0.2, mu=0.8)
    stack = random_stack(rng, amb, 1, 2, 8, frame_kind="dplus")
    stack.sigma[::2] = balance_for_equality(stack.sigma[::2], 1)
    batch = general_inequality_stack(stack)
    for i in range(len(stack)):
        rep = batch.report(i)
        assert rep.diagnostics == general_inequality(stack.sample(i)).diagnostics
        assert rep.diagnostics["mixed_totally_geodesic"] == bool(batch.mixed_totally_geodesic[i])
        assert rep.diagnostics["partial_mean_equal"] == bool(batch.partial_mean_equal[i])


def test_kij_evaluates_a_long_stack_in_blocks_equal_to_one_pass(monkeypatch):
    amb = make_ambient("kmu-space-form", m=3, kappa=0.5, mu=-1.0, c=1.7)
    tangent = random_stack(np.random.default_rng(46), amb, 2, 2, 2 * _KIJ_BLOCK + 17).tangent
    one_pass = amb.oracle._kij(tangent)
    blocks = []
    one_block = CurvatureOracle._kij
    monkeypatch.setattr(CurvatureOracle, "_kij", lambda self, V: blocks.append(len(V)) or one_block(self, V))
    assert np.array_equal(amb.oracle.kij(tangent), one_pass)
    assert blocks == [_KIJ_BLOCK, _KIJ_BLOCK, 17]


# --- the sigma-only gap --------------------------------------------------------


def _sigma_only_gap(stack):
    """gap = n^2/(4 n2) |H|^2 - (1/n2) sum_{a <= n1 < b} sum_r (s^r_aa s^r_bb - (s^r_ab)^2):
    the mixed ambient curvatures appear on both sides and cancel."""
    n, n1, n2 = stack.n, stack.n1, stack.n2
    sigma = stack.sigma
    h = np.einsum("srii->sr", sigma) / n
    diag = np.einsum("srii->sri", sigma)
    mixed = np.einsum("sra,srb->s", diag[:, :, :n1], diag[:, :, n1:]) - np.sum(
        sigma[:, :, :n1, n1:] ** 2, axis=(1, 2, 3)
    )
    return n * n / (4.0 * n2) * np.sum(h**2, axis=1) - mixed / n2


@pytest.mark.parametrize("kind,params", AMBIENTS, ids=[a[0] for a in AMBIENTS])
def test_gap_matches_the_sigma_only_oracle(kind, params):
    rng = np.random.default_rng(43)
    amb = make_ambient(kind, **params)
    for n1, n2 in BLOCKS:
        stack = random_stack(rng, amb, n1, n2, 50, sigma_scale=1.5)
        gap = general_inequality_stack(stack).gap
        oracle = _sigma_only_gap(stack)
        # both sides carry the ambient term (|K~| <= ~10 here) before it cancels
        assert np.max(np.abs(gap - oracle)) < 1e-11


# --- validation names the offending sample ----------------------------------------


def _valid_arrays(count=6):
    amb = make_ambient("euclidean", m=5)
    stack = random_stack(np.random.default_rng(44), amb, 1, 2, count)
    return amb, stack.tangent.copy(), stack.normal.copy(), stack.sigma.copy()


def _build(amb, tangent, normal, sigma):
    return PointwiseStack(1, 2, tangent, normal, sigma, amb.oracle)


def test_stack_with_a_non_orthonormal_sample_names_it():
    amb, tangent, normal, sigma = _valid_arrays()
    tangent[4, :, 0] *= 1.001
    with pytest.raises(InvalidConfigurationError, match="not orthonormal.*sample 4"):
        _build(amb, tangent, normal, sigma)


def test_stack_with_a_non_symmetric_sample_names_it():
    amb, tangent, normal, sigma = _valid_arrays()
    sigma[2, 1, 0, 1] += 1e-6
    with pytest.raises(InvalidConfigurationError, match="not symmetric.*sample 2"):
        _build(amb, tangent, normal, sigma)


@pytest.mark.parametrize("axis_aligned", [False, True], ids=["generic", "axis-aligned"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("which", ["tangent", "normal", "sigma"])
def test_stack_with_a_non_finite_sample_names_it(which, value, axis_aligned):
    amb, tangent, normal, sigma = _valid_arrays()
    if axis_aligned:  # a frame of zeros and ones: an infinity meets inf * 0
        tangent[:], normal[:] = np.eye(5)[:, :3], np.eye(5)[:, 3:]
    {"tangent": tangent, "normal": normal, "sigma": sigma}[which][3].flat[1] = value
    what = "sigma" if which == "sigma" else "tangent or normal frame"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the validation itself warns about nothing
        with pytest.raises(NumericalDomainError, match=f"^{what} has non-finite entries in sample 3$"):
            _build(amb, tangent, normal, sigma)
        with pytest.raises(NumericalDomainError, match=f"^{what} has non-finite entries$"):
            _build(amb, tangent[3:4], normal[3:4], sigma[3:4])


def test_replace_validates_again():
    amb, tangent, normal, sigma = _valid_arrays()
    stack = _build(amb, tangent, normal, sigma)
    bad = sigma.copy()
    bad[0, 1, 0, 1] += 1e-6
    with pytest.raises(InvalidConfigurationError, match="not symmetric.*sample 0"):
        replace(stack, sigma=bad)
    with pytest.raises(InvalidConfigurationError, match="not symmetric"):
        replace(stack.sample(0), sigma=bad[0:1])
    with pytest.raises(InvalidConfigurationError, match="not orthonormal"):
        replace(stack.sample(1), tangent=2.0 * tangent[1:2])


def test_empty_stack_is_rejected():
    amb, tangent, normal, sigma = _valid_arrays()
    with pytest.raises(InvalidInputError, match="at least one sample"):
        _build(amb, tangent[:0], normal[:0], sigma[:0])
    with pytest.raises(InvalidInputError, match="count must be at least 1"):
        random_stack(np.random.default_rng(0), amb, 1, 2, 0)


@pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf, -1.0])
def test_random_stack_rejects_a_bad_sigma_scale_before_drawing(scale):
    amb = make_ambient("real-space-form", m=5, c=0.6)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    message = f"sigma_scale must be finite and non-negative (got {scale})"
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        random_stack(rng, amb, 1, 2, 3, sigma_scale=scale)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("count", [2.5, True, np.float64(3.0), "3"])
def test_random_stack_rejects_a_count_that_is_not_an_integer(count):
    amb = make_ambient("real-space-form", m=5, c=0.6)
    with pytest.raises(InvalidInputError, match=re.escape(f"count must be an integer (got {count!r})")):
        random_stack(np.random.default_rng(0), amb, 1, 2, count)


def test_random_stack_takes_a_numpy_integer_count():
    amb = make_ambient("real-space-form", m=5, c=0.6)
    stack = random_stack(np.random.default_rng(0), amb, 1, 2, np.int64(3))
    assert np.array_equal(stack.sigma, random_stack(np.random.default_rng(0), amb, 1, 2, 3).sigma)
