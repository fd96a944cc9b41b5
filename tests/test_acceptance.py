"""Acceptance suite: the release gate of the package.

Each criterion runs standalone at a fixed tolerance and sample count and
prints one pass/fail line.  Run under pytest (each criterion is a test) or
directly:

    python tests/test_acceptance.py
"""

import time

import numpy as np

from warpcheck.contact import (
    curvature_kmu_space_form,
    curvature_non_sasakian,
    make_ambient,
    make_kmu_frame,
    check_km_condition,
)
from warpcheck.immersion import (
    balance_for_equality,
    force_xi_consistency,
    random_data,
    random_stack,
    sphere_in_euclidean,
)
from warpcheck.inequality import (
    NONEXISTENCE,
    WARPED_PRODUCT_IMMERSION,
    chart_inequality,
    chen_lemma,
    general_inequality,
    general_inequality_stack,
    kmu_space_form_inequality_stack,
    non_sasakian_inequality_stack,
    obstruction_check,
)
from warpcheck.charts import ChartMetric, euclidean_metric, riemann, sectional_curvature
from warpcheck.warped import build_metric, chart_catalog, check_laplacian_ratio, named_chart

KAPPA_GRID = [-1.0, 0.0, 0.5, 0.99]
MU_GRID = [-2.0, 0.0, 1.0, 3.0]


def _report(num: int, label: str):
    print(f"ACCEPTANCE {num} PASS: {label}")


def test_criterion_1_sphere_equality():
    """Chart pipeline on the unit sphere: equality with both diagnostics."""
    start = time.perf_counter()
    rep = chart_inequality(sphere_in_euclidean(2), np.array([0.3, 0.8]))
    elapsed = time.perf_counter() - start
    assert abs(rep.lhs - 1.0) < 1e-3, rep.lhs
    assert abs(rep.mean_term - 1.0) < 1e-3, rep.mean_term
    assert abs(rep.gap) < 1e-3, rep.gap
    assert rep.diagnostics["mixed_totally_geodesic"]
    assert rep.diagnostics["partial_mean_equal"]
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    _report(1, f"sphere equality, gap {rep.gap:.2e}, {elapsed:.2f}s")


def test_criterion_2_randomized_theorem():
    """10^4 random immersion data per ambient oracle: gap >= -1e-9."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    ambients = {
        "euclidean": make_ambient("euclidean", m=7),
        "kmu-space-form": make_ambient("kmu-space-form", m=3, kappa=0.5, mu=-1.0, c=1.7),
        "sasakian-space-form": make_ambient("sasakian-space-form", m=3, c=-2.0),
        "non-sasakian": make_ambient("non-sasakian-kmu", m=3, kappa=0.2, mu=0.8),
    }
    violations = 0
    min_gap = np.inf
    for amb in ambients.values():
        for _ in range(10_000):
            n1 = int(rng.integers(1, 3))
            n2 = int(rng.integers(1, 3))
            data = random_data(rng, amb, n1, n2)
            gap = general_inequality(data).gap
            min_gap = min(min_gap, gap)
            if gap < -1e-9:
                violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0, f"{violations} violations, min gap {min_gap:.3e}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(2, f"4x10^4 random data, min gap {min_gap:.3e}, {elapsed:.1f}s")


def test_criterion_2_batched_sweep():
    """Beside criterion 2 (the per-sample reference, which interleaves
    rng.integers and so cannot be stacked): 10^5 random immersion data per
    ambient oracle, one stacked block of 25,000 per (n1, n2): gap >= -1e-9."""
    start = time.perf_counter()
    rng = np.random.default_rng(2025)
    ambients = [
        make_ambient("euclidean", m=7),
        make_ambient("kmu-space-form", m=3, kappa=0.5, mu=-1.0, c=1.7),
        make_ambient("sasakian-space-form", m=3, c=-2.0),
        make_ambient("non-sasakian-kmu", m=3, kappa=0.2, mu=0.8),
    ]
    count = 0
    min_gap = np.inf
    for amb in ambients:
        for n1 in (1, 2):
            for n2 in (1, 2):
                gap = general_inequality_stack(random_stack(rng, amb, n1, n2, 25_000)).gap
                assert np.isfinite(gap).all()
                min_gap = min(min_gap, float(gap.min()))
                count += len(gap)
    elapsed = time.perf_counter() - start
    assert count == 4 * 100_000
    assert min_gap >= -1e-9, f"min gap {min_gap:.3e}"
    _report(2, f"batched 4x10^5 random data, min gap {min_gap:.3e}, {elapsed:.1f}s")


def test_criterion_3_equality_characterization():
    """10^3 equality-constructed data close the gap; 10^3 perturbed reopen it."""
    rng = np.random.default_rng(3)
    amb = make_ambient("euclidean", m=7)
    mis = 0
    max_eq_gap = 0.0
    min_pert_gap = np.inf
    for _ in range(1000):
        n1 = int(rng.integers(1, 3))
        n2 = int(rng.integers(1, 3))
        data = random_data(rng, amb, n1, n2)
        data.sigma = balance_for_equality(data.sigma, n1)
        rep = general_inequality(data)
        max_eq_gap = max(max_eq_gap, abs(rep.gap))
        if not (
            abs(rep.gap) < 1e-8
            and rep.equality
            and rep.diagnostics["mixed_totally_geodesic"]
            and rep.diagnostics["partial_mean_equal"]
        ):
            mis += 1
        data.sigma[0, 0, 0, n1] += 1e-2
        data.sigma[0, 0, n1, 0] += 1e-2
        rep2 = general_inequality(data)
        min_pert_gap = min(min_pert_gap, rep2.gap)
        if not (
            rep2.gap >= 1e-5
            and not rep2.equality
            and not rep2.diagnostics["mixed_totally_geodesic"]
        ):
            mis += 1
    assert mis == 0, f"{mis} misclassifications"
    _report(
        3,
        f"equality gap <= {max_eq_gap:.2e}, perturbed gap >= {min_pert_gap:.2e}, 0 misclassified",
    )


def test_criterion_4_trace_lemma():
    """10^4 admissible tuples: inequality and exact equality detection."""
    rng = np.random.default_rng(4)
    for _ in range(10_000):
        ell = int(rng.integers(2, 11))
        a = list(rng.normal(size=ell))
        if ell >= 3 and rng.random() < 0.5:
            a = [a[0], a[1]] + [a[0] + a[1]] * (ell - 2)
        s = sum(a)
        b = s * s / (ell - 1) - sum(v * v for v in a)
        res = chen_lemma(a, b, tol=1e-10)
        assert res["holds"]
        assert res["equality"] == res["tail_condition"]
    _report(4, "10^4 admissible tuples, equality detection exact")


def test_criterion_5_curvature_model_identities():
    """Curvature-along-xi identity, tensor symmetries, first Bianchi and the
    Sasakian reduction across the (kappa, mu) grid."""
    rng = np.random.default_rng(5)
    for kappa in KAPPA_GRID:
        for mu in MU_GRID:
            frame = make_kmu_frame(2, kappa, mu, c=0.7)
            oracles = [curvature_kmu_space_form(frame)]
            if kappa < 1.0 - 1e-8:
                oracles.append(curvature_non_sasakian(frame))
            for orc in oracles:
                assert check_km_condition(orc, frame) < 1e-10
                for _ in range(1000 // (len(KAPPA_GRID) * len(MU_GRID))):
                    X, Y, Z, W = rng.normal(size=(4, frame.dim))
                    v = orc.value(X, Y, Z, W)
                    assert abs(v + orc.value(Y, X, Z, W)) < 1e-10
                    assert abs(v + orc.value(X, Y, W, Z)) < 1e-10
                    assert abs(v - orc.value(Z, W, X, Y)) < 1e-10
                    assert (
                        abs(v + orc.value(Y, Z, X, W) + orc.value(Z, X, Y, W)) < 1e-10
                    )
    frame = make_kmu_frame(3, 1.0, 0.4, c=-1.3)
    o_kmu = curvature_kmu_space_form(frame)
    o_sas = make_ambient("sasakian-space-form", m=3, c=-1.3).oracle
    for _ in range(1000):
        X, Y, Z, W = rng.normal(size=(4, frame.dim))
        assert abs(o_kmu.value(X, Y, Z, W) - o_sas.value(X, Y, Z, W)) < 1e-12
    _report(5, "model identities on the (kappa, mu) grid; Sasakian reduction < 1e-12")


def test_criterion_6_phi_sectional_constancy():
    """Constant phi-sectional curvature: c for the space form, -2 kappa - 1
    for the (kappa, mu) tensor with mu = kappa + 1."""
    rng = np.random.default_rng(6)

    def unit_perp(frame):
        X = rng.normal(size=frame.dim)
        X -= (frame.eta @ X) * frame.xi
        return X / np.linalg.norm(X)

    def phi_sectional(oracle, frame, X):
        pX = frame.phi @ X
        return oracle.value(X, pX, pX, X)

    frame = make_kmu_frame(3, 0.4, -0.9, c=1.9)
    orc = curvature_kmu_space_form(frame)
    vals = [phi_sectional(orc, frame, unit_perp(frame)) for _ in range(100)]
    assert max(vals) - min(vals) < 1e-10
    assert abs(vals[0] - 1.9) < 1e-10

    kappa = 0.3
    frame2 = make_kmu_frame(3, kappa, kappa + 1.0)
    orc2 = curvature_non_sasakian(frame2)
    vals2 = [phi_sectional(orc2, frame2, unit_perp(frame2)) for _ in range(100)]
    assert max(vals2) - min(vals2) < 1e-10
    assert abs(vals2[0] - (-2.0 * kappa - 1.0)) < 1e-10
    _report(6, f"phi-sectional spreads {max(vals)-min(vals):.1e} / {max(vals2)-min(vals2):.1e}")


def test_criterion_7_specialization_consistency():
    """Specialized RHS match the general RHS to 1e-9 on 10^3 consistent data;
    h = 0 collapses the space-form RHS to the Sasakian bound."""
    rng = np.random.default_rng(7)
    amb_k = make_ambient("kmu-space-form", m=4, kappa=0.3, mu=-0.7, c=2.1)
    amb_n = make_ambient("non-sasakian-kmu", m=4, kappa=0.45, mu=1.3)
    worst = 0.0
    for _ in range(500):
        for amb, fn in ((amb_k, kmu_space_form_inequality_stack), (amb_n, non_sasakian_inequality_stack)):
            n1 = int(rng.integers(1, 3))
            n2 = int(rng.integers(1, 3))
            data = random_data(rng, amb, n1, n2, frame_kind="c-totally-real")
            data.sigma = force_xi_consistency(
                data.sigma, (data.tangent, data.normal), amb.frame
            )
            rep = fn(data).report(0)
            worst = max(worst, rep.extras["rhs_cross_residual"])
            assert rep.gap >= -1e-9
    assert worst < 1e-9, worst

    c = -1.2
    amb_s = make_ambient("sasakian-space-form", m=4, c=c)
    for _ in range(50):
        data = random_data(rng, amb_s, 2, 2, frame_kind="c-totally-real")
        data.sigma = force_xi_consistency(data.sigma, (data.tangent, data.normal), amb_s.frame)
        rep = kmu_space_form_inequality_stack(data).report(0)
        collapse = rep.mean_term + data.n1 * (c + 3.0) / 4.0
        assert abs(rep.rhs - collapse) < 1e-12
    _report(7, f"10^3 cross-checks, worst RHS residual {worst:.2e}; h=0 collapse exact")


def test_criterion_8_obstruction_table():
    """The three corollary scenarios give exactly the stated verdicts."""
    rng = np.random.default_rng(8)

    def minimal_stack(c):
        amb = make_ambient("sasakian-space-form", m=3, c=c)
        data = random_data(rng, amb, 1, 1, sigma_scale=0.0, frame_kind="c-totally-real")
        return kmu_space_form_inequality_stack(data)

    [v1] = obstruction_check(minimal_stack(-4.0), harmonic=True, minimal=True)
    [v2] = obstruction_check(minimal_stack(-3.0), harmonic=True, minimal=True)
    [v3] = obstruction_check(minimal_stack(-3.0), eigenvalue=0.5, minimal=True)
    assert v1 == NONEXISTENCE, v1
    assert v2 == WARPED_PRODUCT_IMMERSION, v2
    assert v3 == NONEXISTENCE, v3
    _report(8, f"verdicts: c=-4 {v1}; c=-3 {v2}; c=-3, eigenvalue 0.5 {v3}")


def _line_warped_metric(w, dw):
    """diag(1, w(x_0)^2) with its exact derivative d_0 g_11 = 2 w w'."""

    def g_dg(x):
        t = x[..., 0]
        g = np.zeros(x.shape + (2,))
        g[..., 0, 0], g[..., 1, 1] = 1.0, w(t) ** 2
        dg = np.zeros(x.shape + (2, 2))
        dg[..., 0, 1, 1] = 2.0 * w(t) * dw(t)
        return g, dg

    return ChartMetric(2, g_dg)


def test_criterion_9_numeric_geometry_floor():
    """Finite differences reproduce constant curvature within 1e-4 and the
    fibrewise Laplacian-ratio sums within 1e-3 on the whole chart catalog."""
    charts = {
        1.0: _line_warped_metric(np.sin, np.cos),
        0.0: euclidean_metric(2),
        -1.0: _line_warped_metric(np.cosh, np.sinh),
    }
    for expected, metric in charts.items():
        x = np.array([0.9, 0.4])
        cp = riemann(metric, x)
        K = sectional_curvature(cp, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert abs(K - expected) < 1e-4, (expected, K)
    worst = 0.0
    for key in chart_catalog():
        wp = named_chart(key)
        for p in wp.sample_points:
            rep = check_laplacian_ratio(wp, riemann(build_metric(wp), p))
            worst = max(worst, rep["max_deviation"])
    assert worst < 1e-3, worst
    _report(9, f"constant curvature within 1e-4; catalog ratio deviation {worst:.2e}")


CRITERIA = [
    test_criterion_1_sphere_equality,
    test_criterion_2_randomized_theorem,
    test_criterion_3_equality_characterization,
    test_criterion_4_trace_lemma,
    test_criterion_5_curvature_model_identities,
    test_criterion_6_phi_sectional_constancy,
    test_criterion_7_specialization_consistency,
    test_criterion_8_obstruction_table,
    test_criterion_9_numeric_geometry_floor,
]


def main() -> int:
    failures = 0
    for i, fn in enumerate(CRITERIA, start=1):
        try:
            fn()
        except Exception as exc:  # keep running the remaining criteria
            failures += 1
            print(f"ACCEPTANCE {i} FAIL: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
