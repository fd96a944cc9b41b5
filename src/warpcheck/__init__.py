"""warpcheck: numerical verification of warped-product curvature inequalities.

The package builds warped-product metrics and contact-metric ambient models,
computes submanifold invariants (second fundamental form, mean curvatures,
scalar curvatures) from exact complex-step derivatives or closed-form oracles, and verifies
the sharp inequality between the warping function's Laplacian and the squared
mean curvature, together with its equality cases and nonexistence corollaries.
"""

__version__ = "0.1.0"

from .numeric import Tolerance
from .charts import (
    ChartMetric,
    CurvaturePoint,
    riemann,
    sectional_curvature,
)
from .warped import (
    WarpedProductChart,
    build_metric,
    check_connection_identity,
    mixed_sectional,
    check_laplacian_ratio,
    is_trivial,
    named_chart,
)
from .contact import (
    ContactFrame,
    CurvatureOracle,
    make_kmu_frame,
    curvature_real_space_form,
    curvature_kmu_space_form,
    curvature_non_sasakian,
    check_km_condition,
    phi_sectional_constant,
    AmbientSpace,
    make_ambient,
)
from .immersion import (
    PointwiseStack,
    MeanCurvatureRecord,
    ChartImmersion,
    second_fundamental_form,
    mean_curvatures,
    gauss_residual,
    is_C_totally_real,
    a_xi_identity,
    is_mixed_totally_geodesic,
)
from .inequality import (
    chen_lemma,
    ProofDecomposition,
    InequalityReport,
    general_inequality,
    obstruction_check,
    chart_inequality,
    NONEXISTENCE,
    WARPED_PRODUCT_IMMERSION,
    UNOBSTRUCTED,
)
from .scenes import SceneSpec, RunReport, parse_scene, run, emit
