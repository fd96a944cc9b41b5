"""The package's public names: every module's `__all__` resolves, the
top-level namespace re-exports only `__all__` names, and the benchmark's
tracer (perfbench/tracer.py) installs on the package and puts every
original back."""

import importlib
import importlib.util
import inspect
import sys
import types
from pathlib import Path

import pytest

import warpcheck
import warpcheck.cli  # noqa: F401  (the tracer wraps cli too)

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["charts", "cli", "contact", "errors", "immersion", "inequality", "numeric", "scenes", "warped"]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves_and_star_import_succeeds(name):
    module = importlib.import_module(f"warpcheck.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert not missing, missing
    namespace = {}
    exec(f"from warpcheck.{name} import *", namespace)
    assert set(getattr(module, "__all__", [])) <= set(namespace)


def test_the_top_level_namespace_reexports_only_all_names():
    exported = set()
    for name in MODULES:
        exported |= set(getattr(importlib.import_module(f"warpcheck.{name}"), "__all__", []))
    public = {n for n, v in vars(warpcheck).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public <= exported, sorted(public - exported)
    assert "phi_sectional_constant" in public


def test_one_contact_space_form_builder_takes_only_a_frame():
    # the Sasakian space form is curvature_kmu_space_form of its h = 0 frame
    for owner in (warpcheck, warpcheck.contact):
        assert not hasattr(owner, "curvature_sasakian_space_form")
    for owner, attr in [(warpcheck.ContactFrame, "is_sasakian"), (warpcheck.ContactFrame, "lam"), (warpcheck.CurvatureOracle, "rotated")]:
        assert not hasattr(owner, attr), attr
    assert list(inspect.signature(warpcheck.curvature_kmu_space_form).parameters) == ["frame"]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every function bound in a warpcheck namespace, and ChartMetric.at."""
    out = {
        (mod_name, attr): obj
        for mod_name, mod in list(sys.modules.items())
        if mod_name == "warpcheck" or mod_name.startswith("warpcheck.")
        for attr, obj in vars(mod).items()
        if inspect.isfunction(obj)
    }
    out[("ChartMetric", "at")] = warpcheck.charts.ChartMetric.at
    return out


def test_the_benchmark_tracer_installs_and_restores_every_original():
    # the names the benchmark calls directly (perfbench/workloads.py, perfbench/run.py)
    for owner, attr in [
        (warpcheck, "make_ambient"),
        (warpcheck, "general_inequality"),
        (warpcheck.immersion, "random_data"),
        (warpcheck.immersion, "chart_immersion_catalog"),
        (warpcheck.warped, "named_chart"),
        (warpcheck.cli, "main"),
        (warpcheck.charts.ChartMetric, "at"),
    ]:
        assert callable(getattr(owner, attr, None)), attr
    before = _bindings()
    tracer = _load_tracer().Tracer()
    try:
        tracer.install(warpcheck)
        assert warpcheck.charts.riemann is not before[("warpcheck.charts", "riemann")]
        assert warpcheck.charts.ChartMetric.at is not before[("ChartMetric", "at")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, fn in before.items() if after[key] is not fn] == []
