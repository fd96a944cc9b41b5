"""Outside-in tracer: spans around warpcheck's public functions, recorded
from the benchmark's own files without changing the program.

``install`` wraps every public function of the traced modules in every
warpcheck namespace that binds it (``from .charts import riemann`` copies the
name into ``immersion``, ``warped`` and ``scenes``), wraps ``ChartMetric.at``
on the class, the ``value`` and ``kij`` of the oracles that ``make_ambient``
returns, and the ``map`` of the catalog chart immersions.  ``uninstall``
puts every original back.

A span's self time is its duration minus the time its child spans cover.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

TRACED_MODULES = ("numeric", "charts", "warped", "contact", "immersion", "inequality", "scenes", "cli")
CHART_BUILDERS = ("sphere_in_euclidean", "plane_immersion", "cylinder_immersion")


class Tracer:
    def __init__(self):
        self.context = ""
        # (name, context) -> [calls, total_ns, self_ns]
        self.agg: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0])
        self.spans: list[tuple] = []
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, post=None):
        """Span `name` around each call of `fn`; `post(result)` runs inside it."""
        stack, agg, spans = self._stack, self.agg, self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
                if post is not None:
                    post(out)
                return out
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                ctx = self.context
                entry = agg[(name, ctx)]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                spans.append((span_id, parent, name, start, end, ctx))

        return traced

    def _set(self, owner, attr: str, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package):
        """Wrap the traced layers of an imported warpcheck package."""
        prefix = package.__name__ + "."
        targets = {}
        for short in TRACED_MODULES:
            mod = sys.modules[prefix + short]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    targets[obj] = f"{short}.{attr}"

        def wrap_oracle(ambient):
            oracle = ambient.oracle
            oracle.value = self.wrap(oracle.value, "contact.oracle.value")
            oracle.kij = self.wrap(oracle.kij, "contact.oracle.kij")

        def wrap_map(im):
            im.map = self.wrap(im.map, "immersion.chart_map")

        immersion = sys.modules[prefix + "immersion"]
        posts = {sys.modules[prefix + "contact"].make_ambient: wrap_oracle}
        posts.update((getattr(immersion, b), wrap_map) for b in CHART_BUILDERS)
        wrapped = {fn: self.wrap(fn, name, posts.get(fn)) for fn, name in targets.items()}

        namespaces = [m for n, m in sorted(sys.modules.items()) if n == package.__name__ or n.startswith(prefix)]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
        charts = sys.modules[prefix + "charts"]
        self._set(charts.ChartMetric, "at", self.wrap(charts.ChartMetric.at, "charts.ChartMetric.at"))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def calls(self, name: str, context: str | None = None) -> int:
        return sum(v[0] for (n, c), v in self.agg.items() if n == name and context in (None, c))

    def total_s(self, name: str, context: str | None = None) -> float:
        return sum(v[1] for (n, c), v in self.agg.items() if n == name and context in (None, c)) / 1e9

    def self_s(self, name: str, context: str | None = None) -> float:
        return sum(v[2] for (n, c), v in self.agg.items() if n == name and context in (None, c)) / 1e9

    def call_counts(self) -> dict[str, int]:
        return {f"{n}@{c}": v[0] for (n, c), v in sorted(self.agg.items())}

    def write_spans(self, path: Path):
        """Spans as gzipped CSV: id, parent, name, start_ns, end_ns, context."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,start_ns,end_ns,context\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")
