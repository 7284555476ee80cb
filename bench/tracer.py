"""Per-layer spans recorded from outside mdlab, around its public functions.

``Tracer.install`` replaces module attributes such as ``mdlab.solver.mono_classes``
with timing wrappers.  mdlab looks these names up at call time, so the calls
the package makes to its own layers pass through the wrappers as well.

Every ``*_s`` layer figure is self time: a span's duration minus the time of
the traced spans it encloses, so the figures add up without double counting.
A solve started while another is open (the soft-layer bound's sub-solve) is
not traced on its own: its whole time stays in the span that started it, the
upper bound.  ``solver.search_s`` is derived: the self time of md_exact and
md_feasible, i.e. md_exact minus the block, class, bound and verification
spans under it.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

#: (module, attribute, span name) for each wrapped public function.
SPANS = (
    ("mdlab.extremal", "md_census", "extremal.census"),
    ("mdlab.extremal", "verify_f", "extremal.verify"),
    ("mdlab.extremal", "verify_g", "extremal.verify"),
    ("mdlab.solver", "block_decomposition", "analysis.blocks"),
    ("mdlab.solver", "mono_classes", "solver.mono_classes"),
    ("mdlab.solver", "md_upper_bound", "solver.upper_bound"),
    ("mdlab.solver", "md_lower_bound", "solver.lower_bound"),
    ("mdlab.solver", "md_feasible", "solver.feasible"),
    ("mdlab.solver", "is_md_coloring", "coloring.verify"),
    ("mdlab.coloring", "is_md_coloring", "coloring.verify"),
    ("mdlab.products", "is_md_coloring", "coloring.verify"),
    ("mdlab.products", "product", "products.build"),
    ("mdlab.products", "cartesian_md_coloring", "products.cartesian_coloring"),
)

UPPER_RULES = (
    "vertex-bound",
    "half-order",
    "min-degree-one",
    "closure-one",
    "theta-classes",
    "mono-classes",
    "soft-layer",
)


class Tracer:
    """Self time per span name, plus solver counters."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._open: list[float] = []  # child time of each open span
        self._solve: dict | None = None  # the open top-level md_exact
        self._muted = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span in SPANS:
            self._patch(module_name, attr, lambda fn, span=span: self._wrap(span, fn))
        self._patch("mdlab.extremal", "enumerate_connected", self._wrap_enumeration)
        self._patch("mdlab.solver", "md_exact", self._wrap_solve)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _patch(self, module_name: str, attr: str, make_wrapper) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    # -- spans -------------------------------------------------------------

    def _span(self, name: str, fn, args, kwargs):
        self._open.append(0.0)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            self.self_s[name] += elapsed - self._open.pop()
            if self._open:
                self._open[-1] += elapsed

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if self._muted:
                return fn(*args, **kwargs)
            result = self._span(name, fn, args, kwargs)
            self._observe(name, args, result)
            return result

        return traced

    def _observe(self, name: str, args, result) -> None:
        solve = self._solve
        if name == "solver.mono_classes":
            self.counts["classes"] += len(result)
            self.counts["class_edges"] += args[0].m
        elif name == "solver.upper_bound" and solve is not None:
            value, rule = result
            solve["uppers"] += value
            self.counts[f"upper_rule.{rule}"] += 1
        elif name == "analysis.blocks" and solve is not None:
            solve["bridges"] += sum(1 for block in result.blocks if len(block) == 2)

    def _wrap_enumeration(self, fn):
        """enumerate_connected is a generator: time each step, count graphs."""

        def traced(*args, **kwargs):
            steps = fn(*args, **kwargs)
            while True:
                try:
                    item = self._span("extremal.enumerate", next, (steps,), {})
                except StopIteration:
                    return
                self.counts["graphs"] += 1
                yield item

        return traced

    def _wrap_solve(self, fn):
        def traced(*args, **kwargs):
            if self._solve is not None:
                # A bound's sub-solve: charged to the span that asked for it.
                self.counts["subsolves"] += 1
                self._muted += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._muted -= 1
            self._solve = {"uppers": 0, "bridges": 0}
            try:
                result = self._span("solver.exact", fn, args, kwargs)
            finally:
                solve, self._solve = self._solve, None
            self.counts["solves"] += 1
            self.counts["search_nodes"] += result.stats["nodes"]
            # Each block descends from its upper bound; bridges are exact.
            self.counts["upper_gap"] += solve["uppers"] - (result.value - solve["bridges"])
            return result

        return traced

    # -- results -----------------------------------------------------------

    def layers(self) -> dict[str, float]:
        """Per-layer figures, named as in BENCHMARK.json (without instances)."""
        s, c = self.self_s, self.counts
        search_s = s["solver.exact"] + s["solver.feasible"]
        enumerate_s = s["extremal.enumerate"]
        out = {
            "extremal.enumerate_s": enumerate_s,
            "extremal.graphs": c["graphs"],
            "extremal.graphs_per_s": c["graphs"] / enumerate_s if enumerate_s else 0.0,
            "extremal.census_s": s["extremal.census"],
            "extremal.verify_s": s["extremal.verify"],
            "analysis.blocks_s": s["analysis.blocks"],
            "solver.mono_classes_s": s["solver.mono_classes"],
            "solver.class_ratio": c["classes"] / c["class_edges"] if c["class_edges"] else 0.0,
            "solver.upper_bound_s": s["solver.upper_bound"],
            "solver.lower_bound_s": s["solver.lower_bound"],
            "solver.upper_gap": c["upper_gap"],
            "solver.search_nodes": c["search_nodes"],
            "solver.nodes_per_s": c["search_nodes"] / search_s if search_s else 0.0,
            "solver.search_s": search_s,
            "solver.solves": c["solves"],
            "solver.subsolves": c["subsolves"],
            "coloring.verify_s": s["coloring.verify"],
            "products.build_s": s["products.build"],
            "products.cartesian_coloring_s": s["products.cartesian_coloring"],
        }
        for rule in UPPER_RULES:
            out[f"solver.upper_rule.{rule}"] = c[f"upper_rule.{rule}"]
        return out
