"""Outside-in layer tracing: spans around calls that cross from one cyclekit
module into another, installed from the benchmark without touching the package.

Each cyclekit module is a layer.  The tracer reads the package's source with
``ast`` to find, for every module, the public functions it calls in another
module: names bound by a module-level ``from .x import f`` and attributes used
as ``x.f`` after ``from . import x``.  It replaces each such binding in the
calling module only, so calls inside the defining module stay unwrapped.
Classes, methods and generator functions are never wrapped: a generator's body
runs after the call has returned, so a span around the call would time nothing.

A span's self time is its duration minus the durations of the spans it
encloses.  Spans are aggregated in memory as they close.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import time
from pathlib import Path

LAYERS = ("cli", "graph_io", "graphs", "counting", "analytic", "morphisms", "search", "bounds", "randcodes")

# Private functions that another module calls; the span is charged to the
# module that defines them.
PRIVATE_CROSSINGS = {("bounds", "_hamilton_sorted")}


def cross_module_calls(src: Path) -> dict[str, dict[str, set[str]]]:
    """{caller: {"from": {names bound by from-imports}, "attr": {module: {names}}}}."""
    found: dict[str, dict] = {}
    for layer in LAYERS:
        tree = ast.parse((src / "cyclekit" / f"{layer}.py").read_text())
        bound: set[str] = set()
        sibling_modules: set[str] = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = {alias.asname or alias.name for alias in node.names}
                if node.module is None:
                    sibling_modules |= names
                else:
                    bound |= names
        used: dict[str, set[str]] = {}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in sibling_modules):
                used.setdefault(node.value.id, set()).add(node.attr)
        found[layer] = {"from": bound, "attr": used}
    return found


def _wrappable(caller: str, name: str, obj) -> bool:
    if isinstance(obj, type) or not callable(obj):
        return False
    if inspect.isgeneratorfunction(inspect.unwrap(obj)):
        return False
    return not name.startswith("_") or (caller, name) in PRIVATE_CROSSINGS


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", "") or ""
    head, _, tail = module.partition(".")
    return tail if head == "cyclekit" and tail in LAYERS else None


class _ModuleView:
    """Stands in for a sibling module inside one caller, with some functions wrapped."""

    def __init__(self, module, overrides: dict) -> None:
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name: str):
        return getattr(self._module, name)


class Tracer:
    def __init__(self) -> None:
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self._open: list[float] = []  # time covered by child spans, per open span
        # outcome counters measured at the boundaries
        self.iso_calls = self.iso_true = 0
        self.forbid_calls = self.forbid_true = 0
        self.graphs_examined = 0
        self.search_s = 0.0
        self.draws = 0

    def span(self, layer: str, fn, observe=None):
        """``fn`` wrapped in a span charged to ``layer``; ``observe(args, kwargs,
        result, dur)`` runs after the span closes."""
        calls, self_s, open_spans, clock = self.calls, self.self_s, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                self_s[layer] += dur - open_spans.pop()
                calls[layer] += 1
                if open_spans:
                    open_spans[-1] += dur
            if observe is not None:
                observe(args, kwargs, result, dur)
            return result

        return traced

    # -- boundary observers --------------------------------------------------

    def _observe_iso(self, args, kwargs, result, dur) -> None:
        self.iso_calls += 1
        self.iso_true += bool(result)

    def _observe_forbid(self, args, kwargs, result, dur) -> None:
        self.forbid_calls += 1
        self.forbid_true += bool(result)

    def _observe_search(self, args, kwargs, result, dur) -> None:
        if not result.from_cache:
            self.graphs_examined += result.graphs_examined
            self.search_s += dur

    def _observe_estimate(self, args, kwargs, result, dur) -> None:
        self.draws += result.samples * args[0]  # samples x word length n

    def _observer(self, name: str):
        return {
            "is_isomorphic": self._observe_iso,
            "contains_subgraph": self._observe_forbid,
            "max_cycles_h_free": self._observe_search,
            "estimate_prob": self._observe_estimate,
        }.get(name)

    def install(self, src: Path) -> None:
        """Wrap every cross-module call site of the imported cyclekit package."""
        modules = {layer: importlib.import_module(f"cyclekit.{layer}") for layer in LAYERS}
        for caller, found in cross_module_calls(src).items():
            module = modules[caller]
            for name in sorted(found["from"]):
                obj = getattr(module, name, None)
                callee = _layer_of(obj)
                if callee and callee != caller and _wrappable(caller, name, obj):
                    setattr(module, name, self.span(callee, obj, self._observer(name)))
            for alias, names in sorted(found["attr"].items()):
                target = getattr(module, alias)
                overrides = {}
                for name in sorted(names):
                    obj = getattr(target, name, None)
                    callee = _layer_of(obj)
                    if callee and callee != caller and _wrappable(caller, name, obj):
                        overrides[name] = self.span(callee, obj, self._observer(name))
                if overrides:
                    setattr(module, alias, _ModuleView(target, overrides))

    def metrics(self, wall_s: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.share"] = self.self_s[layer] / wall_s
        counting_calls = self.calls["counting"]
        out["counting.ms_per_call"] = 1e3 * self.self_s["counting"] / counting_calls if counting_calls else 0.0
        out["morphisms.iso_dup_ratio"] = self.iso_true / self.iso_calls if self.iso_calls else 0.0
        out["morphisms.forbid_hit_ratio"] = self.forbid_true / self.forbid_calls if self.forbid_calls else 0.0
        out["search.graphs_per_s"] = self.graphs_examined / self.search_s if self.search_s else 0.0
        rc = self.self_s["randcodes"]
        out["randcodes.draws_per_s"] = self.draws / rc if rc else 0.0
        return out
