"""Per-layer self time and work counts for kantorov, measured from outside.

The layers are the package's modules.  ``Tracer.install`` replaces every
function one module imports from another, in the importing module's
namespace, with a wrapper that records a span for the defining layer; a
few intra-module calls get spans of their own (``INNER_SPANS``).  A
span's self time is its duration minus the spans it encloses, so the
layers' self times add up to the traced wall time.  Catalog functions
are wrapped at ``lookup``: the returned function keeps its ``meta`` but
counts the points it evaluates.

Nothing is looked up by a hard-coded signature unless it exists; a
metric whose sources are missing is reported as absent.
"""

from __future__ import annotations

import dataclasses
import importlib
import time

import numpy as np

PACKAGE = "kantorov"
LAYERS = ("cli", "analysis", "kantorovich", "bernstein", "measures", "geometry",
          "markov", "moduli", "catalog")
# (module, function) pairs called inside their own module that get a span.
INNER_SPANS = (("analysis", "lp_norm"),)
# kantorovich entry points that run one set of inner integrals (a ladder).
_LADDER_ENTRIES = ("eval_Cn", "eval_Cn_cells", "eval_In")
_BATCH_FUNCTIONS = ("apply_lattice_values", "basis_weights", "eval_Bn")
_RULES = ("measure_nodes", "quadrature_rule")

PER_LAYER = (
    ("catalog.points", "count"),
    ("catalog.self_s", "s"),
    ("kantorovich.self_s", "s"),
    ("kantorovich.cells_self_s", "s"),
    ("kantorovich.inner_misses", "count"),
    ("kantorovich.inner_hits", "count"),
    ("kantorovich.ladder_levels", "count"),
    ("kantorovich.ladder_at_cap", "count"),
    ("bernstein.self_s", "s"),
    ("bernstein.points", "count"),
    ("measures.self_s", "s"),
    ("measures.nodes", "count"),
    ("geometry.self_s", "s"),
    ("geometry.rules", "count"),
    ("analysis.self_s", "s"),
    ("analysis.lp_norm_self_s", "s"),
    ("moduli.self_s", "s"),
    ("markov.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.coverage", "share"),
    ("trace.overhead_s", "s"),
)


def _rows(points) -> int:
    return 1 if np.ndim(points) <= 1 else len(points)


class Tracer:
    """Spans and counters for one process; ``install`` once, ``restore`` to undo."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.span_self_s = {}
        self.counts = {}
        self.sources = set()
        self._stack = []  # [child seconds, highest rule level requested]
        self._undo = []
        self._modules = {}
        self._top_level = None

    # -- spans -------------------------------------------------------------

    def wrap(self, layer: str, name: str, fn, caller: str = ""):
        """``fn`` inside a span of ``layer``; ``caller`` is the module whose
        namespace the wrapper replaces."""
        self.sources.add(f"{layer}.{name}")
        if caller == "kantorovich" and name in _RULES:
            self.sources.add("ladder")
        stack = self._stack

        def span(*args, **kwargs):
            token = self._before(layer, name, caller, args, kwargs)
            frame = [0.0, 0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                own = elapsed - frame[0]
                self.self_s[layer] += own
                key = f"{layer}.{name}"
                self.span_self_s[key] = self.span_self_s.get(key, 0.0) + own
                if stack:
                    stack[-1][0] += elapsed
            return self._after(layer, name, caller, args, kwargs, result, token, frame)

        span.__wrapped__ = fn
        return span

    def _count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _before(self, layer, name, caller, args, kwargs):
        if layer == "kantorovich" and name == "eval_Cn" and "inner_cache" in self.sources:
            return self._modules["kantorovich"]._inner_values.cache_info().misses
        return None

    def _after(self, layer, name, caller, args, kwargs, result, token, frame):
        if name in _RULES:
            level = kwargs.get("level", args[-1] if args else 0)
            if caller == "kantorovich":
                self._count("kantorovich.ladder_levels")
                if self._stack:
                    self._stack[-1][1] = max(self._stack[-1][1], int(level))
            if name == "measure_nodes":
                self._count("measures.nodes", len(result[0]))
            else:
                self._count("geometry.rules")
        elif layer == "bernstein" and name in _BATCH_FUNCTIONS and args:
            self._count("bernstein.points", _rows(args[-1]))
        elif layer == "kantorovich" and name in _LADDER_ENTRIES:
            if self._top_level is not None and frame[1] >= self._top_level:
                self._count("kantorovich.ladder_at_cap")
            if token is not None:
                missed = self._modules["kantorovich"]._inner_values.cache_info().misses > token
                self._count("kantorovich.inner_misses" if missed else "kantorovich.inner_hits")
        elif layer == "catalog" and name == "eval":
            self._count("catalog.points", _rows(args[0]))
        elif layer == "catalog" and name == "lookup" and hasattr(result, "eval"):
            counted = self.wrap("catalog", "eval", result.eval)
            return dataclasses.replace(result, eval=counted)
        return result

    # -- installation ------------------------------------------------------

    def _patch(self, module, name: str, wrapper) -> None:
        self._undo.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def install(self) -> None:
        mods = self._modules
        for layer in LAYERS:
            try:
                mods[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
        for caller, module in mods.items():
            for name, obj in list(vars(module).items()):
                owner = getattr(obj, "__module__", None) or ""
                if isinstance(obj, type) or not callable(obj):
                    continue
                layer = owner.removeprefix(PACKAGE + ".")
                if layer == caller or layer not in mods:
                    continue
                self._patch(module, name, self.wrap(layer, name, obj, caller))
        for layer, name in INNER_SPANS:
            fn = getattr(mods.get(layer), name, None)
            if callable(fn):
                self._patch(mods[layer], name, self.wrap(layer, name, fn, layer))
        kant = mods.get("kantorovich")
        if hasattr(getattr(kant, "_inner_values", None), "cache_info"):
            self.sources.add("inner_cache")
        self._top_level = getattr(kant, "_MAX_LEVEL", None)

    def restore(self) -> None:
        while self._undo:
            module, name, original = self._undo.pop()
            setattr(module, name, original)

    # -- report ------------------------------------------------------------

    def _available(self, metric: str) -> bool:
        src = self.sources
        ladder = "ladder" in src
        needs = {
            "catalog.points": "catalog.lookup" in src,
            "kantorovich.cells_self_s": "kantorovich.eval_Cn_cells" in src,
            "kantorovich.inner_misses": {"kantorovich.eval_Cn", "inner_cache"} <= src,
            "kantorovich.inner_hits": {"kantorovich.eval_Cn", "inner_cache"} <= src,
            "kantorovich.ladder_levels": ladder,
            "kantorovich.ladder_at_cap": ladder and self._top_level is not None,
            "bernstein.points": any(f"bernstein.{n}" in src for n in _BATCH_FUNCTIONS),
            "measures.nodes": "measures.measure_nodes" in src,
            "geometry.rules": "geometry.quadrature_rule" in src,
            "analysis.lp_norm_self_s": "analysis.lp_norm" in src,
        }
        if metric in needs:
            return needs[metric]
        layer, _, kind = metric.partition(".")
        if layer == "trace":
            return True
        return kind == "self_s" and any(s.startswith(layer + ".") for s in src)

    def metrics(self, wall_s: float) -> tuple[dict, list]:
        """(values of the available per-layer metrics, names of absent ones);
        ``trace.overhead_s`` is left to the caller, who has the untraced run."""
        values, absent = {}, []
        for metric, _unit in PER_LAYER:
            if metric == "trace.overhead_s":
                continue
            if not self._available(metric):
                absent.append(metric)
                continue
            if metric == "trace.coverage":
                values[metric] = sum(self.self_s.values()) / wall_s
            elif metric == "kantorovich.cells_self_s":
                values[metric] = self.span_self_s.get("kantorovich.eval_Cn_cells", 0.0)
            elif metric == "analysis.lp_norm_self_s":
                values[metric] = self.span_self_s.get("analysis.lp_norm", 0.0)
            elif metric.endswith(".self_s"):
                values[metric] = self.self_s[metric.partition(".")[0]]
            else:
                values[metric] = self.counts.get(metric, 0)
        return values, absent
