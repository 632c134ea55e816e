"""Outside-in tracing of maxsemi's modules.

``Tracer.install`` wraps every public function of each layer (a module of
the package) in a span recorder and rebinds the wrapper in every
``maxsemi.*`` namespace that holds the function, because the modules
import each other's functions by name.  At class level it wraps
``FiniteSemigroup.table`` as a span and counts the hot leaf calls
(``FiniteSemigroup.product``, ``Permutation.__mul__`` and the payload
multiplies).  The leaf calls are counted, not timed: a span per product
would hold millions of records and its own cost would swamp the work, so
their time stays in the self time of the span that made them.  Even a
bare counter costs as much as a table lookup (``semigroup-s4`` makes 23 M
``product`` calls), so the counters are installed only for counting
operations (``install(counting=True)``); timing operations record spans
alone and the per-layer times come from them.

Spans are kept in memory as ``[name, start, end, parent]`` and handed out
by ``take`` at stage boundaries.  Nothing in ``src/`` is touched.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("perm_group", "graphs", "semigroup_core", "rees_matrix",
          "max_subsemigroups", "oracle", "cli")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _validation_skipped(args, kwargs, result):
    mod = importlib.import_module("maxsemi.max_subsemigroups")
    return len(result) if _arg(args, kwargs, 0, "sg").size > mod.VALIDATION_BOUND else 0


# span name -> [(counter, f(args, kwargs, result))]: work counts read off
# a call's arguments and result
HOOKS = {
    "perm_group.all_subgroups": [("perm_group.subgroups_found", lambda a, k, r: len(r))],
    "rees_matrix.max_r6": [("rees_matrix.r6_results", lambda a, k, r: len(r))],
    "semigroup_core.closure": [("semigroup_core.closure_elements", lambda a, k, r: r.size)],
    "semigroup_core.closure_with_ideal": [(
        "semigroup_core.validation_walk",
        lambda a, k, r: len(r) - len(_arg(a, k, 1, "ideal")))],
    "graphs.maximal_independent_sets": [("graphs.mis_sets", lambda a, k, r: len(r))],
    "graphs.maximal_independent_sets_closed": [("graphs.mis_sets", lambda a, k, r: len(r))],
    "max_subsemigroups.max_subsemigroups": [
        ("max_subsemigroups.results", lambda a, k, r: len(r)),
        ("max_subsemigroups.validation_skipped", _validation_skipped)],
    "oracle.verify_maximal": [(
        "oracle.extensions_tried",
        lambda a, k, r: _arg(a, k, 0, "sg").size - len(set(_arg(a, k, 1, "candidate"))))],
}

# class-level leaf calls: (module, class, attribute, counter)
COUNTED = (
    ("semigroup_core", "FiniteSemigroup", "product", "semigroup_core.products"),
    ("perm_group", "Permutation", "__mul__", "perm_group.perm_products"),
    ("semigroup_core", "Transformation", "__mul__", "semigroup_core.payload_products"),
    ("rees_matrix", "ReesZeroMatrixSemigroup", "multiply", "semigroup_core.payload_products"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._cells = defaultdict(lambda: [0])
        self._stack = []
        self._patches = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hooks = HOOKS.get(name, ())

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            for counter, f in hooks:
                counts[counter] += f(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        cell = self._cells[name]

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- install / uninstall -------------------------------------------------

    def install(self, counting):
        modules = {layer: importlib.import_module(f"maxsemi.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[obj] = self._span(f"{layer}.{name}", obj)
        namespaces = [m for key, m in sys.modules.items()
                      if key == "maxsemi" or key.startswith("maxsemi.")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(ns, attr, wrapped[obj])
        cls = modules["semigroup_core"].FiniteSemigroup
        self._patch(cls, "table", self._span("semigroup_core.table", cls.table))
        for layer, cls_name, attr, counter in COUNTED if counting else ():
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, attr, self._counter(counter, getattr(cls, attr)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self):
        """Spans and counts recorded since the last call; resets both."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        spans = list(self.spans)
        self.spans.clear()
        counts = dict(self.counts)
        self.counts.clear()
        for name, cell in self._cells.items():
            counts[name] = counts.get(name, 0) + cell[0]
            cell[0] = 0
        return spans, counts


# ---------------------------------------------------------------------------
# per-layer metrics

class Stage:
    """Aggregates of one stage's spans: per function call count, total
    time and self time (duration minus the time of child spans)."""

    def __init__(self, spans, counts):
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.root_time = 0.0
        for k, (name, start, end, parent) in enumerate(spans):
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_time[name] += end - start - child[k]
            if parent < 0:
                self.root_time += end - start
        self.counts = counts

    def layer_self(self, layer):
        return sum(t for name, t in self.self_time.items() if name.startswith(layer + "."))


# metric -> (unit, stage, value): stage "build" is the untimed per-op input
# set-up, "solve" the search and "verify" the oracle check
PER_LAYER = {
    "perm_group.self_s": ("s", "solve", lambda s: s.layer_self("perm_group")),
    "perm_group.all_subgroups_s": ("s", "solve", lambda s: s.self_time["perm_group.all_subgroups"]),
    "perm_group.max_classes_s": ("s", "solve", lambda s: s.total["perm_group.maximal_subgroup_classes"]),
    "perm_group.subgroups_found": ("count", "solve", lambda s: s.counts.get("perm_group.subgroups_found", 0)),
    "perm_group.perm_products": ("count", "solve", lambda s: s.counts.get("perm_group.perm_products", 0)),
    "rees_matrix.self_s": ("s", "solve", lambda s: s.layer_self("rees_matrix")),
    "rees_matrix.normalize_s": ("s", "solve", lambda s: s.total["rees_matrix.normalize"]),
    "rees_matrix.normalize_calls": ("count", "solve", lambda s: s.calls["rees_matrix.normalize"]),
    "rees_matrix.r6_s": ("s", "solve", lambda s: s.self_time["rees_matrix.max_r6"]),
    "rees_matrix.r6_results": ("count", "solve", lambda s: s.counts.get("rees_matrix.r6_results", 0)),
    "rees_matrix.r5_s": ("s", "solve", lambda s: s.self_time["rees_matrix.max_r5"]),
    "rees_matrix.generating_set_s": ("s", "build", lambda s: s.self_time["rees_matrix.generating_set"]),
    "semigroup_core.self_s": ("s", "solve", lambda s: s.layer_self("semigroup_core")),
    "semigroup_core.table_s": ("s", "solve", lambda s: s.self_time["semigroup_core.table"]),
    "semigroup_core.payload_products": ("count", "solve", lambda s: s.counts.get("semigroup_core.payload_products", 0)),
    "semigroup_core.validation_s": ("s", "solve", lambda s: s.self_time["semigroup_core.closure_with_ideal"]),
    "semigroup_core.validation_calls": ("count", "solve", lambda s: s.calls["semigroup_core.closure_with_ideal"]),
    "semigroup_core.validation_walk": ("count", "solve", lambda s: s.counts.get("semigroup_core.validation_walk", 0)),
    "semigroup_core.closure_s": ("s", "build", lambda s: s.self_time["semigroup_core.closure"]),
    "semigroup_core.closure_elements": ("count", "build", lambda s: s.counts.get("semigroup_core.closure_elements", 0)),
    "semigroup_core.greens_s": ("s", "solve", lambda s: s.self_time["semigroup_core.greens_structure"]),
    "semigroup_core.principal_factor_s": ("s", "solve", lambda s: s.self_time["semigroup_core.principal_factor_iso"]),
    "semigroup_core.principal_factor_calls": ("count", "solve", lambda s: s.calls["semigroup_core.principal_factor_iso"]),
    "semigroup_core.span_s": ("s", "solve", lambda s: s.self_time["semigroup_core.span_at_or_above"]),
    "semigroup_core.products": ("count", "solve", lambda s: s.counts.get("semigroup_core.products", 0)),
    "graphs.self_s": ("s", "solve", lambda s: s.layer_self("graphs")),
    "graphs.mis_calls": ("count", "solve", lambda s: s.calls["graphs.maximal_independent_sets"]
                         + s.calls["graphs.maximal_independent_sets_closed"]),
    "graphs.mis_sets": ("count", "solve", lambda s: s.counts.get("graphs.mis_sets", 0)),
    "graphs.scc_calls": ("count", "solve", lambda s: s.calls["graphs.strongly_connected_condensation"]),
    "max_subsemigroups.self_s": ("s", "solve", lambda s: s.layer_self("max_subsemigroups")),
    "max_subsemigroups.jclass_graphs_s": ("s", "solve", lambda s: s.self_time["max_subsemigroups.build_jclass_graphs"]),
    "max_subsemigroups.results": ("count", "solve", lambda s: s.counts.get("max_subsemigroups.results", 0)),
    "max_subsemigroups.validation_skipped": ("count", "solve", lambda s: s.counts.get("max_subsemigroups.validation_skipped", 0)),
    "oracle.verify_s": ("s", "verify", lambda s: s.self_time["oracle.verify_maximal"]),
    "oracle.verify_calls": ("count", "verify", lambda s: s.calls["oracle.verify_maximal"]),
    "oracle.extensions_tried": ("count", "verify", lambda s: s.counts.get("oracle.extensions_tried", 0)),
    "cli.self_s": ("s", "solve", lambda s: s.layer_self("cli")),
}


# unit of every per-layer metric, including those the worker adds from
# the operation itself and trace.overhead, which run.py computes
UNITS = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
UNITS.update({"max_subsemigroups.validation_fallbacks": "count", "cli.doc_bytes": "bytes",
              "trace.coverage": "ratio", "trace.overhead": "ratio"})


def op_layer_metrics(stages):
    """Per-layer metrics of one traced operation, from its build, solve
    and verify stages (each a ``(spans, counts)`` pair)."""
    agg = {name: Stage(*pair) for name, pair in stages.items()}
    return {metric: float(f(agg[stage])) for metric, (unit, stage, f) in PER_LAYER.items()}, agg


def median_metrics(per_op):
    """Median of each metric over the traced operations."""
    return {k: statistics.median(op[k] for op in per_op) for k in per_op[0]}
