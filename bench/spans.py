"""Spans around calls into each layer, recorded from outside the library.

``Tracer.installed(lib)`` replaces, for its duration, the module attributes
through which the pipeline calls each layer's public function (for example
``labelled_graph.cached_order``, the name ``build_graph`` looks up) with a
wrapper that records a span: op id, name, parent span, start and end.  The
counts of each layer are taken at the same wrappers from the values the
calls return.  Spans stay in memory; ``layer_metrics`` folds them into
per-op self times once the run ends.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from time import perf_counter

# (module, attribute, span name).  A layer function reached under several
# module names is wrapped under each, with one span name.
PATCHES = (
    ("core_order", "f_classes", "shift.f_classes"),
    ("labelled_graph", "cached_order", "core_order.cached_order"),
    ("smorita", "cached_order", "core_order.cached_order"),
    ("decide", "build_graph", "labelled_graph.build_graph"),
    ("labelled_graph", "build_graph", "labelled_graph.build_graph"),
    ("decide", "graphs_isomorphic_ordered", "decide.search"),
    ("smorita", "build_cd", "smorita.build_cd"),
    ("smorita", "cd_isomorphic", "smorita.cd_isomorphic"),
    ("smorita", "coherent_check", "smorita.coherent_check"),
    ("lgis", "run_axiom_suite", "lgis.run_axiom_suite"),
    ("sweeps", "sweep_oracle", "oracle.sweep_oracle"),
)

# per-op self time of each span name, reported in ms/op
SELF_TIMES = {
    "shift.f_classes_ms": "shift.f_classes",
    "core_order.order_ms": "core_order.cached_order",
    "labelled_graph.build_ms": "labelled_graph.build_graph",
    "decide.search_ms": "decide.search",
    "smorita.build_cd_ms": "smorita.build_cd",
    "smorita.cd_iso_ms": "smorita.cd_isomorphic",
    "smorita.coherent_ms": "smorita.coherent_check",
    "lgis.axiom_suite_ms": "lgis.run_axiom_suite",
    "oracle.sweep_ms": "oracle.sweep_oracle",
}


class Tracer:
    def __init__(self):
        # [op id, name, parent index or None, start, end]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._seen: set = set()
        self._count = {
            "shift.f_classes": self.count_closure,
            "labelled_graph.build_graph": self.count_graph,
            "decide.search": self.count_search,
            "smorita.build_cd": self.count_cd,
            "lgis.run_axiom_suite": self.count_suite,
        }

    def wrap(self, name: str, fn):
        count = self._count.get(name)

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            span = [self.op, name, parent, perf_counter(), None]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[4] = perf_counter()
            if count is not None:
                count(args, out)
            return out

        if name == "shift.f_classes":
            # called in the core fixpoint's inner loops; only the first call
            # per matrix computes the closure, so only that one gets a span
            def first_call(T):
                if T in self._seen:
                    return fn(T)
                self._seen.add(T)
                return traced(T)

            return first_call
        if name == "core_order.cached_order":
            info = fn.cache_info

            def order(T):
                misses = info().misses
                out = traced(T)
                if info().misses != misses:
                    self.counts["orders"] += 1
                    self.counts["pairs"] += len(out.pairs)
                return out

            return order
        return traced

    @contextlib.contextmanager
    def installed(self, lib):
        saved = []
        try:
            for mod, attr, name in PATCHES:
                module = getattr(lib, mod)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def count_closure(self, args, out):
        self.counts["closures"] += 1
        self.counts["classes"] += len(out)

    def count_graph(self, args, G):
        self.counts["builds"] += 1
        self.counts["labels"] += len(G.labels)
        self.counts["edges"] += len(G.edges)

    def count_search(self, args, witness):
        G1, G2 = args
        self.counts["searches"] += 1
        self.counts["equivalent"] += witness is not None
        self.counts["count_rejects"] += (
            len(G1.vertices) != len(G2.vertices)
            or len(G1.labels) != len(G2.labels)
            or len(G1.edges) != len(G2.edges)
        )

    def count_cd(self, args, cd):
        self.counts["cds"] += 1
        self.counts["cd_elements"] += len(cd.elements)

    def count_suite(self, args, res):
        e, u = res["elements"], res["universe"]
        self.counts["suites"] += 1
        self.counts["elements"] += e
        self.counts["universe"] += u
        self.counts["products"] += e * e + 2 * e * u

    def self_times(self, ops) -> tuple[Counter, float]:
        """Self time per span name over the spans of ``ops``, and the time
        those ops spent inside any top-level span."""
        child = [0.0] * len(self.spans)
        for op, name, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        own: Counter = Counter()
        covered = 0.0
        for idx, (op, name, parent, start, end) in enumerate(self.spans):
            if op in ops:
                own[name] += end - start - child[idx]
                if parent is None:
                    covered += end - start
        return own, covered


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, op_times: dict, hit_ratio: float) -> dict:
    """Per-layer metrics over the traced ops, as {name: (value, unit)}."""
    own, covered = tracer.self_times(op_times)
    n = len(op_times)
    c = tracer.counts
    out = {
        key: (own[span] * 1000 / n, "ms/op") for key, span in SELF_TIMES.items()
    }
    out.update(
        {
            "shift.classes": (ratio(c["classes"], c["closures"]), "count"),
            "core_order.pairs": (ratio(c["pairs"], c["orders"]), "count"),
            "core_order.cache_hit_ratio": (hit_ratio, "ratio"),
            "labelled_graph.builds": (c["builds"] / n, "count"),
            "labelled_graph.labels": (ratio(c["labels"], c["builds"]), "count"),
            "labelled_graph.edges": (ratio(c["edges"], c["builds"]), "count"),
            "decide.count_reject_ratio": (ratio(c["count_rejects"], c["searches"]), "ratio"),
            "decide.equivalent_ratio": (ratio(c["equivalent"], c["searches"]), "ratio"),
            "smorita.cd_elements": (ratio(c["cd_elements"], c["cds"]), "count"),
            "lgis.elements": (ratio(c["elements"], c["suites"]), "count"),
            "lgis.universe": (ratio(c["universe"], c["suites"]), "count"),
            "lgis.products": (ratio(c["products"], c["suites"]), "count"),
            "trace.coverage": (covered / sum(op_times.values()), "ratio"),
        }
    )
    return out
