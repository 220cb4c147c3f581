"""The labelled graph of a Markov-shift inverse hull.

Vertices are the nonzero D-classes.  For each vertex a and each cover f of
its representative that is not itself a representative of a class below a,
there is one edge into a from every vertex below f's class, all carrying
the label (a, f).  Equal labels force equal ranges by construction, which
is the strongly-right-resolving property the path algebra relies on.  The
covers, their guard and the down-sets are read off the class order's
bitsets (``CoreOrder.label_covers`` and ``CoreOrder.below``).

``cached_graph`` keeps the graph of each recent matrix, so that repeated
decisions against one matrix build its graph once.  A graph is shared by
every caller that gets it from the cache and is never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .core_order import CoreOrder, cached_order
from .hull import HullIdempotent, dclass_rep, fmt_idem
from .shift import CACHE_MAXSIZE, InvariantViolation, TransitionMatrix

GREEK = "αβγδζηθικλμνξπρστυφχψω"


@dataclass(frozen=True, slots=True)
class Label:
    """(vertex, cover) pair; the cover's class fixes the source set."""

    vertex: int
    cover: HullIdempotent

    @property
    def src_class(self) -> int:
        return dclass_rep(self.cover)

    def key(self) -> tuple:
        return (self.vertex, self.cover.key())


@dataclass(frozen=True, slots=True)
class Edge:
    range: int
    label: Label
    source: int


class LabelledGraph:
    """Immutable labelled graph with its vertex order."""

    def __init__(
        self,
        matrix: TransitionMatrix,
        order: CoreOrder,
        labels: tuple[Label, ...],
        edges: tuple[Edge, ...],
    ):
        self.matrix = matrix
        self.order = order
        self.vertices: tuple[int, ...] = order.classes
        self.labels = labels
        self.edges = edges
        self.label_names = MappingProxyType(
            {
                lab: (GREEK[i] if i < len(GREEK) else f"L{i}")
                for i, lab in enumerate(labels)
            }
        )
        self._check()

    def _check(self) -> None:
        ranges: dict[Label, int] = {}
        for e in self.edges:
            if e.label.vertex != e.range:
                raise InvariantViolation("edge label disagrees with its range")
            if ranges.setdefault(e.label, e.range) != e.range:
                raise InvariantViolation("equal labels with distinct ranges")

    def b_set(self, v: int) -> tuple[int, ...]:
        """B_v: every vertex at or below v in the class order."""
        if v not in self.vertices:
            raise ValueError(f"unknown vertex {v}")
        return self.order.below(v)

    def vertex_name(self, v: int) -> str:
        return self.matrix.fmt_vec(v)


def build_graph(T: TransitionMatrix) -> LabelledGraph:
    order = cached_order(T)
    labels: list[Label] = []
    edges: list[Edge] = []
    for a in order.classes:
        for f in order.label_covers(a):
            lab = Label(a, f)
            labels.append(lab)
            for b in order.below(dclass_rep(f)):
                edges.append(Edge(a, lab, b))
    labels.sort(key=Label.key)
    edges.sort(key=lambda e: (e.label.key(), e.source))
    return LabelledGraph(T, order, tuple(labels), tuple(edges))


@lru_cache(maxsize=CACHE_MAXSIZE)
def cached_graph(T: TransitionMatrix) -> LabelledGraph:
    """``build_graph(T)``, built once per matrix while it stays among the
    most recently used."""
    return build_graph(T)


def fmt_label(T: TransitionMatrix, lab: Label) -> str:
    return f"({T.fmt_vec(lab.vertex)},{fmt_idem(T, lab.cover)})"


def to_dot(G: LabelledGraph) -> str:
    """Deterministic DOT text: sorted vertices, edges sorted by label then
    source, labels shown as (class, cover) pairs."""
    out = ["digraph hull {"]
    for v in G.vertices:
        out.append(f'  "{G.vertex_name(v)}";')
    for e in G.edges:
        name = G.label_names[e.label]
        out.append(
            f'  "{G.vertex_name(e.source)}" -> "{G.vertex_name(e.range)}"'
            f' [label="{name}={fmt_label(G.matrix, e.label)}"];'
        )
    out.append("}")
    return "\n".join(out) + "\n"
