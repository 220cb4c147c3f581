"""The labelled graph of a Markov-shift inverse hull.

Vertices are the nonzero D-classes.  For each vertex a and each cover f of
its representative that is not itself a representative of a class below a,
there is one edge into a from every vertex below f's class, all carrying
the label (a, f).  So a graph is fixed by its class order and its labels:
``LabelledGraph`` stores those two and derives its edges on first use, one
fan per label, each edge's range being its label's vertex.  Equal labels
therefore have equal ranges by construction, which is the
strongly-right-resolving property the path algebra relies on.  The
covers with their guard (``CoreOrder.label_covers``) and each fan's
sources (the bits of ``CoreOrder.down`` at the cover's class) are read off
the class order's bitsets in order, so the labels come out in ``Label.key``
order and the edges in (label, source) order without a sort.  ``Label`` and
``Edge`` are named tuples, built, hashed and ordered as plain tuples.
Each graph's ``counted_order`` groups its labels by (range vertex, cover
class) for the isomorphism search and the witness; the combinatorial
data's guarded covers are these labels, and its check takes the witness.

No decision builds an edge: the edge count is the sum of the fans' sizes
(``edge_count``), and the witness check reads each fan as its label's
vertex and cover class (``decide.verify_witness``).  The edges are built
only for ``to_dot``, the CLI's JSON and ``reference.raw_of``.

``cached_graph`` keeps the graph of each recent matrix, so that repeated
decisions against one matrix build its graph once.  A graph is shared by
every caller that gets it from the cache and is never mutated.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .core_order import CoreOrder, CountedOrder, cached_order
from .hull import HullIdempotent, dclass_rep, fmt_idem
from .shift import CACHE_MAXSIZE, TransitionMatrix, _bits

GREEK = "αβγδζηθικλμνξπρστυφχψω"


class Label(NamedTuple):
    """(vertex, cover) pair; the cover's class fixes the source set."""

    vertex: int
    cover: HullIdempotent

    @property
    def src_class(self) -> int:
        return dclass_rep(self.cover)

    def key(self) -> tuple:
        return (self.vertex, self.cover.key())


class Edge(NamedTuple):
    range: int
    label: Label
    source: int


class LabelledGraph:
    """Immutable labelled graph: its vertex order and its labels, from
    which the edges are derived."""

    def __init__(self, order: CoreOrder, labels: tuple[Label, ...]):
        self.matrix: TransitionMatrix = order.matrix
        self.order = order
        self.vertices: tuple[int, ...] = order.classes
        self.labels = labels

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """One edge into each label's vertex from every vertex at or below
        its cover's class (the bits of ``CoreOrder.down`` there), in
        (label, source) order; built on first use."""
        classes, index, down = self.order.classes, self.order.index, self.order.down
        return tuple(
            Edge(lab.vertex, lab, classes[b])
            for lab in self.labels
            for b in _bits(down[index[lab.src_class]])
        )

    @cached_property
    def edge_count(self) -> int:
        """``len(self.edges)``, the sum of the fans' sizes, built without an
        edge."""
        down, index = self.order.down, self.order.index
        return sum(down[index[lab.src_class]].bit_count() for lab in self.labels)

    @cached_property
    def label_names(self) -> MappingProxyType:
        """Read-only {label: name}: Greek letters in label order, then L<i>."""
        return MappingProxyType(
            {
                lab: (GREEK[i] if i < len(GREEK) else f"L{i}")
                for i, lab in enumerate(self.labels)
            }
        )

    @cached_property
    def counted_order(self) -> CountedOrder:
        """The vertex order with the labels grouped by (range vertex, cover
        class), for the search and the witness; built once per graph."""
        return CountedOrder(
            self.order, (((lab.vertex, lab.src_class), lab) for lab in self.labels)
        )

    def b_set(self, v: int) -> tuple[int, ...]:
        """B_v: every vertex at or below v in the class order."""
        if v not in self.vertices:
            raise ValueError(f"unknown vertex {v}")
        return self.order.below(v)

    def vertex_name(self, v: int) -> str:
        return self.matrix.fmt_vec(v)


def build_graph(T: TransitionMatrix) -> LabelledGraph:
    order = cached_order(T)
    return LabelledGraph(
        order, tuple(Label(a, f) for a in order.classes for f in order.label_covers(a))
    )


@lru_cache(maxsize=CACHE_MAXSIZE)
def cached_graph(T: TransitionMatrix) -> LabelledGraph:
    """``build_graph(T)``, built once per matrix while it stays among the
    most recently used."""
    return build_graph(T)


def fmt_label(T: TransitionMatrix, lab: Label) -> str:
    return f"({T.fmt_vec(lab.vertex)},{fmt_idem(T, lab.cover)})"


def _dot_quoted(text: str) -> str:
    """A DOT quoted string: ``"`` escaped.  Every text quoted here ends in
    ``}`` or ``)``, so no backslash comes just before the closing quote."""
    return '"' + text.replace('"', '\\"') + '"'


def to_dot(G: LabelledGraph) -> str:
    """Deterministic DOT text: sorted vertices, edges sorted by label then
    source, labels shown as (class, cover) pairs."""
    out = ["digraph hull {"]
    for v in G.vertices:
        out.append(f"  {_dot_quoted(G.vertex_name(v))};")
    for e in G.edges:
        name = G.label_names[e.label]
        src, rng = _dot_quoted(G.vertex_name(e.source)), _dot_quoted(G.vertex_name(e.range))
        text = _dot_quoted(f"{name}={fmt_label(G.matrix, e.label)}")
        out.append(f"  {src} -> {rng} [label={text}];")
    out.append("}")
    return "\n".join(out) + "\n"
